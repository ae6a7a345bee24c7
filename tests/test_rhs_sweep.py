"""scripts/rhs_sweep.py at a tiny batch: every piece of every table timed
on every chart."""

from frontshift import dynamics
from test_rhs_reference import CHARTS, rhs_sweep


def test_sweep_follows_the_stage():
    # a flow stage is its one generated call; one step of each half of
    # the system and a flow-only block; the coefficient block at its size,
    # with g^-1 from the variation call, so there is no inverse piece; and
    # B = 5 is the batch of rank
    assert rhs_sweep.PIECES == ("flow_jet", "flow_step", "flow_block",
                                "variation_step")
    assert rhs_sweep.COEFFICIENT_PIECES == ("variation_jet", "riemann",
                                            "gradients", "coefficients")
    assert 5 in rhs_sweep.BATCHES


def test_sweep_times_every_piece():
    rows = list(rhs_sweep.sweep([1, 3], 1, 1))
    assert [row[:2] for row in rows] == [
        (chart, nb) for chart in CHARTS for nb in (1, 3)]
    assert all(list(times) == list(rhs_sweep.PIECES)
               and all(t > 0.0 for t in times.values())
               for _, _, times in rows)


def test_coefficient_sweep_times_every_piece():
    rows = list(rhs_sweep.coefficient_sweep(1, 1))
    assert [row[:2] for row in rows] == [
        (chart, dynamics.BLOCK_POINTS) for chart in CHARTS]
    assert all(list(times) == list(rhs_sweep.COEFFICIENT_PIECES)
               and all(t > 0.0 for t in times.values())
               for _, _, times in rows)


def test_block_sweep_times_every_piece():
    rows = list(rhs_sweep.block_sweep(3, 1, 1))
    assert [row[:2] for row in rows] == [(chart, 3) for chart in CHARTS]
    assert all(list(times) == list(rhs_sweep.BLOCK_PIECES)
               and all(t > 0.0 for t in times.values())
               for _, _, times in rows)
