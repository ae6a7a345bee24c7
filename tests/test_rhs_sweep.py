"""scripts/rhs_sweep.py at a tiny batch: every piece of both tables timed
on every chart."""

from test_rhs_reference import CHARTS, rhs_sweep


def test_sweep_follows_the_stage():
    # g^-1 comes from the jet, so there is no inverse piece; B = 5 is the
    # batch of rank
    assert rhs_sweep.PIECES == ("jet", "spray", "riemann", "gradients",
                                "rhs")
    assert 5 in rhs_sweep.BATCHES


def test_sweep_times_every_piece():
    rows = list(rhs_sweep.sweep([1, 3], 1, 1))
    assert [row[:2] for row in rows] == [
        (chart, nb) for chart in CHARTS for nb in (1, 3)]
    assert all(list(times) == list(rhs_sweep.PIECES)
               and all(t > 0.0 for t in times.values())
               for _, _, times in rows)


def test_block_sweep_times_every_piece():
    rows = list(rhs_sweep.block_sweep(3, 1, 1))
    assert [row[:2] for row in rows] == [(chart, 3) for chart in CHARTS]
    assert all(list(times) == list(rhs_sweep.BLOCK_PIECES)
               and all(t > 0.0 for t in times.values())
               for _, _, times in rows)
