"""The front series phi and psi, formed batch-last from the metric's
unique-entry rows.

``blowup._attach_series`` evaluates the metric once per node as its
n(n+1)/2 unique entries and forms |v|, phi = g(tau, v) and |tau| by sums
in index order.  These tests pin it to the batch-first series it
replaced (``tests/oracles.py``), check that a row's series does not
depend on the rows beside it, and bound its memory.
"""

import tracemalloc

import numpy as np
import pytest

from frontshift import blowup
from frontshift.dynamics import BatchTrajectory, integrate_batch
from frontshift.geometry import ForceField, Manifold
from oracles import front_series_batch_first, g_norm
from test_geometry import JET_CHARTS

EPS = np.finfo(float).eps
# phi is a sum of n^2 <= 16 products in two stages, lowered then paired,
# and the batch-first ``@`` adds them in another order: up to 1.6 ulps of
# |v| |tau| apart on these charts, so 8 ulps leaves room without hiding
# a wrong term, which moves phi by O(|v| |tau|)
ULPS = 8


def _front(chart, nb=48, t_end=0.2, h=1e-2):
    """A record of nb trajectories of the chart's force from points well
    inside its box, n - 1 variations each; the first variation of the
    first three rows is zero, so their psi is undefined at every node."""
    metric, force_src, box = JET_CHARTS[chart]
    n = len(metric)
    man = Manifold(n, metric)
    force = ForceField(man, force_src)
    rng = np.random.default_rng([41, n])
    lo, hi = np.array(box).T
    xs = lo + (0.2 + 0.6 * rng.random((nb, n))) * (hi - lo)
    vs = rng.normal(size=(nb, n))
    tau0, rho0 = rng.normal(size=(2, nb, n - 1, n))
    tau0[:3, 0] = rho0[:3, 0] = 0.0        # stays zero: psi undefined
    batch = integrate_batch(man, force, xs, vs, tau0, rho0, t_end, h)
    return man, batch


@pytest.mark.parametrize("chart", ["S2", "S3", "S4", "dense4"])
def test_series_is_the_batch_first_series_to_rounding(chart):
    man, batch = _front(chart)
    m1, nb, nvar, n = batch.tau.shape
    record = blowup._attach_series(man, np.zeros((nb, n - 1)), batch)
    phi, psi = front_series_batch_first(man, batch)
    assert record.phi.shape == record.psi.shape == (m1, nb, nvar)
    g = man.metric(batch.x.reshape(-1, n)).reshape(m1, nb, n, n)
    scale = g_norm(g, batch.v)[..., None] * g_norm(g[:, :, None], batch.tau)
    assert np.all(np.abs(record.phi - phi) <= ULPS * EPS * scale)
    undefined = np.isnan(psi)
    assert undefined[:, :3, 0].all() and undefined.sum() == 3 * m1
    assert np.array_equal(np.isnan(record.psi), undefined)
    assert np.abs(record.psi - psi)[~undefined].max() <= ULPS * EPS


@pytest.mark.parametrize("chart", ["S3", "dense4"])
def test_series_of_a_row_slice_is_the_whole_batch_series(chart):
    # every row's sums run in index order, element by element: the rows
    # beside it and the batch length do not change a bit of its series
    man, batch = _front(chart)
    nb, n = batch.x.shape[1:]
    whole = blowup._attach_series(man, np.zeros((nb, n - 1)), batch)
    for rows in (slice(0, 1), slice(2, 7), slice(5, nb, 3)):
        part = BatchTrajectory(batch.times, batch.x[:, rows],
                               batch.v[:, rows], batch.tau[:, rows],
                               batch.rho[:, rows], batch.step)
        got = blowup._attach_series(man, np.zeros((nb, n - 1))[rows], part)
        assert np.array_equal(got.phi, whole.phi[:, rows])
        assert np.array_equal(got.psi, whole.psi[:, rows], equal_nan=True)


def test_series_forms_no_metric_per_node():
    # 51 x 1024 = 52 224 nodes of S^3 with two variations.  The series
    # must hold phi and psi (1.7 MB) and the metric's six unique-entry
    # rows (2.5 MB); beyond those it peaked at 1.7 MB, and the batch-first
    # series at 7.2 MB, where the gathered (M+1, B, 3, 3) metric alone
    # takes 3.8 MB
    man, batch = _front("S3", nb=1024, t_end=0.5)
    m1, nb, nvar, n = batch.tau.shape
    u = np.zeros((nb, n - 1))
    blowup._attach_series(man, u[:1], BatchTrajectory(
        batch.times, batch.x[:, :1], batch.v[:, :1], batch.tau[:, :1],
        batch.rho[:, :1], batch.step))           # compile outside the trace
    tracemalloc.start()
    try:
        record = blowup._attach_series(man, u, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes = m1 * nb
    held = record.phi.nbytes + record.psi.nbytes + nodes * n * (n + 1) // 2 * 8
    assert peak - held < nodes * n * n * 8
