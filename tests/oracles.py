"""Independent oracles that tests compare the package against.

None of these is production code; each exists to pin one convention or
one formula from a second, simpler route.

- ``single_record``: one row of a batch record, without the batch axis.
  The package takes whole batches; the tests compare it with itself row
  by row through this view.
- ``run_one``: one trajectory as a batch of one.  It is the package's
  own integrator (``integrate_batch``) read back with ``single_record``,
  so tests of single trajectories exercise the one production path.
- ``sphere_grid_per_direction``: the blow-up's sphere grid built one
  direction at a time, each with its own scalar trig, hyperspherical
  recursion and frame product (its columns added in index order, as
  ``geometry.matvec_last`` adds them), in every dimension.  It pins the
  whole-array grid bit for bit.
- ``g_norm`` and ``front_series_batch_first``: g-lengths over any
  leading axes, and the front series phi = g(tau, v) and psi =
  phi / (|v| |tau|) of a record, batch-first, from the gathered
  (M+1, B, n, n) metric and ``@`` products, as the package formed them
  before the series read the metric's unique-entry rows.  They pin the
  batch-last series to within rounding (``@`` does not add in index
  order) and the samplers' g-speeds bit for bit.
- ``covariant_rate``: the covariant time derivative of a vector series
  along a record, by finite differences of the recorded series plus the
  connection term.  It pins the spatial-gradient convention of
  ``extended_gradients`` (the pointwise chain rule v . spatial +
  F . velocity must equal it along a trajectory) and the covariant rate
  rho that the integrator carries beside tau.
- ``initial_instant``: phi, phi_dot and phi_ddot at the blow-up instant
  of one sphere-grid direction (its unit vector and tangents), from the
  closed-form derivatives (``phi_derivatives``) along a two-step
  integration, and phi_dddot Richardson-extrapolated from the phi_ddot
  values at t = h and 2h.  It pins the paper's statements about the
  first derivatives at t = 0: phi and phi_dot vanish for every force,
  phi_ddot is the direct contraction with the launch data, and for a
  modulated drag the defect first appears in the third derivative.
- ``adjugate_inverse``: g^-1 of 2 x 2, 3 x 3 and 4 x 4 metrics as the
  numeric adjugate over the determinant, each product one array
  operation over the batch, as the package computed it for n <= 3
  before the jets generated g^-1.  The generated entries use the same
  cyclic cofactor products in the same order, so it pins them byte for
  byte, signed zeros included.
- ``spray``: the connection contracted with v and F from g^-1 and the
  Koszul symbol, in batched matrix products, as the package formed it
  at every RK4 stage before the jets generated the contractions, keyed
  by the names of the jets' record fields.  It pins the acceleration of
  ``ForceField.flow_jet`` and the connection fields of
  ``ForceField.variation_jet``, which ``first_order_jet`` shares.
- ``rhs``: the plain time derivatives of the batched state at one RK4
  stage, composed of the production pieces at the stage's own points:
  the flow call (the acceleration), then the variation call,
  ``Manifold.riemann(record=)`` and ``extended_gradients``, whose batch-last
  matrices it moves batch-first into one rate matrix per point, and
  one product of that matrix with the rows [tau_j, rho_j].  The
  integrator forms the same pieces a block of stages at a time; this
  is the stage they add up to, which ``tests/test_rhs_reference.py``
  pins to the einsum formulation.
- ``three_products``: the variation rates of ``rhs`` from the same
  three matrices in three batched products, rho - tau (gamma v)^T and
  tau (spatial - riemann_sign K^T) + rho (dF/dv - (gamma v)^T), the
  integrator's stage before it stored one rate matrix per point.  It
  pins the one-product stage to within rounding.
- ``rk4_per_quantity``: the RK4 loop over ``rhs`` with x, v, tau and rho
  held as four arrays, each stage input, each combination and each
  finite check made per quantity.  ``integrate_batch`` runs the flow
  ahead of the variations, block by block, over one history array; this
  pins it to the same arithmetic, bit for bit, and to the same abort.
- ``sample_tangent_points_batch_first``: the classifier's sampler as it
  was written batch-first, the directions stacked as (count, n) rows
  and the g-speeds taken with ``g_norm`` of the gathered (count, n, n)
  metric.  ``normality.sample_tangent_points`` builds the same samples
  batch-last, from the metric's unique-entry rows; this pins its
  samples and speeds bit for bit.
- ``compile_text``: ``exprlang.compile_fn`` as it was written before it
  ran ufunc steps: the merged DAG printed as Python source, a shared
  non-leaf as a temporary, and run through ``exec``, each operation
  returning a fresh array, with one mend: a constant -0.0 is printed in
  parentheses, as a negative one was, so a power of it is not negated.
  ``tests/test_compile_steps.py`` pins the steps to it bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from frontshift.blowup import TAU_NORM_FLOOR
from frontshift.deviation import phi_derivatives
from frontshift import exprlang as el
from frontshift.dynamics import (BatchTrajectory, IntegrationAbort,
                                 integrate_batch)
from frontshift.geometry import at_point, extended_gradients
from frontshift.normality import _PRIMES, halton


def single_record(batch, row):
    """The record of one batch row, without the batch axis."""
    return BatchTrajectory(batch.times, batch.x[:, row], batch.v[:, row],
                           batch.tau[:, row], batch.rho[:, row], batch.step)


def run_one(man, force, x, v, t_end, h, tau=None, rho=None):
    """Record of one trajectory with variations tau[j] and covariant
    rates rho[j] (none by default; rho defaults to zero)."""
    n = man.dimension
    tau = (np.zeros((0, n)) if tau is None
           else np.asarray(tau, dtype=float).reshape(-1, n))
    rho = (np.zeros_like(tau) if rho is None
           else np.asarray(rho, dtype=float).reshape(tau.shape))
    batch = integrate_batch(man, force, np.asarray(x, dtype=float)[None],
                            np.asarray(v, dtype=float)[None], tau[None],
                            rho[None], t_end, h)
    return single_record(batch, 0)


def covariant_rate(man, record, series):
    """Covariant time derivative of a vector series along a
    single-trajectory record.

    Central differences inside, second-order one-sided at the ends, plus
    the connection term gamma^k_rs v^r series^s per node.
    """
    series = np.asarray(series, dtype=float)
    m = record.node_count
    if m < 3:
        raise ValueError("record must have at least 3 nodes")
    if series.shape[0] != m:
        raise ValueError("series not aligned with record nodes")
    h = record.step
    deriv = np.empty_like(series)
    deriv[1:-1] = (series[2:] - series[:-2]) / (2.0 * h)
    deriv[0] = (-3.0 * series[0] + 4.0 * series[1] - series[2]) / (2.0 * h)
    deriv[-1] = (3.0 * series[-1] - 4.0 * series[-2] + series[-3]) / (2.0 * h)
    gamma = man.christoffel(record.x)
    return deriv + np.einsum('bkrs,br,bs->bk', gamma, record.v, series)


def sphere_grid_per_direction(man, p0, resolution):
    """(u, directions, tangents) of the blow-up's sphere grid, one
    direction at a time: (B, n-1), (B, n) and (B, n-1, n)."""
    p0 = np.asarray(p0, dtype=float)
    frame = np.linalg.inv(np.linalg.cholesky(at_point(man.metric, p0)).T)
    delta = np.pi / (4.0 * resolution)
    thetas = delta + (np.pi - 2.0 * delta) * np.arange(resolution) / (
        resolution - 1)
    samples = []
    for index in itertools.product(range(resolution),
                                   repeat=man.dimension - 1):
        ph = 2.0 * np.pi * index[-1] / resolution
        polar = [thetas[i] for i in index[:-1]]
        s_hat = np.array([np.cos(ph), np.sin(ph)])
        ds = [np.array([-np.sin(ph), np.cos(ph)])]
        for theta in reversed(polar):
            st, ct = np.sin(theta), np.cos(theta)
            ds = ([np.append(ct * s_hat, -st)]
                  + [np.append(st * t, 0.0) for t in ds])
            s_hat = np.append(st * s_hat, ct)
        samples.append((np.array(polar + [ph]), _columns(frame, s_hat),
                        np.stack([_columns(frame, t) for t in ds])))
    return tuple(np.stack(part) for part in zip(*samples))


def _columns(m, w):
    """m w, the columns m[:, j] w[j] added in index order."""
    out = m[:, 0] * w[0]
    for j in range(1, len(w)):
        out = out + m[:, j] * w[j]
    return out


def g_norm(g, w):
    """The g-length sqrt(g_ij w^i w^j) over any leading axes, which
    broadcast: w lowered by one batched ``@``."""
    return np.sqrt(np.sum(w * (g @ w[..., None])[..., 0], axis=-1))


def front_series_batch_first(man, batch):
    """(phi, psi) of a record, (M+1, B, J) each: the metric gathered at
    every node, then phi = tau (g v) and the g-lengths by ``@``."""
    m1, nb, nvar, n = batch.tau.shape
    g = man.metric(batch.x.reshape(m1 * nb, n)).reshape(m1, nb, n, n)
    speed = g_norm(g, batch.v)
    v_cov = (g @ batch.v[..., None])[..., 0]
    phi = (batch.tau @ v_cov[..., None])[..., 0]
    tau_norm = g_norm(g[:, :, None], batch.tau)
    with np.errstate(invalid='ignore', divide='ignore'):
        psi = np.where(tau_norm > TAU_NORM_FLOOR,
                       phi / (speed[:, :, None] * tau_norm), np.nan)
    return phi, psi


def initial_instant(man, force, p0, nu0, direction, tangents, h=1e-3):
    """(phi, phi_dot, phi_ddot, phi_dddot)[j] at t = 0 for the blow-up of
    p0 at launch speed nu0 along one sphere-grid direction, with its
    tangents (n-1, n).

    The launch is the blow-up's: v = nu0 n, tau = 0, rho = nu0 K_j.  The
    first three come from the closed forms at node 0; the third
    derivative is Richardson-extrapolated from the closed-form phi_ddot
    at t = h and t = 2h.
    """
    tangents = np.asarray(tangents, dtype=float)
    rec = run_one(man, force, p0, nu0 * np.asarray(direction), 2.0 * h,
                  h, tau=np.zeros_like(tangents), rho=nu0 * tangents)
    phi, phi_dot, phi_ddot = phi_derivatives(force, rec.x, rec.v, rec.tau,
                                             rec.rho)
    d1 = (phi_ddot[1] - phi_ddot[0]) / h
    d2 = (phi_ddot[2] - phi_ddot[0]) / (2.0 * h)
    return phi[0], phi_dot[0], phi_ddot[0], 2.0 * d1 - d2


# _COFACTOR3[:, 3 i + j]: flat indices of the four metric entries whose
# products give adj[i, j] = C_ji = g[a, c] g[b, d] - g[a, d] g[b, c], with
# (a, b) = (j + 1, j + 2) and (c, d) = (i + 1, i + 2) taken mod 3
_COFACTOR3 = np.array(
    [[3 * ((j + 1) % 3) + (i + 1) % 3 for i in range(3) for j in range(3)],
     [3 * ((j + 2) % 3) + (i + 2) % 3 for i in range(3) for j in range(3)],
     [3 * ((j + 1) % 3) + (i + 2) % 3 for i in range(3) for j in range(3)],
     [3 * ((j + 2) % 3) + (i + 1) % 3 for i in range(3) for j in range(3)]])


def _cofactor4(t, i, j):
    """adj[i, j] of a 4 x 4 matrix with flat entries t: (-1)^(i + j) times
    the minor over the rows (a, b, c) = (j + 1, j + 2, j + 3) and the
    columns (d, e, f) = (i + 1, i + 2, i + 3) mod 4, expanded along its
    first row."""
    a, b, c = ((j + k) % 4 for k in (1, 2, 3))
    d, e, f = ((i + k) % 4 for k in (1, 2, 3))

    def m(r, s, u, w):
        """The 2 x 2 minor over the rows (r, s) and the columns (u, w)."""
        return t[4 * r + u] * t[4 * s + w] - t[4 * r + w] * t[4 * s + u]
    minor = (t[4 * a + d] * m(b, c, e, f) - t[4 * a + e] * m(b, c, d, f)
             + t[4 * a + f] * m(b, c, d, e))
    return -minor if (i + j) % 2 else minor


def adjugate_inverse(g):
    """g^-1 of g[..., n, n], n = 2, 3 or 4, over any leading axes."""
    n = g.shape[-1]
    t = np.asarray(g, dtype=float).reshape(-1, n * n).T
    if n == 2:
        adj = t[[3, 1, 2, 0]]
        np.negative(adj[1:3], out=adj[1:3])
        det = t[0] * t[3] - t[1] * t[2]
    elif n == 3:
        a, b, c, d = _COFACTOR3
        adj = t[a] * t[b]
        adj -= t[c] * t[d]
        det = t[0] * adj[0] + t[1] * adj[3] + t[2] * adj[6]
    else:
        adj = np.array([_cofactor4(t, i, j)
                        for i in range(4) for j in range(4)])
        det = t[0] * adj[0] + t[1] * adj[4] + t[2] * adj[8] + t[3] * adj[12]
    return (adj / det).T.reshape(g.shape)


def spray(ginv, koszul, vs, f_vals):
    """The connection fields koszul, low_v, gam_v, gam_f and gvv of a
    jet's record (``ForceField._connection_asts``), batch-first, from
    g^-1[b, k, r], koszul[b, j, i, r] (the Koszul symbol of dg),
    velocities vs[b, j] and forces f_vals[b, j]: one batched product of
    the Koszul symbol with the rows [v, F], then one with g^-1."""
    nb, n = vs.shape
    rows = np.stack((vs, f_vals), axis=1)
    low = 0.5 * (rows @ koszul.reshape(nb, n, n * n))
    up = (low.reshape(nb, -1, n) @ ginv).reshape(nb, 2, n, n)
    gam_v = up[:, 0]
    gvv = (vs[:, None, :] @ gam_v)[:, 0]
    return dict(koszul=koszul, low_v=low[:, 0].reshape(nb, n, n),
                gam_v=gam_v, gam_f=up[:, 1], gvv=gvv)


def _coefficients(man, force, x, v, riemann_sign):
    """(gamma v)^T, spatial - riemann_sign K^T and dF/dv - (gamma v)^T at
    the points x, v: (B, n), each a contiguous batch-first matrix."""
    jet = force.variation_jet(x.T, v.T)
    jacobi = man.riemann(x, record=jet)
    spatial, velocity = extended_gradients(man, force, x, v, record=jet)
    return tuple(np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in
                 (jet["gam_v"], spatial - riemann_sign * jacobi.swapaxes(0, 1),
                  velocity - jet["gam_v"]))


def rhs(man, force, x, v, tau, rho, riemann_sign):
    """(dx, dv, dtau, drho) at x, v: (B, n) and tau, rho: (B, J, n).

    With (gamma v)^T[i, k] = gamma^k_ij v^j and K = R(., v)v,

        dtau = rho - tau (gamma v)^T
        drho = tau (spatial - riemann_sign K^T) + rho (dF/dv - (gamma v)^T)

    as one product of the rows [tau_j, rho_j] with the rate matrix
    [[-(gamma v)^T, spatial - riemann_sign K^T], [I, dF/dv - (gamma
    v)^T]], (B, 2n, 2n), as the integrator stores it.
    """
    n = x.shape[1]
    gam_v, curvature, velocity = _coefficients(man, force, x, v,
                                               riemann_sign)
    rate = np.empty((len(x), 2 * n, 2 * n))
    rate[:, :n, :n] = -gam_v
    rate[:, :n, n:] = curvature
    rate[:, n:, :n] = np.eye(n)
    rate[:, n:, n:] = velocity
    rates = np.concatenate((tau, rho), axis=-1) @ rate
    return (v.copy(), force.flow_jet(x.T, v.T).T, rates[..., :n],
            rates[..., n:])


def three_products(man, force, x, v, tau, rho, riemann_sign):
    """(dtau, drho) of ``rhs`` in three batched products, as the
    integrator formed each variation stage before it stored one rate
    matrix per point."""
    gam_v, curvature, velocity = _coefficients(man, force, x, v,
                                               riemann_sign)
    return rho - tau @ gam_v, tau @ curvature + rho @ velocity


def rk4_per_quantity(man, force, x0, v0, tau0, rho0, t_end, h,
                     riemann_sign=1.0):
    """integrate_batch's record, from four per-quantity state arrays."""
    steps = int(round(t_end / h))
    x0, v0, tau0, rho0 = (np.asarray(a, dtype=float)
                          for a in (x0, v0, tau0, rho0))
    nb, n = x0.shape
    nvar = tau0.shape[1]
    times = np.arange(steps + 1) * h
    xs = np.empty((steps + 1, nb, n))
    vs = np.empty((steps + 1, nb, n))
    taus = np.empty((steps + 1, nb, nvar, n))
    rhos = np.empty((steps + 1, nb, nvar, n))
    x, v, tau, rho = x0.copy(), v0.copy(), tau0.copy(), rho0.copy()
    with np.errstate(all='ignore'):
        xs[0], vs[0], taus[0], rhos[0] = x, v, tau, rho
        for i in range(steps):
            k1 = rhs(man, force, x, v, tau, rho, riemann_sign)
            k2 = rhs(man, force,
                      x + 0.5 * h * k1[0], v + 0.5 * h * k1[1],
                      tau + 0.5 * h * k1[2], rho + 0.5 * h * k1[3],
                      riemann_sign)
            k3 = rhs(man, force,
                      x + 0.5 * h * k2[0], v + 0.5 * h * k2[1],
                      tau + 0.5 * h * k2[2], rho + 0.5 * h * k2[3],
                      riemann_sign)
            k4 = rhs(man, force,
                      x + h * k3[0], v + h * k3[1],
                      tau + h * k3[2], rho + h * k3[3],
                      riemann_sign)
            x = x + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            v = v + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            tau = tau + (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
            rho = rho + (h / 6.0) * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
            ok = (np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1)
                  & np.isfinite(tau).all(axis=(1, 2))
                  & np.isfinite(rho).all(axis=(1, 2)))
            if not ok.all():
                partial = BatchTrajectory(
                    times[:i + 1], xs[:i + 1], vs[:i + 1],
                    taus[:i + 1], rhos[:i + 1], h)
                bad = [name for name, value in
                       (("x", x), ("v", v), ("tau", tau), ("rho", rho))
                       if not np.isfinite(value).all()]
                raise IntegrationAbort(partial, i, np.nonzero(~ok)[0], bad)
            xs[i + 1], vs[i + 1] = x, v
            taus[i + 1], rhos[i + 1] = tau, rho
    return BatchTrajectory(times, xs, vs, taus, rhos, h)


def sample_tangent_points_batch_first(man, x_box, v_min, v_max, count,
                                      seed=0):
    """(xs, vs) of ``normality.sample_tangent_points``, batch-first, for
    valid arguments."""
    n = man.dimension
    box = np.asarray(x_box, dtype=float)
    idx = np.arange(count, dtype=np.int64) + 1 + int(seed)
    xs = np.empty((count, n))
    for k in range(n):
        xs[:, k] = box[k, 0] + (box[k, 1] - box[k, 0]) * halton(idx, _PRIMES[k])

    u = [halton(idx, _PRIMES[n + k]) for k in range(n - 1)]
    if n == 2:
        theta = 2.0 * np.pi * u[0]
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif n == 3:
        z = 2.0 * u[0] - 1.0
        phi = 2.0 * np.pi * u[1]
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    else:
        s1 = np.sqrt(1.0 - u[0])
        s2 = np.sqrt(u[0])
        dirs = np.stack([s1 * np.sin(2 * np.pi * u[1]),
                         s1 * np.cos(2 * np.pi * u[1]),
                         s2 * np.sin(2 * np.pi * u[2]),
                         s2 * np.cos(2 * np.pi * u[2])], axis=1)

    shells = np.geomspace(v_min, v_max, num=min(count, 16))
    radii = shells[np.arange(count) % shells.shape[0]]
    vs = dirs * (radii / g_norm(man.metric(xs), dirs))[:, None]
    return xs, vs


_NUMPY_FUNCS = {"sin": "np.sin", "cos": "np.cos", "tan": "np.tan",
                "exp": "np.exp", "ln": "np.log", "sqrt": "np.sqrt",
                "abs": "np.abs"}
_BINARY_OPS = {el.Add: " + ", el.Sub: " - ", el.Mul: "*", el.Div: "/",
               el.Pow: "**"}


class _TextProgram:
    """The merged DAG of ``compile_text``: ``exprlang._Program``'s
    interning, plus ``uses``, the distinct parents (and roots) of each
    merged node; a non-leaf with more than one becomes a temporary."""

    def __init__(self, roots):
        self.nodes, self.kids, self.uses = [], [], []
        self._ids, self._seen = {}, {}
        self.roots = [self._intern(root) for root in roots]
        for uid in self.roots:
            self.uses[uid] += 1
        self.lines, self._temps = [], {}

    def _intern(self, node):
        uid = self._seen.get(id(node))
        if uid is not None:
            return uid
        kids = tuple(self._intern(child) for child in el._children(node))
        if isinstance(node, el.Const):
            key = (el.Const, repr(node.value))
        elif isinstance(node, el.Var):
            key = (el.Var, node.name)
        elif isinstance(node, el.Call):
            key = (el.Call, node.func, kids)
        else:
            key = (type(node), kids)
        uid = self._ids.get(key)
        if uid is None:
            uid = self._ids[key] = len(self.nodes)
            self.nodes.append(node)
            self.kids.append(kids)
            self.uses.append(0)
            for kid in kids:
                self.uses[kid] += 1
        self._seen[id(node)] = uid
        return uid

    def emit(self, uid):
        """Source text of node uid; shared non-leaves become temporaries."""
        temp = self._temps.get(uid)
        if temp is not None:
            return temp
        node = self.nodes[uid]
        args = [self.emit(kid) for kid in self.kids[uid]]
        text = _format(node, args)
        if args and self.uses[uid] > 1:
            temp = self._temps[uid] = f"_t{len(self._temps)}"
            self.lines.append(f"    {temp} = {text}")
            return temp
        return text


def _format(node, args):
    if isinstance(node, el.Const):
        text = repr(node.value)
        if not math.isfinite(node.value):
            # inf and nan are no names in the generated scope; np's are
            text = text.replace("inf", "np.inf").replace("nan", "np.nan")
        # parenthesized so that e.g. (-2)**2 keeps pow from capturing the
        # sign; -0.0 too (the package's emitter tested value < 0, so that
        # -0.0**c ran as -(0.0**c), its one departure from IEEE)
        return f"({text})" if math.copysign(1.0, node.value) < 0 else text
    if isinstance(node, el.Var):
        return node.name
    if isinstance(node, el.Neg):
        return f"(-{args[0]})"
    if isinstance(node, el.Call):
        return f"{_NUMPY_FUNCS[node.func]}({args[0]})"
    return f"({args[0]}{_BINARY_OPS[type(node)]}{args[1]})"


def compile_text(nodes, names):
    """The callable ``exprlang.compile_fn`` generated as Python source:
    the same signature without ``_registers``, the constant entries
    stored as one broadcast column on every call."""
    roots = list(nodes)
    program = _TextProgram(roots)
    texts = [program.emit(uid) for uid in program.roots]
    lines = [f"def _compiled({', '.join([*names, '_out=None'])}):",
             *program.lines,
             "    if _out is None:",
             f"        _out = np.empty(({len(roots)},)"
             f" + np.broadcast({', '.join(names)}).shape)"]
    scope = {"np": np}
    if any(isinstance(root, el.Const) for root in roots):
        scope["_row0"] = np.array([root.value if isinstance(root, el.Const)
                                   else 0.0 for root in roots])
        lines.append("    _out.T[...] = _row0")
    lines += [f"    _out[{k}] = {text}"
              for k, (root, text) in enumerate(zip(roots, texts))
              if not isinstance(root, el.Const)]
    lines.append("    return _out")
    exec("\n".join(lines) + "\n", scope)
    return scope["_compiled"]
