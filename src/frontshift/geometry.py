"""Metric geometry and extended-field gradients at tangent-bundle points.

All tensor assembly is numeric: the metric, the force and their exact
derivatives come from fused compiled evaluators, each tensor is built
once per call, and every contraction runs in a fixed order.  All
differentiation behind it is exact and symbolic, performed once on the
metric and force component expressions.  Past the metric itself,
production code reads the geometry and the force from two generated
calls built from one root list: ``ForceField.first_order_jet`` (g, g^-1,
the Koszul symbol of dg, F and both force Jacobians) and
``ForceField.jet``, the same six plus ddg contracted with v twice, what
one RK4 stage of the variation equation consumes.  Each call fills one
array, every tensor whole (symmetric duplicates stored twice), and the
jets hand the tensors out as views of it: no gather, and no numeric
inverse for n <= 3, where g^-1 is the metric's adjugate over its
determinant as expressions (``Manifold._ginv_asts``), folded like every
other group.  n >= 4 takes LAPACK's ``np.linalg.inv`` inside the two jet
methods.  So each stage, and each ``force_tensors`` call, makes one
generated call and nothing else per point.  There is no separate
single-point API: ``at_point`` evaluates any batch-first function at one
point by adding and stripping the batch axis, and ``force_tensors``
builds every metric and force tensor the deviation and normality
formulas share in one place.

Two layers, two layouts, each where it measures faster.  The RK4 stage
(``spray``, ``Manifold.riemann(vs=)``, ``extended_gradients``,
``ForceField.jet``) is batch-first: arrays (B, n) and (B, n, n), each
matrix contiguous in its last axes, and each contraction a batched
matrix product (``@`` over the leading axis).  The sample-point layer
of ``check`` and of the deviation formulas
(``ForceField.first_order_jet``, ``force_tensors``, ``Manifold.frame``
and ``normality`` after them) is batch-last: points
(n, B), tensors (n, n, B), and each contraction over an index of length
n <= 4 one broadcast product of contiguous length-B rows plus n - 1
additions (``matvec_last``, ``vecmat_last``, ``matmul_last``,
``dot_last``).  numpy's ``@`` makes one BLAS call per 3 x 3 matrix, so
at B = 2048 in 3-D (one BLAS thread, shared 2-vCPU VM) a batch-first
matrix product took 73-150 us, and 98-211 us with a transposed operand,
against about 60 us batch-last; a matrix times a vector 92-176 us
against about 30 us; an outer product 84-135 us against 16-20 us; in
2-D the batch-last forms are 5-10 times cheaper.  The stage stays
batch-first because it runs at a handful of rows as often as at a
thousand: a batch-last S^3 stage prototype took 41-49 % longer at
B = 5, 1-3 % longer at B = 144 and 37 % less at B = 1024, and ``rank``
and the selftest integrate at B <= 10.  The two layers share no
contraction code.

The variation equation needs the connection and the curvature only
contracted with vectors: ``spray`` gives gamma contracted with v and F
from the Koszul symbol without building gamma, and ``Manifold.riemann``
with the velocity passed gives the Jacobi operator K[k, s] =
R^k_msr v^m v^r from S, the second partials contracted with v twice,
which the jet's generated code sums symbolically; the rest costs O(n^3)
per point, without ddg, d gamma or any (n, n, n, n) intermediate.
``force_tensors`` contracts the Koszul symbol with v and F the same way,
batch-last.  The per-quantity methods (``metric_partials``,
``metric_second_partials``, ``christoffel``, ``christoffel_partials``,
``riemann`` without a velocity, ``ForceField.components`` and
``ForceField.jacobians``) are oracles: no production path outside
``selfcheck`` calls them, and the test references compare the jets and
the contracted forms against them.

Lowering an index with the metric and the g-length of a vector are the
two batch-first helpers ``lower`` and ``g_norm``; they take any leading
axes.  The lowered force tensors and the velocity frame are pinned to
the einsum forms they replaced by ``tests/test_normality_reference.py``.

Index conventions (fixed, and pinned by the dynamics cross-checks):

* ``gamma[k, i, j]``   connection, upper index first, symmetric in (i, j)
* ``dgamma[s, k, i, j]`` coordinate derivative of the connection
* ``riemann[k, m, s, r] = d_s gamma[k,m,r] - d_r gamma[k,m,s]
  + sum_j (gamma[k,s,j] gamma[j,m,r] - gamma[k,r,j] gamma[j,m,s])``
* ``jacobi[k, s] = riemann[k, m, s, r] v^m v^r``, the vector index first:
  R(tau, v)v = jacobi @ tau
* spatial/velocity gradients of a force are stored ``[i, k]`` with the
  derivative index first: ``spatial[i, k]`` is the i-th covariant
  derivative of the k-th component.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from . import exprlang
from .exprlang import Add, Const, Div, Mul, Neg, Node, Pow, Sub, Var


class GeometryError(ValueError):
    pass


class NonPositiveDefiniteError(GeometryError):
    pass


class ZeroVelocityError(GeometryError):
    pass


def coord_names(n: int) -> list[str]:
    return [f"x{k + 1}" for k in range(n)]


def velocity_names(n: int) -> list[str]:
    return [f"v{k + 1}" for k in range(n)]


def matvec(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(m w)[..., i] = m[..., i, j] w[..., j]; leading axes broadcast."""
    return (m @ w[..., None])[..., 0]


def vecmat(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(w m)[..., j] = w[..., i] m[..., i, j]; leading axes broadcast."""
    return (w[..., None, :] @ m)[..., 0, :]


def lower(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w_i = g_ij w^j over any leading axes, which broadcast."""
    return matvec(g, w)


def g_norm(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The g-length sqrt(g_ij w^i w^j) over any leading axes."""
    return np.sqrt(np.sum(w * lower(g, w), axis=-1))


# Batch-last contractions: every operand carries the batch axis last, so
# each factor of a product is a run of contiguous rows and a contraction
# is one broadcast product plus n - 1 additions of its slices.  The sum
# runs in index order, element by element, so a row's value does not
# depend on the rows beside it or on the batch length.

def _sum_rows(p: np.ndarray) -> np.ndarray:
    """p[0] + p[1] + ... + p[-1], added in that order."""
    out = p[0] + p[1]
    for k in range(2, p.shape[0]):
        out += p[k]
    return out


def dot_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i, ...] b[i, ...] summed over i."""
    return _sum_rows(a * b)


def matvec_last(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(m w)[i, ...] = m[i, j, ...] w[j, ...]."""
    return _sum_rows((m * w).swapaxes(0, 1))


def vecmat_last(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(w m)[j..., b] = w[i, b] m[i, j..., b], for m with any number of
    indices after i."""
    return _sum_rows(np.expand_dims(w, tuple(range(1, m.ndim - 1))) * m)


def matmul_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a b)[i, k, ...] = a[i, j, ...] b[j, k, ...]."""
    return _sum_rows((a[:, :, None] * b).swapaxes(0, 1))


def _parse(entry, names: Sequence[str]) -> Node:
    if isinstance(entry, Node):
        return entry
    return exprlang.parse(str(entry), names)


def _symmetric_slots(n: int) -> tuple[list, np.ndarray]:
    """Pairs (i, j), i <= j, and the [n, n] map from (i, j) to pair index."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    slot = np.empty((n, n), dtype=np.intp)
    for p, (i, j) in enumerate(pairs):
        slot[i, j] = slot[j, i] = p
    return pairs, slot


def _signed_sum(terms: Sequence) -> tuple[int, Node | None]:
    """(sign, node) with sign * node = sum_k w_k node_k, for nonzero
    integer weights w_k, and no negation in node: the positive terms come
    first, and sign is -1 only when no weight is positive.  (0, None)
    when there are no terms."""
    if not terms:
        return 0, None
    sign = 1 if any(w > 0 for w, _ in terms) else -1
    total = None
    for w, node in sorted(terms, key=lambda term: term[0] * sign < 0):
        w *= sign
        term = node if abs(w) == 1 else Mul(Const(float(abs(w))), node)
        total = (term if total is None else
                 Add(total, term) if w > 0 else Sub(total, term))
    return sign, total


def _koszul(d: np.ndarray) -> np.ndarray:
    """sym[..., r, i, j] = d[..., i, r, j] + d[..., j, r, i] - d[..., r, i, j].

    Applied to dg this is twice the lowered connection; applied to ddg it
    is that combination's coordinate derivative.
    """
    a, b, c = d.ndim - 3, d.ndim - 2, d.ndim - 1
    lead = tuple(range(a))
    return d.transpose(*lead, b, a, c) + d.transpose(*lead, b, c, a) - d


class Spray(NamedTuple):
    """The connection contracted with a velocity v (and a force F).

    koszul[b, j, i, r] = d_j g_ir + d_i g_jr - d_r g_ij = 2 gamma_rij, with
    the first index lowered; low_v[b, i, r] = gamma_rij v^j (no inverse
    enters); gam_v[b, i, k] = gamma^k_ij v^j and gam_f[b, i, k] =
    gamma^k_ij F^j (None without F); gvv[b, k] = gamma^k_ij v^i v^j.
    """

    koszul: np.ndarray
    low_v: np.ndarray
    gam_v: np.ndarray
    gam_f: np.ndarray | None
    gvv: np.ndarray


def spray(ginv: np.ndarray, koszul: np.ndarray, vs: np.ndarray,
          f_vals: np.ndarray | None = None) -> Spray:
    """gamma contracted with vs and f_vals, without building gamma.

    koszul[b, j, i, r] is the Koszul combination of dg (``Spray.koszul``,
    as ``ForceField.jet`` returns it).  The products with v and F are
    formed together: one batched product of it with the rows [v, F], then
    one with g^-1.
    """
    nb, n = vs.shape
    rows = (vs[:, None, :] if f_vals is None else
            np.concatenate((vs, f_vals), axis=1).reshape(nb, 2, n))
    low = 0.5 * (rows @ koszul.reshape(nb, n, n * n))
    up = (low.reshape(nb, -1, n) @ ginv).reshape(nb, -1, n, n)
    gam_v = up[:, 0]
    return Spray(koszul, low[:, 0].reshape(nb, n, n), gam_v,
                 None if f_vals is None else up[:, 1], vecmat(vs, gam_v))


def metric_asts(dimension: int, metric: Sequence[Sequence]) -> list:
    """The n x n metric entries parsed and simplified, checked symmetric.

    The one symbolic step a scenario's metric needs before anything is
    differentiated: ``Manifold`` builds on it, and the config parser
    calls it alone to reject an asymmetric metric.  Entries (i, j) and
    (j, i) count as equal when they differ only in the order of operands
    within sums and products (``exprlang.commutative_key``); the ASTs
    returned are the simplified entries as written.
    """
    n = dimension
    if len(metric) != n or any(len(row) != n for row in metric):
        raise GeometryError("metric must be an n x n expression array")
    coords = coord_names(n)
    g_ast = [[exprlang.simplify(_parse(metric[i][j], coords))
              for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (exprlang.commutative_key(g_ast[i][j])
                    != exprlang.commutative_key(g_ast[j][i])):
                raise GeometryError(
                    f"metric not symmetric: entry ({i},{j}) differs from "
                    f"({j},{i}) after simplification")
    return g_ast


class Manifold:
    """Chart of dimension n with metric components g_ij(x1..xn).

    g, dg and ddg each come from one compiled callable that evaluates
    only the unique symmetric slots (i <= j, and l <= k for ddg), sharing
    repeated subexpressions; the full tensors are gathered from those.
    The exact first partials are derived on construction; the second
    partials, the groups the jets add (the Koszul symbol of dg, ddg
    contracted with v twice and g^-1) and every callable are built on
    first use, so a command pays only for what it evaluates.
    """

    def __init__(self, dimension: int, metric: Sequence[Sequence]):
        if dimension < 2:
            raise GeometryError("dimension must be >= 2")
        self.dimension = n = dimension
        self.coords = coord_names(n)
        self.velocities = velocity_names(n)
        self.metric_ast = g_ast = metric_asts(n, metric)
        # Exact symbolic derivatives of the metric; everything downstream
        # (connection, curvature) is assembled numerically from these.
        pairs, slot = _symmetric_slots(n)
        npair = len(pairs)
        self._pairs = pairs
        self._g_asts = [g_ast[i][j] for i, j in pairs]
        # slot p of dg along x^k at k * npair + p
        self._dg_asts = [exprlang.differentiate(entry, self.coords[k])
                         for k in range(n) for entry in self._g_asts]
        self._g_idx = slot
        self._dg_idx = np.arange(n)[:, None, None] * npair + slot
        self._ddg_idx = slot[:, :, None, None] * npair + slot

    @functools.cached_property
    def _ddg_asts(self) -> list:
        npair = len(self._pairs)
        return [exprlang.differentiate(self._dg_asts[k * npair + p],
                                       self.coords[ell])
                for ell, k in self._pairs for p in range(npair)]

    @functools.cached_property
    def _koszul_asts(self) -> list:
        """koszul[j, i, r] = d_j g_ir + d_i g_jr - d_r g_ij, slot p * n + r
        for the pair p = (j, i), j <= i."""
        n, npair, slot = self.dimension, len(self._pairs), self._g_idx

        def dg(k, i, j):
            return self._dg_asts[k * npair + slot[i, j]]
        return [exprlang.simplify(Sub(Add(dg(j, i, r), dg(i, j, r)),
                                      dg(r, i, j)))
                for j, i in self._pairs for r in range(n)]

    @functools.cached_property
    def _ddg_vv_asts(self) -> list:
        """S[s, l] = d_s d_m g_lj v^m v^j + d_l d_m g_sj v^m v^j
        - d_m d_j g_sl v^m v^j - d_s d_l g_mj v^m v^j, one per pair (s, l).

        S_sl = Q_sjml v^j v^m with Q_abce = d_a d_c g_be + d_b d_e g_ac
        - d_a d_e g_bc - d_b d_c g_ae, which is antisymmetric in (a, b) and
        in (c, e) and symmetric under the swap of the two pairs.  So each
        distinct component of Q is formed once, from four ``_ddg_asts``,
        and S_sl sums them over the monomials v^j v^m, j <= m (a square
        written v^2, as a force usually has it, so that the two share it).
        The components are simplified and the zero ones dropped, so the
        sums need no further simplification.
        """
        n, npair, slot = self.dimension, len(self._pairs), self._g_idx
        vel = [Var(name) for name in self.velocities]

        def ddg(a, b, c, e):
            return self._ddg_asts[slot[a, b] * npair + slot[c, e]]

        def component(a, b, c, e):
            """(sign, key) with Q_abce = sign Q_key; sign 0 when it
            vanishes by antisymmetry."""
            if a == b or c == e:
                return 0, None
            sign = 1
            if a > b:
                a, b, sign = b, a, -sign
            if c > e:
                c, e, sign = e, c, -sign
            if (a, b) > (c, e):
                a, b, c, e = c, e, a, b
            return sign, (a, b, c, e)

        @functools.cache
        def q(a, b, c, e):
            return exprlang.simplify(Sub(
                Add(ddg(a, c, b, e), ddg(b, e, a, c)),
                Add(ddg(a, e, b, c), ddg(b, c, a, e))))

        out = []
        for s, ell in self._pairs:
            terms = []
            for j in range(n):
                for m in range(j, n):
                    weights = Counter()
                    for a, b in {(j, m), (m, j)}:
                        sign, key = component(s, a, b, ell)
                        if sign:
                            weights[key] += sign
                    sign, coef = _signed_sum(
                        [(w, q(*key)) for key, w in weights.items()
                         if w and q(*key) != Const(0.0)])
                    if sign:
                        mono = (Pow(vel[j], Const(2.0)) if j == m
                                else Mul(vel[j], vel[m]))
                        terms.append((sign, Mul(coef, mono)))
            sign, total = _signed_sum(terms)
            out.append(Const(0.0) if not sign else total if sign > 0
                       else Neg(total))
        return out

    @functools.cached_property
    def _ginv_asts(self) -> list:
        """g^-1[i, j] at n i + j, for n <= 3 the adjugate over the
        determinant of the metric entries.

        The products, and their order, are those of the numeric form
        (``tests/oracles.py``): entry (i, j) of the adjugate is
        g[a, c] g[b, d] - g[a, d] g[b, c] with (a, b) = (j + 1, j + 2) and
        (c, d) = (i + 1, i + 2) mod 3, or (g11, -g01, -g10, g00) in 2-D,
        and det = g00 adj00 + g01 adj10 + g02 adj20 (g00 g11 - g01 g10 in
        2-D).  Simplification folds the structural zeros and constants,
        so a diagonal metric costs a few divisions and a constant one
        nothing.  A zero numerator stays a constant of its own sign: the
        determinant of a positive definite metric is positive, and the
        numeric form gives -0.0 there.  For n >= 4 the entries are zero
        placeholders, which the jets overwrite with LAPACK's inverse.
        """
        n = self.dimension
        if n > 3:
            return [Const(0.0)] * (n * n)
        t = [self._g_asts[p] for p in self._g_idx.ravel()]
        if n == 2:
            adj = [t[3], Neg(t[1]), Neg(t[2]), t[0]]
        else:
            adj = [Sub(Mul(t[3 * ((j + 1) % 3) + (i + 1) % 3],
                           t[3 * ((j + 2) % 3) + (i + 2) % 3]),
                       Mul(t[3 * ((j + 1) % 3) + (i + 2) % 3],
                           t[3 * ((j + 2) % 3) + (i + 1) % 3]))
                   for i in range(3) for j in range(3)]
        adj = [exprlang.simplify(entry) for entry in adj]
        det = exprlang.simplify(
            Sub(Mul(t[0], t[3]), Mul(t[1], t[2])) if n == 2 else
            Add(Add(Mul(t[0], adj[0]), Mul(t[1], adj[3])), Mul(t[2], adj[6])))
        return [entry if isinstance(entry, Const) and entry.value == 0.0
                else exprlang.simplify(Div(entry, det)) for entry in adj]

    @functools.cached_property
    def _g_fn(self):
        return exprlang.compile_fn(self._g_asts, self.coords)

    @functools.cached_property
    def _dg_fn(self):
        return exprlang.compile_fn(self._dg_asts, self.coords)

    @functools.cached_property
    def _ddg_fn(self):
        return exprlang.compile_fn(self._ddg_asts, self.coords)

    # -- batched evaluation (leading axis B) --------------------------------

    def _args(self, xs: np.ndarray) -> tuple:
        return tuple(xs[:, k] for k in range(self.dimension))

    def metric(self, xs: np.ndarray) -> np.ndarray:
        return self._g_fn(*self._args(xs))[:, self._g_idx]

    def metric_partials(self, xs: np.ndarray) -> np.ndarray:
        """dg[b, k, i, j] = d g_ij / d x^k."""
        return self._dg_fn(*self._args(xs))[:, self._dg_idx]

    def metric_second_partials(self, xs: np.ndarray) -> np.ndarray:
        """ddg[b, l, k, i, j] = d^2 g_ij / (d x^l d x^k)."""
        return self._ddg_fn(*self._args(xs))[:, self._ddg_idx]

    def christoffel(self, xs: np.ndarray, ginv: np.ndarray | None = None,
                    dg: np.ndarray | None = None) -> np.ndarray:
        """gamma[b, k, i, j] of the metric connection."""
        if ginv is None:
            ginv = np.linalg.inv(self.metric(xs))
        if dg is None:
            dg = self.metric_partials(xs)
        nb, n = xs.shape
        sym = _koszul(dg).reshape(nb, n, n * n)
        return (0.5 * (ginv @ sym)).reshape(nb, n, n, n)

    def christoffel_partials(self, xs: np.ndarray,
                             ginv: np.ndarray | None = None,
                             dg: np.ndarray | None = None,
                             ddg: np.ndarray | None = None,
                             gamma: np.ndarray | None = None) -> np.ndarray:
        """dgamma[b, s, k, i, j] = d gamma[k,i,j] / d x^s, exact.

        With d(g^-1) = -g^-1 (dg) g^-1 the derivative of
        gamma = g^-1 sym / 2 is g^-1 (d_s sym / 2 - d_s g gamma), built from
        the symbolic dg/ddg, so no finite differences enter the curvature.
        """
        if ginv is None:
            ginv = np.linalg.inv(self.metric(xs))
        if dg is None:
            dg = self.metric_partials(xs)
        if ddg is None:
            ddg = self.metric_second_partials(xs)
        if gamma is None:
            gamma = self.christoffel(xs, ginv=ginv, dg=dg)
        nb, n = xs.shape
        # lowered[b, r, s, ij] = d_s sym[r, ij] / 2 - d_s g[r, a] gamma[a, ij],
        # rows ordered (r, s) so that raising r is one product per row b
        dsym = _koszul(ddg).swapaxes(1, 2).reshape(nb, n * n, n * n)
        dg_rs = dg.swapaxes(1, 2).reshape(nb, n * n, n)
        lowered = 0.5 * dsym - dg_rs @ gamma.reshape(nb, n, n * n)
        raised = ginv @ lowered.reshape(nb, n, n ** 3)     # [b, k, (s, ij)]
        return raised.reshape(nb, n, n, n, n).swapaxes(1, 2)

    def riemann(self, xs: np.ndarray, ginv: np.ndarray | None = None,
                dg: np.ndarray | None = None, ddg: np.ndarray | None = None,
                vs: np.ndarray | None = None, along: Spray | None = None,
                ddg_vv: np.ndarray | None = None) -> np.ndarray:
        """The curvature tensor, or with vs its Jacobi operator along vs.

        Without vs: riemann[b, k, m, s, r], antisymmetric in (s, r), built
        from the full connection derivative; this is the oracle form.

        With vs: jacobi[b, k, s] = R^k_msr v^m v^r, so that R(tau, v)v is
        jacobi @ tau.  It costs O(n^3) per point on top of S, and neither
        ddg, d gamma nor any (n, n, n, n) array is formed.  With
        c = gamma(v, v), the lowered L_ls = gamma_lsr v^r and
        gamma v = g^-1 L,

            jacobi = g^-1 [(S - E - E^T + D) / 2 + L^T gamma v]

        where S = P + P^T - W - H is ddg contracted with v twice:
        P_sl = d_s d_m g_lj v^m v^j, W_sl = d_s d_l g(v, v) and
        H_ls = d_v d_v g_ls; E_sl = d_s g_lb c^b and D_ls = c^j d_j g_ls,
        so E + E^T - D is the Koszul symbol contracted with c.  With vs,
        along (``spray(ginv, koszul, vs, ...)``) and ddg_vv (S) are
        required; both come from ``ForceField.jet``.
        """
        if ginv is None:
            ginv = np.linalg.inv(self.metric(xs))
        nb, n = xs.shape
        if vs is not None:
            sym = ddg_vv - (along.koszul.reshape(nb, n * n, n)
                            @ along.gvv[:, :, None]).reshape(nb, n, n)
            sym *= 0.5
            # a contiguous right operand keeps the product on the fast path
            sym += along.low_v @ along.gam_v.transpose(0, 2, 1).copy()
            return ginv @ sym
        if dg is None:
            dg = self.metric_partials(xs)
        if ddg is None:
            ddg = self.metric_second_partials(xs)
        gamma = self.christoffel(xs, ginv=ginv, dg=dg)
        dgamma = self.christoffel_partials(xs, ginv=ginv, dg=dg, ddg=ddg,
                                           gamma=gamma)
        # gg[b, k, s, m, r] = gamma[k,s,j] gamma[j,m,r]
        gg = (gamma.reshape(nb, n * n, n)
              @ gamma.reshape(nb, n, n * n)).reshape(nb, n, n, n, n)
        # half[b, k, m, s, r] = d_s gamma[k,m,r] + gamma[k,s,j] gamma[j,m,r]
        half = dgamma.transpose(0, 2, 3, 1, 4) + gg.transpose(0, 1, 3, 2, 4)
        return half - half.swapaxes(3, 4)

    def frame(self, vs: np.ndarray, g: np.ndarray):
        """speed[b], unit[r, b], unit_cov[i, b] and projector[r, i, b] of
        velocities vs[r, b] under the metric g[i, j, b] at their points,
        the batch axis last."""
        v_cov = matvec_last(g, vs)
        speed = np.sqrt(dot_last(vs, v_cov))
        if np.any(speed == 0.0) or not np.all(np.isfinite(speed)):
            raise ZeroVelocityError("zero or non-finite g-speed")
        unit = vs / speed
        unit_cov = v_cov / speed
        proj = (np.eye(self.dimension)[:, :, None]
                - unit[:, None] * unit_cov[None])
        return speed, unit, unit_cov, proj


def check_positive_definite(x: np.ndarray, g: np.ndarray):
    """Raise NonPositiveDefiniteError unless the metric g at the point x
    has all eigenvalues above 1e-10."""
    eigs = np.linalg.eigvalsh(g)
    if eigs[0] <= 1e-10:
        raise NonPositiveDefiniteError(
            "metric not positive definite at "
            f"x={[float(t) for t in np.asarray(x)]}: "
            f"eigenvalues {[float(t) for t in eigs]}")


class ForceField:
    """Extended vector field F^k(x, v) given componentwise as expressions.

    Two generated callables evaluate everything production code reads of
    the force and the metric, sharing every subexpression among their
    entries.  ``first_order_jet`` gives g, g^-1, the Koszul symbol of the
    metric's first partials, F and both force Jacobians, what
    ``force_tensors`` consumes; ``jet`` gives the same six tensors from
    the same root list plus the metric's second partials contracted with
    v twice, what one RK4 stage of the variation equation (and the
    shift's launch, which compiles nothing else) consumes.  Each call
    fills one (B, K) array, one record of every tensor's entries per
    point (the constant entries stored in one row, the varying ones one
    by one, symmetric duplicates included), and ``jet`` hands out the
    tensors as views of it.  ``components`` and ``jacobians`` are oracles
    with callables of their own.  Every callable is compiled on first
    use.
    """

    def __init__(self, manifold: Manifold, components: Sequence):
        n = manifold.dimension
        if len(components) != n:
            raise GeometryError("force needs one component per dimension")
        self._names = names = manifold.coords + manifold.velocities
        self.manifold = manifold
        self.component_ast = [exprlang.simplify(_parse(c, names))
                              for c in components]
        # entry (w, i, k): derivative of component k in direction i of the
        # coordinates (w = 0) or velocities (w = 1)
        self._jac_asts = [exprlang.differentiate(self.component_ast[k], wrt[i])
                          for wrt in (manifold.coords, manifold.velocities)
                          for i in range(n) for k in range(n)]
        # a point's row of the jets' array as one record; a field access
        # is one view, cheaper than a slice and a reshape at a few rows
        fields = [("g", float, (n, n)), ("ginv", float, (n, n)),
                  ("koszul", float, (n, n, n)), ("f", float, (n,)),
                  ("dfdx", float, (n, n)), ("dfdv", float, (n, n))]
        self._first_order_record = np.dtype(fields)
        self._jet_record = np.dtype(fields + [("ddg_vv", float, (n, n))])

    @functools.cached_property
    def _f_fn(self):
        return exprlang.compile_fn(self.component_ast, self._names)

    @functools.cached_property
    def _jac_fn(self):
        return exprlang.compile_fn(self._jac_asts, self._names)

    def _first_order_roots(self) -> list:
        """Every entry of g, g^-1, koszul, F, dF/dx and dF/dv, row-major."""
        man = self.manifold
        n, slots = man.dimension, man._g_idx.ravel()
        return [*(man._g_asts[p] for p in slots), *man._ginv_asts,
                *(man._koszul_asts[p * n + r] for p in slots
                  for r in range(n)),
                *self.component_ast, *self._jac_asts]

    @functools.cached_property
    def _first_order_fn(self):
        return exprlang.compile_fn(self._first_order_roots(), self._names)

    @functools.cached_property
    def _jet_fn(self):
        man = self.manifold
        return exprlang.compile_fn(
            [*self._first_order_roots(),
             *(man._ddg_vv_asts[p] for p in man._g_idx.ravel())],
            self._names)

    @staticmethod
    def _args(xs: np.ndarray, vs: np.ndarray) -> tuple:
        """The coordinate and velocity rows of batch-first points."""
        return (*xs.T, *vs.T)

    def _records(self, fn, args: tuple, record: np.dtype) -> np.ndarray:
        """fn's array at the coordinate and velocity rows args, one record
        per point; for n >= 4 its g^-1 placeholders are overwritten with
        LAPACK's inverse."""
        out = fn(*args).view(record)[:, 0]
        if self.manifold.dimension > 3:
            out["ginv"] = np.linalg.inv(out["g"])
        return out

    def components(self, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._f_fn(*self._args(xs, vs))

    def jacobians(self, xs: np.ndarray, vs: np.ndarray):
        """(dfdx[b,i,k], dfdv[b,i,k]) of plain partial derivatives."""
        nb, n = xs.shape
        jac = self._jac_fn(*self._args(xs, vs)).reshape(nb, 2, n, n)
        return jac[:, 0], jac[:, 1]

    def first_order_jet(self, xs: np.ndarray, vs: np.ndarray):
        """(g, ginv, koszul, f, dfdx, dfdv) from one compiled call, batch
        axis last: the points are xs[k, b] and vs[k, b], and the arrays
        g[i, j, b], ginv[i, j, b], koszul[j, i, r, b], f[k, b],
        dfdx[i, k, b] and dfdv[i, k, b].

        Moved to the front, the batch axis gives the same arrays, bit for
        bit, as ``metric`` at xs and ``components`` and ``jacobians`` at
        (xs, vs).  koszul[j, i, r] = d_j g_ir + d_i g_jr - d_r g_ij is the
        Koszul symbol of ``metric_partials`` (``Spray.koszul``).  All of
        them come from the expressions those methods already derived, and
        ginv from ``Manifold._ginv_asts``.  The generated call fills one
        record per point, and each tensor is copied out of the records
        with the batch axis moved last, so that its rows are contiguous.
        """
        record = self._first_order_record
        out = self._records(self._first_order_fn, (*xs, *vs), record)
        return tuple(np.ascontiguousarray(np.moveaxis(out[name], 0, -1))
                     for name in record.names)

    def jet(self, xs: np.ndarray, vs: np.ndarray):
        """(g, ginv, koszul, f, dfdx, dfdv, ddg_vv) from one compiled call,
        batch-first views of the one array it fills: g[b, i, j],
        koszul[b, j, i, r], and so on, each matrix contiguous.

        The first six are ``first_order_jet``'s, bit for bit; ddg_vv is
        S = P + P^T - W - H, ``metric_second_partials`` contracted with vs
        twice (see ``Manifold.riemann``).
        """
        out = self._records(self._jet_fn, self._args(xs, vs),
                            self._jet_record)
        return tuple([out[name] for name in self._jet_record.names])


def extended_gradients(man: Manifold, force: ForceField, xs: np.ndarray,
                       vs: np.ndarray, jac: tuple | None = None,
                       along: Spray | None = None):
    """Batched spatial and velocity gradients of the force field.

    velocity[b,i,k] is the plain v-derivative; spatial[b,i,k] adds the
    connection correction for the vector index and the chase of the
    velocity argument along coordinate directions.  jac and along, when
    given, are the pair (dfdx, dfdv) and ``spray(ginv, koszul, vs, F)``
    already formed; otherwise both come from the first-order jet's
    generated call, read batch-first.
    """
    if jac is None or along is None:
        out = force._records(force._first_order_fn, force._args(xs, vs),
                             force._first_order_record)
        jac = out["dfdx"], out["dfdv"]
        along = spray(out["ginv"], out["koszul"], vs, out["f"])
    dfdx, dfdv = jac
    spatial = dfdx - along.gam_v @ dfdv + along.gam_f
    return spatial, dfdv


def force_tensors(force: ForceField, xs: np.ndarray, vs: np.ndarray) -> dict:
    """Metric and force tensors at a batch of tangent-bundle points, with
    the batch axis last: xs[k, b] and vs[k, b] in, every tensor out
    indexed [..., b].

    g and g^-1; the velocity v, the force F and F lowered; the velocity
    gradient of F raw (vel[i, k], derivative index first) and both
    gradients with the vector index lowered (nabla_i F_j, tnabla_i F_j).
    All of them come from one ``force.first_order_jet`` call.  The
    connection enters only contracted with v and F,
    through the Koszul symbol: with L_v[i, r] = gamma_rij v^j (lowered)
    and gamma v = L_v g^-1, the lowered spatial gradient is
    dfdx g - (gamma v) vel_cov + L_F, since gamma_F g = L_F.
    """
    g, ginv, koszul, f_vals, dfdx, dfdv = force.first_order_jet(xs, vs)
    low_v = 0.5 * vecmat_last(vs, koszul)
    low_f = 0.5 * vecmat_last(f_vals, koszul)
    vel_cov = matmul_last(dfdv, g)
    spa_cov = matmul_last(dfdx, g)
    spa_cov -= matmul_last(matmul_last(low_v, ginv), vel_cov)
    spa_cov += low_f
    return dict(g=g, ginv=ginv, v=vs, f=f_vals,
                f_cov=matvec_last(g, f_vals), vel=dfdv,
                spa_cov=spa_cov, vel_cov=vel_cov)


def at_point(fn, *args):
    """fn evaluated at one point instead of a batch.

    Array arguments (arrays, lists and tuples) get a leading batch axis of
    length one and everything else passes through unchanged; the batch
    axis is stripped from the result, or from each entry of a tuple
    result.  ``at_point(man.christoffel, x)`` is gamma[k, i, j] at x.
    """
    out = fn(*(np.asarray(a, dtype=float)[None]
               if isinstance(a, (np.ndarray, list, tuple)) else a
               for a in args))
    if isinstance(out, tuple):
        return tuple(entry[0] for entry in out)
    return out[0]
