"""Metric geometry and extended-field gradients at tangent-bundle points.

All tensor assembly is numeric, on the exact symbolic derivatives of the
metric and force expressions, and every contraction runs in a fixed
order.  Past the metric itself, production code reads the geometry and
the force from generated calls built from one set of root expressions:
``ForceField.first_order_jet`` (g, g^-1, F, both force Jacobians and
the connection contracted with v and with F) for the sample points, and
for the RK4 integration ``ForceField.flow_jet`` (the acceleration a =
F - gamma(v, v), once per stage) and ``ForceField.variation_jet`` (the
first-order fields but g, ddg contracted with v twice, the Koszul
symbol and gamma(v, v), once per block of stage points).  The
connection enters only contracted with v and F, and those contractions
are generated once (``ForceField._connection_asts``, from
``Manifold._lowered_asts``, ``_gvv_lowered_asts`` and
``_raised_asts``) for every call that reads them, sharing every
subexpression with the tensors of the same call.  Each call fills one
entry-first (K, B) array, or the caller's, one row per tensor entry,
and a ``Record`` hands the tensors out as views of its rows: no gather,
and no numeric inverse in any dimension, since g^-1 is the metric's
adjugate over its determinant as expressions (``Manifold._ginv_asts``).
``at_point`` evaluates any batch-first function at one point, and
``force_tensors`` builds every metric and force tensor the deviation and
normality formulas share in one place, its covariant spatial gradient
through ``extended_gradients``, the one place that forms it.

One layout, batch-last, but for one product.  The generated calls take
coordinate rows, xs[k, b], and the records' tensors are (n, n, B):
every contraction over them is n broadcast products of contiguous
length-B rows added in index order (``dot_last``).  So are ``check``,
``deviation``, the flow's RK4 (its state and stage rates are (2n, B)
rows), the variation coefficients, the sphere grid and the shift, and
where only the metric is read it is read as its unique-entry rows
(``Manifold.metric_rows``, ``lower_rows``, ``g_norm_rows``), with no
(n, n, B) array.  numpy's ``@`` makes one BLAS call per 3 x 3 matrix,
so at 2048 points in 3-D (one BLAS thread, shared 2-vCPU VM) a
batch-first matrix product took 73-150 us against about 60 us
batch-last, and in 2-D the batch-last forms are 5-10 times cheaper.
The variations' stages alone stay batch-first: one ``@`` per stage of
the rows [tau_j, rho_j] with a (P, 2n, 2n) rate matrix per point.  A
whole stage batch-last took 41-49 % longer on S^3 at B <= 10 (``rank``,
the selftest); the flow alone entry-first, with the one product, made
``integrate_batch`` 2-23 % faster at B = 1 to 1024.

The connection fields give gamma contracted with v and F without
building gamma, and ``Manifold.riemann`` with the variation record
passed gives the Jacobi operator K[k, s] = R^k_msr v^m v^r from S, the
second partials contracted with v twice, summed symbolically by the
variation call; the rest costs O(n^3) per point, without ddg, d gamma
or any (n, n, n, n) intermediate.  The per-quantity methods
(``metric_partials``, ``metric_second_partials``, ``christoffel``,
``christoffel_partials``, ``riemann`` without a record,
``ForceField.components`` and ``ForceField.jacobians``) are batch-first
oracles: no production path outside ``selfcheck`` calls them.

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
from typing import Sequence

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


# Batch-last contractions: every operand carries the batch axis last, so
# each factor of a product is a run of contiguous rows, and a contraction
# is ``dot_last``: one broadcast product of rows per index, accumulated
# in index order, element by element, so a row's value does not depend
# on the rows beside it or on the batch length.

def dot_last(a, b) -> np.ndarray:
    """a[i, ...] b[i, ...] summed over i, one index at a time: a and b
    are iterables of rows (an array is one), each row read when used."""
    a, b = iter(a), iter(b)
    out = next(a) * next(b)
    for row in a:
        out += row * next(b)
    return out


def matvec_last(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(m w)[i, ...] = m[i, j, ...] w[j, ...]."""
    return dot_last(m.swapaxes(0, 1), w)


def vecmat_last(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(w m)[j, ...] = w[i, ...] m[i, j, ...]."""
    return dot_last(w[:, None], m)


def matmul_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a b)[i, k, ...] = a[i, j, ...] b[j, k, ...]."""
    return dot_last(a.swapaxes(0, 1)[:, :, None], b)


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


def _total(terms: Sequence[Node]) -> Node:
    """terms[0] + terms[1] + ..., added in that order, simplified."""
    return exprlang.simplify(functools.reduce(Add, terms))


class Record:
    """Named fields of the entry-first (K, ...) array a generated call
    fills: each a range of rows, handed out as a (shape..., ...) view."""

    def __init__(self, shapes: dict, names: Sequence[str]):
        self.names, self._rows, start = tuple(names), {}, 0
        for name in self.names:
            stop = start + int(np.prod(shapes[name]))
            self._rows[name], start = (slice(start, stop), shapes[name]), stop
        self.size = start

    def views(self, array: np.ndarray) -> dict:
        """{name: field view} of a (size, ...) array."""
        return {name: array[rows].reshape(shape + array.shape[1:])
                for name, (rows, shape) in self._rows.items()}


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
    contracted with v twice, g^-1, and the connection contracted with
    vectors) and every callable are built on first use, so a command
    pays only for what it evaluates.
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
        """g^-1[i, j] at n i + j, the adjugate over the determinant of the
        metric entries, in every dimension.

        The products, and their order, are those of the numeric form
        (``tests/oracles.py``): entry (i, j) of the adjugate is
        (-1)^((n - 1)(i + j)) times the minor of g over the rows after j
        and the columns after i, taken cyclically mod n, and a minor is
        expanded along its first row with alternating signs.  So in 3-D
        adj[i, j] = g[a, c] g[b, d] - g[a, d] g[b, c] with (a, b) =
        (j + 1, j + 2) and (c, d) = (i + 1, i + 2) mod 3, in 2-D it is
        (g11, -g01, -g10, g00), and det = sum_k g[0, k] adj[k, 0], added
        in k order (g00 g11 - g01 g10 in 2-D).  Simplification folds the
        structural zeros and constants, so a diagonal metric costs a few
        divisions and a constant one nothing.  A zero numerator stays a
        constant of its own sign: the determinant of a positive definite
        metric is positive, and the numeric form gives -0.0 there.
        """
        n = self.dimension
        t = [self._g_asts[p] for p in self._g_idx.ravel()]

        def minor(rows, cols):
            if len(rows) == 1:
                return t[n * rows[0] + cols[0]]
            total = None
            for k, c in enumerate(cols):
                term = Mul(t[n * rows[0] + c],
                           minor(rows[1:], cols[:k] + cols[k + 1:]))
                total = (term if total is None else
                         Sub(total, term) if k % 2 else Add(total, term))
            return total

        def after(k):
            return [(k + s) % n for s in range(1, n)]

        odd = [(n - 1) * (i + j) % 2 for i in range(n) for j in range(n)]
        minors = [exprlang.simplify(minor(after(j), after(i)))
                  for i in range(n) for j in range(n)]
        adj = [exprlang.simplify(Neg(m)) if sign else m
               for m, sign in zip(minors, odd)]
        det = Mul(t[0], minors[0])
        for k in range(1, n):
            term = Mul(t[k], minors[k * n])
            det = Sub(det, term) if odd[k * n] else Add(det, term)
        det = exprlang.simplify(det)
        return [entry if isinstance(entry, Const) and entry.value == 0.0
                else exprlang.simplify(Div(entry, det)) for entry in adj]

    def _lowered_asts(self, w: Sequence[Node]) -> list:
        """L[i, r] = gamma_rij w^j = koszul[j, i, r] (w^j / 2) at n i + r, for
        a vector w of n expressions; no inverse enters."""
        n, slot, koszul = self.dimension, self._g_idx, self._koszul_asts
        half = [Mul(Const(0.5), entry) for entry in w]
        return [_total([Mul(koszul[slot[j, i] * n + r], half[j])
                        for j in range(n)])
                for i in range(n) for r in range(n)]

    @functools.cached_property
    def _gvv_lowered_asts(self) -> list:
        """c_r = gamma_rij v^i v^j = koszul[j, i, r] v^i v^j / 2, summed over
        the monomials, koszul[i, j, r] v^i v^j for i < j and koszul[i, i,
        r] (v^i)^2 / 2, with the square written v^2, as a force has it."""
        n, slot, koszul = self.dimension, self._g_idx, self._koszul_asts
        vel = [Var(name) for name in self.velocities]
        mono = {(i, j): Mul(Const(0.5), Pow(vel[i], Const(2.0))) if i == j
                else Mul(vel[i], vel[j])
                for i in range(n) for j in range(i, n)}
        return [_total([Mul(koszul[slot[i, j] * n + r], m)
                        for (i, j), m in mono.items()])
                for r in range(n)]

    def _raised_asts(self, lowered: Sequence[Node]) -> list:
        """w[row, k] = g^-1[k, r] w[row, r] at n row + k, for rows of n
        lowered entries, r last."""
        n, ginv = self.dimension, self._ginv_asts
        return [_total([Mul(ginv[k * n + r], lowered[row * n + r])
                        for r in range(n)])
                for row in range(len(lowered) // n) for k in range(n)]

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
        return self._g_fn(*self._args(xs)).T[:, self._g_idx]

    def metric_partials(self, xs: np.ndarray) -> np.ndarray:
        """dg[b, k, i, j] = d g_ij / d x^k."""
        return self._dg_fn(*self._args(xs)).T[:, self._dg_idx]

    def metric_second_partials(self, xs: np.ndarray) -> np.ndarray:
        """ddg[b, l, k, i, j] = d^2 g_ij / (d x^l d x^k)."""
        return self._ddg_fn(*self._args(xs)).T[:, self._ddg_idx]

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
                record: dict | None = None) -> np.ndarray:
        """The curvature tensor, or with a record the Jacobi operator
        along its velocities.

        Without a record: riemann[b, k, m, s, r], antisymmetric in (s, r),
        built from the full connection derivative at the batch-first
        points xs; this is the oracle form.

        With record, the views of ``ForceField.variation_jet`` at (xs,
        vs): jacobi[k, s, b] = R^k_msr v^m v^r at the points xs[b], the
        batch axis last, so that R(tau, v)v is jacobi[..., b] @ tau.  It
        costs O(n^3) per point on top of S, and neither ddg, d gamma nor
        any (n, n, n, n) array is formed.  With c = gamma(v, v), the
        lowered L_ls = gamma_lsr v^r and gamma v = g^-1 L,

            jacobi = g^-1 [(S - E - E^T + D) / 2 + L^T gamma v]

        where S = P + P^T - W - H is ddg contracted with v twice:
        P_sl = d_s d_m g_lj v^m v^j, W_sl = d_s d_l g(v, v) and
        H_ls = d_v d_v g_ls; E_sl = d_s g_lb c^b and D_ls = c^j d_j g_ls,
        so E + E^T - D is the Koszul symbol contracted with c.  It reads
        the record's ddg_vv (S), koszul, gvv (c), low_v (L), gam_v and
        ginv; each product is a ``matvec_last`` or ``matmul_last``.
        """
        n = self.dimension
        if record is not None:
            ddg_vv = record["ddg_vv"]
            koszul = record["koszul"].reshape(n * n, n, -1)
            sym = ddg_vv - matvec_last(koszul,
                                       record["gvv"]).reshape(ddg_vv.shape)
            sym *= 0.5
            sym += matmul_last(record["low_v"],
                               record["gam_v"].swapaxes(0, 1))
            return matmul_last(record["ginv"], sym)
        if ginv is None:
            ginv = np.linalg.inv(self.metric(xs))
        nb = len(xs)
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

    def metric_rows(self, xs) -> np.ndarray:
        """The metric's unique-entry rows at the points xs[k, ...], for
        ``lower_rows`` and ``g_norm_rows``: no (n, n, ...) array."""
        return self._g_fn(*xs)

    def lower_rows(self, rows: np.ndarray, ws):
        """The lowered g_ij w^j of the vectors ws[j, ...], one row per i in
        turn, from ``metric_rows`` at their points; ws may carry axes
        before the points' axes."""
        for slots in self._g_idx:
            yield dot_last([rows[p] for p in slots], ws)

    def g_norm_rows(self, rows: np.ndarray, ws) -> np.ndarray:
        """g-lengths of the vectors ws[k, ...] from ``metric_rows`` at their
        points, summed in index order, one lowered row alive at a time."""
        total = dot_last(ws, self.lower_rows(rows, ws))
        return np.sqrt(total, out=total)

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

    Three generated callables evaluate everything production code reads
    of the force and the metric, each sharing every subexpression among
    its entries.  ``first_order_jet`` gives g, g^-1, F, both force
    Jacobians and the connection contracted with v and with F (gam_v,
    gam_f), what ``force_tensors`` and the shift's launch read;
    ``flow_jet`` the acceleration a = F - gamma(v, v), what an RK4 stage
    of the flow reads; ``variation_jet`` the same Jacobians, g^-1, gam_v
    and gam_f, and the metric's second partials contracted with v twice,
    the Koszul symbol, low_v and gvv, what the variation coefficients
    read.  The connection fields of every call come from one set of
    expressions (``_connection_asts``).  Each call fills one entry-first
    (K, B) array, a row per tensor entry (symmetric duplicates included),
    and the first and the last hand the tensors out as ``Record`` views,
    batch axis last.  ``components`` and ``jacobians`` are oracles with
    callables of their own.  Every callable is compiled on first use.
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
        # the rows of each record's generated array by field
        shapes = dict(g=(n, n), ginv=(n, n), koszul=(n, n, n), f=(n,),
                      dfdx=(n, n), dfdv=(n, n), ddg_vv=(n, n),
                      low_v=(n, n), gam_v=(n, n), gam_f=(n, n), gvv=(n,))
        self._first_order_record = Record(shapes, (
            "g", "ginv", "f", "dfdx", "dfdv", "gam_v", "gam_f"))
        self.variation_record = Record(shapes, (
            "dfdx", "dfdv", "ddg_vv", "ginv", "koszul", "low_v", "gam_v",
            "gam_f", "gvv"))

    @functools.cached_property
    def _f_fn(self):
        return exprlang.compile_fn(self.component_ast, self._names)

    @functools.cached_property
    def _jac_fn(self):
        return exprlang.compile_fn(self._jac_asts, self._names)

    @functools.cached_property
    def _connection_asts(self) -> dict:
        """The connection contracted with v and F, the fields every
        generated call reads it through: the lowered c[r] = gamma_rij v^i
        v^j, low_v[i, r] = gamma_rij v^j and low_f[i, r] = gamma_rij F^j
        (no inverse enters), the raised gam_v[i, k] = gamma^k_ij v^j and
        gam_f[i, k] = gamma^k_ij F^j, gvv[k] = gamma^k_ij v^i v^j =
        v^i gam_v[i, k], and the acceleration a = F - g^-1 c."""
        man = self.manifold
        n = man.dimension
        low = dict(c=man._gvv_lowered_asts,
                   low_v=man._lowered_asts([Var(name)
                                            for name in man.velocities]),
                   low_f=man._lowered_asts(self.component_ast))
        gam_v = man._raised_asts(low["low_v"])
        vel = [Var(name) for name in man.velocities]
        gvv = [_total([Mul(vel[i], gam_v[i * n + k]) for i in range(n)])
               for k in range(n)]
        return dict(low, gam_v=gam_v, gam_f=man._raised_asts(low["low_f"]),
                    gvv=gvv, a=[exprlang.simplify(Sub(f, cv)) for f, cv in
                                zip(self.component_ast,
                                    man._raised_asts(low["c"]))])

    def _roots(self, record: Record) -> list:
        """Every entry of the record's tensors, in its field order and
        row-major within each."""
        man = self.manifold
        n, slots = man.dimension, man._g_idx.ravel()
        groups = dict(
            g=lambda: [man._g_asts[p] for p in slots],
            ginv=lambda: man._ginv_asts,
            koszul=lambda: [man._koszul_asts[p * n + r] for p in slots
                            for r in range(n)],
            f=lambda: self.component_ast,
            dfdx=lambda: self._jac_asts[:n * n],
            dfdv=lambda: self._jac_asts[n * n:],
            ddg_vv=lambda: [man._ddg_vv_asts[p] for p in slots])
        return [root for name in record.names
                for root in (groups[name]() if name in groups
                             else self._connection_asts[name])]

    @functools.cached_property
    def _first_order_fn(self):
        return exprlang.compile_fn(self._roots(self._first_order_record),
                                   self._names)

    @functools.cached_property
    def _flow_fn(self):
        return exprlang.compile_fn(self._connection_asts["a"], self._names)

    @functools.cached_property
    def _variation_fn(self):
        return exprlang.compile_fn(self._roots(self.variation_record),
                                   self._names)

    def components(self, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._f_fn(*xs.T, *vs.T).T

    def jacobians(self, xs: np.ndarray, vs: np.ndarray):
        """(dfdx[b,i,k], dfdv[b,i,k]) of plain partial derivatives."""
        n = self.manifold.dimension
        jac = self._jac_fn(*xs.T, *vs.T).reshape(2, n, n, -1)
        return np.moveaxis(jac[0], -1, 0), np.moveaxis(jac[1], -1, 0)

    def first_order_jet(self, xs: np.ndarray, vs: np.ndarray) -> dict:
        """g, g^-1, F, dF/dx, dF/dv, gam_v and gam_f (``_connection_asts``)
        at the points xs[k, b], vs[k, b], batch axis last: the fields of
        one compiled call's record, each a contiguous view of its rows.

        Moved to the front, the batch axis gives g, F, dF/dx and dF/dv bit
        for bit as ``metric`` at xs and ``components`` and ``jacobians``
        at (xs, vs), and every field it shares with ``variation_jet`` is
        that call's, bit for bit: the same expressions.
        """
        return self._first_order_record.views(
            self._first_order_fn(*xs, *vs))

    def flow_jet(self, xs: np.ndarray, vs: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """The acceleration a = F - gamma(v, v) at the points xs[k, b],
        vs[k, b], entry first, (n, B), written into out when given (the
        flow passes its stage rates' rows): one compiled call, a_k = F_k -
        g^-1[k, r] c_r, with g^-1 from ``Manifold._ginv_asts`` and c_r =
        gamma_rij v^i v^j from ``Manifold._gvv_lowered_asts``.
        """
        return self._flow_fn(*xs, *vs, _out=out)

    def variation_jet(self, xs: np.ndarray, vs: np.ndarray,
                      out: np.ndarray | None = None) -> dict:
        """dF/dx, dF/dv, S = P + P^T - W - H (``Manifold.riemann``), g^-1,
        the Koszul symbol and the connection fields low_v, gam_v, gam_f
        and gvv (``_connection_asts``) at the points xs[k, b], vs[k, b],
        the fields of ``variation_record``, batch axis last, as views of
        the (K, B) array of one compiled call (out, when given).  S is
        ``metric_second_partials`` contracted with vs twice, and the
        Koszul symbol koszul[j, i, r] = d_j g_ir + d_i g_jr - d_r g_ij =
        2 gamma_rij that of ``metric_partials``."""
        return self.variation_record.views(
            self._variation_fn(*xs, *vs, _out=out))


def extended_gradients(man: Manifold, force: ForceField, xs: np.ndarray,
                       vs: np.ndarray, record: dict | None = None):
    """Spatial and velocity gradients of the force field at the
    batch-first points (xs, vs), the batch axis last.

    velocity[i, k, b] is the plain v-derivative; spatial[i, k, b] =
    dF/dx - (gamma v) dF/dv + gamma F adds the connection correction for
    the vector index and the chase of the velocity argument along
    coordinate directions, one ``matmul_last``.  record, when given, is
    a jet's record at (xs, vs) already formed (dfdx, dfdv, gam_v and
    gam_f are read); otherwise it comes from ``force.variation_jet``.
    """
    if record is None:
        record = force.variation_jet(xs.T, vs.T)
    spatial = record["dfdx"] - matmul_last(record["gam_v"], record["dfdv"])
    spatial += record["gam_f"]
    return spatial, record["dfdv"]


def force_tensors(force: ForceField, xs: np.ndarray, vs: np.ndarray) -> dict:
    """Metric and force tensors at a batch of tangent-bundle points, with
    the batch axis last: xs[k, b] and vs[k, b] in, every tensor out
    indexed [..., b].

    g and g^-1; the velocity v, the force F and F lowered; the velocity
    gradient of F raw (vel[i, k], derivative index first) and both
    gradients with the vector index lowered (nabla_i F_j, tnabla_i F_j).
    All of them come from one ``force.first_order_jet`` call: the
    gradients are ``extended_gradients`` of its record, each lowered
    once with g.
    """
    jet = force.first_order_jet(xs, vs)
    g, f_vals = jet["g"], jet["f"]
    spatial, vel = extended_gradients(force.manifold, force, xs.T, vs.T,
                                      record=jet)
    return dict(g=g, ginv=jet["ginv"], v=vs, f=f_vals,
                f_cov=matvec_last(g, f_vals), vel=vel,
                spa_cov=matmul_last(spatial, g),
                vel_cov=matmul_last(vel, g))


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
