"""``exprlang.compile_fn``'s ufunc steps against the text form they
replace.

``oracles.compile_text`` is the former code generator: the merged DAG
printed as numpy source and run through ``exec``.  The steps must give
its bytes: the same values, the same sign bits (zeros and nans
included) and nan in the same places, for the expressions of
``tests/test_exprlang.py``'s generator, and that generator widened to
every operation and to signed zeros, inf and nan, and
for every kernel the package compiles on the charts of
``tests/test_geometry.py`` and the bundled configs.  Each is run at the
batch shapes (1,), (5,) and (2048,), into a fresh output, into the
transpose of a caller's rows, and with caller-owned registers twice in
a row; and at batch shape () against the text form's one-point batch:
there the text form's operands past the first ufunc were numpy scalars,
whose ``**`` is C's ``pow`` and not numpy's array loop (``x*x`` for 2,
which differs from ``pow(x, 2)`` in about 1 value in 1 000), so it did
not agree with itself between () and (1,); the steps run a batch of
shape () as a one-point row.
"""

import ast
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontshift import exprlang as el
from frontshift.config import load_config
from frontshift.geometry import ForceField, Manifold
from oracles import compile_text
from test_exprlang import _TREES as EXPRLANG_TREES
from test_exprlang import VARS
from test_geometry import JET_CHARTS

SHAPES = [(1,), (5,), (2048,)]
SRC = Path(__file__).resolve().parent.parent / "src" / "frontshift"
CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs")
                 .glob("*.json"))


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _text(nodes, names, args):
    """The text form's array, or None where it raised or went complex on
    a subtree of constants (Python's ``1.0/0.0``, ``(-2.0)**0.5``), which
    the steps fold or leave to numpy's inf and nan."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # numpy's ComplexWarning
        try:
            return compile_text(nodes, names)(*args)
        except (ArithmeticError, TypeError, Warning):
            return None


def _pin(nodes, names, draw):
    """The steps against the text form on args = draw(shape) per shape."""
    fn = el.compile_fn(nodes, names)
    with np.errstate(all="ignore"):
        for shape in SHAPES:
            args = draw(shape)
            want = _text(nodes, names, args)
            got = fn(*args)
            if want is None:
                continue
            assert _same(got, want), shape
            rows = np.full(shape + (len(nodes) + 2,), np.nan)
            into = np.moveaxis(rows[..., 1:-1], -1, 0)
            assert fn(*args, _out=into) is into
            assert _same(into, want)
            assert np.isnan(rows[..., [0, -1]]).all()
            # caller-owned output and registers: constants stored once
            out = np.empty((len(nodes),) + shape)
            registers = fn.registers(out)
            assert registers.shape[1:] == shape
            fn(*draw(shape), _out=out, _registers=registers)
            assert _same(fn(*args, _out=out, _registers=registers), want)
            half = shape[0] // 2 or 1
            fn(*(a[:half] for a in args), _out=out[:, :half],
               _registers=registers[:, :half])
            assert _same(out, want)
        args = [a[0] for a in draw((1,))]
        want = _text(nodes, names, [a[None] for a in args])
        if want is not None:
            assert _same(fn(*args), want[:, 0])
            assert _same(fn(*(np.asarray(a) for a in args)), want[:, 0])


_LEAVES = st.one_of(
    st.sampled_from(VARS).map(el.Var),
    st.integers(-2000, 2000).map(lambda k: el.Const(k / 1000.0)),
    st.sampled_from([0.0, -0.0, 2.0, 0.5, float("inf"), float("nan"),
                     -float("nan")]).map(el.Const))


def _grow(children):
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b),
                  st.sampled_from([el.Add, el.Sub, el.Mul, el.Div]),
                  children, children),
        st.builds(el.Neg, children),
        st.builds(el.Call, st.sampled_from(el.FUNCTIONS), children),
        st.builds(lambda a, c: el.Pow(a, el.Const(c)), children,
                  st.sampled_from([2.0, 3.0, 0.5, -1.0, -2.0])),
        st.builds(lambda c, a: el.Pow(el.Const(c), a),
                  st.sampled_from([2.0, 0.5]), children))


_TREES = st.recursive(_LEAVES, _grow, max_leaves=12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(trees=st.lists(_TREES, min_size=1, max_size=4),
       simplified=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_steps_are_the_text_form_bit_for_bit(trees, simplified, seed):
    # shared subtrees across and within roots, a constant root, a root
    # twice and a variable root
    nodes = trees + [el.Mul(trees[0], el.Add(trees[-1], trees[0])),
                     trees[-1], el.Const(-0.0), el.Var("v2")]
    if simplified:
        nodes = [el.simplify(node) for node in nodes]
    rng = np.random.default_rng(seed)

    def draw(shape):
        # values, signed zeros and the odd non-finite value
        args = [rng.uniform(-2.0, 2.0, shape) for _ in VARS]
        for a in args:
            a[rng.random(shape) < 0.05] = -0.0
            a[rng.random(shape) < 0.01] = np.inf
        return args
    _pin(nodes, VARS, draw)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(trees=st.lists(EXPRLANG_TREES, min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 16))
def test_exprlang_property_trees_are_the_text_form(trees, seed):
    # the trees of test_exprlang's compile property, as it builds its roots
    nodes = trees + [el.Mul(trees[0], el.Add(trees[-1], trees[0])),
                     trees[-1], el.Const(float(seed % 19 - 9))]
    rng = np.random.default_rng(seed)
    _pin(nodes, VARS, lambda shape: [rng.uniform(-1.5, 1.5, shape)
                                     for _ in VARS])


def test_constant_subtrees_fold_as_the_text_form_computed_them():
    # every operation on pairs of awkward constants, as a root and below
    # one, unsimplified: the text form computed these with Python's
    # operators at each call, the steps fold them once
    values = [0.0, -0.0, 1.0, -2.0, 0.5, 3.0, 1e308, float("inf"),
              -float("inf"), float("nan"), -float("nan")]
    consts = [el.Const(c) for c in values]
    subtrees = [el.Neg(a) for a in consts]
    subtrees += [el.Call(f, a) for f in el.FUNCTIONS for a in consts]
    subtrees += [op(a, b) for op in (el.Add, el.Sub, el.Mul, el.Div, el.Pow)
                 for a in consts for b in consts]
    rng = np.random.default_rng(5)
    for tree in subtrees:
        nodes = [tree, el.Mul(el.Var("x1"), tree), el.Sub(tree, el.Var("x2"))]
        _pin(nodes, VARS, lambda shape: [rng.uniform(-2.0, 2.0, shape)
                                         for _ in VARS])


def _kernels(man, force):
    """Every root list the package compiles for a chart and its force."""
    return [([g for g in man._g_asts if not isinstance(g, el.Const)],
             man.coords),
            (man._dg_asts, man.coords), (man._ddg_asts, man.coords),
            (force.component_ast, force._names),
            (force._jac_asts, force._names),
            (force._roots(force.first_order_record), force._names),
            (force._connection_asts["a"], force._names),
            (force._roots(force.variation_record), force._names)]


def _box_draw(box, seed):
    rng = np.random.default_rng(seed)
    lo, hi = np.array(box, dtype=float).T

    def draw(shape):
        xs = [lo[k] + (hi[k] - lo[k]) * rng.random(shape)
              for k in range(len(lo))]
        return xs + [rng.normal(size=shape) for _ in lo]
    return draw


@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_every_chart_kernel_is_the_text_form(chart):
    metric, force_src, box = JET_CHARTS[chart]
    man = Manifold(len(metric), metric)
    force = ForceField(man, force_src)
    for k, (nodes, names) in enumerate(_kernels(man, force)):
        draw = _box_draw(box, [k, len(chart)])
        _pin(nodes, names, lambda shape: draw(shape)[:len(names)])


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_every_config_kernel_is_the_text_form(path):
    cfg = load_config(path)
    man, force = cfg.build()
    kernels = _kernels(man, force)
    n_params = man.dimension - 1
    u_names = [f"u{k + 1}" for k in range(n_params)]
    shift = json.loads(path.read_text()).get("shift")
    if shift:
        asts = [el.parse(str(c), u_names) for c in shift["surface"]]
        if isinstance(shift["nu"], str):
            asts.append(el.parse(shift["nu"], u_names))
        kernels.append((asts + [el.differentiate(a, u) for a in asts
                                for u in u_names], u_names))
    for k, (nodes, names) in enumerate(kernels):
        draw = _box_draw(cfg.sampler.x_box, [k, len(path.stem)])
        if names == u_names:
            u_draw = _box_draw(shift["box"], k)
            _pin(nodes, names, lambda shape: u_draw(shape)[:n_params])
        else:
            _pin(nodes, names, lambda shape: draw(shape)[:len(names)])


def test_a_jet_call_into_owned_rows_allocates_no_batch_sized_array():
    # the flow call of a stage and the variation call of a block, with
    # the output rows and registers their caller owns: every step writes
    # into them, so what the calls allocate (views, the slot list) stays
    # below one row of the batch
    metric, force_src, box = JET_CHARTS["S3"]
    man = Manifold(3, metric)
    force = ForceField(man, force_src)
    nb = 8192
    draw = _box_draw(box, 7)
    xs, vs = np.array(draw((nb,))).reshape(2, 3, nb)
    k = np.empty((3, nb))
    jets = np.empty((force.variation_record.size, nb))
    calls = [(force.flow_jet, k, force.registers("flow", k)),
             (force.variation_jet, jets, force.registers("variation", jets))]
    for jet, out, registers in calls:
        jet(xs, vs, out=out, registers=registers)
        tracemalloc.start()
        try:
            jet(xs, vs, out=out, registers=registers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * nb, (jet.__name__, peak)


def _codegen_calls(source: str) -> list:
    """Lines of source that call the builtins exec, eval or compile
    (re.compile, an attribute, is another function)."""
    builtins = ("exec", "eval", "compile")
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in builtins
                or isinstance(node.func, ast.Attribute)
                and node.func.attr in builtins
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "builtins")]


def test_no_module_generates_code_at_run_time():
    assert {path.name: _codegen_calls(path.read_text())
            for path in sorted(SRC.glob("*.py"))
            if _codegen_calls(path.read_text())} == {}


def test_the_guard_sees_a_call_of_exec():
    assert _codegen_calls("import re\nexec('x = 1')\nre.compile('a')\n"
                          "builtins.eval('1')\nbuiltins.print(1)\n") == [2, 4]
