import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontshift import exprlang as el

VARS = ["x1", "x2", "v1", "v2"]


def test_parse_precedence_pow_over_add():
    ast = el.parse("v1^2 + v2^2", VARS)
    assert ast == el.Add(el.Pow(el.Var("v1"), el.Const(2.0)),
                         el.Pow(el.Var("v2"), el.Const(2.0)))


def test_parse_unary_minus_binds_tighter_than_mul():
    ast = el.parse("-x1*x2", VARS)
    assert ast == el.Mul(el.Neg(el.Var("x1")), el.Var("x2"))


def test_parse_unknown_identifier():
    with pytest.raises(el.UnknownIdentifierError) as info:
        el.parse("x3", ["x1", "x2"])
    assert "x3" in str(info.value)


def test_parse_left_associativity():
    assert el.parse("x1 - x2 - v1", VARS) == el.Sub(
        el.Sub(el.Var("x1"), el.Var("x2")), el.Var("v1"))
    assert el.parse("x1/x2/v1", VARS) == el.Div(
        el.Div(el.Var("x1"), el.Var("x2")), el.Var("v1"))


def test_parse_unary_minus_below_pow():
    # standard precedence: ^ binds tighter than unary minus
    assert el.parse("-x1^2", VARS) == el.Neg(
        el.Pow(el.Var("x1"), el.Const(2.0)))


def test_parse_syntax_error_offset():
    with pytest.raises(el.ExprSyntaxError) as info:
        el.parse("x1+*x2", VARS)
    assert info.value.offset == 3
    assert "byte 3" in str(info.value)


def test_parse_rejects_nonconstant_exponent():
    with pytest.raises(el.ExprSyntaxError):
        el.parse("x1^x2", VARS)
    # constant base with variable exponent stays legal
    el.parse("2^x1", VARS)


def test_parse_rejects_empty():
    with pytest.raises(el.ExprSyntaxError):
        el.parse("   ", VARS)


def test_evaluate_examples():
    assert el.evaluate(el.parse("v1^2+v2^2", VARS), {"v1": 3, "v2": 4}) == 25
    assert el.evaluate(el.parse("sin(0)", []), {}) == 0.0


def test_evaluate_domain_errors():
    with pytest.raises(el.ExprDomainError):
        el.evaluate(el.parse("1/x1", VARS), {"x1": 0.0})
    with pytest.raises(el.ExprDomainError):
        el.evaluate(el.parse("ln(x1)", VARS), {"x1": -1.0})
    with pytest.raises(el.ExprDomainError):
        el.evaluate(el.parse("sqrt(x1)", VARS), {"x1": -4.0})


def test_differentiate_examples():
    assert el.differentiate(el.parse("x1*x2", VARS), "x1") == el.Var("x2")
    assert el.differentiate(el.parse("sin(x1)", VARS), "x2") == el.Const(0.0)
    d = el.differentiate(el.parse("sqrt(v1^2+v2^2)", VARS), "v1")
    assert el.evaluate(d, {"v1": 3, "v2": 4}) == pytest.approx(0.6, abs=1e-12)


def test_simplify_examples():
    assert el.simplify(el.parse("0*x1 + 1*v2", VARS)) == el.Var("v2")
    assert el.simplify(el.parse("x1^1", VARS)) == el.Var("x1")
    assert el.simplify(el.parse("2*3", VARS)) == el.Const(6.0)


def test_simplify_folds_zero_numerator():
    assert el.simplify(el.parse("0/x1", VARS)) == el.Const(0.0)
    assert el.simplify(el.parse("(0*v1)/(2*sqrt(x2))", VARS)) == el.Const(0.0)
    assert el.simplify(el.parse("v1 + 0/x1", VARS)) == el.Var("v1")


def _random_ast(rng, depth):
    """Bounded expression generator; ln and abs are exercised separately
    because finite differences misbehave at their domain boundaries."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return el.Const(round(float(rng.uniform(-2.0, 2.0)), 3))
        return el.Var(VARS[rng.integers(len(VARS))])
    pick = rng.random()
    left = _random_ast(rng, depth - 1)
    right = _random_ast(rng, depth - 1)
    if pick < 0.2:
        return el.Add(left, right)
    if pick < 0.4:
        return el.Sub(left, right)
    if pick < 0.6:
        return el.Mul(left, right)
    if pick < 0.7:
        return el.Div(left, right)
    if pick < 0.8:
        return el.Pow(left, el.Const(float(rng.integers(1, 4))))
    func = ("sin", "cos", "exp", "sqrt", "tan")[rng.integers(5)]
    return el.Call(func, left)


def _random_binding(rng):
    return {name: float(rng.uniform(0.4, 2.0)) for name in VARS}


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(42)
    accepted = 0
    attempts = 0
    while accepted < 1000 and attempts < 20000:
        attempts += 1
        ast = _random_ast(rng, 3)
        b = _random_binding(rng)
        var = VARS[rng.integers(len(VARS))]
        h = 1e-6 * max(1.0, abs(b[var]))
        try:
            sym = el.evaluate(el.differentiate(ast, var), b)
            up = dict(b, **{var: b[var] + h})
            dn = dict(b, **{var: b[var] - h})
            fd = (el.evaluate(ast, up) - el.evaluate(ast, dn)) / (2.0 * h)
        except el.ExprError:
            continue
        if not (math.isfinite(sym) and math.isfinite(fd)):
            continue
        if abs(sym) > 1e3 or abs(el.evaluate(ast, b)) > 1e3:
            continue
        accepted += 1
        assert abs(fd - sym) <= 1e-6 * max(1.0, abs(sym)), (
            ast, var, b, sym, fd)
    assert accepted == 1000


def test_abs_derivative_away_from_zero():
    d = el.differentiate(el.parse("abs(x1)", VARS), "x1")
    assert el.evaluate(d, {"x1": 2.5}) == 1.0
    assert el.evaluate(d, {"x1": -2.5}) == -1.0
    with pytest.raises(el.ExprDomainError):
        el.evaluate(d, {"x1": 0.0})


def test_simplify_preserves_evaluate():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        ast = _random_ast(rng, 3)
        b = _random_binding(rng)
        try:
            before = el.evaluate(ast, b)
        except el.ExprError:
            continue
        after = el.evaluate(el.simplify(ast), b)
        checked += 1
        if before == after:
            continue
        # folding may commute operations; stay within an ulp
        assert after == pytest.approx(before, rel=4e-16, abs=5e-324)


def test_compiled_matches_evaluate():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 300:
        ast = _random_ast(rng, 3)
        b = _random_binding(rng)
        try:
            ref = el.evaluate(ast, b)
        except el.ExprError:
            continue
        fn = el.compile_fn([ast], VARS)
        args = tuple(np.array([b[name]]) for name in VARS)
        got = float(fn(*args)[0, 0])
        checked += 1
        assert got == pytest.approx(ref, rel=1e-15, abs=1e-300)


# -- multi-node compile_fn -----------------------------------------------------

def _columns(bindings):
    return tuple(np.array([b[name] for b in bindings]) for name in VARS)


def _subtrees(node):
    """node and every node below it."""
    yield node
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, el.Node):
            yield from _subtrees(value)


def _fresh(node):
    """A structurally equal copy of node built from new nodes, none of
    them marked by ``simplify``."""
    return type(node)(*(_fresh(value) if isinstance(value, el.Node)
                        else value
                        for value in (getattr(node, name)
                                      for name in node._fields)))


def test_compiled_many_matches_evaluate_entrywise():
    shared = el.parse("sin(x1)^2*v1", VARS)
    nodes = [
        shared,
        el.Add(shared, el.parse("sin(x1)^2 + cos(x2)", VARS)),
        el.Const(-2.5),                      # broadcast to the batch
        el.Mul(shared, shared),
        shared,                              # the same node twice
        el.differentiate(el.Mul(shared, el.Var("x2")), "x1"),
    ]
    fn = el.compile_fn(nodes, VARS)
    rng = np.random.default_rng(3)
    bindings = [_random_binding(rng) for _ in range(5)]
    got = fn(*_columns(bindings))
    assert got.shape == (5, len(nodes))
    assert np.array_equal(got[:, 2], np.full(5, -2.5))
    assert np.array_equal(got[:, 0], got[:, 4])
    for b, row in enumerate(bindings):
        for k, node in enumerate(nodes):
            assert got[b, k] == pytest.approx(el.evaluate(node, row),
                                              rel=1e-15, abs=1e-300)
    # scalar arguments: batch shape ()
    assert fn(*(bindings[0][name] for name in VARS)).shape == (len(nodes),)


def test_compiled_constants_are_bit_exact():
    # a run of constants, and constants between varying entries; -0.0
    # stays -0.0 and every constant keeps its exact bits
    consts = [el.Const(-0.0), el.Const(0.0), el.Const(0.1),
              el.Const(-2.5e-300), el.Const(math.pi)]
    mixed = [el.Const(-0.0), el.parse("x1*v1", VARS), el.Const(1 / 3),
             el.Var("x2")]
    fn = el.compile_fn(consts + mixed, VARS)
    rng = np.random.default_rng(6)
    bindings = [_random_binding(rng) for _ in range(4)]
    for args, batch in ((_columns(bindings), (4,)),
                        (tuple(bindings[0][name] for name in VARS), ())):
        out = fn(*args)
        assert out.shape == batch + (9,)
        all_const, some_const = out[..., :5], out[..., 5:]
        want = np.broadcast_to([c.value for c in consts], batch + (5,))
        assert all_const.tobytes() == np.ascontiguousarray(want).tobytes()
        assert np.signbit(all_const[..., 0]).all()
        assert not np.signbit(all_const[..., 1]).any()
        assert np.signbit(some_const[..., 0]).all()
        assert (some_const[..., 2] == 1 / 3).all()
        assert np.array_equal(some_const[..., 1],
                              np.multiply(args[0], args[2]))
        assert np.array_equal(some_const[..., 3], args[1])


@pytest.mark.parametrize("source", [
    "x1*(1e308*10)", "v1 - x2*(1e308*10)", "x1*(1e308*10 - 1e308*10)",
    "v1 + x2/(1e308*10)", "v1 + x2/(-1e308*10)", "(1e308*10)^2 - x1",
    "x1*v2*(0 - 1e308*10) + v1"])
def test_compiled_non_finite_constants_match_evaluate(source):
    # a constant that folds to +-inf or nan below the root is printed into
    # the generated code; the values, nan and the sign of zero included,
    # are evaluate's
    node = el.simplify(el.parse(source, VARS))
    assert not isinstance(node, el.Const)
    assert any(isinstance(sub, el.Const) and not math.isfinite(sub.value)
               for sub in _subtrees(node))
    fn = el.compile_fn([node], VARS)
    values = (-2.0, -0.0, 0.0, 1.5)
    bindings = [dict(zip(VARS, combo)) for combo in itertools.product(
        values, repeat=len(VARS))]
    with np.errstate(all="ignore"):
        got = fn(*_columns(bindings))[:, 0]
    for b, value in zip(bindings, got.tolist()):
        want = el.evaluate(node, b)
        if math.isnan(want):
            assert math.isnan(value), b
        else:
            assert value == want and (math.copysign(1.0, value)
                                      == math.copysign(1.0, want)), b


def test_nodes_equal_by_type_and_fields_never_pos():
    assert el.Const(1.0, pos=3) == el.Const(1.0)
    assert el.Const(0.0) == el.Const(-0.0)
    assert hash(el.Const(0.0, pos=2)) == hash(el.Const(-0.0))
    assert el.Add(el.Var("x1"), el.Const(2.0), pos=7) == el.Add(
        el.Var("x1"), el.Const(2.0))
    assert el.Add(el.Var("x1"), el.Var("x2")) != el.Sub(el.Var("x1"),
                                                        el.Var("x2"))
    assert el.Var("x1") != "x1"
    assert el.Call("sin", el.Var("x1"), pos=4).pos == 4
    assert len({el.Var("x1"), el.Var("x1", pos=1), el.Var("x2")}) == 2


def test_simplify_returns_its_fixpoint_itself():
    rng = np.random.default_rng(19)
    for _ in range(300):
        ast = _random_ast(rng, 3)
        done = el.simplify(ast)
        assert el.simplify(done) is done
        assert el.simplify(el.Add(done, el.Const(0.0))) is done
        assert el._simplify_once(done) is done


def test_simplify_does_not_walk_a_simplified_subtree_again(monkeypatch):
    rng = np.random.default_rng(23)
    parts = [part for part in (el.simplify(_random_ast(rng, 4))
                               for _ in range(60))
             if not isinstance(part, (el.Const, el.Var))]
    # the same tree built fresh, never simplified, is the reference
    fresh = [_fresh(part) for part in parts]
    rewritten = []
    rewrite = el._rewrite

    def counted(node):
        rewritten.append(node)
        return rewrite(node)
    monkeypatch.setattr(el, "_rewrite", counted)
    for part, copy in zip(parts, fresh):
        rewritten.clear()
        tree = el.simplify(el.Sub(el.Mul(part, el.Var("v1")), part))
        # the two new nodes only, once each: the marked part is skipped
        assert len(rewritten) == 2
        assert tree == el.simplify(el.Sub(el.Mul(copy, el.Var("v1")), copy))


def test_compiled_arrays_take_at_most_32_names():
    names = [f"a{k}" for k in range(33)]
    with pytest.raises(ValueError, match="at most 32"):
        el.compile_fn([el.Var("a0")], names)


def test_compiled_many_rejects_undeclared_names():
    with pytest.raises(el.UnknownIdentifierError):
        el.compile_fn([el.Var("x1"), el.Var("q")], ["x1"])


EPS = 2.0 ** -52


def _value_and_error_bound(node, binding):
    """Value by ``evaluate``'s arithmetic plus a first-order bound on its
    rounding error; a numpy evaluation of the same tree may differ from
    it by a few ulps per elementary function and by the propagation of
    those differences, which the bound covers."""
    if isinstance(node, el.Const):
        return node.value, 0.0
    if isinstance(node, el.Var):
        return binding[node.name], 0.0
    if isinstance(node, el.Neg):
        val, err = _value_and_error_bound(node.arg, binding)
        return -val, err
    if isinstance(node, el.Call):
        val, err = _value_and_error_bound(node.arg, binding)
        if node.func == "exp":
            out = math.exp(val)
            return out, math.exp(val + err) * err + 4 * EPS * out
        out = math.sin(val) if node.func == "sin" else math.cos(val)
        return out, err + 4 * EPS
    if isinstance(node, el.Pow):
        val, err = _value_and_error_bound(node.base, binding)
        c = node.exponent.value
        out = math.pow(val, c)
        return out, (c * (abs(val) + err) ** (c - 1.0) * err
                     + 4 * EPS * abs(out))
    left, e_left = _value_and_error_bound(node.left, binding)
    right, e_right = _value_and_error_bound(node.right, binding)
    if isinstance(node, el.Mul):
        out = left * right
        return out, (abs(left) * e_right + abs(right) * e_left
                     + e_left * e_right + EPS * abs(out))
    out = left + right if isinstance(node, el.Add) else left - right
    return out, e_left + e_right + EPS * abs(out)


_LEAVES = st.one_of(
    st.sampled_from(VARS).map(el.Var),
    st.integers(-2000, 2000).map(lambda k: el.Const(k / 1000.0)))


def _grow(children):
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b),
                  st.sampled_from([el.Add, el.Sub, el.Mul]), children,
                  children),
        st.builds(el.Neg, children),
        st.builds(el.Call, st.sampled_from(["sin", "cos", "exp"]), children),
        st.builds(lambda a, c: el.Pow(a, el.Const(c)), children,
                  st.sampled_from([2.0, 3.0])))


_TREES = st.recursive(_LEAVES, _grow, max_leaves=10)
_BINDINGS = st.lists(
    st.fixed_dictionaries({name: st.floats(-1.5, 1.5) for name in VARS}),
    min_size=1, max_size=4)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(trees=st.lists(_TREES, min_size=1, max_size=3),
       const=st.integers(-9, 9), bindings=_BINDINGS)
def test_compiled_many_property(trees, const, bindings):
    # shared subtrees across and within roots, plus a constant root
    nodes = trees + [el.Mul(trees[0], el.Add(trees[-1], trees[0])),
                     trees[-1], el.Const(float(const))]
    fn = el.compile_fn(nodes, VARS)
    args = _columns(bindings)
    with np.errstate(all="ignore"):
        got = fn(*args)
        singles = [el.compile_fn([node], VARS)(*args)[:, 0]
                   for node in nodes]
    assert got.shape == (len(bindings), len(nodes))
    for k, single in enumerate(singles):
        np.testing.assert_array_equal(got[:, k], single)
    for b, row in enumerate(bindings):
        for k, node in enumerate(nodes):
            try:
                ref = el.evaluate(node, row)
                _, bound = _value_and_error_bound(node, row)
            except (el.ExprError, OverflowError):
                continue
            if not math.isfinite(ref + bound):
                continue
            assert abs(got[b, k] - ref) <= 4.0 * bound + 1e-300, (k, row)


def test_commutative_key_ignores_operand_order_in_sums_and_products():
    def key(src):
        return el.commutative_key(el.parse(src, ["x1", "x2", "x3"]))
    assert key("0.1*x1*x2") == key("x2*(x1*0.1)")
    assert key("x1 + x2*x3 + 1") == key("1 + x3*x2 + x1")
    assert key("sin(x1*x2)^2") == key("sin(x2*x1)^2")
    assert key("x1 - x2") != key("x2 - x1")
    assert key("x1/x2") != key("x2/x1")
    assert key("x1 + x2*x3") != key("(x1 + x2)*x3")
    assert key("0*x1") != key("-0*x1")
