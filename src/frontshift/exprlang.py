"""Scalar expressions in chart coordinates and velocities.

Recursive-descent parser, exact symbolic differentiation, and a small
simplifier.  Every exact derivative used by the geometry and dynamics
layers (metric derivatives, force gradients) is produced here; numeric
differencing is reserved for test oracles.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | ident | func '(' expr ')' | '(' expr ')'
    func   := sin | cos | tan | exp | ln | sqrt | abs

The exponent of ``^`` must fold to a constant unless the base is itself
constant; this keeps differentiation closed-form.  General powers remain
expressible as ``exp(ln(b)*e)``.

Nodes are plain slotted classes, equal by type and fields (never
``pos``).  Each ``simplify`` pass returns every subtree in which no rule
fired as the same object, so the fixpoint is the first pass that returns
its input.  Such a subtree is marked, and no later pass, over any tree
built from it, walks it again.

A tree leaves the language only as generated numpy code: ``compile_fn``
turns a list of K nodes into one callable that fills one (K,) + batch
array, entry first, and prints a constant folded to +-inf or nan as
``np.inf`` or ``np.nan``.  There is no printer back to the expression
language.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


class ExprError(ValueError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} at byte {offset}")
        self.name = name
        self.offset = offset


class ExprDomainError(ExprError):
    """Evaluation hit a domain restriction (ln of non-positive, x/0, ...)."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"domain error at byte {offset}: {message}")
        self.offset = offset


class Node:
    """AST node.  Nodes of one type are equal, and hash alike, when their
    ``_fields`` (the positional arguments of the constructor) are; the
    keyword ``pos``, the source byte offset, is ignored by equality, and
    so is ``_fixpoint``, true once ``simplify`` has found that no rule
    fires anywhere in the node (from the start for a leaf)."""

    __slots__ = ("pos", "_fixpoint")
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = [f"{name}={getattr(self, name)!r}"
                for name in (*self._fields, "pos")]
        return f"{type(self).__name__}({', '.join(args)})"


class Const(Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: float = 0.0, *, pos: int = 0):
        self.value, self.pos, self._fixpoint = value, pos, True


class Var(Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str = "", *, pos: int = 0):
        self.name, self.pos, self._fixpoint = name, pos, True


class Neg(Node):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Node, *, pos: int = 0):
        self.arg, self.pos, self._fixpoint = arg, pos, False


class _Binary(Node):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Node, right: Node, *, pos: int = 0):
        self.left, self.right, self.pos = left, right, pos
        self._fixpoint = False


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Node):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: Node, exponent: Node, *, pos: int = 0):
        self.base, self.exponent, self.pos = base, exponent, pos
        self._fixpoint = False


class Call(Node):
    __slots__ = _fields = ("func", "arg")

    def __init__(self, func: str, arg: Node, *, pos: int = 0):
        self.func, self.arg, self.pos = func, arg, pos
        self._fixpoint = False



class _Parser:
    def __init__(self, source: str, names: Sequence[str]):
        self.src = source
        self.names = set(names)
        self.i = 0

    def _skip_ws(self):
        while self.i < len(self.src) and self.src[self.i].isspace():
            self.i += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.src[self.i] if self.i < len(self.src) else ""

    def _take(self, ch: str):
        if self._peek() != ch:
            raise ExprSyntaxError(f"expected {ch!r}", self.i)
        self.i += 1

    def parse(self) -> Node:
        node = self._expr()
        self._skip_ws()
        if self.i != len(self.src):
            raise ExprSyntaxError(f"unexpected {self.src[self.i]!r}", self.i)
        return node

    def _expr(self) -> Node:
        node = self._term()
        while True:
            ch = self._peek()
            if ch == "+":
                pos = self.i
                self.i += 1
                node = Add(node, self._term(), pos=pos)
            elif ch == "-":
                pos = self.i
                self.i += 1
                node = Sub(node, self._term(), pos=pos)
            else:
                return node

    def _term(self) -> Node:
        node = self._factor()
        while True:
            ch = self._peek()
            if ch == "*":
                pos = self.i
                self.i += 1
                node = Mul(node, self._factor(), pos=pos)
            elif ch == "/":
                pos = self.i
                self.i += 1
                node = Div(node, self._factor(), pos=pos)
            else:
                return node

    def _factor(self) -> Node:
        if self._peek() == "-":
            pos = self.i
            self.i += 1
            arg = self._factor()
            # a negated literal is a constant of its own
            if isinstance(arg, Const):
                return Const(-arg.value, pos=pos)
            return Neg(arg, pos=pos)
        return self._power()

    def _power(self) -> Node:
        base = self._atom()
        if self._peek() != "^":
            return base
        pos = self.i
        self.i += 1
        exponent = self._factor()
        folded = simplify(exponent)
        base_folds = isinstance(simplify(base), Const)
        if not isinstance(folded, Const) and not base_folds:
            raise ExprSyntaxError("non-constant exponent", pos)
        if isinstance(folded, Const):
            exponent = Const(folded.value, pos=exponent.pos)
        return Pow(base, exponent, pos=pos)

    def _atom(self) -> Node:
        self._skip_ws()
        if self.i >= len(self.src):
            raise ExprSyntaxError("unexpected end of input", self.i)
        ch = self.src[self.i]
        if ch == "(":
            self.i += 1
            node = self._expr()
            self._take(")")
            return node
        m = _NUMBER_RE.match(self.src, self.i)
        if m:
            pos = self.i
            self.i = m.end()
            return Const(float(m.group(0)), pos=pos)
        m = _IDENT_RE.match(self.src, self.i)
        if m:
            pos = self.i
            name = m.group(0)
            self.i = m.end()
            if name in FUNCTIONS and self._peek() == "(":
                self.i += 1
                arg = self._expr()
                self._take(")")
                return Call(name, arg, pos=pos)
            if name not in self.names:
                raise UnknownIdentifierError(name, pos)
            return Var(name, pos=pos)
        raise ExprSyntaxError(f"unexpected {ch!r}", self.i)


def parse(source: str, names: Iterable[str]) -> Node:
    """Parse ``source`` against the declared variable names."""
    names = list(names)
    if len(set(names)) != len(names):
        raise ValueError("variable names must be pairwise distinct")
    if not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(source, names).parse()


_UNARY_MATH: Mapping[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}


def evaluate(node: Node, bindings: Mapping[str, float]) -> float:
    """Evaluate to an IEEE double.  Domain errors carry the node offset."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return float(bindings[node.name])
        except KeyError:
            raise UnknownIdentifierError(node.name, node.pos) from None
    if isinstance(node, Neg):
        return -evaluate(node.arg, bindings)
    if isinstance(node, Add):
        return evaluate(node.left, bindings) + evaluate(node.right, bindings)
    if isinstance(node, Sub):
        return evaluate(node.left, bindings) - evaluate(node.right, bindings)
    if isinstance(node, Mul):
        return evaluate(node.left, bindings) * evaluate(node.right, bindings)
    if isinstance(node, Div):
        denom = evaluate(node.right, bindings)
        if denom == 0.0:
            raise ExprDomainError("division by zero", node.pos)
        return evaluate(node.left, bindings) / denom
    if isinstance(node, Pow):
        base = evaluate(node.base, bindings)
        expo = evaluate(node.exponent, bindings)
        try:
            return math.pow(base, expo)
        except (ValueError, OverflowError) as exc:
            raise ExprDomainError(f"pow: {exc}", node.pos) from None
    if isinstance(node, Call):
        arg = evaluate(node.arg, bindings)
        if node.func == "ln" and arg <= 0.0:
            raise ExprDomainError("ln of non-positive value", node.pos)
        if node.func == "sqrt" and arg < 0.0:
            raise ExprDomainError("sqrt of negative value", node.pos)
        try:
            return _UNARY_MATH[node.func](arg)
        except (ValueError, OverflowError) as exc:
            raise ExprDomainError(f"{node.func}: {exc}", node.pos) from None
    raise TypeError(f"not an expression node: {node!r}")


def _children(node: Node) -> tuple:
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, (Add, Sub, Mul, Div)):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base, node.exponent)
    return ()


def variables(node: Node) -> set[str]:
    """Names of all variables occurring in the expression."""
    out: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.add(cur.name)
        stack.extend(_children(cur))
    return out


class NonDifferentiableError(ExprError):
    pass


def differentiate(node: Node, var: str) -> Node:
    """Exact symbolic partial derivative, returned in simplified form."""
    return simplify(_diff(node, var))


def _diff(node: Node, var: str) -> Node:
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.arg, var))
    if isinstance(node, Add):
        return Add(_diff(node.left, var), _diff(node.right, var))
    if isinstance(node, Sub):
        return Sub(_diff(node.left, var), _diff(node.right, var))
    if isinstance(node, Mul):
        return Add(
            Mul(_diff(node.left, var), node.right),
            Mul(node.left, _diff(node.right, var)),
        )
    if isinstance(node, Div):
        return Div(
            Sub(
                Mul(_diff(node.left, var), node.right),
                Mul(node.left, _diff(node.right, var)),
            ),
            Pow(node.right, Const(2.0)),
        )
    if isinstance(node, Pow):
        expo = simplify(node.exponent)
        if isinstance(expo, Const):
            c = expo.value
            return Mul(
                Mul(Const(c), Pow(node.base, Const(c - 1.0))),
                _diff(node.base, var),
            )
        base = simplify(node.base)
        if isinstance(base, Const):
            return Mul(
                Mul(node, Call("ln", base)),
                _diff(node.exponent, var),
            )
        raise NonDifferentiableError(
            "power with non-constant base and exponent")
    if isinstance(node, Call):
        u = node.arg
        du = _diff(u, var)
        if node.func == "sin":
            return Mul(Call("cos", u), du)
        if node.func == "cos":
            return Neg(Mul(Call("sin", u), du))
        if node.func == "tan":
            return Div(du, Pow(Call("cos", u), Const(2.0)))
        if node.func == "exp":
            return Mul(Call("exp", u), du)
        if node.func == "ln":
            return Div(du, u)
        if node.func == "sqrt":
            return Div(du, Mul(Const(2.0), Call("sqrt", u)))
        if node.func == "abs":
            # d|u| = u/|u| * du; the u=0 case surfaces as a division-by-zero
            # domain error at evaluation time.
            return Mul(Div(u, Call("abs", u)), du)
    raise TypeError(f"not an expression node: {node!r}")


def _is_const(node: Node, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


def simplify(node: Node) -> Node:
    """Constant folding plus x+0, x*1, x*0, 0/x, x^1 rewrites, to
    fixpoint.

    Every rewrite makes the tree smaller, so a pass that returns its
    input object (no rule fired anywhere in it) is the fixpoint.  Each
    subtree a pass returns unchanged is marked, and no pass walks a
    marked subtree again.
    """
    while True:
        new = _simplify_once(node)
        if new is node:
            return new
        node = new


def _simplify_once(node: Node) -> Node:
    """One bottom-up pass; the node itself, marked, when no rule fires in
    it."""
    if node._fixpoint:
        return node
    new = _rewrite(node)
    if new is node:
        node._fixpoint = True
    return new


def _rewrite(node: Node) -> Node:
    """_simplify_once on a node not yet marked."""
    if isinstance(node, Neg):
        arg = _simplify_once(node.arg)
        if isinstance(arg, Const):
            return Const(-arg.value)
        if isinstance(arg, Neg):
            return arg.arg
        return node if arg is node.arg else Neg(arg, pos=node.pos)
    if isinstance(node, Call):
        arg = _simplify_once(node.arg)
        if isinstance(arg, Const):
            try:
                return Const(evaluate(Call(node.func, arg), {}))
            except ExprDomainError:
                pass
        return node if arg is node.arg else Call(node.func, arg,
                                                 pos=node.pos)
    if isinstance(node, Pow):
        base = _simplify_once(node.base)
        expo = _simplify_once(node.exponent)
        if _is_const(expo, 1.0):
            return base
        if _is_const(expo, 0.0):
            return Const(1.0)
        if isinstance(base, Const) and isinstance(expo, Const):
            try:
                return Const(evaluate(Pow(base, expo), {}))
            except ExprDomainError:
                pass
        return (node if base is node.base and expo is node.exponent
                else Pow(base, expo, pos=node.pos))

    left = _simplify_once(node.left)
    right = _simplify_once(node.right)
    if isinstance(node, Add):
        if _is_const(left, 0.0):
            return right
        if _is_const(right, 0.0):
            return left
    elif isinstance(node, Sub):
        if _is_const(right, 0.0):
            return left
        if _is_const(left, 0.0):
            return Neg(right)
    elif isinstance(node, Mul):
        if _is_const(left, 0.0) or _is_const(right, 0.0):
            return Const(0.0)
        if _is_const(left, 1.0):
            return right
        if _is_const(right, 1.0):
            return left
    elif isinstance(node, Div):
        if _is_const(left, 0.0):
            return Const(0.0)
        if _is_const(right, 1.0):
            return left
    rebuilt = (node if left is node.left and right is node.right
               else type(node)(left, right, pos=node.pos))
    if isinstance(left, Const) and isinstance(right, Const):
        try:
            return Const(evaluate(rebuilt, {}))
        except ExprDomainError:
            pass
    return rebuilt


def commutative_key(node: Node) -> tuple:
    """A key of the expression that ignores the order of the operands
    within each chain of ``+`` and each chain of ``*``.

    ``a*b*c`` and ``c*(a*b)`` get the same key, and so do ``a + b`` and
    ``b + a``; everything else is compared structurally, with constants
    keyed by repr (so 0.0 and -0.0 differ).  Nothing is rewritten: equal
    keys say the two expressions are equal as real functions, while
    different keys say nothing.
    """
    if isinstance(node, Const):
        return ("Const", repr(node.value))
    if isinstance(node, Var):
        return ("Var", node.name)
    if isinstance(node, Call):
        return ("Call", node.func, commutative_key(node.arg))
    if isinstance(node, (Add, Mul)):
        operands, stack = [], [node]
        while stack:
            cur = stack.pop()
            if type(cur) is type(node):
                stack.extend((cur.left, cur.right))
            else:
                operands.append(commutative_key(cur))
        return (type(node).__name__, tuple(sorted(operands)))
    return (type(node).__name__,) + tuple(
        commutative_key(child) for child in _children(node))


_NUMPY_FUNCS = {
    "sin": "np.sin",
    "cos": "np.cos",
    "tan": "np.tan",
    "exp": "np.exp",
    "ln": "np.log",
    "sqrt": "np.sqrt",
    "abs": "np.abs",
}


# np.broadcast's argument limit under numpy 1.x (numpy 2 allows 64)
_MAX_BROADCAST_ARGS = 32


def compile_fn(nodes: Sequence[Node], names: Sequence[str]) -> Callable:
    """Compile to a vectorized callable over positional array arguments.

    The fast path for integration: no domain checking, IEEE semantics
    (divisions by zero become inf/nan and are caught by the integrator's
    non-finite abort).  ``evaluate`` stays the checked reference.

    Given K nodes, the callable returns one array of shape ``(K,) +
    batch``, entry first, ``out[k]`` the value of node k, where ``batch``
    is the broadcast shape of the arguments: each entry is one contiguous
    row store.  Passed as the keyword ``_out``, an array of that shape,
    contiguous or not (the transpose of a caller's rows, say), is filled
    and returned instead.  A subexpression that occurs more than once,
    within one node or across nodes, is computed once into a temporary.

    The cost of a call grows with the entries that vary, not with all of
    them: the constant entries (``Const`` roots, -0.0 kept apart from
    0.0) are one column computed at compile time and broadcast into the
    output in one store, and only the varying entries are stored one by
    one.  The batch shape is ``np.broadcast(...).shape``, which numpy 1.x
    allows for at most 32 arguments, so a callable takes at most 32
    names.
    """
    roots = list(nodes)
    program = _Program(roots)
    declared = set(names)
    # each merged node once; the roots are searched only for the error
    if any(isinstance(node, Var) and node.name not in declared
           for node in program.nodes):
        for root in roots:
            undeclared = variables(root) - declared
            if undeclared:
                raise UnknownIdentifierError(sorted(undeclared)[0], root.pos)
    if len(names) > _MAX_BROADCAST_ARGS:
        raise ValueError(f"a compiled callable takes at most "
                         f"{_MAX_BROADCAST_ARGS} argument names, got "
                         f"{len(names)}")
    texts = [program.emit(uid) for uid in program.roots]
    lines = [f"def _compiled({', '.join([*names, '_out=None'])}):",
             *program.lines,
             "    if _out is None:",
             f"        _out = np.empty(({len(roots)},)"
             f" + np.broadcast({', '.join(names)}).shape)"]
    scope: dict = {"np": np}
    if any(isinstance(root, Const) for root in roots):
        scope["_row0"] = np.array([root.value if isinstance(root, Const)
                                   else 0.0 for root in roots])
        lines.append("    _out.T[...] = _row0")
    lines += [f"    _out[{k}] = {text}"
              for k, (root, text) in enumerate(zip(roots, texts))
              if not isinstance(root, Const)]
    lines.append("    return _out")
    exec("\n".join(lines) + "\n", scope)
    return scope["_compiled"]


class _Program:
    """Expression DAG with structurally equal subtrees merged.

    A node's key is its type, its payload and the ids of its children, so
    interning is linear in the tree size; constants are keyed by repr so
    that 0.0 and -0.0 stay apart.  ``uses`` counts the distinct parents
    (and roots) of each merged node; a non-leaf with more than one becomes
    a temporary when emitted.
    """

    def __init__(self, roots: Sequence[Node]):
        self.nodes: list[Node] = []
        self.kids: list[tuple] = []
        self.uses: list[int] = []
        self._ids: dict = {}
        self._seen: dict[int, int] = {}
        self.roots = [self._intern(root) for root in roots]
        for uid in self.roots:
            self.uses[uid] += 1
        self.lines: list[str] = []
        self._temps: dict[int, str] = {}

    def _intern(self, node: Node) -> int:
        uid = self._seen.get(id(node))
        if uid is not None:
            return uid
        kids = tuple(self._intern(child) for child in _children(node))
        if isinstance(node, Const):
            key = (Const, repr(node.value))
        elif isinstance(node, Var):
            key = (Var, node.name)
        elif isinstance(node, Call):
            key = (Call, node.func, kids)
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

    def emit(self, uid: int) -> str:
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


_BINARY_OPS = {Add: " + ", Sub: " - ", Mul: "*", Div: "/", Pow: "**"}


def _format(node: Node, args: list[str]) -> str:
    if isinstance(node, Const):
        text = repr(node.value)
        if not math.isfinite(node.value):
            # inf and nan are no names in the generated scope; np's are
            text = text.replace("inf", "np.inf").replace("nan", "np.nan")
        # parenthesized so that e.g. (-2)**2 keeps pow from capturing the sign
        return f"({text})" if node.value < 0 else text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{args[0]})"
    if isinstance(node, Call):
        return f"{_NUMPY_FUNCS[node.func]}({args[0]})"
    op = _BINARY_OPS.get(type(node))
    if op is None:
        raise TypeError(f"not an expression node: {node!r}")
    return f"({args[0]}{op}{args[1]})"
