"""No function of the package takes a parameter that its body never reads.

A parameter that is only passed along, or not used at all, is API that
callers must keep filling in for nothing; such parameters have piled up
more than once as the code beneath them changed.  A parameter counts as
read when its name is loaded anywhere in the function's body, nested
functions included; defaults, annotations and decorators do not count.
A method's receiver (``self``, ``cls``) counts as a parameter too: a
method that never reads it is a function hung on a class, which callers
must reach through an instance for nothing.  Static methods have no
receiver.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "frontshift"

# perfbench/sweep.py, part of the benchmark, passes the manifold to
# extended_gradients positionally (the manifold is force.manifold), so
# dropping it has to wait for a change to the benchmark itself.
ALLOWED = ["geometry.extended_gradients.man"]


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node, parameters) of every def in tree, nested
    ones and methods too; a method's receiver is one of its
    parameters."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            yield prefix + node.name, node, params
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def unread_parameters(src: Path) -> list[str]:
    """module.function.parameter for each parameter never loaded."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, fn, params in _functions(tree):
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            found += [f"{path.stem}.{name}.{p}" for p in params
                      if p not in read]
    return sorted(found)


def test_every_parameter_is_read():
    assert unread_parameters(SRC) == ALLOWED


def test_guard_sees_an_unread_parameter(tmp_path):
    (tmp_path / "a.py").write_text(
        "def passes_on(man, x, scale=2):\n"
        "    return helper(x)\n\n"
        "def nested(a, b):\n"
        "    def inner(c):\n"
        "        return a + 1\n"
        "    return inner\n\n"
        "class K:\n"
        "    def method(self, *args, **opts):\n"
        "        return self.f(*args)\n\n"
        "    def receiver_unread(self, x):\n"
        "        return x\n\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return cls()\n\n"
        "    @staticmethod\n"
        "    def static(x, y):\n"
        "        return y\n")
    assert unread_parameters(tmp_path) == [
        "a.K.method.opts", "a.K.receiver_unread.self", "a.K.static.x",
        "a.nested.b", "a.nested.inner.c", "a.passes_on.man",
        "a.passes_on.scale"]
