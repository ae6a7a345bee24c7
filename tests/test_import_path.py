"""No module of the package imports dataclasses.

Creating a ``@dataclass`` class runs its generated methods through
``exec`` when the module is imported: about 1 ms of command-line
start-up per class on Python <= 3.12, paid by every command before it
does any work.  The package's records are ``typing.NamedTuple`` classes
(``_fields``, ``_replace``, ``_asdict``); ``FrontTable`` and the
expression nodes are plain slotted classes.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "frontshift"
MODULES = sorted(path.name for path in SRC.glob("*.py"))


def _dataclass_imports(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", MODULES)
def test_no_dataclasses_on_the_import_path(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert _dataclass_imports(tree) == [], f"dataclasses in {module}"


def test_guard_sees_a_dataclasses_import():
    tree = ast.parse("import os\n"
                     "import dataclasses\n"
                     "from dataclasses import dataclass, field\n"
                     "def f():\n"
                     "    from dataclasses import replace\n")
    assert sorted(_dataclass_imports(tree)) == [2, 3, 5]
