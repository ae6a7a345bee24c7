"""The README's library examples run and print what they say they print.

Every code block of the "Library" section runs, in order, in one
namespace, as a reader would paste them one after the other.
"""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]   # the last section
    return re.findall(r"```(?:python)?\n(.*?)```", section, re.S)


def test_readme_library_example_runs():
    blocks = _library_blocks()
    out, scope = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), scope)
    assert out.getvalue().splitlines()[0] == "weak-normal"
    # the unique-entry rows example: |(0, 2)| at x1 = 1 on the sphere
    assert "g_norm_rows" in blocks[-1]
    assert scope["speed"].shape == (1,)
    assert math.isclose(scope["speed"][0], 2.0 * math.sin(1.0),
                        rel_tol=1e-15)
