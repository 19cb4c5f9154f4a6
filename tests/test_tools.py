"""The repository's tools, run as their users run them."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment after code counts


# a comment line does not
def f(a, b):
    """A function docstring."""
    text = """a string that is not a docstring
spans two code lines"""
    return os.path.join(
        a,
        b,
        text,
    )
'''


def test_code_lines_counts_code_only(tmp_path):
    # import, def, the two lines of the string and the five of the call: 9
    module = tmp_path / "snippet.py"
    module.write_text(SNIPPET, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(TOOLS / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == f"     9  {module}\n     9  total\n"


def test_pass_time_prints_every_item_and_the_pinned_digest(tmp_path):
    # one pass of symbolic-deep at seed 1 in one process of this tree
    root = TOOLS.parent
    out = subprocess.run(
        [sys.executable, str(TOOLS / "pass_time.py"), "--passes", "1", "--procs", "1", str(root)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    lines = out.splitlines()
    rows = [line.split() for line in lines if not line.startswith(("#", "item", "digest"))]
    assert [row[0] for row in rows][-1] == "pass" and len(rows) == 17
    assert all(len(row) == 2 and float(row[1]) > 0 for row in rows)
    expected = json.loads((root / "bench" / "expected.json").read_text(encoding="utf-8"))
    assert lines[-1] == f"digest tree 0: {expected['symbolic-deep']}"
