"""The repository's tools, run as their users run them."""

from __future__ import annotations

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
