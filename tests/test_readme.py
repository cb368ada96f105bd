"""The README's library example runs and prints the value its comment documents."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_the_documented_value():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    (documented,) = re.findall(r"^print\(report\..*  # (.+)$", block, re.M)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    assert printed.getvalue().splitlines()[-1] == documented
