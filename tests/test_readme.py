"""The first Python block of README.md, the quickstart, runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs_and_prints_the_shapes_it_states():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    stated = [line.split("#")[1].strip() for line in block.splitlines() if "print(" in line]
    assert out.getvalue().splitlines() == stated
