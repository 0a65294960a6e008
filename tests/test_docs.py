"""The code blocks of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = {}
    exec(compile(block, str(README), "exec"), env)
    assert env["scale"] > 0 and 0.0 < env["power"] < 1.0
