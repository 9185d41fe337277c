"""The README's Python examples run as written."""

import re

from conftest import REPO

_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def test_every_python_block_of_the_readme_runs():
    blocks = _PYTHON_BLOCK.findall((REPO / "README.md").read_text(encoding="utf-8"))
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
