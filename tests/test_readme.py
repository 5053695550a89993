"""The library examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # in order and in one namespace, as a reader pastes them; each block is
    # padded so that a traceback names its line in README.md
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    namespace = {}
    for block in blocks:
        pad = "\n" * text.count("\n", 0, block.start(1))
        exec(compile(pad + block[1], str(README), "exec"), namespace)
