"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL)
    assert block is not None
    namespace = {}
    exec(compile(block.group(1), f"{README}:quick tour", "exec"), namespace)
    assert namespace["result"].upper == 4  # the block's own comments say so
    assert namespace["coloring"].k == 4
