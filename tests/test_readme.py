"""The README's library quick tour runs as written, and its chi examples
state the chi ledger's records."""

import re
from pathlib import Path

from chi_ledger import LEDGER
from uqgraph.chi import DEFAULT_NODE_LIMIT

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


def test_chi_examples_match_the_ledger():
    """The CLI section's `chi --q 7` and `chi --q 13` lines state the chi
    ledger's records at the default budget."""
    text = README.read_text(encoding="utf-8")
    seven = re.search(r'^uqgraph chi --q 7 +# \{"status": "(\w+)", "lower": (\d+), "upper": (\d+), ',
                      text, re.MULTILINE)
    thirteen = re.search(r"^uqgraph chi --q 13 +# (\w+) \[(\d+), (\d+)\] at the default ([\d ]+) nodes",
                         text, re.MULTILINE)
    assert seven is not None and thirteen is not None
    assert int(thirteen.group(4).replace(" ", "")) == DEFAULT_NODE_LIMIT
    for q, found in ((7, seven), (13, thirteen)):
        row = LEDGER[q, 2, DEFAULT_NODE_LIMIT]
        assert (found[1], int(found[2]), int(found[3])) == (row["status"], row["lower"], row["upper"])
