"""The chi ledger: every pinned chi record, written once, in chi_ledger.json.

A row is keyed by (q, m, node_limit) and holds the record `exact_chromatic`
returns on D_q^m at that node budget: status, lower, upper and nodes (null
where no check pins them), and sha256, the digest of the witness colors'
int64 bytes (null where none is pinned). A row at chi's default budget is
the record of a call that gives no budget. `ci_only` marks rows too slow for
tier-1; CI runs every row through `uqgraph chi --json`. `why` says what the
row guards. A re-pin is a reviewed diff of chi_ledger.json: no script
writes it.
"""

import json
from pathlib import Path

ROWS = json.loads(Path(__file__).with_name("chi_ledger.json").read_text(encoding="utf-8"))
LEDGER = {(row["q"], row["m"], row["node_limit"]): row for row in ROWS}


def record(q, m, node_limit):
    """The row as `uqgraph chi --json` prints it, less millis."""
    row = LEDGER[q, m, node_limit]
    return {name: row[name] for name in ("q", "m", "status", "lower", "upper", "nodes")}
