"""The chi ledger is the only copy of each pinned chi record: its rows are
well formed, perfbench's pinned reports agree with them, and no other test
file or CI step writes a record of its own."""

import json
import re
from pathlib import Path

from chi_ledger import LEDGER, ROWS
from conftest import odd_prime_powers

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ["q", "m", "node_limit", "status", "lower", "upper", "nodes", "sha256", "ci_only", "why"]


def test_rows_are_keyed_once_and_well_formed():
    assert len(LEDGER) == len(ROWS)
    for row in ROWS:
        assert list(row) == FIELDS, row
        assert 3 <= row["lower"] <= row["upper"], row
        assert row["status"] == ("exact" if row["lower"] == row["upper"] else "bounded"), row
        assert row["nodes"] is None or row["nodes"] <= row["node_limit"], row
        assert row["sha256"] is None or re.fullmatch("[0-9a-f]{64}", row["sha256"]), row


def test_perfbench_reference_reports_match_the_ledger():
    """perfbench pins report-sweep's outputs with its own script; their chi
    fields must be the ledger's rows at the report's node budget."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    reports = sorted(key for key in reference if key.startswith("report "))
    assert reports == ["report q=5..31 nodes=20000", "report q=5..9 nodes=20000"]
    for key in reports:
        node_limit = int(key.rpartition("nodes=")[2])
        for record in reference[key]["records"]:
            row = LEDGER[record["q"], record["m"], node_limit]
            got = (record["chiStatus"], record["chiLower"], record["chiUpper"])
            assert got == (row["status"], row["lower"], row["upper"]), (key, record["q"])


def test_no_chi_record_is_written_outside_the_ledger():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    # chi.nodes and chi_gap of a traced report-sweep run: its pass, q = 5..31, and its smoke
    # pass, q = 5..9, at 20 000 nodes
    sweep = [LEDGER[q, 2, 20000] for lo, hi in ((5, 31), (5, 9)) for q in odd_prime_powers(lo, hi)]
    nodes, gap = sum(row["nodes"] for row in sweep), sum(row["upper"] - row["lower"] for row in sweep)
    for literal in ('"status": "exact"', '"status": "bounded"', str(nodes), f'"chi_gap": {gap}'):
        assert literal not in workflow, literal
    digests = {row["sha256"] for row in ROWS} - {None}
    assert digests
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path.name != "chi_ledger.py":
            text = path.read_text(encoding="utf-8")
            assert not [d for d in digests if d in text], path.name
