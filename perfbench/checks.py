"""Output checks for every command the benchmark issues.

A command passes when it exits 0, its parsed output equals the value pinned
from the seed (integers, strings and digests exactly, floats within TOL) and
it satisfies the closed forms of the acceptance suite, computed here without
the program's help. `observe` turns one command's output into plain data,
`check` lists what is wrong with it; `pin.py` stores `observe`'s results.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

from workloads import Command, odd_prime_power

TOL = 1e-6
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
_SKIP_RE = re.compile(r"warning: skipping q=(\d+)")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as stream:
        return json.load(stream)


def _digest(path: str) -> str:
    with open(path, "rb") as stream:
        return hashlib.sha256(stream.read()).hexdigest()


def observe(cmd: Command, rc, stdout: str, stderr: str) -> dict:
    """Parse a command's exit code, streams and output file into plain data."""
    obs = {"rc": rc}
    if rc != 0:
        return obs
    if cmd.kind == "build":
        with open(cmd.out, encoding="ascii") as stream:
            header = next(line for line in stream if line.startswith("p edge "))
        _, _, vertices, edges = header.split()
        obs.update(sha256=_digest(cmd.out), vertices=int(vertices), edges=int(edges))
    elif cmd.kind == "color":
        obs.update(json=json.loads(stdout), sha256=_digest(cmd.out))
    elif cmd.kind == "verify":
        obs["stdout"] = stdout
    elif cmd.kind == "triangles":
        obs["json"] = json.loads(stdout)
    elif cmd.kind == "spectrum":
        obs["json"] = json.loads(stdout)
        if cmd.out:
            with open(cmd.out, encoding="utf-8") as stream:
                obs["multiset"] = [[float(v), int(c)] for v, c in
                                   (line.split() for line in stream)]
    elif cmd.kind == "report":
        obs["records"] = json.loads(stdout)
        obs["skipped"] = [int(q) for q in _SKIP_RE.findall(stderr)]
    return obs


def diff(ref, obs, path: str = "") -> list[str]:
    """Differences between a pinned value and an observed one."""
    if isinstance(ref, float) and isinstance(obs, (int, float)) and not isinstance(obs, bool):
        return [] if abs(ref - obs) <= TOL else [f"{path}: {obs!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(obs, dict):
        out = []
        for key in sorted(set(ref) | set(obs)):
            if key not in obs or key not in ref:
                out.append(f"{path}.{key}: present on one side only")
            else:
                out += diff(ref[key], obs[key], f"{path}.{key}")
        return out
    if isinstance(ref, list) and isinstance(obs, list):
        if len(ref) != len(obs):
            return [f"{path}: length {len(obs)} != {len(ref)}"]
        return [p for i, (r, o) in enumerate(zip(ref, obs)) for p in diff(r, o, f"{path}[{i}]")]
    if type(ref) is not type(obs) or ref != obs:
        return [f"{path}: {obs!r} != {ref!r}"]
    return []


# -- closed forms -----------------------------------------------------------


def degree_formula(q: int) -> int:
    return q - (-1) ** ((q - 1) // 2)


def color_count(q: int, m: int) -> int:
    p, n = odd_prime_power(q)
    return q ** (m - 2) * (p**n + p ** (n - 1)) // 2


def aq_formula(q: int) -> int:
    return (q + (-1) ** ((q - 1) // 2) - 2) // 4


def prime_form(q: int, m: int) -> bool:
    """A prime q with q mod 12 in {5, 7} forces the plane graph triangle-free."""
    return m == 2 and odd_prime_power(q) == (q, 1) and q % 12 in (5, 7)


def _close(a, b) -> bool:
    return a is not None and b is not None and abs(a - b) <= TOL


def _closed_forms(cmd: Command, obs: dict) -> list[str]:
    q, m = cmd.q, cmd.m
    out = []
    if cmd.kind == "build":
        if obs["vertices"] != q**m:
            out.append(f"{obs['vertices']} vertices, expected {q**m}")
        if m == 2 and 2 * obs["edges"] != q**m * degree_formula(q):
            out.append(f"{obs['edges']} edges disagree with the degree formula")
    elif cmd.kind == "color":
        rec = obs["json"]
        if not rec["k"] == rec["expectedK"] == color_count(q, m) or rec["proper"] is not True:
            out.append(f"coloring k={rec['k']} proper={rec['proper']}, expected"
                       f" a proper {color_count(q, m)}-coloring")
    elif cmd.kind == "verify":
        expected = f"proper: {color_count(q, m)} colors on {q**m} vertices\n"
        if obs["stdout"] != expected:
            out.append(f"verify printed {obs['stdout']!r}")
    elif cmd.kind == "triangles":
        if prime_form(q, m) and (obs["json"]["triangles"] != 0
                                 or obs["json"]["predictedTriangleFree"] is not True):
            out.append("prime-form q is not reported triangle-free")
    elif cmd.kind == "spectrum":
        records = obs["json"]["spectra"]
        if m == 2 and not all(_close(r["lambda1"], degree_formula(q)) for r in records):
            out.append("lambda1 differs from the degree formula")
        for key in ("lambda1", "lambdaMin", "maxNonprincipalAbs", "hoffman"):
            if not all(_close(r[key], records[0][key]) for r in records):
                out.append(f"dense and Cayley disagree on {key}")
        if "multiset" in obs and sum(c for _, c in obs["multiset"]) != q**m:
            out.append("spectrum file multiplicities do not sum to N")
    elif cmd.kind == "report":
        out += _report_forms(cmd, obs)
    return out


def _report_forms(cmd: Command, obs: dict) -> list[str]:
    lo, hi = (int(x) for x in cmd.argv[cmd.argv.index("--q") + 1].split(".."))
    wanted = [q for q in range(lo, hi + 1) if odd_prime_power(q)]
    out = []
    if [r["q"] for r in obs["records"]] != wanted:
        out.append("report covers the wrong q")
    if obs["skipped"] != [q for q in range(lo, hi + 1) if not odd_prime_power(q)]:
        out.append("report skipped the wrong q")
    for r in obs["records"]:
        q, m = r["q"], r["m"]
        bad = [name for name, ok in [
            ("degree", m != 2 or r["degree"] == degree_formula(q)),
            ("aqValue", r["aqValue"] == aq_formula(q)),
            ("constructionColors", r["constructionColors"] == color_count(q, m)),
            ("triangles", not prime_form(q, m) or r["triangles"] == 0),
            ("chi bracket", r["chiLower"] <= r["chiUpper"] <= r["constructionColors"]),
            ("checks", False not in r["checks"].values()),
        ] if not ok]
        if bad:
            out.append(f"report q={q}: {', '.join(bad)} wrong")
    return out


def chi_gap(obs: dict) -> int:
    """Sum of chiUpper - chiLower over a report's records."""
    return sum(r["chiUpper"] - r["chiLower"] for r in obs.get("records", []))


def check(cmd: Command, obs: dict, reference: dict) -> list[str]:
    """Everything wrong with one command's observed output."""
    if obs["rc"] != 0:
        return [f"{cmd.key}: exit code {obs['rc']}"]
    problems = _closed_forms(cmd, obs)
    if cmd.key not in reference:
        problems.append("no pinned reference")
    else:
        problems += diff(reference[cmd.key], obs)
    return [f"{cmd.key}: {p}" for p in problems]
