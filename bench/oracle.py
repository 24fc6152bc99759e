"""Correctness checks behind the ``failed`` count.

CLI reports are checked against the answers gen.py derived with exact
rational arithmetic, never against phinmod's own output.  A truncated
p-adic coordinate matches an exact rational when their difference has
3-adic valuation at least the reported precision (less one, for the
pi-power rows of a ramified tower).
"""
from __future__ import annotations

import json
from fractions import Fraction

from gen import vp


def _prec(report_prec) -> float:
    if report_prec == "inf":
        return float("inf")
    return float(Fraction(report_prec))


def element_matches(elem: dict, expected_grid) -> bool:
    """A dumped element ({"c": grid, "prec": ...}) against an exact grid."""
    prec = _prec(elem["prec"])
    if prec < 10:  # working precision 60 leaves far more than this
        return False
    got = [[Fraction(c) for c in row] for row in elem["c"]]
    want = [[Fraction(c) for c in row] for row in expected_grid]
    if len(got) != len(want) or any(len(a) != len(b) for a, b in zip(got, want)):
        return False
    return all(vp(a - b) >= prec - 1 for ra, rb in zip(got, want) for a, b in zip(ra, rb))


def _record_matches(value: dict, record: dict) -> bool:
    return (
        element_matches(value["alpha"], record["alpha"])
        and value["m"] == record["m"]
        and value["k"] == record["k"]
        and len(value["ell"]) == len(record["ell"])
        and all(element_matches(a, b) for a, b in zip(value["ell"], record["ell"]))
        and value["degenerate"] == record["degenerate"]
    )


def _module_matches(value: dict, built: dict) -> bool:
    for key in ("phi", "N"):
        for got, want in zip(value[key], built[key]):
            for grow, wrow in zip(got, want):
                if not all(element_matches(a, b) for a, b in zip(grow, wrow)):
                    return False
    return len(value["phi"]) == len(built["phi"])


def cli_report_ok(entry: dict, line: str, code: int) -> bool:
    """One CLI report line and exit code against the entry's expectation."""
    try:
        report = json.loads(line)
    except ValueError:
        return False
    if report.get("command") != entry["command"] or report.get("error") is not None:
        return False
    expect = entry["expect"]
    if "verdict" in expect:
        return report["verdict"] is expect["verdict"] and code == (0 if expect["verdict"] else 1)
    if code != 0 or report["verdict"] is not None:
        return False
    value = report["value"]
    if "number" in expect:
        return Fraction(value) == Fraction(expect["number"])
    if "value" in expect:
        return element_matches(value, [[expect["value"]]])
    if "record" in expect:
        return _record_matches(value, expect["record"])
    jumps = [[step["jump"] for step in sig] for sig in value["filtration"]]
    if entry["command"] == "build-monodromy":
        m, k = expect["jumps"]
        return jumps == [[a, b] for a, b in zip(m, k)] and _module_matches(value["module"], expect["built"]["module"])
    phi = value["module"]["phi"][0]
    diagonal = [phi[i][i] for i in range(3)]
    return jumps == expect["jumps"] and all(
        element_matches(x, [[q]]) for x, q in zip(diagonal, ("3", "1", "1/3"))
    )


def expected_exit(entries: list[dict]) -> int:
    return max(1 if e["expect"].get("verdict") is False else 0 for e in entries)
