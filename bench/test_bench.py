"""Self-tests of the benchmark's input generator and oracle.

Run from the root of a checkout: ``python -m pytest bench/test_bench.py``.
Nothing here imports phinmod.
"""
from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import oracle  # noqa: E402
from run import WORKLOADS  # noqa: E402


def digest(workload: str, seed: int) -> str:
    return hashlib.sha256(gen.canonical(gen.inputs(workload, seed))).hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert digest(workload, 7) == digest(workload, 7)
    assert digest(workload, 7) != digest(workload, 8)


@pytest.mark.parametrize("seed", range(20))
def test_records_follow_the_gate_laws(seed):
    doc = gen.verdict_inputs(seed, 60, every_kind=True)
    kinds = {}
    for r in doc["records"]:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
        m, k = r["monodromy"]["m"], r["monodromy"]["k"]
        assert all(b > a for a, b in zip(m, k))
        assert r["admissible"] == (r["kind"] != "violating")
        if r["end0"]:
            assert not any(m)
    assert kinds == {kind: 9 for kind in gen.RECORD_KINDS}


def test_transport_by_identity_is_the_built_module():
    rng = gen.random.Random(3)
    r = gen.make_record(rng, "q3ram", (2, 1), "end0", "x")
    rec = gen.record_in(r["monodromy"])
    built = gen.transport("q3ram", (2, 1), rec, [[[1, 0], [0, 1]]])
    alpha = gen.g_out(rec["alpha"])
    assert built["module"]["phi"][0][1][1] == alpha
    assert built["module"]["N"][0][1][0] == gen.g_out(gen.g_scalar("q3ram", 1))


def test_oracle_accepts_truncated_expansions_and_rejects_wrong_values():
    half_mod = Fraction((3**60 + 1) // 2)  # 1/2 modulo 3^60
    entry = {"command": "colmez", "expect": {"value": "1/2"}}
    report = {"command": "colmez", "error": None, "verdict": None,
              "value": {"c": [[str(half_mod)]], "prec": 60}}
    assert oracle.cli_report_ok(entry, json.dumps(report), 0)
    report["value"]["c"] = [[str(half_mod + 3**20)]]
    assert not oracle.cli_report_ok(entry, json.dumps(report), 0)
    assert not oracle.cli_report_ok(entry, json.dumps(dict(report, value={"c": [["1"]], "prec": 60})), 0)
