"""Traced-run completeness check.

Usage (from the root of a checkout):
    python3 bench/check_trace.py [--seed N]

Runs ``run.py --trace 1`` on every workload and exits non-zero unless
  * every run is correct and prints every per-layer metric of BENCHMARK.json,
  * every span in spans.TRACED records at least one call on at least one
    workload.
It also prints the workload claims README.md states, each MET or NOT MET.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spans
from run import BENCH, ROOT, WORKLOADS


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    results = {w: traced(w, args.seed) for w in WORKLOADS}
    problems = []
    for w, r in results.items():
        if not r["correct"]:
            problems.append(f"{w}: {r['failed']} of {r['attempted']} checks failed")
        missing = sorted(set(listed) - set(r["metrics"]))
        if missing:
            problems.append(f"{w}: missing per-layer metrics {missing}")
    for name in spans.TRACED:
        keys = [f"{name}.calls", f"{name}.total_s", f"{name}.self_s", f"{name}_s"]
        if not any(r["metrics"].get(k, {}).get("value", 0) > 0 for r in results.values() for k in keys):
            problems.append(f"span {name} recorded no call on any workload")

    def value(w: str, name: str) -> float:
        return results[w]["metrics"][name]["value"]

    claims = [
        (
            "padic valuation + make_element self share higher at precision 2000 than 60",
            value("verdicts-p2000", "padic.valuation_make_element.self_share")
            > value("verdicts-p60", "padic.valuation_make_element.self_share"),
        ),
        (
            "interpreter start, import and certification are over half a cold spawn on cli",
            value("cli", "cli.startup_share") > 0.5,
        ),
        ("cli.compute_share < 0.1 on cli", value("cli", "cli.compute_share") < 0.1),
    ]
    for text, ok in claims:
        print(f"{'MET' if ok else 'NOT MET'}: {text}")
    for p in problems:
        print(f"FAIL: {p}")
    print("trace check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
