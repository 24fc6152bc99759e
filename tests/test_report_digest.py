"""Report bytes of every benchmark input, pinned by one digest.

bench/gen.py generates the documents the benchmark feeds the CLI.  Running
``cli.execute`` on each entry of both gated workloads, for two seeds, and
hashing the canonical reports with their exit codes pins the answer bytes
of every command: a change meant to be a pure speed-up must leave the
digest as it is.
"""
import hashlib

from phinmod.cli import Options, execute, render
from util import bench_gen

WORKLOADS = ("verdicts-p60", "cli")
SEEDS = (5, 9)
REPORTS = 54
DIGEST = "8a3515c26a4ef988f103b579383866035f2e6b3e3c32a83a721aa4b77343923a"


def test_generated_reports_are_pinned():
    gen = bench_gen()
    h = hashlib.sha256()
    count = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            for entry in gen.inputs(workload, seed)["entries"]:
                report, code = execute(entry["command"], gen.canonical(entry["doc"]).decode(), Options())
                h.update(f"{code} {render(report, 'json')}\n".encode())
                count += 1
    assert count == REPORTS
    assert h.hexdigest() == DIGEST
