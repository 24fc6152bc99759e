"""The operations the benchmark times, on inputs from gen.py.

In-process verdict ops call phinmod's public API through the package
attributes at call time, so the wrappers spans.py installs are seen.  CLI
ops spawn ``python -m phinmod.cli`` with ``PYTHONPATH=<checkout>/src``,
the interpreter itself rather than a shell shim or console script.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import phinmod
from phinmod import serial
from phinmod.errors import ConstraintViolation

import oracle

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
SPAWN_TIMEOUT_S = 150

VERDICT_KINDS = ("admissible", "extract", "iso", "end0")


# ---------------------------------------------------------------------------
# in-process verdicts


class Item:
    """One generated record, parsed and built, with its transported twin."""

    def __init__(self, spec: dict, fields: dict):
        desc = serial.parse_field(fields[spec["tower"]])
        shape = serial.parse_shape(spec["shape"])
        self.spec = spec
        self.record = serial.parse_monodromy(desc, shape, spec["monodromy"], "/monodromy")
        builder = phinmod.build_degenerate if self.record.degenerate else phinmod.build_monodromy
        self.module, self.fil = builder(self.record, check=False)
        moved = spec["moved"]
        self.moved = serial.parse_module(desc, shape, moved["module"], "/module")
        self.moved_fil = serial.parse_filtration(desc, shape, 2, moved["filtration"], "/filtration")

    def law_holds(self) -> bool:
        """check_constraints agrees with the gate law the generator used."""
        try:
            phinmod.check_constraints(self.record)
        except ConstraintViolation:
            return not self.spec["admissible"]
        return self.spec["admissible"]


def op_admissible(it: Item) -> bool:
    return phinmod.is_admissible(it.module, it.fil).admissible == it.spec["admissible"]


def op_extract(it: Item) -> bool:
    return phinmod.extract_invariants(it.moved, it.moved_fil) == it.record


def op_iso(it: Item) -> bool:
    return phinmod.is_isomorphic(it.module, it.fil, it.moved, it.moved_fil).isomorphic is True


def op_end0(it: Item) -> bool:
    return phinmod.end0_check(it.record).ok is True


OPS = {"admissible": op_admissible, "extract": op_extract, "iso": op_iso, "end0": op_end0}


def load(doc: dict) -> list[Item]:
    return [Item(spec, doc["fields"]) for spec in doc["records"]]


def op_list(items: list[Item]) -> list[tuple[str, int]]:
    ops = []
    for i, it in enumerate(items):
        ops += [("admissible", i), ("extract", i), ("iso", i)]
        if it.spec["end0"]:
            ops.append(("end0", i))
    return ops


def warm_up(items: list[Item]) -> None:
    """One untimed op of every kind, on the first record that has it."""
    for kind in VERDICT_KINDS:
        i = next(i for k, i in op_list(items) if k == kind)
        OPS[kind](items[i])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed: {what}", file=sys.stderr)


def timed_op(kind: str, it: Item, tally: Tally) -> float:
    start = time.perf_counter()
    try:
        ok = OPS[kind](it)
    except Exception as exc:  # any exception is a failed attempt, not a crash
        ok = False
        print(f"{kind} {it.spec['id']}: {type(exc).__name__}: {exc}", file=sys.stderr)
    elapsed = time.perf_counter() - start
    tally.add(ok, f"{kind} {it.spec['id']}")
    return elapsed


# ---------------------------------------------------------------------------
# CLI spawns


class Samples:
    """Latencies keyed by input (an op on one record, or one CLI entry)."""

    def __init__(self):
        self.kind: dict = {}
        self.times: dict = {}

    def add(self, key, kind: str, seconds: float) -> None:
        self.kind[key] = kind
        self.times.setdefault(key, []).append(seconds)

    def all(self) -> list[float]:
        return [t for ts in self.times.values() for t in ts]

    def means(self, kind: str | None = None) -> list[float]:
        return [sum(ts) / len(ts) for key, ts in self.times.items() if kind in (None, self.kind[key])]


def write_entries(entries: list[dict], work: Path) -> Path:
    """Instance files plus a manifest in manifest order; returns the manifest."""
    work.mkdir(parents=True, exist_ok=True)
    names = []
    for i, entry in enumerate(entries):
        name = f"e{i:03d}.json"
        (work / name).write_text(json.dumps(entry["doc"], sort_keys=True), "utf-8")
        entry["path"] = str(work / name)
        names.append({"command": entry["command"], "instance": name})
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({"entries": names}), "utf-8")
    return manifest


def spawn(args: list[str]) -> tuple[float, int, str]:
    """Run one child to completion; wall seconds from exec to exit."""
    start = time.perf_counter()
    proc = subprocess.run(args, env=ENV, capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def cli_args(rest: list[str], trace_out: Path | None = None) -> list[str]:
    if trace_out is None:
        return [sys.executable, "-m", "phinmod.cli", *rest]
    return [sys.executable, str(BENCH / "launch.py"), str(trace_out), *rest]


KIND_OF = {"end0-check": "end0"}


class Cli:
    """Cold single-command spawns and batch spawns over one manifest.

    ``cold_step`` spawns the next entry in manifest order, ``batch_step``
    the next batch run, with ``--jobs`` in the order 2, 1, 2, 2, 1, 2: a
    palindrome, so that a drift of the machine's speed hits both alike, and
    twice as many ``--jobs 2`` runs, whose wall time spreads most from spawn
    to spawn: it follows the load on the machine's other CPU and the timing
    of the two worker threads.  With ``trace_dir`` every
    child runs under launch.py and leaves its span aggregates there;
    ``traces`` lists (what, wall seconds, file)."""

    JOBS = (2, 1, 2, 2, 1, 2)

    def __init__(self, entries: list[dict], work: Path, tally: Tally, trace_dir: Path | None = None):
        self.entries = entries
        self.manifest = write_entries(entries, work)
        self.tally = tally
        self.trace_dir = trace_dir
        self.code_want = oracle.expected_exit(entries)
        self.cold = Samples()
        self.cold_runs = 0
        self.first_out: dict[int, str] = {}
        self.batch_runs: list[tuple[int, int, str]] = []  # (jobs, exit code, stdout)
        self.batch_wall = {1: 0.0, 2: 0.0}
        self.batch_entries = {1: 0, 2: 0}
        self.traces: list[tuple[str, float, Path | None]] = []

    def _trace_file(self) -> Path | None:
        return self.trace_dir / f"child-{len(self.traces)}.json" if self.trace_dir else None

    def cold_step(self) -> None:
        i = self.cold_runs % len(self.entries)
        self.cold_runs += 1
        entry = self.entries[i]
        trace = self._trace_file()
        wall, code, out = spawn(cli_args([entry["command"], entry["path"]], trace))
        lines = out.splitlines()
        ok = len(lines) == 1 and oracle.cli_report_ok(entry, lines[0], code)
        self.tally.add(ok, f"cli {entry['command']} {entry['path']}")
        self.cold.add(i, KIND_OF.get(entry["command"], entry["command"]), wall)
        self.traces.append(("cold", wall, trace))
        self.first_out.setdefault(i, out)

    def batch_step(self) -> None:
        jobs = self.JOBS[len(self.batch_runs) % len(self.JOBS)]
        trace = self._trace_file()
        wall, code, out = spawn(cli_args(["batch", str(self.manifest), "--jobs", str(jobs)], trace))
        self.batch_runs.append((jobs, code, out))
        self.batch_wall[jobs] += wall
        self.batch_entries[jobs] += len(self.entries)
        self.traces.append((f"batch-j{jobs}", wall, trace))

    def check_batches(self) -> None:
        """Every batch stdout must equal the single-command reports of the
        first cold spawn of each entry, concatenated in manifest order; call
        once every entry has run cold."""
        expected = "".join(self.first_out[i] for i in range(len(self.entries)))
        for jobs, code, out in self.batch_runs:
            self.tally.add(out == expected and code == self.code_want, f"batch --jobs {jobs}")

    def batch_rate(self, jobs: int) -> float:
        return self.batch_entries[jobs] / self.batch_wall[jobs]
