"""phinmod benchmark.

Usage (from the root of a checkout):
    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (one closed-loop caller each; see README.md for the reasons):
    verdicts-p60    in-process verdict ops at working precision 60
    cli             cold ``python -m phinmod.cli`` spawns of all 14 commands
    verdicts-p2000  the same op mix as verdicts-p60 at working precision
                    2000, fewer records; not in BENCHMARK.json (too few
                    samples per run to be steady), kept for traced runs

Every workload also makes cold CLI spawns and ``batch --jobs 1`` /
``--jobs 2`` spawns, so all end-to-end metrics exist on every workload.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics from a separate traced pass.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("verdicts-p60", "verdicts-p2000", "cli")
# Share of a run's time per lane of work: in-process verdict ops, cold CLI
# spawns, batch spawns, set-up probes.  Set-up is probed through the run,
# not only before it, because the machine's speed drifts within seconds and
# a median of back-to-back probes would carry the drift of one moment.
SHARES = {
    "verdicts-p60": {"ops": 3, "cold": 1, "batch": 2, "setup": 1.5},
    "verdicts-p2000": {"ops": 3, "cold": 1, "batch": 2, "setup": 1.5},
    "cli": {"cold": 1.6, "batch": 1.2, "setup": 0.5},
}
MIN_SETUPS = 5
# op_ms_tail: a fixed high percentile of single-op latency that leaves at
# least ten samples above it at each workload's sample count at the seed
# commit (n goes to stderr).  Fixed per workload so that a faster program,
# which fits more samples into a run, still reports the same percentile.
TAIL_PCT = {"verdicts-p60": 95, "verdicts-p2000": 80, "cli": 60}


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_seconds(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter."""
    import work

    _, code, out = work.spawn([sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)])
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return float(out.strip())


def latency_metrics(ops, tail_pct: int) -> dict:
    """Throughput over all samples; medians over inputs, each input's
    latency being its mean over the run's samples of it."""
    import work

    walls = ops.all()
    out = {
        "ops_per_s": metric(len(walls) / sum(walls), "ops/s"),
        "op_ms_p50": metric(1000 * statistics.median(ops.means()), "ms"),
        "op_ms_tail": metric(1000 * percentile(walls, tail_pct), "ms"),
    }
    for kind in work.VERDICT_KINDS:
        out[f"{kind}_ms_p50"] = metric(1000 * statistics.median(ops.means(kind)), "ms")
    return out


class Lane:
    """One kind of work in a run: ``step`` does the next unit of it, and a
    cycle of ``cycle`` steps covers every input of the lane once."""

    def __init__(self, step, cycle: int, share: float):
        self.step = step
        self.cycle = cycle
        self.share = share
        self.used = 0.0
        self.steps = 0

    def run(self) -> None:
        start = time.perf_counter()
        self.step()
        self.used += time.perf_counter() - start
        self.steps += 1

    def mean(self) -> float:
        return self.used / self.steps if self.steps else 0.0


def run_lanes(lanes: list[Lane], seconds: float) -> float:
    """Interleave the lanes step by step, each next step going to the lane
    furthest below its share of the time used, until one more step would
    overrun ``seconds``; every lane finishes at least one full cycle, so
    every input is run and checked.  Returns the elapsed seconds."""
    start = time.perf_counter()
    while True:
        lane = min(lanes, key=lambda ln: ln.used / ln.share)
        if time.perf_counter() - start + lane.mean() > seconds:
            behind = [ln for ln in lanes if ln.steps < ln.cycle]
            if not behind:
                return time.perf_counter() - start
            lane = behind[0]
        lane.run()


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def end_to_end(workload: str, seed: int, seconds: float, tally, scratch: Path) -> dict:
    """Lanes of in-process verdict ops (verdict workloads only), cold CLI
    spawns, batch spawns and set-up probes, interleaved step by step in
    fixed shares of the run's time, so that a slow spell of the machine
    hits every metric alike."""
    import gen
    import work

    doc = gen.inputs(workload, seed)
    shares = SHARES[workload]
    cli = work.Cli(doc["entries"], scratch, tally)
    setups = []
    lanes = [
        Lane(cli.cold_step, len(cli.entries), shares["cold"]),
        Lane(cli.batch_step, 2, shares["batch"]),
        Lane(lambda: setups.append(setup_seconds(workload, seed)), MIN_SETUPS, shares["setup"]),
    ]
    verdicts = workload != "cli"
    if verdicts:
        items = work.load(doc)
        for it in items:
            tally.add(it.law_holds(), f"check_constraints {it.spec['id']}")
        work.warm_up(items)
        ops = work.op_list(items)
        samples = work.Samples()
        next_op = itertools.cycle(ops).__next__

        def op_step() -> None:
            kind, i = next_op()
            samples.add((kind, i), kind, work.timed_op(kind, items[i], tally))

        lanes.insert(0, Lane(op_step, len(ops), shares["ops"]))
    elapsed = run_lanes(lanes, seconds)
    cli.check_batches()
    metrics = {"setup_s": metric(statistics.median(setups), "s")}
    if verdicts:
        metrics.update(latency_metrics(samples, TAIL_PCT[workload]))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        n_ops = len(samples.all())
    else:
        metrics.update(latency_metrics(cli.cold, TAIL_PCT[workload]))
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        n_ops = len(cli.cold.all())
    metrics["cli_cold_ms_p50"] = metric(1000 * statistics.median(cli.cold.means()), "ms")
    metrics["batch_j1_entries_per_s"] = metric(cli.batch_rate(1), "entries/s")
    metrics["batch_j2_entries_per_s"] = metric(cli.batch_rate(2), "entries/s")
    metrics["peak_rss_mb"] = metric(rss / 1024.0, "MB")
    print(
        f"{workload}: {elapsed:.1f} s; {n_ops} timed ops, op_ms_tail is p{TAIL_PCT[workload]}; "
        f"{len(cli.cold.all())} cold spawns; {len(cli.batch_runs)} batch spawns; {len(setups)} set-ups",
        file=sys.stderr,
    )
    return metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def spawn_floors() -> dict:
    import work

    def p50(code: str) -> float:
        return statistics.median(work.spawn([sys.executable, "-c", code])[0] for _ in range(3))

    floor = p50("pass")
    return {
        "cli.spawn_floor_ms": metric(1000 * floor, "ms"),
        "cli.import_ms": metric(1000 * (p50("import phinmod") - floor), "ms"),
        "cli.sympy_import_ms": metric(1000 * (p50("import sympy") - floor), "ms"),
    }


def merge(total: dict, part: dict) -> None:
    for name, agg in part.items():
        for key, value in agg.items():
            total[name][key] += value


def one_round(items, ops, samples, tally) -> None:
    import work

    for kind, i in ops:
        samples.add((kind, i), kind, work.timed_op(kind, items[i], tally))


def per_layer(workload: str, seed: int, tally, scratch: Path) -> dict:
    """A fixed amount of traced work, so that call counts repeat: one round
    of in-process ops (verdict workloads), every CLI entry cold once and one
    batch j1/j2 pair, all under the span wrappers.  Before it, the same
    in-process round (or cold cycle) runs untraced for the overhead ratio."""
    import gen
    import micro
    import spans
    import work

    doc = gen.inputs(workload, seed)
    metrics = spawn_floors()
    tracer = spans.Tracer()
    agg = tracer.snapshot()  # all zeros
    if workload == "cli":
        plain = work.Cli(doc["entries"], scratch / "plain", tally)
        for _ in plain.entries:
            plain.cold_step()
        untraced_rate = len(plain.cold.all()) / sum(plain.cold.all())
        work_s = 0.0
    else:
        tracer.install()
        items = work.load(doc)
        merge(agg, {"padic.certify": tracer.snapshot()["padic.certify"]})
        tracer.uninstall()
        work.warm_up(items)
        ops = work.op_list(items)
        plain = work.Samples()
        one_round(items, ops, plain, tally)
        untraced_rate = len(plain.all()) / sum(plain.all())
        tracer = spans.Tracer()
        tracer.install()
        traced = work.Samples()
        one_round(items, ops, traced, tally)
        tracer.uninstall()
        merge(agg, tracer.snapshot())
        work_s = sum(traced.all())
        traced_rate = len(traced.all()) / work_s
    trace_dir = scratch / "spans"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cli = work.Cli(doc["entries"], scratch, tally, trace_dir)
    for _ in cli.entries:
        cli.cold_step()
    cli.batch_step()
    cli.batch_step()
    cli.check_batches()
    cold_wall = cold_run = cold_certify = 0.0
    for what, wall, path in cli.traces:
        child = json.loads(path.read_text("utf-8"))
        merge(agg, child)
        work_s += wall
        if what == "cold":
            cold_wall += wall
            cold_run += child["cli.run"]["total_s"]
            cold_certify += child["padic.certify"]["total_s"]
    if workload == "cli":
        traced_rate = len(cli.cold.all()) / cold_wall

    metrics.update(layer_metrics(agg, work_s))
    metrics["cli.compute_share"] = metric(cold_run / cold_wall, "ratio")
    startup_ms = metrics["cli.spawn_floor_ms"]["value"] + metrics["cli.import_ms"]["value"]
    cold_ms = 1000 * cold_wall / len(cli.entries)
    certify_ms = 1000 * cold_certify / len(cli.entries)
    metrics["cli.startup_share"] = metric((startup_ms + certify_ms) / cold_ms, "ratio")
    metrics["cli.batch_scaling_j2"] = metric(cli.batch_rate(2) / cli.batch_rate(1), "ratio")
    metrics["trace.overhead_ratio"] = metric(untraced_rate / traced_rate, "ratio")
    metrics.update(micro.per_call(seed))
    return metrics


AGGREGATES = ("calls", "total_s", "self_s")


def reported_spans() -> list[tuple[str, str]]:
    """(span, aggregate) for every per-layer metric of BENCHMARK.json that
    is a span aggregate, such as ``linalg.rref.self_s``."""
    import spans

    out = []
    for m in json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["per_layer"]:
        span, _, key = m["name"].rpartition(".")
        if key in AGGREGATES and span in spans.TRACED:
            out.append((span, key))
    return out


def layer_metrics(agg: dict, work_s: float) -> dict:
    out = {}
    for name, key in reported_spans():
        out[f"{name}.{key}"] = metric(agg[name][key], "count" if key == "calls" else "s")
    out["padic.certify_s"] = metric(agg["padic.certify"]["total_s"], "s")
    out["padic.inverse.share"] = metric(agg["padic.inverse"]["total_s"] / work_s, "ratio")
    vm = agg["padic.valuation"]["self_s"] + agg["padic.make_element"]["self_s"]
    out["padic.valuation_make_element.self_share"] = metric(vm / work_s, "ratio")
    parsed = agg["serial.parse_field"]["calls"]
    hit = 1 - agg["padic.desc_new"]["calls"] / parsed if parsed else 0.0
    out["serial.field_cache_hit_ratio"] = metric(hit, "ratio")
    return out


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="run length; the traced pass is a fixed amount of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.trace and args.seconds is None:
        parser.error("--seconds is required with --trace 0")
    if not (SRC / "phinmod" / "__init__.py").is_file():
        print(f"error: no phinmod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import work

    tally = work.Tally()
    scratch = ROOT / ".bench_work" / f"run-{os.getpid()}"
    try:
        if args.trace:
            metrics = per_layer(args.workload, args.seed, tally, scratch)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, tally, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
