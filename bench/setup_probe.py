"""One set-up of a workload in a fresh interpreter; prints its seconds.

Usage: python bench/setup_probe.py <workload> <seed>

Set-up is everything before the first timed operation: importing phinmod,
constructing the workload's towers (certification included), parsing and
building the generated inputs, and one untimed warm-up op per kind.  Input
generation (pure Python, no phinmod) happens before the clock starts.
"""
from __future__ import annotations

import json
import sys
import time

import gen


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    doc = gen.inputs(workload, seed)
    start = time.perf_counter()
    import work  # imports phinmod

    if workload == "cli":
        from phinmod import cli, serial

        for field in {gen.canonical(e["doc"]["field"]) for e in doc["entries"]}:
            serial.parse_field(json.loads(field))
        seen = set()
        for entry in doc["entries"]:
            if entry["command"] not in seen:
                seen.add(entry["command"])
                cli.execute(entry["command"], gen.canonical(entry["doc"]), cli.Options())
    else:
        work.warm_up(work.load(doc))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
