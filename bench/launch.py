"""Traced CLI child.

Usage: python bench/launch.py <trace-out.json> <phinmod CLI arguments...>

Installs the span wrappers on phinmod, runs the CLI's ``main`` with the
remaining arguments, and writes the span aggregates to the first argument.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    out = Path(sys.argv[1])
    tracer = spans.Tracer()
    tracer.install()
    from phinmod import cli

    try:
        code = cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        out.write_text(json.dumps(tracer.snapshot()), "utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
