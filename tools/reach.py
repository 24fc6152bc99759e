"""Which lines of src/phinmod the commands run, with the standard library only.

coverage is not a dependency, so this collects executed lines with
sys.settrace (threading.settrace too, for ``batch --jobs 2``) and compares
them against the executable lines of src/phinmod, read from the compiled
code objects.  Lines are grouped by owner: a function or method, a class
body or the module body.

What the system runs, in one process:

* every fixture under every command at precisions 60, 3 and 1;
* ``batch`` on fixtures/manifest.json with one and two workers, and the
  ``main`` entry point on one command and on the batch;
* the inputs bench/gen.py makes for seeds 5 and 9: the ``cli`` entries and
  the ``verdicts-p60`` cold entries through ``execute``, and every
  ``verdicts-p60`` op of bench/work.py on their records.

bench/ is only read: its modules are imported without writing bytecode.
With ``--tests`` the tier-1 suite then runs in the same process under the
same tracer, and every line falls in one of three sets: reached by the
system, by tests only, by neither.

Usage, from the repository root::

    python tools/reach.py [--tests]

It prints, per file and function, the lines that never run (with
``--tests``: that neither the system nor the tests run), then the totals.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phinmod"
FIXTURES = ROOT / "fixtures"
SEEDS = (5, 9)
PRECISIONS = (60, 3, 1)

_hits: set[tuple[str, int]] = set()
_prefix = str(PACKAGE)


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(_prefix) else None


def executable_lines() -> dict[str, dict[str, set[int]]]:
    """file -> owner -> its executable lines.  An owner is a function or
    method (its nested lambdas, comprehensions and closures included, its
    def line left out), a class body or the module body ("<module>")."""
    out: dict[str, dict[str, set[int]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        owners: dict[str, set[int]] = {}

        def walk(code, owner):
            # a named code object inside a module or class body is an owner;
            # lambdas, comprehensions and closures belong to their owner
            name = owner
            if owner is None or (_is_body(owner[1]) and not code.co_name.startswith("<")):
                name = (code.co_qualname, code)
            lines = owners.setdefault(name[0], set())
            lines.update(ln for _, _, ln in code.co_lines() if ln)
            if name[1] is code and code.co_name != "<module>":
                # the def or class line runs in the body that defines it
                lines.discard(code.co_firstlineno)
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    walk(const, name)

        walk(compile(path.read_text("utf-8"), str(path), "exec"), None)
        out[str(path)] = {name: lines for name, lines in owners.items() if lines}
    return out


def _is_body(code) -> bool:
    """A module or class body, which runs once at import."""
    return code.co_name == "<module>" or ("__qualname__" in code.co_names and "__module__" in code.co_names)


def run_system() -> None:
    from phinmod import cli
    from phinmod.cli import Options, execute, run_batch

    fixtures = sorted(p for p in FIXTURES.glob("*.json") if p.name != "manifest.json")
    for path in fixtures:
        for command in sorted(cli._HANDLERS):
            for prec in PRECISIONS:
                execute(command, path, Options(precision=prec))
    manifest = FIXTURES / "manifest.json"
    for jobs in (1, 2):
        run_batch(manifest, Options(jobs=jobs))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["admissible", str(fixtures[0]), "--format", "text", "--timing"])
        cli.main(["batch", str(manifest)])

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import gen
    import work

    for seed in SEEDS:
        for entry in gen.inputs("cli", seed)["entries"]:
            execute(entry["command"], entry["doc"], Options())
        doc = gen.inputs("verdicts-p60", seed)
        for entry in doc["entries"]:
            execute(entry["command"], entry["doc"], Options())
        items = work.load(doc)
        for item in items:
            item.law_holds()
        for kind, i in work.op_list(items):
            work.OPS[kind](items[i])


def run_tests() -> int:
    import pytest

    # the suite's own report goes to stderr, the reach report alone to stdout
    with contextlib.redirect_stdout(sys.stderr):
        return int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))


def _ranges(lines) -> str:
    lines = sorted(lines)
    parts, start = [], lines[0]
    for prev, cur in zip(lines, lines[1:] + [None]):
        if cur != prev + 1:
            parts.append(str(start) if start == prev else f"{start}-{prev}")
            start = cur
    return ", ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true", help="also run the tier-1 suite under the tracer")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(_global)
    threading.settrace(_global)
    try:
        run_system()
        system = set(_hits)
        _hits.clear()
        code = run_tests() if args.tests else None
        tests = set(_hits)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = reached = tests_only = 0
    for path, funcs in executable_lines().items():
        shown = False
        for name, lines in funcs.items():
            total += len(lines)
            mine = {(path, ln) for ln in lines}
            reached += len(mine & system)
            tests_only += len((mine & tests) - system)
            never = sorted(ln for ln in lines if (path, ln) not in system and (path, ln) not in tests)
            if never:
                if not shown:
                    print(Path(path).relative_to(ROOT))
                    shown = True
                print(f"  {name}: {_ranges(never)}")
    neither = total - reached - tests_only
    summary = f"executable {total}, reached by the system {reached}"
    if args.tests:
        summary += f", by tests only {tests_only}, by neither {neither} (pytest exit {code})"
    else:
        summary += f", not by the system {neither}"
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
