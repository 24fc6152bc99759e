"""Mutation check for the rules that certify verdicts, with the standard library only.

Each mutation below is one named source edit: a line of src/phinmod that a
certifying rule rests on, replaced by what an earlier or a careless version
of that rule would say.  The edit is applied to a copy of the repository in
a temporary directory, and the tier-1 tests named beside it run there; one
of them must fail.  A mutation that no named test kills is a rule the suite
does not pin.

Usage, from the repository root::

    python tools/mutate.py

It prints each mutation with the test that killed it, or SURVIVED, then the
total run time, and exits 1 when some mutation survives.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "fixtures", "pyproject.toml")

# name, file under src/phinmod, line as it stands, line as mutated, tests
MUTATIONS = [
    (
        "loose elimination in rref",
        "linalg.py",
        "            if k != r and not rows[k][c].is_exact_zero():",
        "            if k != r and not rows[k][c].is_zero_at_prec():",
        ["tests/test_linalg.py::test_elimination_agrees_with_exact_lifts"],
    ),
    (
        "twist pair without the floor cap",
        "monodromy.py",
        "    light = make_element(light.desc, light.mant, light.shift, cap)",
        "    light = light",
        ["tests/test_monodromy.py::test_twist_pair_matches_the_charpoly_route"],
    ),
    (
        "twist pair on an exact trace",
        "monodromy.py",
        "    if INF in (tr._k, det._k) or tr.is_zero_at_prec() or det.is_zero_at_prec():",
        "    if tr.is_zero_at_prec() or det.is_zero_at_prec():",
        ["tests/test_monodromy.py::test_twist_pair_matches_the_charpoly_route"],
    ),
    (
        "intersection by residual count",
        "filtration.py",
        "        rank = len(rref(certified)[0]) if len(certified) > 1 else len(certified)",
        "        rank = len(certified)",
        [
            "tests/test_filtration.py::test_certificates_match_the_induced_hodge_number",
            "tests/test_filtration.py::test_plane_meeting_two_steps_in_one_line",
        ],
    ),
    (
        "loose residual counted as containment",
        "filtration.py",
        "        if loose and rank < min(v.ambient - v.dim, sum(not all(x.is_exact_zero() for x in q) for q in residuals)):",
        "        if False:",
        ["tests/test_cli.py::test_admissible_refuses_a_residual_zero_only_at_loose_floors"],
    ),
    (
        "family containment at precision",
        "filtration.py",
        "        total += _jump_sum(sig, [1] * inside + _intersection_dims(sig[inside:], spaces[i], loose))",
        "        total += _jump_sum(sig, [1] * inside + _intersection_dims(sig[inside:], spaces[i], False))",
        [
            "tests/test_filtration.py::test_a_balanced_family_refuses_a_loose_containment",
            "tests/test_filtration.py::test_loose_families_answer_as_every_exact_lift",
        ],
    ),
    (
        "special outside its own step",
        "filtration.py",
        "        inside = origin[1] + 1 if origin is not None and origin[0] == t else 0",
        "        inside = 0",
        ["tests/test_filtration.py::test_a_special_line_lies_in_its_own_step"],
    ),
    (
        "jump sum without the final zero",
        "filtration.py",
        "    return sum(j * (d - below) for (j, _), d, below in zip(sig, dims, dims[1:] + [0]))",
        "    return sum(j * (d - below) for (j, _), d, below in zip(sig, dims, dims[1:]))",
        [
            "tests/test_filtration.py::test_hodge_number_single_embedding",
            "tests/test_filtration.py::test_certificates_match_the_induced_hodge_number",
        ],
    ),
    (
        "diagonal spectrum on a valuation tie",
        "eigen.py",
        "    return len(vals) == len(cycle) and None not in vals and INF not in vals",
        "    return None not in vals and INF not in vals",
        [
            "tests/test_eigen.py::test_cycles_outside_the_rule_take_the_charpoly_route",
            "tests/test_eigen.py::test_mixed_floor_verdicts_match_the_charpoly_route",
        ],
    ),
    (
        "iso alignment on a loose zero",
        "isom.py",
        "    return True if (x1 if z1 else x2).is_exact_zero() else None",
        "    return True",
        [
            "tests/test_isom.py::test_zero_patterns_told_apart_only_at_precision_decide_nothing",
            "tests/test_eigen.py::test_mixed_floor_verdicts_match_the_charpoly_route",
        ],
    ),
    (
        "iso roots from the first cycle",
        "isom.py",
        "        roots = cycle_roots(diagonal[0]) if diagonal else roots_in_field(shared)",
        "        roots = cycle_roots(a1)",
        ["tests/test_eigen.py::test_iso_verdicts_do_not_depend_on_the_order_of_the_pair"],
    ),
    (
        "spectrum from the lower floor",
        "isom.py",
        "    shared = [x if x._k >= y._k else y for x, y in zip(cp1, cp2)]",
        "    shared = [x if x._k <= y._k else y for x, y in zip(cp1, cp2)]",
        ["tests/test_eigen.py::test_iso_verdicts_do_not_depend_on_the_order_of_the_pair"],
    ),
    (
        "zero grid read as the exact zero",
        "serial.py",
        "    if prec is None or prec is INF:",
        "    if prec is None or prec is INF or not any(x.mant):",
        [
            "tests/test_cli.py::test_what_a_report_prints_parses_back",
            "tests/test_cli.py::test_a_family_line_known_to_one_digit_is_refused_however_written",
        ],
    ),
    (
        "stated floor raised by a zero lowest pi-row",
        "serial.py",
        "    return x if x._k == k else make_element(desc, x.mant, x.shift, k)",
        "    return x if x._k == k or any(x.mant) else make_element(desc, x.mant, x.shift, k)",
        ["tests/test_cli.py::test_what_a_report_prints_parses_back"],
    ),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _mutate(dest: Path, filename: str, line: str, mutated: str) -> None:
    path = dest / "src" / "phinmod" / filename
    text = path.read_text("utf-8")
    if text.count(line + "\n") != 1:
        raise SystemExit(f"{filename}: the line to mutate is not there exactly once:\n{line}")
    path.write_text(text.replace(line + "\n", mutated + "\n"), "utf-8")


def _killer(dest: Path, tests: list[str]) -> str | None:
    """The first named test that fails on the mutated copy, or None."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=dest, env=env, capture_output=True, text=True)
    for row in done.stdout.splitlines():
        if row.startswith("FAILED "):
            return row.split()[1]
    if done.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return None


def main() -> int:
    started = time.perf_counter()
    survived = 0
    for name, filename, line, mutated, tests in MUTATIONS:
        with tempfile.TemporaryDirectory(prefix="phinmod-mutate-") as tmp:
            dest = Path(tmp)
            _copy(dest)
            _mutate(dest, filename, line, mutated)
            killer = _killer(dest, tests)
        survived += killer is None
        print(f"{name}: {'killed by ' + killer if killer else 'SURVIVED'}", flush=True)
    print(f"{len(MUTATIONS) - survived} of {len(MUTATIONS)} killed in {time.perf_counter() - started:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
