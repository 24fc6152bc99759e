"""Command line and serialization behaviour against the shipped fixtures."""
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from phinmod import cli
from phinmod.cli import Options, execute, main, render, run_batch
from phinmod.padic import MAX_P
from phinmod.serial import (
    MAX_COEFF_DIGITS,
    MAX_TOWER_DEGREE,
    dump_instance,
    parse_field,
    parse_instance,
    parse_monodromy,
)
from util import sample_element

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json") if p.name != "manifest.json")


def _load(name):
    return json.loads((FIXTURES / name).read_text("utf-8"))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_serialize_parse_idempotent(name):
    first = dump_instance(parse_instance((FIXTURES / name).read_text("utf-8")))
    second = dump_instance(parse_instance(json.dumps(first)))
    assert first == second


def test_admissible_example():
    report, code = execute("admissible", FIXTURES / "monodromy_qp.json", Options())
    assert code == 0
    assert report["verdict"] is True
    assert report["witness"]["t_newton"] == 3
    assert report["witness"]["t_hodge"] == 3


def test_colmez_vanishing_example():
    report, code = execute("colmez", FIXTURES / "germ_vanishing.json", Options())
    assert code == 0
    assert report["value"]["c"] == [["0"]]


def test_extract_recovers_generator_record():
    raw = _load("monodromy_scrambled.json")
    inst = parse_instance(json.dumps(raw))
    expected = parse_monodromy(inst.desc, inst.shape, raw["expected"], "/expected")
    report, code = execute("extract", FIXTURES / "monodromy_scrambled.json", Options())
    assert code == 0
    rebuilt = parse_monodromy(inst.desc, inst.shape, report["value"], "/value")
    assert rebuilt == expected


def test_verdict_failures_exit_one():
    report, code = execute("validate", FIXTURES / "module_invalid.json", Options())
    assert code == 1 and report["verdict"] is False
    report, code = execute("iso", FIXTURES / "pair_noniso.json", Options())
    assert code == 1 and report["verdict"] is False
    assert report["witness"]["scaling"] is None


def test_iso_pair_accepts_transported_copy():
    report, code = execute("iso", FIXTURES / "pair_iso.json", Options())
    assert code == 0 and report["verdict"] is True
    assert report["witness"]["scaling"] is not None


def test_structural_errors_exit_two():
    cases = [
        ("newton", FIXTURES / "no_such_file.json"),
        ("colmez", FIXTURES / "monodromy_qp.json"),
        ("frobnicate", FIXTURES / "monodromy_qp.json"),
        ("validate", '{"field": {"p": 3}, "shape": {"e": 1, "f": 1}, "payload": {}}'),
    ]
    for command, source in cases:
        report, code = execute(command, source, Options())
        assert code == 2, command
        assert report["error"] is not None


def test_constraint_violation_at_parse():
    bad = _load("monodromy_qp.json")
    bad["payload"]["monodromy"]["m"] = [3]
    bad["payload"]["monodromy"]["k"] = [3]
    report, code = execute("validate", json.dumps(bad), Options())
    assert code == 2
    assert report["error"]["type"] == "ConstraintViolation"
    assert "jump" in report["error"]["message"]


def test_parse_error_carries_pointer():
    bad = _load("monodromy_qp.json")
    bad["payload"]["monodromy"]["k"] = ["three"]
    report, code = execute("validate", json.dumps(bad), Options())
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    assert "/payload/monodromy/k/0" in report["error"]["message"]


def test_precision_loss_exits_three():
    germ = _load("germ_vanishing.json")
    germ["payload"]["germ"]["alpha"][0] = {"c": [[str(3**60)]], "prec": 60}
    report, code = execute("colmez", json.dumps(germ), Options())
    assert code == 3
    assert report["error"]["type"] == "PrecisionLoss"


def test_precision_flag_rescues_deep_value():
    germ = _load("germ_vanishing.json")
    germ["payload"]["germ"]["alpha"][0] = {"c": [[str(1 + 3**60)]], "prec": 60}
    report, code = execute("colmez", json.dumps(germ), Options(precision=80))
    assert code == 0
    assert report["precision"] == 80


def test_unprintable_precision_rejected_at_parse(capsys):
    code = main(["gamma-check", str(FIXTURES / "germ_generic.json"), "--precision", "10000"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    assert "/field/prec" in report["error"]["message"]
    manifest = {"entries": [{"command": "gamma-check", "instance": "germ_generic.json"}] * 2}
    reports, code = run_batch(manifest, Options(precision=10000), base_dir=FIXTURES)
    assert code == 2
    assert [r["error"]["type"] for r in reports] == ["ParseError", "ParseError"]
    # the largest precision in use, p = 3 at 2000 digits, stays inside the bound
    assert parse_field({"p": 3, "prec": 2000}).default_prec == 2000


@pytest.mark.parametrize(
    "field, pointer",
    [
        ({"p": MAX_P}, "/field/p"),
        ({"fL": MAX_TOWER_DEGREE + 1}, "/field/fL"),
        ({"eL": MAX_TOWER_DEGREE + 1}, "/field/eL"),
        ({"eis_poly": [[-3 * 10**MAX_COEFF_DIGITS], [1]]}, "/field/eis_poly/0/0"),
        # a fraction is refused, not truncated to an integer
        ({"eis_poly": [["-7/2"], [1]]}, "/field/eis_poly/0/0"),
    ],
)
def test_field_bounds_rejected_at_parse(field, pointer):
    inst = _load("germ_vanishing.json")
    inst["field"].update(field)
    report, code = execute("colmez", json.dumps(inst), Options())
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    assert report["error"]["message"].startswith(f"{pointer}: ")


def _largest_admitted_field() -> dict:
    """The slowest tower parse_field admits: the largest prime below MAX_P,
    fL = eL = MAX_TOWER_DEGREE and coefficients of MAX_COEFF_DIGITS digits."""
    import sympy

    p = 3317044064679887385961813
    assert sympy.isprime(p) and sympy.nextprime(p) >= MAX_P
    n = MAX_TOWER_DEGREE
    # every coefficient has MAX_COEFF_DIGITS digits; the unramified
    # polynomial is T^6 + sum (p - 6 - i) T^i mod p, irreducible
    big = (10**MAX_COEFF_DIGITS // p - 20) * p
    assert len(str(big)) == MAX_COEFF_DIGITS
    return {
        "p": p,
        "fL": n,
        "eL": n,
        "unram_poly": [big + p - 6 - i for i in range(n)] + [1],
        "eis_poly": [[big + p * (1 + i + j) for j in range(n)] for i in range(n)] + [[1] + [0] * (n - 1)],
    }


def test_largest_admitted_tower_builds_fast():
    field = _largest_admitted_field()
    start = time.process_time()
    desc = parse_field(field)
    assert time.process_time() - start < 1.0
    n = MAX_TOWER_DEGREE
    assert (desc.p, desc.f_l, desc.e_l) == (field["p"], n, n)


def test_unit_inverse_on_largest_admitted_tower():
    # a 36 x 36 multiplication-matrix solve modulo p^60, p about 10^24
    desc = parse_field(_largest_admitted_field())
    x = sample_element(desc, Fraction(-1, MAX_TOWER_DEGREE), seed=5)
    start = time.process_time()
    inv = x.inverse()
    assert time.process_time() - start < 5.0
    assert x * inv == 1
    assert inv.valuation() == Fraction(1, MAX_TOWER_DEGREE)
    assert inv.prec == x.prec + Fraction(2, MAX_TOWER_DEGREE)


@pytest.mark.parametrize("key", ["p", "fL", "eL", "prec"])
def test_json_true_is_not_an_integer(key):
    field = {"p": 11, "fL": 1, "eL": 1, "prec": 1}
    inst = _load("germ_vanishing.json")
    inst["field"] = dict(field, **{key: True})
    report, code = execute("colmez", json.dumps(inst), Options())
    assert code == 2
    assert report["error"]["message"].startswith(f"/field/{key}: ")
    # descriptors are interned under keys where True == 1, so a bool that
    # got through would decide what every later {key: 1} carries
    desc = parse_field(field)
    assert all(type(v) is int for v in (desc.p, desc.f_l, desc.e_l, desc.default_prec))


def _failing_handler(instance, options):
    raise RuntimeError("not a package error")


@pytest.mark.parametrize("jobs", [1, 2])
def test_internal_errors_exit_four(jobs, monkeypatch, capsys):
    entries = [
        {"command": "validate", "instance": "monodromy_qp.json"},
        {"command": "newton", "instance": "monodromy_qp.json"},
        {"command": "admissible", "instance": "monodromy_qp.json"},
    ]
    before, code = run_batch({"entries": entries}, Options(jobs=jobs), base_dir=FIXTURES)
    assert code == 0
    monkeypatch.setitem(cli._HANDLERS, "newton", _failing_handler)
    internal = {"type": "InternalError", "message": "RuntimeError: not a package error"}
    report, code = execute("newton", FIXTURES / "monodromy_qp.json", Options())
    assert code == 4 and report["error"] == internal
    assert main(["newton", str(FIXTURES / "monodromy_qp.json")]) == 4
    assert json.loads(capsys.readouterr().out)["error"] == internal
    # in a batch the failure stays in its entry; the other lines are unchanged
    after, code = run_batch({"entries": entries}, Options(jobs=jobs), base_dir=FIXTURES)
    assert code == 4
    assert after[1]["error"] == internal
    assert [render(r, "json") for r in (after[0], after[2])] == [render(r, "json") for r in (before[0], before[2])]
    # a command that is not a string is refused like an unknown one
    entries[1] = {"command": ["newton"], "instance": "monodromy_qp.json"}
    after, code = run_batch({"entries": entries}, Options(jobs=jobs), base_dir=FIXTURES)
    assert code == 2 and after[1]["error"]["type"] == "UnknownCommand"


# modules whose import cost a cold spawn must not pay: sympy (field
# certification is pure Python) and the dataclass machinery with inspect
# (value classes come from phinmod.record)
COLD_FORBIDDEN = ("sympy", "dataclasses", "inspect")


def _cold_loaded(argv=None) -> set[str]:
    """Which COLD_FORBIDDEN modules are in sys.modules after a fresh
    interpreter runs `phinmod argv`, or after a bare start when argv is None."""
    lines = ["import sys", "code = 0"]
    if argv is not None:
        lines += ["from phinmod.cli import main", f"code = main({argv!r})"]
    lines += [f"print(' '.join(m for m in {COLD_FORBIDDEN!r} if m in sys.modules))", "sys.exit(code)"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cold_command_imports_no_sympy():
    # a module the bare interpreter already holds (a site .pth hook may
    # import one) is not the command's doing
    baseline = _cold_loaded()
    for argv in (
        ["colmez", str(FIXTURES / "germ_vanishing.json")],
        ["admissible", str(FIXTURES / "monodromy_qp.json")],
    ):
        assert _cold_loaded(argv) - baseline == set(), argv[0]


def _with_raw_value(name: str, literal: str) -> str:
    """A fixture's JSON text with one more key holding the raw literal."""
    return (FIXTURES / name).read_text("utf-8").rstrip()[:-1] + f', "junk": {literal}}}'


# literals json.loads refuses with a plain ValueError or a RecursionError,
# not a JSONDecodeError; built as text, never as Python values
HOSTILE_LITERALS = {
    "integer literal too long": "7" * 5000,
    "nested too deeply": "[" * 100000 + "]" * 100000,
}


@pytest.mark.parametrize("reason", sorted(HOSTILE_LITERALS))
def test_undecodable_instance_exits_two(reason, tmp_path, capsys):
    bad = tmp_path / "germ.json"
    bad.write_text(_with_raw_value("germ_vanishing.json", HOSTILE_LITERALS[reason]), "utf-8")
    code = main(["colmez", str(bad)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == {"type": "ParseError", "message": f"/: invalid JSON ({reason})"}
    # inside a batch the entry fails alone
    manifest = {"entries": [{"command": "colmez", "instance": "germ.json"},
                            {"command": "colmez", "instance": str(FIXTURES / "germ_vanishing.json")}]}
    reports, code = run_batch(manifest, Options(), base_dir=tmp_path)
    assert code == 2
    assert reports[0]["error"]["type"] == "ParseError" and reports[1]["error"] is None


@pytest.mark.parametrize("reason", sorted(HOSTILE_LITERALS))
def test_undecodable_manifest_exits_two(reason, tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text('{"entries": [], "junk": ' + HOSTILE_LITERALS[reason] + "}", "utf-8")
    assert main(["batch", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: /: manifest is not valid JSON ({reason})\n"


def test_unreadable_sources_exit_two(tmp_path, capsys):
    raw = tmp_path / "latin1.json"
    raw.write_bytes(b'{"field": "\xff"}')
    report, code = execute("colmez", raw, Options())
    assert code == 2 and report["error"]["message"] == "/: invalid JSON (not UTF-8 text)"
    assert main(["batch", str(tmp_path / "missing.json")]) == 2
    assert "cannot read manifest" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_stdout_matches_golden(jobs, capsys):
    code = main(["batch", str(FIXTURES / "manifest.json"), "--jobs", jobs])
    assert code == 1
    assert capsys.readouterr().out == (FIXTURES / "manifest.golden.jsonl").read_text("utf-8")


def test_batch_order_and_worker_independence():
    lines = {}
    for jobs in (1, 8):
        reports, code = run_batch(FIXTURES / "manifest.json", Options(jobs=jobs))
        assert code == 1
        lines[jobs] = [render(r, "json") for r in reports]
    assert lines[1] == lines[8]
    again, _ = run_batch(FIXTURES / "manifest.json", Options(jobs=8))
    assert lines[8] == [render(r, "json") for r in again]
    commands = [json.loads(line)["command"] for line in lines[1]]
    manifest = _load("manifest.json")
    assert commands == [entry["command"] for entry in manifest["entries"]]


def test_batch_isolates_entry_failures():
    manifest = {
        "entries": [
            {"command": "newton", "instance": "monodromy_qp.json"},
            {"command": "newton", "instance": "missing.json"},
            {"command": "newton", "instance": "monodromy_qp.json"},
        ]
    }
    reports, code = run_batch(manifest, Options(), base_dir=FIXTURES)
    assert code == 2
    assert reports[0]["value"] == 3 and reports[2]["value"] == 3
    assert reports[1]["error"]["type"] == "ParseError"


def test_report_bytes_stable_for_fixed_inputs():
    a, _ = execute("admissible", FIXTURES / "monodromy_ramified.json", Options())
    b, _ = execute("admissible", FIXTURES / "monodromy_ramified.json", Options())
    assert render(a, "json") == render(b, "json")


def test_text_format_renders_one_line():
    report, _ = execute("newton", FIXTURES / "monodromy_qp.json", Options(fmt="text"))
    line = render(report, "text")
    assert line.startswith("newton") and "value=3" in line and "\n" not in line


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "phinmod.cli", "admissible", str(FIXTURES / "monodromy_qp.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdict"] is True
