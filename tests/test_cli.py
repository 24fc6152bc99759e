"""Command line and serialization behaviour against the shipped fixtures."""
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from phinmod import cli
from phinmod.cli import Options, execute, main, render, run_batch
from phinmod.coeff import GaloisShape, ProductElement
from phinmod.errors import ParseError, PrecisionLoss, ValidationError
from phinmod.filtration import Filtration
from phinmod.linalg import Subspace, det, trace
from phinmod.modules import PhiNModule
from phinmod.monodromy import MonodromyData
from phinmod.padic import INF, MAX_P, FieldElement, LocalFieldDesc, make_element
from phinmod.serial import (
    MAX_COEFF_DIGITS,
    MAX_ELEMENT_DIGITS,
    MAX_RANK,
    MAX_SHAPE_DEGREE,
    MAX_TOWER_DEGREE,
    Instance,
    dump_element,
    dump_filtration,
    dump_module,
    dump_monodromy,
    dump_product,
    parse_element,
    parse_field,
    parse_filtration,
    parse_instance,
    parse_module,
    parse_monodromy,
    parse_product,
)
from util import exact_lift_module, sample_element

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json") if p.name != "manifest.json")


def _load(name):
    return json.loads((FIXTURES / name).read_text("utf-8"))


def _bits(obj):
    """(mantissa, shift, floor) of every element inside obj, through tuples
    and records; jumps, pivots, flags and the field and shape as they are."""
    if isinstance(obj, FieldElement):
        return obj.mant, obj.shift, obj._k
    if isinstance(obj, (tuple, list)):
        return tuple(map(_bits, obj))
    if isinstance(obj, (int, LocalFieldDesc, GaloisShape)):
        return obj
    return tuple(_bits(getattr(obj, name)) for name in type(obj).__annotations__)


def _reparsed(desc, shape, obj):
    """obj dumped as a report prints it and parsed back: modules,
    filtrations and parameter records whole, any other record (germs, dual
    numbers, cohomology classes) part by part."""
    if isinstance(obj, FieldElement):
        return parse_element(desc, dump_element(obj), "")
    if isinstance(obj, ProductElement):
        return parse_product(desc, shape, dump_product(obj), "")
    if isinstance(obj, PhiNModule):
        return parse_module(desc, shape, dump_module(obj), "")
    if isinstance(obj, Filtration):
        return parse_filtration(desc, shape, obj.rank, dump_filtration(obj), "")
    if isinstance(obj, MonodromyData):
        return parse_monodromy(desc, shape, dump_monodromy(obj), "")
    if isinstance(obj, tuple):
        return tuple(_reparsed(desc, shape, x) for x in obj)
    if isinstance(obj, int):
        return obj
    return type(obj)(*(_reparsed(desc, shape, getattr(obj, name)) for name in type(obj).__annotations__))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_serialize_parse_idempotent(name):
    inst = parse_instance((FIXTURES / name).read_text("utf-8"))
    for obj in inst.objects.values():
        assert _bits(_reparsed(inst.desc, inst.shape, obj)) == _bits(obj)


def _report_element(rng, desc):
    """A canonical element of every kind a report prints: exact one time in
    three, else known to a floor of -3 to 19 digits; shifts 0 to 2, so
    valuations go below zero; each coordinate zero one time in three, so
    some lowest pi-rows vanish and some grids are zeros known to a floor."""
    k = INF if rng.random() < 1 / 3 else rng.randint(-3, 19)
    mant = [0 if rng.random() < 1 / 3 else rng.randrange(-(desc.p**12), desc.p**12) for _ in range(desc.degree)]
    return make_element(desc, mant, rng.randrange(3), k)


def _report_objects(rng, desc):
    """A rank-2 module, a filtration with a line per embedding (drawn again
    until it is a line) and a parameter record over one random shape, all
    with entries from _report_element."""
    shape = GaloisShape(rng.randint(1, 2), rng.randint(1, 2))

    def row():
        return tuple(_report_element(rng, desc) for _ in range(2))

    def matrix():
        return row(), row()

    module = PhiNModule(desc, shape, 2, tuple(matrix() for _ in range(shape.f)), tuple(matrix() for _ in range(shape.f)))
    while True:
        try:
            steps = tuple(
                ((j, Subspace.full(desc, 2)), (j + rng.randint(1, 3), Subspace.from_vectors(desc, 2, [row()])))
                for j in (rng.randint(-2, 1) for _ in range(shape.n))
            )
            fil = Filtration(desc, shape, 2, steps)
            break
        except (PrecisionLoss, ValidationError):
            continue
    ints = [rng.randint(-3, 3) for _ in range(2 * shape.n)]
    ell = ProductElement.from_components(desc, shape, [_report_element(rng, desc) for _ in range(shape.n)])
    record = MonodromyData(_report_element(rng, desc), ints[: shape.n], ints[shape.n :], ell, rng.random() < 0.5)
    return shape, (module, fil, record)


def test_what_a_report_prints_parses_back(q3, q3_ram, q9, q3_mixed):
    rng = random.Random(31)
    for desc in (q3, q3_ram, q9, q3_mixed):
        elements = [_report_element(rng, desc) for _ in range(300)]
        assert any(x._k is not INF and not any(x.mant) for x in elements)
        assert any(x._k is not INF and any(x.mant) and x.valuation() < 0 for x in elements)
        assert _bits([parse_element(desc, dump_element(x), "") for x in elements]) == _bits(elements)
        for _ in range(8):
            shape, objects = _report_objects(rng, desc)
            for obj in objects:
                assert _bits(_reparsed(desc, shape, obj)) == _bits(obj)


@pytest.mark.parametrize("coeff", ["0", "3"])
def test_a_family_line_known_to_one_digit_is_refused_however_written(coeff):
    # the README's family: over Q3 the scalar cycle 1, N = 0 and two
    # embeddings, Fil^0 = <(1, 0)> in one and Fil^1 = <(1, O(3))> in the
    # other; O(3) written with "0" or with "3" is the same input
    doc = {
        "field": {"p": 3, "prec": 20},
        "shape": {"e": 2, "f": 1},
        "payload": {
            "module": {"rank": 2, "phi": [[["1", "0"], ["0", "1"]]], "N": [[["0", "0"], ["0", "0"]]]},
            "filtration": [
                [{"jump": -1, "basis": [["1", "0"], ["0", "1"]]}, {"jump": 0, "basis": [["1", "0"]]}],
                [{"jump": 0, "basis": [["1", "0"], ["0", "1"]]}, {"jump": 1, "basis": [["1", {"c": [[coeff]], "prec": 1}]]}],
            ],
        },
    }
    report, code = execute("admissible", doc, Options())
    assert code == 3
    assert report["error"] == {"message": "intersection with a filtration step is not certified", "type": "PrecisionLoss"}


def test_admissible_example():
    report, code = execute("admissible", FIXTURES / "monodromy_qp.json", Options())
    assert code == 0
    assert report["verdict"] is True
    assert report["witness"]["t_newton"] == 3
    assert report["witness"]["t_hodge"] == 3


def test_admissible_on_a_tower_whose_pi_e_is_not_p():
    # phi = diag(pi, 2 pi) over pi^2 + 3 pi + 3 = 0, Fil^1 the line e1: the
    # cycle roots pi and 2 pi split the module into two stable lines, and
    # e1 has t_N 1/2 below t_H 1
    report, code = execute("admissible", FIXTURES / "module_eisenstein.json", Options())
    assert code == 1 and report["verdict"] is False
    certs = report["witness"]["certificates"]
    assert [(c["t_newton"], c["t_hodge"], c["ok"]) for c in certs] == [("1/2", 1, False), ("1/2", 0, True)]


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
    # parsing checks structure only; validate evaluates the record's constraints
    bad = _load("monodromy_qp.json")
    bad["payload"]["monodromy"]["m"] = [3]
    bad["payload"]["monodromy"]["k"] = [3]
    report, code = execute("validate", json.dumps(bad), Options())
    assert code == 2
    assert report["error"]["type"] == "ConstraintViolation"
    assert "jump" in report["error"]["message"]


def test_payload_kind_is_checked_before_record_constraints():
    # a record is parsed for structure only; each command checks its payload
    # kind first, so the exit code of a wrong kind does not depend on the
    # precision at which the record's constraints would be evaluated
    for options in (Options(), Options(precision=1)):
        report, code = execute("colmez", FIXTURES / "monodromy_ramified.json", options)
        assert code == 2 and report["error"]["type"] == "ValidationError"
        assert "needs a germ payload" in report["error"]["message"]
    assert main(["colmez", str(FIXTURES / "monodromy_ramified.json"), "--precision", "1"]) == 2
    bad = _load("monodromy_qp.json")
    bad["payload"]["monodromy"]["m"] = [3]
    bad["payload"]["monodromy"]["k"] = [3]
    assert parse_instance(json.dumps(bad)).kind == "monodromy"
    for command in ("validate", "admissible", "end0-check"):
        report, code = execute(command, json.dumps(bad), Options())
        assert code == 2 and report["error"]["type"] == "ConstraintViolation", command
    report, code = execute("extract", json.dumps(bad), Options())
    assert code == 2 and "needs a module payload" in report["error"]["message"]


DELETE = object()


def _edit(name, path, value):
    """A fixture's text with the value at a JSON pointer replaced (or, for
    value DELETE, the key removed)."""
    inst = _load(name)
    *parents, last = path.strip("/").split("/")
    node = inst
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if value is DELETE:
        del node[last]
    else:
        node[int(last) if isinstance(node, list) else last] = value
    return json.dumps(inst)


@pytest.mark.parametrize(
    "command, source, pointer",
    [
        ("validate", '{"field": {"p": 3}, "shape": ', "/"),
        ("validate", _edit("module_plain.json", "/payload/module/phi", DELETE), "/payload/module"),
        ("validate", _edit("monodromy_qp.json", "/payload/monodromy/m", [0, 0]), "/payload/monodromy/m"),
        ("colmez", _edit("germ_vanishing.json", "/payload/germ/alpha/0", "1/0"), "/payload/germ/alpha/0"),
        ("validate", _edit("monodromy_qp.json", "/payload/monodromy/degenerate", 1), "/payload/monodromy/degenerate"),
        ("validate", _edit("module_plain.json", "/payload/filtration/0/0/jump", "0"), "/payload/filtration/0/0/jump"),
        ("validate", _edit("module_plain.json", "/payload/module/rank", 0), "/payload/module/rank"),
        ("validate", _edit("module_plain.json", "/shape/e", 0), "/shape/e"),
        # Q3(sqrt 3) takes flat lists of eL * fL = 2 coefficients
        ("validate", _edit("monodromy_ramified.json", "/payload/monodromy/alpha", ["3", "1/0"]), "/payload/monodromy/alpha/1"),
        ("validate", _edit("monodromy_ramified.json", "/payload/monodromy/alpha", ["3"]), "/payload/monodromy/alpha"),
    ],
    ids=[
        "invalid-json",
        "missing-key",
        "array-length",
        "zero-denominator",
        "degenerate-not-bool",
        "jump-not-int",
        "rank-zero",
        "shape-e-zero",
        "flat-list-entry",
        "flat-list-length",
    ],
)
def test_malformed_input_names_its_pointer(command, source, pointer):
    report, code = execute(command, source, Options())
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    assert report["error"]["message"].startswith(f"{pointer}: ")


def test_flat_coefficient_list_reads_as_its_grid():
    flat = parse_instance(_edit("monodromy_ramified.json", "/payload/monodromy/alpha", ["3", "1"]))
    grid = parse_instance(_edit("monodromy_ramified.json", "/payload/monodromy/alpha", [["3"], ["1"]]))
    assert flat.objects["monodromy"].alpha == grid.objects["monodromy"].alpha
    assert flat.objects["monodromy"].alpha.valuation() == Fraction(1, 2)


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


def _set_rank(inst):
    inst["payload"]["module"]["rank"] = MAX_RANK + 1


def _set_shape(key):
    def edit(inst):
        inst["shape"][key] = MAX_SHAPE_DEGREE + 1

    return edit


def _set_alpha(value):
    def edit(inst):
        inst["payload"]["germ"]["alpha"][0] = value

    return edit


@pytest.mark.parametrize(
    "name, command, edit, pointer",
    [
        ("module_plain.json", "validate", _set_rank, "/payload/module/rank"),
        ("module_plain.json", "validate", _set_shape("e"), "/shape/e"),
        ("germ_vanishing.json", "colmez", _set_shape("f"), "/shape/f"),
        ("germ_vanishing.json", "colmez", _set_alpha("1/" + "3" * (MAX_ELEMENT_DIGITS + 1)), "/payload/germ/alpha/0"),
        ("germ_vanishing.json", "colmez", _set_alpha(10**MAX_ELEMENT_DIGITS), "/payload/germ/alpha/0"),
        ("germ_vanishing.json", "colmez", _set_alpha("7" * 5000), "/payload/germ/alpha/0"),
        ("germ_vanishing.json", "colmez", _set_alpha([["1e10000000"]]), "/payload/germ/alpha/0/0/0"),
        ("germ_vanishing.json", "colmez", _set_alpha({"c": [[1]], "prec": 10**7}), "/payload/germ/alpha/0/prec"),
    ],
)
def test_payload_bounds_rejected_at_parse(name, command, edit, pointer):
    inst = _load(name)
    edit(inst)
    start = time.process_time()
    report, code = execute(command, json.dumps(inst), Options())
    assert time.process_time() - start < 1.0
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    assert report["error"]["message"].startswith(f"{pointer}: ")
    assert len(report["error"]["message"]) < 200


def test_payload_bounds_admit_their_limits():
    inst = _load("germ_vanishing.json")
    inst["payload"]["germ"]["alpha"][0] = {"c": [["1/" + "9" * MAX_ELEMENT_DIGITS]], "prec": 2000}
    inst["shape"] = {"e": 1, "f": 1}
    parse_instance(json.dumps(inst))
    assert parse_instance(json.dumps(dict(_load("module_plain.json"), shape={"e": 1, "f": 1})))
    # exact classes inside the bounds whose cup product has about 6000
    # digits, past the 4300 Python prints: refused when dumped, exit 2
    big, one = {"c": [["7" * 2990]], "prec": "inf"}, [{"c": [["1"]], "prec": "inf"}]
    classes = {"x": {"a1": big, "a2": one}, "y": {"b1": big, "b2": one}}
    inst = {"field": {"p": 3}, "shape": {"e": 1, "f": 1}, "payload": {"classes": classes}}
    report, code = execute("cup", json.dumps(inst), Options())
    line = render(report, "json")
    assert code == 2 and "\n" not in line
    assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line
    assert report["error"]["type"] == "ValidationError"
    assert f"{sys.get_int_max_str_digits()} digits" in report["error"]["message"] and len(report["error"]["message"]) < 200


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


def _failing_handler(instance):
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


def test_batch_threads_are_clamped_to_the_cpu_count(monkeypatch):
    import concurrent.futures

    sizes = []

    class SerialPool:
        """Stands in for ThreadPoolExecutor: records max_workers, maps serially."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    serial, _ = run_batch(FIXTURES / "manifest.json", Options(jobs=1))
    want = [render(r, "json") for r in serial]
    for cpus, jobs, made in ((2, 10**9, [2]), (4, 3, [3]), (1, 10**9, []), (None, 10**9, [])):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        sizes.clear()
        reports, code = run_batch(FIXTURES / "manifest.json", Options(jobs=jobs))
        assert sizes == made
        assert code == 1 and [render(r, "json") for r in reports] == want


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


def test_batch_entry_without_instance_fails_alone():
    entries = [
        {"command": "newton", "instance": "monodromy_qp.json"},
        {"command": "colmez", "instance": "germ_vanishing.json"},
    ]
    alone, code = run_batch({"entries": entries}, Options(), base_dir=FIXTURES)
    assert code == 0
    mixed, code = run_batch({"entries": [entries[0], {"command": "newton"}, entries[1]]}, Options(), base_dir=FIXTURES)
    assert code == 2
    assert mixed[1]["command"] == "newton"
    assert mixed[1]["error"] == {"type": "ParseError", "message": "manifest entry needs command and instance keys"}
    assert [render(r, "json") for r in (mixed[0], mixed[2])] == [render(r, "json") for r in alone]


def test_timing_flag_reports_milliseconds(capsys):
    assert main(["newton", str(FIXTURES / "monodromy_qp.json"), "--timing"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert isinstance(report["timing_ms"], float) and report["timing_ms"] >= 0
    report, _ = execute("newton", FIXTURES / "monodromy_qp.json", Options())
    assert report["timing_ms"] is None


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


# ---------------------------------------------------------------------------
# inline instances for the branches no fixture takes; each goes through
# execute as an already-decoded object


def _doc(payload, shape=(1, 1), field=None):
    return {"field": field or {"p": 3}, "shape": {"e": shape[0], "f": shape[1]}, "payload": payload}


def _module(*phi, n=None):
    """A module payload with one transition per slot; N vanishes unless given."""
    d = len(phi[0])
    zero = [[0] * d for _ in range(d)]
    return {"rank": d, "phi": list(phi), "N": n or [zero] * len(phi)}


def _flag(*steps, embeddings=1):
    """The same (jump, basis) step list at every embedding."""
    return [[{"jump": j, "basis": b} for j, b in steps]] * embeddings


def _diag(*entries):
    return [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]


def _low(c, prec=1):
    """c known modulo 3^prec only: an entry that is zero at its own floor
    when 3^prec divides c."""
    return {"c": [[str(c)]], "prec": prec}


FULL2 = _diag(1, 1)
LINE_FLAG = _flag((0, FULL2), (1, [[1, 0]]))


def _failure(command, doc, code, error_type, message):
    report, got = execute(command, doc, Options())
    assert got == code, report
    assert report["error"]["type"] == error_type
    assert message in report["error"]["message"]


def _pair(first, second, shape=(1, 1), field=None):
    return _doc({"first": first, "second": second}, shape, field)


def test_iso_of_ranks_one_and_two_differs():
    first = {"module": _module([[3]]), "filtration": _flag((0, [[1]]))}
    second = {"module": _module(_diag(9, 3)), "filtration": LINE_FLAG}
    report, code = execute("iso", _pair(first, second), Options())
    assert code == 1 and report["witness"]["reason"] == "ranks differ"


def test_iso_on_a_cycle_without_roots_is_unsupported():
    # the cycle's charpoly T^2 - 2 has no root in Q3
    half = {"module": _module([[0, 1], [2, 0]]), "filtration": LINE_FLAG}
    _failure("iso", _pair(half, half), 2, "UnsupportedEnumeration", "does not split simply")
    # against a split cycle the characteristic polynomials differ, in either order
    split = {"module": _module(_diag(9, 3)), "filtration": LINE_FLAG}
    for pair in (_pair(half, split), _pair(split, half)):
        report, code = execute("iso", pair, Options())
        assert code == 1 and report["witness"]["reason"] == "cycle spectra differ"


def test_iso_on_a_singular_transition_cannot_certify_the_spectrum():
    # an exactly singular transition is a structural fault; one whose
    # determinant is zero only at its floor wants more precision
    half = {"module": _module(_diag(1, 0)), "filtration": LINE_FLAG}
    _failure("iso", _pair(half, half), 2, "ZeroInput", "constant coefficient is the exact zero")
    half = {"module": _module(_diag(1, _low(3))), "filtration": LINE_FLAG}
    _failure("iso", _pair(half, half), 3, "PrecisionLoss", "constant coefficient not certified nonzero")


@pytest.mark.parametrize(
    "first, second, reason",
    [
        # N vanishes on one side only
        ((_diag(9, 3), None, LINE_FLAG), (_diag(9, 3), [[[0, 0], [1, 0]]], LINE_FLAG),
         "slot operator supports differ"),
        # t0/t1 = 1 from one entry and t1/t0 = 2 from the other
        ((_diag(9, 3), [[[0, 1], [1, 0]]], LINE_FLAG), (_diag(9, 3), [[[0, 1], [2, 0]]], LINE_FLAG),
         "slot operator ratios are inconsistent"),
        # rank one goes the same way: N vanishes on one side only
        (([[3]], [[[1]]], _flag((0, [[1]]))), ([[3]], None, _flag((0, [[1]]))),
         "slot operator supports differ"),
    ],
)
def test_iso_slot_operator_mismatches(first, second, reason):
    halves = [{"module": _module(phi, n=n), "filtration": fil} for phi, n, fil in (first, second)]
    report, code = execute("iso", _pair(*halves), Options())
    assert code == 1 and report["witness"]["reason"] == reason


FULL3 = _diag(1, 1, 1)


@pytest.mark.parametrize(
    "step1, step2, reason",
    [
        ([[1, 0, 0]], [[1, 0, 0], [0, 1, 0]], "filtration step dimensions differ"),
        ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 1]], "filtration hyperplanes cannot be aligned"),
    ],
)
def test_iso_flag_mismatches_in_rank_three(step1, step2, reason):
    # cycle roots 1, 2, 4 are simple with distinct residues in Q5
    halves = [
        {"module": _module(_diag(1, 2, 4)), "filtration": _flag((0, FULL3), (1, step))}
        for step in (step1, step2)
    ]
    report, code = execute("iso", _pair(*halves, field={"p": 5}), Options())
    assert code == 1 and report["witness"]["reason"] == reason


FULL4 = _diag(1, 1, 1, 1)


@pytest.mark.parametrize(
    "plane1, plane2, reason",
    [
        (FULL4[:2], FULL4[:2], None),
        (FULL4[:2], [[1, 0, 0, 0], [0, 1, 1, 0]], "filtration steps cannot be aligned"),
    ],
)
def test_iso_planes_in_rank_four(plane1, plane2, reason):
    # cycle roots 1, 2, 3, 4 are simple with distinct residues in Q7
    halves = [
        {"module": _module(_diag(1, 2, 3, 4)), "filtration": _flag((0, FULL4), (1, plane))}
        for plane in (plane1, plane2)
    ]
    report, code = execute("iso", _pair(*halves, field={"p": 7}), Options())
    assert code == (reason is not None) and report["witness"]["reason"] == reason


def test_extract_needs_rank_two():
    doc = _doc({"module": _module([[3]]), "filtration": _flag((0, [[1]]))})
    _failure("extract", doc, 2, "NotMonodromyType", "rank-two input required")


@pytest.mark.parametrize(
    "module, fil, message",
    [
        # charpoly T^2 - 3: the slopes 1/2 are off the value group of Q3
        (_module([[0, 3], [1, 0]]), LINE_FLAG, "does not split over the coefficients"),
        # charpoly T^2 - 2: no root in Q3
        (_module([[0, 1], [2, 0]]), LINE_FLAG, "two simple slopes"),
        # N does not twist across phi = 1
        (_module(FULL2, n=[[[0, 1], [0, 0]]]), LINE_FLAG, "incoherent module"),
        (_module(_diag(3, 1), n=[[[0, 0], [1, 0]]]), _flag((0, FULL2)), "expected a two-step flag"),
        # N0 is 3 known modulo 3 below N1 = 243: the twist holds at N0's floor,
        # but N0 vanishes there and has no kernel line
        (_module(FULL2, _diag(9, 1), n=[[[0, 0], [_low(3), 0]], [[0, 0], [243, 0]]]),
         _flag((0, FULL2), (1, [[1, 0]]), embeddings=2), "operator kernel is not a line"),
    ],
)
def test_extract_refuses_non_monodromy_modules(module, fil, message):
    shape = (1, len(module["phi"]))
    _failure("extract", _doc({"module": module, "filtration": fil}, shape), 2, "NotMonodromyType", message)


def test_admissible_on_rank_one_has_no_certificates():
    doc = _doc({"module": _module([[3]]), "filtration": _flag((1, [[1]]))})
    report, code = execute("admissible", doc, Options())
    assert code == 0 and report["verdict"] is True
    assert report["witness"]["certificates"] == [] and report["witness"]["family"] is None


def test_admissible_reports_the_line_family():
    # phi = 3 I with N = 0: every line is stable; the line (1, 0) at jump 2
    # outweighs the cycle's slope 1
    doc = _doc({"module": _module(_diag(3, 3)), "filtration": _flag((0, FULL2), (2, [[1, 0]]))})
    report, code = execute("admissible", doc, Options())
    assert code == 1 and report["verdict"] is False
    assert report["witness"]["family"] == {"line_newton": 1, "max_line_hodge": 2, "ok": False}
    assert '"family":{"line_newton":1,"max_line_hodge":2,"ok":false}' in render(report, "json")


def test_admissible_family_pulls_later_slots_back():
    # cycle phi1 phi0 = 3 I over two slots; slot 1's line (0, 1) is the
    # line (-1, 1) at slot 0
    phi0, phi1 = [[1, 1], [0, 1]], [[3, -3], [0, 3]]
    fil = [
        [{"jump": 0, "basis": FULL2}, {"jump": 1, "basis": [[1, 0]]}],
        [{"jump": 0, "basis": FULL2}, {"jump": 1, "basis": [[0, 1]]}],
    ]
    report, code = execute("admissible", _doc({"module": _module(phi0, phi1), "filtration": fil}, (1, 2)), Options())
    assert code == 0 and report["verdict"] is True
    assert report["witness"]["family"] == {"line_newton": 1, "max_line_hodge": 1, "ok": True}


@pytest.mark.parametrize(
    "phi, field, message",
    [
        (FULL3, None, "repeated cycle eigenvalues are handled only in rank 2"),
        # charpoly T^2 - 3: off-grid slopes, and b = a is not nilpotent
        ([[0, 3], [1, 0]], None, "does not split at this precision"),
        # two roots of one valuation, but the residue field is too large to search
        (_diag(1, 2), {"p": 10007}, "does not split at this precision"),
    ],
)
def test_admissible_unsupported_cycles(phi, field, message):
    d = len(phi)
    doc = _doc({"module": _module(phi), "filtration": _flag((0, _diag(*[1] * d)))}, field=field)
    _failure("admissible", doc, 2, "UnsupportedEnumeration", message)


def test_validate_finds_a_slot_operator_that_is_not_nilpotent():
    # N0 = 3 known modulo 3 twists into N1 = 243 at N0's floor, but N1 is a
    # nonzero operator on a line
    module = _module([[1]], [[9]], n=[[[_low(3)]], [[243]]])
    report, code = execute("validate", _doc({"module": module}, (1, 2)), Options())
    assert code == 1 and report["verdict"] is False
    assert report["witness"]["reason"] == "slot operator is not nilpotent (slot 1)"


def test_trailing_zero_step_is_refused():
    doc = _doc({"module": _module(FULL2), "filtration": _flag((0, FULL2), (1, []))})
    _failure("hodge", doc, 2, "ValidationError", "trailing zero step must be dropped")


def test_validate_on_a_pair():
    good = {"module": _module(_diag(3, 1), n=[[[0, 0], [1, 0]]]), "filtration": LINE_FLAG}
    report, code = execute("validate", _pair(good, good), Options())
    assert code == 0 and report["verdict"] is True
    bad = {"module": _module(FULL2, n=[[[0, 1], [0, 0]]]), "filtration": LINE_FLAG}
    report, code = execute("validate", _pair(good, bad), Options())
    assert code == 1 and "twist" in report["witness"]["reason"]


@pytest.mark.parametrize("command", ["hodge", "admissible", "extract"])
def test_commands_needing_a_filtration_refuse_a_bare_module(command):
    _failure(command, _doc({"module": _module(FULL2)}), 2, "ValidationError", "needs a filtration")


def test_solve_ell_needs_a_direction():
    germ = {"alpha": [1, 1], "delta": [0, 3], "kappa": [[0], [2]], "ell": [1]}
    _failure("solve-ell", _doc({"germ": germ}), 2, "ValidationError", "needs a direction")


@pytest.mark.parametrize(
    "doc, message",
    [
        (_doc([]), "/payload: expected an object"),
        (_doc({"module": {"rank": 1, "phi": {}, "N": [[[0]]]}}), "/payload/module/phi: expected an array"),
        (_doc({"module": _module([[{"c": [[1.5]]}]])}), "/payload/module/phi/0/0/0/c/0/0: expected an integer or a fraction"),
        (_doc({"module": _module([[None]])}), "/payload/module/phi/0/0/0: expected a scalar"),
        (_doc({"module": _module([[{"c": [[1]]}]])}, field={"p": 3, "eL": 2}), "expected 2 coefficient rows"),
        (_doc({"ell": [1], "k": ["1"]}), "/payload/k/0: expected an integer"),
    ],
)
def test_malformed_inline_instances(doc, message):
    _failure("validate", doc, 2, "ParseError", message)


def test_field_and_element_refusals_name_their_path():
    _failure("validate", _doc({"module": _module([[1]])}, field={"p": 4}), 2, "ValidationError", "/field: p = 4 is not prime")
    # an exact 1/2 would need the inverse of 2 to infinitely many digits
    half = {"c": [["1/2"]], "prec": "inf"}
    _failure("validate", _doc({"module": _module([[half]])}), 2, "ValidationError", "/payload/module/phi/0/0/0/c: cannot invert")


def test_element_without_prec_takes_the_field_default():
    report, code = execute("newton", _doc({"module": _module([[{"c": [[3]]}]])}), Options())
    assert code == 0 and report["value"] == 1


def test_batch_manifest_needs_an_entries_array():
    for manifest in ({"entries": 5}, []):
        with pytest.raises(ParseError, match="/entries: manifest needs an entries array"):
            run_batch(manifest, Options())


# Entries known to one to three digits leave decisions that the working
# precision cannot make (a kernel against a square, an eigenline carried
# round the cycle).  Each instance below passes validate and was found by a
# seeded search over such entries.


@pytest.mark.parametrize(
    "module, fil, error_type, message",
    [
        (_module([[2, _low(27, 4), 4], [81, _low(1), _low(3, 3)], [_low(27, 4), -81, 9]]), _flag((0, FULL3)),
         "PrecisionLoss", "cycle eigenspace does not close up under the transitions"),
        # a simple root beside a quadratic without roots: its line does not
        # come back under the cycle at the working precision
        (_module([[27, _low(4, 2), _low(-1, 3)], [2, 3, -81], [-3, 27, 0]]), _flag((0, FULL3)),
         "PrecisionLoss", "cycle eigenspace does not close up under the transitions"),
        # a scalar cycle at precision whose family line does not come back
        (_module([[81, 0], [_low(-99), 81]]), _flag((0, FULL2), (1, [[_low(-81, 3), 27]])),
         "PrecisionLoss", "line bundle does not close up under the transitions"),
        # eigenlines of the cycle that the transition does not carry back
        # onto themselves at the working precision
        (_module([[1, _low(2), _low(3, 3)], [-3, -3, 1], [27, -99, 6]]), _flag((0, FULL3)),
         "PrecisionLoss", "cycle eigenspace does not close up under the transitions"),
        (_module([[0, 2, _low(3, 2)], [-1, 2, _low(3, 3)], [-99, _low(81, 2), 3]]), _flag((0, FULL3)),
         "PrecisionLoss", "cycle eigenspace does not close up under the transitions"),
        # the image of an eigenline reduces against the propagated line by
        # the rule that built it, so a line that closes up restricts every
        # transition; this one does not close up
        (_module([[_low(6, 2), 0, 1], [-3, -3, -1], [27, -1, 81]]), _flag((0, FULL3)),
         "PrecisionLoss", "cycle eigenspace does not close up under the transitions"),
    ],
)
def test_admissible_refusals_at_low_precision(module, fil, error_type, message):
    # a decision the working precision cannot make exits 3, the rest 2
    code = 3 if error_type == "PrecisionLoss" else 2
    _failure("admissible", _doc({"module": module, "filtration": fil}), code, error_type, message)


@pytest.mark.parametrize(
    "module, line, code, error_type, message",
    [
        # N^2 vanishes, so N maps the heavy line into its kernel line; the
        # marked line meets that line at the working precision
        (_module([[2, _low(27, 3)], [_low(3), 6]], n=[[[_low(6), -1], [_low(-81, 3), 27]]]), [_low(6, 2), 0],
         2, "NotMonodromyType", "marked line meets the kernel line"),
        (_module([[81, _low(4, 3)], [6, _low(2)]], n=[[[_low(27, 3), 27], [_low(3), _low(6)]]]), [3, _low(-3, 2)],
         3, "PrecisionLoss", "cannot certify the operator on the heavy line"),
        (_module([[27, _low(1)], [-3, 1]], n=[[[-81, _low(-81)], [-81, _low(81, 4)]]]), [_low(6, 4), 1],
         3, "PrecisionLoss", "marked line could not be expressed in the slope frame"),
    ],
)
def test_extract_refusals_at_low_precision(module, line, code, error_type, message):
    doc = _doc({"module": module, "filtration": _flag((0, FULL2), (1, [line]))})
    _failure("extract", doc, code, error_type, message)


# Cycle roots certified distinct whose eigenspace comes out a plane at the
# working precision: the precision is lost, the input is not unsupported.
# The instance was found by a seeded search over entries known to one to
# four digits.


def test_iso_refuses_a_non_line_eigenspace_at_precision():
    # the roots 27 + O(3^6), 3 + O(3^4) and 1 + O(3^3) have distinct
    # valuations, and the cycle minus the first has a plane for its kernel
    half = {
        "module": _module([[27, -81, 243], [27, 3, 4], [_low(27, 3), 0, _low(1, 3)]]),
        "filtration": _flag((0, FULL3), (1, [[1, 0, 0]])),
    }
    _failure("iso", _pair(half, half), 3, "PrecisionLoss", "cycle eigenspace is not a line")


# Refusals of the loose elimination rule, which left an entry zero only at
# its floor in a pivot column, that the strict rule answers.  Each verdict
# is checked on exact lifts of the input.


def _lift_answers(command, doc, count=20):
    """(exit code, verdict) of command on count exact lifts of the instance;
    a pair's halves are lifted by equal generators, so equal halves stay
    equal."""
    instance = parse_instance(doc)
    out = []
    for seed in range(count):
        if instance.kind == "pair":
            objects = {key: exact_lift_module(*instance.objects[key], random.Random(seed)) for key in ("first", "second")}
        else:
            lifted = exact_lift_module(instance.objects["module"], instance.objects["filtration"], random.Random(seed))
            objects = dict(zip(("module", "filtration"), lifted))
        report, code = cli.run(command, Instance(instance.desc, instance.shape, instance.kind, objects), Options())
        out.append((code, report["verdict"]))
    return out


def test_admissible_answers_a_cycle_nilpotent_at_its_floors():
    # a = 1 + b, b = [[O(3), -99], [-81, O(3)]]: b^2 vanishes modulo its
    # floors and b has a line for its kernel
    doc = _doc({"module": _module([[_low(1), -99], [-81, _low(1)]]), "filtration": _flag((0, FULL2))})
    report, code = execute("admissible", doc, Options())
    assert (code, report["verdict"]) == (0, True)
    # the lifts' roots share a residue, which roots_in_field refuses, so the
    # verdict is checked on each lift's Newton polygon: a unit determinant
    # and a unit trace make both slopes 0, the Hodge number of every
    # submodule under the trivial flag, so every lift is admissible
    instance = parse_instance(doc)
    module, fil = instance.objects["module"], instance.objects["filtration"]
    for seed in range(20):
        (a,) = exact_lift_module(module, fil, random.Random(seed))[0].phi
        assert det(a).valuation() == 0 and trace(a).valuation() == 0


def test_iso_answers_a_cycle_known_to_two_digits():
    # the cycle has trace -1 + O(3^2) and a determinant of valuation 1
    doc = _pair(*2 * [{"module": _module([[-3, 2], [27, _low(2, 2)]]), "filtration": LINE_FLAG}])
    report, code = execute("iso", doc, Options())
    assert (code, report["verdict"]) == (0, True)
    assert _lift_answers("iso", doc) == [(0, True)] * 20


# Inputs on which a stable line's residual modulo Fil^1 is zero only at the
# floors of loose entries, found by a seeded search over cycles with entries
# known to one to four digits.  Exact lifts leave the line outside Fil^1 and
# answer True, so the verdict False that counting such a residual as
# containment would give is refused instead.


@pytest.mark.parametrize(
    "phi, line",
    [
        ([[[-3, _low(-9)], [27, -1]]], [6, 2]),
        ([[[3, _low(6)], [-99, _low(4)]]], [-81, 27]),
        ([[[9, _low(-99)], [_low(0, 4), 4]], [[81, 4], [1, 2]]], [27, _low(3, 4)]),
        ([[[-3, -81, 0], [_low(-2, 4), -1, -1], [_low(27, 4), -1, -9]]], [_low(243, 4), -27, -3]),
        ([[[-3, -1, _low(-99, 4)], [4, -3, -3], [6, -2, _low(3, 3)]]], [-81, -2, -1]),
    ],
)
def test_admissible_refuses_a_residual_zero_only_at_loose_floors(phi, line):
    d, f = len(line), len(phi)
    doc = _doc({"module": _module(*phi), "filtration": _flag((0, _diag(*[1] * d)), (1, [line]), embeddings=f)}, (1, f))
    _failure("admissible", doc, 3, "PrecisionLoss", "intersection with a filtration step is not certified")
    assert (0, True) in _lift_answers("admissible", doc)


def test_admissible_leaves_undecided_certificates_out_of_an_unbalanced_verdict():
    # t_N = 2 against t_H = 1 decides False on every lift; three of the six
    # submodules meet a step in a residual zero only at loose floors, so
    # their certificates are left out of the witness
    doc = _doc({
        "module": _module([[_low(6, 2), -1, _low(-99)], [9, _low(1, 3), 0], [9, _low(2, 2), 3]]),
        "filtration": _flag((0, FULL3), (1, [[_low(27), -1, 6], [-99, _low(-81), _low(3, 3)]])),
    })
    report, code = execute("admissible", doc, Options())
    assert (code, report["verdict"], report["witness"]["balanced"]) == (1, False, False)
    assert len(report["witness"]["certificates"]) == 3
    assert _lift_answers("admissible", doc) == [(1, False)] * 20


def test_extract_answers_on_a_twist_pair_known_to_two_digits():
    # the twist pair is 1 + O(3^2) and 3 + O(3^2), and the cycle minus the
    # heavy root has a line for its kernel.  extract presumes its input of
    # exceptional-zero type, a closed condition that random exact lifts
    # miss (exit 2), so its record is checked on the lifts of that type:
    # here the one lift whose corner x solves 3 tr^2 = 16 det, that is
    # 3x^2 - 10x - 9501 = 0, with x = 3 mod 9
    doc = _doc({"module": _module([[_low(3, 2), 6], [-99, 1]]), "filtration": LINE_FLAG})
    report, code = execute("extract", doc, Options())
    assert code == 0, report
    assert {c for c, _ in _lift_answers("extract", doc)} == {2}
    x, top = 3, 3**64
    for _ in range(8):
        x = (x - (3 * x * x - 10 * x - 9501) * pow(6 * x - 10, -1, top)) % top
    lift_doc = _doc({"module": _module([[{"c": [[str(x)]], "prec": 60}, 6], [-99, 1]]), "filtration": LINE_FLAG})
    want, code = execute("extract", lift_doc, Options())
    assert code == 0 and x % 9 == 3
    desc = parse_instance(doc).desc
    got, lifted = report["value"], want["value"]
    for x, y in ((got["alpha"], lifted["alpha"]), (got["ell"][0], lifted["ell"][0])):
        x = parse_element(desc, x, "/")
        assert x == parse_element(desc, y, "/") and x.prec == 2
    assert [got[k] for k in ("m", "k", "degenerate")] == [lifted[k] for k in ("m", "k", "degenerate")]
