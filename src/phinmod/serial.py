"""JSON instance format: field towers, elements, modules, flags, and records.

Parsing threads a JSON-pointer path through every helper so a malformed file
reports exactly where it went wrong.  Emission is canonical: coefficients as
exact fraction strings on the pi/theta grid, precision as an integer, a
fraction string, or "inf".  One parse/emit cycle is idempotent.
"""
from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from .coeff import DualNumber, GaloisShape, ProductElement
from .cohomology import H1Tate, H1Trivial
from .colmez import FamilyGerm
from .errors import ParseError, ValidationError
from .filtration import Filtration
from .linalg import Matrix, Subspace, mat
from .modules import PhiNModule
from .monodromy import MonodromyData
from .padic import INF, MAX_P, FieldElement, LocalFieldDesc
from .record import frozen


def _fail(path: str, msg: str):
    raise ParseError(f"{path or '/'}: {msg}")


def _get(data: dict, key: str, path: str):
    if key not in data:
        _fail(path, f"missing key {key!r}")
    return data[key]


def _expect_dict(data, path: str) -> dict:
    if not isinstance(data, dict):
        _fail(path, "expected an object")
    return data


def _expect_list(data, path: str, length: int | None = None) -> list:
    if not isinstance(data, list):
        _fail(path, "expected an array")
    if length is not None and len(data) != length:
        _fail(path, f"expected {length} entries, got {len(data)}")
    return data


def load_json(source, what: str):
    """Decode UTF-8 bytes or text as JSON.  Every failure is a ParseError at
    /, including the ones json.loads does not report as JSONDecodeError: an
    integer literal past Python's 4300-digit int-to-str limit (a plain
    ValueError) and nesting past the recursion limit."""
    try:
        if isinstance(source, (bytes, bytearray)):
            source = source.decode("utf-8")
        return json.loads(source)
    except json.JSONDecodeError as exc:
        reason = f"{exc.msg} at line {exc.lineno}"
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    except ValueError:
        reason = "integer literal too long"
    except RecursionError:
        reason = "nested too deeply"
    raise ParseError(f"/: {what} ({reason})")


def _is_int(data) -> bool:
    """A JSON integer; true and false decode to bool, a subclass of int."""
    return isinstance(data, int) and not isinstance(data, bool)


def parse_fraction(data, path: str) -> Fraction:
    if not (_is_int(data) or isinstance(data, str)):
        _fail(path, "expected an integer or a fraction string")
    if isinstance(data, str) and ("e" in data or "E" in data):
        # "1e10000000" spells ten characters and costs 13 s to expand
        _fail(path, "exponent notation is not accepted")
    try:
        return Fraction(data)
    except (ValueError, ZeroDivisionError):
        _fail(path, f"not a rational number: {data!r}")


def fraction_out(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else str(x)


def _prec_in(data, path: str):
    if data is None:
        return None
    if data == "inf":
        return INF
    return parse_fraction(data, path)


def _prec_out(prec):
    if prec is INF:
        return "inf"
    return fraction_out(prec)


# ---------------------------------------------------------------------------
# field and shape

# Reports print every mantissa as a decimal integer, and Python refuses
# int-to-str conversions beyond 4300 digits.  A mantissa at precision prec
# has about prec * log10(p) digits, so that product is capped well below the
# limit, leaving room for the powers of p a computation puts in denominators.
# Exact values have no precision to cap them: a product of exact inputs can
# pass the limit, and dump_element refuses it.
MAX_PREC_DIGITS = 3000

# Building a tower costs about 4 e_L^2 f_L^3 exact products for its
# multiplication table (each monomial pi^a theta^b formed once), on integers
# that grow with the polynomial coefficients, plus about f_L^3 log p
# products modulo p for the irreducibility test.  At the largest admitted p
# with fL = eL = 6, coefficients of 50 digits (room for p^2) build in about
# 0.04 s and of 100 digits in about 0.08 s; fL = eL = 8 with 50-digit
# coefficients takes about 0.2 s (Python 3.11, one x86-64 core).
MAX_TOWER_DEGREE = 6
MAX_COEFF_DIGITS = 50

# validate, newton and iso run Berkowitz characteristic polynomials (about
# rank^4 products) and rref (rank^3): a rank-16 module with full-precision
# entries over Q3(sqrt 3) at precision 60 takes about 0.2 s, rank 24 about
# 0.7 s.  Submodule enumeration stops at rank 3 whatever this bound.
MAX_RANK = 16

# Every embedding carries its own flag and jump pair, and end0-check cuts out
# the filtration of the rank-3 End0 per embedding: a cold end0-check on shape
# 16 x 16 (256 embeddings) takes about 0.4 s on Q3 at precision 60.
MAX_SHAPE_DEGREE = 16

# An element coefficient is no wider than the widest mantissa an admitted
# precision carries, so what a report prints parses back; a longer literal
# used to reach Python's 4300-digit int parser, whose refusal came back as a
# message quoting the whole literal.
MAX_ELEMENT_DIGITS = MAX_PREC_DIGITS
_ELEMENT_LIMIT = 10**MAX_ELEMENT_DIGITS


def _tower_coeff(data, path: str) -> int:
    c = parse_fraction(data, path)
    if c.denominator != 1:
        _fail(path, "expected an integer")
    if abs(c.numerator) >= 10**MAX_COEFF_DIGITS:
        _fail(path, f"coefficient exceeds the bound of {MAX_COEFF_DIGITS} digits")
    return c.numerator


def parse_field(data, path: str = "/field", override_prec: int | None = None) -> LocalFieldDesc:
    data = _expect_dict(data, path)
    p = _get(data, "p", path)
    if not _is_int(p) or p < 2:
        _fail(path + "/p", "expected a prime integer")
    if p >= MAX_P:
        _fail(path + "/p", f"p must be below {MAX_P}, where primality is certified")
    f_l = data.get("fL", 1)
    e_l = data.get("eL", 1)
    for name, val in (("fL", f_l), ("eL", e_l)):
        if not _is_int(val) or val < 1:
            _fail(f"{path}/{name}", "expected a positive integer")
        if val > MAX_TOWER_DEGREE:
            _fail(f"{path}/{name}", f"tower degree {val} exceeds the bound {MAX_TOWER_DEGREE}")
    if "unram_poly" in data:
        raw = _expect_list(data["unram_poly"], path + "/unram_poly", f_l + 1)
        unram = tuple(_tower_coeff(c, f"{path}/unram_poly/{i}") for i, c in enumerate(raw))
    else:
        unram = (0, 1) if f_l == 1 else _fail(path, "unram_poly required when fL > 1")
    if "eis_poly" in data:
        raw = _expect_list(data["eis_poly"], path + "/eis_poly", e_l + 1)
        eis = []
        for i, coeff in enumerate(raw):
            row = _expect_list(coeff, f"{path}/eis_poly/{i}", f_l)
            eis.append(
                tuple(_tower_coeff(c, f"{path}/eis_poly/{i}/{j}") for j, c in enumerate(row))
            )
        eis = tuple(eis)
    else:
        base = [tuple([0] * f_l) for _ in range(e_l + 1)]
        base[0] = tuple([-p] + [0] * (f_l - 1))
        base[e_l] = tuple([1] + [0] * (f_l - 1))
        eis = tuple(base)
    prec = data.get("prec", 60)
    if override_prec is not None:
        prec = override_prec
    if not _is_int(prec) or prec < 1:
        _fail(path + "/prec", "expected a positive integer")
    if prec * math.log10(p) > MAX_PREC_DIGITS:
        _fail(path + "/prec", f"precision {prec} exceeds the bound prec * log10(p) <= {MAX_PREC_DIGITS}")
    try:
        return LocalFieldDesc(p, f_l, e_l, unram, eis, prec)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def dump_field(desc: LocalFieldDesc) -> dict:
    return {
        "p": desc.p,
        "fL": desc.f_l,
        "eL": desc.e_l,
        "unram_poly": [str(c) for c in desc.unram_poly],
        "eis_poly": [[str(c) for c in row] for row in desc.eis_poly],
        "prec": desc.default_prec,
    }


def parse_shape(data, path: str = "/shape") -> GaloisShape:
    data = _expect_dict(data, path)
    e = _get(data, "e", path)
    f = _get(data, "f", path)
    for name, val in (("e", e), ("f", f)):
        if not _is_int(val) or val < 1:
            _fail(f"{path}/{name}", "expected a positive integer")
        if val > MAX_SHAPE_DEGREE:
            _fail(f"{path}/{name}", f"shape degree {val} exceeds the bound {MAX_SHAPE_DEGREE}")
    return GaloisShape(e, f)


def dump_shape(shape: GaloisShape) -> dict:
    return {"e": shape.e, "f": shape.f}


# ---------------------------------------------------------------------------
# elements


def _coefficient(data, path: str) -> Fraction:
    # a sign and spaces aside, numerator and denominator are checked by
    # length before Python parses them
    if isinstance(data, str) and any(len(part) > MAX_ELEMENT_DIGITS + 8 for part in data.split("/")):
        _fail(path, f"coefficient exceeds the bound of {MAX_ELEMENT_DIGITS} digits")
    c = parse_fraction(data, path)
    if abs(c.numerator) >= _ELEMENT_LIMIT or c.denominator >= _ELEMENT_LIMIT:
        _fail(path, f"coefficient exceeds the bound of {MAX_ELEMENT_DIGITS} digits")
    return c


def parse_element(desc: LocalFieldDesc, data, path: str) -> FieldElement:
    if isinstance(data, (int, str)) and not isinstance(data, bool):
        return desc.from_rational(_coefficient(data, path))
    if isinstance(data, list):
        return _element_from_grid(desc, data, None, path)
    if isinstance(data, dict):
        grid = _get(data, "c", path)
        prec = _prec_in(data.get("prec"), path + "/prec")
        # the field's own bound: p^prec is built for every coefficient
        if prec is not None and prec is not INF and prec * math.log10(desc.p) > MAX_PREC_DIGITS:
            _fail(path + "/prec", f"precision {prec} exceeds the bound prec * log10(p) <= {MAX_PREC_DIGITS}")
        return _element_from_grid(desc, grid, prec, path + "/c")
    _fail(path, "expected a scalar, coefficient array, or element object")


def _element_from_grid(desc, grid, prec, path: str) -> FieldElement:
    grid = _expect_list(grid, path)
    e, f = desc.e_l, desc.f_l
    if grid and not isinstance(grid[0], list):
        # flat, index a*f_l + b: each entry's pointer is its flat index
        if len(grid) != e * f:
            _fail(path, f"flat coefficient list must have {e * f} entries")
        flat = [_coefficient(c, f"{path}/{i}") for i, c in enumerate(grid)]
        rows = [flat[a * f : (a + 1) * f] for a in range(e)]
    else:
        rows = []
        for a, row in enumerate(grid):
            row = _expect_list(row, f"{path}/{a}", f)
            rows.append([_coefficient(c, f"{path}/{a}/{b}") for b, c in enumerate(row)])
        if len(rows) != e:
            _fail(path, f"expected {e} coefficient rows")
    try:
        return desc.element(rows, prec)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def dump_element(x: FieldElement) -> dict:
    try:
        coeffs = [[str(c) for c in row] for row in x.coefficients()]
    except ValueError:
        # the int-to-str limit, the one ValueError str() of a Fraction raises
        limit = sys.get_int_max_str_digits()
        raise ValidationError(f"result coefficient exceeds the bound of {limit} digits a report prints") from None
    return {"c": coeffs, "prec": _prec_out(x.prec)}


def parse_product(desc: LocalFieldDesc, shape: GaloisShape, data, path: str) -> ProductElement:
    data = _expect_list(data, path, shape.n)
    comps = [parse_element(desc, c, f"{path}/{i}") for i, c in enumerate(data)]
    return ProductElement.from_components(desc, shape, comps)


def dump_product(x: ProductElement) -> list:
    return [dump_element(c) for c in x.comps]


def _parse_dual(desc, shape, data, path: str, product: bool) -> DualNumber:
    data = _expect_list(data, path, 2)
    if product:
        parts = [parse_product(desc, shape, c, f"{path}/{i}") for i, c in enumerate(data)]
    else:
        parts = [parse_element(desc, c, f"{path}/{i}") for i, c in enumerate(data)]
    return DualNumber(parts[0], parts[1])


# ---------------------------------------------------------------------------
# modules and filtrations


def parse_matrix(desc: LocalFieldDesc, data, path: str, d: int) -> Matrix:
    data = _expect_list(data, path, d)
    rows = []
    for i, row in enumerate(data):
        row = _expect_list(row, f"{path}/{i}", d)
        rows.append([parse_element(desc, x, f"{path}/{i}/{j}") for j, x in enumerate(row)])
    return mat(rows)


def dump_matrix(a: Matrix) -> list:
    return [[dump_element(x) for x in row] for row in a]


def parse_module(desc: LocalFieldDesc, shape: GaloisShape, data, path: str) -> PhiNModule:
    data = _expect_dict(data, path)
    rank = _get(data, "rank", path)
    if not _is_int(rank) or rank < 1:
        _fail(path + "/rank", "expected a positive integer")
    if rank > MAX_RANK:
        _fail(path + "/rank", f"rank {rank} exceeds the bound {MAX_RANK}")
    phi_raw = _expect_list(_get(data, "phi", path), path + "/phi", shape.f)
    n_raw = _expect_list(_get(data, "N", path), path + "/N", shape.f)
    phi = tuple(parse_matrix(desc, m, f"{path}/phi/{i}", rank) for i, m in enumerate(phi_raw))
    nmat = tuple(parse_matrix(desc, m, f"{path}/N/{i}", rank) for i, m in enumerate(n_raw))
    return PhiNModule(desc, shape, rank, phi, nmat)


def dump_module(m: PhiNModule) -> dict:
    return {
        "rank": m.rank,
        "phi": [dump_matrix(a) for a in m.phi],
        "N": [dump_matrix(a) for a in m.nmat],
    }


def parse_filtration(
    desc: LocalFieldDesc, shape: GaloisShape, rank: int, data, path: str
) -> Filtration:
    data = _expect_list(data, path, shape.n)
    steps = []
    for t, sig in enumerate(data):
        sig = _expect_list(sig, f"{path}/{t}")
        parsed = []
        for s, step in enumerate(sig):
            step = _expect_dict(step, f"{path}/{t}/{s}")
            jump = _get(step, "jump", f"{path}/{t}/{s}")
            if not _is_int(jump):
                _fail(f"{path}/{t}/{s}/jump", "expected an integer")
            basis_raw = _expect_list(_get(step, "basis", f"{path}/{t}/{s}"), f"{path}/{t}/{s}/basis")
            gens = []
            for g, vec in enumerate(basis_raw):
                vec = _expect_list(vec, f"{path}/{t}/{s}/basis/{g}", rank)
                gens.append(
                    tuple(
                        parse_element(desc, x, f"{path}/{t}/{s}/basis/{g}/{i}")
                        for i, x in enumerate(vec)
                    )
                )
            parsed.append((jump, Subspace.from_vectors(desc, rank, gens)))
        steps.append(tuple(parsed))
    return Filtration(desc, shape, rank, tuple(steps))


def dump_filtration(fil: Filtration) -> list:
    return [
        [
            {"jump": jump, "basis": dump_subspace(v)}
            for jump, v in sig
        ]
        for sig in fil.steps
    ]


def dump_subspace(v: Subspace) -> list:
    return [[dump_element(x) for x in g] for g in v.gens]


# ---------------------------------------------------------------------------
# parameter records


def parse_monodromy(desc: LocalFieldDesc, shape: GaloisShape, data, path: str) -> MonodromyData:
    data = _expect_dict(data, path)
    alpha = parse_element(desc, _get(data, "alpha", path), path + "/alpha")
    m_raw = _expect_list(_get(data, "m", path), path + "/m", shape.n)
    k_raw = _expect_list(_get(data, "k", path), path + "/k", shape.n)
    for name, vec in (("m", m_raw), ("k", k_raw)):
        for i, x in enumerate(vec):
            if not _is_int(x):
                _fail(f"{path}/{name}/{i}", "expected an integer")
    ell = parse_product(desc, shape, _get(data, "ell", path), path + "/ell")
    degenerate = data.get("degenerate", False)
    if not isinstance(degenerate, bool):
        _fail(path + "/degenerate", "expected a boolean")
    return MonodromyData(alpha, tuple(m_raw), tuple(k_raw), ell, degenerate)


def dump_monodromy(data: MonodromyData) -> dict:
    return {
        "alpha": dump_element(data.alpha),
        "m": list(data.m),
        "k": list(data.k),
        "ell": dump_product(data.ell),
        "degenerate": data.degenerate,
    }


def parse_germ(desc: LocalFieldDesc, shape: GaloisShape, data, path: str) -> FamilyGerm:
    data = _expect_dict(data, path)
    alpha = _parse_dual(desc, shape, _get(data, "alpha", path), path + "/alpha", False)
    delta = _parse_dual(desc, shape, _get(data, "delta", path), path + "/delta", False)
    kappa = _parse_dual(desc, shape, _get(data, "kappa", path), path + "/kappa", True)
    ell = parse_product(desc, shape, _get(data, "ell", path), path + "/ell")
    return FamilyGerm(alpha, delta, kappa, ell)


def dump_germ(g: FamilyGerm) -> dict:
    return {
        "alpha": [dump_element(g.alpha.a0), dump_element(g.alpha.a1)],
        "delta": [dump_element(g.delta.a0), dump_element(g.delta.a1)],
        "kappa": [dump_product(g.kappa.a0), dump_product(g.kappa.a1)],
        "ell": dump_product(g.ell),
    }


def parse_classes(desc, shape, data, path: str) -> tuple[H1Trivial, H1Tate]:
    data = _expect_dict(data, path)
    x = _expect_dict(_get(data, "x", path), path + "/x")
    y = _expect_dict(_get(data, "y", path), path + "/y")
    a1 = parse_element(desc, _get(x, "a1", path + "/x"), path + "/x/a1")
    a2 = parse_product(desc, shape, _get(x, "a2", path + "/x"), path + "/x/a2")
    b1 = parse_element(desc, _get(y, "b1", path + "/y"), path + "/y/b1")
    b2 = parse_product(desc, shape, _get(y, "b2", path + "/y"), path + "/y/b2")
    return H1Trivial(a1, a2), H1Tate(b1, b2)


def dump_classes(x: H1Trivial, y: H1Tate) -> dict:
    return {
        "x": {"a1": dump_element(x.a1), "a2": dump_product(x.a2)},
        "y": {"b1": dump_element(y.b1), "b2": dump_product(y.b2)},
    }


# ---------------------------------------------------------------------------
# instances


@frozen
class Instance:
    desc: LocalFieldDesc
    shape: GaloisShape
    kind: str
    objects: dict


def parse_instance(source, override_prec: int | None = None) -> Instance:
    """Parse bytes, text, or an already-decoded object into an Instance;
    the payload kind is inferred from the keys present.  Parsing checks
    structure only: a parameter record's constraints (check_constraints)
    are evaluated by the command that uses it, after the command has
    checked the payload kind."""
    if isinstance(source, (bytes, bytearray, str)):
        data = load_json(source, "invalid JSON")
    else:
        data = source
    data = _expect_dict(data, "")
    desc = parse_field(_get(data, "field", ""), "/field", override_prec)
    shape = parse_shape(_get(data, "shape", ""), "/shape")
    payload = _expect_dict(_get(data, "payload", ""), "/payload")
    objects: dict = {}
    if "module" in payload:
        kind = "module"
        module = parse_module(desc, shape, payload["module"], "/payload/module")
        objects["module"] = module
        if "filtration" in payload:
            objects["filtration"] = parse_filtration(
                desc, shape, module.rank, payload["filtration"], "/payload/filtration"
            )
    elif "first" in payload or "second" in payload:
        kind = "pair"
        for key in ("first", "second"):
            half = _expect_dict(_get(payload, key, "/payload"), f"/payload/{key}")
            module = parse_module(desc, shape, _get(half, "module", f"/payload/{key}"), f"/payload/{key}/module")
            fil = parse_filtration(
                desc,
                shape,
                module.rank,
                _get(half, "filtration", f"/payload/{key}"),
                f"/payload/{key}/filtration",
            )
            objects[key] = (module, fil)
    elif "monodromy" in payload:
        kind = "monodromy"
        objects["monodromy"] = parse_monodromy(desc, shape, payload["monodromy"], "/payload/monodromy")
    elif "germ" in payload:
        kind = "germ"
        objects["germ"] = parse_germ(desc, shape, payload["germ"], "/payload/germ")
        if "direction" in payload:
            objects["direction"] = parse_product(desc, shape, payload["direction"], "/payload/direction")
    elif "classes" in payload:
        kind = "classes"
        objects["x"], objects["y"] = parse_classes(desc, shape, payload["classes"], "/payload/classes")
    elif "ell" in payload:
        kind = "bracket"
        objects["ell"] = parse_product(desc, shape, payload["ell"], "/payload/ell")
        k_raw = _expect_list(_get(payload, "k", "/payload"), "/payload/k", shape.n)
        for i, x in enumerate(k_raw):
            if not _is_int(x):
                _fail(f"/payload/k/{i}", "expected an integer")
        objects["k"] = tuple(k_raw)
    else:
        _fail("/payload", "no recognized payload keys")
    return Instance(desc, shape, kind, objects)


def dump_instance(instance: Instance) -> dict:
    """Inverse of parse_instance up to normalization; dumping a freshly
    parsed instance and parsing the dump is the identity."""
    payload: dict = {}
    objs = instance.objects
    if instance.kind == "module":
        payload["module"] = dump_module(objs["module"])
        if "filtration" in objs:
            payload["filtration"] = dump_filtration(objs["filtration"])
    elif instance.kind == "pair":
        for key in ("first", "second"):
            module, fil = objs[key]
            payload[key] = {
                "module": dump_module(module),
                "filtration": dump_filtration(fil),
            }
    elif instance.kind == "monodromy":
        payload["monodromy"] = dump_monodromy(objs["monodromy"])
    elif instance.kind == "germ":
        payload["germ"] = dump_germ(objs["germ"])
        if "direction" in objs:
            payload["direction"] = dump_product(objs["direction"])
    elif instance.kind == "classes":
        payload["classes"] = dump_classes(objs["x"], objs["y"])
    else:
        payload["ell"] = dump_product(objs["ell"])
        payload["k"] = list(objs["k"])
    return {
        "field": dump_field(instance.desc),
        "shape": dump_shape(instance.shape),
        "payload": payload,
    }
