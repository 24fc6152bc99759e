"""Seeded input generator for the benchmark.

Pure Python with exact rationals; it never imports phinmod, so the program
under test only ever sees the documents produced here.  The same
(workload, seed) pair gives byte-identical output (see ``canonical``).

Field elements are coordinate grids ``[[c_00, ...], ...]`` indexed
[pi-power][theta-power], each coordinate an exact fraction string, which is
the instance-file grammar phinmod's parser reads.  Every tower used here has
Eisenstein polynomial x^eL - 3, so multiplying by pi shifts the grid rows up
and wraps the top row times 3.

Records follow the parameter laws of the acceptance gate (criterion 02):
  c1: k_t > m_t for every embedding t,
  c2: e * (2v + f) == sum(m) + sum(k),
  c3: e * v >= sum(m)  (v = valuation of alpha).
A record is admissible exactly when all three hold.  c1 and c2 together
force c3, so a "violating" record keeps c1, breaks c3 and hence c2; the
program must build it with ``check=False`` and then reject it.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

P = 3

# name -> instance "field" block (prec is added per workload)
TOWERS = {
    "q3": {"p": 3, "fL": 1, "eL": 1, "unram_poly": ["0", "1"], "eis_poly": [["-3"], ["1"]]},
    "q3ram": {"p": 3, "fL": 1, "eL": 2, "unram_poly": ["0", "1"], "eis_poly": [["-3"], ["0"], ["1"]]},
    "q9": {"p": 3, "fL": 2, "eL": 1, "unram_poly": ["1", "0", "1"], "eis_poly": [["-3", "0"], ["1", "0"]]},
}
SHAPES = ((1, 1), (1, 2), (2, 1))

# Per (tower, shape) cell: one admissible record with m = 0 (also used for
# end0_check), one admissible record with m != 0 where the budget allows,
# one kernel-line-violating record and one degenerate record.
RECORD_KINDS = ("end0", "admissible", "violating", "degenerate")


# ---------------------------------------------------------------------------
# exact grid arithmetic over one tower


def _dims(tower: str) -> tuple[int, int]:
    t = TOWERS[tower]
    return t["eL"], t["fL"]


def g_scalar(tower: str, q) -> list:
    e_l, f_l = _dims(tower)
    grid = [[Fraction(0)] * f_l for _ in range(e_l)]
    grid[0][0] = Fraction(q)
    return grid


def g_add(x, y):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(x, y)]


def g_scale(q, x):
    return [[q * a for a in r] for r in x]


def g_times_pi(x):
    return [[P * c for c in x[-1]]] + [list(r) for r in x[:-1]]


def g_out(x) -> list:
    return [[str(c) for c in r] for r in x]


def mat_apply(g, x):
    """Rational 2x2 matrix g times a vector of grids."""
    return [
        g_add(g_scale(g[i][0], x[0]), g_scale(g[i][1], x[1])) for i in range(2)
    ]


def conj(ga, m, gb_inv):
    """ga * m * gb_inv for rational ga, gb_inv and a grid matrix m."""
    cols = [mat_apply(ga, [m[0][j], m[1][j]]) for j in range(2)]  # ga * m, by columns
    am = [[cols[j][i] for j in range(2)] for i in range(2)]
    return [
        [g_add(g_scale(gb_inv[0][j], am[i][0]), g_scale(gb_inv[1][j], am[i][1])) for j in range(2)]
        for i in range(2)
    ]


def inv2(g):
    det = Fraction(g[0][0] * g[1][1] - g[0][1] * g[1][0])
    return [[g[1][1] / det, -g[0][1] / det], [-g[1][0] / det, g[0][0] / det]]


# ---------------------------------------------------------------------------
# random pieces


# Nonzero digits only: a zero coordinate or a sparse conjugator makes an
# input much cheaper, and the seed should change values, not work.
_DIGITS = (1, 2, 4, -1, -2, -4)
_SHEARS = (2, 3, 5, 7, 9, -2, -3, -5, -7, -9)
_UNITS = (1, 2, 4, 5, 7)


def _unit_grid(rng, tower: str):
    e_l, f_l = _dims(tower)
    grid = [[Fraction(rng.choice(_DIGITS)) for _ in range(f_l)] for _ in range(e_l)]
    grid[0][0] = Fraction(rng.choice((1, 2, 4, 5, 7, 8, -1, -2)))
    return grid


def _conjugator(rng) -> list[list[int]]:
    """Integral 2x2 matrix with determinant prime to p and no zero entry:
    two shears and two unit row scalings (the moves of
    linalg.sample_invertible)."""
    c1, c2 = rng.choice(_SHEARS), rng.choice(_SHEARS)
    u1, u2 = rng.choice(_UNITS), rng.choice(_UNITS)
    # [[1, c1], [0, 1]] then row 1 += c2 * row 0, then scale the rows
    return [[u1, u1 * c1], [u2 * c2, u2 * (1 + c1 * c2)]]


def _split(rng, total: int, parts: int) -> list[int]:
    out = [0] * parts
    for _ in range(total):
        out[rng.randrange(parts)] += 1
    return out


def _jumps(rng, kind: str, e: int, f: int, e_l: int, j: int):
    """(m, k) for alpha valuation v = j / e_l, following the gate laws."""
    n = e * f
    total = e * (2 * j + f * e_l) // e_l  # e * (2v + f), an integer here
    budget = (e * j) // e_l  # floor(e * v)
    if kind == "end0":
        m = [0] * n
    elif kind == "violating":
        m = _split(rng, budget + 1 + rng.randrange(2), n)
        return m, [x + 1 + rng.randrange(3) for x in m]
    else:
        m = _split(rng, rng.randrange(budget + 1), n)
    extra = _split(rng, total - 2 * sum(m) - n, n)
    return m, [x + 1 + d for x, d in zip(m, extra)]


def _laws(e: int, f: int, e_l: int, j: int, m, k) -> bool:
    c1 = all(b > a for a, b in zip(m, k))
    c2 = e * (2 * j + f * e_l) == e_l * (sum(m) + sum(k))
    c3 = e * j >= e_l * sum(m)
    return c1 and c2 and c3


def make_record(rng, tower: str, shape, kind: str, rid: str) -> dict:
    e, f = shape
    e_l, _ = _dims(tower)
    n = e * f
    # The structure (valuation, jumps, which marked slopes vanish) is fixed
    # per (tower, shape, kind), so every seed asks for the same amount of
    # work; the seed draws the digits, the marked-slope values and the
    # conjugators.
    st = random.Random(f"{tower}:{e}{f}:{kind}")
    # the m != 0 admissible record needs budget, so it starts at v >= 1
    low = e_l if kind == "admissible" else 0
    j = st.randrange(low, 3 * e_l + 1)
    m, k = _jumps(st, kind, e, f, e_l, j)
    vanishing = [kind != "degenerate" and st.random() < 0.2 for _ in range(n)]
    alpha = _unit_grid(rng, tower)
    for _ in range(j):
        alpha = g_times_pi(alpha)
    degenerate = kind == "degenerate"
    ell = [0 if z else rng.choice(_DIGITS) for z in vanishing]
    if degenerate:
        ell[0] = 1  # extraction normalizes the first nonzero marked slope
    record = {
        "alpha": alpha,
        "m": m,
        "k": k,
        "ell": [g_scalar(tower, x) for x in ell],
        "degenerate": degenerate,
    }
    conjugators = [_conjugator(rng) for _ in range(f)]
    return {
        "id": rid,
        "tower": tower,
        "shape": {"e": e, "f": f},
        "kind": kind,
        "admissible": _laws(e, f, e_l, j, m, k),
        "end0": kind == "end0",
        "monodromy": record_out(record),
        "moved": transport(tower, shape, record, conjugators),
    }


def built(tower: str, shape: dict, record: dict) -> dict:
    """The module and flag exactly as the builders make them."""
    return transport(tower, (shape["e"], shape["f"]), record, [[[1, 0], [0, 1]]] * shape["f"])


def record_out(record: dict) -> dict:
    return {
        "alpha": g_out(record["alpha"]),
        "m": list(record["m"]),
        "k": list(record["k"]),
        "ell": [g_out(x) for x in record["ell"]],
        "degenerate": record["degenerate"],
    }


def transport(tower: str, shape, record: dict, gs) -> dict:
    """The built module and flag (as phinmod's builders define them: basis
    order (e2, e1), phi = diag(p, 1) on inner slots and diag(p*alpha, alpha)
    on the wrap slot, N e2 = e1) conjugated by one integral matrix per slot:
    phi'_i = g_{i+1} phi_i g_i^-1, N'_i = g_i N_i g_i^-1, flags pushed by g_i."""
    e, f = shape
    one, zero = g_scalar(tower, 1), g_scalar(tower, 0)
    alpha = record["alpha"]
    p_alpha = g_scale(P, alpha)
    n_entry = zero if record["degenerate"] else one
    ginv = [inv2(g) for g in gs]
    phi, nmat = [], []
    for i in range(f):
        wrap = i == f - 1
        base = [[p_alpha if wrap else g_scalar(tower, P), zero], [zero, alpha if wrap else one]]
        phi.append(conj(gs[(i + 1) % f], base, ginv[i]))
        nmat.append(conj(gs[i], [[zero, zero], [n_entry, zero]], ginv[i]))
    steps = []
    for i in range(f):
        g = [[Fraction(x) for x in row] for row in gs[i]]
        for jj in range(e):
            t = i * e + jj
            line = mat_apply(g, [one, record["ell"][t]])
            full = [mat_apply(g, [one, zero]), mat_apply(g, [zero, one])]
            steps.append(
                [
                    {"jump": record["m"][t], "basis": [[g_out(x) for x in v] for v in full]},
                    {"jump": record["k"][t], "basis": [[g_out(x) for x in line]]},
                ]
            )
    return {
        "module": {
            "rank": 2,
            "phi": [[[g_out(x) for x in row] for row in a] for a in phi],
            "N": [[[g_out(x) for x in row] for row in a] for a in nmat],
        },
        "filtration": steps,
    }


# ---------------------------------------------------------------------------
# workloads


def verdict_inputs(seed: int, prec: int, every_kind: bool) -> dict:
    """Records for the in-process verdict workloads on every (tower, shape)
    cell: all four record kinds per cell, or (``every_kind=False``) one kind
    per cell in a fixed rotation, so each seed yields the same mix."""
    rng = random.Random(f"verdicts:{seed}:{prec}")
    records = []
    cell = 0
    for tower in TOWERS:
        for shape in SHAPES:
            kinds = RECORD_KINDS if every_kind else (RECORD_KINDS[cell % len(RECORD_KINDS)],)
            for kind in kinds:
                rid = f"{tower}-{shape[0]}{shape[1]}-{kind}"
                records.append(make_record(rng, tower, shape, kind, rid))
            cell += 1
    fields = {name: dict(block, prec=prec) for name, block in TOWERS.items()}
    return {"prec": prec, "fields": fields, "records": records}


def instance(tower: str, shape: dict, payload: dict, prec: int) -> dict:
    return {"field": dict(TOWERS[tower], prec=prec), "shape": dict(shape), "payload": payload}


ALL_VERDICTS = ("admissible", "extract", "iso", "end0-check")


def record_entries(records: list, prec: int, commands=ALL_VERDICTS) -> list[dict]:
    """CLI entries for the verdict commands on generated records.  Each entry
    carries the instance document and the answer the oracle expects."""
    entries = []
    for r in records:
        tower, shape = r["tower"], r["shape"]
        moved = r["moved"]
        if r["admissible"]:
            doc = instance(tower, shape, {"monodromy": r["monodromy"]}, prec)
        else:
            # a record breaking the gate laws is refused as a payload, so the
            # CLI sees its built module as explicit matrices
            doc = instance(tower, shape, moved, prec)
        entries.append({"command": "admissible", "doc": doc, "expect": {"verdict": r["admissible"]}})
        entries.append(
            {
                "command": "extract",
                "doc": instance(tower, shape, moved, prec),
                "expect": {"record": r["monodromy"]},
            }
        )
        if r["admissible"]:
            pair = {"first": built(tower, shape, record_in(r["monodromy"])), "second": moved}
            entries.append({"command": "iso", "doc": instance(tower, shape, pair, prec), "expect": {"verdict": True}})
        if r["end0"]:
            doc = instance(tower, shape, {"monodromy": r["monodromy"]}, prec)
            entries.append({"command": "end0-check", "doc": doc, "expect": {"verdict": True}})
    return [e for e in entries if e["command"] in commands]


def record_in(out: dict) -> dict:
    """Inverse of record_out."""
    grid = lambda x: [[Fraction(c) for c in row] for row in x]  # noqa: E731
    return {
        "alpha": grid(out["alpha"]),
        "m": list(out["m"]),
        "k": list(out["k"]),
        "ell": [grid(x) for x in out["ell"]],
        "degenerate": out["degenerate"],
    }


def _germ(rng, n: int, f: int) -> dict:
    """Dual-number germ over Q3 with a unit slope center."""
    ints = lambda: [rng.choice((1, 2, 4, 5, -1, -2, 7)) for _ in range(n)]  # noqa: E731
    return {
        "alpha": [rng.choice((1, 2, 4, 5, 7, 8)), rng.randrange(-9, 10)],
        "delta": [rng.randrange(-9, 10), rng.randrange(-9, 10)],
        "kappa": [ints(), ints()],
        "ell": ints(),
    }


def _tr(xs, ys) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(xs, ys)), Fraction(0))


def vp(q: Fraction) -> int | float:
    """3-adic valuation of a rational; infinity for zero."""
    if q == 0:
        return float("inf")
    v, num, den = 0, q.numerator, q.denominator
    while num % P == 0:
        num //= P
        v += 1
    while den % P == 0:
        den //= P
        v -= 1
    return v


def cli_inputs(seed: int) -> list[dict]:
    """Every one of the 14 CLI commands on generated instances at precision
    60, with the expected answer of each.  ``admissible`` and ``extract``
    also run on the ramified and unramified towers, on a degenerate record
    and on a kernel-line violator, ``end0-check`` on two more records and
    ``iso`` on a non-isomorphic pair, so that each verdict command has
    several entries behind its latency."""
    rng = random.Random(f"cli:{seed}")
    prec = 60
    recs = {
        "main": make_record(rng, "q3", (1, 2), "end0", "main"),
        "ram": make_record(rng, "q3ram", (2, 1), "end0", "ram"),
        "deg": make_record(rng, "q9", (1, 1), "degenerate", "deg"),
        "bad": make_record(rng, "q3", (1, 2), "violating", "bad"),
        "other": make_record(rng, "q3", (1, 2), "end0", "other"),
    }
    main = recs["main"]
    s12 = main["shape"]
    mono = {"monodromy": main["monodromy"]}
    rec = record_in(main["monodromy"])
    degree = sum(rec["m"]) + sum(rec["k"])
    out = [
        {"command": "validate", "doc": instance("q3", s12, mono, prec), "expect": {"verdict": True}},
        {"command": "newton", "doc": instance("q3", s12, mono, prec), "expect": {"number": str(degree)}},
        {"command": "hodge", "doc": instance("q3", s12, mono, prec), "expect": {"number": str(degree)}},
        {
            "command": "build-monodromy",
            "doc": instance("q3", s12, mono, prec),
            "expect": {"built": built("q3", s12, rec), "jumps": [rec["m"], rec["k"]]},
        },
    ]
    verdicts = record_entries([main], prec)
    verdicts += record_entries([recs["ram"], recs["deg"], recs["bad"]], prec, ("admissible", "extract", "end0-check"))
    verdicts += record_entries([recs["other"]], prec, ("end0-check",))
    # a second record with the same jumps but other digits and marked
    # slopes; non-degenerate modules are isomorphic exactly when the records
    # are equal
    other = recs["other"]
    pair = {"first": built("q3", s12, rec), "second": other["moved"]}
    iso_truth = record_in(other["monodromy"]) == rec
    verdicts.append({"command": "iso", "doc": instance("q3", s12, pair, prec), "expect": {"verdict": iso_truth}})
    out += verdicts

    # germ, classes and bracket payloads over Q3 with exact expected values
    shape = {"e": 2, "f": 1}
    n, f1 = 2, 1
    g = _germ(rng, n, f1)
    a0, a1 = Fraction(g["alpha"][0]), Fraction(g["alpha"][1])
    d1 = Fraction(g["delta"][1])
    tr = _tr(g["ell"], g["kappa"][1])
    colmez = a1 / (f1 * a0) + d1 / 2 - tr / (2 * n)
    germ_doc = instance("q3", shape, {"germ": g}, prec)
    out.append({"command": "colmez", "doc": germ_doc, "expect": {"value": str(colmez)}})
    out.append({"command": "degenerate", "doc": germ_doc, "expect": {"value": str(tr)}})
    out.append({"command": "gamma-check", "doc": germ_doc, "expect": {"verdict": True}})
    while True:
        direction = [rng.randrange(-9, 10) for _ in range(n)]
        denom = _tr(direction, g["kappa"][1])
        if vp(denom) == 0:
            break
    scale = 2 * n * (a1 / (f1 * a0) + d1 / 2) / denom
    solve_doc = instance("q3", shape, {"germ": g, "direction": direction}, prec)
    out.append({"command": "solve-ell", "doc": solve_doc, "expect": {"value": str(scale)}})
    cls = {
        "x": {"a1": rng.randrange(-9, 10), "a2": [rng.randrange(-9, 10) for _ in range(n)]},
        "y": {"b1": rng.randrange(-9, 10), "b2": [rng.randrange(-9, 10) for _ in range(n)]},
    }
    cup = Fraction(cls["x"]["a1"] * cls["y"]["b1"]) - _tr(cls["x"]["a2"], cls["y"]["b2"]) / n
    out.append({"command": "cup", "doc": instance("q3", shape, {"classes": cls}, prec), "expect": {"value": str(cup)}})
    ell = [rng.choice((1, 2, -1, 4)) for _ in range(n)]
    k = [1 + rng.randrange(4) for _ in range(n)]
    out.append(
        {
            "command": "build-w",
            "doc": instance("q3", shape, {"ell": ell, "k": k}, prec),
            "expect": {"jumps": [[-x, 0, x] for x in k]},
        }
    )
    return out


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def inputs(workload: str, seed: int) -> dict:
    """Everything a workload feeds the program, from its seed alone."""
    if workload == "cli":
        return {"entries": cli_inputs(seed)}
    prec = {"verdicts-p60": 60, "verdicts-p2000": 2000}[workload]
    doc = verdict_inputs(seed, prec, every_kind=prec == 60)
    # the cold-CLI tail runs the four verdict commands on the Q3 records
    tail = next(r for r in doc["records"] if r["tower"] == "q3" and r["end0"])
    doc["entries"] = record_entries([tail], prec)
    return doc
