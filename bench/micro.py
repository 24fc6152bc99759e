"""Per-call cost of the field and matrix kernels, untraced.

Operands are seeded full-precision 3-adic integers: units on each tower for
the field ops at precision 60 (``padic.mul.us.q3``), units on Q3 at
precision 2000, the bigint regime (``padic.mul.us.q3.p2000``), and Q3
matrices at precision 60 whose determinant is a unit for the linear
algebra.  Each kernel is
called until it has run for ``BUDGET_S`` and at least ``MIN_CALLS`` times;
the reported cost is the median single call in microseconds.
"""
from __future__ import annotations

import random
import statistics
import time

import gen

BUDGET_S = 0.15
MIN_CALLS = 3


def _median_call_us(fn) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < BUDGET_S:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def _digits(rng, prec: int, residue: int) -> int:
    """A full-precision 3-adic integer with the given residue mod 3."""
    return residue + 3 * rng.randrange(3 ** (prec - 1))


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


# (working precision, metric-name suffix, towers) of the field-op costs
FIELD_RUNS = ((60, "", tuple(gen.TOWERS)), (2000, ".p2000", ("q3",)))
MATRIX_PREC = 60


def per_call(seed: int) -> dict:
    from phinmod import linalg, serial

    out = {}
    for prec, suffix, towers in FIELD_RUNS:
        rng = random.Random(f"micro:{seed}:{prec}")
        for tower in towers:
            desc = serial.parse_field(dict(gen.TOWERS[tower], prec=prec))
            e_l, f_l = desc.e_l, desc.f_l

            def unit():
                grid = [[_digits(rng, prec, rng.randrange(3)) for _ in range(f_l)] for _ in range(e_l)]
                grid[0][0] = _digits(rng, prec, rng.choice((1, 2)))
                return desc.element(grid)

            x, y = unit(), unit()
            for op, fn in (
                ("mul", lambda: x * y),
                ("add", lambda: x + y),
                ("inverse", x.inverse),
                ("valuation", x.valuation),
            ):
                out[f"padic.{op}.us.{tower}{suffix}"] = {"value": _median_call_us(fn), "unit": "us"}
    prec = MATRIX_PREC
    rng = random.Random(f"micro:{seed}:matrices")
    desc = serial.parse_field(dict(gen.TOWERS["q3"], prec=prec))
    for n in (2, 3, 4):
        while True:
            residues = [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
            if _det(residues) % 3:
                break
        a = linalg.mat([[desc.from_int(_digits(rng, prec, c)) for c in row] for row in residues])
        for op, fn in (
            ("rref", lambda: linalg.rref(a)),
            ("charpoly", lambda: linalg.charpoly(a)),
            ("inv", lambda: linalg.inv(a)),
        ):
            out[f"linalg.{op}.us.{n}x{n}"] = {"value": _median_call_us(fn), "unit": "us"}
    return out
