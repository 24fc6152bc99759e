"""Loose admissibility inputs against their exact lifts, with the standard library only.

An input whose entries are known to a few digits stands for every exact
input that agrees with it at those digits.  A verdict it gets must be the
verdict of each such exact input; where the exact inputs differ, only a
refusal (exit 3) is right.  This tool draws seeded loose inputs, runs
``admissible`` on each through the command path (``cli.run``) and on 8
exact lifts of it (``tests/util.py::exact_lift_module``), and counts the
outcomes.

Inputs, over Q3 at working precision 20, shapes (e, f) = (1, 1) and (1, 2):

* rank 2 and rank 3 modules with N = 0 and random transitions;
* rank 2 modules of monodromy type: each transition [[3d, 0], [c, d]]
  with N = E21 at every slot, whose twist relation holds for any c, so
  that only c is loose and the lifts keep the relation;
* scalar families: the cycle an exact scalar, N = 0, loose step lines.

Entries are ±u·3^v with v < 3, known to one to five digits; a quarter of
the entries are zeros, and a quarter of those are O(3^k) for k = 1, 2, 3
rather than exact.  Step lines are drawn the same way, with jumps chosen
so that most modules are balanced (t_N = t_H).

Usage, from the repository root::

    python tools/lifts.py [--seed N] [--count N]

It prints one count per outcome and exits 1 when some verdict disagrees
with a lift that answers.
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from phinmod.cli import Options, run  # noqa: E402
from phinmod.coeff import GaloisShape  # noqa: E402
from phinmod.errors import PhinError  # noqa: E402
from phinmod.filtration import Filtration  # noqa: E402
from phinmod.linalg import Subspace, mat  # noqa: E402
from phinmod.modules import PhiNModule, newton_number  # noqa: E402
from phinmod.padic import INF, LocalFieldDesc  # noqa: E402
from phinmod.serial import Instance  # noqa: E402
from util import exact_lift_module, loose_entry, scalar_cycle_module  # noqa: E402

Q3 = LocalFieldDesc(3, 1, 1, (0, 1), ((-3,), (1,)), 20)
LIFTS = 8

OUTCOMES = (
    "verdict agreeing with every lift that answers",
    "verdict disagreeing with some lift",
    "verdict, no lift answers",
    "refusal whose lifts all agree",
    "refusal whose lifts split",
    "refusal, no lift answers",
    "exit 2, every lift answers",
    "exit 2, some lift does not answer",
)
DISAGREE = OUTCOMES[1]


def _entry(rng: random.Random):
    """A loose entry: known to one to five digits, a quarter of the zeros
    O(3^k)."""
    return loose_entry(rng, Q3, (1, 5), 0.25)


def _unit(rng: random.Random):
    return Q3.from_int(rng.choice((1, 2, 4, 5, 7, 8)) * rng.choice((1, -1)), INF)


def _flag(rng: random.Random, shape: GaloisShape, d: int, t_newton) -> Filtration | None:
    """One random flag per embedding: full ⊃ a line (or, in rank 3, a
    plane) of loose generators, the jumps -1 or 0 and 1 to 3 above that,
    the last jump moved so that t_H = t_N when it can.  A step is lifted on
    its own generators, so a longer flag would not stay nested.
    None when the generators of a step do not span its stated dimension."""
    sigs = []
    for _ in range(shape.n):
        dims = [rng.choice((1, 2)) if d == 3 else 1]
        rows = [tuple(_entry(rng) for _ in range(d)) for _ in range(dims[0])]
        jumps = [rng.choice((-1, 0))]
        for _ in dims:
            jumps.append(jumps[-1] + rng.randint(1, 3))
        pieces = [Subspace.full(Q3, d)] + [Subspace.from_vectors(Q3, d, rows[:k]) for k in dims]
        if [p.dim for p in pieces[1:]] != dims:
            return None
        sigs.append([jumps, pieces])
    t_hodge = sum(j * (a.dim - b) for jumps, pieces in sigs for j, a, b in zip(jumps, pieces, [p.dim for p in pieces[1:]] + [0]))
    deficit = t_newton - t_hodge if isinstance(t_newton, Fraction) else Fraction(1, 2)
    jumps, pieces = sigs[-1]
    if rng.random() < 0.8 and deficit.denominator == 1 and deficit % pieces[-1].dim == 0:
        top = jumps[-1] + int(deficit) // pieces[-1].dim
        if top > jumps[-2]:
            jumps[-1] = top
    return Filtration(Q3, shape, d, tuple(tuple(zip(jumps, pieces)) for jumps, pieces in sigs))


def _input(rng: random.Random):
    """One loose (module, filtration) pair, or None when the draw does not
    make a filtration."""
    f = rng.choice((1, 2))
    shape = GaloisShape(1, f)
    kind = rng.choices(("random", "monodromy", "family"), (6, 3, 1))[0]
    if kind == "random":
        d = rng.choice((2, 3))
        phi = tuple(mat([[_entry(rng) for _ in range(d)] for _ in range(d)]) for _ in range(f))
        m = PhiNModule(Q3, shape, d, phi, (mat([[Q3.zero()] * d] * d),) * f)
    elif kind == "monodromy":
        zero, one, three = Q3.zero(), Q3.from_int(1, INF), Q3.from_int(3, INF)
        phi = tuple(mat([[three * u, zero], [_entry(rng), u]]) for u in (_unit(rng) for _ in range(f)))
        m = PhiNModule(Q3, shape, 2, phi, (mat([[zero, zero], [one, zero]]),) * f)
    else:
        m = scalar_cycle_module(Q3, shape, rng.choice((1, 3, 9)))
    try:
        t_newton = newton_number(m)
    except PhinError:
        t_newton = None
    fil = _flag(rng, shape, m.rank, t_newton)
    return None if fil is None else (m, fil)


def _answer(m: PhiNModule, fil: Filtration):
    """The verdict of admissible, or its exit code when it gives none; an
    internal error (exit 4) ends the scan."""
    report, code = run("admissible", Instance(Q3, m.shape, "module", {"module": m, "filtration": fil}), Options())
    if code == 4:
        raise SystemExit(f"internal error: {report['error']}")
    return report["verdict"] if code in (0, 1) else code


def _outcome(got, lifted: list) -> str:
    answers = {x for x in lifted if isinstance(x, bool)}
    if isinstance(got, bool):
        if not answers:
            return OUTCOMES[2]
        return OUTCOMES[0] if answers == {got} else DISAGREE
    if got == 3:
        return OUTCOMES[5] if not answers else OUTCOMES[3] if len(answers) == 1 else OUTCOMES[4]
    return OUTCOMES[6] if all(isinstance(x, bool) for x in lifted) else OUTCOMES[7]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--count", type=int, default=2000)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    rng = random.Random(args.seed)
    counts = Counter()
    drawn = 0
    while drawn < args.count:
        pair = _input(rng)
        if pair is None:
            continue
        drawn += 1
        got = _answer(*pair)
        lifted = [_answer(*exact_lift_module(*pair, random.Random(1000 * drawn + s))) for s in range(LIFTS)]
        counts[_outcome(got, lifted)] += 1
    for name in OUTCOMES:
        print(f"{counts[name]:6d}  {name}")
    print(f"{drawn} inputs, {LIFTS} lifts each, seed {args.seed}, in {time.perf_counter() - started:.1f} s")
    return 1 if counts[DISAGREE] else 0


if __name__ == "__main__":
    sys.exit(main())
