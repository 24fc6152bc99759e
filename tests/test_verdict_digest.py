"""Bits of every in-process verdict on the benchmark's own inputs.

tests/test_report_digest.py pins what the reports print; this pins what
they do not: the mantissa, shift and floor of every field element inside
the four verdict objects of each ``verdicts-p60`` record (``is_admissible``,
``extract_invariants`` and ``is_isomorphic`` against the transported twin,
``end0_check`` where the record has it), and of every root
``roots_in_field`` finds on the characteristic polynomials of both
Frobenius cycles, the built one and the transported one.  A change meant
to be a pure speed-up must leave the digest as it is.
"""
import hashlib

import phinmod
from phinmod import serial
from phinmod.linalg import charpoly
from phinmod.modules import frobenius_composite
from phinmod.padic import FieldElement, LocalFieldDesc, roots_in_field
from util import bench_gen

SEEDS = (5, 9)
ELEMENTS = 858
DIGEST = "3f0767f753333fec2b067a56773e85a30c85377fa85eb69c369b4b6728e7e5b2"


class _Bits:
    """sha256 over a walk of nested verdict objects; field elements enter
    as (mant, shift, floor), everything else by its repr."""

    def __init__(self):
        self.h = hashlib.sha256()
        self.elements = 0

    def feed(self, obj):
        if isinstance(obj, FieldElement):
            self.elements += 1
            self.h.update(f"E{obj.mant}|{obj.shift}|{obj._k};".encode())
        elif isinstance(obj, (tuple, list)):
            self.h.update(f"[{len(obj)}".encode())
            for x in obj:
                self.feed(x)
            self.h.update(b"]")
        elif isinstance(obj, LocalFieldDesc):
            self.h.update(f"F{obj.p},{obj.f_l},{obj.e_l};".encode())
        elif type(obj).__dict__.get("__annotations__"):
            # a record: its fields in declaration order
            self.h.update(f"{type(obj).__name__}(".encode())
            for name in type(obj).__annotations__:
                self.feed(getattr(obj, name))
            self.h.update(b")")
        else:
            self.h.update(f"{obj!r};".encode())

    def call(self, fn, *args):
        try:
            self.feed(fn(*args))
        except Exception as exc:  # a raised verdict is pinned by its type
            self.feed(f"raised {type(exc).__name__}")


def test_verdict_and_root_bits_are_pinned():
    gen = bench_gen()
    bits = _Bits()
    for seed in SEEDS:
        doc = gen.inputs("verdicts-p60", seed)
        for spec in doc["records"]:
            desc = serial.parse_field(doc["fields"][spec["tower"]])
            shape = serial.parse_shape(spec["shape"])
            record = serial.parse_monodromy(desc, shape, spec["monodromy"], "/monodromy")
            builder = phinmod.build_degenerate if record.degenerate else phinmod.build_monodromy
            module, fil = builder(record, check=False)
            moved = serial.parse_module(desc, shape, spec["moved"]["module"], "/module")
            moved_fil = serial.parse_filtration(desc, shape, 2, spec["moved"]["filtration"], "/filtration")
            bits.feed(spec["id"])
            bits.call(phinmod.is_admissible, module, fil)
            bits.call(phinmod.extract_invariants, moved, moved_fil)
            bits.call(phinmod.is_isomorphic, module, fil, moved, moved_fil)
            if spec["end0"]:
                bits.call(phinmod.end0_check, record)
            for m in (module, moved):
                bits.call(lambda m: roots_in_field(charpoly(frobenius_composite(m))), m)
    assert bits.elements == ELEMENTS
    assert bits.h.hexdigest() == DIGEST
