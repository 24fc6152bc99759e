"""Bits of every Frobenius eigenvalue at precision 2000.

tests/test_verdict_digest.py pins the roots of the ``verdicts-p60`` cycle
charpolys; this pins the mantissa, shift and floor of every root
``roots_in_field`` finds on the characteristic polynomials of both
Frobenius cycles, the built one and the transported one, of each
``verdicts-p2000`` record of seed 5, where the Newton lift runs on
mantissas of about 3000 bits.  A change meant to be a pure speed-up must
leave the digest as it is.
"""
import phinmod
from phinmod import serial
from phinmod.linalg import charpoly
from phinmod.modules import frobenius_composite
from phinmod.padic import roots_in_field
from test_verdict_digest import _Bits
from util import bench_gen

SEED = 5
ROOTS = 36
DIGEST = "28e518f370558d66e60dfb5262516355a70b663939e1a5d589d37eb4c0e050dc"


def test_p2000_root_bits_are_pinned():
    doc = bench_gen().inputs("verdicts-p2000", SEED)
    bits = _Bits()
    for spec in doc["records"]:
        desc = serial.parse_field(doc["fields"][spec["tower"]])
        shape = serial.parse_shape(spec["shape"])
        record = serial.parse_monodromy(desc, shape, spec["monodromy"], "/monodromy")
        builder = phinmod.build_degenerate if record.degenerate else phinmod.build_monodromy
        module, _fil = builder(record, check=False)
        moved = serial.parse_module(desc, shape, spec["moved"]["module"], "/module")
        bits.feed(spec["id"])
        for m in (module, moved):
            bits.call(lambda m: roots_in_field(charpoly(frobenius_composite(m))), m)
    assert bits.elements == ROOTS
    assert bits.h.hexdigest() == DIGEST
