"""Semantics of the package's frozen value classes (phinmod.record).

Every class in the package that declares fields is a frozen record: fields
cannot be assigned or deleted, eq=True classes compare and hash by their
field tuple, eq=False classes by identity unless they define __eq__
themselves, the generated __init__ applies defaults and runs
__post_init__, and the repr lists the fields.
"""
from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil

import pytest

import phinmod
from phinmod.cli import Options
from phinmod.coeff import DualNumber, GaloisShape, ProductElement
from phinmod.cohomology import H1Tate, H1Trivial, H2Class
from phinmod.colmez import FamilyGerm
from phinmod.eigen import LineBundleFamily, StableSubmodule
from phinmod.errors import ShapeMismatch, ValidationError
from phinmod.filtration import AdmissibilityVerdict, FamilyCertificate, Filtration, SubmoduleCertificate
from phinmod.isom import IsoVerdict
from phinmod.linalg import Subspace
from phinmod.modules import PhiNModule
from phinmod.monodromy import End0Verdict, MonodromyData
from phinmod.padic import INF, LocalFieldDesc
from phinmod.serial import Instance

EQ_BY_FIELDS = [
    AdmissibilityVerdict,
    End0Verdict,
    FamilyCertificate,
    FamilyGerm,
    GaloisShape,
    H1Tate,
    H1Trivial,
    H2Class,
    Instance,
    IsoVerdict,
    LineBundleFamily,
    LocalFieldDesc,
    MonodromyData,
    Options,
    SubmoduleCertificate,
]
EQ_BY_IDENTITY = [Filtration, PhiNModule, StableSubmodule]
OWN_EQ = [DualNumber, ProductElement, Subspace]
VALUE_CLASSES = EQ_BY_FIELDS + EQ_BY_IDENTITY + OWN_EQ


def fields(cls) -> tuple[str, ...]:
    return tuple(vars(cls)["__annotations__"])


def filled(cls, values):
    """An instance holding the given field values, without __init__ (whose
    __post_init__ would validate them)."""
    obj = object.__new__(cls)
    for name, value in zip(fields(cls), values):
        object.__setattr__(obj, name, value)
    return obj


def test_every_class_with_fields_is_listed():
    found = set()
    for info in pkgutil.iter_modules(phinmod.__path__):
        module = importlib.import_module(f"phinmod.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ and "__annotations__" in vars(value):
                found.add(value)
    assert found == set(VALUE_CLASSES)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = filled(cls, range(len(fields(cls))))
    for name in fields(cls):
        with pytest.raises(AttributeError):
            setattr(obj, name, -1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) != -1
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("cls", EQ_BY_FIELDS, ids=lambda c: c.__name__)
def test_eq_classes_compare_and_hash_by_fields(cls):
    n = len(fields(cls))
    a, b = filled(cls, range(n)), filled(cls, range(n))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != filled(cls, [*range(n - 1), -1])
    # equal field tuples of another class are not equal
    other = next(c for c in EQ_BY_FIELDS if c is not cls)
    assert a.__eq__(filled(other, range(n))) is NotImplemented
    assert a.__eq__(tuple(range(n))) is NotImplemented


def test_eq_by_fields_on_real_values(q3):
    assert GaloisShape(2, 1) == GaloisShape(2, 1) and GaloisShape(2, 1) != GaloisShape(1, 2)
    assert len({GaloisShape(2, 1), GaloisShape(2, 1), GaloisShape(1, 1)}) == 2
    assert IsoVerdict(False, "no") == IsoVerdict(False, "no") != IsoVerdict(False, "other")
    assert Options(precision=80) == Options(80) and hash(Options(80)) == hash(Options(precision=80))
    alpha = q3.from_int(1, INF)
    ell = ProductElement.from_components(q3, GaloisShape(1, 1), [q3.from_int(2, INF)])
    a = MonodromyData(alpha, (0,), (1,), ell)
    assert a == MonodromyData(alpha, [0], [1], ell)
    assert a != MonodromyData(alpha, (0,), (1,), ell, degenerate=True)


@pytest.mark.parametrize("cls", EQ_BY_IDENTITY, ids=lambda c: c.__name__)
def test_eq_false_classes_keep_identity(cls):
    n = len(fields(cls))
    a, b = filled(cls, range(n)), filled(cls, range(n))
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


@pytest.mark.parametrize("cls", OWN_EQ, ids=lambda c: c.__name__)
def test_own_eq_is_kept(cls):
    assert vars(cls)["__hash__"] is None
    assert vars(cls)["__eq__"].__qualname__ == f"{cls.__name__}.__eq__"


def test_subspace_equality_is_its_own(q3):
    one, two = q3.from_int(1, INF), q3.from_int(2, INF)
    a = Subspace.from_vectors(q3, 2, [(one, two)])
    b = Subspace.from_vectors(q3, 2, [(two, q3.from_int(4, INF))])
    assert a is not b and a == b
    assert a != Subspace.full(q3, 2)
    with pytest.raises(TypeError):
        hash(a)


def test_defaults_and_keywords():
    assert IsoVerdict(False) == IsoVerdict(False, None, None)
    assert (IsoVerdict(True).reason, IsoVerdict(True).scaling) == (None, None)
    assert Options() == Options(None, "json", 1, False)
    o = Options(jobs=2, timing=True)
    assert (o.precision, o.fmt, o.jobs, o.timing) == (None, "json", 2, True)
    assert IsoVerdict(False, scaling=()).scaling == () and IsoVerdict(False, scaling=()).reason is None
    with pytest.raises(TypeError):
        GaloisShape(1)
    with pytest.raises(TypeError):
        GaloisShape(1, 1, 1)
    with pytest.raises(TypeError):
        GaloisShape(1, e=1)
    with pytest.raises(TypeError):
        Options(job=2)


def test_post_init_still_validates(q3):
    with pytest.raises(ShapeMismatch):
        GaloisShape(0, 1)
    with pytest.raises(ValidationError):
        Filtration(q3, GaloisShape(1, 1), 2, ())
    with pytest.raises(ShapeMismatch):
        GaloisShape(f=0, e=1)


def test_repr_lists_fields():
    assert repr(GaloisShape(2, 1)) == "GaloisShape(e=2, f=1)"
    assert repr(Options()) == "Options(precision=None, fmt='json', jobs=1, timing=False)"


def test_field_descriptor_copies_stay_interned():
    d = LocalFieldDesc(3, 1, 1, (0, 1), ((-3,), (1,)))
    assert LocalFieldDesc(3, 1, 1, [0, 1], [[-3], [1]]) is d
    assert copy.copy(d) is d and copy.deepcopy(d) is d
    assert pickle.loads(pickle.dumps(d)) is d
    assert "__eq__" in vars(LocalFieldDesc)


def test_a_field_given_twice_is_refused():
    with pytest.raises(TypeError, match="multiple values for field 'precision'"):
        Options(None, precision=3)
