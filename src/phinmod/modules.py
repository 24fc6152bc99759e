"""Frobenius-monodromy modules in slot coordinates.

A module of rank d over a base with f unramified slots is stored as f
transition matrices phi[i] (carrying slot i to slot i+1 mod f) and f slot
operators nmat[i], subject to nmat[i+1] phi[i] = p phi[i] nmat[i].  All
matrices act on column coordinates.

Constructions: dual, tensor, hom, and the trace-zero endomorphism module
with its deterministic reference basis.
"""
from __future__ import annotations

from fractions import Fraction

from .coeff import GaloisShape
from .errors import (
    FieldMismatch,
    NonInvertiblePhi,
    PrecisionLoss,
    RelationViolation,
    ShapeMismatch,
)
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    identity,
    inv,
    is_zero_matrix,
    kron,
    mat_add,
    mat_eq,
    mat_mul,
    mat_neg,
    mat_scale,
    mat_sub,
    det,
    right_kernel,
    rref,
    transpose,
)
from .padic import INF, LocalFieldDesc
from .record import frozen


@frozen(eq=False)
class PhiNModule:
    desc: LocalFieldDesc
    shape: GaloisShape
    rank: int
    phi: tuple[Matrix, ...]
    nmat: tuple[Matrix, ...]

    def __post_init__(self):
        f, d = self.shape.f, self.rank
        if len(self.phi) != f or len(self.nmat) != f:
            raise ShapeMismatch(f"need {f} slot matrices")
        for group in (self.phi, self.nmat):
            for m in group:
                if len(m) != d or any(len(r) != d for r in m):
                    raise ShapeMismatch(f"slot matrices must be {d}x{d}")
                for r in m:
                    for x in r:
                        if x.desc is not self.desc:
                            raise FieldMismatch("matrix entry from a different field")


def validate_module(m: PhiNModule) -> None:
    """Check invertibility of every transition matrix and the commutation
    rule linking the slot operators across one transition."""
    p = m.desc.from_int(m.desc.p, INF)
    f = m.shape.f
    for i in range(f):
        # the pivots inv would find, without the identity block it carries
        try:
            if len(rref(m.phi[i])[1]) < m.rank:
                raise PrecisionLoss("matrix not certified invertible")
        except PrecisionLoss as exc:
            raise NonInvertiblePhi(f"transition matrix at slot {i} is not certified invertible") from exc
    for i in range(f):
        lhs = mat_mul(m.nmat[(i + 1) % f], m.phi[i])
        rhs = mat_scale(p, mat_mul(m.phi[i], m.nmat[i]))
        if not mat_eq(lhs, rhs):
            raise RelationViolation("slot operator does not twist correctly across the transition", slot=i)
    for i in range(f):
        power = m.nmat[i]
        for _ in range(m.rank - 1):
            power = mat_mul(power, m.nmat[i])
        if not is_zero_matrix(power):
            raise RelationViolation("slot operator is not nilpotent", slot=i)


def frobenius_composite(m: PhiNModule) -> Matrix:
    """The full cycle phi[f-1] ... phi[0], acting on slot 0."""
    acc = m.phi[0]
    for i in range(1, m.shape.f):
        acc = mat_mul(m.phi[i], acc)
    return acc


def newton_number(m: PhiNModule) -> Fraction:
    """e times the p-valuation of det of the full Frobenius cycle.  The
    scaling matches a Hodge count that runs over all e*f embeddings."""
    d = det(frobenius_composite(m))
    return Fraction(m.shape.e) * d.valuation()


def dual_module(m: PhiNModule) -> PhiNModule:
    phi = tuple(transpose(inv(pm)) for pm in m.phi)
    nmat = tuple(mat_neg(transpose(nm)) for nm in m.nmat)
    return PhiNModule(m.desc, m.shape, m.rank, phi, nmat)


def tensor_module(a: PhiNModule, b: PhiNModule) -> PhiNModule:
    """Tensor product; basis vector (x, y) sits at index x*rank(b) + y."""
    if a.shape != b.shape or a.desc is not b.desc:
        raise ShapeMismatch("tensor factors over different bases")
    f = a.shape.f
    phi = tuple(kron(a.phi[i], b.phi[i]) for i in range(f))
    ia, ib = identity(a.desc, a.rank), identity(b.desc, b.rank)
    nmat = tuple(
        mat_add(kron(a.nmat[i], ib), kron(ia, b.nmat[i])) for i in range(f)
    )
    return PhiNModule(a.desc, a.shape, a.rank * b.rank, phi, nmat)


def hom_module(a: PhiNModule, b: PhiNModule) -> PhiNModule:
    """Maps from a to b; coordinates follow map_to_vec."""
    return tensor_module(dual_module(a), b)


def map_to_vec(x: Matrix) -> Vector:
    """Flatten a rank(b) x rank(a) matrix into hom coordinates: the entry in
    row i, column j lands at index j*rank(b) + i."""
    d2, d1 = len(x), len(x[0])
    return tuple(x[i][j] for j in range(d1) for i in range(d2))


def end0_basis(desc: LocalFieldDesc, d: int) -> list[Vector]:
    """Reference basis of trace-zero endomorphisms inside hom coordinates:
    single-entry maps e_i <- e_j for i != j in row-major label order, then
    consecutive diagonal differences."""
    one, zero = desc.from_int(1, INF), desc.zero()
    basis = []
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            v = [zero] * (d * d)
            v[j * d + i] = one
            basis.append(tuple(v))
    for i in range(d - 1):
        v = [zero] * (d * d)
        v[i * d + i] = one
        v[(i + 1) * d + (i + 1)] = -one
        basis.append(tuple(v))
    return basis


def _end0_coords(x: Matrix) -> Vector:
    """Coordinates of a trace-zero matrix on end0_basis: the off-diagonal
    entries as they are, then the running sums of the diagonal.  The last
    running sum is the trace, which must be certified zero."""
    d = len(x)
    coords = [x[i][j] for i in range(d) for j in range(d) if i != j]
    acc = x[0][0]
    for i in range(1, d):
        coords.append(acc)
        acc = acc + x[i][i]
    # conjugation by phi and the commutator with N keep the trace at zero,
    # but entries known to a few digits can leave it uncertified
    if not acc.is_zero_at_prec():
        raise RelationViolation("subspace is not stable under the operator")
    return tuple(coords)


def end0_module(m: PhiNModule) -> tuple[PhiNModule, list[Vector]]:
    """Trace-zero endomorphism module, expressed on the reference basis.

    Column b of the slot-i transition holds the end0_basis coordinates of
    phi[i] B phi[i]^-1, and of the slot operator those of N B - B N, for the
    b-th basis map B.  Returns the module together with the basis embedding
    into the rank d*d hom coordinates.
    """
    d = m.rank
    basis = end0_basis(m.desc, d)
    maps = [tuple(tuple(v[j * d + i] for j in range(d)) for i in range(d)) for v in basis]
    phi = []
    for a in m.phi:
        a_inv = inv(a)
        phi.append(transpose([_end0_coords(mat_mul(mat_mul(a, b), a_inv)) for b in maps]))
    nmat = tuple(
        transpose([_end0_coords(mat_sub(mat_mul(n, b), mat_mul(b, n))) for b in maps])
        for n in m.nmat
    )
    return PhiNModule(m.desc, m.shape, d * d - 1, tuple(phi), nmat), basis


def n_kernel_flag(m: PhiNModule) -> tuple[Subspace, ...]:
    """Proper kernel flag of the slot-zero operator: ker N, ker N^2, ...
    stopping before the full space.  Empty for a vanishing operator."""
    flag: list[Subspace] = []
    power = m.nmat[0]
    while True:
        ker = Subspace.from_vectors(m.desc, m.rank, right_kernel(power))
        if ker.dim >= m.rank or (flag and ker.dim == flag[-1].dim):
            break
        flag.append(ker)
        power = mat_mul(m.nmat[0], power)
    return tuple(flag)
