"""Exact linear algebra over a coefficient field with precision floors.

Matrices are tuples of row tuples of FieldElement.  Rank-type decisions treat
an entry as zero when no stored digit certifies it nonzero; the verdict is
then correct at the working precision, which is the strongest statement
capped arithmetic can make.  Operations that require a certified nonzero
pivot (inversion, Newton numbers) raise PrecisionLoss instead of guessing.
"""
from __future__ import annotations

from .errors import PrecisionLoss
from .padic import INF, FieldElement, LocalFieldDesc, _dot, _product, _sub_mul, make_element
from .record import frozen

Matrix = tuple[tuple[FieldElement, ...], ...]
Vector = tuple[FieldElement, ...]


def mat(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def identity(desc: LocalFieldDesc, n: int) -> Matrix:
    one, zero = desc.from_int(1, INF), desc.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in r) for r in a)


def mat_scale(c: FieldElement, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in r) for r in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(_dot(ra, cb) for cb in bt)
        for ra in a
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(_dot(r, v) for r in a)


def vec_scale(c: FieldElement, v: Vector) -> Vector:
    return tuple(c * x for x in v)


def transpose(a) -> Matrix:
    """The transpose; also the matrix whose columns are the given vectors."""
    return tuple(zip(*a))


def kron(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for ra in a:
        for rb in b:
            out.append(tuple(x * y for x in ra for y in rb))
    return tuple(out)


def trace(a: Matrix) -> FieldElement:
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def mat_eq(a: Matrix, b: Matrix) -> bool:
    """Entrywise equality of two matrices of one shape."""
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero_at_prec() for r in a for x in r)


# ---------------------------------------------------------------------------
# echelon forms


def rref(rows_in) -> tuple[list[list[FieldElement]], list[int]]:
    """Reduced row echelon form with pivots normalized to one.

    A pivot is an entry with a certified digit; inside a column the smallest
    certified valuation (the p-adically largest entry) wins, which keeps
    division well conditioned.  Every other entry of a pivot column that is
    not the exact zero is cleared, so an entry known only to its floor
    bounds every entry it touches and no result claims digits its input
    does not certify.  Over Q3, [[1/3 + O(3^2), O(3^2)], [O(3^3), 1 + O(3^7)]]
    reduces to [[1 + O(3^3), O(3^3)], [O(3^3), 1 + O(3^6)]].
    """
    rows = [list(r) for r in rows_in]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        best = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero_at_prec():
                v = rows[i][c]._certified_val()
                if best is None or v < best[0]:
                    best = (v, i)
        if best is None:
            continue
        i = best[1]
        rows[r], rows[i] = rows[i], rows[r]
        inv = rows[r][c].inverse()
        # an exact-zero entry stays as it is: x * inv and x - f * 0 are x
        rows[r] = [x if x.is_exact_zero() else make_element(inv.desc, *_product(x, inv)) for x in rows[r]]
        for k in range(len(rows)):
            if k != r and not rows[k][c].is_exact_zero():
                f = rows[k][c]
                rows[k] = [_sub_mul(x, f, y) for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def right_kernel(a: Matrix) -> list[Vector]:
    """Canonical basis of the right kernel (columns v with a v = 0)."""
    ncols = len(a[0])
    rows, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    desc = a[0][0].desc
    one, zero = desc.from_int(1, INF), desc.zero()
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in zip(rows, pivots):
            v[pc] = -r[fc]
        basis.append(tuple(v))
    return basis


def solve_columns(cols, v: Vector):
    """Solve sum_j x_j cols[j] = v.  Returns the canonical solution with free
    coordinates zero, or None when the residual is certified nonzero."""
    n = len(v)
    aug = [[cols[j][i] for j in range(len(cols))] + [v[i]] for i in range(n)]
    rows, pivots = rref(aug)
    if len(cols) in pivots:
        return None
    x = [v[0].desc.zero()] * len(cols)
    for r, pc in zip(rows, pivots):
        x[pc] = r[-1]
    return x


def restrict_operator(op: Matrix, src: "Subspace", dst: "Subspace") -> Matrix | None:
    """Matrix of op from src into dst, on their stored generators.

    Column j is dst.coords of the image of src's generator j: one reduction
    against dst's echelon generators both decides that the image lies in dst
    and gives its coordinates there.  None when some image leaves dst."""
    cols = [dst.coords(mat_vec(op, g)) for g in src.gens]
    return None if None in cols else transpose(cols)


def det(a: Matrix) -> FieldElement:
    """Determinant, division-free, so exact inputs give an exact answer and
    precision floors degrade only through the entry products involved."""
    c0 = charpoly(a)[0]
    return c0 if len(a) % 2 == 0 else -c0


def inv(a: Matrix) -> Matrix:
    """Matrix inverse, read off rref of [a | I]; raises PrecisionLoss when
    invertibility cannot be certified at the working precision.

    rref's rule keeps the floors of loose zeros: over Q3,
    [[1/3 + O(3^2), O(3^2)], [O(3^3), 1 + O(3^7)]] has the inverse
    [[3 + O(3^4), O(3^3)], [O(3^4), 1 + O(3^6)]], which equals the inverse
    of every exact lift of the input at those floors."""
    n = len(a)
    desc = a[0][0].desc
    aug = [list(r) + list(ir) for r, ir in zip(a, identity(desc, n))]
    rows, pivots = rref(aug)
    if len(rows) < n or pivots[:n] != list(range(n)):
        raise PrecisionLoss("matrix not certified invertible")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def charpoly(a: Matrix) -> list[FieldElement]:
    """Characteristic polynomial of A (monic in T, ascending coefficients).

    Berkowitz recursion on trailing principal submatrices: no divisions, so
    the coefficients stay exact for exact input.
    """
    n = len(a)
    desc = a[0][0].desc
    one = desc.from_int(1, INF)
    poly = [one, -a[n - 1][n - 1]]
    for k in range(n - 2, -1, -1):
        m = n - 1 - k
        row = a[k][k + 1 :]
        col_gen = [one, -a[k][k]]
        w = [a[i][k] for i in range(k + 1, n)]
        for _ in range(m):
            col_gen.append(-_dot(row, w))
            w = [_dot(a[i][k + 1 :], w) for i in range(k + 1, n)]
        poly = [
            _dot([col_gen[i - j] for j in range(min(i, m) + 1)], poly)
            for i in range(m + 2)
        ]
    return list(reversed(poly))


# ---------------------------------------------------------------------------
# subspaces


@frozen(eq=False)
class Subspace:
    """A subspace of L^d held by an echelonized generator list.

    Generators are rows in reduced echelon form with unit pivots, so equal
    subspaces (at the working precision) have identical stored data.
    """

    desc: LocalFieldDesc
    ambient: int
    gens: tuple[Vector, ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_vectors(cls, desc: LocalFieldDesc, ambient: int, vectors) -> "Subspace":
        rows, pivots = rref([list(v) for v in vectors]) if vectors else ([], [])
        return cls(desc, ambient, tuple(tuple(r) for r in rows), tuple(pivots))

    @classmethod
    def full(cls, desc: LocalFieldDesc, ambient: int) -> "Subspace":
        """L^d, on the identity's echelon form: desc.one() on the diagonal."""
        one, zero = desc.one(), desc.zero()
        gens = tuple(tuple(one if i == j else zero for j in range(ambient)) for i in range(ambient))
        return cls(desc, ambient, gens, tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.gens)

    def _reduce(self, v: Vector) -> tuple[list[FieldElement], list[FieldElement]]:
        """One pass of v against the echelon generators: the entries met at
        the pivots, which are the coefficients of v's part in this subspace
        (the generators have unit pivots and zeros at each other's pivots),
        and the residual left over.  As in rref, every coefficient that is
        not the exact zero is reduced by, so a coefficient known only to its
        floor bounds the residual entries it touches."""
        w = list(v)
        coeffs = []
        for g, pc in zip(self.gens, self.pivots):
            c = w[pc]
            coeffs.append(c)
            if not c.is_exact_zero():
                w = [_sub_mul(x, c, y) for x, y in zip(w, g)]
        return coeffs, w

    def coords(self, v: Vector) -> Vector | None:
        """Coefficients of v on the stored generators, or None when the
        residual of v is certified nonzero (v is not in this subspace)."""
        coeffs, w = self._reduce(v)
        return None if any(not x.is_zero_at_prec() for x in w) else tuple(coeffs)

    def contains_vector(self, v: Vector) -> bool:
        return self.coords(v) is not None

    def contains(self, other: "Subspace") -> bool:
        # every vector reduces to zero against the full space's echelon form
        return self.dim == self.ambient or all(self.contains_vector(g) for g in other.gens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient != other.ambient or self.dim != other.dim:
            return False
        if self.pivots != other.pivots:
            return False
        return all(x == y for ga, gb in zip(self.gens, other.gens) for x, y in zip(ga, gb))

    __hash__ = None

    def image(self, a: Matrix) -> "Subspace":
        """The image of this subspace under the square matrix a."""
        return Subspace.from_vectors(self.desc, self.ambient, [mat_vec(a, g) for g in self.gens])

    def annihilator(self) -> "Subspace":
        """Covectors vanishing on this subspace, as a subspace of L^d."""
        if self.dim == 0:
            return Subspace.full(self.desc, self.ambient)
        a = tuple(tuple(g) for g in self.gens)
        return Subspace.from_vectors(self.desc, self.ambient, right_kernel(a))

    def quotient_coords(self, v: Vector) -> Vector:
        """Coordinates of v + (this subspace) on the complementary standard
        basis vectors (the non-pivot positions)."""
        _, w = self._reduce(v)
        free = [i for i in range(self.ambient) if i not in self.pivots]
        return tuple(w[i] for i in free)
