"""Rank-two modules with a marked line, and their rank-three bracket avatar.

A parameter record (slope unit alpha, jump vectors m < k, marked slopes ell)
determines a rank-two module whose operator sends the heavy basis vector to
the light one, filtered by the line spanned by (1, ell_sigma) between the two
jumps.  Builders go from parameters to (module, filtration); the extractor
inverts them from an arbitrary basis presentation.  The trace-zero
endomorphisms of such a module match a fixed rank-three module carrying a
bracket triple, and end0_check verifies that match two independent ways.
"""
from __future__ import annotations

from fractions import Fraction

from .coeff import ProductElement
from .errors import (
    ConstraintViolation,
    FieldMismatch,
    NonInvertiblePhi,
    NotMonodromyType,
    PrecisionLoss,
    RelationViolation,
    RootLiftingError,
    ShapeMismatch,
    ValidationError,
    ZeroEll,
)
from .eigen import cycle_roots, eigenline
from .filtration import Filtration, _dedupe
from .isom import IsoVerdict, is_isomorphic
from .linalg import (
    Subspace,
    is_zero_matrix,
    mat,
    mat_eq,
    mat_mul,
    mat_vec,
    right_kernel,
    solve_columns,
    vec_scale,
)
from .modules import (
    PhiNModule,
    end0_module,
    frobenius_composite,
    validate_module,
)
from .padic import INF, FieldElement
from .record import frozen


@frozen
class MonodromyData:
    """Slope unit, per-embedding jump pair, and marked-line slopes.

    m and k follow the lexicographic embedding order; ell is a
    product element over the same shape.  The record itself enforces only
    shape coherence; parameter inequalities live in check_constraints.
    """

    alpha: FieldElement
    m: tuple[int, ...]
    k: tuple[int, ...]
    ell: ProductElement
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(x) for x in self.m))
        object.__setattr__(self, "k", tuple(int(x) for x in self.k))
        if self.alpha.desc is not self.ell.desc:
            raise FieldMismatch("slope unit and marked slopes use different coefficient fields")
        n = self.ell.shape.n
        if len(self.m) != n or len(self.k) != n:
            raise ValidationError(f"need {n} jump entries per vector")

    @property
    def desc(self):
        return self.alpha.desc

    @property
    def shape(self):
        return self.ell.shape


def check_constraints(data: MonodromyData) -> None:
    """Raise ConstraintViolation naming the first failed parameter condition."""
    shape = data.shape
    e, f, n = shape.e, shape.f, shape.n
    for t in range(n):
        if data.k[t] <= data.m[t]:
            raise ConstraintViolation(
                f"embedding {t}: upper jump {data.k[t]} must exceed lower jump {data.m[t]}",
                constraint="jump-gap",
            )
    v = data.alpha.valuation()
    degree = sum(data.k) + sum(data.m)
    if e * (2 * v + f) != degree:
        raise ConstraintViolation(
            f"slope degree {e * (2 * v + f)} does not match jump degree {degree}",
            constraint="degree-balance",
        )
    # the kernel line's bound e*v >= sum(m) follows from the two above:
    # 2*e*v + n = sum(k) + sum(m) >= 2*sum(m) + n
    if data.degenerate:
        if data.ell.is_zero():
            raise ZeroEll("degenerate parameters need a nonzero marked slope")
        bound = sum(
            data.k[t] if data.ell.comps[t].is_zero_at_prec() else data.m[t]
            for t in range(n)
        )
        if e * v + n < bound:
            raise ConstraintViolation(
                f"marked line has slope degree {e * v + n}, below its jump sum {bound}",
                constraint="marked-line-bound",
            )


def _phi_mats(data: MonodromyData):
    desc, f = data.desc, data.shape.f
    p = desc.from_int(desc.p, INF)
    one, zero = desc.from_int(1, INF), desc.zero()
    mats = []
    for i in range(f):
        # the wrap transition back into slot zero carries the slope unit
        top = p * data.alpha if i == f - 1 else p
        bot = data.alpha if i == f - 1 else one
        mats.append(mat([[top, zero], [zero, bot]]))
    return tuple(mats)


def _flag_steps(data: MonodromyData):
    desc = data.desc
    one = desc.from_int(1, INF)
    full = Subspace.full(desc, 2)
    steps = []
    for t in range(data.shape.n):
        m_t, k_t = data.m[t], data.k[t]
        if k_t > m_t:
            line = Subspace.from_vectors(desc, 2, [(one, data.ell.comps[t])])
            steps.append(((m_t, full), (k_t, line)))
        else:
            # crossed jumps collapse the two-step display to a single step
            steps.append(((k_t, full),))
    return tuple(steps)


def _build(data: MonodromyData, check: bool) -> tuple[PhiNModule, Filtration]:
    """Shared body of the builders: the operator sends e2 to e1 unless the
    record is degenerate, where it vanishes."""
    if check:
        check_constraints(data)
    desc, shape = data.desc, data.shape
    zero = desc.zero()
    low = zero if data.degenerate else desc.from_int(1, INF)
    nm = mat([[zero, zero], [low, zero]])
    module = PhiNModule(
        desc, shape, 2, _phi_mats(data), tuple(nm for _ in range(shape.f))
    )
    return module, Filtration(desc, shape, 2, _flag_steps(data))


def build_monodromy(data: MonodromyData, check: bool = True) -> tuple[PhiNModule, Filtration]:
    """Module with N(e2) = e1 and the marked-line flag; basis order (e2, e1)."""
    if data.degenerate:
        raise ValidationError("parameters are marked degenerate; use build_degenerate")
    return _build(data, check)


def build_degenerate(data: MonodromyData, check: bool = True) -> tuple[PhiNModule, Filtration]:
    """Same transitions and flag as build_monodromy but vanishing operator."""
    if not data.degenerate:
        raise ValidationError("parameters are not marked degenerate")
    if data.ell.is_zero():
        raise ZeroEll("the marked slope must not vanish")
    return _build(data, check)


def build_w(ell: ProductElement, k) -> tuple[PhiNModule, Filtration]:
    """Rank-three module on (f1, f2, f3) with N f1 = 2 f2, N f2 = f3 and the
    flag spanned by the squared marked line g1 = f1 + 2 ell f2 + ell^2 f3."""
    desc, shape = ell.desc, ell.shape
    k = tuple(int(x) for x in k)
    if len(k) != shape.n:
        raise ValidationError(f"need {shape.n} jump entries")
    for t, k_t in enumerate(k):
        if k_t < 1:
            raise ConstraintViolation(
                f"embedding {t}: jump {k_t} must be positive",
                constraint="positive-weight",
            )
    p = desc.from_int(desc.p, INF)
    one, zero, two = desc.from_int(1, INF), desc.zero(), desc.from_int(2, INF)
    p_inv = desc.from_rational(Fraction(1, desc.p), INF)
    phi = mat([[p, zero, zero], [zero, one, zero], [zero, zero, p_inv]])
    nm = mat([[zero, zero, zero], [two, zero, zero], [zero, one, zero]])
    module = PhiNModule(
        desc,
        shape,
        3,
        tuple(phi for _ in range(shape.f)),
        tuple(nm for _ in range(shape.f)),
    )
    full = Subspace.full(desc, 3)
    steps = []
    for t in range(shape.n):
        ell_t = ell.comps[t]
        g1 = (one, two * ell_t, ell_t * ell_t)
        g2 = (zero, one, ell_t)
        plane = Subspace.from_vectors(desc, 3, [g1, g2])
        line = Subspace.from_vectors(desc, 3, [g1])
        steps.append(((-k[t], full), (0, plane), (k[t], line)))
    return module, Filtration(desc, shape, 3, tuple(steps))


def _cycle_slopes(m: PhiNModule, cycle):
    """Two eigenvalues of the Frobenius cycle of m in ratio p^f, ordered
    (light, heavy)."""
    desc, f = m.desc, m.shape.f
    try:
        roots = cycle_roots(cycle)
    except RootLiftingError as exc:
        raise NotMonodromyType("cycle spectrum does not split over the coefficients") from exc
    if len(roots) != 2:
        raise NotMonodromyType("cycle spectrum must consist of two simple slopes")
    roots.sort(key=lambda r: r.valuation())
    light, heavy = roots
    if heavy != desc.from_int(desc.p**f, INF) * light:
        raise NotMonodromyType("cycle slopes are not one twist apart")
    return light, heavy


def extract_invariants(m: PhiNModule, fil: Filtration) -> MonodromyData:
    """Recover (alpha, m, k, ell) from any basis presentation.

    The heavy frame vector is pinned by N e2 = e1 against the canonical
    kernel generator; with vanishing operator the marked slopes are only
    defined up to one scalar and get their first nonzero entry set to 1.
    No parameter inequalities are enforced on the way out.
    """
    if m.rank != 2:
        raise NotMonodromyType("rank-two input required")
    if fil.rank != 2 or fil.desc is not m.desc or fil.shape != m.shape:
        raise ValidationError("filtration does not match the module")
    try:
        validate_module(m)
    except (RelationViolation, NonInvertiblePhi) as exc:
        raise NotMonodromyType(f"incoherent module: {exc}") from exc
    desc, shape = m.desc, m.shape
    f = shape.f
    degenerate = all(is_zero_matrix(nm) for nm in m.nmat)
    cycle = frobenius_composite(m)
    light, heavy = _cycle_slopes(m, cycle)
    alpha = light
    e2 = eigenline(cycle, heavy, NotMonodromyType)
    if degenerate:
        e1 = eigenline(cycle, light, NotMonodromyType)
    else:
        ker = right_kernel(m.nmat[0])
        if len(ker) != 1:
            raise NotMonodromyType("operator kernel is not a line")
        e1 = ker[0]
        c = solve_columns([e1], mat_vec(m.nmat[0], e2))
        if c is None:
            raise NotMonodromyType("heavy line does not map into the operator kernel")
        try:
            e2 = vec_scale(c[0].inverse(), e2)
        except PrecisionLoss as exc:
            raise PrecisionLoss("cannot certify the operator on the heavy line") from exc
    p_inv = desc.from_rational(Fraction(1, desc.p), INF)
    frames2, frames1 = [e2], [e1]
    for i in range(f - 1):
        frames2.append(vec_scale(p_inv, mat_vec(m.phi[i], frames2[-1])))
        frames1.append(mat_vec(m.phi[i], frames1[-1]))
    m_vec, k_vec, ells = [], [], []
    for (i, j) in shape.sigmas():
        sig = fil.sigma_steps(i, j)
        if len(sig) != 2:
            raise NotMonodromyType(f"embedding ({i},{j}): expected a two-step flag")
        (m_t, _), (k_t, line) = sig
        coords = solve_columns([tuple(frames2[i]), tuple(frames1[i])], line.gens[0])
        if coords is None:
            raise PrecisionLoss("marked line could not be expressed in the slope frame")
        x, y = coords
        if x.is_zero_at_prec():
            raise NotMonodromyType(f"embedding ({i},{j}): marked line meets the kernel line")
        m_vec.append(m_t)
        k_vec.append(k_t)
        ells.append(y / x)
    if degenerate:
        pivot = next((c for c in ells if not c.is_zero_at_prec()), None)
        if pivot is not None:
            ells = [c / pivot for c in ells]
    ell = ProductElement.from_components(desc, shape, ells)
    return MonodromyData(alpha, tuple(m_vec), tuple(k_vec), ell, degenerate)


def iso_degenerate(d1: MonodromyData, d2: MonodromyData) -> bool:
    """Vanishing-operator classification: jumps and slope unit must agree
    exactly, marked slopes up to one coefficient-field scalar."""
    if not (d1.degenerate and d2.degenerate):
        raise ValidationError("both parameter sets must be degenerate")
    if d1.desc is not d2.desc:
        raise FieldMismatch("parameter sets use different coefficient fields")
    if d1.shape != d2.shape:
        raise ShapeMismatch("parameter sets use different shapes")
    if d1.m != d2.m or d1.k != d2.k or d1.alpha != d2.alpha:
        return False
    ratio = None
    for c1, c2 in zip(d1.ell.comps, d2.ell.comps):
        z1, z2 = c1.is_zero_at_prec(), c2.is_zero_at_prec()
        if z1 != z2:
            return False
        if z1:
            continue
        r = c2 / c1
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


def twist_to_zero(data: MonodromyData) -> MonodromyData:
    """Shift the lower jumps to zero by scaling the slope unit; the jump
    pattern becomes (0, k - m).  Needs the lower jump degree to sit in the
    value group, i.e. e | e_l * sum(m)."""
    if all(x == 0 for x in data.m):
        return data
    shape, desc = data.shape, data.desc
    scaled = desc.e_l * sum(data.m)
    if scaled % shape.e:
        raise ConstraintViolation(
            f"lower jump degree {sum(data.m)} is not divisible by {shape.e} over this field",
            constraint="twist-integrality",
        )
    pi = desc.uniformizer(INF)
    alpha = data.alpha * pi ** (-(scaled // shape.e))
    k = tuple(b - a for a, b in zip(data.m, data.k))
    return MonodromyData(alpha, (0,) * shape.n, k, data.ell, data.degenerate)


def end0_with_filtration(m: PhiNModule, fil: Filtration) -> tuple[PhiNModule, Filtration]:
    """Trace-zero endomorphisms with their filtration, both on the
    reference basis.

    Fil^c End0 is the trace-zero X with X(Fil^j) inside Fil^(j+c) for every
    j.  Per embedding and candidate degree c (a difference of two jumps) it
    is one kernel: for each step (j, V), each generator g of V and each
    covector lam killing Fil^(j+c), the row of lam(B g) over the basis maps
    B.  Fil^c only changes at those degrees, so the steps are the candidates
    with consecutive equal pieces merged.  This is the internal-hom
    filtration restricted to trace zero, without the rank d*d hom space."""
    e0, basis = end0_module(m)
    desc = m.desc
    full = Subspace.full(desc, e0.rank)
    zero = Subspace.from_vectors(desc, m.rank, [])
    killers = {}
    steps = []
    for sig in fil.steps:
        jumps = [j for j, _ in sig]
        collected = []
        for c in sorted({b - a for a in jumps for b in jumps}):
            rows = []
            for j, v in sig:
                # Fil^(j+c) is the first step at or past degree j + c, zero
                # past the last jump; one annihilator per distinct step
                # (build_monodromy shares its full space across embeddings)
                target = next((w for jw, w in sig if jw >= j + c), zero)
                lams = killers.get(id(target))
                if lams is None:
                    lams = killers[id(target)] = target.annihilator().gens
                # lam(B g) is B paired with the map lam g^T
                rows += [mat_vec(basis, tuple(x * y for x in g for y in lam)) for g in v.gens for lam in lams]
            piece = Subspace.from_vectors(desc, e0.rank, right_kernel(rows)) if rows else full
            collected.append((c, piece))
        steps.append(_dedupe(collected))
    return e0, Filtration(desc, m.shape, e0.rank, tuple(steps))


@frozen
class End0Verdict:
    intrinsic: IsoVerdict
    direct_map: bool

    @property
    def ok(self) -> bool:
        return self.intrinsic.isomorphic and self.direct_map


def _w_map(desc):
    """Images of (f1, f2, f3) on the trace-zero reference basis: f1 is the
    heavy-to-light single entry, f2 half the diagonal difference reversed,
    f3 the negated light-to-heavy single entry."""
    one, zero = desc.from_int(1, INF), desc.zero()
    # 1/2 has a prime-to-p denominator, so it only exists at working precision
    neg_half = desc.from_rational(Fraction(-1, 2))
    return mat([[one, zero, zero], [zero, zero, -one], [zero, neg_half, zero]])


def end0_check(data: MonodromyData) -> End0Verdict:
    """Match trace-zero endomorphisms of the built module against the
    bracket module on the same parameters, intrinsically and by the
    explicit basis map."""
    if any(x != 0 for x in data.m):
        raise ConstraintViolation(
            "lower jumps must vanish; twist them away first",
            constraint="zero-lower-weight",
        )
    mod, fil = build_monodromy(data)
    e0, efil = end0_with_filtration(mod, fil)
    wmod, wfil = build_w(data.ell, data.k)
    intrinsic = is_isomorphic(wmod, wfil, e0, efil)
    g = _w_map(data.desc)
    direct = True
    for i in range(data.shape.f):
        if not mat_eq(mat_mul(e0.phi[i], g), mat_mul(g, wmod.phi[i])):
            direct = False
        if not mat_eq(mat_mul(e0.nmat[i], g), mat_mul(g, wmod.nmat[i])):
            direct = False
    # both step lists have jumps -k, 0, k (End0 of a two-step flag has
    # pieces of dimension 3, 2, 1 there), so pieces pair up in order.
    # build_w shares step objects across embeddings (one `full` space), so
    # each distinct one is mapped once; wfil keeps every key alive
    images = {}
    for ws, es in zip(wfil.steps, efil.steps):
        for (_, wv), (_, ev) in zip(ws, es):
            image = images.get(id(wv))
            if image is None:
                image = images[id(wv)] = wv.image(g)
            if image != ev:
                direct = False
    return End0Verdict(intrinsic, direct)
