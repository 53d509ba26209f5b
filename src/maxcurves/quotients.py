"""Cyclic quotients of the Hermitian curve and their rational-point counts.

The Hermitian curve carries a cyclic automorphism group of order
n = q - sqrt(q) + 1 acting with a fixed triangle of non-rational points.
For each divisor d of n the quotient curve is counted two ways:

* directly, for d = 3, on the explicit plane model over F_q; and
* for every d, by orbit counting: #quotient(F_q) = (1/d) sum_j N_j where
  N_j is the number of curve points P with Frobenius(P) = g^j(P).  Each N_j
  is evaluated by solving the semilinear Lang equation A^(q) = N A, whose
  columns are traces of seeded vectors read off their Frobenius orbits;
  A identifies the twisted fixed locus with A . P^2(F_q).  The Fermat form
  composed with A is, up to a scalar, a form over F_q (the twist of the
  curve by Frobenius o g^j), so N_j is its F_q-point count from the same
  plane sweep that counts every other model.

Riemann-Hurwitz bookkeeping for the degree-d covering (totally ramified at
exactly the three triangle points) pins the quotient genus to
((n/d) - 1)/2.  The fiber statistics of the diagonal action on the smooth
cyclic model verify the freeness off the triangle: the model's points off
the triangle are enumerated as discrete logs (u, v), on which the action
is a shift, so the orbits are counted by integer arithmetic on the logs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, asdict
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from ._intfactor import euler_phi, factorize, is_prime, split_prime_power
from .errors import CapError, ConsistencyError
from .counting import count_projective_points
from .curves import (
    CurveModel,
    HomPoly3,
    ProjMatrix,
    frame_matrix,
    hermitian_fermat,
    identity_matrix,
)
from .fields import (
    ExtField,
    _np_tables,
    build_field,
    check_table_cap,
    embed,
    find_root_of_unity,
    frame_parameter,
)

# The largest lift order s for which lang_solve builds F_{q^s}.  Every
# census row for sqrt_q in {2, 3, 4, 5, 7, 8, 9, 11} needs s <= 73 except
# (8, 57) at 513 and (11, 111) at 333, which are skipped.
LIFT_ORDER_CAP = 128
_LANG_TRIES = 64


def _normalize_point(F: ExtField, pt):
    for c in pt:
        if c:
            inv = F.inv_i(c)
            return tuple(F.mul_i(inv, x) for x in pt)
    raise ValueError("zero vector is not a projective point")


def _proj_equal(F: ExtField, ptA, ptB) -> bool:
    return _normalize_point(F, ptA) == _normalize_point(F, ptB)


@dataclass(frozen=True)
class CyclicAction:
    """A projective cyclic automorphism of the Hermitian (Fermat) model."""

    sqrt_q: int
    order: int
    matrix: ProjMatrix                  # over F_q, entrywise rational
    triangle: tuple                     # three normalized fixed points over F_{q^3}

    @property
    def field(self) -> ExtField:
        return self.matrix.field


@lru_cache(maxsize=None)
def hermitian_cyclic_action(sqrt_q: int) -> CyclicAction:
    """The order-(q - sqrt_q + 1) cyclic automorphism of the Fermat model,
    with its matrix normalized to entries in F_q.

    Constructed as kappa^-1 diag(lam, lam^s, 1) kappa with lam of exact
    order n in F_{q^3} and kappa the frame matrix; the conjugate is rescaled
    by its first nonzero entry, which must land every entry in F_q.  The
    returned action is verified to preserve the Fermat polynomial up to
    scalar, to have exact projective order n, and to fix a triangle of
    non-rational points permuted 3-cyclically by Frobenius.
    """
    p, h = split_prime_power(sqrt_q)
    q = sqrt_q * sqrt_q
    n = q - sqrt_q + 1
    Fq = build_field(p, 2 * h)
    Fq3 = build_field(p, 6 * h)
    a = frame_parameter(sqrt_q)
    aa = embed(a.field, Fq3)(a)
    kappa = frame_matrix(aa, sqrt_q)
    lam = find_root_of_unity(Fq3, n)
    diag = ProjMatrix(
        Fq3,
        [[lam, 0, 0], [0, lam**sqrt_q, 0], [0, 0, 1]],
        check=False,
    )
    kinv = kappa.inverse()
    raw = kinv @ diag @ kappa
    pivot = next(x for row in raw.rows for x in row if x)
    t3 = raw.scale(Fq3.inv_i(pivot))
    back = embed(Fq, Fq3)
    t = ProjMatrix(Fq, [back.descend_i(row, "normalized automorphism matrix")
                        for row in t3.rows])
    fermat = hermitian_fermat(sqrt_q, Fq).poly
    if fermat.compose_linear(t).proportional_to(fermat) is None:
        raise ConsistencyError("action does not preserve the Fermat model")
    _check_projective_order(t, n)
    triangle = tuple(
        _normalize_point(Fq3, tuple(kinv.rows[r][i] for r in range(3)))
        for i in range(3)
    )
    _check_triangle(Fq3, t3, triangle, 2 * h)
    return CyclicAction(sqrt_q, n, t, triangle)


def _check_projective_order(t: ProjMatrix, n: int):
    if not t.pow(n).is_scalar():
        raise ConsistencyError("automorphism order does not divide the expected order")
    for ell in factorize(n):
        if t.pow(n // ell).is_scalar():
            raise ConsistencyError("automorphism has smaller projective order than expected")


def _check_triangle(Fq3: ExtField, t3: ProjMatrix, triangle, qfrob: int):
    for pt in triangle:
        if not _proj_equal(Fq3, t3.apply_i(pt), pt):
            raise ConsistencyError("triangle point is not fixed by the action")
        if all(Fq3.frob_i(c, qfrob) == c for c in pt):
            raise ConsistencyError("triangle point is F_q-rational")
    frob_images = [
        _normalize_point(Fq3, tuple(Fq3.frob_i(c, qfrob) for c in pt))
        for pt in triangle
    ]
    perm = []
    for img in frob_images:
        if img not in triangle:
            raise ConsistencyError("Frobenius does not permute the triangle")
        perm.append(triangle.index(img))
    if sorted(perm) != [0, 1, 2] or any(perm[i] == i for i in range(3)):
        raise ConsistencyError("Frobenius is not a 3-cycle on the triangle")


def subgroup_action(action: CyclicAction, d: int) -> CyclicAction:
    """The order-d subgroup generator (the (n/d)-th power), same triangle."""
    n = action.order
    if d < 1 or n % d:
        raise ValueError(f"{d} does not divide the action order {n}")
    mat = action.matrix.pow(n // d) if d < n else action.matrix
    if d == 1:
        mat = identity_matrix(action.field)
    sub = CyclicAction(action.sqrt_q, d, mat, action.triangle)
    if d > 1:
        _check_projective_order(mat, d)
    return sub


# ---------------------------------------------------------------------------
# Lang torsor solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LangSolution:
    """An invertible A over F_{q^s} with A^(q) = N A (N rescaled over F_q)."""

    s: int
    field: ExtField                    # F_{q^s}, built over the prime field
    matrix: ProjMatrix                 # A over `field`
    twist: ProjMatrix                  # the rescaled N over F_q
    base: ExtField                     # F_q


def lang_twist_order(n: ProjMatrix) -> tuple[int, int, int]:
    """(projective order d1, best rescaling e, lift order s) for N over F_q.

    N^d1 is a scalar delta; rescaling N by e makes (eN)^d1 = e^d1 delta,
    and s = d1 * ord(e^d1 delta) is minimized over e in F_q*.
    """
    Fq = n.field
    d1 = 1
    power = n
    while not power.is_scalar():
        power = power @ n
        d1 += 1
        if d1 > 4 * Fq.order:
            raise ConsistencyError("projective order runaway")
    delta = power.rows[0][0]
    best = None
    for e in range(1, Fq.order):
        val = Fq.mul_i(Fq.pow_i(e, d1), delta)
        u = Fq.mult_order_i(val)
        if best is None or u < best[0]:
            best = (u, e)
    u, e = best
    return d1, e, d1 * u


def lang_solve(n: ProjMatrix, *, seed: int = 0) -> LangSolution:
    """Invertible A over L = F_{q^s} with A^(q) = (eN) A, residual-verified.

    The solutions of v^(q) = (eN) v form a 3-dimensional F_q-space V in
    L^3, and any three vectors of V independent over L are the columns of
    an A.  With theta(v) = M v^(q), M = (eN)^-1, (eN)^s = I makes theta^s
    the identity, so the trace sum_{i<s} theta^i maps L^3 F_q-linearly onto
    V and a seeded uniform vector of L^3 traces to a uniform vector of V.
    M lies over F_q, so theta^i(v) = M^i v^(q^i), read off the Frobenius
    orbit of v.  With the entries of M^i as F_p digits on the basis beta^t
    of F_q, entry j of a column is sum_t beta^t r_t, each r_t an F_p
    combination of the orbit: the three draws walk their orbits together by
    numpy products, and each entry costs one product in L per t.  Three
    such columns are independent with probability prod_{i=1..3} (1 - q^-i)
    >= 0.67; up to _LANG_TRIES seeded triples are drawn.  When s = 1,
    eN = I and A = I.  Raises CapError when s exceeds LIFT_ORDER_CAP,
    before L is built, and ConsistencyError if every draw is singular (which
    would contradict Lang's theorem) or the residual check fails.
    """
    Fq = n.field
    d1, e, s = lang_twist_order(n)
    if s > LIFT_ORDER_CAP:
        raise CapError(f"Lang lift order {s} exceeds cap {LIFT_ORDER_CAP}")
    L = build_field(Fq.p, Fq.k * s, cap=None)
    qfrob = Fq.k
    twist = n.scale(e)
    up = embed(Fq, L)
    nl = twist.map_entries(up)
    if s == 1:
        a = identity_matrix(L)
    else:
        m = twist.inverse()
        powers = [identity_matrix(Fq)]
        for _ in range(s - 1):
            powers.append(m @ powers[-1])
        # coef[i, j, l, t]: digit t of (M^i)[j][l]; beta^t is X^t's image
        coef = np.array([[[Fq.digits(x) for x in row] for row in mp.rows]
                         for mp in powers], dtype=np.int64)
        basis = [up.apply_i(Fq.p**t) for t in range(Fq.k)]
        frob = L.frob_matrix(qfrob)
        rng = random.Random(Fq.order * 1000003 + s * 1009 + seed)
        for _ in range(_LANG_TRIES):
            draws = [[rng.randrange(L.order) for _ in range(3)] for _ in range(3)]
            # orbit[i, d, l] = vec(v_l^(q^i)) for draw d; r[d, j, t] = vec(r_t)
            orbit = [np.array([[L.digits(x) for x in v] for v in draws], dtype=np.int64)]
            for _ in range(s - 1):
                orbit.append(orbit[-1] @ frob % L.p)
            r = np.einsum("ijlt,idlk->djtk", coef, np.array(orbit)) % L.p
            cols = [[reduce(L.add_i, map(L.mul_i, basis, map(L.pack, entry)))
                     for entry in draw] for draw in r.tolist()]
            a = ProjMatrix(L, list(zip(*cols)), check=False)
            if a.det().value:
                break
        else:
            raise ConsistencyError(
                f"no invertible Lang solution in {_LANG_TRIES} draws of three columns")
    if a.frobenius(qfrob) != nl @ a:
        raise ConsistencyError("Lang residual check failed")
    return LangSolution(s, L, a, twist, Fq)


def twisted_fixed_count(sol: LangSolution, model: CurveModel) -> int:
    """#{P : Frobenius(P) = g(P)} on the model, counted by descent to F_q.

    The twisted locus is A . P^2(F_q), so the count is the number of
    y in P^2(F_q) with G(y) = F(A y) = 0.  Since A^(q) = N A and N preserves
    F up to a scalar, G^(q) is a scalar multiple of G: rescaled by one of
    its coefficients, G is fixed by the q-power Frobenius.  Its coefficients
    are pulled back to F_q and the form is counted by the plane sweep.
    Raises ConsistencyError if the rescaled G does not descend.
    """
    Fq = sol.base
    if model.field is not Fq:
        raise ValueError("model must live over the twist's base field")
    L = sol.field
    phi = embed(Fq, L)
    form = model.poly.map_coefficients(phi).compose_linear(sol.matrix)
    form = form.scale(L.inv_i(next(iter(form.terms.values()))))
    terms = dict(zip(form.terms, phi.descend_i(form.terms.values(), "twisted form")))
    twist = CurveModel(HomPoly3(Fq, terms), f"{model.name}-twist", model.sqrt_q)
    return count_projective_points(twist).total


# ---------------------------------------------------------------------------
# Burnside orbit counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BurnsideReport:
    sqrt_q: int
    d: int
    n_js: tuple                 # n_js[j] = #Fix(g^j o Frobenius), j = 0..d-1
    total: int
    count: int                  # (1/d) sum of n_js
    genus: int
    expected: int               # q + 1 + 2 g sqrt_q
    lift_orders: tuple
    ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=None)
def burnside_quotient_count(sqrt_q: int, d: int) -> BurnsideReport:
    """Quotient point count over F_q by twisted-Frobenius orbit counting."""
    action = hermitian_cyclic_action(sqrt_q)
    n = action.order
    if d < 1 or n % d:
        raise ValueError(f"{d} does not divide q - sqrt_q + 1 = {n}")
    q = sqrt_q * sqrt_q
    p, h = split_prime_power(sqrt_q)
    Fq = action.field
    Fq3 = build_field(p, 6 * h)
    gsub = subgroup_action(action, d)
    fermat = hermitian_fermat(sqrt_q, Fq)
    n0 = count_projective_points(fermat).total
    if n0 != q * sqrt_q + 1:
        raise ConsistencyError("Hermitian baseline count is off")
    n_js = [n0]
    lifts = [1]
    up = embed(Fq, Fq3)
    for j in range(1, d):
        u = gsub.matrix.pow(j)
        _assert_triangle_free(Fq3, action.triangle, u.map_entries(up), 2 * h)
        sol = lang_solve(u, seed=q * 1009 + d * 31 + j)
        lifts.append(sol.s)
        n_j = twisted_fixed_count(sol, fermat)
        # Lefschetz: g^j fixes only the triangle, so it has trace -1 on H^1,
        # where Frobenius of the maximal curve acts as -sqrt_q
        if n_j != n:
            raise ConsistencyError(
                f"twisted count N_{j} = {n_j}, expected q - sqrt_q + 1 = {n}")
        n_js.append(n_j)
    total = sum(n_js)
    count = total // d  # exact: the checks above give total = (sqrt_q + d) n and d | n
    genus = hurwitz_genus(sqrt_q, d)
    expected = q + 1 + 2 * genus * sqrt_q
    return BurnsideReport(sqrt_q, d, tuple(n_js), total, count, genus, expected,
                          tuple(lifts), count == expected)


def _assert_triangle_free(Fq3: ExtField, triangle, u3: ProjMatrix, qfrob: int):
    for pt in triangle:
        frob = tuple(Fq3.frob_i(c, qfrob) for c in pt)
        if _proj_equal(Fq3, frob, u3.apply_i(pt)):
            raise ConsistencyError("a triangle point lies in a twisted fixed locus")


# ---------------------------------------------------------------------------
# Riemann-Hurwitz and divisor arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HurwitzCheck:
    sqrt_q: int
    d: int
    top_genus: int
    bottom_genus: int
    ramification_points: int
    ramification_index: int
    identity_holds: bool

    def to_dict(self) -> dict:
        return asdict(self)


def hurwitz_genus(sqrt_q: int, d: int) -> int:
    """Quotient genus solved from the Riemann-Hurwitz ledger
    s(s-1) - 2 = d(2g - 2) + 3(d - 1), checked against ((n/d) - 1)/2."""
    q = sqrt_q * sqrt_q
    n = q - sqrt_q + 1
    if d < 1 or n % d:
        raise ValueError(f"{d} does not divide q - sqrt_q + 1 = {n}")
    g = Fraction(sqrt_q * (sqrt_q - 1) - 2 - 3 * (d - 1) + 2 * d, 2 * d)
    if g.denominator != 1:
        raise ConsistencyError("Riemann-Hurwitz genus is not an integer")
    closed = Fraction(n // d - 1, 2)
    if g != closed:
        raise ConsistencyError("Riemann-Hurwitz genus differs from the closed form")
    return int(g)


def hurwitz_check(sqrt_q: int, d: int) -> HurwitzCheck:
    g_top = sqrt_q * (sqrt_q - 1) // 2
    g_bot = hurwitz_genus(sqrt_q, d)
    holds = 2 * g_top - 2 == d * (2 * g_bot - 2) + 3 * (d - 1)
    return HurwitzCheck(sqrt_q, d, g_top, g_bot, 3, d, holds)


def divisor_report(sqrt_q: int, d: int) -> dict:
    """Arithmetic admissibility report for the divisor d.

    For admissible d > 1 with r = sqrt_q mod d the consequences checked are:
    r^2 - r + 1 = 0 (mod d), d odd, gcd(r, d) = 1, d = 3 iff r = 2,
    6 | phi(d) when d > 3, and d = 1 (mod 6) when d is prime.
    """
    import math

    q = sqrt_q * sqrt_q
    n = q - sqrt_q + 1
    admissible = d >= 1 and n % d == 0
    report = {"sqrt_q": sqrt_q, "d": d, "n": n, "admissible": admissible,
              "violations": [], "checks": {}}
    if not admissible or d == 1:
        return report
    r = sqrt_q % d
    checks = {
        "r": r,
        "r2_minus_r_plus_1_divisible": (r * r - r + 1) % d == 0,
        "d_odd": d % 2 == 1,
        "gcd_r_d_one": math.gcd(r, d) == 1,
        "d3_iff_r2": (d == 3) == (r == 2),
    }
    if d > 3:
        checks["phi_divisible_by_6"] = euler_phi(d) % 6 == 0
        if is_prime(d):
            checks["prime_1_mod_6"] = d % 6 == 1
    report["checks"] = checks
    report["violations"] = [k for k, v in checks.items() if v is False]
    return report


# ---------------------------------------------------------------------------
# fiber statistics of the diagonal action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberReport:
    sqrt_q: int
    d: int
    k: int
    total_points: int
    histogram: dict
    fixed_points: tuple
    ok: bool


def fiber_statistics(sqrt_q: int, d: int, k: int = 3) -> FiberReport:
    """Orbit-size histogram of the order-d diagonal action on the smooth
    cyclic model over F_{q^k}.

    The action (x : y : 1) -> (cx : c^s y : 1) with c of order d only
    stabilizes P^2(F_{q^k}) when the field contains the d-th roots of
    unity, so k must be a multiple of 3 (the triangle field).  The three
    fundamental points are fixed.  On the torus x = g^u, y = g^v, with
    c = g^a for a = |F*|/d, the action is the shift (u, v) -> (u + a,
    v + s a), so (u mod a, v - s a floor(u/a)) names a point's orbit and
    the orbit sizes are counts of equal keys.  Raises ConsistencyError
    unless every torus orbit has exactly d enumerated points.  F_{q^k}
    must be within TABLE_CAP, so that the enumerator can read its Zech
    table; a larger field raises CapError before it is built.
    """
    q = sqrt_q * sqrt_q
    n = q - sqrt_q + 1
    if d < 1 or n % d:
        raise ValueError(f"{d} does not divide q - sqrt_q + 1 = {n}")
    if k % 3:
        raise ValueError("the diagonal action needs the triangle field: 3 | k")
    p, h = split_prime_power(sqrt_q)
    check_table_cap(q**k)
    F = build_field(p, 2 * h * k)
    u, v = _cyclic_model_points(sqrt_q, F)
    order, a = F.group_order, F.group_order // d
    key = (u % a) * order + (v - sqrt_q * a * (u // a)) % order
    sizes = np.unique(key, return_counts=True)[1]
    if np.any(sizes != d):
        raise ConsistencyError(
            f"unexpected orbit structure: torus orbit sizes {np.unique(sizes).tolist()}, "
            f"expected {d}")
    histogram = {1: 3}                  # the fundamental points
    histogram[d] = histogram.get(d, 0) + sizes.size
    fixed = ((0, 0, 1), (0, 1, 0), (1, 0, 0)) if d > 1 else ()
    return FiberReport(sqrt_q, d, k, 3 + u.size, histogram, fixed, True)


def _cyclic_model_points(sqrt_q: int, F: ExtField) -> tuple[np.ndarray, np.ndarray]:
    """Logs (u, v), x = g^u and y = g^v, of the F-points of
    x^s + y + x y^s = 0 with x y != 0; F must contain F_{q^3}.  The model's
    other F-points are the three fundamental points: x = 0 forces y = 0
    in the chart X2 = 1, and the line at infinity meets it at (1 : 0 : 0)
    and (0 : 1 : 0).

    Put t = u + (s-1) v (a bijection).  The equation reads
    g^v (1 + g^t) = -g^(su), i.e. m v = h + s t - Z(t) (mod n) with
    m = s^2 - s + 1, h = log(-1) and Z the Zech logarithm; m divides n
    (F contains F_{q^3}), so each t with m | h + s t - Z(t) gives m
    solutions v.
    """
    s, n = sqrt_q, F.group_order
    m = s * s - s + 1
    z = _np_tables(F)[1].astype(np.int64)
    r = ((0 if F.p == 2 else n // 2) + s * np.arange(n) - z) % n
    t = np.flatnonzero((z >= 0) & (r % m == 0))
    v = (r[t] // m)[:, None] + (n // m) * np.arange(m)
    u = (t[:, None] - (s - 1) * v) % n
    return u.ravel(), v.ravel()
