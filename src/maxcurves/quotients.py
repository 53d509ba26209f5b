"""Cyclic quotients of the Hermitian curve and their rational-point counts.

The Hermitian curve carries a cyclic automorphism group of order
n = q - sqrt(q) + 1 acting with a fixed triangle of non-rational points.
For each divisor d of n the quotient curve is counted two ways:

* directly, for d = 3, on the explicit plane model over F_q; and
* for every d, by orbit counting: #quotient(F_q) = (1/d) sum_j N_j where
  N_j is the number of curve points P with Frobenius(P) = g^j(P).  N_0 is
  the plane sweep of the Fermat model.  In the frame kappa that
  diagonalizes the action (curves.singer_frame), the F_q-points of the
  plane are the Singer set {(z, z^q, z^(q^2))}, z in F_{q^3}* / F_q*, and
  a monomial isogeny with kernel <g> carries the twisted fixed points, n
  to a fibre, onto the points of the trace line Tr_{q^3/q}(z) = 0; the
  twist index of a fibre is the Kummer character of its z.  So each N_j
  is n times a count of trace-line points by the residue of
  z^((q^3 - 1)/n), computed in F_{q^3} with no lift field and no
  discrete-log table (trace_line_histogram).
  The Lang solver that counted each twist in a lift field F_{q^s}
  (lang_solve, twisted_fixed_count) is kept only as the tests' reference,
  a scalar trace with no fast path.

Riemann-Hurwitz bookkeeping for the degree-d covering (totally ramified at
exactly the three triangle points) pins the quotient genus to
((n/d) - 1)/2.  The fiber statistics of the diagonal action on the smooth
cyclic model verify the freeness off the triangle: the model's points off
the triangle are enumerated as discrete logs (u, v), on which the action
is a shift, so the orbits are counted by integer arithmetic on the logs.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._intfactor import check_divisor, euler_phi, factorize, is_prime
from .errors import CapError, ConsistencyError
from .counting import count_projective_points, hasse_weil_bounds
from .curves import (
    CurveModel,
    HomPoly3,
    ProjMatrix,
    cyclic_poly,
    fermat_poly,
    hermitian_fermat,
    identity_matrix,
    singer_frame,
    tower_field,
)
from .fields import (
    ExtField,
    _np_tables,
    build_field,
    check_table_cap,
    embed,
    find_root_of_unity,
    frobenius_kernel,
)

# The largest lift order s for which the reference lang_solve builds
# F_{q^s}; (8, 57) needs 513 and (11, 111) needs 333.
LIFT_ORDER_CAP = 128
_LANG_TRIES = 64


@dataclass(frozen=True)
class CyclicAction:
    """A projective cyclic automorphism of the Hermitian (Fermat) model."""

    sqrt_q: int
    order: int
    matrix: ProjMatrix                  # over F_q, entrywise rational
    frame: ProjMatrix                   # kappa over F_{q^3}; kappa matrix kappa^-1 is
    root: int                           # diag(root, root^s, 1) up to scalar (packed)

    @property
    def field(self) -> ExtField:
        return self.matrix.field


@lru_cache(maxsize=None)
def hermitian_cyclic_action(sqrt_q: int) -> CyclicAction:
    """The order-(q - sqrt_q + 1) cyclic automorphism of the Fermat model,
    with its matrix normalized to entries in F_q.

    Constructed as kappa^-1 diag(lam, lam^s, 1) kappa with lam of exact
    order n in F_{q^3} and kappa the Singer frame (singer_frame); the
    conjugate is rescaled by its first nonzero entry, which must land every
    entry in F_q.  The returned action is verified to preserve the Fermat
    polynomial up to scalar and to have exact projective order n, so its
    power t^(n/d) has exact order d for every d | n.  The fixed points are
    the columns of kappa^-1 and are not stored; Frobenius 3-cycles them, so
    none is rational, exactly when kappa (kappa^(q))^-1 is a scalar times a
    3-cycle, which trace_line_histogram checks.
    """
    q = sqrt_q * sqrt_q
    n = q - sqrt_q + 1
    Fq = tower_field(sqrt_q, 2)
    kappa = singer_frame(sqrt_q)
    Fq3 = kappa.field
    lam = find_root_of_unity(Fq3, n)
    diag = ProjMatrix(Fq3, [[lam, 0, 0], [0, lam**sqrt_q, 0], [0, 0, 1]])
    raw = kappa.inverse() @ diag @ kappa
    pivot = next(x for row in raw.rows for x in row if x)
    t3 = raw.scale(Fq3.inv_i(pivot))
    back = embed(Fq, Fq3)
    t = ProjMatrix(Fq, [back.descend_i(row, "normalized automorphism matrix")
                        for row in t3.rows])
    fermat = hermitian_fermat(sqrt_q).poly
    if fermat.compose_linear(t).proportional_to(fermat) is None:
        raise ConsistencyError("action does not preserve the Fermat model")
    _check_projective_order(t, n)
    return CyclicAction(sqrt_q, n, t, kappa, lam.value)


def _check_projective_order(t: ProjMatrix, n: int):
    if not t.pow(n).is_scalar():
        raise ConsistencyError("automorphism order does not divide the expected order")
    for ell in factorize(n):
        if t.pow(n // ell).is_scalar():
            raise ConsistencyError("automorphism has smaller projective order than expected")


# ---------------------------------------------------------------------------
# Lang torsor solver: the reference for burnside_quotient_count
#
# No count in the package calls lang_solve or twisted_fixed_count; the tests
# compare burnside_quotient_count's twisted counts against them, so the
# solver is the plain scalar trace, with no fast path.  They stay here
# because the benchmark harness (perfbench/spans.py) rebinds both by name
# and perfbench/test_harness.py asserts maxcurves.lang_solve; they move to
# the tests with the benchmark change that renames those hooks.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LangSolution:
    """An invertible A over F_{q^s} with A^(q) = N A (N rescaled over F_q).
    Reference only (see the section note): no count in the package makes one."""

    s: int
    field: ExtField                    # F_{q^s}, built over the prime field
    matrix: ProjMatrix                 # A over `field`
    twist: ProjMatrix                  # the rescaled N over F_q
    base: ExtField                     # F_q


def lang_twist_order(n: ProjMatrix) -> tuple[int, int, int]:
    """(projective order d1, best rescaling e, lift order s) for N over F_q.

    N^d1 is a scalar delta; rescaling N by e makes (eN)^d1 = e^d1 delta,
    and s = d1 * ord(e^d1 delta) is minimized over e in F_q*.
    Raises ValueError if N is singular, as it then has no projective order.
    Reference only (see the section note): no count in the package calls it.
    """
    if n.det().value == 0:
        raise ValueError("matrix is singular")
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
    Each draw is traced one column at a time: s - 1 steps of theta by
    frob_i and ProjMatrix.apply_i, summed in L.  Three such columns are
    independent with probability prod_{i=1..3} (1 - q^-i) >= 0.67; up to
    _LANG_TRIES seeded triples are drawn.  When s = 1, eN = I and A = I.
    Raises CapError when s exceeds LIFT_ORDER_CAP, before L is built, and
    ConsistencyError if every draw is singular (which would contradict
    Lang's theorem) or the residual check fails.
    Reference only (see the section note): no count in the package calls it.
    """
    Fq = n.field
    d1, e, s = lang_twist_order(n)
    if s > LIFT_ORDER_CAP:
        raise CapError(f"Lang lift order {s} exceeds cap {LIFT_ORDER_CAP}")
    L = build_field(Fq.p, Fq.k * s, cap=None)
    qfrob = Fq.k
    twist = n.scale(e)
    nl = twist.map_entries(embed(Fq, L))
    if s == 1:
        a = identity_matrix(L)
    else:
        nl_inv = nl.inverse()

        def trace(v):
            acc = cur = v
            for _ in range(s - 1):
                cur = nl_inv.apply_i(tuple(L.frob_i(c, qfrob) for c in cur))
                acc = tuple(map(L.add_i, acc, cur))
            return acc

        rng = random.Random(Fq.order * 1000003 + s * 1009 + seed)
        for _ in range(_LANG_TRIES):
            cols = [trace(tuple(rng.randrange(L.order) for _ in range(3)))
                    for _ in range(3)]
            a = ProjMatrix(L, list(zip(*cols)))
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
    Reference only (see the section note): no count in the package calls it.
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
    ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=None)
def trace_line_histogram(sqrt_q: int) -> tuple:
    """hist[j] = #{z in P(ker Tr) : z^((q^3 - 1)/n) = lam^j}, j in Z/n.

    In the frame Y = kappa X of the cyclic action, g is diag(lam, lam^s, 1)
    and the q-power Frobenius of a point is Y -> P Y^(q), P = kappa
    (kappa^(q))^-1.  P is checked to be a scalar times a 3-cycle, so the
    F_q-points of the plane are the Singer set {(z, z^q, z^(q^2))}, z in
    F_{q^3}* / F_q*, and the Fermat form is checked to be the cyclic form
    Y0^s Y2 + Y2^s Y1 + Y1^s Y0 up to a scalar.  Its three monomials have
    one character under g, so Y -> (Y0^s Y2 : Y2^s Y1 : Y1^s Y0) is an
    isogeny of the torus with kernel <g>.  It maps every twisted fixed
    point, Frobenius(Y) = g^j Y, to a Singer point with Tr_{q^3/q}(z) = 0;
    each fibre is one g-orbit of n points, and j is the Kummer character of
    z, a unit times log_lam z^((q^3 - 1)/n).  So N_j = n hist[u j] for a
    unit u of Z/n.

    ker Tr is the frobenius_kernel of 1 + Frob_q + Frob_q^2 over F_p; its
    q + 1 points over F_q are b1 and c b1 + b2.  They are raised to the
    power in one pow_v, and the powers lam^j are built by doubling with
    mul_v; neither builds a discrete-log table of F_{q^3}.
    The histogram must be s + 1 zeros and every other residue once, which
    is Lefschetz: g^j (j != 0) fixes only the triangle, so it has trace -1
    on H^1, where Frobenius of the maximal curve acts as -s, and N_j = n.
    Being flat off 0, it gives the same N_j whatever u is.  Raises
    ConsistencyError if a check fails.
    """
    action = hermitian_cyclic_action(sqrt_q)
    s, n = sqrt_q, action.order
    kappa = action.frame
    F3, Fq = kappa.field, action.field
    qfrob = Fq.k
    _check_singer_frame(kappa @ kappa.frobenius(qfrob).inverse())
    if fermat_poly(s + 1, F3).compose_linear(kappa.inverse()).proportional_to(
            cyclic_poly(s, F3)) is None:
        raise ConsistencyError("the Fermat form is not the cyclic form in the action's frame")
    kernel = F3.pack_rows(frobenius_kernel(F3, qfrob, (1, 1, 1), 2 * qfrob)).tolist()
    b1 = kernel[0]
    b1_inv = F3.inv_i(b1)
    ratios = ((b, F3.mul_i(b, b1_inv)) for b in kernel[1:])
    b2 = next(b for b, r in ratios if F3.frob_i(r, qfrob) != r)
    images = embed(Fq, F3).lift_i(Fq, range(Fq.order))
    line = np.concatenate(([b1], F3.add_v(F3.mul_v(images, b1), b2)))   # b1, c b1 + b2
    # lam^j for j < n by doubling, powers[m:2m] = powers[:m] lam^m
    powers, step = np.ones(1, dtype=np.int64), action.root
    while powers.size < n:
        powers = np.concatenate((powers, F3.mul_v(powers[:n - powers.size], step)))
        step = F3.mul_i(step, step)
    log = {w: j for j, w in enumerate(powers.tolist())}
    hist = [0] * n
    for w in F3.pow_v(line, F3.group_order // n).tolist():
        hist[log[w]] += 1
    _check_trace_histogram(hist, s)
    return tuple(hist)


def _check_trace_histogram(hist: list, s: int):
    if hist[0] != s + 1 or any(c != 1 for c in hist[1:]):
        raise ConsistencyError(
            f"trace-line histogram: {hist[0]} points at residue 0 and counts "
            f"{sorted(set(hist[1:]))} elsewhere, expected {s + 1} and [1]")


def _check_singer_frame(P: ProjMatrix):
    nonzero = [[(c, x) for c, x in enumerate(row) if x] for row in P.rows]
    perm = [entries[0][0] for entries in nonzero if len(entries) == 1]
    if (sorted(perm) != [0, 1, 2] or any(perm[r] == r for r in range(3))
            or len({entries[0][1] for entries in nonzero}) != 1):
        raise ConsistencyError("kappa (kappa^(q))^-1 is not a scalar times a 3-cycle")


def _kummer_kernel(hist: tuple, m: int) -> int:
    """#{z in P(ker Tr) : z^((q^3 - 1)/m) = 1}: with z^((q^3 - 1)/n) = lam^j
    that power is lam^(j n/m), so it is 1 exactly when m | j."""
    return sum(hist[::m])


@lru_cache(maxsize=None)
def _untwisted_count(sqrt_q: int) -> int:
    """N_0, the Fermat plane sweep over F_q, once per sqrt_q: it must equal
    n hist[0] = n (s + 1) = s^3 + 1 from trace_line_histogram.  Raises
    ConsistencyError if it does not."""
    n = sqrt_q * sqrt_q - sqrt_q + 1
    hist = trace_line_histogram(sqrt_q)   # meets the F_{q^3} element cap before the sweep
    n0 = count_projective_points(hermitian_fermat(sqrt_q)).total
    if n * hist[0] != n0:
        raise ConsistencyError(f"trace line gives N_0 = {n * hist[0]}, the plane sweep {n0}")
    return n0


@lru_cache(maxsize=None)
def burnside_quotient_count(sqrt_q: int, d: int) -> BurnsideReport:
    """Quotient point count over F_q by twisted-Frobenius orbit counting.

    N_0 is the checked Fermat plane sweep (_untwisted_count); N_j = n hist[j m]
    for j = 1..d-1, m = n/d, from trace_line_histogram.  The Burnside
    average (1/d) sum N_j must equal the Kummer count
    m #{z : z^((q^3 - 1)/m) = 1} on the trace line.  Raises
    ConsistencyError if either check fails.
    """
    n = check_divisor(sqrt_q, d)
    m = n // d
    hist = trace_line_histogram(sqrt_q)
    n_js = [_untwisted_count(sqrt_q)] + [n * hist[j * m] for j in range(1, d)]
    total = sum(n_js)
    count = total // d  # exact: the histogram gives total = (sqrt_q + d) n and d | n
    kummer = m * _kummer_kernel(hist, m)
    if kummer != count:
        raise ConsistencyError(f"Kummer count {kummer} differs from the Burnside count {count}")
    genus = hurwitz_genus(sqrt_q, d)
    expected = hasse_weil_bounds(sqrt_q * sqrt_q, genus)[1]
    return BurnsideReport(sqrt_q, d, tuple(n_js), total, count, genus, expected,
                          count == expected)


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
    n = check_divisor(sqrt_q, d)
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

    n = sqrt_q * sqrt_q - sqrt_q + 1
    try:
        admissible = check_divisor(sqrt_q, d) == n
    except ValueError:
        admissible = False
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
    check_divisor(sqrt_q, d)
    if k % 3:
        raise ValueError("the diagonal action needs the triangle field: 3 | k")
    check_table_cap(q**k)
    F = tower_field(sqrt_q, 2 * k)
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
    return FiberReport(sqrt_q, d, k, 3 + u.size, histogram)


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
