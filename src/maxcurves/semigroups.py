"""Numerical semigroups, Weierstrass gap bookkeeping and the
Stohr-Voloch ramification/Frobenius arithmetic.

Everything in this module is exact integer or Fraction arithmetic.  The
exact Apery-set computation over generators, independent of the closed
formulas it checks, is the oracle against which the closed genus formulas
for semigroups generated by (ell, m, m+1) are tested, and the gap set of
the Hermitian branch semigroup drives the quotient-curve dimension and
order computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from fractions import Fraction
from itertools import chain

from ._intfactor import check_divisor, split_prime_power
from .errors import CapError, ConsistencyError
from .fields import check_elem_cap

GAP_CAP = 1 << 24
"""The most gaps a semigroup built from generators may have: its gap set is
listed element by element."""


class NumericalSemigroup:
    """A cofinite additive submonoid of N, stored by its finite gap set."""

    def __init__(self, gaps):
        gaps = frozenset(map(int, gaps))
        if gaps and min(gaps) < 1:
            raise ValueError("gaps must be positive integers")
        self.gaps = gaps
        self.genus = len(gaps)
        self.conductor = max(gaps) + 1 if gaps else 0

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        return n not in self.gaps

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.gaps == other.gaps

    def __hash__(self):
        return hash(self.gaps)

    def nongaps(self, limit: int) -> list[int]:
        """Sorted non-gaps up to and including limit."""
        return [n for n in range(limit + 1) if n not in self.gaps]

    def multiplicity(self) -> int:
        n = 1
        while n in self.gaps:
            n += 1
        return n

    def __repr__(self):
        return f"NumericalSemigroup(genus={self.genus}, gaps={sorted(self.gaps)})"


def semigroup_from_generators(gens) -> NumericalSemigroup:
    """Exact Apery-set computation, independent of the closed formulas it
    checks: with m the least generator, w[r] is the least element congruent
    to r mod m, and the gaps are exactly the n < w[n mod m].

    w is found by round-robin shortest paths on the m residues (Boecker and
    Liptak 2007): each further generator g splits the residues into
    gcd(m, g) cycles r -> r + g, and each cycle is walked once around from
    its least known w, keeping the smaller of the carried value and w[r].

    This is the oracle for every closed genus formula.  Raises ValueError
    naming every generator below 1, and when gcd of the generators exceeds
    1 (infinitely many gaps); raises CapError before listing more than
    GAP_CAP gaps.
    """
    gens = sorted({int(g) for g in gens})
    if not gens:
        raise ValueError("need at least one positive generator")
    bad = [g for g in gens if g < 1]
    if bad:
        raise ValueError(f"generators must be positive, got {', '.join(map(str, bad))}")
    if math.gcd(*gens) != 1 if len(gens) > 1 else gens[0] != 1:
        raise ValueError("generators must be coprime (gcd 1)")
    m = gens[0]
    # every residue 1..m-1 is itself a gap
    _check_gap_cap(m - 1)
    # a shortest path has at most m - 1 steps of at most gens[-1] each, so
    # every w[r] is below `unknown`; the walk's + g and min commute with
    # truncation at `unknown`, so starting from it loses nothing
    unknown = m * gens[-1]
    w = [0] + [unknown] * (m - 1)
    for g in gens[1:]:
        d = math.gcd(m, g)
        for p in range(d):
            n = min(w[p::d])
            if n == unknown:
                continue
            for _ in range(m // d - 1):
                n += g
                r = n % m
                if w[r] < n:
                    n = w[r]
                else:
                    w[r] = n
    # the gaps in residue r are r, r + m, ..., w[r] - m
    _check_gap_cap(sum(v // m for v in w))
    return NumericalSemigroup(chain.from_iterable(range(r, w[r], m) for r in range(1, m)))


def _check_gap_cap(gaps: int) -> None:
    if gaps > GAP_CAP:
        raise CapError(
            f"the semigroup has at least {gaps} gaps, above the "
            f"2^{GAP_CAP.bit_length() - 1} gap cap"
        )


def in_hermitian_semigroup(sqrt_q: int, h: int) -> bool:
    """Whether h lies in hermitian_point_semigroup(sqrt_q), without building
    its gap set: h = a s + b with 0 <= b < s is a gap iff b >= 1 and
    a + b <= s - 1, so h >= 0 is a non-gap iff s | h or a + b >= s."""
    a, b = divmod(h, sqrt_q)
    return h >= 0 and (b == 0 or a + b >= sqrt_q)


def hermitian_point_semigroup(sqrt_q: int) -> NumericalSemigroup:
    """Weierstrass semigroup at a ramified branch point of the Hermitian
    curve: gaps {r*s + t + 1 : r, t >= 0, r + t <= s - 2}, all below
    s(s - 1); genus s(s-1)/2."""
    if sqrt_q < 2:
        raise ValueError("need sqrt_q >= 2")
    s = sqrt_q
    sg = NumericalSemigroup(h for h in range(1, s * (s - 1)) if not in_hermitian_semigroup(s, h))
    if sg.genus != s * (s - 1) // 2:
        raise ConsistencyError("Hermitian branch semigroup has the wrong genus")
    return sg


def quotient_semigroup(sg: NumericalSemigroup, d: int) -> NumericalSemigroup:
    """{h/d : h in sg, d | h}, the Weierstrass semigroup downstairs."""
    if d < 1:
        raise ValueError("d must be positive")
    if d == 1:
        return sg
    top = sg.conductor // d + 1
    gaps = [n for n in range(1, top + 1) if d * n in sg.gaps]
    return NumericalSemigroup(gaps)


def first_quotient_nongaps(sqrt_q: int) -> tuple[int, int]:
    """First two positive non-gaps of the degree-3 quotient branch
    semigroup; must equal ((2s - 1)/3, s)."""
    check_divisor(sqrt_q, 3)
    down = quotient_semigroup(hermitian_point_semigroup(sqrt_q), 3)
    positives = [n for n in down.nongaps(down.conductor + 2) if n > 0]
    got = (positives[0], positives[1])
    want = ((2 * sqrt_q - 1) // 3, sqrt_q)
    if got != want:
        raise ConsistencyError(f"first quotient non-gaps {got} != {want}")
    return got


def linear_series_dim(sqrt_q: int, d: int) -> int:
    """dim of the distinguished degree-(s+1) linear series on the degree-d
    quotient: 1 + #{h > 0 : h in branch semigroup, d | h, h <= d*s}.

    It asks s membership questions, so a sqrt_q whose F_q is past the
    field element cap is refused (CapError) before the first one."""
    check_divisor(sqrt_q, d)
    p, e = split_prime_power(sqrt_q)
    check_elem_cap(p, 2 * e)
    return 1 + sum(1 for h in range(d, d * sqrt_q + 1, d) if in_hermitian_semigroup(sqrt_q, h))


# ---------------------------------------------------------------------------
# closed genus formulas for <ell, m, m+1>
# ---------------------------------------------------------------------------

def genus_lmm(ell: int, m: int) -> tuple[str, int | Fraction]:
    """Genus of the semigroup generated by (ell, m, m+1), m/2 <= ell < m.

    Returns ("exact", g) for the four special values of ell and
    ("upper_bound", b) otherwise, b the least applicable piecewise bound.
    The midpoint/m-1 case is floor((m-1)^2/4); the floor matters for even
    m, where the quotient is not an integer.
    """
    if not (2 * ell >= m and ell < m):
        raise ValueError(f"need m/2 <= ell < m, got ell={ell}, m={m}")
    if ell in ((m + 1) // 2, m - 1):
        return "exact", (m - 1) ** 2 // 4
    if ell in ((2 * m + 2) // 3, m - 2):
        if m % 3 == 2:
            return "exact", (m * m - m + 4) // 6
        return "exact", (m * m - m) // 6
    bounds: list[Fraction] = []
    le = Fraction(ell)
    if le <= Fraction(3 * m, 5):
        bounds.append(max(Fraction(m * m + 4, 8), Fraction(m * m + 3 * m, 10)))
    # the boundary ell = 3m/5 belongs to the first row only: the oracle
    # genus of (6, 10, 11) is 13, above the second row's 37/3
    if Fraction(3 * m, 5) < le < (2 * m + 2) // 3:
        bounds.append(Fraction(m * m - 5 * m + 24, 6))
    # sqrt(m+1) comparisons done exactly: ell <= m+1-sqrt(m+1) iff
    # (m+1-ell)^2 >= m+1
    below_root = (m + 1 - ell) >= 0 and (m + 1 - ell) ** 2 >= m + 1
    if m % 3 == 2 and 3 * ell >= 2 * m + 5 and below_root:
        bounds.append(Fraction(m * m - 7 * m + 70, 6))
    if m % 3 == 1 and 3 * ell >= 2 * m + 4 and below_root:
        bounds.append(Fraction(m * m - 5 * m + 40, 6))
    if m % 3 == 0 and 3 * ell >= 2 * m + 3 and below_root:
        bounds.append(Fraction(m * m - 3 * m + 18, 6))
    if not below_root and ell < m - 2:
        bounds.append(Fraction(m * m + 2 * m + 9, 8))
    if not bounds:
        raise ConsistencyError(f"no bound row applies to ell={ell}, m={m}")
    best = min(bounds)
    return "upper_bound", int(best) if best.denominator == 1 else best


def first_nongap_candidates(sqrt_q: int) -> set[int]:
    """Candidate first non-gaps at a rational point of a dimension-3
    maximal curve: {floor((s+1)/2), s-1, floor((2s+2)/3), s-2}."""
    if sqrt_q < 3:
        raise ValueError("needs sqrt_q >= 3")
    s = sqrt_q
    return {(s + 1) // 2, s - 1, (2 * s + 2) // 3, s - 2}


# ---------------------------------------------------------------------------
# order sequences and Stohr-Voloch arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderSequence:
    """A strictly increasing order sequence starting at 0."""

    kind: str            # "D" | "frobenius" | "point"
    orders: tuple

    def __post_init__(self):
        if not self.orders or self.orders[0] != 0:
            raise ValueError("order sequences start at 0")
        if any(a >= b for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError("order sequence must be strictly increasing")

    def total(self) -> int:
        return sum(self.orders)


@dataclass(frozen=True)
class SVReport:
    genus: int
    degree: int
    r: int
    deg_ramification: int
    deg_frobenius: int
    bound_numerator: int
    bound: Fraction
    bound_floor: int

    def to_dict(self) -> dict:
        d = asdict(self)
        d["bound"] = [self.bound.numerator, self.bound.denominator]
        return d


def orders_from_nongaps(nongaps, sqrt_q: int) -> OrderSequence:
    """Orders of the distinguished series at a rational point from its
    non-gap prefix m_0 < ... < m_(n+1): {s + 1 - m_i}, sorted."""
    m = list(nongaps)
    if not m or m[0] != 0:
        raise ValueError("non-gap list starts at 0")
    if any(a >= b for a, b in zip(m, m[1:])):
        raise ValueError("non-gaps must be strictly increasing")
    if m[-1] != sqrt_q + 1 or (len(m) < 2 or m[-2] != sqrt_q):
        raise ValueError("rational-point non-gaps end with s, s+1")
    orders = tuple(sorted(sqrt_q + 1 - mi for mi in m))
    return OrderSequence("point", orders)


def orders_at_quotient_branch(sqrt_q: int) -> OrderSequence:
    """Orders at a non-rational ramified branch point of the degree-3
    quotient: {0, 1, (s+1)/3, s} from the branch non-gaps (2s-1)/3, s
    together with the universal second order 1."""
    m1, m2 = first_quotient_nongaps(sqrt_q)
    got = tuple(sorted({sqrt_q - m for m in (0, m1, m2)} | {1}))
    want = (0, 1, (sqrt_q + 1) // 3, sqrt_q)
    if got != want:
        raise ConsistencyError(f"branch orders {got} != {want}")
    return OrderSequence("point", got)


def stohr_voloch_degrees(g: int, deg_d: int, r: int, eps: OrderSequence,
                         nu: OrderSequence, q: int) -> SVReport:
    """deg R = (2g-2) sum(eps) + (r+1) deg D,
    deg S = (2g-2) sum(nu) + (q+r) deg D, and the point bound deg S / r."""
    if len(eps.orders) != r + 1:
        raise ValueError("need r+1 hyperplane orders")
    if len(nu.orders) != r:
        raise ValueError("need r Frobenius orders")
    deg_r = (2 * g - 2) * eps.total() + (r + 1) * deg_d
    deg_s = (2 * g - 2) * nu.total() + (q + r) * deg_d
    if deg_r < 0 or deg_s < 0:
        raise ConsistencyError("negative divisor degree")
    bound = Fraction(deg_s, r)
    return SVReport(g, deg_d, r, deg_r, deg_s, deg_s, bound, deg_s // r)


def dim3_order_inequality(q: int, g: int, eps2: int) -> bool:
    """The dimension-3 constraint on the second order:
    (s+1)(2g-2) + (q+3)(s+1) >= (eps2+1)[(s+1)^2 + s(2g-2)]."""
    s = math.isqrt(q)
    if s * s != q:
        raise ValueError(f"{q} is not a square")
    lhs = (s + 1) * (2 * g - 2) + (q + 3) * (s + 1)
    rhs = (eps2 + 1) * ((s + 1) ** 2 + s * (2 * g - 2))
    return lhs >= rhs


CASTELNUOVO_PARAMETER_NOTE = (
    "The bound is quoted with q itself as the degree parameter, although the "
    "distinguished series has degree sqrt(q) + 1; with parameter q and n = 3 "
    "it reproduces the classical deduction 2g <= (q-1)(q-2)/3, but plugging "
    "in the actual series degree gives a much smaller number that maximal "
    "curves violate.  The function evaluates whatever parameter is passed "
    "and leaves the convention to the caller."
)


def castelnuovo_bound(degree_param: int, n: int) -> Fraction:
    """Castelnuovo-style upper bound for 2g of a curve of the given degree
    parameter in P^n: (c - n/2)^2/n for n even, ((c - n/2)^2 - 1/4)/n odd.

    The formula is evaluated literally; CASTELNUOVO_PARAMETER_NOTE records
    the parameter-convention ambiguity in its source.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    c = Fraction(degree_param)
    shift = (c - Fraction(n, 2)) ** 2
    if n % 2 == 0:
        return shift / n
    return (shift - Fraction(1, 4)) / n


def dim3_orders(sqrt_q: int, char: int) -> dict:
    """Order data for the distinguished series on a dimension-3 maximal
    curve: hyperplane orders (0, 1, e2, s) and Frobenius orders (0, 1, s).

    The second order e2 is 2 away from characteristic 3; in characteristic
    3 both candidates {2, 3} are carried rather than resolved.
    """
    eps2 = (2,) if char != 3 else (2, 3)
    return {
        "eps2_candidates": eps2,
        "eps": tuple(OrderSequence("D", (0, 1, e, sqrt_q)) for e in eps2),
        "nu": OrderSequence("frobenius", (0, 1, sqrt_q)),
    }


def classify_genus(q: int, g: int) -> dict:
    """Label a genus against the maximal-curve genus spectrum over F_q.

    Labels: hermitian (the top genus s(s-1)/2), forbidden-interval
    (between (s-1)^2/4 and the top, exclusive), second-largest
    ((s-1)^2/4 for q odd, s(s-2)/4 for q even), dim-3-window
    ((s-1)(s-2)/6 < g <= (s-1)^2/4), below-window otherwise.  Also flags
    whether g meets the second-order-2 lower bound (q - 2s + 3)/6.
    """
    s = math.isqrt(q)
    if s * s != q:
        raise ValueError(f"{q} is not a square")
    if g < 0:
        raise ValueError("genus is nonnegative")
    top = Fraction(s * (s - 1), 2)
    second = Fraction((s - 1) ** 2, 4) if q % 2 else Fraction(s * (s - 2), 4)
    window_low = Fraction((s - 1) * (s - 2), 6)
    window_high = Fraction((s - 1) ** 2, 4)
    eps2_lower = Fraction(q - 2 * s + 3, 6)
    if g == top:
        label = "hermitian"
    elif g == second:
        label = "second-largest"
    elif window_high < g < top:
        label = "forbidden-interval"
    elif window_low < g <= window_high:
        label = "dim-3-window"
    else:
        label = "below-window"
    return {
        "q": q,
        "genus": g,
        "label": label,
        "meets_eps2_lower_bound": Fraction(g) >= eps2_lower,
        "eps2_lower_bound_equality": Fraction(g) == eps2_lower,
    }


def geer_vlugt_dim(p: int, m: int, r: int) -> int:
    """Series dimension p^(m/2 - r) + 1 for the fibre-product family."""
    if m % 2:
        raise ValueError("m must be even")
    if not 1 <= r <= m // 2:
        raise ValueError("need 1 <= r <= m/2")
    return p ** (m // 2 - r) + 1


def geer_vlugt_orders(p: int, m: int, r: int) -> dict:
    """Order lists for the fibre-product family at the three point classes:
    the base point over x = infinity, other rational points, and the rest."""
    dim = geer_vlugt_dim(p, m, r)
    s = p ** (m // 2)
    e = p ** (m // 2 - r)
    base = tuple(sorted({0} | {s + 1 - i * p**r for i in range(e + 1)}))
    rational = tuple(list(range(e + 1)) + [s + 1])
    generic = tuple(list(range(e + 1)) + [s])
    if len(base) != dim + 1 or len(rational) != dim + 1 or len(generic) != dim + 1:
        raise ConsistencyError("order list length differs from dim + 1")
    return {"base_point": base, "rational": rational, "generic": generic}
