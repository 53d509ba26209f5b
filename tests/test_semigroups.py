import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxcurves import (
    OrderSequence,
    castelnuovo_bound,
    classify_genus,
    dim3_order_inequality,
    first_nongap_candidates,
    first_quotient_nongaps,
    geer_vlugt_dim,
    geer_vlugt_orders,
    genus_lmm,
    hermitian_point_semigroup,
    linear_series_dim,
    orders_at_quotient_branch,
    orders_from_nongaps,
    quotient_semigroup,
    semigroup_from_generators,
    stohr_voloch_degrees,
)
from maxcurves._intfactor import divisors
from maxcurves.semigroups import NumericalSemigroup, in_hermitian_semigroup


def hermitian_nongap_rows(sqrt_q: int, rows: int = 7) -> set[int]:
    # the classical interval presentation of the branch semigroup: the
    # union of [j*s - (j - 1), j*s] for j = 1..rows; for rows = 7 this is
    # the displayed list of positive non-gaps <= 7s
    s = sqrt_q
    out = set()
    for j in range(1, rows + 1):
        out.update(range(j * s - (j - 1), j * s + 1))
    return out


def test_sieve_examples():
    sg = semigroup_from_generators([3, 5, 6])
    assert sorted(sg.gaps) == [1, 2, 4, 7] and sg.genus == 4
    sg2 = semigroup_from_generators([4, 5, 6])
    assert sorted(sg2.gaps) == [1, 2, 3, 7] and sg2.genus == 4
    assert semigroup_from_generators([1]).genus == 0
    with pytest.raises(ValueError):
        semigroup_from_generators([4, 6])


@pytest.mark.parametrize("gens,bad", [([-1, 3, 5], "-1"), ([0, 3, 5], "0"),
                                      ([-2, 0, 3, 5], "-2, 0")])
def test_sieve_rejects_nonpositive_generators(gens, bad):
    # dropping them would silently sieve <3, 5>
    with pytest.raises(ValueError, match=f"^generators must be positive, got {bad}$"):
        semigroup_from_generators(gens)


def _reference_sieve(gens) -> NumericalSemigroup:
    """Brute-force sieve: reachable sums of the generators, extended until a
    run of multiplicity-many consecutive non-gaps certifies cofiniteness.

    The oracle before the Apery-set computation, kept verbatim as its
    reference.
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
    bound = max(gens) * m + 1
    while True:
        reach = [False] * (bound + 1)
        reach[0] = True
        for n in range(1, bound + 1):
            for g in gens:
                if n >= g and reach[n - g]:
                    reach[n] = True
                    break
        run = 0
        ok_at = None
        for n in range(bound + 1):
            run = run + 1 if reach[n] else 0
            if run >= m:
                ok_at = n
                break
        if ok_at is not None:
            gaps = [n for n in range(ok_at) if not reach[n]]
            return NumericalSemigroup(gaps)
        bound *= 2


def _assert_matches_the_sieve(gens):
    sg, ref = semigroup_from_generators(gens), _reference_sieve(gens)
    assert (sg.gaps, sg.genus, sg.conductor) == (ref.gaps, ref.genus, ref.conductor), gens


@pytest.mark.parametrize("m", range(4, 41))
def test_apery_oracle_matches_the_sieve_on_lmm(m):
    for ell in range((m + 1) // 2, m):
        _assert_matches_the_sieve([ell, m, m + 1])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=5))
def test_apery_oracle_matches_the_sieve(gens):
    # duplicates and a generator 1 included; a gcd above 1 is refused, and
    # its message is pinned by test_sieve_examples
    assume(math.gcd(*gens) == 1)
    _assert_matches_the_sieve(gens)


def _is_closed(sg):
    # closure under addition up to twice the conductor
    limit = 2 * sg.conductor
    elems = sg.nongaps(limit)
    return all(a + b in sg for a in elems for b in elems if a + b <= limit)


@settings(max_examples=120, deadline=None)
@given(st.sets(st.integers(2, 24), min_size=2, max_size=4))
def test_sieve_is_closed_and_cofinal(gens):
    gens = sorted(gens)
    assume(math.gcd(*gens) == 1)
    sg = semigroup_from_generators(gens)
    assert _is_closed(sg)
    assert all(n in sg for n in range(sg.conductor, sg.conductor + 50))
    for g in gens:
        assert g in sg


def test_hermitian_point_semigroup():
    h5 = hermitian_point_semigroup(5)
    assert sorted(h5.gaps) == [1, 2, 3, 4, 6, 7, 8, 11, 12, 16]
    assert h5.genus == 10
    h3 = hermitian_point_semigroup(3)
    assert sorted(h3.gaps) == [1, 2, 4]
    for sq in (3, 5, 8, 11, 13):
        assert hermitian_point_semigroup(sq).genus == sq * (sq - 1) // 2


def test_membership_matches_the_gap_set():
    # the closed form against the gap set {r s + t + 1 : r + t <= s - 2},
    # written out, for every h from -2 to s^2 + 2s
    for s in range(2, 41):
        gaps = {r * s + t + 1 for r in range(s - 1) for t in range(s - 1 - r)}
        got = {h for h in range(-2, s * s + 2 * s) if not in_hermitian_semigroup(s, h)}
        assert got == gaps | {-2, -1}, s
        assert hermitian_point_semigroup(s).gaps == gaps


@pytest.mark.parametrize("sq", [3, 5, 11])
def test_interval_rows_equal_the_semigroup_filter(sq):
    rows = hermitian_nongap_rows(sq, 7)
    sg = hermitian_point_semigroup(sq)
    assert rows == {h for h in range(1, 7 * sq + 1) if h in sg}


def test_quotient_semigroup():
    h5 = hermitian_point_semigroup(5)
    down = quotient_semigroup(h5, 3)
    assert sorted(down.gaps) == [1, 2, 4]
    assert down.nongaps(8) == [0, 3, 5, 6, 7, 8]
    assert quotient_semigroup(h5, 7).gaps == frozenset([1])
    assert quotient_semigroup(h5, 1) is h5


@pytest.mark.parametrize("sq", [3, 5, 8, 11])
def test_quotient_semigroup_genus_identity(sq):
    n = sq * sq - sq + 1
    top = hermitian_point_semigroup(sq)
    for d in divisors(n):
        assert quotient_semigroup(top, d).genus == (n // d - 1) // 2


def test_quotient_semigroup_composes():
    # dividing by d1*d2 equals dividing by d1 then by d2
    top = hermitian_point_semigroup(5)
    assert quotient_semigroup(top, 21) == quotient_semigroup(
        quotient_semigroup(top, 3), 7)
    assert quotient_semigroup(top, 21) == quotient_semigroup(
        quotient_semigroup(top, 7), 3)


def test_hermitian_semigroups_are_closed():
    for sq in (3, 5, 8):
        assert _is_closed(hermitian_point_semigroup(sq))


def test_first_quotient_nongaps():
    assert first_quotient_nongaps(5) == (3, 5)
    assert first_quotient_nongaps(8) == (5, 8)
    assert first_quotient_nongaps(11) == (7, 11)
    with pytest.raises(ValueError):
        first_quotient_nongaps(7)


def test_linear_series_dim():
    assert linear_series_dim(5, 3) == 3
    assert linear_series_dim(5, 7) == 5
    assert linear_series_dim(3, 7) == 4
    assert linear_series_dim(17, 7) == 5  # 17 = 3 (mod 7), above the collision
    for sq in (5, 8, 11, 17, 23):
        assert linear_series_dim(sq, 3) == 3
    with pytest.raises(ValueError):
        linear_series_dim(5, 4)


def test_dim_qualifying_values():
    sg5 = hermitian_point_semigroup(5)
    assert [h for h in range(3, 16, 3) if h in sg5] == [9, 15]
    assert [h for h in range(7, 36, 7) if h in sg5] == [14, 21, 28, 35]
    sg3 = hermitian_point_semigroup(3)
    assert [h for h in range(7, 22, 7) if h in sg3] == [7, 14, 21]


def test_genus_lmm_exact_cases():
    assert genus_lmm(3, 5) == ("exact", 4)
    assert genus_lmm(4, 5) == ("exact", 4)
    assert genus_lmm(5, 10) == ("exact", 20)   # floor((m-1)^2/4) for even m
    assert genus_lmm(9, 10) == ("exact", 20)
    assert genus_lmm(6, 8) == ("exact", 10)    # (m^2-m+4)/6 at m = 2 (mod 3)
    assert genus_lmm(7, 10) == ("exact", 15)   # (m^2-m)/6 otherwise
    with pytest.raises(ValueError):
        genus_lmm(2, 5)


def test_genus_lmm_agrees_with_the_oracle_to_m_120():
    # 3598 semigroups, past the m <= 40 of verify-paper's criterion 6
    cases = 0
    for m in range(4, 121):
        for ell in range((m + 1) // 2, m):
            kind, val = genus_lmm(ell, m)
            oracle = semigroup_from_generators([ell, m, m + 1]).genus
            if kind == "exact":
                assert val == oracle, (ell, m)
            else:
                assert oracle <= val, (ell, m)
            cases += 1
    assert cases == 3598


def test_genus_lmm_boundary_row():
    # ell = 3m/5 sits in the first row; the sieve meets that bound exactly
    kind, val = genus_lmm(6, 10)
    assert kind == "upper_bound" and val == 13
    assert semigroup_from_generators([6, 10, 11]).genus == 13


def test_first_nongap_candidates():
    assert first_nongap_candidates(5) == {3, 4}
    assert first_nongap_candidates(7) == {4, 5, 6}
    assert first_nongap_candidates(11) == {6, 8, 9, 10}


def test_orders_from_nongaps():
    assert orders_from_nongaps([0, 5, 6], 5).orders == (0, 1, 6)
    assert orders_from_nongaps([0, 4, 5, 6], 5).orders == (0, 1, 2, 6)
    with pytest.raises(ValueError):
        orders_from_nongaps([0, 3, 6], 5)  # second-to-last must be s
    # always starts 0, 1 since s and s+1 are both non-gaps
    for nongaps in ([0, 2, 3], [0, 1, 2, 3]):
        got = orders_from_nongaps(nongaps, 2).orders
        assert got[0] == 0 and got[1] == 1


def test_orders_at_quotient_branch():
    assert orders_at_quotient_branch(5).orders == (0, 1, 2, 5)
    assert orders_at_quotient_branch(8).orders == (0, 1, 3, 8)
    assert orders_at_quotient_branch(11).orders == (0, 1, 4, 11)


def test_order_sequence_validation():
    with pytest.raises(ValueError):
        OrderSequence("D", (1, 2))
    with pytest.raises(ValueError):
        OrderSequence("D", (0, 2, 2))


def test_stohr_voloch_hermitian():
    rep = stohr_voloch_degrees(10, 6, 2, OrderSequence("D", (0, 1, 5)),
                               OrderSequence("frobenius", (0, 5)), 25)
    assert rep.deg_frobenius == 252
    assert rep.bound == Fraction(126)
    assert rep.bound_floor == 126


def test_stohr_voloch_quotient():
    rep = stohr_voloch_degrees(3, 6, 3, OrderSequence("D", (0, 1, 2, 5)),
                               OrderSequence("frobenius", (0, 1, 5)), 25)
    assert rep.deg_ramification == 56
    assert rep.deg_frobenius == 192
    assert rep.bound == Fraction(64)
    assert rep.bound >= 56  # dominates the point count


def test_stohr_voloch_genus_zero_consistency():
    rep = stohr_voloch_degrees(0, 4, 2, OrderSequence("D", (0, 1, 2)),
                               OrderSequence("frobenius", (0, 1)), 9)
    # with 2g - 2 = -2 the ramification degree is (r+1) deg - 2 sum(eps)
    assert rep.deg_ramification == 3 * 4 - 2 * 3


def test_stohr_voloch_validation():
    with pytest.raises(ValueError):
        stohr_voloch_degrees(1, 4, 2, OrderSequence("D", (0, 1)),
                             OrderSequence("frobenius", (0, 1)), 9)


def test_dim3_order_inequality():
    assert dim3_order_inequality(25, 3, 2)       # 192 >= 168
    assert not dim3_order_inequality(25, 3, 4)   # 192 < 280
    # evaluates as pure arithmetic even where the hypothesis is vacuous
    assert isinstance(dim3_order_inequality(25, 10, 2), bool)


def test_castelnuovo_bound():
    assert castelnuovo_bound(6, 2) == Fraction(25, 2)
    assert castelnuovo_bound(6, 3) == Fraction((Fraction(9, 2) ** 2 - Fraction(1, 4)), 3)
    with pytest.raises(ValueError):
        castelnuovo_bound(6, 1)


def test_castelnuovo_parameter_conventions():
    # with q itself as the parameter the n = 3 bound reproduces the
    # classical (q-1)(q-2)/3 on 2g
    q = 25
    assert castelnuovo_bound(q, 3) == Fraction((q - 1) * (q - 2), 3)
    # with the actual series degree the same formula is violated by the
    # Hermitian curve (2g = 20 > 12.5), which is the flagged ambiguity
    from maxcurves import CASTELNUOVO_PARAMETER_NOTE

    assert castelnuovo_bound(6, 2) < 20
    assert "convention" in CASTELNUOVO_PARAMETER_NOTE


def test_dim3_orders():
    from maxcurves import dim3_orders

    d5 = dim3_orders(5, 5)
    assert d5["eps2_candidates"] == (2,)
    assert d5["eps"][0].orders == (0, 1, 2, 5)
    assert d5["nu"].orders == (0, 1, 5)
    d3 = dim3_orders(9, 3)
    assert d3["eps2_candidates"] == (2, 3)
    assert [e.orders for e in d3["eps"]] == [(0, 1, 2, 9), (0, 1, 3, 9)]


def test_classify_genus():
    assert classify_genus(25, 10)["label"] == "hermitian"
    assert classify_genus(25, 7)["label"] == "forbidden-interval"
    assert classify_genus(25, 4)["label"] == "second-largest"
    row = classify_genus(25, 3)
    assert row["label"] == "dim-3-window"
    assert row["eps2_lower_bound_equality"]  # (25 - 10 + 3)/6 = 3
    assert classify_genus(64, 12)["label"] == "second-largest"
    assert classify_genus(81, 9)["label"] == "below-window"
    assert classify_genus(25, 1)["label"] == "below-window"


def test_geer_vlugt_dim_and_orders():
    assert geer_vlugt_dim(3, 4, 1) == 4
    assert geer_vlugt_dim(3, 6, 2) == 4   # the r = m/2 - 1 sharpness case
    assert geer_vlugt_dim(5, 4, 2) == 2   # r = m/2
    orders = geer_vlugt_orders(3, 4, 1)
    assert orders["base_point"] == (0, 1, 4, 7, 10)
    assert orders["rational"] == (0, 1, 2, 3, 10)
    assert orders["generic"] == (0, 1, 2, 3, 9)
    with pytest.raises(ValueError):
        geer_vlugt_dim(3, 4, 0)
