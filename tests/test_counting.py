import numpy as np
import pytest

from maxcurves import cli, counting
from maxcurves import (
    CapError,
    artin_schreier_quotient,
    char2_chain_curve,
    count_projective_points,
    extension_count_prediction,
    fermat_quotient,
    geer_vlugt_curve,
    genus_from_count,
    hasse_weil_bounds,
    hermitian_canonical,
    hermitian_fermat,
    maximality_check,
    quotient_model_rational,
    singular_points,
)
from maxcurves.curves import HomPoly3
from maxcurves.fields import ExtField, build_field


HERMITIAN_COUNTS = {2: 9, 3: 28, 5: 126, 7: 344, 8: 513, 9: 730}


@pytest.mark.parametrize("sq,want", sorted(HERMITIAN_COUNTS.items()))
def test_hermitian_counts(sq, want):
    rep = count_projective_points(hermitian_canonical(sq))
    assert rep.total == want == sq**3 + 1
    assert rep.singular == 0
    assert rep.smooth + rep.singular == rep.total


@pytest.mark.parametrize("sq", [2, 3, 5])
def test_fermat_form_matches_canonical(sq):
    a = count_projective_points(hermitian_canonical(sq)).total
    b = count_projective_points(hermitian_fermat(sq)).total
    assert a == b


def test_hermitian_extension_count():
    rep = count_projective_points(hermitian_fermat(5), 2)
    assert rep.total == 126 == extension_count_prediction(25, 10, 2)
    rep9 = count_projective_points(hermitian_canonical(3), 2)
    assert rep9.total == extension_count_prediction(9, 3, 2)


def test_quotient_model_counts_with_branch_resolution():
    m = quotient_model_rational(5)
    r1 = count_projective_points(m)
    assert (r1.total, r1.singular, r1.smooth) == (49, 7, 42)
    assert r1.rational_branches == 14
    assert r1.resolved_total == 56 == 25 + 1 + 2 * 3 * 5
    r2 = count_projective_points(m, 2)
    assert r2.resolved_total == 476 == extension_count_prediction(25, 3, 2)
    m8 = quotient_model_rational(8)
    r3 = count_projective_points(m8)
    assert (r3.total, r3.singular) == (190, 19)
    assert r3.resolved_total == 209


def test_quotient_model_rational_singular_points_are_nodes():
    # the plane model of the degree-3 quotient carries rational nodes away
    # from the coordinate triangle; the triangle image points themselves
    # are not rational, and each node splits into two rational branches
    from maxcurves.counting import tangent_cone_data

    m = quotient_model_rational(5)
    sing = singular_points(m)
    assert len(sing) == 7
    assert (1, 1, 1) in sing
    for pt in sing:
        mult, ordinary, rational = tangent_cone_data(m.poly, pt)
        assert (mult, ordinary, rational) == (2, True, 2)


def test_smooth_models_have_no_singular_points():
    assert singular_points(hermitian_fermat(5)) == []
    assert singular_points(hermitian_fermat(5), 2) == []
    assert singular_points(hermitian_fermat(3), 3) == []
    assert singular_points(hermitian_canonical(5)) == []
    assert singular_points(hermitian_canonical(3), 2) == []


def test_envelope_singular_locus_is_the_triangle():
    from maxcurves import envelope_model

    sing = set(singular_points(envelope_model(5)))
    assert {(1, 0, 0), (0, 1, 0), (0, 0, 1)} <= sing


def test_family_counts():
    assert count_projective_points(geer_vlugt_curve(3, 4, 1)).total == 244
    assert count_projective_points(artin_schreier_quotient(5, 2)).total == 66
    assert count_projective_points(fermat_quotient(5, 2)).total == 36
    assert count_projective_points(char2_chain_curve(4)).total == 33
    assert count_projective_points(char2_chain_curve(8)).total == 257


def test_genus_from_count():
    assert genus_from_count(126, 25) == 10
    assert genus_from_count(244, 81) == 9 == (3 - 1) * 9 // 2
    assert genus_from_count(66, 25) == 4 == (5 - 1) ** 2 // 4
    with pytest.raises(ValueError):
        genus_from_count(127, 25)
    with pytest.raises(ValueError):
        genus_from_count(126, 24)


def test_hasse_weil_bounds():
    # 25 + 1 - 2*3*5 = -4, clamped at 0 like every negative lower bound
    assert hasse_weil_bounds(25, 3) == (0, 56)
    assert hasse_weil_bounds(25, 1) == (16, 36)
    assert hasse_weil_bounds(25, 0) == (26, 26)
    assert hasse_weil_bounds(64, 9) == (0, 209)
    with pytest.raises(ValueError):
        hasse_weil_bounds(24, 1)


def test_hasse_weil_bounds_reject_a_negative_genus():
    # g = -1 would give the interval (36, 16), lower bound above the upper
    with pytest.raises(ValueError, match="^genus is nonnegative$"):
        hasse_weil_bounds(25, -1)


def test_maximality_verdicts():
    herm = count_projective_points(hermitian_canonical(5))
    assert maximality_check(herm, 10).verdict == "maximal"
    # against a smaller genus the count violates the Weil interval
    assert maximality_check(herm, 3).verdict == "inconsistent"
    # against a larger genus it sits strictly inside
    assert maximality_check(herm, 11).verdict == "neither"
    quot = count_projective_points(quotient_model_rational(5))
    assert maximality_check(quot, 3).verdict == "maximal"
    assert maximality_check(quot, 3).count_used == 56


def test_maximality_rejects_unresolved_and_k2():
    gv = count_projective_points(geer_vlugt_curve(3, 4, 1))
    assert gv.resolved_total is None  # non-ordinary point at infinity
    v = maximality_check(gv, 9)
    assert v.verdict == "inconsistent" and "singular" in v.reason
    herm2 = count_projective_points(hermitian_canonical(5), 2)
    assert maximality_check(herm2, 10).verdict == "inconsistent"


def test_extension_prediction_formula():
    assert extension_count_prediction(25, 10, 2) == 626 - 500 == 126
    assert extension_count_prediction(25, 3, 2) == 476
    assert extension_count_prediction(25, 3, 1) == 56
    assert extension_count_prediction(25, 10, 3) == 25**3 + 1 + 2 * 10 * 125


@pytest.mark.parametrize("k,block", [(1, 7), (1, 100), (2, 5000)])
def test_sweep_blocks_keep_the_sweep_order(monkeypatch, k, block):
    # y-blocks of one row and of several rows give the same zeros in the
    # same order as one pass over the whole affine chart; the kernel covers
    # the affine chart once and the line at infinity (one more row) once
    poly, L = counting._lift_poly(hermitian_fermat(5), k)
    monkeypatch.setattr(counting, "_SWEEP_BLOCK", 1 << 40)
    want = counting._sweep_zeros(poly, L)
    assert len(want) == 126
    monkeypatch.setattr(counting, "_SWEEP_BLOCK", block)
    sweep_pass = counting._bulk_affine_zeros
    sizes = []

    def recorded(poly, L, tables, y_lo, y_hi):
        sizes.append((y_hi - y_lo) * L.order)
        return sweep_pass(poly, L, tables, y_lo, y_hi)

    monkeypatch.setattr(counting, "_bulk_affine_zeros", recorded)
    assert counting._sweep_zeros(poly, L) == want
    assert sum(sizes) == L.order ** 2 + L.order
    assert max(sizes) <= max(block, L.order)


def _digit_reference_zeros(poly, L, y_lo, y_hi):
    # the sweep kernel before Zech logarithms: every monomial gathers the
    # base-p digit vector of its value at each point into an (N, k) sum
    L.ensure_tables()
    exp = np.asarray(L._exp, dtype=np.int64)
    log = np.asarray(L._log, dtype=np.int64)
    unp = np.zeros((L.order, L.k), dtype=np.int32)
    vals = np.arange(L.order, dtype=np.int64)
    for i in range(L.k):
        unp[:, i] = vals % L.p
        vals //= L.p
    n, q = L.group_order, L.order
    ys = np.repeat(np.arange(y_lo, y_hi, dtype=np.int64), q)
    zs = np.tile(np.arange(q, dtype=np.int64), y_hi - y_lo)
    acc = np.zeros((ys.size, L.k), dtype=np.int64)
    logy = log[ys]
    logz = log[zs]
    for (i, j, kk), c in poly.terms.items():
        tl = log[c] + j * logy + kk * logz
        mask = np.ones(ys.size, dtype=bool)
        if j:
            mask &= ys != 0
        if kk:
            mask &= zs != 0
        vals = np.where(mask, exp[tl % n], 0)
        acc += unp[vals]
    idx = np.nonzero(np.all(acc % L.p == 0, axis=1))[0]
    return ys[idx], zs[idx]


def _scalar_line_at_infinity(poly, L):
    # the line at infinity before the kernel swept it: (0:1:z) for every z,
    # then (0:0:1), each evaluated by scalar field arithmetic
    pts = [(0, 1, z) for z in range(L.order) if poly.eval_i(0, 1, z) == 0]
    return pts + [(0, 0, 1)] if poly.eval_i(0, 0, 1) == 0 else pts


def _reference_sweep_zeros(poly, L):
    ys, zs = _digit_reference_zeros(poly, L, 0, L.order)
    affine = [(1, int(y), int(z)) for y, z in zip(ys, zs)]
    return affine + _scalar_line_at_infinity(poly, L)


def _sweep_cases():
    # every model tag at sqrt_q <= 5 (the t-tags at one nontrivial t each),
    # the geer-vlugt triples of the curve tests, k = 1, 2 up to 625 elements
    models = []
    for tag, (build, flags) in cli.MODELS.items():
        if flags == ("sqrt_q",):
            args = [(s,) for s in (2, 3, 4, 5)]
        elif flags == ("sqrt_q", "t"):
            args = [(2, 3), (3, 2), (4, 5), (5, 1), (5, 2)]
        else:
            args = [(2, 2, 1), (2, 4, 1), (2, 4, 2), (3, 2, 1), (3, 4, 1),
                    (3, 4, 2), (5, 2, 1)]
        for a in args:
            try:
                models.append((tag, a, build(*a)))
            except ValueError:     # envelope, quotient and chain constraints
                pass
    return [pytest.param(m, k, id=f"{tag}-{'-'.join(map(str, a))}-k{k}")
            for tag, a, m in models for k in (1, 2) if m.field.order**k <= 625]


@pytest.mark.parametrize("model,k", _sweep_cases())
def test_zech_sweep_matches_digit_reference(monkeypatch, model, k):
    poly, L = counting._lift_poly(model, k)
    q = L.order
    want_y, want_z = _digit_reference_zeros(poly, L, 0, q)
    got_y, got_z = counting._bulk_affine_zeros(poly, L, counting._np_tables(L), 0, q)
    assert np.array_equal(got_y, want_y) and np.array_equal(got_z, want_z)
    # two-row y-blocks: same zeros, same order
    monkeypatch.setattr(counting, "_SWEEP_BLOCK", 2 * q)
    zeros = counting._sweep_zeros(poly, L)
    affine = [pt for pt in zeros if pt[0] == 1]
    assert affine == [(1, int(y), int(z)) for y, z in zip(want_y, want_z)]
    # the line at infinity, swept by the kernel, against the scalar walk
    assert zeros[len(affine):] == _scalar_line_at_infinity(poly, L)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 2), (2, 6)])
def test_sweep_of_a_form_with_x_as_a_factor(p, k):
    # X * (fermat form) has no X-free term, so all q + 1 points of the line
    # at infinity lie on it.  Y^s (X + Z) has X-free terms but no Z^deg
    # term: (0:0:1) lies on it, and (0:1:0) is its one other point there.
    L = build_field(p, k)
    s = p ** (k // 2)
    model = hermitian_fermat(s)
    assert model.field is L
    fermat = model.poly
    times_x = HomPoly3(L, {(i + 1, j, kk): c for (i, j, kk), c in fermat.terms.items()})
    got = counting._sweep_zeros(times_x, L)
    assert got == _reference_sweep_zeros(times_x, L)
    assert got[-L.order - 1:] == [(0, 1, z) for z in range(L.order)] + [(0, 0, 1)]
    no_z_power = HomPoly3(L, {(1, s, 0): 1, (0, s, 1): 1})   # Y^s (X + Z)
    got = counting._sweep_zeros(no_z_power, L)
    assert got == _reference_sweep_zeros(no_z_power, L)
    assert [pt for pt in got if pt[0] == 0] == [(0, 1, 0), (0, 0, 1)]


def test_sweep_makes_no_scalar_evaluation(monkeypatch):
    # the whole plane, line at infinity included, goes through the kernel
    poly, L = counting._lift_poly(hermitian_canonical(5), 1)
    want = _reference_sweep_zeros(poly, L)

    def no_eval(*args):
        raise AssertionError("scalar evaluation in the sweep")

    monkeypatch.setattr(HomPoly3, "eval_i", no_eval)
    assert counting._sweep_zeros(poly, L) == want


ZECH_FIELDS = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 13) if p**k <= 1 << 12]


@pytest.mark.parametrize("p,k", ZECH_FIELDS)
def test_zech_table_closed_form(p, k):
    # build_field tables L, so L.add_i would read the Zech table under test;
    # a fresh ExtField adds digit by digit
    L = build_field(p, k)
    log, zech = counting._np_tables(L)
    exp, n = L._exp, L.group_order
    ref = ExtField(p, k, L.modulus)
    assert zech.shape == (n,)
    assert not log.flags.writeable and not zech.flags.writeable
    for m in range(n):
        one_plus = ref.add_i(1, exp[m])
        if zech[m] < 0:
            assert one_plus == 0
        else:
            assert exp[zech[m]] == one_plus
    assert [m for m in range(n) if zech[m] < 0] == [0 if p == 2 else n // 2]
    assert all(log[exp[m]] == m for m in range(n)) and log[0] == -1


def test_quotient_rational_sq8_over_f4096():
    # the degree-3 quotient at sqrt_q = 8 over F_{64^2}: 2926 plane points,
    # 19 of them rational nodes with two rational branches each
    rep = count_projective_points(quotient_model_rational(8), 2)
    assert (rep.total, rep.singular, rep.rational_branches) == (2926, 19, 38)
    assert rep.resolved_total == extension_count_prediction(64, 9, 2) == 2945


def test_enum_cap():
    with pytest.raises(CapError):
        count_projective_points(hermitian_canonical(5), 9)


def test_table_cap_is_the_cap_that_fires():
    # F_{3^12} is too large for discrete-log tables, and the error must
    # say so
    with pytest.raises(CapError, match=r"531441-element field exceeds the 2\^18 "
                                       r"discrete-log table cap"):
        count_projective_points(hermitian_canonical(9), 3)


def test_bezout_sanity_line():
    # plane-model count never exceeds deg * (|F| + 1) + |F|
    for model, k in ((hermitian_canonical(5), 1), (quotient_model_rational(5), 1),
                     (hermitian_fermat(5), 2)):
        rep = count_projective_points(model, k)
        size = model.field.order**k
        assert rep.total <= model.degree * (size + 1) + size


def test_count_report_roundtrip():
    rep = count_projective_points(quotient_model_rational(5))
    d = rep.to_dict()
    assert d["total"] == 49 and d["resolved_total"] == 56
    assert len(d["singular_points"]) == 7


def test_genus_count_roundtrip_property():
    from hypothesis import given
    from hypothesis import strategies as st

    @given(st.integers(2, 50), st.integers(0, 500))
    def roundtrip(s, g):
        q = s * s
        n = extension_count_prediction(q, g, 1)
        assert n == q + 1 + 2 * g * s
        assert genus_from_count(n, q) == g

    roundtrip()
