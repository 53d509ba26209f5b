import itertools
import math
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxcurves
from maxcurves import cli, counting
from maxcurves import (
    CapError,
    artin_schreier_quotient,
    char2_chain_curve,
    count_projective_points,
    envelope_model,
    extension_count_prediction,
    fermat_quotient,
    geer_vlugt_curve,
    genus_from_count,
    hasse_weil_bounds,
    hermitian_canonical,
    hermitian_fermat,
    maximality_check,
    quotient_model_rational,
)
from maxcurves.curves import CurveModel, HomPoly3, ProjMatrix, apply_coord_change
from maxcurves.fields import ExtField, FPoly, build_field, embed, poly_roots


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
    sing = count_projective_points(m).singular_points
    assert len(sing) == 7
    assert (1, 1, 1) in sing
    for pt in sing:
        mult, ordinary, rational = tangent_cone_data(m.poly, pt)
        assert (mult, ordinary, rational) == (2, True, 2)


def test_smooth_models_have_no_singular_points():
    assert count_projective_points(hermitian_fermat(5)).singular_points == ()
    assert count_projective_points(hermitian_fermat(5), 2).singular_points == ()
    assert count_projective_points(hermitian_fermat(3), 3).singular_points == ()
    assert count_projective_points(hermitian_canonical(5)).singular_points == ()
    assert count_projective_points(hermitian_canonical(3), 2).singular_points == ()


def test_envelope_singular_locus_is_the_triangle():
    from maxcurves import envelope_model

    sing = set(count_projective_points(envelope_model(5)).singular_points)
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


def test_minimal_verdict_of_the_hermitian_curve_over_f_16():
    # y^2 + y = x^3 is maximal over F_4 (9 = 4 + 1 + 2 * 1 * 2), so its
    # Frobenius over F_16 has both eigenvalues (-2)^2 = 4: read over F_16 as
    # a genus-1 model with sqrt_q = 4, its 9 points are 16 + 1 - 2 * 1 * 4
    herm = hermitian_canonical(2)
    lifted = herm.poly.map_coefficients(embed(herm.field, build_field(2, 4)))
    rep = count_projective_points(CurveModel(lifted, "hermitian-over-f16", 4, (), 1))
    assert (rep.q, rep.total, rep.singular) == (16, 9, 0)
    v = maximality_check(rep, 1)
    assert (v.verdict, v.count_used, v.lower, v.upper) == ("minimal", 9, 9, 25)


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


def _necklaces(r, m):
    # the number of orbits of v -> v^r on F_(r^m): (1/m) sum over e | m of
    # phi(e) r^(m/e) (Lidl-Niederreiter, Thm 2.14, counted by Burnside)
    phi = [sum(math.gcd(i, e) == 1 for i in range(1, e + 1)) for e in range(m + 1)]
    return sum(phi[e] * r ** (m // e) for e in range(1, m + 1) if m % e == 0) // m


def _expanded_sweep(poly, L):
    # the orbit sweep's representatives with their sigma^i images merged
    # back into sweep order, as the sweep returned them before it kept the
    # representatives only, and the total weighted by orbit size that the
    # count reads off the representatives
    sigma, m, least, orbit_size = counting._frobenius_orbits(poly, L)
    ys, zs, inf = counting._sweep_zeros(poly, L, np.flatnonzero(least))
    origin = (0, 0, poly.degree) not in poly.terms
    total = int(orbit_size[ys].sum()) + inf.size + origin
    images = set()
    for _ in range(m):
        images.update(zip(ys.tolist(), zs.tolist()))
        ys, zs = sigma[ys], sigma[zs]
    pts = [(1, y, z) for y, z in sorted(images)]
    return pts + [(0, 1, z) for z in inf.tolist()] + [(0, 0, 1)] * origin, total


@pytest.mark.parametrize("k,block", [(1, 7), (1, 100), (2, 625), (2, 4375), (2, 5000),
                                     (2, 18750)])
def test_sweep_blocks_keep_the_sweep_order(monkeypatch, k, block):
    # y-blocks of one row and of several rows (1, 7, 8 and 30 rows of
    # F_625) give the same zeros in the same order as one pass over the
    # orbit rows; the kernel covers one row per orbit of v -> v^5 on the
    # affine chart once and the line at infinity (one more row) once
    poly, L = counting._lift_poly(hermitian_fermat(5), k)
    _, _, least, orbit_size = counting._frobenius_orbits(poly, L)
    rows = np.flatnonzero(least)
    monkeypatch.setattr(counting, "_SWEEP_BLOCK", 1 << 40)
    want = counting._sweep_zeros(poly, L, rows)
    pts, total = _expanded_sweep(poly, L)
    assert len(pts) == total == 126
    monkeypatch.setattr(counting, "_SWEEP_BLOCK", block)
    sweep_pass = counting._bulk_affine_zeros
    sizes = []

    def recorded(row_logs, L, tables, ys):
        sizes.append(ys.size * L.order)
        return sweep_pass(row_logs, L, tables, ys)

    monkeypatch.setattr(counting, "_bulk_affine_zeros", recorded)
    got = counting._sweep_zeros(poly, L, rows)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert sum(sizes) == (_necklaces(5, 2 * k) + 1) * L.order
    assert max(sizes) <= max(block, L.order)
    # every row in the same blocks: its zeros in the orbit rows are the
    # orbit sweep's, and it finds as many as the total weighted by orbit size
    all_y, all_z, _ = counting._sweep_zeros(poly, L, np.arange(L.order))
    kept = least[all_y]
    assert np.array_equal(all_y[kept], want[0]) and np.array_equal(all_z[kept], want[1])
    assert all_y.size == int(orbit_size[want[0]].sum())


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="pins glibc's heap trimming")
def test_repeat_sweeps_keep_their_heap():
    # glibc gives the top of its heap back to the kernel on free once it
    # passes the trim threshold, twice the largest mmapped block freed so
    # far, and a sweep pass whose int32 temporaries do not fit under it
    # faults them in again on the next pass.  The child frees one 640 KiB
    # block first, which sets that threshold near 1.26 MiB whatever the
    # interpreter freed before: the 2^15-point passes over F_4096 fit under
    # it (0 faults a count), the 2^16-point passes did not (7392-7744).  A
    # fresh interpreter, because earlier tests leave the heap in another state.
    code = ("import resource\n"
            "import numpy as np\n"
            "from maxcurves import count_projective_points, hermitian_canonical\n"
            "block = np.empty(640 << 10, dtype=np.uint8)\n"
            "del block\n"
            "faults = []\n"
            "for _ in range(3):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert count_projective_points(hermitian_canonical(8), 2).total == 513\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(*faults[1:])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(maxcurves.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    faults = [int(f) for f in out.stdout.split()]
    assert len(faults) == 2 and all(f < 500 for f in faults), faults


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


def _geer_vlugt_form(p, m, r):
    # the constructor's form, sum_{i<=r} y^(p^i) z^(s+1-p^i) = b x^(s+1) with
    # b the least nonzero root of X^s + X, at any 1 <= r <= m/2: the
    # constructor refuses the triples where the curve is not maximal, such as
    # (3, 2, 1), but the singular form stays a sweep input
    F, s = build_field(p, m), p ** (m // 2)
    b = next(v for v in range(1, F.order) if F.add_i(F.pow_i(v, s), v) == 0)
    terms = {(0, p**i, s + 1 - p**i): 1 for i in range(r + 1)}
    terms[(s + 1, 0, 0)] = F.neg_i(b)
    return CurveModel(HomPoly3(F, terms), "geer-vlugt", s, params=(p, m, r))


def _case_model(tag, build, args):
    if tag == "geer-vlugt" and 2 * args[2] == args[1]:
        return _geer_vlugt_form(*args)
    return build(*args)


def test_geer_vlugt_form_is_the_constructors():
    for args in ((2, 4, 1), (3, 4, 1), (2, 6, 1), (2, 6, 2)):
        form, model = _geer_vlugt_form(*args), geer_vlugt_curve(*args)
        assert (form.poly, form.tag()) == (model.poly, model.tag())


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
                models.append((tag, a, _case_model(tag, build, a)))
            except ValueError:     # envelope, quotient and chain constraints
                pass
    return [pytest.param(m, k, id=f"{tag}-{'-'.join(map(str, a))}-k{k}")
            for tag, a, m in models for k in (1, 2) if m.field.order**k <= 625]


@pytest.mark.parametrize("model,k", _sweep_cases())
def test_zech_sweep_matches_digit_reference(monkeypatch, model, k):
    poly, L = counting._lift_poly(model, k)
    q = L.order
    want_y, want_z = _digit_reference_zeros(poly, L, 0, q)
    tables = counting._np_tables(L)
    row_logs = counting._row_coefficients(poly, L, tables)
    got_y, got_z = counting._bulk_affine_zeros(row_logs, L, tables, np.arange(q))
    assert np.array_equal(got_y, want_y) and np.array_equal(got_z, want_z)
    # the grid path in one-row blocks, and the point-list path at every
    # point of the plane: z = 0 and the rows where a C_e(y) vanishes too
    ones = [counting._bulk_affine_zeros(row_logs, L, tables, np.arange(y, y + 1))
            for y in range(q)]
    assert np.array_equal(np.concatenate([y for y, _ in ones]), want_y)
    assert np.array_equal(np.concatenate([z for _, z in ones]), want_z)
    every_y, every_z = np.divmod(np.arange(q * q), q)
    got = counting._vanishing(row_logs, L, tables, every_y, every_z)
    assert np.array_equal(np.flatnonzero(got), want_y * q + want_z)
    # two-row y-blocks of the orbit rows, sigma-expanded: same zeros, same
    # order, and the weighted total counts them
    monkeypatch.setattr(counting, "_SWEEP_BLOCK", 2 * q)
    zeros, total = _expanded_sweep(poly, L)
    affine = [pt for pt in zeros if pt[0] == 1]
    assert affine == [(1, int(y), int(z)) for y, z in zip(want_y, want_z)]
    # the line at infinity, swept by the kernel, against the scalar walk
    assert zeros[len(affine):] == _scalar_line_at_infinity(poly, L)
    assert total == len(zeros)


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
    got, total = _expanded_sweep(times_x, L)
    assert got == _reference_sweep_zeros(times_x, L) and total == len(got)
    assert got[-L.order - 1:] == [(0, 1, z) for z in range(L.order)] + [(0, 0, 1)]
    no_z_power = HomPoly3(L, {(1, s, 0): 1, (0, s, 1): 1})   # Y^s (X + Z)
    got, total = _expanded_sweep(no_z_power, L)
    assert got == _reference_sweep_zeros(no_z_power, L) and total == len(got)
    assert [pt for pt in got if pt[0] == 0] == [(0, 1, 0), (0, 0, 1)]


def test_sweep_makes_no_scalar_evaluation(monkeypatch):
    # the whole plane, line at infinity included, goes through the kernel
    poly, L = counting._lift_poly(hermitian_canonical(5), 1)
    want = _reference_sweep_zeros(poly, L)

    def no_eval(*args):
        raise AssertionError("scalar evaluation in the sweep")

    monkeypatch.setattr(HomPoly3, "eval_i", no_eval)
    assert _expanded_sweep(poly, L) == (want, len(want))


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


# ---------------------------------------------------------------------------
# tangent cones from Hasse derivatives
# ---------------------------------------------------------------------------

def _reference_tangent_cone_data(poly, pt):
    # tangent_cone_data before Hasse derivatives: a translation moves pt to
    # the origin of its chart, compose_linear expands the whole form there,
    # and the lowest-degree part in the two chart variables is the cone
    F = poly.field
    x0, y0, z0 = pt
    if x0 == 1:
        rows, (ua, va) = [[1, 0, 0], [y0, 1, 0], [z0, 0, 1]], (1, 2)
    elif y0 == 1:
        rows, (ua, va) = [[1, x0, 0], [0, 1, 0], [0, z0, 1]], (0, 2)
    else:
        rows, (ua, va) = [[1, 0, x0], [0, 1, y0], [0, 0, 1]], (0, 1)
    shifted = poly.compose_linear(ProjMatrix(F, rows))
    by_deg: dict[int, dict[tuple[int, int], int]] = {}
    for e, c in shifted.terms.items():
        by_deg.setdefault(e[ua] + e[va], {})[(e[ua], e[va])] = c
    mult = min(by_deg)
    form = by_deg[mult]
    f = FPoly(F, [form.get((mult - j, j), 0) for j in range(mult + 1)])
    inf_mult = mult - f.degree()
    ordinary = f.gcd(f.derivative()).degree() == 0 and inf_mult <= 1
    return mult, ordinary, len(poly_roots(f)) + (1 if inf_mult else 0)


def _model_cases(ks):
    # every model tag at small sqrt_q (the t-tags and geer-vlugt at a few
    # parameters each), k in ks up to 4096 elements, and the degree-12
    # quotient model at sqrt_q = 11 with its 37 rational nodes
    cases = []
    for tag, (build, flags) in cli.MODELS.items():
        if flags == ("sqrt_q",):
            args = [(s,) for s in (2, 3, 4, 5, 7, 8)]
        elif flags == ("sqrt_q", "t"):
            args = [(3, 2), (4, 5), (5, 2), (5, 3), (7, 4), (8, 3)]
        else:
            args = [(2, 4, 1), (2, 4, 2), (3, 4, 1), (2, 6, 1)]
        for a in args:
            try:
                model = _case_model(tag, build, a)
            except ValueError:     # envelope, quotient and chain constraints
                continue
            cases += [pytest.param(model, k, id=f"{tag}-{'-'.join(map(str, a))}-k{k}")
                      for k in ks if model.field.order**k <= 4096]
    return cases + [pytest.param(quotient_model_rational(11), 1, id="quotient-rational-11-k1")]


@pytest.mark.parametrize("model,k", _model_cases((1, 2)))
def test_tangent_cones_match_the_translated_form(model, k):
    rep = count_projective_points(model, k)
    poly, _ = counting._lift_poly(model, k)
    for pt in rep.singular_points:
        assert counting.tangent_cone_data(poly, pt) == _reference_tangent_cone_data(poly, pt)


def test_tangent_cones_agree_on_the_triangle_of_the_envelope():
    # envelope_model(5) is invariant under the cyclic shift of coordinates,
    # and its three triangle points each carry one repeated rational tangent
    # line: at (0:1:0) it is the line at infinity of the chart, elsewhere a
    # finite one, and each counts once
    poly = envelope_model(5).poly
    cones = {counting.tangent_cone_data(poly, pt) for pt in ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
    assert cones == {(2, False, 1)}


def test_tangent_cone_refusals():
    poly = hermitian_canonical(5).poly          # Y^5 Z + Y Z^5 = X^6
    with pytest.raises(ValueError, match="^point is not on the curve$"):
        counting.tangent_cone_data(poly, (1, 0, 0))
    with pytest.raises(ValueError, match="^point is smooth$"):
        counting.tangent_cone_data(poly, (0, 1, 0))


def _cone_form(L, cone, chart):
    # X (sum_j cone[j] Y^(m-j) Z^j) + Y^(m+1) + Z^(m+1), whose point (1:0:0)
    # has multiplicity m with that tangent cone in u = Y, v = Z (for a node,
    # c0 Y^2 + b YZ + a Z^2), with its coordinates rotated so that the point
    # is the point of the given chart and the cone has the same coefficients
    # in that chart's (u, v)
    m = len(cone) - 1
    terms = {**{(1, m - j, j): c for j, c in enumerate(cone)}, (0, m + 1, 0): 1, (0, 0, m + 1): 1}
    move = [lambda i, j, k: (i, j, k), lambda i, j, k: (j, i, k), lambda i, j, k: (j, k, i)][chart]
    pt = [(1, 0, 0), (0, 1, 0), (0, 0, 1)][chart]
    return HomPoly3(L, {move(*e): c for e, c in terms.items()}), pt


def _absolute_trace(L, x):
    t = 0
    for _ in range(L.k):
        t, x = L.add_i(t, x), L.mul_i(x, x)
    return t


def _node_cases():
    # (field, (c0, b, a), (ordinary, rational tangents)) for the cone
    # c0 u^2 + b uv + a v^2 of a node
    F8, F5 = build_field(2, 3), build_field(5, 1)
    by_trace = {_absolute_trace(F8, c): c for c in range(1, F8.order)}
    return [
        pytest.param(F8, (1, 0, 1), (False, 1), id="char2-b0"),
        pytest.param(F8, (2, 0, 1), (False, 1), id="char2-b0-c-not-1"),
        pytest.param(F8, (by_trace[0], 1, 1), (True, 2), id="char2-trace0"),
        pytest.param(F8, (by_trace[1], 1, 1), (True, 0), id="char2-trace1"),
        pytest.param(F8, (0, 3, 5), (True, 2), id="char2-c0-zero"),
        pytest.param(F5, (1, 2, 1), (False, 1), id="odd-disc-zero"),
        pytest.param(F5, (4, 0, 1), (True, 2), id="odd-disc-square"),
        pytest.param(F5, (2, 0, 1), (True, 0), id="odd-disc-nonsquare"),
        pytest.param(F5, (0, 3, 2), (True, 2), id="odd-c0-zero"),
        pytest.param(F5, (1, 1, 0), (True, 2), id="odd-c2-zero-b-nonzero"),
        pytest.param(F5, (1, 0, 0), (False, 1), id="odd-c2-zero-b-zero"),
        pytest.param(F8, (1, 1, 0), (True, 2), id="char2-c2-zero-b-nonzero"),
        pytest.param(F8, (1, 0, 0), (False, 1), id="char2-c2-zero-b-zero"),
    ]


@pytest.mark.parametrize("L,cone,want", _node_cases())
@pytest.mark.parametrize("chart", [0, 1, 2])
def test_node_cones_on_hand_built_points(monkeypatch, L, cone, want, chart):
    # the m = 2 cone is decided by its discriminant (odd p) or by b and the
    # absolute trace of ac/b^2 (p = 2), with no root finding
    poly, pt = _cone_form(L, cone, chart)
    want_data = _reference_tangent_cone_data(poly, pt)

    def no_roots(*args):
        raise AssertionError("a node's cone took a gcd with X^|F| - X")

    monkeypatch.setattr(FPoly, "powmod", no_roots)
    assert counting.tangent_cone_data(poly, pt) == want_data == (2, *want)


def _triple_cases():
    # (field, cone, rational tangents) for triple points with three, one and
    # no rational tangent lines, the cone sum_j cone[j] u^(3-j) v^j: u v (u + v);
    # u (u^2 + uv + v^2) over F_2 and v (u^2 - 2 v^2) over F_5, an irreducible
    # quadratic times a line; u^3 + u v^2 + v^3, irreducible over both
    F2, F5 = build_field(2, 1), build_field(5, 1)
    return [
        pytest.param(F2, (0, 1, 1, 0), 3, id="char2-three"),
        pytest.param(F2, (1, 1, 1, 0), 1, id="char2-one"),
        pytest.param(F2, (1, 0, 1, 1), 0, id="char2-none"),
        pytest.param(F5, (0, 1, 1, 0), 3, id="odd-three"),
        pytest.param(F5, (0, 1, 0, 3), 1, id="odd-one"),
        pytest.param(F5, (1, 0, 1, 1), 0, id="odd-none"),
    ]


@pytest.mark.parametrize("L,cone,want", _triple_cases())
@pytest.mark.parametrize("chart", [0, 1, 2])
def test_triple_point_lines_match_the_root_finder(L, cone, want, chart):
    # for m >= 3 the rational lines are counted as deg gcd(f, X^|F| - X),
    # which must equal the number of roots poly_roots finds
    poly, pt = _cone_form(L, cone, chart)
    assert counting.tangent_cone_data(poly, pt) == _reference_tangent_cone_data(poly, pt)
    assert counting.tangent_cone_data(poly, pt) == (3, True, want)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_node_cones_on_every_quadratic(p, k):
    # every nonzero cone c0 u^2 + b uv + a v^2 over a small field
    L = build_field(p, k)
    seen = set()
    for cone in itertools.product(range(L.order), repeat=3):
        if any(cone):
            poly, pt = _cone_form(L, cone, 0)
            got = counting.tangent_cone_data(poly, pt)
            assert got == _reference_tangent_cone_data(poly, pt), cone
            seen.add(got)
    assert seen == {(2, False, 1), (2, True, 2), (2, True, 0)}


def test_cone_forms_are_built_once_per_chart(monkeypatch):
    # one count hands one memo to all its cones and the next count a new
    # one; with that memo each Hasse derivative form is built once per
    # chart, not once per singular point
    model = quotient_model_rational(11)      # 37 rational nodes
    memos = []
    cone = counting.tangent_cone_data

    def recorded(poly, pt, forms=None):
        memos.append(forms)
        return cone(poly, pt, forms)

    monkeypatch.setattr(counting, "tangent_cone_data", recorded)
    rep = count_projective_points(model)
    first = len(memos)
    count_projective_points(model)
    assert first and len(memos) == 2 * first and memos[0] is not memos[first]
    assert all(m is memos[0] for m in memos[:first])
    assert all(m is memos[first] for m in memos[first:])
    monkeypatch.undo()
    want = [_reference_tangent_cone_data(model.poly, pt) for pt in rep.singular_points]
    built = []
    hasse = HomPoly3.hasse

    def counted(self, axis, order):
        built.append((axis, order))
        return hasse(self, axis, order)

    monkeypatch.setattr(HomPoly3, "hasse", counted)
    forms = {}
    assert [counting.tangent_cone_data(model.poly, pt, forms)
            for pt in rep.singular_points] == want
    charts = {counting._chart_axes(pt) for pt in rep.singular_points}
    assert {key[:2] for key in forms} == charts
    assert len(built) == 2 * len(forms) == 2 * 6 * len(charts)   # m = 0, 1, 2


@pytest.mark.parametrize("model,k", [(quotient_model_rational(5), 2), (hermitian_fermat(5), 2)])
def test_a_count_folds_each_form_once(monkeypatch, model, k):
    # the row coefficients of a form are folded once per count, however
    # many y-blocks the sweep takes: the form itself, its form at infinity,
    # and each partial and its form at infinity where there are zeros to
    # test, at most eight folds.  The z side, the columns of z^e, is folded
    # with them: a kernel call reads no log table, and every pass over the
    # affine rows is handed the one fold of the form
    folded, passes = [], []
    fold, sweep_pass, kernel = (counting._row_coefficients, counting._bulk_affine_zeros,
                                counting._vanishing)

    def recorded_fold(poly, L, tables):
        folded.append(poly)
        return fold(poly, L, tables)

    def recorded_pass(row_logs, L, tables, ys):
        passes.append(row_logs)
        return sweep_pass(row_logs, L, tables, ys)

    def logless_kernel(row_logs, L, tables, ys, zs):
        return kernel(row_logs, L, (None, tables[1]), ys, zs)

    monkeypatch.setattr(counting, "_row_coefficients", recorded_fold)
    monkeypatch.setattr(counting, "_bulk_affine_zeros", recorded_pass)
    monkeypatch.setattr(counting, "_vanishing", logless_kernel)
    runs = []
    for block in (7, 1 << 40):
        monkeypatch.setattr(counting, "_SWEEP_BLOCK", block)
        folded.clear()
        passes.clear()
        report = _report_numbers(count_projective_points(model, k))
        assert all(logs is passes[0] for logs in passes[:-1])
        runs.append((report, list(folded), len(passes)))
    poly, L = counting._lift_poly(model, k)
    (by_row_report, by_row, row_passes), (at_once_report, at_once, one_pass) = runs
    assert by_row_report == at_once_report == _reference_count(poly, L)[1]
    assert (row_passes, one_pass) == (int(counting._frobenius_orbits(poly, L)[2].sum()) + 1, 2)
    assert by_row == at_once and by_row[:2] == [poly, counting._at_infinity(poly)]
    assert by_row.count(poly) == 1 and len(by_row) <= 8


HASSE_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


@pytest.mark.parametrize("p,k", HASSE_FIELDS)
def test_hasse_taylor_identity(p, k):
    # f(P + u e_i + v e_j) = sum over a, b of (D_i^(a) D_j^(b) f)(P) u^a v^b
    # for every u, v in F, on a form of degree 2p + 1, so that exponents
    # pass p and binomials vanish mod p
    F = build_field(p, k)
    rng = random.Random(100 * p + k)
    deg = 2 * p + 1
    monos = [(a, b, deg - a - b) for a in range(deg + 1) for b in range(deg + 1 - a)]
    f = HomPoly3(F, {e: rng.randrange(1, F.order) for e in rng.sample(monos, 8)})
    assert f.hasse(0, 1).terms == {
        (a - 1, b, c): F.mul_i(v, a % p) for (a, b, c), v in f.terms.items() if a % p}
    powers = [[F.pow_i(u, a) for a in range(deg + 1)] for u in range(F.order)]
    for i, j in itertools.permutations(range(3), 2):
        derivs = {(a, b): f.hasse(i, a).hasse(j, b)
                  for a in range(deg + 1) for b in range(deg + 1 - a)}
        for _ in range(3):
            P = [rng.randrange(F.order) for _ in range(3)]
            taylor = {ab: d.eval_i(*P) for ab, d in derivs.items()}
            for u, v in itertools.product(range(F.order), repeat=2):
                want = 0
                for (a, b), c in taylor.items():
                    want = F.add_i(want, F.mul_i(c, F.mul_i(powers[u][a], powers[v][b])))
                moved = list(P)
                moved[i] = F.add_i(moved[i], u)
                moved[j] = F.add_i(moved[j], v)
                assert f.eval_i(*moved) == want, (i, j, P, u, v)


@pytest.mark.parametrize("model,k", [
    (quotient_model_rational(8), 1),
    (envelope_model(5), 2),
])
def test_count_makes_no_coordinate_change(monkeypatch, model, k):
    # singular points and their tangent cones are read at the point; no
    # copy of the form is built by substitution
    calls = []
    compose = HomPoly3.compose_linear

    def spy(self, mat):
        calls.append(mat)
        return compose(self, mat)

    monkeypatch.setattr(HomPoly3, "compose_linear", spy)
    rep = count_projective_points(model, k)
    assert rep.singular and calls == []


# ---------------------------------------------------------------------------
# one kernel row per Frobenius orbit
# ---------------------------------------------------------------------------

def _full_row_sweep(poly, L):
    # _sweep_zeros before the orbit sweep: the kernel on every row of the
    # affine chart, in blocks of at most 2^16 points, then the line at
    # infinity
    q = L.order
    tables = counting._np_tables(L)
    row_logs = counting._row_coefficients(poly, L, tables)
    rows = max(1, (1 << 16) // q)
    pts = []
    for y0 in range(0, q, rows):
        ys, zs = counting._bulk_affine_zeros(row_logs, L, tables, np.arange(y0, min(y0 + rows, q)))
        pts.extend((1, int(y), int(z)) for y, z in zip(ys, zs))
    return pts + _scalar_line_at_infinity(poly, L)


def _reference_count(poly, L):
    # count_projective_points before the orbit sweep: every row swept, the
    # partials tested at every zero and a tangent cone read at every
    # singular point
    zeros = _full_row_sweep(poly, L)
    parts = [poly.hasse(i, 1) for i in range(3)]
    sing = [pt for pt in zeros if all(pp.eval_i(*pt) == 0 for pp in parts)]
    branches = 0
    for pt in sing:
        mult, ordinary, rational = counting.tangent_cone_data(poly, pt)
        if not ordinary:
            branches = None
            break
        branches += rational
    smooth = len(zeros) - len(sing)
    resolved = None if branches is None else smooth + branches
    return zeros, (len(zeros), len(sing), smooth, branches, resolved, tuple(sing))


def _report_numbers(rep):
    return (rep.total, rep.singular, rep.smooth, rep.rational_branches,
            rep.resolved_total, rep.singular_points)


@pytest.mark.parametrize("model,k", _model_cases((1, 2, 3)))
def test_orbit_sweep_matches_the_full_row_sweep(model, k):
    poly, L = counting._lift_poly(model, k)
    zeros, numbers = _reference_count(poly, L)
    assert _expanded_sweep(poly, L) == (zeros, len(zeros))
    assert _report_numbers(count_projective_points(model, k)) == numbers


@pytest.mark.parametrize("sq,k,p", [(3, 1, 3), (2, 2, 2), (4, 1, 2)])
def test_orbit_sweep_of_a_form_over_all_of_its_field(sq, k, p):
    # a random coordinate change moves the form's coefficients off every
    # proper subfield: sigma is then the identity and every orbit one element
    rng = random.Random(1000 * sq + k)
    model = hermitian_canonical(sq)
    L = build_field(p, model.field.k * k)
    while True:
        mat = ProjMatrix(L, [[L.random_element(rng) for _ in range(3)] for _ in range(3)])
        if mat.det().value:
            break
    moved = apply_coord_change(model, mat)
    assert moved.field is L
    sigma, m, least, orbit_size = counting._frobenius_orbits(moved.poly, L)
    assert m == 1 and least.all() and (sigma == np.arange(L.order)).all()
    assert (orbit_size == 1).all()
    zeros, numbers = _reference_count(moved.poly, L)
    assert _expanded_sweep(moved.poly, L) == (zeros, len(zeros))
    assert _report_numbers(count_projective_points(moved)) == numbers
    assert count_projective_points(moved).total == count_projective_points(model, k).total


@pytest.mark.parametrize("p,k,terms", [
    (2, 3, {(2, 0, 0): 1}),
    (3, 2, {(2, 0, 0): 1}),
    (2, 3, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1}),
    (2, 5, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1}),
    (3, 1, {(2, 0, 0): 1, (0, 2, 0): 1}),
])
def test_orbit_sweep_of_forms_with_no_affine_zero(p, k, terms):
    # X^2 has no zero on the chart x = 1 and contains the line at infinity,
    # every point of it singular.  X^2 + XY + Y^2 over F_(2^odd) and
    # X^2 + Y^2 over F_3 have no affine zero either: their one point is
    # (0:0:1), a node with no rational tangent
    L = build_field(p, k)
    poly = HomPoly3(L, terms)
    zeros, numbers = _reference_count(poly, L)
    assert zeros and all(pt[0] == 0 for pt in zeros)
    assert _expanded_sweep(poly, L) == (zeros, len(zeros))
    assert _report_numbers(count_projective_points(CurveModel(poly, "test"))) == numbers


@pytest.mark.parametrize("model,k,r,m", [
    (hermitian_canonical(8), 2, 2, 12),        # F_4096, coefficients in F_2
    (quotient_model_rational(8), 2, 8, 4),     # coefficients in F_8
    (hermitian_fermat(3), 3, 3, 6),            # F_729
    (envelope_model(5), 2, 5, 4),              # F_625
])
def test_the_kernel_sees_one_row_per_orbit(monkeypatch, model, k, r, m):
    # 352 orbits of v -> v^2 on F_4096, and so on: the kernel sweeps one
    # row per orbit and the line at infinity.  The orbits of the least
    # values cover L once, and the values whose orbit size divides e are the
    # r^e elements of the subfield F_(r^e)
    poly, L = counting._lift_poly(model, k)
    sigma, got_m, least, orbit_size = counting._frobenius_orbits(poly, L)
    assert (got_m, L.order) == (m, r**m)
    assert int(orbit_size[least].sum()) == L.order
    assert all(int((e % orbit_size == 0).sum()) == r**e for e in range(1, m + 1) if m % e == 0)
    sweep_pass = counting._bulk_affine_zeros
    rows = []

    def recorded(row_logs, L, tables, ys):
        rows.append(ys.size)
        return sweep_pass(row_logs, L, tables, ys)

    monkeypatch.setattr(counting, "_bulk_affine_zeros", recorded)
    counting._sweep_zeros(poly, L, np.flatnonzero(least))
    assert sum(rows) == _necklaces(r, m) + 1 == int(least.sum()) + 1


# ---------------------------------------------------------------------------
# zero tests on the Zech kernel: the last z-power by one comparison, the
# partials at the sweep's zero arrays
# ---------------------------------------------------------------------------

def _reference_singular_seeds(poly, ys, zs, inf, origin):
    # the singular filter before the log domain: the three partials
    # evaluated by scalar field arithmetic at each point, in order
    parts = [poly.hasse(i, 1) for i in range(3)]
    reps = itertools.chain(
        ((1, y, z) for y, z in zip(ys.tolist(), zs.tolist())),
        ((0, 1, z) for z in inf.tolist()),
        [(0, 0, 1)] * origin,
    )
    return [pt for pt in reps if all(pp.eval_i(*pt) == 0 for pp in parts)]


@pytest.mark.parametrize("model,k", _sweep_cases())
def test_singular_seeds_match_the_scalar_filter(model, k):
    # at the count's representatives (the zeros in the rows least in their
    # orbit, and at z least in its orbit at infinity) and at every zero
    poly, L = counting._lift_poly(model, k)
    least = counting._frobenius_orbits(poly, L)[2]
    origin = (0, 0, poly.degree) not in poly.terms
    ys, zs, inf = counting._sweep_zeros(poly, L, np.flatnonzero(least))
    for args in ((ys, zs, inf[least[inf]], origin),
                 counting._sweep_zeros(poly, L, np.arange(L.order)) + (origin,)):
        want = _reference_singular_seeds(poly, *args)
        assert counting._singular_seeds(poly, L, *args) == want
    assert _report_numbers(count_projective_points(model, k)) == _reference_count(poly, L)[1]


SMALL_FIELDS = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 10) if p**k <= 729]
FORM_SHAPES = ("any", "one z-power", "last row coefficient vanishes", "times X")


@st.composite
def _sparse_forms(draw):
    # (L, form, shape): up to five random monomials of degree at most 7
    # (8 times X) over a field with at most 729 elements, in one of
    # FORM_SHAPES.  "one z-power" puts every monomial at one power of Z.
    # "last row coefficient vanishes" puts them below a top power of Z and
    # gives it the coefficient y^a - y0^a on the chart x = 1, zero at
    # y = y0.  "times X" has no X-free term
    L = build_field(*draw(st.sampled_from(SMALL_FIELDS)))
    shape = draw(st.sampled_from(FORM_SHAPES))
    coeff = st.integers(1, L.order - 1)
    if shape == FORM_SHAPES[2]:
        d = draw(st.integers(2, 7))
        e_top = draw(st.integers(1, d - 1))
    else:
        d = draw(st.integers(1, 7))
        e_top = draw(st.integers(0, d))
    if shape == FORM_SHAPES[1]:
        exps = [(d - e_top - j, j, e_top) for j in range(d - e_top + 1)]
    elif shape == FORM_SHAPES[2]:
        exps = [(i, d - e - i, e) for e in range(e_top) for i in range(d - e + 1)]
    else:
        exps = [(i, d - e - i, e) for e in range(d + 1) for i in range(d - e + 1)]
    if shape == FORM_SHAPES[3]:
        exps = [(i + 1, j, e) for i, j, e in exps]
    terms = {e: draw(coeff) for e in draw(st.lists(st.sampled_from(exps), min_size=1,
                                                   max_size=5, unique=True))}
    if shape == FORM_SHAPES[2]:
        a = draw(st.integers(1, d - e_top))
        y0 = draw(st.integers(0, L.order - 1))
        terms[d - e_top - a, a, e_top] = 1
        terms[d - e_top, 0, e_top] = L.neg_i(L.pow_i(y0, a))
    return L, HomPoly3(L, terms), shape


@settings(max_examples=150, deadline=None)
@given(_sparse_forms(), st.data())
def test_zech_zero_tests_on_sparse_forms(form, data):
    # the kernel against the digit-vector sweep on a block of rows, and
    # each partial's zero test against scalar evaluation at the zeros found
    # and at random points, on the chart x = 1 and at infinity
    L, poly, _ = form
    q = L.order
    tables = counting._np_tables(L)
    y_lo = data.draw(st.integers(0, q - 1))
    y_hi = min(q, y_lo + max(1, 4096 // q))
    ys, zs = counting._bulk_affine_zeros(counting._row_coefficients(poly, L, tables), L, tables,
                                         np.arange(y_lo, y_hi))
    want_y, want_z = _digit_reference_zeros(poly, L, y_lo, y_hi)
    assert np.array_equal(ys, want_y) and np.array_equal(zs, want_z)
    # one-row blocks of the grid path, and the same rows as point lists:
    # y_lo, y = 0 and, for each z-exponent, a row where its C_e(y) vanishes
    row_logs = counting._row_coefficients(poly, L, tables)
    rows = {0, y_lo} | {int(np.flatnonzero(logs < 0)[0]) for _, logs, _ in row_logs
                        if (logs < 0).any()}
    for y in sorted(rows):
        want_y, want_z = _digit_reference_zeros(poly, L, y, y + 1)
        got_y, got_z = counting._bulk_affine_zeros(row_logs, L, tables, np.array([y]))
        assert np.array_equal(got_y, want_y) and np.array_equal(got_z, want_z)
        got = counting._vanishing(row_logs, L, tables, np.full(q, y), np.arange(q))
        assert np.array_equal(np.flatnonzero(got), want_z)
    # the form free of z with each Z power moved onto X: its one row term
    # broadcasts its mask at the return, on 1-row and multi-row grid blocks
    # and on the multi-row block as a point list
    flat = {}
    for (i, j, e), c in poly.terms.items():
        flat[i + e, j, 0] = L.add_i(flat.get((i + e, j, 0), 0), c)
    flat = HomPoly3(L, flat)
    if flat.terms:
        flat_logs = counting._row_coefficients(flat, L, tables)
        assert [e for e, _, _ in flat_logs] == [0]
        for hi in (y_lo + 1, y_hi):
            want_y, want_z = _digit_reference_zeros(flat, L, y_lo, hi)
            got_y, got_z = counting._bulk_affine_zeros(flat_logs, L, tables, np.arange(y_lo, hi))
            assert np.array_equal(got_y, want_y) and np.array_equal(got_z, want_z)
        got = counting._vanishing(flat_logs, L, tables, np.repeat(np.arange(y_lo, y_hi), q),
                                  np.tile(np.arange(q), y_hi - y_lo))
        assert np.array_equal(np.flatnonzero(got), (want_y - y_lo) * q + want_z)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                               max_size=20))
    py = np.concatenate([ys, np.array([y for y, _ in pairs], dtype=np.int64)])
    pz = np.concatenate([zs, np.array([z for _, z in pairs], dtype=np.int64)])
    inf = np.arange(q)
    for pp in (poly.hasse(i, 1) for i in range(3)):
        if not pp.terms:
            continue
        got = counting._vanishing(counting._row_coefficients(pp, L, tables), L, tables, py, pz)
        assert got.tolist() == [pp.eval_i(1, y, z) == 0 for y, z in zip(py.tolist(), pz.tolist())]
        at_inf = counting._at_infinity(pp)
        if at_inf.terms:
            got = counting._vanishing(counting._row_coefficients(at_inf, L, tables), L, tables,
                                      np.zeros_like(inf), inf)
            assert got.tolist() == [pp.eval_i(0, 1, z) == 0 for z in range(q)]
        else:
            assert all(pp.eval_i(0, 1, z) == 0 for z in range(q))
    origin = poly.eval_i(0, 0, 1) == 0
    assert (counting._singular_seeds(poly, L, py, pz, inf, origin)
            == _reference_singular_seeds(poly, py, pz, inf, origin))
