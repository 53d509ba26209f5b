import random

import pytest

from maxcurves import (
    ConsistencyError,
    ProjMatrix,
    TruncSeries,
    apply_coord_change,
    artin_schreier_quotient,
    branch_expansion_check,
    branch_series,
    build_field,
    char2_chain_curve,
    count_projective_points,
    cube_cover_identity,
    embed,
    envelope_model,
    fermat_quotient,
    find_root_of_unity,
    frame_matrix,
    frame_parameter,
    frame_scalars,
    geer_vlugt_curve,
    geer_vlugt_dim,
    geer_vlugt_orders,
    hermitian_canonical,
    hermitian_fermat,
    quotient_model_rational,
    quotient_plane_model,
    smooth_cyclic_model,
)
from maxcurves import curves
from maxcurves._intfactor import is_prime
from maxcurves.curves import (
    HomPoly3,
    cyclic_poly,
    envelope_affine_relation,
    fermat_poly,
    identity_matrix,
    quotient_frame_poly,
)


def test_hermitian_models_structure():
    h = hermitian_canonical(5)
    assert h.degree == 6 and len(h.poly.terms) == 3
    f = hermitian_fermat(5)
    assert f.poly.terms == {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1}
    assert h.expected_genus == f.expected_genus == 10


def test_envelope_model_structure():
    m = envelope_model(5)
    assert m.degree == 12
    assert len(m.poly.terms) == 6
    minus2 = m.field.neg_i(2)
    assert sorted(m.poly.terms.values()).count(1) == 3
    assert list(m.poly.terms.values()).count(minus2) == 3
    with pytest.raises(ValueError):
        envelope_model(8)  # characteristic 2


def _cyclic_shift(poly):
    # substitute (X0, X1, X2) -> (X2, X0, X1)
    return HomPoly3(poly.field, {(j, k, i): c for (i, j, k), c in poly.terms.items()})


def test_rotation_symmetry():
    assert _cyclic_shift(envelope_model(5).poly) == envelope_model(5).poly
    fp = quotient_plane_model(5)
    assert _cyclic_shift(fp.poly) == fp.poly


def test_diagonal_action_weights():
    # diag(c, c^s, 1) with c of order q-s+1 scales the envelope by c^(2s)
    # and the smooth cyclic model by c^s, as exact polynomial identities
    sq = 5
    F = build_field(5, 6)
    lam = find_root_of_unity(F, 21).value
    lam_s = F.pow_i(lam, sq)
    diag = ProjMatrix(F, [[lam, 0, 0], [0, lam_s, 0], [0, 0, 1]])
    env = envelope_model(sq).poly.map_coefficients(embed(build_field(5, 2), F))
    assert env.compose_linear(diag) == env.scale(F.pow_i(lam, 2 * sq))
    cyc = cyclic_poly(sq, F)
    assert cyc.compose_linear(diag) == cyc.scale(F.pow_i(lam, sq))


def test_frame_matrix_det_identity_many_roots():
    # the determinant identity holds for every root of the frame polynomial
    from maxcurves.fields import FPoly, poly_roots

    checked = 0
    for sq, field in ((5, build_field(5, 3)), (8, build_field(2, 9))):
        f = FPoly(field, [1, 1] + [0] * (sq - 1) + [1])
        for a, _ in poly_roots(f):
            det = frame_matrix(a, sq).det()
            assert ((a + 1) ** 3) * det == (a * a + a + 1) ** 3
            checked += 1
    assert checked == 6 + 9


def test_frame_matrix_rejects_singular():
    F25 = build_field(5, 2)
    eps = find_root_of_unity(F25, 3)  # eps^2 + eps + 1 = 0
    with pytest.raises(ValueError):
        frame_matrix(eps, 5)


def test_composition_reaches_fermat_form():
    # composing the cyclic model with the frame matrix is exactly a3 times
    # the Fermat form, since the two other frame sums vanish
    for sq in (5, 8):
        a = frame_parameter(sq)
        g = cyclic_poly(sq, a.field)
        comp = g.compose_linear(frame_matrix(a, sq))
        _, _, a3 = frame_scalars(a, sq)
        assert comp.proportional_to(fermat_poly(sq, a.field)) == a3


def test_envelope_composition_gives_degree_2s2_model():
    # pulling the envelope model through the frame matrix over F_{q^3}
    # yields a degree-2(s+1) plane model there
    sq = 5
    Fq3 = build_field(5, 6)
    a = embed(build_field(5, 3), Fq3)(frame_parameter(sq))
    env = envelope_model(sq)
    moved = apply_coord_change(env, frame_matrix(a, sq))
    assert moved.degree == 2 * (sq + 1)
    assert moved.poly.terms  # nonzero


def test_apply_coord_change_identity_and_degree():
    model = hermitian_canonical(5)
    same = apply_coord_change(model, identity_matrix(model.field))
    assert same.poly == model.poly
    F = model.field
    mat = ProjMatrix(F, [[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    moved = apply_coord_change(model, mat)
    assert moved.degree == model.degree
    with pytest.raises(ValueError):
        apply_coord_change(model, ProjMatrix(F, [[1, 0, 0], [1, 0, 0], [0, 0, 1]], check=False))


def test_apply_coord_change_refuses_a_matrix_over_a_non_extension():
    # hermitian_canonical(5) is over F_25, and F_25 is no subfield of F_125
    # nor of F_(2^4): the lift to the matrix's field is refused by embed
    model = hermitian_canonical(5)
    for F in (build_field(5, 3), build_field(2, 4)):
        with pytest.raises(ValueError, match="^no embedding: need same p"):
            apply_coord_change(model, identity_matrix(F))


def test_proj_matrix_refuses_another_fields_element():
    # an F_25 element is not its packed value in F_625 (the image of 5, the
    # class of X, is 25 there) and has no packed value in F_5 at all: each
    # entry goes through ExtField.elem, which refuses it
    F5, F25, F625 = build_field(5, 1), build_field(5, 2), build_field(5, 4)
    assert embed(F25, F625).apply_i(5) == 25
    for F in (F5, F625):
        with pytest.raises(ValueError, match="^element of a different field$"):
            ProjMatrix(F, [[F25.elem(5), 0, 0], [0, 1, 0], [0, 0, 1]])
    lifted = embed(F25, F625)(F25.elem(5))
    assert ProjMatrix(F625, [[lifted, 0, 0], [0, 1, 0], [0, 0, 1]]).rows[0][0] == 25


def test_quotient_model_rational_sq5():
    m = quotient_model_rational(5)
    assert m.field.order == 25
    assert m.degree == 6
    assert m.expected_genus == 3
    # every stored coefficient is fixed by the q-power Frobenius
    for c in m.poly.terms.values():
        assert m.field.frob_i(c, 2) == c


def test_quotient_model_refuses_a_coefficient_outside_f_q(monkeypatch):
    # a scaling constant c that is not a root of X^(s-1) - a leaves the
    # coefficients outside F_q; the descent must refuse them
    curves.singer_frame(5)  # the frame parameter's roots come from the real root finder
    monkeypatch.setattr(curves, "poly_roots", lambda f: [(f.field.generator, 1)])
    with pytest.raises(ConsistencyError, match="quotient model does not descend"):
        quotient_model_rational(5)


def test_quotient_model_frobenius_twist_before_scaling():
    # the unscaled composition satisfies coeff^q = a^-(s+1) coeff
    sq = 5
    Fq3 = build_field(5, 6)
    a = embed(build_field(5, 3), Fq3)(frame_parameter(sq))
    gprime = quotient_frame_poly(sq, Fq3).compose_linear(frame_matrix(a, sq))
    twist = (a ** (sq + 1)).inverse().value
    for c in gprime.terms.values():
        assert Fq3.frob_i(c, 2) == Fq3.mul_i(twist, c)


def test_quotient_model_rational_sq8():
    m = quotient_model_rational(8)
    assert m.field.order == 64
    assert m.degree == 9
    assert m.expected_genus == 9


def test_quotient_plane_model_divisibility_guard():
    with pytest.raises(ValueError, match="^3 does not divide q - sqrt_q \\+ 1 = 43$"):
        quotient_plane_model(7)  # 7 = 1 (mod 3)
    with pytest.raises(ValueError, match="^3 does not divide q - sqrt_q \\+ 1 = 7$"):
        quotient_model_rational(3)  # 3 = 0 (mod 3)


def test_constructors_reject_wrong_characteristic():
    with pytest.raises(ValueError, match="^chain curve lives in characteristic 2$"):
        char2_chain_curve(25)
    with pytest.raises(ValueError, match="^envelope model needs odd characteristic$"):
        envelope_model(4)


def test_constructors_build_over_their_own_field():
    assert quotient_plane_model(5).field is build_field(5, 3)
    assert smooth_cyclic_model(8).field is build_field(2, 9)
    assert artin_schreier_quotient(5, 2).field is build_field(5, 2)
    assert fermat_quotient(5, 2).field is build_field(5, 2)
    assert char2_chain_curve(4).field is build_field(2, 4)


def test_cube_cover_identity():
    assert cube_cover_identity(5)
    assert cube_cover_identity(8)
    assert cube_cover_identity(11)
    with pytest.raises(ValueError, match="^3 does not divide"):
        cube_cover_identity(7)  # 7 = 1 (mod 3)
    with pytest.raises(ValueError, match="^3 does not divide"):
        cube_cover_identity(9)  # characteristic 3


def test_from_int_coeffs_reduces_into_the_prime_field():
    F25 = build_field(5, 2)
    # 7 is 2 in F_5, not the packed element 2 + X
    poly = HomPoly3.from_int_coeffs(F25, {(1, 0, 0): 7, (0, 1, 0): -1})
    assert poly.terms == {(1, 0, 0): (F25.one * 7).value, (0, 1, 0): 4} == {
        (1, 0, 0): 2, (0, 1, 0): 4}


def test_branch_series_structure():
    x, y = branch_series(5, 120)
    assert x.valuation() == 2
    assert y.valuation() == 10
    support = [i for i, c in enumerate(y.coeffs) if c]
    assert all((i - 10) % 21 == 0 for i in support)
    # the solved coefficients: 1, 2, 1 at orders 10, 31, 52
    assert y.coeffs[10] == 1 and y.coeffs[31] == 2 and y.coeffs[52] == 1


def test_branch_expansion_check():
    assert branch_expansion_check(5, 120)
    assert branch_expansion_check(7, 200)
    with pytest.raises(ValueError):
        branch_expansion_check(5, 10)  # truncation too small
    with pytest.raises(ValueError):
        branch_expansion_check(8, 120)  # even characteristic


def test_rotated_branch_valuations():
    # rotating the solved branch through the coordinate 3-cycle gives the
    # leading valuation pattern of the coordinate functions at the other
    # two double points: div(x) = (2s-2)P2 + 2P3 - 2s P1 and
    # div(y) = 2s P3 - (2s-2)P1 - 2 P2
    sq = 5
    x, y = branch_series(sq, 120)
    vx, vy = x.valuation(), y.valuation()
    assert (vx, vy) == (2, 2 * sq)
    # at P1 the affine functions become 1/y and x/y
    assert (-vy, vx - vy) == (-2 * sq, -(2 * sq - 2))
    # at P2 they become y/x and 1/x
    assert (vy - vx, -vx) == (2 * sq - 2, -2)
    # both divisors have degree zero
    assert (2 * sq - 2) + 2 - 2 * sq == 0
    assert 2 * sq - (2 * sq - 2) - 2 == 0


def test_unit_coefficient_series_fails_the_relation():
    # the series with every coefficient 1 on the branch support does not
    # solve the curve: the order-62 coefficient comes out -3, and the true
    # branch needs a 2 at order 31
    p, n = 5, 120
    x = TruncSeries.monomial(p, n, 2)
    ycs = [0] * (n + 1)
    e = 10
    while e <= n:
        ycs[e] = 1
        e += 21
    rel = envelope_affine_relation(x, TruncSeries(p, n, ycs), 1)
    assert rel.first_nonzero() == 62
    assert rel.coeffs[62] == (-3) % 5


GEER_VLUGT_RULE = r"dividing T\^\(m/2\) - 1 in F_p\[T\]$"


def test_geer_vlugt_curve():
    m = geer_vlugt_curve(3, 4, 1)
    assert m.field.order == 81
    assert m.degree == 10
    assert m.expected_genus == 9
    b = m.field.neg_i(m.poly.terms[(10, 0, 0)])
    assert m.field.add_i(m.field.pow_i(b, 9), b) == 0 and b != 0
    with pytest.raises(ValueError, match=GEER_VLUGT_RULE):
        geer_vlugt_curve(3, 5, 1)  # odd m
    with pytest.raises(ValueError, match=r"^\(p, m, r\) = \(3, 4, 3\): need m >= 2 even, "
                                         r"r >= 1 and 1 \+ T \+ \.\.\. \+ T\^r dividing "
                                         r"T\^\(m/2\) - 1 in F_p\[T\]$"):
        geer_vlugt_curve(3, 4, 3)  # r > m/2


@pytest.mark.parametrize("p,m,r", [(2, 2, 1), (2, 4, 1), (2, 4, 2), (3, 2, 1),
                                   (3, 4, 1), (3, 4, 2), (5, 2, 1)])
def test_geer_vlugt_b_is_the_least_nonzero_root(p, m, r):
    # reference: the least nonzero v with v^s + v = 0, by scanning the field;
    # 1 + T + ... + T^r does not divide T^(m/2) - 1 over F_p at the four
    # triples refused here, and none of them gives a maximal curve
    if (p, m, r) in {(2, 4, 2), (3, 2, 1), (3, 4, 2), (5, 2, 1)}:
        with pytest.raises(ValueError, match=GEER_VLUGT_RULE):
            geer_vlugt_curve(p, m, r)
        return
    model = geer_vlugt_curve(p, m, r)
    F, s = model.field, p ** (m // 2)
    want = next(v for v in range(1, F.order) if F.add_i(F.pow_i(v, s), v) == 0)
    assert F.neg_i(model.poly.terms[(s + 1, 0, 0)]) == want


def test_geer_vlugt_curve_is_admitted_exactly_when_maximal(monkeypatch):
    # every (p, m, r) with p^m <= 4096 and 1 <= r <= m/2, 47 triples: the
    # constructor's form, built with the check switched off, has
    # q + 1 + 2g sqrt(q) points exactly at the triples that the constructor,
    # geer_vlugt_dim and geer_vlugt_orders admit
    triples = [(p, m, r) for p in range(2, 65) if is_prime(p)
               for m in range(2, 13, 2) if p**m <= 4096 for r in range(1, m // 2 + 1)]
    assert len(triples) == 47

    def admitted_by(fn):
        out = []
        for t in triples:
            try:
                fn(*t)
            except ValueError:
                continue
            out.append(t)
        return out

    admitted = admitted_by(geer_vlugt_curve)
    assert admitted == [(2, 2, 1), (2, 4, 1), (2, 6, 1), (2, 6, 2), (2, 8, 1), (2, 8, 3),
                        (2, 10, 1), (2, 10, 4), (2, 12, 1), (2, 12, 2), (2, 12, 5),
                        (3, 4, 1), (3, 6, 2), (5, 4, 1), (7, 4, 1)]
    assert admitted_by(geer_vlugt_dim) == admitted_by(geer_vlugt_orders) == admitted
    monkeypatch.setattr(curves, "check_geer_vlugt", lambda p, m, r: None)
    maximal = []
    for t in triples:
        model = geer_vlugt_curve(*t)
        q, s, g = model.field.order, model.sqrt_q, model.expected_genus
        if count_projective_points(model).total == q + 1 + 2 * g * s:
            maximal.append(t)
    assert maximal == admitted


def test_artin_schreier_and_fermat_families():
    m = artin_schreier_quotient(5, 2)
    assert m.expected_genus == 4  # (s-1)^2/4
    assert m.degree == 5
    f = fermat_quotient(5, 2)
    assert f.expected_genus == 1
    # the two genus formulas agree: (s-1)(s-3)/8 = 1 for s = 5
    assert (5 - 1) * (5 - 3) // 8 == f.expected_genus
    with pytest.raises(ValueError):
        artin_schreier_quotient(5, 4)  # 4 does not divide 6
    herm = artin_schreier_quotient(5, 1)
    assert herm.expected_genus == 10


def test_char2_chain_curve():
    m = char2_chain_curve(4)
    assert m.expected_genus == 2
    assert m.degree == 5
    assert (0, 2, 3) in m.poly.terms and (0, 1, 4) in m.poly.terms
    assert (0, 4, 1) not in m.poly.terms  # the degree-s head is not included
    with pytest.raises(ValueError):
        char2_chain_curve(9)


def test_trunc_series_arithmetic():
    s = TruncSeries(5, 10, [0, 1, 2])
    assert (s * s).coeffs[:5] == [0, 0, 1, 4, 4]
    assert s.p_power(1).coeffs[5] == 1 and s.p_power(1).coeffs[10] == 2
    assert (s - s).is_zero()
    assert s.valuation() == 1


def test_homogeneity_enforced():
    from maxcurves.curves import HomPoly3

    F = build_field(5, 1)
    with pytest.raises(ValueError):
        HomPoly3.from_int_coeffs(F, {(1, 0, 0): 1, (2, 0, 0): 1})


def test_point_count_invariance_under_coordinates():
    from maxcurves.counting import count_projective_points

    rng = random.Random(23)
    model = hermitian_canonical(3)
    base = count_projective_points(model).total
    F9 = model.field
    for _ in range(4):
        rows = [[F9.random_element(rng) for _ in range(3)] for _ in range(3)]
        try:
            mat = ProjMatrix(F9, rows)
        except ValueError:
            continue
        assert count_projective_points(apply_coord_change(model, mat)).total == base


def _square_and_multiply_compose(poly, mat):
    # reference: P(M x) with every power of a row form by square-and-multiply
    F = poly.field
    one = HomPoly3(F, {(0, 0, 0): 1})
    forms = [HomPoly3(F, {(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]})
             for r in mat.rows]

    def power(form, e):
        result, base = one, form
        while e:
            if e & 1:
                result = result._mul(base)
            e >>= 1
            if e:
                base = base._mul(base)
        return result

    total = HomPoly3(F, {})
    for mon, c in poly.terms.items():
        term = HomPoly3(F, {(0, 0, 0): c})
        for axis, e in enumerate(mon):
            term = term._mul(power(forms[axis], e))
        total = _add(total, term)
    return total


def _add(a, b):
    F = a.field
    out = dict(a.terms)
    for e, c in b.terms.items():
        prev = out.get(e)
        out[e] = c if prev is None else F.add_i(prev, c)
    return HomPoly3(F, out)


@pytest.mark.parametrize("p,k,degree", [(2, 2, 13), (2, 4, 11), (2, 24, 7),
                                        (3, 2, 16), (3, 3, 14), (5, 2, 31), (5, 3, 37)])
def test_compose_linear_matches_square_and_multiply(p, k, degree):
    # the base-p digit powers of compose_linear against plain
    # square-and-multiply; the degrees and their parts have several nonzero
    # base-p digits
    F = build_field(p, k, cap=None)
    rng = random.Random(p * 1000 + k * 10 + degree)
    for _ in range(3):
        terms = {}
        for _ in range(4):
            i = rng.randrange(degree + 1)
            j = rng.randrange(degree + 1 - i)
            terms[(i, j, degree - i - j)] = rng.randrange(1, F.order)
        poly = HomPoly3(F, terms)
        while True:
            rows = [[rng.randrange(F.order) for _ in range(3)] for _ in range(3)]
            if ProjMatrix(F, rows, check=False).det().value:
                break
        mat = ProjMatrix(F, rows)
        assert poly.compose_linear(mat) == _square_and_multiply_compose(poly, mat)


def test_public_names():
    # the exported names, pinned: a name added or removed shows here
    import maxcurves

    assert sorted(maxcurves.__all__) == [
        "BurnsideReport", "CASTELNUOVO_PARAMETER_NOTE", "CapError", "ConsistencyError",
        "CountReport", "CurveModel", "CyclicAction", "Embedding", "ExtField", "FPoly",
        "FiberReport", "FieldElement", "HomPoly3", "HurwitzCheck", "LangSolution",
        "MaximalityVerdict", "NumericalSemigroup", "OrderSequence", "ProjMatrix",
        "SVReport", "TruncSeries", "apply_coord_change", "artin_schreier_quotient",
        "branch_expansion_check", "branch_series", "build_field",
        "burnside_quotient_count", "castelnuovo_bound", "char2_chain_curve",
        "classify_genus", "count_projective_points", "counting", "cube_cover_identity",
        "curves", "dim3_order_inequality", "dim3_orders", "divisor_report", "embed",
        "envelope_model", "errors", "extension_count_prediction", "fermat_quotient",
        "fiber_statistics", "fields", "find_root_of_unity", "first_nongap_candidates",
        "first_quotient_nongaps", "frame_matrix", "frame_parameter", "frame_scalars",
        "geer_vlugt_curve", "geer_vlugt_dim", "geer_vlugt_orders",
        "genus_from_count", "genus_lmm", "hasse_weil_bounds", "hermitian_canonical",
        "hermitian_cyclic_action", "hermitian_fermat", "hermitian_point_semigroup",
        "hurwitz_check", "hurwitz_genus", "lang_solve", "linear_series_dim",
        "maximality_check", "mult_order", "orders_at_quotient_branch",
        "orders_from_nongaps", "poly_roots", "quotient_model_rational",
        "quotient_plane_model", "quotient_semigroup", "quotients",
        "semigroup_from_generators", "semigroups", "singer_frame", "smooth_cyclic_model",
        "stohr_voloch_degrees", "twisted_fixed_count",
    ]
    assert not hasattr(maxcurves.fields, "frame_parameter")
