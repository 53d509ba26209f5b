import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import maxcurves
from maxcurves import (
    CapError,
    ConsistencyError,
    build_field,
    burnside_quotient_count,
    count_projective_points,
    divisor_report,
    embed,
    fiber_statistics,
    find_root_of_unity,
    hermitian_cyclic_action,
    hermitian_fermat,
    hurwitz_check,
    hurwitz_genus,
    lang_solve,
    linear_series_dim,
    quotient_model_rational,
    subgroup_action,
    twisted_fixed_count,
)
from maxcurves import quotients
from maxcurves._intfactor import divisors, split_prime_power
from maxcurves.counting import extension_count_prediction
from maxcurves.curves import ProjMatrix, cyclic_poly
from maxcurves.quotients import (
    FiberReport,
    _normalize_point,
    identity_matrix,
)


def _proj_equal(F, ptA, ptB) -> bool:
    return _normalize_point(F, ptA) == _normalize_point(F, ptB)


def test_action_orders_and_rationality():
    act5 = hermitian_cyclic_action(5)
    assert act5.order == 21
    assert act5.field.order == 25  # matrix entries descend to F_q
    act3 = hermitian_cyclic_action(3)
    assert act3.order == 7
    assert act3.field.order == 9


def test_action_preserves_fermat_model():
    act = hermitian_cyclic_action(5)
    fermat = hermitian_fermat(5).poly
    scal = fermat.compose_linear(act.matrix).proportional_to(fermat)
    assert scal is not None


@pytest.mark.parametrize("sq", [2, 3, 4, 5, 7, 8, 9])
def test_action_triangle(sq):
    act = hermitian_cyclic_action(sq)
    assert len(act.triangle) == 3
    Fq3 = act.frame.field
    qfrob = act.field.k
    t3 = act.matrix.map_entries(embed(act.field, Fq3))
    perm = []
    for pt in act.triangle:
        # fixed by the action, moved by Frobenius, not rational
        moved = t3.apply_i(pt)
        assert _normalize_point(Fq3, moved) == pt
        frob = _normalize_point(Fq3, tuple(Fq3.frob_i(c, qfrob) for c in pt))
        assert frob != pt
        perm.append(act.triangle.index(frob))
    # Frobenius is a 3-cycle on the triangle
    assert sorted(perm) == [0, 1, 2] and all(perm[i] != i for i in range(3))


@pytest.mark.parametrize("sq", [2, 5, 8, 11])
def test_one_singer_frame(sq, monkeypatch):
    # the action and the d = 3 model both work in the one cached frame
    kappa = maxcurves.singer_frame(sq)
    assert hermitian_cyclic_action(sq).frame is kappa
    read = []

    def spy(sqrt_q):
        read.append(maxcurves.singer_frame(sqrt_q))
        return read[-1]

    monkeypatch.setattr(maxcurves.curves, "singer_frame", spy)
    quotient_model_rational(sq)
    assert len(read) == 1 and read[0] is kappa
    # the first entry of the circulant is the frame parameter
    a = maxcurves.frame_parameter(sq)
    assert kappa.rows[0][0] == embed(a.field, kappa.field).apply_i(a.value)


def test_subgroup_action():
    act = hermitian_cyclic_action(5)
    g3 = subgroup_action(act, 3)
    assert g3.order == 3
    assert g3.triangle == act.triangle
    assert subgroup_action(act, 21).matrix == act.matrix
    g1 = subgroup_action(act, 1)
    assert g1.matrix == identity_matrix(act.field)
    with pytest.raises(ValueError):
        subgroup_action(act, 5)


def _verify_sample(sol, n_samples=20, seed=1):
    # spot-check the locus bijection: (A y)^(q) is proportional to N (A y)
    # for random y in P^2(F_q)
    L = sol.field
    phi = embed(sol.base, L)
    nl = sol.twist.map_entries(phi)
    rng = random.Random(seed)
    for _ in range(n_samples):
        y = [rng.randrange(sol.base.order) for _ in range(3)]
        if not any(y):
            y[rng.randrange(3)] = 1
        u = sol.matrix.apply_i(tuple(phi.apply_i(c) for c in y))
        lhs = tuple(L.frob_i(c, sol.base.k) for c in u)
        if not _proj_equal(L, lhs, nl.apply_i(u)):
            return False
    return True


def test_lang_solve_identity():
    F = build_field(5, 2)
    sol = lang_solve(identity_matrix(F))
    assert sol.s == 1
    assert sol.matrix == identity_matrix(sol.field)
    assert _verify_sample(sol)


def test_lang_solve_order3_twist():
    act = hermitian_cyclic_action(5)
    g3 = subgroup_action(act, 3)
    sol = lang_solve(g3.matrix, seed=1)
    assert sol.s % 3 == 0
    assert _verify_sample(sol, n_samples=30)
    # residual identity holds exactly: A^(q) = N A entrywise
    L = sol.field
    lhs = tuple(tuple(L.frob_i(x, 2) for x in row) for row in sol.matrix.rows)
    nl = sol.twist.map_entries(embed(act.field, L))
    assert lhs == (nl @ sol.matrix).rows


def test_lang_locus_is_a_translated_plane():
    # A maps P^2(F_q) bijectively onto the twisted locus: images of the
    # 651 normalized representatives stay pairwise distinct
    act = hermitian_cyclic_action(5)
    sol = lang_solve(subgroup_action(act, 3).matrix, seed=2)
    L = sol.field
    phi = embed(act.field, L)
    q = act.field.order
    reps = [(1, y, z) for y in range(q) for z in range(q)]
    reps += [(0, 1, z) for z in range(q)] + [(0, 0, 1)]
    images = {
        _normalize_point(L, sol.matrix.apply_i(tuple(phi.apply_i(c) for c in pt)))
        for pt in reps
    }
    assert len(images) == q * q + q + 1


@pytest.mark.parametrize("sq,d", [(2, 3), (3, 7), (4, 13), (5, 7)])
def test_lang_solve_every_twist(sq, d):
    # each column of A is a traced vector of the F_q-space v^(q) = N v;
    # A must be invertible, solve the equation exactly and be reproducible
    g = subgroup_action(hermitian_cyclic_action(sq), d)
    for j in range(1, d):
        u = g.matrix.pow(j)
        sol = lang_solve(u, seed=j)
        L = sol.field
        assert sol.matrix.det().value != 0
        nl = sol.twist.map_entries(embed(sol.base, L))
        assert sol.matrix.frobenius(sol.base.k) == nl @ sol.matrix
        assert _verify_sample(sol)
        assert lang_solve(u, seed=j).matrix == sol.matrix


def _scalar_trace_lang_matrix(u, seed):
    # reference: lang_solve's draws traced one column at a time in L, each
    # step v -> (eN)^-1 v^(q) by ProjMatrix.apply_i and frob_i
    Fq = u.field
    _, e, s = quotients.lang_twist_order(u)
    L = build_field(Fq.p, Fq.k * s, cap=None)
    nl = u.scale(e).map_entries(embed(Fq, L))
    if s == 1:
        return identity_matrix(L)
    nl_inv = nl.inverse()
    rng = random.Random(Fq.order * 1000003 + s * 1009 + seed)

    def trace(v):
        acc = cur = v
        for _ in range(s - 1):
            cur = nl_inv.apply_i(tuple(L.frob_i(c, Fq.k) for c in cur))
            acc = tuple(map(L.add_i, acc, cur))
        return acc

    for _ in range(quotients._LANG_TRIES):
        cols = [trace(tuple(rng.randrange(L.order) for _ in range(3)))
                for _ in range(3)]
        a = ProjMatrix(L, list(zip(*cols)), check=False)
        if a.det().value:
            return a
    raise AssertionError("reference trace found no invertible draw")


@pytest.mark.parametrize("sq,d,j_end,conjugate", [
    (2, 3, 3, False), (3, 7, 7, False), (4, 13, 13, False), (5, 7, 7, False),
    (5, 21, 21, False), (8, 19, 19, False), (3, 7, 7, True), (5, 7, 7, True)])
def test_lang_solve_matches_scalar_trace_reference(sq, d, j_end, conjugate):
    # twists j = 1 .. j_end - 1, every one; the action matrices are
    # symmetric, so conjugating by a non-symmetric rational P is what shows
    # a transposed (j, l) index of the powers of (eN)^-1
    g = subgroup_action(hermitian_cyclic_action(sq), d)
    P = ProjMatrix(g.field, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    for j in range(1, j_end):
        u = g.matrix.pow(j)
        if conjugate:
            u = P.inverse() @ u @ P
        assert lang_solve(u, seed=j).matrix == _scalar_trace_lang_matrix(u, j)


@pytest.mark.parametrize("j", [1, 2, 21, 42])
def test_lang_solve_matches_scalar_trace_reference_at_lift_order_43(j):
    # odd p at a long Frobenius orbit: every twist of (7, 43) lifts to
    # F_{49^43}; the twists next to 0 and to d / 2 stand in for all 42
    u = subgroup_action(hermitian_cyclic_action(7), 43).matrix.pow(j)
    sol = lang_solve(u, seed=j)
    assert (sol.s, sol.field.p) == (43, 7)
    assert sol.matrix == _scalar_trace_lang_matrix(u, j)


def test_lang_solve_reports_exhausted_draws(monkeypatch):
    monkeypatch.setattr(quotients, "_LANG_TRIES", 0)
    g7 = subgroup_action(hermitian_cyclic_action(3), 7)
    with pytest.raises(ConsistencyError, match="0 draws"):
        lang_solve(g7.matrix)


def test_twisted_counts_d3():
    act = hermitian_cyclic_action(5)
    g3 = subgroup_action(act, 3)
    fermat = hermitian_fermat(5)
    for j in (1, 2):
        sol = lang_solve(g3.matrix.pow(j), seed=j)
        assert twisted_fixed_count(sol, fermat) == 21


def _twist_solution(sq, d, j):
    act = hermitian_cyclic_action(sq)
    u = subgroup_action(act, d).matrix.pow(j)
    return lang_solve(u, seed=j), hermitian_fermat(sq)


def _reference_twisted_count(sol, model):
    # brute force in the lift field: evaluate the lifted form at A y for
    # every normalized y in P^2(F_q)
    L = sol.field
    phi = embed(sol.base, L)
    poly = model.poly.map_coefficients(phi)
    q = sol.base.order
    reps = [(1, y, z) for y in range(q) for z in range(q)]
    reps += [(0, 1, z) for z in range(q)] + [(0, 0, 1)]
    return sum(
        poly.eval_i(*sol.matrix.apply_i(tuple(phi.apply_i(c) for c in y))) == 0
        for y in reps
    )


@pytest.mark.parametrize("sq,d,j", [(2, 3, 1), (2, 3, 2)]
                         + [(3, 7, j) for j in range(1, 7)]
                         + [(5, 3, 1), (5, 3, 2)])
def test_twisted_count_descent_matches_lift_field_reference(sq, d, j):
    sol, fermat = _twist_solution(sq, d, j)
    got = twisted_fixed_count(sol, fermat)
    assert got == _reference_twisted_count(sol, fermat)
    assert got == sq * sq - sq + 1  # g^j fixes only the triangle


def test_twisted_count_rejects_a_non_lang_matrix():
    # a dense invertible A that does not solve A^(q) = N A: F(A y) does not
    # descend to F_q, and the count must refuse rather than sweep it
    sol, fermat = _twist_solution(3, 7, 1)
    L = sol.field
    rng = random.Random(7)
    while True:
        rows = [[rng.randrange(L.order) for _ in range(3)] for _ in range(3)]
        if ProjMatrix(L, rows, check=False).det().value:
            break
    bad = dataclasses.replace(sol, matrix=ProjMatrix(L, rows))
    with pytest.raises(ConsistencyError, match="does not descend"):
        twisted_fixed_count(bad, fermat)


def test_action_refuses_a_conjugate_outside_f_q(monkeypatch):
    # with a lambda that is not of order n the conjugate of the diagonal
    # does not descend; the uncached constructor must refuse it
    monkeypatch.setattr(quotients, "find_root_of_unity", lambda F, n: F.generator)
    with pytest.raises(ConsistencyError,
                       match="normalized automorphism matrix does not descend"):
        hermitian_cyclic_action.__wrapped__(5)


def test_burnside_reports():
    r3 = burnside_quotient_count(5, 3)
    assert r3.n_js == (126, 21, 21)
    assert r3.count == 56 == r3.expected
    assert r3.ok
    r7 = burnside_quotient_count(5, 7)
    assert r7.count == 36 and set(r7.n_js[1:]) == {21}
    r37 = burnside_quotient_count(3, 7)
    assert r37.count == 10 and set(r37.n_js[1:]) == {7}
    assert r37.n_js[0] == 28


def test_burnside_matches_direct_count():
    direct = count_projective_points(quotient_model_rational(5)).resolved_total
    assert burnside_quotient_count(5, 3).count == direct == 56


def test_burnside_d1_is_plain_hermitian():
    rep = burnside_quotient_count(5, 1)
    assert rep.n_js == (126,)
    assert rep.count == 126 == rep.expected
    assert rep.genus == 10


def test_burnside_characteristic_two():
    # in characteristic 2 the d=3 orbit count must meet the direct
    # branch-resolved count of the explicit model
    rep = burnside_quotient_count(8, 3)
    assert rep.n_js == (513, 57, 57)
    assert rep.count == 209 == rep.expected
    direct = count_projective_points(quotient_model_rational(8)).resolved_total
    assert rep.count == direct


def test_cyclic_model_points_past_the_table_cap():
    # a caller that builds F_{5^12} itself still meets the table cap, by
    # name, when the enumerator asks for the Zech table
    F = build_field(5, 12, cap=None)
    with pytest.raises(CapError, match=r"the 244140625-element field exceeds the "
                                       r"2\^18 discrete-log table cap"):
        quotients._cyclic_model_points(5, F)


def test_burnside_characteristic_two_prime_divisor():
    rep = burnside_quotient_count(8, 19)
    assert rep.count == 81 == rep.expected  # genus 1
    assert set(rep.n_js[1:]) == {57}  # q - sqrt_q + 1 again


def test_burnside_characteristic_two_builds_no_tables_of_its_frame_field():
    # F_(q^3) = F_(2^18) at sqrt_q = 8 is past EAGER_TABLE_CAP, and the count
    # never asks it for tables.  A fresh interpreter, because other tests
    # table that field on demand in this one.
    code = ("from maxcurves import build_field, burnside_quotient_count\n"
            "assert burnside_quotient_count(8, 19).count == 81\n"
            "print(build_field(2, 18)._log is None)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(maxcurves.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout == "True\n"


def test_burnside_sqrt_q_4():
    rep = burnside_quotient_count(4, 13)
    assert rep.count == 17 == rep.expected  # genus 0
    assert set(rep.n_js[1:]) == {13}


def test_burnside_kummer_count_with_m_plus_one_is_refused(monkeypatch):
    # at (5, 7), m = 3: testing the trace-line histogram for 4 | j instead
    # of 3 | j counts 3 * 11 = 33 against the Burnside average 36
    kernel = quotients._kummer_kernel
    monkeypatch.setattr(quotients, "_kummer_kernel", lambda hist, m: kernel(hist, m + 1))
    with pytest.raises(ConsistencyError,
                       match="^Kummer count 33 differs from the Burnside count 36$"):
        burnside_quotient_count.__wrapped__(5, 7)


def test_burnside_refuses_a_plane_sweep_off_the_trace_line(monkeypatch):
    # N_0 = 126 comes from the Fermat sweep and from n (s + 1) on the trace
    # line; a sweep one point off must stop the count
    sweep = quotients.count_projective_points
    monkeypatch.setattr(quotients, "count_projective_points",
                        lambda model: dataclasses.replace(sweep(model), total=127))
    with pytest.raises(ConsistencyError,
                       match="^trace line gives N_0 = 126, the plane sweep 127$"):
        burnside_quotient_count.__wrapped__(5, 3)


def _action_with_frame(monkeypatch, sqrt_q, change):
    act = hermitian_cyclic_action(sqrt_q)
    bad = dataclasses.replace(act, frame=change(act.frame))
    monkeypatch.setattr(quotients, "hermitian_cyclic_action", lambda sq: bad)


def test_trace_line_refuses_a_frame_whose_p_is_not_a_permutation(monkeypatch):
    # E kappa with E = I + a e_01, a outside F_q: P = E P0 (E^(q))^-1 has a
    # row with two nonzero entries
    def shear(kappa):
        F3 = kappa.field
        a = F3.generator.value
        return ProjMatrix(F3, [[1, a, 0], [0, 1, 0], [0, 0, 1]]) @ kappa

    _action_with_frame(monkeypatch, 5, shear)
    with pytest.raises(ConsistencyError, match="not a scalar times a 3-cycle"):
        quotients.trace_line_histogram.__wrapped__(5)


def test_trace_line_refuses_a_frame_off_the_cyclic_form(monkeypatch):
    # kappa R with R = diag(1, 1, c) over F_q leaves P alone, but the Fermat
    # form in the new frame weights one monomial by c^-(s+1) != 1
    def weight(kappa):
        F3 = kappa.field
        c = embed(build_field(5, 2), F3).apply_i(build_field(5, 2).generator.value)
        return kappa @ ProjMatrix(F3, [[1, 0, 0], [0, 1, 0], [0, 0, c]])

    _action_with_frame(monkeypatch, 5, weight)
    with pytest.raises(ConsistencyError, match="not the cyclic form"):
        quotients.trace_line_histogram.__wrapped__(5)


def test_trace_line_histogram_shape():
    # s + 1 points at residue 0 and each other residue once: q + 1 points
    for sq in (2, 3, 5, 8):
        hist = quotients.trace_line_histogram(sq)
        n = sq * sq - sq + 1
        assert len(hist) == n and sum(hist) == sq * sq + 1
        assert hist[0] == sq + 1 and set(hist[1:]) == {1}
    # one point moved from residue 1 to residue 2 makes N_1 = 0 and N_2 = 2n
    moved = [6, 0, 2] + [1] * 18
    with pytest.raises(ConsistencyError, match=r"counts \[0, 1, 2\] elsewhere, expected 6 and \[1\]"):
        quotients._check_trace_histogram(moved, 5)


@pytest.mark.parametrize("sq,d", [(2, 3), (3, 7), (4, 13), (5, 7), (5, 21), (8, 19)])
def test_burnside_matches_the_lang_reference(sq, d):
    # the trace-line N_j against the Lang solve in F_{q^s} and the descent
    # of the twisted form to F_q, twist by twist
    act = hermitian_cyclic_action(sq)
    g = subgroup_action(act, d)
    fermat = hermitian_fermat(sq)
    reference = [count_projective_points(fermat).total]
    for j in range(1, d):
        sol = lang_solve(g.matrix.pow(j), seed=j)
        reference.append(twisted_fixed_count(sol, fermat))
    assert list(burnside_quotient_count(sq, d).n_js) == reference


PRIME_POWERS_TO_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


@pytest.mark.parametrize("sq", PRIME_POWERS_TO_32)
def test_burnside_every_divisor_to_sqrt_q_32(sq):
    # every census row past d = 1; from sqrt_q = 9 on F_{q^3} is past the
    # table cap, so these counts also show that no table of it is built
    n = sq * sq - sq + 1
    for d in divisors(n)[1:]:
        rep = burnside_quotient_count(sq, d)
        assert rep.count == rep.expected, (sq, d)
        assert rep.n_js == (sq**3 + 1,) + (n,) * (d - 1)


@pytest.mark.parametrize("sq,d,count", [
    (8, 57, 65), (11, 111, 122), (13, 157, 170), (16, 241, 257),
    (9, 73, 82), (23, 507, 530), (32, 993, 1025)])
def test_burnside_rows_past_the_old_lift_cap(sq, d, count):
    # the first four were skipped at the Lang lift cap; all have genus 0
    rep = burnside_quotient_count(sq, d)
    assert (rep.count, rep.genus, rep.ok) == (count, 0, True)


def test_action_nonprime_odd_sqrt_q():
    act = hermitian_cyclic_action(9)
    assert act.order == 73
    assert act.field.order == 81
    fermat = hermitian_fermat(9).poly
    assert fermat.compose_linear(act.matrix).proportional_to(fermat) is not None


def test_burnside_divisibility_and_caps(monkeypatch):
    with pytest.raises(ValueError):
        burnside_quotient_count(5, 5)
    # the lift cap of the reference lang_solve is read when it is called,
    # and it fires before the lift field is built
    u = subgroup_action(hermitian_cyclic_action(5), 21).matrix
    s = quotients.lang_twist_order(u)[2]
    assert s > 1
    monkeypatch.setattr(quotients, "LIFT_ORDER_CAP", s)
    assert lang_solve(u).s == s
    monkeypatch.setattr(quotients, "LIFT_ORDER_CAP", s - 1)

    def no_lift_field(*args, **kwargs):
        raise AssertionError("the lift field was built")

    monkeypatch.setattr(quotients, "build_field", no_lift_field)
    with pytest.raises(CapError, match=f"^Lang lift order {s} exceeds cap {s - 1}$"):
        lang_solve(u)


@pytest.mark.parametrize("sq,d", [(5, 5), (5, 0), (32, 2)])
def test_a_non_divisor_is_refused_before_the_action_is_built(sq, d, monkeypatch):
    def no_action(sqrt_q):
        raise AssertionError("the cyclic action was built")

    monkeypatch.setattr(quotients, "hermitian_cyclic_action", no_action)
    msg = f"^{d} does not divide q - sqrt_q \\+ 1 = {sq * sq - sq + 1}$"
    for refuse in (burnside_quotient_count, hurwitz_genus, fiber_statistics,
                   linear_series_dim):
        with pytest.raises(ValueError, match=msg):
            refuse(sq, d)
    assert not divisor_report(sq, d)["admissible"]


def test_a_sqrt_q_that_is_not_a_prime_power_is_refused():
    for refuse in (hurwitz_genus, linear_series_dim, burnside_quotient_count):
        with pytest.raises(ValueError, match="^6 is not a prime power$"):
            refuse(6, 31)
    assert not divisor_report(6, 31)["admissible"]


def test_hurwitz_genus_values():
    assert hurwitz_genus(5, 3) == 3
    assert hurwitz_genus(5, 7) == 1
    assert hurwitz_genus(5, 21) == 0
    assert hurwitz_genus(5, 1) == 10
    assert hurwitz_genus(11, 3) == 18
    with pytest.raises(ValueError):
        hurwitz_genus(5, 4)


def test_action_matrix_commutes_with_frobenius():
    # entrywise F_q-rationality makes T Frobenius-equivariant literally
    act = hermitian_cyclic_action(5)
    assert act.matrix.frobenius(2) == act.matrix


@pytest.mark.parametrize("sq", [3, 5, 7, 8, 9, 11])
def test_hurwitz_ledger_all_divisors(sq):
    n = sq * sq - sq + 1
    for d in divisors(sq * sq - sq + 1):
        chk = hurwitz_check(sq, d)
        assert chk.identity_holds
        assert chk.bottom_genus == (n // d - 1) // 2
        assert chk.top_genus == sq * (sq - 1) // 2


def test_census_genus_monotone_under_divisibility():
    for sq in (3, 5, 8, 11):
        ds = divisors(sq * sq - sq + 1)
        for d1 in ds:
            for d2 in ds:
                if d2 % d1 == 0:
                    assert hurwitz_genus(sq, d1) >= hurwitz_genus(sq, d2)


def test_divisor_reports():
    r = divisor_report(5, 3)
    assert r["admissible"] and r["violations"] == []
    assert r["checks"]["r"] == 2
    r7 = divisor_report(5, 7)
    assert r7["checks"]["prime_1_mod_6"] and not r7["violations"]
    assert not divisor_report(5, 5)["admissible"]
    for sq in (3, 5, 8, 11):
        for d in divisors(sq * sq - sq + 1):
            assert divisor_report(sq, d)["violations"] == []


def test_fiber_statistics_d3():
    rep = fiber_statistics(5, 3)
    assert rep.total_points == 18126  # 25^3 + 1 + 2*10*125
    assert rep.histogram == {1: 3, 3: 6041}
    assert set(rep.fixed_points) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_fiber_statistics_d21():
    rep = fiber_statistics(5, 21)
    assert rep.histogram == {1: 3, 21: 863}


def test_fiber_statistics_sq7_d43():
    # F_{7^6}: 132056 points, the three fundamental ones and 3071 free orbits
    rep = fiber_statistics(7, 43)
    assert rep.histogram == {1: 3, 43: 3071}
    assert rep.total_points == 132056


def _model_points(sqrt_q, F):
    """The enumerator's points as normalized projective tuples: the three
    fundamental points, then (x : y : 1) = (1 : g^(v-u) : g^(-u)) for each
    torus point x = g^u, y = g^v."""
    u, v = quotients._cyclic_model_points(sqrt_q, F)
    exp, n = F._exp, F.group_order
    return [(0, 1, 0), (1, 0, 0), (0, 0, 1)] + [
        (1, exp[a], exp[b]) for a, b in zip(((v - u) % n).tolist(), (-u % n).tolist())]


def _walk_fiber_statistics(sqrt_q, d, k=3):
    """Reference fiber statistics: walk each point's orbit under
    (x : y : z) -> (c x : c^s y : z) by field multiplies, c of order d (the
    method the torus-log keys replaced).  Reports ok = False instead of
    raising."""
    F = _cyclic_field(sqrt_q, k)
    lam = find_root_of_unity(F, d).value if d > 1 else 1
    lam_s = F.pow_i(lam, sqrt_q)
    pts = _model_points(sqrt_q, F)
    orbits = {}
    for pt in pts:
        orbit = [pt]
        cur = pt
        for _ in range(d - 1):
            cur = _normalize_point(F, (F.mul_i(lam, cur[0]), F.mul_i(lam_s, cur[1]), cur[2]))
            if cur == pt:
                break
            orbit.append(cur)
        rep = min(orbit)
        orbits[rep] = max(orbits.get(rep, 0), len(orbit))
    histogram = {}
    fixed = []
    for rep, size in orbits.items():
        histogram[size] = histogram.get(size, 0) + 1
        if size < d:
            fixed.append(rep)
    ok = d == 1 or (set(fixed) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
                    and all(sz in (1, d) for sz in histogram))
    return FiberReport(sqrt_q, d, k, len(pts), histogram, tuple(sorted(fixed)), ok)


_FIBER_CASES = ([(s, d, 3) for s in (2, 3, 4) for d in divisors(s * s - s + 1)]
                + [(2, d, 6) for d in divisors(3)]
                + [(5, d, 3) for d in (1, 3, 7, 21)])


@pytest.mark.parametrize("sqrt_q,d,k", _FIBER_CASES)
def test_fiber_statistics_match_orbit_walk(sqrt_q, d, k):
    rep = fiber_statistics(sqrt_q, d, k)
    ref = _walk_fiber_statistics(sqrt_q, d, k)
    assert rep == ref
    assert list(rep.histogram.items()) == list(ref.histogram.items())


def test_fiber_statistics_makes_no_field_multiply(monkeypatch):
    F = _cyclic_field(5, 3)

    def no_arithmetic(*args):
        raise AssertionError("a field multiply or inverse was made")

    monkeypatch.setattr(type(F), "mul_i", no_arithmetic)
    monkeypatch.setattr(type(F), "inv_i", no_arithmetic)
    assert fiber_statistics(5, 21).histogram == {1: 3, 21: 863}


def test_fiber_statistics_rejects_a_missing_point(monkeypatch):
    enumerate_points = quotients._cyclic_model_points

    def drop_one(sqrt_q, F):
        u, v = enumerate_points(sqrt_q, F)
        return u[1:], v[1:]

    monkeypatch.setattr(quotients, "_cyclic_model_points", drop_one)
    with pytest.raises(ConsistencyError, match=r"torus orbit sizes \[2, 3\], expected 3"):
        fiber_statistics(5, 3)
    # the walk cannot see the gap: the missing point's orbit-mates still
    # walk an orbit of size d
    assert _walk_fiber_statistics(5, 3).histogram == {1: 3, 3: 6041}


def _elimination_points(sqrt_q, F):
    """Reference enumerator of the smooth cyclic model: for each x, solve
    the F_p-linear equation x y^s + y = -x^s by elimination on the
    coefficient basis (the enumerator the Zech congruence replaced)."""
    p = F.p
    kdim = F.k
    basis = [F.pack([1 if j == i else 0 for j in range(kdim)]) for i in range(kdim)]
    basis_s = [F.pow_i(b, sqrt_q) for b in basis]
    pts = [(0, 1, 0), (1, 0, 0)]
    for x in range(F.order):
        rhs = F.neg_i(F.pow_i(x, sqrt_q))
        cols = [list(F.digits(F.add_i(F.mul_i(x, basis_s[i]), basis[i])))
                for i in range(kdim)]
        for sol in _affine_solutions(cols, list(F.digits(rhs)), p):
            pts.append(_normalize_point(F, (x, F.pack(sol), 1)))
    return pts


def _affine_solutions(cols, rhs, p):
    """All solutions y (coefficient vectors) of sum_i y_i cols[i] = rhs over F_p."""
    k = len(cols)
    a = [[cols[j][i] % p for j in range(k)] + [rhs[i] % p] for i in range(k)]
    piv_cols = []
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, k) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], p - 2, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for r in range(k):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[row])]
        piv_cols.append(col)
        row += 1
        if row == k:
            break
    if any(a[r][k] for r in range(row, k)):
        return []
    free = [c for c in range(k) if c not in piv_cols]
    sols = []
    for combo in range(p ** len(free)):
        assign = [0] * k
        t = combo
        for fc in free:
            assign[fc] = t % p
            t //= p
        for r, pc in enumerate(piv_cols):
            s = a[r][k]
            for fc in free:
                s -= a[r][fc] * assign[fc]
            assign[pc] = s % p
        sols.append(assign)
    return sols


def _cyclic_field(sqrt_q, k):
    p, h = split_prime_power(sqrt_q)
    F = build_field(p, 2 * h * k, cap=None)
    F.ensure_tables()
    return F


@pytest.mark.parametrize("sqrt_q,k", [(2, 3), (2, 6), (3, 3), (4, 3), (5, 3)])
def test_cyclic_model_points_match_elimination(sqrt_q, k):
    F = _cyclic_field(sqrt_q, k)
    pts = _model_points(sqrt_q, F)
    ref = _elimination_points(sqrt_q, F)
    assert len(set(pts)) == len(pts)
    assert set(pts) == set(ref)
    assert pts[:3] == ref[:3] == [(0, 1, 0), (1, 0, 0), (0, 0, 1)]


def test_cyclic_model_points_sq7():
    # F_{7^6}: the smooth cyclic model has genus 21, and the point set is
    # pinned by its size and by every point being a zero of the form
    F = _cyclic_field(7, 3)
    pts = _model_points(7, F)
    assert len(set(pts)) == len(pts) == extension_count_prediction(49, 21, 3) == 132056
    form = cyclic_poly(7, F)
    assert all(form.eval_i(*pt) == 0 for pt in pts)


def test_fiber_statistics_guards():
    with pytest.raises(ValueError):
        fiber_statistics(5, 3, k=1)
    with pytest.raises(ValueError):
        fiber_statistics(5, 4)


def test_fiber_statistics_table_cap(monkeypatch):
    # F_{81^3} = F_{3^12} has 531441 elements, past the 2^18 table cap; the
    # cap fires before the field is built
    def no_field(*args, **kwargs):
        raise AssertionError("the field was built")

    monkeypatch.setattr(quotients, "build_field", no_field)
    with pytest.raises(CapError, match=r"the 531441-element field exceeds the "
                                       r"2\^18 discrete-log table cap"):
        fiber_statistics(9, 1)
    with pytest.raises(TypeError):
        fiber_statistics(5, 3, cap=1 << 30)
