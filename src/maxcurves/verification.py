"""The built-in verification battery.

Every check here pins an exact expected value; there are no tolerances
anywhere because all arithmetic is exact.  The battery is shared between
the `verify-paper` CLI subcommand and the acceptance test suite.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ._intfactor import divisors
from .counting import (
    count_projective_points,
    genus_from_count,
    maximality_check,
)
from .curves import (
    apply_coord_change,
    artin_schreier_quotient,
    branch_expansion_check,
    cube_cover_identity,
    frame_matrix,
    frame_parameter,
    geer_vlugt_curve,
    hermitian_canonical,
    quotient_model_rational,
    ProjMatrix,
)
from .errors import CapError
from .fields import build_field, embed
from .quotients import burnside_quotient_count, hurwitz_genus
from .semigroups import (
    OrderSequence,
    dim3_order_inequality,
    first_quotient_nongaps,
    genus_lmm,
    hermitian_point_semigroup,
    linear_series_dim,
    quotient_semigroup,
    semigroup_from_generators,
    stohr_voloch_degrees,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    skipped: bool = False

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return f"{status}  {self.name}  [{self.seconds:.2f}s]  {self.detail}"


def _run(name, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except CapError as exc:  # a cap blocks the check: skip, not fail
        return CheckResult(name, False, f"skipped: {exc}", time.perf_counter() - t0,
                           skipped=True)
    except Exception as exc:  # a crash is a failure with the reason recorded
        return CheckResult(name, False, f"exception: {exc!r}", time.perf_counter() - t0)
    return CheckResult(name, bool(passed), detail, time.perf_counter() - t0)


def check_hermitian_counts() -> tuple[bool, str]:
    expected = {3: 28, 5: 126, 7: 344, 8: 513, 9: 730}
    times = {}
    for sq, want in expected.items():
        t0 = time.perf_counter()
        got = count_projective_points(hermitian_canonical(sq)).total
        times[sq] = time.perf_counter() - t0
        if got != want:
            return False, f"#H(F_{sq * sq}) = {got}, expected {want}"
    slow = {sq: round(t, 3) for sq, t in times.items() if t >= 1.0}
    if slow:
        return False, f"counts exceeded 1 s: {slow}"
    return True, f"counts {list(expected.values())} all exact, each under 1 s"


def check_quotient_pipeline_5() -> tuple[bool, str]:
    model = quotient_model_rational(5)  # constructor verifies F_q-rationality
    if model.field.order != 25:
        return False, "model not over F_25"
    r1 = count_projective_points(model)
    r2 = count_projective_points(model, 2)
    ok = r1.resolved_total == 56 and r2.resolved_total == 476
    detail = (f"F_25: plane {r1.total} + branches -> {r1.resolved_total} (want 56); "
              f"F_625: {r2.total} -> {r2.resolved_total} (want 476)")
    verdict = maximality_check(r1, 3)
    return ok and verdict.verdict == "maximal", detail


def check_quotient_pipeline_8() -> tuple[bool, str]:
    model = quotient_model_rational(8)
    r = count_projective_points(model)
    verdict = maximality_check(r, 9)
    ok = r.resolved_total == 209 and verdict.verdict == "maximal"
    return ok, f"F_64: plane {r.total} -> {r.resolved_total} (want 209), verdict {verdict.verdict}"


def check_burnside_5() -> tuple[bool, str]:
    direct = count_projective_points(quotient_model_rational(5)).resolved_total
    results = {}
    for d, want in ((3, 56), (7, 36), (21, 26)):
        rep = burnside_quotient_count(5, d)
        off = set(rep.n_js[1:])
        if rep.count != want or off != {21}:
            return False, f"d={d}: count {rep.count} (want {want}), off-diagonal {sorted(off)}"
        results[d] = rep.count
    if results[3] != direct:
        return False, f"burnside d=3 {results[3]} != direct {direct}"
    return True, f"counts {results}, every off-diagonal twist = 21, d=3 matches direct"


def check_hurwitz_ledger() -> tuple[bool, str]:
    rows = 0
    for sq in (3, 5, 8, 11):
        n = sq * sq - sq + 1
        for d in divisors(n):
            g = hurwitz_genus(sq, d)
            if g != (n // d - 1) // 2:
                return False, f"sq={sq} d={d}: genus {g}"
            rows += 1
    return True, f"{rows} divisor rows match ((n/d)-1)/2"


def check_semigroup_oracle() -> tuple[bool, str]:
    exact = bound = 0
    for m in range(4, 41):
        for ell in range((m + 1) // 2, m):
            kind, val = genus_lmm(ell, m)
            oracle = semigroup_from_generators([ell, m, m + 1]).genus
            if kind == "exact":
                if val != oracle:
                    return False, f"exact case ({ell},{m}): {val} != sieve {oracle}"
                exact += 1
            else:
                if oracle > val:
                    return False, f"bound case ({ell},{m}): sieve {oracle} > bound {val}"
                bound += 1
    return True, f"{exact} exact cases equal, {bound} bounds dominate the sieve"


def check_quotient_semigroup_genus() -> tuple[bool, str]:
    rows = 0
    for sq in (3, 5, 8, 11):
        n = sq * sq - sq + 1
        top = hermitian_point_semigroup(sq)
        for d in divisors(n):
            got = quotient_semigroup(top, d).genus
            if got != (n // d - 1) // 2:
                return False, f"sq={sq} d={d}: semigroup genus {got}"
            rows += 1
    return True, f"{rows} quotient semigroups hit the covering genus"


def check_dimension_formulas() -> tuple[bool, str]:
    checks = [
        (linear_series_dim(5, 3), 3),
        (linear_series_dim(5, 7), 5),
        (linear_series_dim(3, 7), 4),
    ]
    for got, want in checks:
        if got != want:
            return False, f"dimension {got} != {want}"
    for sq in (5, 8, 11):
        got = first_quotient_nongaps(sq)
        want = ((2 * sq - 1) // 3, sq)
        if got != want:
            return False, f"first non-gaps sq={sq}: {got} != {want}"
    return True, "dims (3, 5, 4) and first non-gaps ((2s-1)/3, s) all exact"


def check_sv_arithmetic() -> tuple[bool, str]:
    rep = stohr_voloch_degrees(
        10, 6, 2, OrderSequence("D", (0, 1, 5)), OrderSequence("frobenius", (0, 5)), 25
    )
    count = count_projective_points(hermitian_canonical(5)).total
    if rep.bound != count:
        return False, f"deg(S)/r = {rep.bound} != #H(F_25) = {count}"
    if not dim3_order_inequality(25, 3, 2):
        return False, "order inequality fails at eps2 = 2"
    if dim3_order_inequality(25, 3, 4):
        return False, "order inequality should fail at eps2 = 4"
    return True, f"deg(S)/r = {rep.bound} meets the count with equality; eps2 constraint exact"


def check_families() -> tuple[bool, str]:
    gv = count_projective_points(geer_vlugt_curve(3, 4, 1))
    if gv.total != 244 or genus_from_count(gv.total, 81) != 9:
        return False, f"fibre-product family: {gv.total} points"
    asq = count_projective_points(artin_schreier_quotient(5, 2))
    if asq.total != 66 or genus_from_count(asq.total, 25) != 4:
        return False, f"Artin-Schreier t=2: {asq.total} points"
    return True, "244 points (genus 9) and 66 points (genus 4), both exact"


def check_structural_identities() -> tuple[bool, str]:
    if not branch_expansion_check(5, 120):
        return False, "branch series sq=5"
    if not branch_expansion_check(7, 200):
        return False, "branch series sq=7"
    if not cube_cover_identity(5):
        return False, "cube identity sq=5"
    if not cube_cover_identity(8):
        return False, "cube identity sq=8"
    for sq in (5, 8):
        a = frame_parameter(sq)
        det = frame_matrix(a, sq).det()
        if ((a + 1) ** 3) * det != (a * a + a + 1) ** 3:
            return False, f"frame determinant identity sq={sq}"
    return True, "branch series, cube factorization and frame identity all exact"


def check_property_suites() -> tuple[bool, str]:
    rng = random.Random(20260808)
    for (p, k) in ((5, 2), (5, 3), (2, 6)):
        F = build_field(p, k)
        for _ in range(1000):
            a, b, c = (F.random_element(rng) for _ in range(3))
            if (a + b) * c != a * c + b * c:
                return False, f"distributivity fails in {F!r}"
            if (a * b) * c != a * (b * c):
                return False, f"associativity fails in {F!r}"
            if a.value and (a * a.inverse()).value != 1:
                return False, f"inverse fails in {F!r}"
            if (a + b).frobenius() != a.frobenius() + b.frobenius():
                return False, f"Frobenius additivity fails in {F!r}"
    src, tgt = build_field(5, 2), build_field(5, 6)
    phi = embed(src, tgt)
    for _ in range(1000):
        a, b = src.random_element(rng), src.random_element(rng)
        if phi(a * b) != phi(a) * phi(b) or phi(a + b) != phi(a) + phi(b):
            return False, "embedding is not a homomorphism"
        if a != b and phi(a) == phi(b):
            return False, "embedding is not injective"
    # coordinate-change invariance of counts, k <= 2
    model = hermitian_canonical(3)
    for k in (1, 2):
        base = count_projective_points(model, k).total
        Fk = build_field(3, 2 * k)
        for _ in range(3):
            rows = [[Fk.random_element(rng) for _ in range(3)] for _ in range(3)]
            mat = ProjMatrix(Fk, rows)
            if not mat.det().value:
                continue
            moved = apply_coord_change(model, mat)
            if count_projective_points(moved).total != base:
                return False, f"count changed under coordinates, k={k}"
    return True, "field axioms, embeddings and coordinate invariance all hold"


CRITERIA = (
    ("1-hermitian-counts", check_hermitian_counts),
    ("2-quotient-pipeline-sq5", check_quotient_pipeline_5),
    ("3-quotient-pipeline-sq8", check_quotient_pipeline_8),
    ("4-burnside-machine-sq5", check_burnside_5),
    ("5-riemann-hurwitz-ledger", check_hurwitz_ledger),
    ("6-semigroup-oracle", check_semigroup_oracle),
    ("7-quotient-semigroup-genus", check_quotient_semigroup_genus),
    ("8-dimension-formulas", check_dimension_formulas),
    ("9-order-sv-arithmetic", check_sv_arithmetic),
    ("10-family-cross-checks", check_families),
    ("11-structural-identities", check_structural_identities),
    ("12-property-suites", check_property_suites),
)


def run_battery(names: list[str] | None = None) -> list[CheckResult]:
    out = []
    for name, fn in CRITERIA:
        if names and name not in names:
            continue
        out.append(_run(name, fn))
    return out
