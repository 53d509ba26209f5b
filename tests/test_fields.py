import contextlib
import itertools
import operator
import random
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcurves import (
    CapError,
    FPoly,
    build_field,
    embed,
    find_root_of_unity,
    frame_parameter,
    frame_scalars,
    mult_order,
)
from maxcurves import fields
from maxcurves.curves import frame_matrix
from maxcurves.errors import ConsistencyError
from maxcurves.fields import EAGER_TABLE_CAP, Embedding, ExtField, frobenius_kernel, poly_roots
from maxcurves.fields import (
    _is_irreducible,
    _lex_least_irreducible,
    _rref,
    _vdivmod,
    _vgcd,
    _vmod_sparse,
    _vmul,
    _vscale,
    _vsub,
)


F5 = build_field(5, 1)
F25 = build_field(5, 2)
F125 = build_field(5, 3)
F56 = build_field(5, 6)


def test_build_field_prime_field_modulus_is_x():
    assert F5.modulus == (0, 1)
    assert F5.order == 5


def test_build_field_group_orders():
    assert F125.group_order == 124
    assert F56.group_order == 15624
    assert F56.group_order % 21 == 0
    assert F56.group_order == 21 * 744


def test_build_field_rejects_composites_and_caps():
    with pytest.raises(ValueError):
        build_field(6, 2)
    with pytest.raises(CapError):
        build_field(2, 64, cap=1 << 40)


def test_element_cap_holds_for_a_cached_field():
    # a field built past the cap with cap=None is cached, and a later
    # default-capped request for it must still be refused
    assert build_field(2, 41, cap=None).order == 1 << 41
    with pytest.raises(CapError, match=r"^field size 2\^41 exceeds cap 1099511627776$"):
        build_field(2, 41)


def test_tables_past_the_table_cap_raise():
    # F_{2^20} is within the element cap but has no discrete-log tables:
    # asking for them names the table cap, and nothing is built
    F = build_field(2, 20)
    msg = r"the 1048576-element field exceeds the 2\^18 discrete-log table cap"
    with pytest.raises(CapError, match=msg):
        F.ensure_tables()
    assert F._log is None and F._exp is None


def test_descend_i_returns_preimages_and_names_what_fails():
    phi = embed(F25, F56)
    xs = [0, 1, 7, 24]
    assert phi.descend_i([phi.apply_i(x) for x in xs], "sample") == xs
    outside = next(v for v in range(F56.order)
                   if F56.frob_i(v, 2) != v)          # not in F_25
    with pytest.raises(ConsistencyError, match=r"^sample does not descend to F_25$"):
        phi.descend_i([1, outside], "sample")
    with pytest.raises(ValueError, match="not in the embedded subfield"):
        phi.preimage(F56.elem(outside))


def test_moduli_divide_field_polynomial():
    # X^(p^k) - X vanishes on all of F_{p^k}, so the modulus divides it
    for F in (F25, F125, build_field(2, 6), build_field(3, 4)):
        x = FPoly(F, [0, 1])
        assert x.powmod(F.order, FPoly(F, list(F.modulus))) == x % FPoly(F, list(F.modulus))


def test_lex_least_is_least():
    # nothing smaller than the chosen modulus of F_125 is irreducible
    mod = _lex_least_irreducible(5, 3)
    assert mod == (1, 1, 0, 1)  # X^3 + X + 1
    for tail in range(5 + 1):  # X^3 + c for c <= 5 covers X^3, X^3+1, ..., X^3+X
        coeffs = [tail % 5, tail // 5, 0, 1]
        f = FPoly(F125, coeffs)
        roots = poly_roots(f)
        if tuple(coeffs) != mod:
            assert roots, f"{coeffs} should be reducible (have a root)"


def test_mult_order_basics():
    assert mult_order(F5.elem(2)) == 4
    assert mult_order(F5.elem(1)) == 1
    assert mult_order(F25.elem(1)) == 1
    with pytest.raises(ValueError):
        mult_order(F5.elem(0))


def test_mult_order_divides_group_order():
    rng = random.Random(7)
    for F in (F25, F125, build_field(2, 6)):
        for _ in range(50):
            x = F.random_element(rng)
            if x.value:
                assert F.group_order % mult_order(x) == 0


def test_find_root_of_unity_orders():
    lam = find_root_of_unity(F56, 21)
    assert (lam**21).value == 1
    assert (lam**3).value != 1 and (lam**7).value != 1
    g = find_root_of_unity(F5, 4)
    assert mult_order(g) == 4
    eps = find_root_of_unity(F25, 3)
    assert (eps * eps + eps + 1).value == 0
    with pytest.raises(ValueError):
        find_root_of_unity(F25, 7)


def test_poly_roots_frame_polynomial():
    # X^6 + X + 1 splits into 6 distinct roots in F_125, all of order 31
    f = FPoly(F125, [1, 1, 0, 0, 0, 0, 1])
    roots = poly_roots(f)
    assert len(roots) == 6
    assert all(m == 1 for _, m in roots)
    assert {mult_order(r) for r, _ in roots} == {31}


def test_poly_roots_simple_and_multiplicity():
    roots = poly_roots(FPoly(F5, [-1, 0, 1]))
    assert [(r.value, m) for r, m in roots] == [(1, 1), (4, 1)]
    # (X - 1)^2 (X - 2) = X^3 - 4X^2 + 5X - 2 has a double root
    f = FPoly(F5, [-2, 5, -4, 1])
    got = {(r.value, m) for r, m in poly_roots(f)}
    assert got == {(1, 2), (2, 1)}


def _reference_roots(f):
    # scan every element of the field and divide out each root found
    F = f.field
    out = []
    for v in range(F.order):
        lin = FPoly(F, [F.neg_i(v), 1])
        mult, h = 0, f
        while True:
            quo, rem = h.divmod(lin)
            if not rem.is_zero():
                break
            mult, h = mult + 1, quo
        if mult:
            out.append((v, mult))
    return out


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6),
                                 (3, 1), (3, 2), (3, 3), (3, 4),
                                 (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)])
def test_poly_roots_matches_scan_reference(p, k):
    # seeded random products of repeated linear factors and a random
    # cofactor; the tiny characteristic-2 fields exercise the trace split
    F = build_field(p, k)
    rng = random.Random(1000 * p + k)
    # X^|F| - X: every element is a simple root
    polys = [FPoly(F, [0, F.neg_i(1)] + [0] * (F.order - 2) + [1])]
    for _ in range(8):
        f = FPoly(F, [rng.randrange(F.order) for _ in range(rng.randrange(5))] + [1])
        for _ in range(rng.randrange(1, 5)):
            lin = FPoly(F, [rng.randrange(F.order), 1])
            for _ in range(rng.randrange(1, 4)):
                f = f * lin
        polys.append(f)
    for f in polys:
        assert [(r.value, m) for r, m in poly_roots(f)] == _reference_roots(f)


def test_poly_roots_kummer_count():
    # X^(q-1) - mu over F_{q^3} has 0 or q-1 roots: q-1 when mu is a
    # (q-1)-th power, 0 otherwise
    q = 25

    def count(mu):
        f = FPoly(F56, [(-mu).value] + [0] * (q - 2) + [1])
        return len(poly_roots(f))

    g = F56.generator
    assert count(g ** (q - 1)) == q - 1
    assert count(g) == 0  # the generator is not a (q-1)-th power
    rng = random.Random(3)
    for _ in range(4):
        mu = F56.random_element(rng)
        if mu.value:
            assert count(mu) in (0, q - 1)


def test_frame_parameter_sq5():
    a = frame_parameter(5)
    assert a.field is F125
    assert (a**31).value == 1
    assert (a * a + a + 1).value != 0
    a1, a2, a3 = frame_scalars(a, 5)
    assert a1.value == 0 and a2.value == 0 and a3.value != 0
    det = frame_matrix(a, 5).det()
    assert ((a + 1) ** 3) * det == (a * a + a + 1) ** 3


def test_frame_parameter_sq5_all_roots_admissible():
    # no 31st root of unity has order 3, so every root of the frame
    # polynomial is admissible
    f = FPoly(F125, [1, 1, 0, 0, 0, 0, 1])
    for r, _ in poly_roots(f):
        assert (r * r + r + 1).value != 0


def test_frame_parameter_sq8():
    a = frame_parameter(8)
    assert a.field.order == 512
    assert (a**73).value == 1
    assert a.frobenius(9) == a  # fixed by the F_512 Frobenius


@pytest.mark.parametrize("p,k,e,coeffs,dim", [
    (2, 6, 2, (1, 1, 1), 4),    # ker Tr_(64/4)
    (3, 6, 2, (1, 1, 1), 4),    # ker Tr_(729/9), where 1 + T + T^2 = (T - 1)^2
    (2, 12, 4, (1, 1, 1), 8),
    (5, 6, 3, (1, 1), 3),       # b^125 + b = 0
    (5, 6, 3, (-1, 1), 3),      # Fix(Frob^3) = F_125
    (3, 4, 2, (1, 1), 2),
    (7, 4, 1, (-1, 1), 1),      # F_7
    (7, 2, 1, (1, 1), 1),
])
def test_frobenius_kernel_is_the_stated_kernel(p, k, e, coeffs, dim):
    # the basis has the stated dimension, every element of its span is a
    # root of sum_i coeffs[i] x^(p^(e i)) by frob_i, and no other element of
    # the field is one; a wrong dimension is refused
    F = build_field(p, k)
    basis = frobenius_kernel(F, e, coeffs, dim)
    assert basis.shape == (dim, k)

    def value(x):
        acc = 0
        for i, c in enumerate(coeffs):
            acc = F.add_i(acc, F.mul_i(c % p, F.frob_i(x, e * i)))
        return acc

    span = {F.pack(np.array(v) @ basis % p) for v in itertools.product(range(p), repeat=dim)}
    assert len(span) == p**dim and all(value(x) == 0 for x in span)
    assert {x for x in range(F.order) if value(x) == 0} == span
    with pytest.raises(ConsistencyError, match=f"dimension {dim}.*expected {dim + 1}"):
        frobenius_kernel(F, e, coeffs, dim + 1)


@pytest.mark.parametrize("sq,want", [(27, 208), (29, 230), (31, 1746)])
def test_frame_parameter_on_tables_keeps_the_root(sq, want):
    # F_(sq^3) is past EAGER_TABLE_CAP and within TABLE_CAP: the root taken
    # from ker Tr is the packed root that the tabled root finder found
    a = frame_parameter(sq)
    assert a.field.order == sq**3
    assert a.value == want


def test_frobenius_power():
    # q-power fixes F_q inside a bigger field
    phi = embed(F25, F56)
    rng = random.Random(11)
    for _ in range(20):
        x = F25.random_element(rng)
        assert phi(x).frobenius(2) == phi(x)
    for _ in range(50):
        x, y = F56.random_element(rng), F56.random_element(rng)
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()
    a = frame_parameter(5)
    assert a.frobenius(3) == a


@pytest.mark.parametrize("tables", [True, False], ids=["tables", "no-tables"])
@pytest.mark.parametrize("p,k", [(2, 12), (3, 6), (5, 1), (5, 6), (7, 3)])
def test_frob_i_matches_repeated_p_powers(p, k, tables):
    # with tables frob_i is one table lookup, without them one F_p matrix
    # product; the reference raises to the p-th power e times.  A fresh
    # ExtField has no tables whatever the shared field cache holds.
    if tables:
        F = build_field(p, k)
        assert F.ensure_tables()
    else:
        F = ExtField(p, k, build_field(p, k).modulus)
    rng = random.Random(p * 1000 + k)
    xs = [rng.randrange(F.order) for _ in range(20)] + [0, 1, F.order - 1]
    for e in range(k):
        for x in xs:
            want = x
            for _ in range(e):
                want = F.pow_i(want, p)
            assert F.frob_i(x, e) == want
    assert (F._log is not None) == tables


@pytest.mark.parametrize("p,k", [(2, 5), (2, 24), (2, 30), (3, 4), (3, 24), (5, 3), (5, 24)])
def test_mul_and_frob_matrix_act_on_row_vectors(p, k):
    # vec(x) @ M over F_p against the scalar products; a field without
    # tables runs frob_i through frob_matrix, so pow_i is the reference
    F = build_field(p, k, cap=None)
    rng = random.Random(p * 100 + k)

    def vec(x):
        raw = F.unpack(x)
        return np.array(raw + (0,) * (k - len(raw)), dtype=np.int64)

    xs = [rng.randrange(F.order) for _ in range(6)] + [0, 1]
    for m in [rng.randrange(F.order) for _ in range(4)] + [0, 1]:
        mat = F.mul_matrix(m)
        assert mat.shape == (k, k)
        for x in xs:
            assert F.pack(vec(x) @ mat % p) == F.mul_i(m, x)
    for e in (1, 2, k - 1, k + 3):
        mat = F.frob_matrix(e)
        for x in xs:
            want = F.pow_i(x, p ** (e % k))
            assert F.pack(vec(x) @ mat % p) == want == F.frob_i(x, e)


def _reference_mul(F, a, b):
    # the polynomial route: coefficient tuples, product, sparse reduction
    prod = _vmul(F.unpack(a), F.unpack(b), F.p)
    return F.pack(_vmod_sparse(prod, F._tail, F.k, F.p))


def _reference_inv(F, a):
    # extended Euclid on coefficient tuples in F_p[X]
    p = F.p
    r0, r1 = F.modulus, F.unpack(a)
    s0, s1 = (), (1,)
    while r1:
        q, r = _vdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _vsub(s0, _vmul(q, s1, p), p)
    if len(r0) != 1:
        raise ConsistencyError("modulus not irreducible")
    return F.pack(_vscale(s0, pow(r0[0], p - 2, p), p))


@contextlib.contextmanager
def _deadline(seconds):
    # turn a loop that never ends into a failing test
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _char2_operands(k):
    # the edge elements 0, 1, X^(k-1), 2^k - 1 and seeded random elements
    rng = random.Random(2000 + k)
    return [0, 1, 1 << (k - 1), (1 << k) - 1] + [rng.randrange(1 << k) for _ in range(12)]


@pytest.mark.parametrize("k", list(range(1, 19)) + [27, 54, 114])
def test_char2_mul_and_inv_match_the_polynomial_path(k):
    # a fresh ExtField has no tables, so mul_i and inv_i work on the packed
    # bit vector by shifts and XORs; every pair of operands is checked
    F = ExtField(2, k, build_field(2, k, cap=None).modulus)
    xs = _char2_operands(k)
    for a in xs:
        for b in xs:
            assert F.mul_i(a, b) == _reference_mul(F, a, b)
        if a:
            with _deadline(10):
                inv = F.inv_i(a)
            assert inv == _reference_inv(F, a)
            assert F.mul_i(a, inv) == 1
    assert F._log is None


@pytest.mark.parametrize("k", range(1, 13))
def test_char2_table_path_matches_the_bit_vector_path(k):
    modulus = build_field(2, k).modulus
    T = ExtField(2, k, modulus)
    assert T.ensure_tables()
    F = ExtField(2, k, modulus)
    xs = _char2_operands(k)
    for a in xs:
        for b in xs:
            assert F.mul_i(a, b) == T.mul_i(a, b)
        if a:
            with _deadline(10):
                assert F.inv_i(a) == T.inv_i(a)
    assert F._log is None


@pytest.mark.parametrize("p,k", [(3, 2), (3, 5), (5, 2), (5, 3), (5, 6), (7, 2), (7, 4), (13, 3)])
def test_odd_table_path_matches_the_polynomial_path(p, k):
    # build_field tables a small field at construction, so its add_i is the
    # Zech addition and neg_i a shift by n/2 in logs; a fresh ExtField adds
    # digit by digit and multiplies on coefficient tuples.  The operands
    # include 0, 1, -1 and a pair with a + b = 0, where the Zech table
    # reads -1.
    T = build_field(p, k)
    assert T._log is not None
    F = ExtField(p, k, T.modulus)
    rng = random.Random(3000 * p + k)
    xs = [rng.randrange(1, F.order) for _ in range(12)]
    xs += [0, 1, p - 1, F.neg_i(xs[0])]
    for a in xs:
        assert T.neg_i(a) == F.neg_i(a)
        for e in range(k):
            assert T.frob_i(a, e) == F.frob_i(a, e)
        for e in (0, 1, 2, p, F.order, -3):
            if a or e >= 0:
                assert T.pow_i(a, e) == F.pow_i(a, e)
        if a:
            assert T.inv_i(a) == F.inv_i(a)
        for b in xs:
            assert T.add_i(a, b) == F.add_i(a, b)
            assert T.sub_i(a, b) == F.sub_i(a, b)
            assert T.mul_i(a, b) == F.mul_i(a, b)
    assert T.add_i(xs[0], xs[-1]) == 0
    assert F._log is None


def _loop_tables(F):
    # the table build before doubling: one mul_i per power of the generator
    g = F.generator.value
    n = F.group_order
    exp = [0] * (2 * n)
    log = [-1] * F.order
    v = 1
    for i in range(n):
        exp[i] = v
        exp[i + n] = v
        log[v] = i
        v = F.mul_i(v, g)
    return exp, log


def _prime_powers(limit):
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]
    return [(p, k) for p in primes for k in range(1, limit.bit_length()) if p**k <= limit]


def _assert_tables_match_the_loop(p, k):
    modulus = build_field(p, k).modulus
    F, ref = ExtField(p, k, modulus), ExtField(p, k, modulus)
    assert F.ensure_tables()
    assert (list(F._exp), list(F._log)) == _loop_tables(ref)


@pytest.mark.parametrize("p,k", [(p, k) for p, k in _prime_powers(4096) if k > 1 or p < 64])
def test_doubled_tables_match_the_loop(p, k):
    _assert_tables_match_the_loop(p, k)


def test_doubled_tables_match_the_loop_on_every_larger_prime_field():
    for p, k in _prime_powers(4096):
        if k == 1 and p >= 64:
            _assert_tables_match_the_loop(p, k)


@pytest.mark.parametrize("p,k", [(7, 6), (3, 11), (5, 7), (2, 18), (46349, 1), (262139, 1)])
def test_doubled_tables_match_the_loop_near_the_cap(p, k):
    # the two prime fields have (p - 1)^2 >= 2^31: their digit products need int64
    _assert_tables_match_the_loop(p, k)


@pytest.mark.parametrize("p,k,e", [(5, 4, 2), (2, 4, 3), (3, 5, 11)])
def test_table_build_rejects_a_generator_that_is_not_primitive(p, k, e):
    # g^e has order n / gcd(n, e) < n; every g satisfies g^n = 1, so only
    # the coverage of the log table can tell
    F = ExtField(p, k, build_field(p, k).modulus)
    F._gen = F.pow_i(F.generator.value, e)
    with pytest.raises(ConsistencyError, match="generator order mismatch"):
        F.ensure_tables()
    assert F._log is None and F._exp is None


def test_build_field_tables_every_field_within_the_eager_cap():
    # every prime power up to 2^14 but the larger prime fields, which
    # would hold 14 million table entries between them, and the largest
    # prime below the bound
    small = [(p, k) for p, k in _prime_powers(EAGER_TABLE_CAP) if k > 1 or p < 64]
    for p, k in small + [(16381, 1)]:
        assert build_field(p, k)._log is not None, (p, k)


def test_build_field_tables_no_field_past_the_eager_cap(monkeypatch):
    # an empty cache makes each build_field construct its field, whatever
    # other tests have tabled on demand
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    for p, k in [(2, 15), (16411, 1), (3, 9), (2, 18)]:
        assert p**k > EAGER_TABLE_CAP
        F = build_field(p, k)
        assert F._log is None and F._zech is None, (p, k)


def test_char2_inverse_of_zero_and_reducible_modulus():
    F = ExtField(2, 9, build_field(2, 9).modulus)
    with pytest.raises(ZeroDivisionError):
        F.inv_i(0)
    # X^4 + X^2 + 1 = (X^2 + X + 1)^2: Euclid on X^2 + X + 1 ends at u = 0,
    # which must raise rather than loop; X is still a unit
    R = ExtField(2, 4, (1, 0, 1, 0, 1))
    with _deadline(10), pytest.raises(ConsistencyError, match="modulus not irreducible"):
        R.inv_i(0b111)
    with _deadline(10):
        assert R.mul_i(R.inv_i(0b10), 0b10) == 1


def _base_p_unpack(v, p):
    # reference: the base-p digit walk, low digit first, trailing zeros cut
    out = []
    while v:
        out.append(v % p)
        v //= p
    return tuple(out)


@pytest.mark.parametrize("k", [1, 6, 12, 18, 114, 342])
def test_char2_packing_matches_the_base_p_walk(k):
    # packing never reads the modulus, so X^k + 1 stands in for it
    F = ExtField(2, k, (1,) + (0,) * (k - 1) + (1,))
    assert F._bits == (1 << k) + 1
    for v in _char2_operands(k):
        raw = _base_p_unpack(v, 2)
        digits = raw + (0,) * (k - len(raw))
        assert F.unpack(v) == raw
        assert F.digits(v) == digits
        assert all(type(c) is int for c in F.digits(v))
        assert F.pack(digits) == F.pack(list(raw)) == v
        assert F.pack(np.array(digits, dtype=np.int64)) == v
        assert F.pack(np.array(raw, dtype=np.int32)) == v
    assert F.pack(()) == F.pack(np.zeros(0, dtype=np.int64)) == 0


# every (p, a, b) with F_{p^a} -> F_{p^b} an embedding the census reaches
# at sqrt_q <= 8: F_q into the Lang lift fields, F_q into F_{q^3}, and the
# frame field F_{sqrt_q^3} into F_{q^3}
CENSUS_EMBEDDINGS = [
    (2, 2, 18), (2, 4, 52), (2, 6, 114), (2, 6, 162),
    (3, 2, 14), (5, 2, 14), (5, 2, 18), (5, 2, 126),
    (2, 2, 6), (3, 2, 6), (5, 2, 6), (2, 6, 18),
    (2, 3, 6), (3, 3, 6), (5, 3, 6), (2, 9, 18),
]


def _reference_is_irreducible(f, p):
    # distinct-degree sieve: f has no factor of degree <= deg(f)/2; each
    # step raises h to the p-th power mod f by square-and-multiply
    k = len(f) - 1
    h = (0, 1)
    for _ in range(k // 2):
        base, h, e = h, (1,), p
        while e:
            if e & 1:
                h = _vdivmod(_vmul(h, base, p), f, p)[1]
            e >>= 1
            base = _vdivmod(_vmul(base, base, p), f, p)[1]
        if _vgcd(_vsub(h, (0, 1), p), f, p) != (1,):
            return False
    return True


def _reference_lex_least(p, k):
    if k == 1:
        return (0, 1)
    for tail in range(1, p**k):
        if tail % p:
            f = tuple(tail // p**i % p for i in range(k)) + (1,)
            if _reference_is_irreducible(f, p):
                return f


@pytest.mark.parametrize("p,k", sorted({(p, k) for p, a, b in CENSUS_EMBEDDINGS
                                        for k in (a, b)}))
def test_modulus_matches_distinct_degree_sieve(p, k):
    assert build_field(p, k, cap=None).modulus == _reference_lex_least(p, k)


@pytest.mark.parametrize("p,kmax", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_rabin_test_matches_distinct_degree_sieve(p, kmax):
    # every monic candidate with nonzero constant term, degrees 2..kmax
    for k in range(2, kmax + 1):
        for tail in range(1, p**k):
            if tail % p:
                f = tuple(tail // p**i % p for i in range(k)) + (1,)
                assert _is_irreducible(f, p) == _reference_is_irreducible(f, p), f


@pytest.mark.parametrize("p,a,b", CENSUS_EMBEDDINGS)
def test_gen_image_is_the_least_root(p, a, b):
    # the least root of the source modulus, as root finding in the target
    # field gives it
    src, tgt = build_field(p, a), build_field(p, b, cap=None)
    roots = poly_roots(FPoly(tgt, list(src.modulus)))
    assert len(roots) == a
    assert embed(src, tgt).gen_image == roots[0][0]


# every (p, a, b) with a != b that the tests and the benchmark workloads
# embed F_{p^a} into F_{p^b} for
BUILT_EMBEDDINGS = sorted(set(CENSUS_EMBEDDINGS) | {
    (2, 2, 4), (2, 4, 8), (2, 4, 12), (2, 6, 12), (3, 2, 4), (3, 4, 12),
    (3, 6, 12), (5, 2, 4), (7, 2, 6), (7, 2, 86), (7, 3, 6),
})


def _kernel_scan_embedding(src, tgt):
    # the embedding before the first-root scan: the source modulus is
    # evaluated at all p^a elements of Fix(Frob^a) and the least root taken
    p, a, k = tgt.p, src.k, tgt.k
    t, pivots = _rref(tgt.frob_matrix(a) - np.eye(k, dtype=np.int64), p)
    kernel = t[len(pivots):]
    coords = np.array(list(itertools.product(range(p), repeat=a)), dtype=np.int64)
    mod_poly = FPoly._raw(tgt, list(src.modulus))
    roots = sorted(r for r in map(tgt.pack, (coords @ kernel % p).tolist())
                   if mod_poly.eval_i(r) == 0)
    assert len(roots) == a
    rows, g = [], 1
    for _ in range(a):
        rows.append(tgt.digits(g))
        g = tgt.mul_i(g, roots[0])
    return roots[0], np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("p,a,b", BUILT_EMBEDDINGS)
def test_first_root_embedding_matches_the_kernel_scan(p, a, b):
    src, tgt = build_field(p, a), build_field(p, b, cap=None)
    phi = Embedding(src, tgt)
    gen_image, matrix = _kernel_scan_embedding(src, tgt)
    assert phi.gen_image.value == gen_image
    assert np.array_equal(phi._matrix, matrix)


def _in_image(phi, y):
    # subfield criterion: y^(p^a) = y
    return y.field.frob_i(y.value, phi.source.k) == y.value


@pytest.mark.parametrize("p,a,b", [(5, 2, 126), (2, 6, 114), (2, 9, 18)])
def test_embedding_roundtrip_and_rejection(p, a, b):
    src, tgt = build_field(p, a), build_field(p, b, cap=None)
    phi = embed(src, tgt)
    images = set()
    for v in range(src.order):
        y = phi(src.elem(v))
        assert _in_image(phi, y)
        assert phi.preimage(y).value == v
        images.add(y.value)
    assert len(images) == src.order
    rng = random.Random(p * 1000 + b)
    outside = [tgt.elem(p)] + [tgt.random_element(rng) for _ in range(20)]
    for y in outside:
        if not _in_image(phi, y):
            with pytest.raises(ValueError):
                phi.preimage(y)


@pytest.mark.parametrize("p,a,b", CENSUS_EMBEDDINGS)
def test_image_list_matches_the_matrix_path(p, a, b):
    # every census source is within EAGER_TABLE_CAP, so apply_i reads the
    # image list and preimage its inverse dict; the reference multiplies
    # each digit row by the embedding matrix E
    src, tgt = build_field(p, a), build_field(p, b, cap=None)
    phi = embed(src, tgt)
    assert phi._images is not None
    want = [tgt.pack(np.array(src.digits(v), dtype=np.int64) @ phi._matrix % p)
            for v in range(src.order)]
    assert [phi.apply_i(v) for v in range(src.order)] == want
    assert [phi.preimage(tgt.elem(y)).value for y in want] == list(range(src.order))
    rng = random.Random(p * 1000 + b)
    image = set(want)
    outside = [y for y in [p] + [rng.randrange(tgt.order) for _ in range(20)] if y not in image]
    assert p in outside             # X generates the target, a proper extension
    for y in outside:
        with pytest.raises(ValueError, match="^element is not in the embedded subfield$"):
            phi.preimage(tgt.elem(y))


@pytest.mark.parametrize("p,a", [(2, 15), (3, 9)])
def test_matrix_path_past_the_eager_cap(p, a):
    # the embeddings that singer_frame makes at sqrt_q = 32 and 27: the
    # source is past EAGER_TABLE_CAP, so apply_i multiplies by E and
    # preimage applies a left inverse of E with an exact check
    src, tgt = build_field(p, a), build_field(p, 2 * a, cap=None)
    assert src.order > EAGER_TABLE_CAP
    phi = embed(src, tgt)
    assert phi._images is None
    rng = random.Random(p * 1000 + a)
    for v in [0, 1, p] + [rng.randrange(src.order) for _ in range(50)]:
        x = src.elem(v)
        assert phi.apply_i(v) == tgt.pack(
            np.array(src.digits(v), dtype=np.int64) @ phi._matrix % p)
        assert phi.preimage(phi(x)) == x
    outside = [y for y in [p] + [rng.randrange(tgt.order) for _ in range(20)]
               if tgt.frob_i(y, a) != y]
    assert p in outside             # X generates the target, a proper extension
    for y in outside:
        with pytest.raises(ValueError, match="^element is not in the embedded subfield$"):
            phi.preimage(tgt.elem(y))


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (2, 15)])
def test_embedding_into_itself_is_the_identity(p, k):
    # the general construction, with no same-field branch: X goes to the
    # least root of F's own modulus, X itself (packed p; 0 in a prime field),
    # on the image-list path and, for F_(2^15), on the matrix path
    F = build_field(p, k)
    phi = embed(F, F)
    assert phi.gen_image.value == (p if k > 1 else 0)
    rng = random.Random(p * 100 + k)
    for v in {0, 1, F.order - 1, *(rng.randrange(F.order) for _ in range(50))}:
        assert phi.apply_i(v) == v
        assert phi.preimage(F.elem(v)).value == v


def test_embedding_homomorphism_bulk():
    pairs = [(F25, F56), (build_field(3, 2), build_field(3, 4))]
    rng = random.Random(13)
    for src, tgt in pairs:
        phi = embed(src, tgt)
        for _ in range(1000):
            a, b = src.random_element(rng), src.random_element(rng)
            assert phi(a * b) == phi(a) * phi(b)
            assert phi(a + b) == phi(a) + phi(b)
            if a != b:
                assert phi(a) != phi(b)


def test_embedding_preserves_multiplicative_order():
    phi = embed(F25, F56)
    rng = random.Random(17)
    for _ in range(40):
        x = F25.random_element(rng)
        if x.value:
            assert mult_order(x) == mult_order(phi(x))


def test_embedding_preimage_roundtrip_and_error():
    phi = embed(F25, F56)
    x = F25.elem(17)
    assert phi.preimage(phi(x)) == x
    # an element of order 21 is not in the embedded F_25 (21 does not divide 24)
    lam = find_root_of_unity(F56, 21)
    assert not _in_image(phi, lam)
    with pytest.raises(ValueError):
        phi.preimage(lam)


def test_element_operators():
    a = F25.elem(7)
    assert int(a / a) == 1
    assert a ** (-1) == a.inverse()
    assert (a - a).value == 0
    assert 2 * a == a + a
    with pytest.raises(ValueError):
        a + F5.elem(1)


@pytest.mark.parametrize("p,k", [(5, 2), (2, 4), (7, 1)])
def test_element_operators_across_fields_and_ints(p, k):
    # two ExtField objects with equal (p, k) are separate fields to the
    # element operators: arithmetic between them raises, == is False and
    # != True, both ways round; an int works on either side, reduced mod p
    F = build_field(p, k)
    twin = ExtField(p, k, F.modulus)
    assert twin == F and twin is not F
    a, b = F.elem(F.order - 2), twin.elem(F.order - 2)
    for op in (operator.add, operator.mul, operator.sub, operator.truediv):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="mixed-field arithmetic"):
                op(x, y)
    assert (a == b, b == a, a != b, b != a) == (False, False, True, True)
    same = F.elem(F.order - 2)
    assert (a == same, a != same) == (True, False)
    three = F.elem(3 % p)
    for op in (operator.add, operator.mul, operator.sub, operator.truediv):
        assert op(a, 3) == op(a, three) == op(a, 3 + p)
        assert op(3, a) == op(three, a)
    assert (a != 3, 3 != a, a == 3) == (True, True, False)
    for other in (1.5, "x", None):
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            other * a


def test_fpoly_refuses_another_fields_coefficient():
    # a coefficient goes through ExtField.elem, as an int or a FieldElement
    F625 = build_field(5, 4)
    with pytest.raises(ValueError, match="^element of a different field$"):
        FPoly(F625, [F25.elem(7), 1])
    assert FPoly(F625, [F625.elem(7), 1]) == FPoly(F625, [7, 1])


@pytest.mark.parametrize("other", [build_field(5, 4), ExtField(5, 2, F25.modulus)],
                         ids=["F625", "twin"])
def test_fpoly_arithmetic_refuses_another_fields_polynomial(other):
    # +, -, * and divmod refuse a polynomial over another field object, an
    # equal-(p, k) twin included; %, //, gcd and powmod go through them
    f, g = FPoly(F25, [7, 1]), FPoly(other, [7, 1])
    ops = (operator.add, operator.sub, operator.mul, operator.mod, operator.floordiv,
           FPoly.divmod, FPoly.gcd, lambda a, b: a.powmod(3, b))
    for op in ops:
        for x, y in ((f, g), (g, f)):
            with pytest.raises(ValueError, match="^mixed-field arithmetic$"):
                op(x, y)


def test_embed_returns_one_object_per_p_and_degrees():
    # embed memoizes by (p, source.k, target.k): an ExtField hashes and
    # compares by (p, k), so a test-built twin of either field finds the
    # embedding that the cached fields made
    F625 = build_field(5, 4)
    phi = embed(F25, F625)
    assert embed(build_field(5, 2), build_field(5, 4)) is phi
    twin_src, twin_tgt = ExtField(5, 2, F25.modulus), ExtField(5, 4, F625.modulus)
    assert embed(twin_src, F625) is embed(F25, twin_tgt) is embed(twin_src, twin_tgt) is phi
    assert embed(F25, F56) is not phi


def test_element_never_equals_an_int():
    # an int compares unequal, so == stays consistent with __hash__
    assert F5.elem(3) != 3
    assert F5.elem(3) != 8
    assert F25.elem(7) != 7
    assert F5.elem(3) == F5.elem(8)
    assert hash(F5.elem(3)) == hash(F5.elem(8))
    assert hash(F25.elem(17)) == hash(build_field(5, 2).elem(17))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 624), st.integers(0, 624), st.integers(0, 624))
def test_field_axioms_f625(x, y, z):
    F = build_field(5, 4)
    a, b, c = F.elem(x % F.order), F.elem(y % F.order), F.elem(z % F.order)
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    if a.value:
        assert (a * a.inverse()).value == 1


# -- batched arithmetic on arrays, against the scalar operations ----------------

# (p, k, tabled): a field past the tables is a fresh instance, so that no
# other test has built tables on it; p = 2 at k = 36 and 63 needs the (lo, hi)
# product words, and F_(2^72) is past int64 (object arrays)
BATCH_SHAPES = [(2, 1, False), (2, 9, False), (2, 18, False), (2, 36, False),
                (2, 63, False), (5, 6, True), (3, 18, False), (67, 3, False),
                (2, 72, False)]


def _batch_field(p, k, tabled):
    F = build_field(p, k, cap=None)
    return F if tabled else ExtField(p, k, F.modulus)


@pytest.mark.parametrize("p,k,tabled", BATCH_SHAPES)
def test_batched_arithmetic_matches_the_scalar_path(p, k, tabled):
    F = _batch_field(p, k, tabled)
    assert (F._log is not None) == tabled
    rng = random.Random(p * 1000 + k)
    a = [0, 1, F.order - 1] + [rng.randrange(F.order) for _ in range(150)]
    b = [rng.randrange(F.order) for _ in range(152)] + [0]
    assert F.mul_v(a, b).tolist() == [F.mul_i(x, y) for x, y in zip(a, b)]
    assert F.add_v(a, b).tolist() == [F.add_i(x, y) for x, y in zip(a, b)]
    for e in (0, 1, 2, p - 1, p, p + 1, p * p - 1, F.order - 2, F.order, rng.randrange(F.order**2)):
        assert F.pow_v(a, e).tolist() == [F.pow_i(x, e) for x in a], e


@pytest.mark.parametrize("p,k,tabled", BATCH_SHAPES)
def test_batched_arithmetic_edge_cases(p, k, tabled):
    F = _batch_field(p, k, tabled)
    rng = random.Random(k)
    a = [rng.randrange(F.order) for _ in range(20)]
    c = rng.randrange(1, F.order)
    for op in (F.mul_v, F.add_v):
        # zero lanes, and a scalar broadcast from either side
        assert op([], c).shape == op([], []).shape == (0,)
        assert op(a, c).tolist() == op(c, a).tolist() == op(a, [c] * len(a)).tolist()
    assert F.mul_v(a, c).tolist() == [F.mul_i(x, c) for x in a]
    assert F.mul_v(a, 0).tolist() == F.mul_v(0, a).tolist() == [0] * len(a)
    assert F.pow_v([], 5).shape == (0,)
    assert F.pow_v([0, 0, c], 0).tolist() == [1, 1, 1]
    assert F.pow_v([0, c], 3).tolist() == [0, F.pow_i(c, 3)]
    # the shape of the operands is kept
    grid = np.array(a, dtype=F._vdtype).reshape(4, 5)
    assert F.mul_v(grid, grid).tolist() == [[F.mul_i(x, x) for x in row] for row in grid.tolist()]
    assert F.pow_v(grid, 7).shape == (4, 5)
    with pytest.raises(ValueError, match="e >= 0"):
        F.pow_v(a, -1)


def test_batched_arithmetic_returns_int64_within_its_packing():
    # int64 while the packed elements fit, Python ints past them
    assert ExtField(2, 63, build_field(2, 63, cap=None).modulus).mul_v([3], [5]).dtype == np.int64
    assert build_field(3, 18).pow_v([2], 3).dtype == np.int64
    assert build_field(2, 72, cap=None).mul_v([3], [5]).dtype == object
