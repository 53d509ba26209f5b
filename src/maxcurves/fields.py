"""Exact arithmetic in towers of finite fields F_{p^k}.

A field is F_p[X]/(m) with m the lexicographically least monic irreducible
polynomial of the requested degree (high coefficients compared first), so
construction is reproducible across runs.  Elements are coefficient vectors
over F_p packed into a single integer in base p; the packed value also gives
the canonical "lexicographically least" ordering used whenever a
deterministic choice of root or generator is needed.

Moduli are found by testing candidates in that order with Rabin's test, the
powers X^(p^j) taken as row vectors times the Berlekamp Q-matrix over F_p.
Every root the package takes lies in a kernel of an F_p-linear map
sum_i c_i Frob^(e i), found by elimination mod p (frobenius_kernel): an
embedding maps F_{p^a} onto the kernel of Frob^a - 1 on the target, and the
source generator to the least root of the source modulus there.  poly_roots
(seeded equal-degree splitting) is the reference the tests compare with.

Discrete-log tables (exp, log and the Zech logarithm) are built by F_p-linear
doubling (exp[m:2m] = exp[:m] * g^m).  build_field builds them at
construction for fields with at most EAGER_TABLE_CAP elements, where every
scalar operation is then a lookup (addition in odd characteristic by Zech
logarithms) and every embedding out of the field reads an image list.
Larger fields within TABLE_CAP build them on demand, for the bulk
enumeration code; check_table_cap is the one place that cap is tested:
asking a larger field for its tables raises CapError.  Without tables, odd
characteristic adds digit by digit and multiplies and inverts on coefficient
tuples; in characteristic 2 the packed integer is the coefficient bit
vector, so addition is XOR, and multiplication (carry-less product, then
reduction by the sparse modulus) and inversion (binary extended Euclid) are
shifts and XORs on it.  The batched operations add_v, mul_v and pow_v apply
one operation to numpy arrays of packed elements, in a form per field shape
(ExtField).  All arithmetic is exact.  Geometry over these fields, the
Singer frame among it, lives in curves.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import numpy as np

from ._intfactor import factorize, is_prime
from .errors import CapError, ConsistencyError

DEFAULT_ELEM_CAP = 1 << 40
TABLE_CAP = 1 << 18
EAGER_TABLE_CAP = 1 << 14
"""build_field builds the tables of a field with at most this many elements
when it constructs it; TABLE_CAP still decides whether a field's tables can
be built at all.  It stays below 2^18, so that F_(2^18), the frame field
F_(q^3) at sqrt_q = 8, is not tabled by the Burnside count."""

# in characteristic 2 the digits of a packed element are the bits of its
# binary numeral, high bit first; these map its characters to bits and back
_FROM_BINARY = bytes.maketrans(b"01", b"\0\1")
_TO_BINARY = bytes.maketrans(b"\0\1", b"01")
# _SPREAD[b] is the byte b with a 0 bit after each of its bits: the square of
# an 8-bit polynomial over F_2, before reduction
_SPREAD = np.array([sum((b >> i & 1) << 2 * i for i in range(8)) for b in range(256)],
                   dtype="<u2")

EMBED_BLOCK = 1 << 12
"""The embedding scan evaluates the source modulus at most this many kernel
vectors per batched pass, so that its temporaries stay a few MiB."""


# ---------------------------------------------------------------------------
# polynomials over F_p as trimmed coefficient tuples, low degree first
# ---------------------------------------------------------------------------

def _vtrim(v: list[int]) -> tuple[int, ...]:
    n = len(v)
    while n and v[n - 1] == 0:
        n -= 1
    return tuple(v[:n])


def _vsub(a, b, p):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _vtrim(out)


def _vscale(a, c, p):
    c %= p
    if c == 0:
        return ()
    return _vtrim([x * c % p for x in a])


def _vmul(a, b, p):
    if not a or not b:
        return ()
    la, lb = len(a), len(b)
    if la * lb <= 420:
        out = [0] * (la + lb - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _vtrim([c % p for c in out])
    # Kronecker substitution: pack into one big integer and multiply once
    bound = (p - 1) * (p - 1) * min(la, lb)
    w = (bound.bit_length() + 7) // 8
    ab = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")
    bb = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in b), "little")
    prod = (ab * bb).to_bytes((la + lb) * w, "little")
    out = [
        int.from_bytes(prod[i * w:(i + 1) * w], "little") % p
        for i in range(la + lb - 1)
    ]
    return _vtrim(out)


def _vdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return (), _vtrim(a)
    inv_lead = pow(b[-1], p - 2, p)
    quot = [0] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = a[i + db] % p
        if c:
            c = c * inv_lead % p
            quot[i] = c
            for j, bj in enumerate(b):
                if bj:
                    a[i + j] = (a[i + j] - c * bj) % p
    return _vtrim(quot), _vtrim(a[:db])


def _vmod_sparse(a, sparse_tail, k, p):
    # reduce modulo a monic modulus X^k + tail given as [(exp, coeff), ...]
    a = list(a)
    for i in range(len(a) - 1, k - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for e, m in sparse_tail:
                a[i - k + e] = (a[i - k + e] - c * m) % p
    return _vtrim(a)


def _vgcd(a, b, p):
    while b:
        a, b = b, _vdivmod(a, b, p)[1]
    if a:
        a = _vscale(a, pow(a[-1], p - 2, p), p)
    return a


def _vxpow(e, f, p):
    """X^e mod f by square-and-multiply, from the top bit of e."""
    r = (1,)
    for bit in bin(e)[2:]:
        r = _vdivmod(_vmul(r, r, p), f, p)[1]
        if bit == "1":
            r = _vdivmod((0,) + r, f, p)[1]
    return r


def _is_irreducible(f, p):
    """Rabin's test for a monic f of degree k >= 2 with f(0) != 0.

    f is irreducible iff X^(p^k) = X mod f and gcd(X^(p^(k/r)) - X, f) = 1
    for every prime r | k.  The distinct-degree steps with p^j < k come
    first: there X^(p^j) needs no reduction, and they reject most candidates.
    The powers X^(p^j) are then iterated as row vectors times the Q-matrix.
    """
    k = len(f) - 1
    x = (0, 1)
    pj = p
    while pj < k:
        if _vgcd(_vsub((0,) * pj + (1,), x, p), f, p) != (1,):
            return False
        pj *= p
    qmat = _power_rows(f, p, _vxpow(p, f, p))  # the Q-matrix
    h = np.zeros(k, dtype=np.int64)
    h[1] = 1
    powers = [h]
    for _ in range(k):
        h = h @ qmat % p
        powers.append(h)
    if not np.array_equal(powers[k], powers[0]):
        return False
    return all(
        _vgcd(_vsub(_vtrim(powers[k // r].tolist()), x, p), f, p) == (1,)
        for r in factorize(k)
    )


def _lex_least_irreducible(p: int, k: int) -> tuple[int, ...]:
    if k == 1:
        return (0, 1)
    for tail in range(p**k):
        if tail % p == 0:
            continue  # constant term 0 means X divides
        coeffs = []
        t = tail
        for _ in range(k):
            coeffs.append(t % p)
            t //= p
        f = tuple(coeffs) + (1,)
        if _is_irreducible(f, p):
            return f
    raise ConsistencyError(f"no irreducible of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# F_p-linear algebra on numpy integer arrays reduced mod p
# ---------------------------------------------------------------------------

def _mul_rows(modulus, p, m) -> np.ndarray:
    """k x k matrix over F_p whose row j is vec(X^j m mod modulus)."""
    k = len(modulus) - 1
    low = np.array(modulus[:-1], dtype=np.int64)
    rows = np.zeros((k, k), dtype=np.int64)
    cur = np.zeros(k, dtype=np.int64)
    cur[:len(m)] = m
    for j in range(k):
        rows[j] = cur
        lead = cur[-1]
        cur = np.concatenate(([0], cur[:-1]))
        if lead:
            cur = (cur - lead * low) % p
    return rows


def _power_rows(modulus, p, omega) -> np.ndarray:
    """k x k matrix over F_p whose row i is vec(omega^i mod modulus).

    For omega = X^(p^e) it maps vec(x) to vec(x^(p^e)), because the p-power
    map fixes the F_p coefficients: frob_matrix(e) of a field.  At e = 1
    this is the Berlekamp Q-matrix, which Rabin's test iterates.
    """
    k = len(modulus) - 1
    step = _mul_rows(modulus, p, omega)
    rows = np.zeros((k, k), dtype=np.int64)
    cur = np.zeros(k, dtype=np.int64)
    cur[0] = 1
    for i in range(k):
        rows[i] = cur
        cur = cur @ step % p
    return rows


def _rref(mat: np.ndarray, p: int):
    """Row-reduce mat over F_p.

    Returns (t, pivots): t is invertible, t @ mat mod p is in reduced row
    echelon form with its leading 1s in the columns `pivots`, and the rows
    of t past len(pivots) span the left kernel of mat.
    """
    n, m = mat.shape
    # entries stay in [0, p) and an update subtracts at most (p - 1)^2, so
    # int16 holds the work for p <= 182, at a quarter of the memory
    dtype = np.int16 if (p - 1) ** 2 < 1 << 15 else np.int64
    aug = np.zeros((n, m + n), dtype=dtype)
    aug[:, :m] = mat % p
    aug[:, m:] = np.eye(n, dtype=dtype)
    pivots: list[int] = []
    for c in range(m):
        r = len(pivots)
        if r == n:
            break
        nz = np.flatnonzero(aug[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        aug[[r, i]] = aug[[i, r]]
        aug[r] = aug[r] * pow(int(aug[r, c]), p - 2, p) % p
        col = aug[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        aug[hit] = (aug[hit] - np.outer(col[hit], aug[r])) % p
        pivots.append(c)
    return aug[:, m:], pivots


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class ExtField:
    """The finite field F_{p^k}, elements packed as integers in [0, p^k).

    For p = 2 the packed integer is the coefficient bit vector: addition is
    XOR, and without tables mul_i and inv_i work on it by shifts and XORs.
    The discrete-log tables and Frobenius matrices are cached on the
    instance.  Scalar operations never build the tables: only ensure_tables
    (and _np_tables, which calls it) does.  Use :func:`build_field`, which
    caches one instance per (p, k) and tables a small field at once.

    add_v, mul_v and pow_v are the batched operations: elementwise on numpy
    arrays of packed elements, int64 while the elements fit.  With tables
    they gather from them.  Past the tables, p = 2 (k <= 63) works on uint64
    bit vectors, the carry-less product as a (lo, hi) pair of words once
    2k - 1 > 64, folded through the sparse modulus tail, and squaring by a
    byte table that spreads the bits; odd p works on a k x N array of
    digits, the product's 2k - 1 digits reduced by one (2k - 1) x k matrix
    mod p, the p-th power by frob_matrix(1).  A field past int64 (a lift
    field) takes object arrays of Python ints through the scalar
    operations.  mul_i and pow_i stay the scalar path.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p**k
        self.group_order = self.order - 1
        self._ppows = [p**i for i in range(k + 1)]
        # modulus tail as sparse [(exp, coeff)] for fast reduction
        self._tail = tuple((i, c) for i, c in enumerate(modulus[:-1]) if c)
        # in characteristic 2 the packed modulus is its bit vector
        self._bits = self.pack(modulus) if p == 2 else None
        self._exp = None   # packed powers of the table generator, doubled
        self._log = None
        self._zech = None  # zech[m] = log(1 + g^m), -1 where that is zero
        self._gen = None
        self._go_fac = None
        self._frob_mats: dict[int, np.ndarray] = {}
        # the batched operations' dtypes: packed elements in int64 when they
        # and a sum of 2k - 1 digit products fit in it, and digits in the
        # narrowest type that holds that sum
        bound = (2 * k - 1) * (p - 1) ** 2
        fits = self.order <= 1 << 63 and bound < 1 << 63
        self._vdtype = np.int64 if fits else object
        self._ddtype = next((t for t in (np.int16, np.int32)
                             if bound <= np.iinfo(t).max), np.int64)
        self._pw = np.array(self._ppows[:k], dtype=np.int64) if fits else None
        self._reduce = None
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)

    # -- packing ------------------------------------------------------------

    def unpack(self, v: int) -> tuple[int, ...]:
        p = self.p
        if p == 2:
            return tuple(bin(v)[:1:-1].encode().translate(_FROM_BINARY)) if v else ()
        out = []
        while v:
            out.append(v % p)
            v //= p
        return tuple(out)

    def pack(self, vec) -> int:
        """The packed element of a coefficient vector with entries in [0, p)."""
        if self.p == 2:
            if isinstance(vec, np.ndarray):
                vec = vec.tolist()
            return int(bytes(vec)[::-1].translate(_TO_BINARY) or b"0", 2)
        pw = self._ppows
        return sum(int(c) * pw[i] for i, c in enumerate(vec) if c)

    def digits(self, v: int) -> tuple[int, ...]:
        """The k coefficients of a packed element, low degree first."""
        if self.p == 2:
            return tuple(format(v, f"0{self.k}b")[::-1].encode().translate(_FROM_BINARY))
        raw = self.unpack(v)
        return raw + (0,) * (self.k - len(raw))

    # -- integer-domain arithmetic -------------------------------------------

    def add_i(self, a: int, b: int) -> int:
        """a + b: XOR in characteristic 2; otherwise, with tables, the Zech
        addition g^la + g^lb = g^(la + Z(lb - la)), else digit by digit."""
        p = self.p
        if p == 2:
            return a ^ b
        log = self._log
        if log is not None:
            if a == 0 or b == 0:
                return a or b
            la = log[a]
            # lb - la lies in (-n, n), and a negative index counts from the
            # end of the n-entry Zech table: the difference is read mod n
            z = self._zech[log[b] - la]
            return 0 if z < 0 else self._exp[la + z]
        out = 0
        i = 0
        pw = self._ppows
        while a or b:
            out += ((a + b) % p) * pw[i]
            a //= p
            b //= p
            i += 1
        return out

    def neg_i(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        log = self._log
        if log is not None:   # -1 = g^(n/2)
            return self._exp[log[a] + (self.group_order >> 1)] if a else 0
        out = 0
        i = 0
        pw = self._ppows
        while a:
            out += (-a % p) * pw[i]
            a //= p
            i += 1
        return out

    def sub_i(self, a: int, b: int) -> int:
        return self.add_i(a, self.neg_i(b))

    def mul_i(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        log = self._log
        if log is not None:
            return self._exp[log[a] + log[b]]
        if self.p == 2:
            # carry-less product: XOR a << i over the set bits i of the
            # shorter operand (low = 2^i, so a * low is that shift), then
            # fold the bits above X^k back down through the sparse tail
            if a < b:
                a, b = b, a
            r = 0
            while b:
                low = b & -b
                r ^= a * low
                b ^= low
            k = self.k
            while r >> k:
                hi = r >> k
                r ^= hi << k
                for e, _ in self._tail:
                    r ^= hi << e
            return r
        prod = _vmul(self.unpack(a), self.unpack(b), self.p)
        return self.pack(_vmod_sparse(prod, self._tail, self.k, self.p))

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        log = self._log
        if log is not None:
            return self._exp[self.group_order - log[a]]
        if self.p == 2:
            # binary extended Euclid on bit vectors, a * g1 = u and
            # a * g2 = v modulo the modulus throughout
            u, v, g1, g2 = a, self._bits, 1, 0
            while u != 1:
                if u == 0:
                    raise ConsistencyError("modulus not irreducible")
                j = u.bit_length() - v.bit_length()
                if j < 0:
                    u, v, g1, g2, j = v, u, g2, g1, -j
                u ^= v << j
                g1 ^= g2 << j
            return g1
        # extended Euclid in F_p[X]
        p = self.p
        r0, r1 = self.modulus, self.unpack(a)
        s0, s1 = (), (1,)
        while r1:
            q, r = _vdivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _vsub(s0, _vmul(q, s1, p), p)
        if len(r0) != 1:
            raise ConsistencyError("modulus not irreducible")
        return self.pack(_vscale(s0, pow(r0[0], p - 2, p), p))

    def pow_i(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_i(self.inv_i(a), -e)
        if a == 0:
            return 0 if e else 1
        log = self._log
        if log is not None:
            return self._exp[log[a] * e % self.group_order]
        result = 1
        while e:
            if e & 1:
                result = self.mul_i(result, a)
            e >>= 1
            if e:
                a = self.mul_i(a, a)
        return result

    def frob_i(self, a: int, e: int = 1) -> int:
        """a^(p^e); reduces e mod k first."""
        e %= self.k
        if e == 0 or a == 0:
            return a
        if self._log is not None:
            return self.pow_i(a, self._ppows[e])
        vec = np.array(self.digits(a), dtype=np.int64)
        return self.pack(vec @ self.frob_matrix(e) % self.p)

    def frob_matrix(self, e: int) -> np.ndarray:
        """k x k matrix over F_p with vec(x) @ M = vec(x^(p^e))."""
        e %= self.k
        mat = self._frob_mats.get(e)
        if mat is None:
            omega = self.pow_i(self.p if self.k > 1 else 1, self.p**e)  # X^(p^e)
            mat = _power_rows(self.modulus, self.p, self.digits(omega))
            self._frob_mats[e] = mat
        return mat

    def mul_matrix(self, m: int) -> np.ndarray:
        """k x k matrix over F_p with vec(x) @ M = vec(m * x)."""
        return _mul_rows(self.modulus, self.p, self.unpack(m))

    # -- arrays of packed elements ---------------------------------------------

    def add_v(self, a, b) -> np.ndarray:
        """a + b elementwise on arrays of packed elements (a Python int
        broadcasts), as an array of the field's packed dtype."""
        shape, (a, b) = self._operands(a, b)
        if a.dtype == object:
            out = np.frompyfunc(self.add_i, 2, 1)(a, b)
        elif self.p == 2:
            out = a ^ b
        else:
            out = self._packed((self._rows(a) + self._rows(b)) % self.p)
        return out.reshape(shape)

    def mul_v(self, a, b) -> np.ndarray:
        """a * b elementwise on arrays of packed elements (a Python int
        broadcasts), as an array of the field's packed dtype."""
        shape, (a, b) = self._operands(a, b)
        if a.dtype == object:
            out = np.frompyfunc(self.mul_i, 2, 1)(a, b)
        elif self._log is not None:
            log, exp = np.frombuffer(self._log, np.int32), np.frombuffer(self._exp, np.int32)
            # a zero lane's log is -1, and its gather is overwritten
            out = np.where((a == 0) | (b == 0), 0, exp[log[a] + log[b]]).astype(np.int64)
        else:
            out = self._packed(self._rmul(self._rows(a), self._rows(b)))
        return out.reshape(shape)

    def pow_v(self, a, e: int) -> np.ndarray:
        """a^e elementwise for an exponent e >= 0 (0^0 = 1), as an array of
        the field's packed dtype.

        Past the tables the exponent is read in base p, top digit first:
        r -> r^p (Frobenius) times a^d, with a^d a product of the squares
        a^(2^j) for the bits of the digit d.  In characteristic 2 that is
        square-and-multiply with the squaring done as a Frobenius."""
        if e < 0:
            raise ValueError("pow_v needs an exponent e >= 0")
        shape, (a,) = self._operands(a)
        if a.dtype == object:
            return np.frompyfunc(self.pow_i, 2, 1)(a, e).reshape(shape)
        if self._log is not None:
            log, exp = np.frombuffer(self._log, np.int32), np.frombuffer(self._exp, np.int32)
            n = self.group_order
            powered = exp[log[a].astype(np.int64) * (e % n) % n]
            return np.where(a == 0, 0 if e else 1, powered).astype(np.int64).reshape(shape)
        digits = self.unpack(e)     # the base-p digits of e, low first
        squares = [self._rows(a)]   # a^(2^j) for the bits of a base-p digit
        for _ in range(max(digits, default=0).bit_length() - 1):
            squares.append(self._rmul(squares[-1], squares[-1]))
        r = None
        for d in reversed(digits):
            if r is not None:
                r = self._rfrob(r)
            for j in range(d.bit_length()):
                if d >> j & 1:
                    r = squares[j] if r is None else self._rmul(r, squares[j])
        if r is None:               # e = 0
            return np.ones(shape, dtype=np.int64)
        return self._packed(r).reshape(shape)

    def _operands(self, *values):
        """The operands broadcast to one shape, and flattened: int64 arrays of
        packed elements when every element and every sum of 2k - 1 digit
        products fits in int64, otherwise object arrays of Python ints (a
        lift field), which the batched operations hand to the scalar ones."""
        arrays = np.broadcast_arrays(*(np.asarray(v, dtype=self._vdtype) for v in values))
        return arrays[0].shape, [x.reshape(-1) for x in arrays]

    def pack_rows(self, rows) -> np.ndarray:
        """The packed elements of an array of digit rows (last axis k)."""
        return rows @ np.array(self._ppows[:self.k], dtype=self._vdtype)

    # Past the tables the batched operations work on one form per shape: in
    # characteristic 2 the packed bit vectors as uint64 (k <= 63); in odd
    # characteristic a k x N array of digits, row i the coefficients of X^i,
    # in the narrowest integer type that holds a sum of 2k - 1 digit products.

    def _rows(self, a):
        if self.p == 2:
            return a.astype(np.uint64)
        return (a // self._pw[:, None] % self.p).astype(self._ddtype)

    def _packed(self, x) -> np.ndarray:
        if self.p == 2:
            return x.astype(np.int64)
        return self._pw @ x

    def _rmul(self, x, y):
        if self.p == 2:
            # carry-less product: XOR x << i over the set bits i of y, one
            # row per i, as a (lo, hi) pair of words once it passes 64 bits
            k, top = self.k, 2 * self.k - 2
            shifts = np.arange(k, dtype=np.uint64)[:, None]
            bits = (y >> shifts) & np.uint64(1)
            lo = np.bitwise_xor.reduce((x << shifts) * bits, axis=0)
            hi = None
            if top >= 64:
                hi = np.bitwise_xor.reduce((x >> (np.uint64(64) - shifts[1:])) * bits[1:],
                                           axis=0)
            return self._fold(lo, hi, top)
        # the product's 2k - 1 digits, then one reduction matrix mod p
        p, k = self.p, self.k
        prod = np.zeros((2 * k - 1,) + x.shape[1:], dtype=self._ddtype)
        for j in range(k):
            prod[j:j + k] += x[j] * y
        return self._reduction @ (prod % p) % p

    def _rfrob(self, x):
        """x^p."""
        if self.p == 2:
            # squaring spreads the bits apart: each byte becomes 16 bits
            words = _SPREAD[x.astype("<u8").view(np.uint8)].view("<u8").reshape(-1, 2)
            top = 2 * self.k - 2
            return self._fold(words[:, 0].copy(), words[:, 1] if top >= 64 else None, top)
        return self.frob_matrix(1).T.astype(self._ddtype) @ x % self.p

    def _fold(self, lo, hi, deg):
        """lo + hi 2^64, of degree at most deg, reduced by the modulus
        X^k + tail (p = 2): the bits from X^k up are XORed back in at each
        tail exponent until the degree is below k."""
        k = self.k
        tail = [e for e, _ in self._tail]
        while deg >= k:
            top = lo >> np.uint64(k)
            if deg >= 64:
                top |= hi << np.uint64(64 - k)
            deg += (tail[-1] if tail else 0) - k
            lo = lo & np.uint64((1 << k) - 1)
            hi = np.zeros_like(lo) if deg >= 64 else None
            for e in tail:
                lo ^= top << np.uint64(e) if e else top
                if hi is not None and e:
                    hi ^= top >> np.uint64(64 - e)
        return lo

    @property
    def _reduction(self) -> np.ndarray:
        """k x (2k - 1) matrix over F_p whose column i is vec(X^i mod modulus)."""
        if self._reduce is None:
            p, k = self.p, self.k
            xk = [-c % p for c in self.modulus[:-1]]              # X^k
            self._reduce = np.vstack([np.eye(k, dtype=np.int64),
                                      _mul_rows(self.modulus, p, xk)[:k - 1]]
                                     ).T.astype(self._ddtype)
        return self._reduce

    # -- element constructors -------------------------------------------------

    def elem(self, v) -> FieldElement:
        """The element v of this field: a FieldElement of this field (another
        field's raises ValueError), an int (a packed value when in
        [0, order), otherwise reduced mod p), or a digit sequence."""
        if isinstance(v, FieldElement):
            if v.field is not self:
                raise ValueError("element of a different field")
            return v
        if isinstance(v, int):
            if 0 <= v < self.order:
                return FieldElement(self, v)
            return FieldElement(self, v % self.p)
        return FieldElement(self, self.pack([c % self.p for c in v]))

    def random_element(self, rng) -> FieldElement:
        return FieldElement(self, rng.randrange(self.order))

    # -- multiplicative structure ----------------------------------------------

    def _group_order_factors(self):
        if self._go_fac is None:
            self._go_fac = factorize(self.group_order)
        return self._go_fac

    def is_primitive_i(self, a: int) -> bool:
        if a == 0:
            return False
        n = self.group_order
        return all(self.pow_i(a, n // ell) != 1 for ell in self._group_order_factors())

    @property
    def generator(self) -> FieldElement:
        """The least primitive element (packed-integer order)."""
        if self._gen is None:
            for v in range(1, self.order):
                if self.is_primitive_i(v):
                    self._gen = v
                    break
            else:
                raise ConsistencyError("no primitive element found")
        return FieldElement(self, self._gen)

    def mult_order_i(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        n = self.group_order
        for ell, e in self._group_order_factors().items():
            for _ in range(e):
                if self.pow_i(a, n // ell) == 1:
                    n //= ell
                else:
                    break
        return n

    def ensure_tables(self) -> bool:
        """Build the exp, log and Zech tables; idempotent, and always True
        once built.  build_field calls it at construction for a field within
        EAGER_TABLE_CAP; other fields build on the first call.

        A field above TABLE_CAP raises CapError (check_table_cap).  x -> x * g^m
        is F_p-linear, so exp[m:2m] = exp[:m] * g^m doubles the powers of g in
        log2(n) numpy steps.  The logs must cover every nonzero element and
        g * exp[n - 1] must be 1; a g that is not primitive fails.  Adding 1
        to a packed value steps its lowest base-p digit mod p, which gives
        zech[m] = log(1 + g^m), -1 where 1 + g^m = 0 (m = 0 for p = 2, m = n/2
        for odd p).  Stored as read-only int32 memoryviews, exp doubled so
        that exp[la + lb] needs no reduction.
        """
        if self._log is not None:
            return True
        check_table_cap(self.order)
        p, k, n, g = self.p, self.k, self.group_order, self.generator.value
        # a digit row times mul_matrix sums k products below p^2
        dt = np.int32 if k * (p - 1) ** 2 < 2**31 else np.int64
        pw = np.array(self._ppows[:k], dtype=dt)
        exp = np.ones(n, dtype=np.int32)
        m, step = 1, g                               # step = g^m
        while m < n:
            head = exp[:min(m, n - m)]
            mat = self.mul_matrix(step).astype(dt)
            exp[m:2 * m] = (head[:, None] // pw % p @ mat % p) @ pw
            m, step = m + head.size, self.mul_i(step, step)
        log = np.full(self.order, -1, dtype=np.int32)
        log[exp] = np.arange(n, dtype=np.int32)
        if (log[1:] < 0).any() or self.mul_i(int(exp[-1]), g) != 1:
            raise ConsistencyError("generator order mismatch while building tables")
        one_plus = exp + 1
        one_plus[exp % p == p - 1] -= p
        # int32 memoryviews over bytes: compact, indexed as Python ints, and
        # read-only, as are the numpy views _np_tables makes of them
        self._zech = memoryview(log[one_plus].tobytes()).cast("i")
        self._exp = memoryview(exp.tobytes() * 2).cast("i")
        self._log = memoryview(log.tobytes()).cast("i")   # last: it marks the tables built
        return True

    # -- misc -------------------------------------------------------------------

    def descriptor(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    def __hash__(self):
        return hash((self.p, self.k))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ExtField) and (self.p, self.k) == (other.p, other.k)
        )


class FieldElement:
    """An element of an ExtField; immutable, hashable, totally ordered."""

    __slots__ = ("field", "value")

    def __init__(self, field: ExtField, value: int):
        self.field = field
        self.value = value

    def coeffs(self) -> tuple[int, ...]:
        return self.field.digits(self.value)

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("mixed-field arithmetic")
            return other.value
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            return FieldElement(self.field, self.field.add_i(self.value, other.value))
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_i(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_i(self.value, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_i(v, self.value))

    def __mul__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            return FieldElement(self.field, self.field.mul_i(self.value, other.value))
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_i(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_i(self.value, self.field.inv_i(v)))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_i(v, self.field.inv_i(self.value)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_i(self.value))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_i(self.value, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv_i(self.value))

    def frobenius(self, e: int = 1):
        """Image under the p-power Frobenius applied e times."""
        return FieldElement(self.field, self.field.frob_i(self.value, e))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.value == other.value
        return NotImplemented

    def __bool__(self):
        return self.value != 0

    def __lt__(self, other):
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise TypeError("can only compare elements of the same field")
        return self.value < other.value

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.value))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.field!r}:{list(self.coeffs())}"


def check_elem_cap(p: int, k: int, cap: int = DEFAULT_ELEM_CAP) -> None:
    """Raise CapError if F_{p^k} has more than `cap` elements."""
    if p**k > cap:
        raise CapError(f"field size {p}^{k} exceeds cap {cap}")


def check_table_cap(order: int) -> None:
    """Raise CapError unless a field of `order` elements is within TABLE_CAP,
    the size up to which its discrete-log tables are built."""
    if order > TABLE_CAP:
        raise CapError(
            f"the {order}-element field exceeds the "
            f"2^{TABLE_CAP.bit_length() - 1} discrete-log table cap"
        )


def frobenius_kernel(field: ExtField, e: int, coeffs, dim: int) -> np.ndarray:
    """The F_p-basis, as int64 digit rows, of {x : sum_i coeffs[i] x^(p^(e i))
    = 0} in field, for integer coeffs: the left kernel of
    sum_i coeffs[i] frob_matrix(e i) by _rref, ConsistencyError unless it
    has dimension dim over F_p."""
    mat = sum((c * field.frob_matrix(e * i) for i, c in enumerate(coeffs) if i),
              coeffs[0] * np.eye(field.k, dtype=np.int64))
    t, pivots = _rref(mat % field.p, field.p)
    if len(t) - len(pivots) != dim:
        raise ConsistencyError(f"the kernel of {list(coeffs)} in Frob^{e} has dimension "
                               f"{len(t) - len(pivots)} in {field!r}, expected {dim}")
    return t[len(pivots):].astype(np.int64)


def _np_tables(L: ExtField):
    """(log, zech) of L as read-only int32 arrays over its stored tables,
    with -1 standing for the zero element.

    log[v] is the discrete log of the packed value v, and zech[m] =
    log(1 + g^m) is the Zech logarithm (ExtField.ensure_tables).
    """
    L.ensure_tables()
    return np.frombuffer(L._log, dtype=np.int32), np.frombuffer(L._zech, dtype=np.int32)


_FIELD_CACHE: dict[tuple[int, int], ExtField] = {}


def build_field(p: int, k: int, *, cap: int | None = DEFAULT_ELEM_CAP) -> ExtField:
    """Return F_{p^k} with the lexicographically least irreducible modulus.

    Instances are cached per (p, k).  `cap` bounds p^k, also for a field
    already in the cache; pass None to lift it (the quotient machinery needs
    large Frobenius-lift fields).  A field with at most EAGER_TABLE_CAP
    elements is built with its discrete-log tables.
    """
    if cap is not None:
        check_elem_cap(p, k, cap)
    key = (p, k)
    field = _FIELD_CACHE.get(key)
    if field is not None:
        return field
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    field = ExtField(p, k, _lex_least_irreducible(p, k))
    if field.order <= EAGER_TABLE_CAP:
        field.ensure_tables()
    _FIELD_CACHE[key] = field
    return field


def mult_order(x: FieldElement) -> int:
    """Least n >= 1 with x^n = 1; divides p^k - 1."""
    return x.field.mult_order_i(x.value)


def find_root_of_unity(field: ExtField, n: int) -> FieldElement:
    """Element of exact multiplicative order n (deterministic choice).

    Raises ValueError if n does not divide p^k - 1.  The result is the least
    primitive element raised to the power (p^k - 1)/n, which has exact order
    n, verified before returning.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if field.group_order % n:
        raise ValueError(f"{n} does not divide |F*| = {field.group_order}")
    x = field.generator ** (field.group_order // n)
    for ell in factorize(n) if n > 1 else {}:
        if (x ** (n // ell)).value == 1:
            raise ConsistencyError("root of unity has wrong order")
    if (x**n).value != 1:
        raise ConsistencyError("root of unity has wrong order")
    return x


# ---------------------------------------------------------------------------
# univariate polynomials over an ExtField
# ---------------------------------------------------------------------------

class FPoly:
    """Univariate polynomial over an ExtField, coefficients packed, low first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtField, coeffs):
        vals = [field.elem(c).value for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self.field = field
        self.coeffs = tuple(vals)

    @classmethod
    def _raw(cls, field, vals: list[int]):
        obj = object.__new__(cls)
        while vals and vals[-1] == 0:
            vals.pop()
        obj.field = field
        obj.coeffs = tuple(vals)
        return obj

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, FPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def _field_with(self, other: FPoly) -> ExtField:
        if other.field is not self.field:
            raise ValueError("mixed-field arithmetic")
        return self.field

    def __add__(self, other):
        F = self._field_with(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add_i(out[i], c)
        return FPoly._raw(F, out)

    def __sub__(self, other):
        F = self._field_with(other)
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] = F.sub_i(out[i], c)
        return FPoly._raw(F, out)

    def __mul__(self, other):
        F = self._field_with(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FPoly._raw(F, [])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = F.add_i(out[i + j], F.mul_i(x, y))
        return FPoly._raw(F, out)

    def scale(self, c: int):
        F = self.field
        return FPoly._raw(F, [F.mul_i(x, c) for x in self.coeffs])

    def divmod(self, other: FPoly):
        F = self._field_with(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        if len(a) - 1 < db:
            return FPoly._raw(F, []), FPoly._raw(F, a)
        inv_lead = F.inv_i(b[-1])
        quot = [0] * (len(a) - db)
        for i in range(len(a) - db - 1, -1, -1):
            c = a[i + db]
            if c:
                c = F.mul_i(c, inv_lead)
                quot[i] = c
                for j, bj in enumerate(b):
                    if bj:
                        a[i + j] = F.sub_i(a[i + j], F.mul_i(c, bj))
        return FPoly._raw(F, quot), FPoly._raw(F, a[:db])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv_i(self.coeffs[-1]))

    def gcd(self, other: FPoly) -> FPoly:
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def powmod(self, e: int, mod: FPoly) -> FPoly:
        result = FPoly._raw(self.field, [1])
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            e >>= 1
            if e:
                base = (base * base) % mod
        return result

    def eval_i(self, x: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add_i(F.mul_i(acc, x), c)
        return acc

    def derivative(self) -> FPoly:
        F = self.field
        p = F.p
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            m = i % p
            out.append(F.mul_i(c, m) if m else 0)
        return FPoly._raw(F, out)

    def __repr__(self):
        return f"FPoly({self.field!r}, {list(self.coeffs)})"


def _split_roots(g: FPoly, rng: random.Random, _depth: int = 0) -> list[int]:
    """Roots of a monic squarefree product of distinct linear factors.

    The equal-degree splitting shifts are drawn from rng over the whole
    field; the roots come back in no particular order.
    """
    F = g.field
    d = g.degree()
    if d <= 0:
        return []
    if d == 1:
        return [F.mul_i(F.neg_i(g.coeffs[0]), F.inv_i(g.coeffs[1]))]
    if _depth > 200:
        raise ConsistencyError("equal-degree splitting failed to converge")
    r = rng.randrange(F.order)
    if F.p == 2:
        # trace map over F_2: sum of (rX)^(2^i)
        rx = FPoly._raw(F, [0, r or 1])
        acc = rx % g
        term = acc
        for _ in range(F.k - 1):
            term = (term * term) % g
            acc = acc + term
        h = acc
    else:
        h = FPoly._raw(F, [r, 1]).powmod((F.order - 1) // 2, g) - FPoly._raw(F, [1])
    d1 = g.gcd(h)
    if 0 < d1.degree() < g.degree():
        return (_split_roots(d1, rng, _depth + 1)
                + _split_roots((g // d1).monic(), rng, _depth + 1))
    return _split_roots(g, rng, _depth + 1)


def poly_roots(f: FPoly) -> list[tuple[FieldElement, int]]:
    """All roots of f in its field, as (root, multiplicity), sorted by root.

    Method: g = gcd(f, X^|F| - X) isolates the distinct roots, seeded
    equal-degree splitting separates them, and multiplicities are read off
    by repeated division.  No package path calls it: the tests compare
    every frobenius_kernel root with it.
    """
    F = f.field
    if f.is_zero():
        raise ValueError("zero polynomial")
    x = FPoly._raw(F, [0, 1])
    g = f.gcd(x.powmod(F.order, f) - x)
    roots = sorted(_split_roots(g, random.Random(F.order)))
    out = []
    for r in roots:
        lin = FPoly._raw(F, [F.neg_i(r), 1])
        mult = 0
        h = f
        while True:
            q, rem = h.divmod(lin)
            if not rem.is_zero():
                break
            mult += 1
            h = q
        out.append((FieldElement(F, r), mult))
    return out


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

class Embedding:
    """The canonical embedding F_{p^a} -> F_{p^b} for a | b.

    The image of F_{p^a} is Fix(Frob^a), the kernel of Frob^a - 1
    (frobenius_kernel).  The source generator class X maps to the
    least (packed) root of the source modulus in that kernel: the least
    conjugate r^(p^i) of the first root r found there.  The scan evaluates
    the modulus by batched Horner over its nonzero terms (pow_v, mul_v) on
    blocks of kernel vectors: all p^a at once when that is at most
    EMBED_BLOCK, otherwise blocks of about sqrt(p^a), at most EMBED_BLOCK.
    The map is then
    F_p-linear: vec(v) @ E, row i of E the vector of gen_image^i.  From a
    source within EAGER_TABLE_CAP, apply_i and preimage read a list of all
    images (one product of every digit row with E) and its inverse dict;
    from a larger source, apply_i multiplies by E and preimage applies a
    left inverse of E with an exact check.  A ring homomorphism preserving
    multiplicative orders.  F -> F is the identity by the same construction:
    X (packed p, 0 if k = 1) is the least root of F's own modulus.
    """

    def __init__(self, source: ExtField, target: ExtField):
        if source.p != target.p or target.k % source.k:
            raise ValueError("no embedding: need same p and source degree | target degree")
        self.source = source
        self.target = target
        self._images = None
        p, a, k = target.p, source.k, target.k
        kernel = frobenius_kernel(target, a, (-1, 1), a)
        # the nonzero terms below the leading X^a, highest first
        terms = [(e, c) for e, c in enumerate(source.modulus[:-1]) if c][::-1]

        def modulus_at(x):
            # the source modulus at packed target elements, by batched Horner
            # over its nonzero terms: acc -> acc x^(gap) + c, the power x^(gap)
            # by pow_v, which squares by Frobenius
            acc, top = None, a
            for e, c in terms + [(0, 0)]:
                if top > e:
                    step = target.pow_v(x, top - e)
                    acc = step if acc is None else target.mul_v(acc, step)
                if c:
                    acc = target.add_v(acc, c)
                top = e
            return acc

        # the kernel vectors in itertools.product order over their a
        # coordinates, in blocks of at most EMBED_BLOCK: each prefix of the
        # first a - h coordinates with all p^h tails, h = a for a small
        # kernel and about a / 2 otherwise, so an early root ends the scan
        # after a block of about sqrt(p^a) vectors
        h = a if p**a <= EMBED_BLOCK else (a + 1) // 2
        while p**h > EMBED_BLOCK:
            h -= 1
        tails = (np.arange(p**h, dtype=np.int64)[:, None] // p ** np.arange(h - 1, -1, -1) % p
                 @ kernel[a - h:])
        r = None
        for prefix in itertools.product(range(p), repeat=a - h):
            block = target.pack_rows((np.array(prefix, dtype=np.int64) @ kernel[:a - h]
                                       + tails) % p)
            hits = np.flatnonzero(modulus_at(block) == 0)
            if hits.size:
                r = int(block[hits[0]])
                break
        mod_poly = FPoly._raw(target, list(source.modulus))
        conjugates = []                 # r^(p^i), i < a
        for _ in range(a if r is not None else 0):
            conjugates.append(r)
            r = target.pow_i(r, p)
        roots = sorted(v for v in set(conjugates) if mod_poly.eval_i(v) == 0)
        if len(roots) != a:
            raise ConsistencyError(
                f"source modulus has {len(roots)} roots in Fix(Frob^{a}), expected {a}")
        self.gen_image = FieldElement(target, roots[0])
        rows, g = [], 1
        for _ in range(a):
            rows.append(target.digits(g))
            g = target.mul_i(g, roots[0])
        self._matrix = np.array(rows, dtype=np.int64)
        if source.order > EAGER_TABLE_CAP:
            t, pivots = _rref(self._matrix, p)
            self._left_inverse = np.zeros((k, a), dtype=np.int64)
            self._left_inverse[pivots] = t
            return
        # the digit rows of every source element times E, packed (as Python
        # ints when the target is past int64)
        pw = np.array(source._ppows[:a], dtype=np.int64)
        digits = np.arange(source.order, dtype=np.int64)[:, None] // pw % p
        self._images = target.pack_rows(digits @ self._matrix % p).tolist()
        self._preimages = {y: x for x, y in enumerate(self._images)}
        if len(self._preimages) != source.order:
            raise ConsistencyError(f"the embedding of {source!r} is not injective")

    def apply_i(self, v: int) -> int:
        if self._images is not None:
            return self._images[v]
        vec = np.array(self.source.digits(v), dtype=np.int64)
        return self.target.pack(vec @ self._matrix % self.target.p)

    def lift_i(self, field: ExtField, values) -> list[int]:
        """The images of packed values of `field`; ValueError unless it is the source."""
        if field is not self.source:
            raise ValueError("embedding source differs from the field of the values")
        return [self.apply_i(v) for v in values]

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field is not self.source:
            raise ValueError("element not in the source field")
        return FieldElement(self.target, self.apply_i(x.value))

    def preimage(self, y: FieldElement) -> FieldElement:
        """Inverse image; raises ValueError if y is not in the embedded copy."""
        if y.field is not self.target:
            raise ValueError("element not in the target field")
        if self._images is not None:
            x = self._preimages.get(y.value)
            if x is None:
                raise ValueError("element is not in the embedded subfield")
            return FieldElement(self.source, x)
        p = self.target.p
        vec = np.array(y.coeffs(), dtype=np.int64)
        x = vec @ self._left_inverse % p
        if not np.array_equal(x @ self._matrix % p, vec):
            raise ValueError("element is not in the embedded subfield")
        return FieldElement(self.source, self.source.pack(x))

    def descend_i(self, values, what: str) -> list[int]:
        """The packed preimages of packed target values, each by preimage.
        Raises ConsistencyError naming `what` if one is not in the embedded
        subfield."""
        try:
            return [self.preimage(FieldElement(self.target, v)).value for v in values]
        except ValueError:
            raise ConsistencyError(
                f"{what} does not descend to F_{self.source.order}") from None


@lru_cache(maxsize=None)
def embed(source: ExtField, target: ExtField) -> Embedding:
    """The Embedding source -> target, one per (p, source.k, target.k): an
    ExtField hashes and compares by (p, k)."""
    return Embedding(source, target)

