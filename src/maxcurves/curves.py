"""Sparse homogeneous plane models and projective coordinate changes.

Polynomials are sparse {(i, j, k): packed coefficient} maps.  The
constructors' forms have at most six monomials, but a coordinate change
fills a form in: quotient_model_rational(32) has 505.  Coordinate changes
(compose_linear) move between the singular envelope model, the smooth
cyclic model and the Hermitian curve, and express the degree-3 quotient
curve over F_q; local data at a point comes from HomPoly3.hasse.

Each model constructor builds over the one field that sqrt_q fixes: F_q,
or F_{s^3} for the frame and smooth cyclic models.  To lift a model, use
poly.map_coefficients(embed(model.field, L)); apply_coord_change lifts a
model to the field of its matrix.

The one frame in which the cyclic automorphism of the Hermitian curve is
diagonal, the Singer frame kappa, is built here (singer_frame) from the
frame parameter a; every construction that works in that frame reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._intfactor import check_divisor, split_prime_power
from .errors import ConsistencyError
from .fields import (
    Embedding,
    ExtField,
    FieldElement,
    FPoly,
    TABLE_CAP,
    build_field,
    check_elem_cap,
    embed,
    find_root_of_unity,
    poly_roots,
)


class HomPoly3:
    """Homogeneous trivariate polynomial with sparse integer-packed coefficients."""

    __slots__ = ("field", "terms", "degree")

    def __init__(self, field: ExtField, terms: dict[tuple[int, int, int], int]):
        clean = {e: c for e, c in terms.items() if c}
        degs = {sum(e) for e in clean}
        if len(degs) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degs)}")
        self.field = field
        self.terms = clean
        self.degree = degs.pop() if degs else 0

    @classmethod
    def from_int_coeffs(cls, field: ExtField, terms: dict[tuple[int, int, int], int]):
        """Coefficients given as plain integers, reduced into the prime field,
        whose packed values are 0 .. p - 1."""
        return cls(field, {e: c % field.p for e, c in terms.items()})

    # -- evaluation -----------------------------------------------------------

    def eval_i(self, x: int, y: int, z: int) -> int:
        F = self.field
        acc = 0
        for (i, j, k), c in self.terms.items():
            if (i and not x) or (j and not y) or (k and not z):
                continue
            t = c
            if i:
                t = F.mul_i(t, F.pow_i(x, i))
            if j:
                t = F.mul_i(t, F.pow_i(y, j))
            if k:
                t = F.mul_i(t, F.pow_i(z, k))
            acc = F.add_i(acc, t)
        return acc

    # -- calculus and symmetry --------------------------------------------------

    def hasse(self, axis: int, order: int) -> HomPoly3:
        """The order-th Hasse derivative along axis: each monomial X^e goes to
        C(e[axis], order) X^(e - order e_axis), the binomial taken mod p.
        hasse(axis, 1) is the partial derivative, and by the Hasse-Taylor
        expansion the coefficient of u^a v^b in f(P + u e_i + v e_j) is
        f.hasse(i, a).hasse(j, b) at P, in every characteristic."""
        F = self.field
        out: dict[tuple[int, int, int], int] = {}
        for e, c in self.terms.items():
            b = math.comb(e[axis], order) % F.p
            if b:
                new = list(e)
                new[axis] -= order
                out[tuple(new)] = F.mul_i(c, b)
        return HomPoly3(F, out)

    def scale(self, c) -> HomPoly3:
        cv = self.field.elem(c).value
        F = self.field
        return HomPoly3(F, {e: F.mul_i(cv, v) for e, v in self.terms.items()})

    def map_coefficients(self, emb: Embedding) -> HomPoly3:
        if emb.source is not self.field:
            raise ValueError("embedding source differs from polynomial field")
        return HomPoly3(emb.target, {e: emb.apply_i(c) for e, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, HomPoly3)
            and self.field is other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, tuple(sorted(self.terms.items()))))

    def proportional_to(self, other: HomPoly3) -> FieldElement | None:
        """The scalar c with self = c * other, or None."""
        if self.field is not other.field or set(self.terms) != set(other.terms):
            return None
        F = self.field
        ratio = None
        for e, c in self.terms.items():
            r = F.mul_i(c, F.inv_i(other.terms[e]))
            if ratio is None:
                ratio = r
            elif ratio != r:
                return None
        return FieldElement(F, ratio) if ratio is not None else None

    def _mul(self, other: HomPoly3) -> HomPoly3:
        F = self.field
        out: dict[tuple[int, int, int], int] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                v = F.mul_i(c1, c2)
                prev = out.get(key)
                out[key] = v if prev is None else F.add_i(prev, v)
        return HomPoly3(F, out)

    def _pow(self, e: int) -> HomPoly3:
        """self^e as the product over the base-p digits d_t of e of
        (self^(p^t))^(d_t).  The p-th power is additive in characteristic
        p, so self^(p^t) raises each coefficient and each monomial to the
        p^t; for a linear form and e = sqrt_q + 1 that is two linear factors.
        """
        F = self.field
        p = F.p
        result = HomPoly3(F, {(0, 0, 0): 1})
        t = 0
        while e:
            e, digit = divmod(e, p)
            if digit:
                pt = p**t
                frob = HomPoly3(F, {
                    (i * pt, j * pt, k * pt): F.frob_i(c, t)
                    for (i, j, k), c in self.terms.items()
                })
                for _ in range(digit):
                    result = result._mul(frob)
            t += 1
        return result

    def compose_linear(self, mat: ProjMatrix) -> HomPoly3:
        """P(M x): substitute the linear forms given by the rows of M."""
        if mat.field is not self.field:
            raise ValueError("matrix over a different field")
        forms = [
            HomPoly3(self.field, {(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]})
            for r in mat.rows
        ]
        pow_cache: list[dict[int, HomPoly3]] = [{}, {}, {}]

        def form_pow(axis, e):
            got = pow_cache[axis].get(e)
            if got is None:
                got = forms[axis]._pow(e)
                pow_cache[axis][e] = got
            return got

        total: dict[tuple[int, int, int], int] = {}
        F = self.field
        for (i, j, k), c in self.terms.items():
            term = HomPoly3(F, {(0, 0, 0): c})
            for axis, e in ((0, i), (1, j), (2, k)):
                if e:
                    term = term._mul(form_pow(axis, e))
            for e2, v in term.terms.items():
                prev = total.get(e2)
                total[e2] = v if prev is None else F.add_i(prev, v)
        return HomPoly3(F, total)

    def serialize(self) -> dict:
        return {
            "field": self.field.descriptor(),
            "degree": self.degree,
            "terms": sorted([list(e) + [c] for e, c in self.terms.items()]),
        }

    def __repr__(self):
        return f"HomPoly3({self.field!r}, deg {self.degree}, {len(self.terms)} terms)"


class ProjMatrix:
    """Invertible 3x3 matrix over an ExtField (rows of packed values)."""

    __slots__ = ("field", "rows")

    def __init__(self, field: ExtField, rows, *, check: bool = True):
        packed = tuple(tuple(field.elem(c).value for c in r) for r in rows)
        if len(packed) != 3 or any(len(r) != 3 for r in packed):
            raise ValueError("expected a 3x3 matrix")
        self.field = field
        self.rows = packed
        if check and self.det().value == 0:
            raise ValueError("matrix is singular")

    def det(self) -> FieldElement:
        F = self.field
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        m = F.mul_i
        s = F.sub_i
        val = s(
            s(
                F.add_i(
                    F.add_i(m(a, m(e, i)), m(b, m(f, g))),
                    m(c, m(d, h)),
                ),
                F.add_i(m(c, m(e, g)), m(b, m(d, i))),
            ),
            m(a, m(f, h)),
        )
        return FieldElement(F, val)

    def inverse(self) -> ProjMatrix:
        F = self.field
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        m, s = F.mul_i, F.sub_i
        cof = [
            [s(m(e, i), m(f, h)), s(m(c, h), m(b, i)), s(m(b, f), m(c, e))],
            [s(m(f, g), m(d, i)), s(m(a, i), m(c, g)), s(m(c, d), m(a, f))],
            [s(m(d, h), m(e, g)), s(m(b, g), m(a, h)), s(m(a, e), m(b, d))],
        ]
        dinv = F.inv_i(self.det().value)
        return ProjMatrix(
            self.field, [[m(x, dinv) for x in row] for row in cof], check=False
        )

    def __matmul__(self, other):
        if isinstance(other, ProjMatrix):
            if other.field is not self.field:
                raise ValueError("mixed-field matrices")
            F = self.field
            rows = [
                [
                    F.add_i(
                        F.add_i(F.mul_i(self.rows[r][0], other.rows[0][c]),
                                F.mul_i(self.rows[r][1], other.rows[1][c])),
                        F.mul_i(self.rows[r][2], other.rows[2][c]),
                    )
                    for c in range(3)
                ]
                for r in range(3)
            ]
            return ProjMatrix(self.field, rows, check=False)
        return NotImplemented

    def apply_i(self, pt: tuple[int, int, int]) -> tuple[int, int, int]:
        F = self.field
        return tuple(
            F.add_i(
                F.add_i(F.mul_i(r[0], pt[0]), F.mul_i(r[1], pt[1])),
                F.mul_i(r[2], pt[2]),
            )
            for r in self.rows
        )

    def pow(self, e: int) -> ProjMatrix:
        result = ProjMatrix(self.field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], check=False)
        base = self
        while e:
            if e & 1:
                result = result @ base
            e >>= 1
            if e:
                base = base @ base
        return result

    def scale(self, c) -> ProjMatrix:
        cv = self.field.elem(c).value
        F = self.field
        return ProjMatrix(
            self.field, [[F.mul_i(cv, x) for x in r] for r in self.rows], check=False
        )

    def frobenius(self, e: int = 1) -> ProjMatrix:
        F = self.field
        return ProjMatrix(
            self.field, [[F.frob_i(x, e) for x in r] for r in self.rows], check=False
        )

    def is_scalar(self) -> bool:
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        return b == c == d == f == g == h == 0 and a == e == i != 0

    def map_entries(self, emb: Embedding) -> ProjMatrix:
        return ProjMatrix(
            emb.target, [[emb.apply_i(x) for x in r] for r in self.rows], check=False
        )

    def __eq__(self, other):
        return (
            isinstance(other, ProjMatrix)
            and self.field is other.field
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"ProjMatrix({self.field!r}, {self.rows})"


def identity_matrix(field: ExtField) -> ProjMatrix:
    return ProjMatrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], check=False)


@dataclass(frozen=True)
class CurveModel:
    """A plane model: polynomial, identifying tag and bookkeeping metadata."""

    poly: HomPoly3
    name: str
    sqrt_q: int | None = None
    params: tuple = ()
    expected_genus: int | None = None

    @property
    def field(self) -> ExtField:
        return self.poly.field

    @property
    def degree(self) -> int:
        return self.poly.degree

    def tag(self) -> str:
        bits = [self.name]
        if self.sqrt_q is not None:
            bits.append(f"sq{self.sqrt_q}")
        bits.extend(str(p) for p in self.params)
        return "-".join(bits)

    def serialize(self) -> dict:
        return {
            "name": self.name,
            "sqrt_q": self.sqrt_q,
            "params": list(self.params),
            "expected_genus": self.expected_genus,
            "poly": self.poly.serialize(),
        }


# ---------------------------------------------------------------------------
# model constructors
# ---------------------------------------------------------------------------

def hermitian_canonical(sqrt_q: int) -> CurveModel:
    """The Hermitian curve Y^s Z + Y Z^s = X^(s+1) with s = sqrt_q."""
    p, h = split_prime_power(sqrt_q)
    poly = HomPoly3.from_int_coeffs(
        build_field(p, 2 * h),
        {(0, sqrt_q, 1): 1, (0, 1, sqrt_q): 1, (sqrt_q + 1, 0, 0): -1},
    )
    return CurveModel(poly, "hermitian", sqrt_q,
                      expected_genus=sqrt_q * (sqrt_q - 1) // 2)


def fermat_poly(sqrt_q: int, field: ExtField) -> HomPoly3:
    """The bare Fermat form X^(s+1) + Y^(s+1) + Z^(s+1) over any field of the
    right characteristic (its coefficients are prime-field)."""
    s1 = sqrt_q + 1
    return HomPoly3.from_int_coeffs(
        field, {(s1, 0, 0): 1, (0, s1, 0): 1, (0, 0, s1): 1}
    )


def hermitian_fermat(sqrt_q: int) -> CurveModel:
    """The Fermat form X^(s+1) + Y^(s+1) + Z^(s+1), projectively equivalent
    to the canonical Hermitian model over F_q."""
    p, h = split_prime_power(sqrt_q)
    return CurveModel(fermat_poly(sqrt_q, build_field(p, 2 * h)), "hermitian-fermat",
                      sqrt_q, expected_genus=sqrt_q * (sqrt_q - 1) // 2)


def envelope_model(sqrt_q: int) -> CurveModel:
    """The degree 2(s+1) singular plane model with three 2-fold points at the
    fundamental triangle; requires odd characteristic."""
    p, h = split_prime_power(sqrt_q)
    if p == 2:
        raise ValueError("envelope model needs odd characteristic")
    s = sqrt_q
    poly = HomPoly3.from_int_coeffs(build_field(p, 2 * h), {
        (0, 2, 2 * s): 1,
        (2, 2 * s, 0): 1,
        (2 * s, 0, 2): 1,
        (s + 1, s, 1): -2,
        (s, 1, s + 1): -2,
        (1, s + 1, s): -2,
    })
    return CurveModel(poly, "envelope", sqrt_q,
                      expected_genus=sqrt_q * (sqrt_q - 1) // 2)


def cyclic_poly(sqrt_q: int, field: ExtField) -> HomPoly3:
    """The bare rotation-invariant form X0^s X2 + X2^s X1 + X1^s X0."""
    s = sqrt_q
    return HomPoly3.from_int_coeffs(
        field, {(s, 0, 1): 1, (0, 1, s): 1, (1, s, 0): 1}
    )


def smooth_cyclic_model(sqrt_q: int) -> CurveModel:
    """The smooth model X0^s X2 + X2^s X1 + X1^s X0, defined over F_{s^3},
    on which the diagonal action (X0, X1, X2) -> (c X0, c^s X1, X2) acts."""
    p, h = split_prime_power(sqrt_q)
    return CurveModel(cyclic_poly(sqrt_q, build_field(p, 3 * h)), "smooth-cyclic", sqrt_q,
                      expected_genus=sqrt_q * (sqrt_q - 1) // 2)


@lru_cache(maxsize=None)
def frame_parameter(sqrt_q: int) -> FieldElement:
    """The canonical triangle-frame scaling constant a in F_{sqrt_q^3}.

    a is the least root of X^(sqrt_q + 1) + X + 1 with a^2 + a + 1 != 0; it
    lies in F_{sqrt_q^3}, so a^(sqrt_q^3) = a holds by construction.  Every
    return value is checked to satisfy a^(q + sqrt_q + 1) = 1, the two
    vanishing frame sums and the nonvanishing third sum; frame_matrix checks
    the determinant of the frame it spans.  Failure of any of these would
    mean a bug in the tower arithmetic.

    In odd characteristic, F_(sqrt_q^3) within TABLE_CAP builds its tables
    first, so poly_roots multiplies by them; characteristic 2 keeps its
    carry-less path, which is as fast there without the tables' memory.
    """
    p, h = split_prime_power(sqrt_q)
    q = sqrt_q * sqrt_q
    F3 = build_field(p, 3 * h)
    if p != 2 and F3.order <= TABLE_CAP:
        F3.ensure_tables()
    f = FPoly(F3, [1, 1] + [0] * (sqrt_q - 1) + [1])  # X^(sqrt_q+1) + X + 1
    roots = [r for r, _ in poly_roots(f)]
    if len(roots) != sqrt_q + 1:
        raise ConsistencyError(
            f"frame polynomial should have {sqrt_q + 1} distinct roots, got {len(roots)}"
        )
    admissible = [a for a in roots if (a * a + a + 1).value != 0]
    if not admissible:
        raise ConsistencyError("no admissible frame root (a^2+a+1 != 0)")
    a = min(admissible)
    if (a ** (q + sqrt_q + 1)).value != 1:
        raise ConsistencyError("frame root is not a (q+sqrt_q+1)-th root of unity")
    a1, a2, a3 = frame_scalars(a, sqrt_q)
    if a1.value != 0 or a2.value != 0:
        raise ConsistencyError("frame sums a1, a2 do not vanish")
    if a3.value == 0:
        raise ConsistencyError("frame sum a3 vanishes")
    return a


def frame_scalars(a: FieldElement, sqrt_q: int) -> tuple[FieldElement, FieldElement, FieldElement]:
    """The three frame sums attached to a candidate frame constant a.

    a1 = a^(q*sqrt_q + sqrt_q) + a^(q + sqrt_q + 1) + a
    a2 = a^(q*sqrt_q + q + sqrt_q + 1) + a^(sqrt_q + 1) + 1
    a3 = a^(q*sqrt_q + sqrt_q + 1) + a^(q + 1) + a^sqrt_q
    """
    q = sqrt_q * sqrt_q
    a1 = a ** (q * sqrt_q + sqrt_q) + a ** (q + sqrt_q + 1) + a
    a2 = a ** (q * sqrt_q + q + sqrt_q + 1) + a ** (sqrt_q + 1) + 1
    a3 = a ** (q * sqrt_q + sqrt_q + 1) + a ** (q + 1) + a**sqrt_q
    return a1, a2, a3


def frame_matrix(a: FieldElement, sqrt_q: int) -> ProjMatrix:
    """The circulant coordinate-frame matrix with rows
    (a, 1, b), (b, a, 1), (1, b, a) where b = a^(q+1).

    When a is a frame parameter the determinant identity
    (a+1)^3 det = (a^2+a+1)^3 is asserted; a with a^2+a+1 = 0 is rejected
    since the matrix is then singular.
    """
    if a.value == 0:
        raise ValueError("frame constant must be nonzero")
    F = a.field
    q = sqrt_q * sqrt_q
    b = a ** (q + 1)
    mat = ProjMatrix(F, [[a, F.one, b], [b, a, F.one], [F.one, b, a]], check=False)
    det = mat.det()
    if (a * a + a + 1).value == 0:
        if det.value != 0:
            raise ConsistencyError("a^2+a+1 = 0 should force a singular frame")
        raise ValueError("frame matrix is singular: a^2 + a + 1 = 0")
    if det.value == 0:
        raise ValueError("frame matrix is singular")
    if ((a + 1) ** 3) * det != (a * a + a + 1) ** 3:
        # only guaranteed for roots of the frame polynomial
        if (a ** (sqrt_q + 1) + a + 1).value == 0:
            raise ConsistencyError("frame determinant identity failed on a frame root")
    return mat


@lru_cache(maxsize=None)
def singer_frame(sqrt_q: int) -> ProjMatrix:
    """The frame kappa over F_{q^3}: frame_matrix of the frame parameter a.

    In the coordinates Y = kappa X the order-(q - sqrt_q + 1) automorphism
    of the Hermitian curve is diagonal, and the F_q-points of the plane are
    the Singer set {(z, z^q, z^(q^2))}.  The first entry of the circulant,
    kappa.rows[0][0], is a.  F_{q^3} is built first, so that the element
    cap refuses it before the root finding of frame_parameter.
    """
    p, h = split_prime_power(sqrt_q)
    Fq3 = build_field(p, 6 * h)
    a = frame_parameter(sqrt_q)
    return frame_matrix(embed(a.field, Fq3)(a), sqrt_q)


def apply_coord_change(model: CurveModel, mat: ProjMatrix) -> CurveModel:
    """The model with polynomial P(M x); points map by x -> M^(-1) x.  A model
    over a subfield of M's field is lifted to it first."""
    poly = model.poly
    if mat.field is not poly.field:
        poly = poly.map_coefficients(embed(poly.field, mat.field))
    if mat.det().value == 0:
        raise ValueError("singular coordinate change")
    new_poly = poly.compose_linear(mat)
    if new_poly.degree != poly.degree:
        raise ConsistencyError("degree changed under invertible substitution")
    return CurveModel(new_poly, model.name + "-moved", model.sqrt_q, model.params,
                      model.expected_genus)


def quotient_frame_poly(sqrt_q: int, field: ExtField) -> HomPoly3:
    """The bare quotient form X0^s X2 + X2^s X1 + X1^s X0 - 3 (X0X1X2)^((s+1)/3)."""
    s = sqrt_q
    e = (s + 1) // 3
    return HomPoly3.from_int_coeffs(field, {
        (s, 0, 1): 1, (0, 1, s): 1, (1, s, 0): 1, (e, e, e): -3,
    })


def quotient_plane_model(sqrt_q: int) -> CurveModel:
    """Degree s+1 plane model of the degree-3 cyclic quotient in the cyclic
    frame: X0^s X2 + X2^s X1 + X1^s X0 - 3 (X0 X1 X2)^((s+1)/3)."""
    check_divisor(sqrt_q, 3)
    p, h = split_prime_power(sqrt_q)
    return CurveModel(quotient_frame_poly(sqrt_q, build_field(p, 3 * h)), "quotient-frame",
                      sqrt_q, expected_genus=(sqrt_q * sqrt_q - sqrt_q - 2) // 6)


def cube_cover_identity(sqrt_q: int) -> bool:
    """Check F'(X0^3, X1^3, X2^3) = G(X0,X1,X2) G(eX0,eX1,X2) G(X0,X1,eX2)
    as an exact polynomial identity over F_q, e a primitive cube root of
    unity; F_q holds one since 3 | n = q - s + 1 forces 3 | s + 1 | q - 1."""
    check_divisor(sqrt_q, 3)
    p, h = split_prime_power(sqrt_q)
    field = build_field(p, 2 * h)
    eps = find_root_of_unity(field, 3).value
    g = cyclic_poly(sqrt_q, field)
    fp = quotient_frame_poly(sqrt_q, field)
    lhs = HomPoly3(field, {(3 * i, 3 * j, 3 * k): c for (i, j, k), c in fp.terms.items()})
    rhs = g._mul(g.compose_linear(ProjMatrix(field, [[eps, 0, 0], [0, eps, 0], [0, 0, 1]])))
    rhs = rhs._mul(g.compose_linear(ProjMatrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, eps]])))
    return lhs == rhs


def quotient_model_rational(sqrt_q: int) -> CurveModel:
    """The degree-3 quotient curve as an explicit plane model over F_q.

    Composes the frame-coordinates model with the Singer frame kappa over
    F_{q^3} (singer_frame), reads the frame constant a off kappa, rescales
    by c with c^(s-1) = a, and pulls every coefficient back to F_q through
    the embedding (ConsistencyError if one is not in F_q).  Expected genus
    (q - s - 2)/6.
    """
    check_divisor(sqrt_q, 3)
    q = sqrt_q * sqrt_q
    p, h = split_prime_power(sqrt_q)
    Fq = build_field(p, 2 * h)
    kappa = singer_frame(sqrt_q)
    Fq3 = kappa.field
    a3 = FieldElement(Fq3, kappa.rows[0][0])
    gprime = quotient_frame_poly(sqrt_q, Fq3).compose_linear(kappa)
    # pre-scaling Frobenius twist: coeff^q = a^-(s+1) * coeff for every term
    twist = (a3 ** (sqrt_q + 1)).inverse().value
    for e, c in gprime.terms.items():
        if Fq3.frob_i(c, 2 * h) != Fq3.mul_i(twist, c):
            raise ConsistencyError("quotient model coefficients fail the Frobenius twist")
    c_roots = poly_roots(
        FPoly(Fq3, [(-a3).value] + [0] * (sqrt_q - 2) + [1])  # X^(s-1) - a
    )
    if not c_roots:
        raise ConsistencyError("no scaling constant c with c^(s-1) = a in F_{q^3}")
    c = c_roots[0][0]
    final = gprime.scale(c)
    rational = embed(Fq, Fq3).descend_i(final.terms.values(), "quotient model")
    poly = HomPoly3(Fq, dict(zip(final.terms, rational)))
    return CurveModel(poly, "quotient-rational", sqrt_q,
                      expected_genus=(q - sqrt_q - 2) // 6)


# -- curve families ----------------------------------------------------------

def check_geer_vlugt(p: int, m: int, r: int) -> None:
    """Raise ValueError unless (p, m, r) meets the rule of geer_vlugt_curve."""
    Fp = build_field(p, 1)
    if (m < 2 or m % 2 or not 1 <= r <= m // 2 or FPoly(Fp, [0, 1]).powmod(
            m // 2, FPoly(Fp, [1] * (r + 1))) != FPoly(Fp, [1])):
        raise ValueError(f"(p, m, r) = ({p}, {m}, {r}): need m >= 2 even, r >= 1 and "
                         "1 + T + ... + T^r dividing T^(m/2) - 1 in F_p[T]")


def geer_vlugt_curve(p: int, m: int, r: int) -> CurveModel:
    """Plane model of the fibre-product family: sum_{i<=r} y^(p^i) = b x^(s+1)
    over F_{p^m}, s = p^(m/2), b nonzero with b^s + b = 0; genus (p^r-1)s/2.
    Admitted exactly when m >= 2 is even, r >= 1 and L = 1 + T + ... + T^r
    divides T^(m/2) - 1 in F_p[T], the (p, m, r) where it is maximal: additive
    polynomials over F_p commute, so L N = T^(m/2) - 1 gives L(N(y)) = y^s - y,
    and (x, y) -> (x, N(y)) maps y^s - y = b x^(s+1), Hermitian as
    b^(s-1) = -1, onto the model, which is then maximal (Lachaud)."""
    check_elem_cap(p, m)
    check_geer_vlugt(p, m, r)
    field = build_field(p, m)
    sqrt_q = p ** (m // 2)
    # b is the least nonzero root; poly_roots returns them sorted
    roots = poly_roots(FPoly(field, [0, 1] + [0] * (sqrt_q - 2) + [1]))  # X^s + X
    nonzero = [r.value for r, _ in roots if r.value]
    if not nonzero:
        raise ConsistencyError("no b with b^s + b = 0 found")
    b = nonzero[0]
    deg = sqrt_q + 1
    terms = {(deg, 0, 0): field.neg_i(b)}
    for i in range(r + 1):
        e = p**i
        key = (0, e, deg - e)
        terms[key] = field.add_i(terms.get(key, 0), 1)
    poly = HomPoly3(field, terms)
    return CurveModel(poly, "geer-vlugt", sqrt_q, params=(p, m, r),
                      expected_genus=(p**r - 1) * sqrt_q // 2)


def artin_schreier_quotient(sqrt_q: int, t: int) -> CurveModel:
    """Plane model of y^s + y = x^((s+1)/t), t a divisor of s+1.
    Genus (s-1)((s+1)/t - 1)/2; at t = 1 this is the Hermitian curve."""
    if t < 1 or (sqrt_q + 1) % t:
        raise ValueError(f"t = {t} must divide sqrt_q + 1 = {sqrt_q + 1}")
    p, h = split_prime_power(sqrt_q)
    s = sqrt_q
    e = (s + 1) // t
    deg = max(s, e)
    poly = HomPoly3.from_int_coeffs(build_field(p, 2 * h), {
        (0, s, deg - s): 1, (0, 1, deg - 1): 1, (e, 0, deg - e): -1,
    })
    genus = (s - 1) * (e - 1) // 2
    return CurveModel(poly, "artin-schreier", sqrt_q, params=(t,), expected_genus=genus)


def fermat_quotient(sqrt_q: int, t: int) -> CurveModel:
    """The Fermat curve x^e + y^e + 1 = 0 with e = (s+1)/t; genus (e-1)(e-2)/2."""
    if t < 1 or (sqrt_q + 1) % t:
        raise ValueError(f"t = {t} must divide sqrt_q + 1 = {sqrt_q + 1}")
    p, h = split_prime_power(sqrt_q)
    e = (sqrt_q + 1) // t
    poly = HomPoly3.from_int_coeffs(build_field(p, 2 * h),
                                    {(e, 0, 0): 1, (0, e, 0): 1, (0, 0, e): 1})
    return CurveModel(poly, "fermat", sqrt_q, params=(t,),
                      expected_genus=(e - 1) * (e - 2) // 2)


def char2_chain_curve(sqrt_q: int) -> CurveModel:
    """Even-characteristic chain y^(s/2) + y^(s/4) + ... + y = x^(s+1), s = 2^t.
    Genus s(s-2)/4; the additive left side must have degree s/2 for its
    kernel to lie inside F_q.
    """
    p, h = split_prime_power(sqrt_q)
    if p != 2:
        raise ValueError("chain curve lives in characteristic 2")
    field = build_field(2, 2 * h)
    s = sqrt_q
    deg = s + 1
    terms = {(deg, 0, 0): 1}  # -1 = 1
    e = s // 2
    while e >= 1:
        key = (0, e, deg - e)
        terms[key] = field.add_i(terms.get(key, 0), 1)
        e //= 2
    poly = HomPoly3(field, terms)
    return CurveModel(poly, "char2-chain", sqrt_q, expected_genus=s * (s - 2) // 4)


# -- truncated series check ----------------------------------------------------

class TruncSeries:
    """Power series over F_p truncated at order N (coefficients 0..N)."""

    __slots__ = ("p", "n", "coeffs")

    def __init__(self, p: int, n: int, coeffs):
        self.p = p
        self.n = n
        cs = list(coeffs)[: n + 1]
        cs += [0] * (n + 1 - len(cs))
        self.coeffs = [c % p for c in cs]

    @classmethod
    def monomial(cls, p, n, exponent):
        cs = [0] * (n + 1)
        if exponent <= n:
            cs[exponent] = 1
        return cls(p, n, cs)

    def __add__(self, other):
        return TruncSeries(self.p, self.n,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return TruncSeries(self.p, self.n,
                           [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncSeries(self.p, self.n, [other * c for c in self.coeffs])
        n = self.n
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs[: n + 1 - i]):
                    if b:
                        out[i + j] += a * b
        return TruncSeries(self.p, n, out)

    __rmul__ = __mul__

    def p_power(self, e: int):
        """self^(p^e), using that coefficients lie in the prime field."""
        step = self.p**e
        out = [0] * (self.n + 1)
        for i, c in enumerate(self.coeffs):
            if c and i * step <= self.n:
                out[i * step] = c
        return TruncSeries(self.p, self.n, out)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def first_nonzero(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def valuation(self):
        v = self.first_nonzero()
        if v is None:
            raise ValueError("zero series has no valuation")
        return v


def _series_sqrt(v: TruncSeries, p: int) -> TruncSeries:
    """Square root of a series with even valuation and square leading
    coefficient; the leading coefficient of the root is the least residue."""
    val = v.valuation()
    if val % 2:
        raise ValueError("odd valuation has no series square root")
    m = val // 2
    lead = v.coeffs[val]
    r0 = next((r for r in range(p) if r * r % p == lead), None)
    if r0 is None:
        raise ValueError("leading coefficient is not a square")
    n = v.n
    w = [0] * (n + 1)
    w[m] = r0
    inv2r = pow(2 * r0 % p, p - 2, p)
    for ell in range(m + 1, n + 1 - m):
        acc = sum(w[i] * w[m + ell - i] for i in range(m + 1, ell)) % p
        w[ell] = (v.coeffs[m + ell] - acc) * inv2r % p
    return TruncSeries(p, n, w)


def envelope_affine_relation(x: TruncSeries, y: TruncSeries, hexp: int) -> TruncSeries:
    """y^2 + x^2 y^(2s) + x^(2s) - 2(x^(s+1) y^s + x^s y + x y^(s+1)),
    with s = p^hexp powers taken by Frobenius spreading."""
    y_s = y.p_power(hexp)
    x_s = x.p_power(hexp)
    return (
        y * y + (x * x) * (y_s * y_s)
        + x_s * x_s
        - 2 * ((x_s * x) * y_s + x_s * y + x * (y_s * y))
    )


def branch_series(sqrt_q: int, n: int) -> tuple[TruncSeries, TruncSeries]:
    """The quadratic branch of the envelope model centred at the third
    fundamental point, solved exactly: x = t^2 and y = x^s + w with
    w^2 = 2 x^(s+1) y^s + 2 x y^(s+1) - x^2 y^(2s).

    Returns (x, y) truncated at order n.  The support of y is checked to lie
    in the progression 2s + i(q - s + 1); note the printed unit coefficients
    sometimes attached to that progression do not solve the relation (for
    s = 5 the second coefficient is 2, not 1), so the series is derived, not
    assumed.
    """
    p, hexp = split_prime_power(sqrt_q)
    if p == 2:
        raise ValueError("branch solving needs odd characteristic")
    q = sqrt_q * sqrt_q
    s = sqrt_q
    x = TruncSeries.monomial(p, n, 2)
    x_s = x.p_power(hexp)
    w = TruncSeries(p, n, [])
    # w enters the right side only at high order, so iterate to a fixed point
    for _ in range(n // (q - s + 1) + 3):
        y = x_s + w
        y_s = y.p_power(hexp)
        rhs = 2 * ((x_s * x) * y_s + x * (y_s * y)) - (x * x) * (y_s * y_s)
        if rhs.is_zero():
            break
        w_new = _series_sqrt(rhs, p)
        if w_new.coeffs == w.coeffs:
            break
        w = w_new
    y = x_s + w
    step = q - s + 1
    for i, c in enumerate(y.coeffs):
        if c and (i - 2 * s) % step:
            raise ConsistencyError(
                f"branch support escapes the progression at t^{i}"
            )
    return x, y


def branch_expansion_check(sqrt_q: int, n: int) -> bool:
    """Verify the quadratic branch of the envelope model through order t^n.

    Solves the branch (x = t^2, y supported on 2s + i(q - s + 1)), then
    substitutes it into the affine relation
    y^2 + x^2 y^(2s) + x^(2s) - 2(x^(s+1) y^s + x^s y + x y^(s+1)) = 0
    and confirms exact vanishing through t^n; the substitution path is
    independent of the recurrence that produced the coefficients.  Also
    checks the leading valuations v(x) = 2 and v(y) = 2s.  Raises
    ConsistencyError naming the first offending order on failure.
    """
    p, hexp = split_prime_power(sqrt_q)
    if p == 2:
        raise ValueError("branch check needs odd characteristic")
    if n < 4 * sqrt_q:
        raise ValueError(f"truncation order must be at least 4*sqrt_q = {4 * sqrt_q}")
    x, y = branch_series(sqrt_q, n)
    if x.valuation() != 2 or y.valuation() != 2 * sqrt_q:
        raise ConsistencyError("branch leading valuations are wrong")
    rel = envelope_affine_relation(x, y, hexp)
    if not rel.is_zero():
        raise ConsistencyError(
            f"branch relation fails first at order t^{rel.first_nonzero()}"
        )
    return True
