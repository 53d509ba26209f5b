"""Exhaustive projective point enumeration and Hasse-Weil verdicts.

Points are swept in normalized-representative order ((1:y:z), then (0:1:z),
then (0:0:1)) by a vectorized numpy sweep in the discrete-log domain, so the
swept field must be within TABLE_CAP; larger fields raise CapError.  On the
chart x = 1 the form is sum_e C_e(y) z^e: each y-block folds the monomials
into the logs of its row coefficients C_e(y), and each point then costs one
log-add per distinct z-exponent e, through the Zech logarithm
Z(m) = log(1 + g^m) (log(g^a + g^b) = a + Z(b - a)).  The line at infinity
is one more row of the same kernel, and (0:0:1) is read off the Z^deg
coefficient.

The model's coefficients lie in a subfield F_(p^j) of the swept field L,
so the Frobenius sigma: v -> v^(p^j) fixes the form and permutes its zeros
(_frobenius_orbits).  The kernel sweeps only the rows y least in their
sigma-orbit; the zeros of every other row are sigma^i images, merged back
into sweep order.  When the coefficients generate L, sigma is the identity
and every row is swept.  Each zero in a swept row, and each zero at z least
in its orbit on the line at infinity, is classified smooth or singular via
the three partials (first Hasse derivatives); sigma keeps that class, so
each singular point's orbit joins it.

A plane model of a curve with rational singular points undercounts the
places of the nonsingular model, so the report also carries a resolved
count: at every rational singular point that is an ordinary multiple point
(distinct tangents) the rational branches are counted from the rational
tangent directions.  The degree-3 quotient models need this; their plane
models acquire rational nodes away from the coordinate triangle.  Each
tangent cone is read from Hasse derivatives at its point, once per
sigma-orbit of singular points, as sigma keeps the multiplicity, whether
the point is ordinary and its number of rational tangent lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .curves import CurveModel, HomPoly3
from .fields import (
    ExtField,
    FPoly,
    _np_tables,
    build_field,
    check_table_cap,
    embed,
    poly_roots,
)


@dataclass(frozen=True)
class CountReport:
    """Exact point census of a plane model over F_{q^k}."""

    model_tag: str
    q: int
    k: int
    total: int
    singular: int
    smooth: int
    rational_branches: int | None
    resolved_total: int | None
    singular_points: tuple = ()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["singular_points"] = [list(p) for p in self.singular_points]
        return d


@dataclass(frozen=True)
class MaximalityVerdict:
    genus: int
    count_used: int | None
    lower: int
    upper: int
    verdict: str          # maximal | minimal | neither | inconsistent
    reason: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# sweep machinery
# ---------------------------------------------------------------------------

_SWEEP_BLOCK = 1 << 16    # points per numpy pass of the plane sweep


def _lift_poly(model: CurveModel, k: int) -> tuple[HomPoly3, ExtField]:
    base = model.field
    check_table_cap(base.order**k)
    if k == 1:
        return model.poly, base
    L = build_field(base.p, base.k * k)
    return model.poly.map_coefficients(embed(base, L)), L


def _log_add(a, b, zech, n):
    """Elementwise log(g^a + g^b) of logs in [0, n), with -1 for zero."""
    d = b - a
    d += n * (d < 0)          # b - a mod n, or n when a = -1 (overwritten)
    r = zech.take(d, mode="clip")
    s = r + a
    s -= n * (s >= n)
    np.copyto(s, -1, where=r < 0)
    np.copyto(s, b, where=a < 0)
    np.copyto(s, a, where=b < 0)
    return s


def _frobenius_orbits(poly: HomPoly3, L: ExtField):
    """(sigma, m, least) for the Frobenius sigma: v -> v^(p^j) of the least
    j | L.k that fixes every coefficient of poly.

    sigma[v] is the packed value of v^(p^j) (an int64 array over the packed
    values of L), m = L.k / j is its order, and least[v] says whether v is
    the least packed value of its sigma-orbit.  As sigma fixes the form, it
    permutes the zeros of poly and its singular points, keeping
    multiplicity, ordinariness and the number of rational tangent lines.
    m = 1 when the coefficients generate L; every orbit is then one element.
    """
    p, n = L.p, L.group_order
    coeffs = set(poly.terms.values())
    j = next(j for j in range(1, L.k + 1)
             if L.k % j == 0 and all(L.frob_i(c, j) == c for c in coeffs))
    log, _ = _np_tables(L)
    exp = np.frombuffer(L._exp, dtype=np.int32)
    sigma = exp[log.astype(np.int64) * p**j % n].astype(np.int64)
    sigma[0] = 0
    m = L.k // j
    values = np.arange(L.order)
    least = np.ones(L.order, dtype=bool)
    image = values
    for _ in range(m - 1):
        image = sigma[image]
        least &= image >= values
    return sigma, m, least


def _bulk_affine_zeros(poly: HomPoly3, L: ExtField, tables, ys):
    """Packed (y, z) pairs with poly(1, y, z) = 0, y in the int64 array ys.

    poly(1, y, z) = sum_e C_e(y) z^e.  The logs of the row coefficients
    C_e(y) are folded from the monomials; each point then costs one log-add
    per distinct z-exponent e.
    """
    log, zech = tables
    n = np.int32(L.group_order)   # an int32 n keeps n * mask in int32
    q = L.order
    logy = log[ys].astype(np.int64)
    coeff: dict[int, np.ndarray] = {}
    for (_, j, e), c in poly.terms.items():
        if j:
            t = np.where(logy < 0, -1, (log[c] + j * logy) % n).astype(np.int32)
        else:
            t = np.full(ys.size, log[c], dtype=np.int32)
        coeff[e] = _log_add(coeff[e], t, zech, n) if e in coeff else t
    logz = log[:q].astype(np.int64)
    acc = None
    for e in sorted(coeff):
        ce = coeff[e]
        if e == 0:
            term = np.broadcast_to(ce[:, None], (ys.size, q))
        else:
            term = ce[:, None] + (e * logz % n).astype(np.int32)
            term -= n * (term >= n)
            term[:, 0] = -1           # z = 0
            term[ce < 0] = -1         # C_e(y) = 0
        acc = term if acc is None else _log_add(acc, term, zech, n)
    idx = np.flatnonzero(acc < 0)
    return ys[idx // q], idx % q


def _sweep_zeros(poly: HomPoly3, L: ExtField) -> list[tuple[int, int, int]]:
    """All normalized projective zeros of poly over L, in sweep order.

    L is within TABLE_CAP (_lift_poly checks it), so its tables build.  The
    kernel sweeps only the rows y that are least in their orbit under the
    Frobenius sigma that fixes poly (_frobenius_orbits), in blocks of at
    most _SWEEP_BLOCK points (one y-row when a row is longer), which bounds
    the numpy temporaries.  (1:y:z) is a zero exactly when
    (1:sigma(y):sigma(z)) is, so the zeros of every other row are sigma^i
    images of those; the images are merged, de-duplicated and sorted back
    into sweep order.  The line at infinity is the row y = 0 of the X-free
    terms with each Y exponent moved onto X, since poly(0, 1, z) = that
    form at (1, 0, z).  (0:0:1) is a zero when poly has no Z^deg term.
    """
    q = L.order
    tables = _np_tables(L)
    sigma, m, least = _frobenius_orbits(poly, L)
    rows = np.flatnonzero(least)       # never empty: 0 is its own orbit
    block = max(1, _SWEEP_BLOCK // q)  # y-values per numpy pass
    found = [_bulk_affine_zeros(poly, L, tables, rows[i:i + block])
             for i in range(0, rows.size, block)]
    ys = np.concatenate([y for y, _ in found])
    zs = np.concatenate([z for _, z in found])
    keys = [ys * q + zs]
    for _ in range(m - 1):
        ys, zs = sigma[ys], sigma[zs]
        keys.append(ys * q + zs)
    # sorted(set()) rather than np.unique, whose first call imports numpy.ma
    pts = [(1, *divmod(key, q)) for key in sorted(set(np.concatenate(keys).tolist()))]
    at_inf = {(j, 0, k): c for (i, j, k), c in poly.terms.items() if not i}
    if at_inf:
        zs = _bulk_affine_zeros(HomPoly3(L, at_inf), L, tables, np.zeros(1, dtype=np.int64))[1]
    else:                   # X divides poly: the whole line is on the curve
        zs = range(q)
    pts.extend((0, 1, int(z)) for z in zs)
    if (0, 0, poly.degree) not in poly.terms:
        pts.append((0, 0, 1))
    return pts


# ---------------------------------------------------------------------------
# branch resolution at rational singular points
# ---------------------------------------------------------------------------

def tangent_cone_data(poly: HomPoly3, pt: tuple[int, int, int]):
    """(multiplicity, ordinary, rational_tangents) at a normalized point.

    On the point's chart, with u and v along the two other axes, the
    coefficient of u^a v^b in poly(pt + u e_u + v e_v) is the Hasse
    derivative D_u^(a) D_v^(b) poly at pt (HomPoly3.hasse).  The
    lowest-degree nonzero part, found for m = 0, 1, 2, ... in turn, is the
    tangent cone and m the multiplicity.  The point is ordinary when that
    form has distinct roots over the closure; rational branches of an
    ordinary point biject with rational tangent directions.
    rational_tangents counts the distinct rational tangent lines, a
    repeated one once, on every chart alike.
    """
    F = poly.field
    ua, va = _chart_axes(pt)
    for mult in range(poly.degree + 1):
        coeffs = [poly.hasse(ua, mult - j).hasse(va, j).eval_i(*pt) for j in range(mult + 1)]
        if any(coeffs):
            break
    else:
        raise ValueError("the zero form has no tangent cone")
    if mult == 0:
        raise ValueError("point is not on the curve")
    if mult == 1:
        raise ValueError("point is smooth")
    f = FPoly(F, coeffs)
    inf_mult = mult - f.degree()
    roots = poly_roots(f)
    squarefree = f.gcd(f.derivative()).degree() == 0
    ordinary = squarefree and inf_mult <= 1
    rational = len(roots) + (1 if inf_mult else 0)   # distinct rational lines
    return mult, ordinary, rational


def _chart_axes(pt):
    if pt[0] == 1:
        return 1, 2
    if pt[1] == 1:
        return 0, 2
    return 0, 1


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def count_projective_points(model: CurveModel, k: int = 1) -> CountReport:
    """Exact census of model points over the degree-k extension of its field.

    total/singular/smooth describe the plane model; resolved_total counts
    places of the nonsingular model (smooth points plus rational branches),
    available when every rational singular point is ordinary.
    """
    base = model.field
    poly, L = _lift_poly(model, k)
    zeros = _sweep_zeros(poly, L)
    sigma, m, least = _frobenius_orbits(poly, L)
    # the partials at one zero of each row least in its sigma-orbit, and at
    # z least in its orbit on the line at infinity ((0:0:1) is fixed)
    least = least.tolist()
    parts = [poly.hasse(i, 1) for i in range(3)]
    seeds = [
        pt for pt in zeros
        if least[pt[1] if pt[0] else pt[2]]
        and all(pp.eval_i(*pt) == 0 for pp in parts)
    ]
    orbits = []             # (singular seed, size of its sigma-orbit)
    closure = set()
    for pt in seeds:
        if pt not in closure:
            orbit, img = {pt}, pt
            for _ in range(m - 1):
                img = tuple(int(sigma[c]) for c in img)
                orbit.add(img)
            orbits.append((pt, len(orbit)))
            closure |= orbit
    sing_pts = sorted(closure, key=_sweep_key)
    total = len(zeros)
    singular = len(sing_pts)
    smooth = total - singular
    branches: int | None = 0
    for pt, size in orbits:
        mult, ordinary, rational = tangent_cone_data(poly, pt)
        if not ordinary:
            branches = None
            break
        branches += rational * size
    resolved = smooth + branches if branches is not None else None
    return CountReport(
        model_tag=model.tag(),
        q=base.order,
        k=k,
        total=total,
        singular=singular,
        smooth=smooth,
        rational_branches=branches,
        resolved_total=resolved,
        singular_points=tuple(sing_pts),
    )


def _sweep_key(pt):
    """Sort key of a normalized point: (1:y:z) by (y, z), then (0:1:z) by z,
    then (0:0:1)."""
    x, y, z = pt
    return -x, y if x else -y, z


def singular_points(model: CurveModel, k: int = 1) -> list[tuple[int, int, int]]:
    """Normalized points over F_{q^k} where the model and all partials vanish."""
    return list(count_projective_points(model, k).singular_points)


def hasse_weil_bounds(q: int, g: int) -> tuple[int, int]:
    """(max(0, q+1-2g*sqrt(q)), q+1+2g*sqrt(q)); q must be a square and
    g nonnegative."""
    s = math.isqrt(q)
    if s * s != q:
        raise ValueError(f"{q} is not a square")
    if g < 0:
        raise ValueError("genus is nonnegative")
    return max(0, q + 1 - 2 * g * s), q + 1 + 2 * g * s


def maximality_check(report: CountReport, g: int) -> MaximalityVerdict:
    """Verdict for a k=1 report against the Hasse-Weil bound at genus g.

    Uses the resolved (nonsingular-model) count when the plane model has
    rational singular points; returns 'inconsistent' if those could not be
    resolved or the count violates the Weil interval.
    """
    q = report.q
    lower, upper = hasse_weil_bounds(q, g)
    s = math.isqrt(q)
    raw_lower = q + 1 - 2 * g * s
    if report.k != 1:
        return MaximalityVerdict(g, None, lower, upper, "inconsistent",
                                 "maximality is a statement about k = 1")
    if report.singular and report.resolved_total is None:
        return MaximalityVerdict(g, None, lower, upper, "inconsistent",
                                 "rational singular points could not be resolved")
    count = report.resolved_total if report.singular else report.total
    if count == upper:
        verdict = "maximal"
    elif count == raw_lower:
        verdict = "minimal"
    elif lower <= count <= upper:
        verdict = "neither"
    else:
        return MaximalityVerdict(g, count, lower, upper, "inconsistent",
                                 "count violates the Weil interval for this genus")
    return MaximalityVerdict(g, count, lower, upper, verdict)


def extension_count_prediction(q: int, g: int, k: int) -> int:
    """Point count over F_{q^k} of a curve maximal over F_q:
    all Frobenius eigenvalues equal -sqrt(q), so the count is
    q^k + 1 - 2g(-sqrt(q))^k."""
    s = math.isqrt(q)
    if s * s != q:
        raise ValueError(f"{q} is not a square")
    return q**k + 1 - 2 * g * (-s) ** k


def genus_from_count(n_points: int, q: int) -> int:
    """Solve n = q + 1 + 2g*sqrt(q) for g; errors when g is not a
    nonnegative integer (the curve is then not maximal or the count wrong)."""
    s = math.isqrt(q)
    if s * s != q:
        raise ValueError(f"{q} is not a square")
    delta = n_points - q - 1
    if delta < 0 or delta % (2 * s):
        raise ValueError(f"count {n_points} is not maximal over F_{q}")
    return delta // (2 * s)
