"""Exhaustive projective point enumeration and Hasse-Weil verdicts.

Points are swept in normalized-representative order ((1:y:z), then (0:1:z),
then (0:0:1)) by a vectorized numpy sweep in the discrete-log domain, so the
swept field must be within TABLE_CAP; larger fields raise CapError.  On the
chart x = 1 the form is sum_e C_e(y) z^e.  A count folds each form once,
on both sides: into the logs of the row coefficients C_e(y) at every y of
L, and into the columns e log z of the z-powers at every z of L.  Each
y-block gathers the first by index and adds the second as they are, so it
pays only for its grid.  Each point then costs one log-add per distinct
z-exponent e but the last, through the Zech logarithm
Z(m) = log(1 + g^m) (log(g^a + g^b) = a + Z(b - a)), and one comparison:
the point is a zero where that sum's log equals the log of minus the last
term, the last term's shifted by log(-1) (0 in characteristic 2, n/2
otherwise, n = |L*|).  The line at infinity is one more row of the same
kernel, and (0:0:1) is read off the Z^deg coefficient.

The model's coefficients lie in a subfield F_(p^j) of the swept field L,
so the Frobenius sigma: v -> v^(p^j) fixes the form and permutes its zeros
(_frobenius_orbits).  sigma^i maps the zeros of row y one-to-one onto those
of row sigma^i(y), so the kernel sweeps only the rows y least in their
sigma-orbit, and each zero found there is counted once per row of its
orbit: the affine total is the sum of |orbit(y)| over those zeros.  When
the coefficients generate L, sigma is the identity and every row is swept.
Each zero in a swept row, and each zero at z least in its orbit on the
line at infinity, is classified smooth or singular via the three partials
(first Hasse derivatives), which the same kernel tests at the sweep's
arrays of those zeros, so only singular points become tuples; sigma keeps
that class, so each singular point's orbit joins it.

A plane model of a curve with rational singular points undercounts the
places of the nonsingular model, so the report also carries a resolved
count: at every rational singular point that is an ordinary multiple point
(distinct tangents) the rational branches are counted from the rational
tangent directions.  The degree-3 quotient models need this; their plane
models acquire rational nodes away from the coordinate triangle.  Each
tangent cone is read from Hasse derivatives at its point, once per
sigma-orbit of singular points, as sigma keeps the multiplicity, whether
the point is ordinary and its number of rational tangent lines.  The
derivative forms are built once per chart per count.  A node's cone
(m = 2) is decided by its discriminant in odd characteristic and by an
absolute trace in characteristic 2, with no root finding.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from ._intfactor import exact_isqrt
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

# At most 2^15 points per numpy pass of the plane sweep (one row when a row
# is longer): 128 KiB per int32 temporary.  glibc keeps a pass's temporaries
# in its heap for the next pass while its trim threshold (twice the largest
# mmapped block freed so far) is above about 0.9 MiB, against 1.7 MiB at
# 2^16.  At 1.26 MiB a repeat hermitian_canonical(8) count over F_4096 took
# 0 minor faults and 8 ms of sweep, against 7392-7744 faults and 18-19 ms at
# 2^16.  At 2^14 the fault-free sweep took 9.5 ms.
_SWEEP_BLOCK = 1 << 15


def _lift_poly(model: CurveModel, k: int) -> tuple[HomPoly3, ExtField]:
    if k < 1:
        raise ValueError(f"the extension degree k must be at least 1, not {k}")
    base = model.field
    check_table_cap(base.order**k)
    if k == 1:
        return model.poly, base
    L = build_field(base.p, base.k * k)
    return model.poly.map_coefficients(embed(base, L)), L


def _log_add(a, b, zech, n):
    """Elementwise log(g^a + g^b) of int32 logs in [0, n), with -1 for zero.

    Each reduction mod n takes the lesser of x and x +- n viewed as uint32,
    where the one below 0 wraps to above 2^31.
    """
    un = np.uint32(n)
    d = (b - a).view(np.uint32)
    np.minimum(d, d + un, out=d)    # b - a mod n (overwritten where a or b is -1)
    r = zech.take(d, mode="clip")
    s = (r + a).view(np.uint32)
    np.minimum(s, s - un, out=s)
    s = s.view(np.int32)
    np.copyto(s, -1, where=r < 0)
    np.copyto(s, b, where=a < 0)
    np.copyto(s, a, where=b < 0)
    return s


def _frobenius_orbits(poly: HomPoly3, L: ExtField):
    """(sigma, m, least, size) for the Frobenius sigma: v -> v^(p^j) of the
    least j | L.k that fixes every coefficient of poly.

    sigma[v] is the packed value of v^(p^j) (an int64 array over the packed
    values of L), m = L.k / j is its order, least[v] says whether v is the
    least packed value of its sigma-orbit, and size[v] is the size of that
    orbit, the least i >= 1 with sigma^i(v) = v.  As sigma fixes the form, it
    permutes the zeros of poly and its singular points, keeping
    multiplicity, ordinariness and the number of rational tangent lines.
    m = 1 when the coefficients generate L; every orbit is then one element.
    """
    p, n = L.p, L.group_order
    coeffs = set(poly.terms.values())
    j = next(j for j in range(1, L.k + 1)
             if L.k % j == 0 and all(L.frob_i(c, j) == c for c in coeffs))
    log, _ = _np_tables(L)
    exp = np.empty(n, dtype=np.int64)     # the inverse of log on the nonzero values
    exp[log[1:]] = np.arange(1, L.order)
    sigma = exp[log.astype(np.int64) * p**j % n]
    sigma[0] = 0
    m = L.k // j
    values = np.arange(L.order)
    least = np.ones(L.order, dtype=bool)
    size = np.full(L.order, m)
    image = values
    for i in range(1, m):
        image = sigma[image]
        least &= image >= values
        np.copyto(size, i, where=(image == values) & (size == m))
    return sigma, m, least, size


def _row_coefficients(poly: HomPoly3, L: ExtField, tables):
    """[(e, logs, col)], e ascending over the z-exponents of poly(1, y, z) =
    sum_e C_e(y) z^e: logs[y] is the int32 log of C_e(y) at every packed y
    of L, -1 where C_e(y) = 0, and col[z] is the int32 log of z^e,
    e log z mod n, at every packed z of L, -1 at z = 0 (col is None for
    e = 0).  The logs of the last e are shifted by log(-1), 0 in
    characteristic 2 and n/2 otherwise, to read log -C_e(y).

    It depends only on the form and the field, so a count folds both sides
    once per form, from the monomials and the log table, and _vanishing
    gathers the logs by y and adds the columns by z.
    """
    log, zech = tables
    n = L.group_order
    logy = log.astype(np.int64)
    coeff: dict[int, np.ndarray] = {}
    for (_, j, e), c in poly.terms.items():
        if j:
            t = np.where(logy < 0, -1, (log[c] + j * logy) % n).astype(np.int32)
        else:
            t = np.full(L.order, log[c], dtype=np.int32)
        coeff[e] = _log_add(coeff[e], t, zech, n) if e in coeff else t
    last = max(coeff)
    if L.p != 2:
        c = coeff[last]
        coeff[last] = np.where(c < 0, c, (c + n // 2) % n)
    return [(e, logs, np.where(logy < 0, -1, e * logy % n).astype(np.int32) if e else None)
            for e, logs in sorted(coeff.items())]


def _vanishing(row_logs, L: ExtField, tables, ys, zs):
    """Boolean mask of poly(1, y, z) = 0 at the points (ys[i], zs[i]) of two
    int64 arrays of one shape, or, with zs None, on the grid of the column
    ys against every z of L in packed order.  row_logs is
    _row_coefficients(poly, L, tables).

    poly(1, y, z) = sum_e C_e(y) z^e.  The logs of the row coefficients
    C_e(y) are gathered at ys and the folded z^e columns added, as they are
    on the grid and gathered at zs on a list; every z-power but the last is
    log-added, and the form vanishes where that sum equals -C_e(y) z^e of
    the last e.  A z-power term is reduced mod n as in _log_add, then set
    to -1 at the rows where C_e(y) = 0 and at z = 0 (column 0 of the grid).
    The e = 0 term is the gathered C_0(y) itself, a column on the grid that
    the log-add broadcasts; a form free of z broadcasts its mask once, at
    the return.
    """
    zech = tables[1]
    n = L.group_order
    last = row_logs[-1][0]
    if zs is None:
        shape, z0 = (ys.shape[0], L.order), 0
    else:
        shape, z0 = ys.shape, np.flatnonzero(zs == 0)
    acc = None
    for e, logs, col in row_logs:
        term = c = logs[ys]
        if e:
            term = c + (col if zs is None else col[zs])
            u = term.view(np.uint32)
            np.minimum(u, u - np.uint32(n), out=u)
            term[np.flatnonzero(c < 0)] = -1    # the rows with C_e(y) = 0
            term[..., z0] = -1
        if e != last:
            acc = term if acc is None else _log_add(acc, term, zech, n)
    return np.broadcast_to(term < 0, shape) if acc is None else acc == term


def _bulk_affine_zeros(row_logs, L: ExtField, tables, ys):
    """Packed (y, z) pairs with poly(1, y, z) = 0, y in the int64 array ys,
    by _vanishing on the grid of ys against every z; row_logs is
    _row_coefficients(poly, L, tables)."""
    q = L.order
    idx = np.flatnonzero(_vanishing(row_logs, L, tables, ys[:, None], None))
    return ys[idx // q], idx % q


def _at_infinity(poly: HomPoly3) -> HomPoly3:
    """The form whose value at (1, 0, z) is poly(0, 1, z): the X-free terms
    of poly with each Y exponent moved onto X.  It has no terms when X
    divides poly."""
    return HomPoly3(poly.field, {(j, 0, k): c for (i, j, k), c in poly.terms.items() if not i})


def _sweep_zeros(poly: HomPoly3, L: ExtField, rows):
    """(ys, zs, inf): the zeros (1:y:z) of poly over L with y in the int64
    array rows, as two int64 arrays in sweep order (by y, then z), and the z
    of its zeros (0:1:z) on the line at infinity, ascending.

    L is within TABLE_CAP (_lift_poly checks it), so its tables build.  The
    kernel sweeps rows in blocks of at most _SWEEP_BLOCK points (one y-row
    when a row is longer).  The line at infinity is the row y = 0 of
    _at_infinity(poly).
    """
    tables = _np_tables(L)
    row_logs = _row_coefficients(poly, L, tables)
    block = max(1, _SWEEP_BLOCK // L.order)  # y-values per numpy pass
    found = [_bulk_affine_zeros(row_logs, L, tables, rows[i:i + block])
             for i in range(0, rows.size, block)]
    ys = np.concatenate([y for y, _ in found])
    zs = np.concatenate([z for _, z in found])
    at_inf = _at_infinity(poly)
    if at_inf.terms:
        inf = _bulk_affine_zeros(_row_coefficients(at_inf, L, tables), L, tables,
                                 np.zeros(1, dtype=np.int64))[1]
    else:                   # X divides poly: the whole line is on the curve
        inf = np.arange(L.order)
    return ys, zs, inf


def _singular_seeds(poly: HomPoly3, L: ExtField, ys, zs, inf, origin: bool):
    """The singular points among the zeros (1:y:z) with y, z in the int64
    arrays ys, zs, (0:1:z) with z in inf, and (0:0:1) when origin, as
    tuples in that order.

    A zero is singular where the three partials (first Hasse derivatives)
    vanish.  Each partial goes through _vanishing at the points where the
    ones before it vanish; a partial with no terms vanishes everywhere.  At
    (0:1:z) a partial is its _at_infinity form at (1:0:z), and at (0:0:1)
    it is its coefficient of Z to its degree.
    """
    tables = _np_tables(L)
    parts = [pp for pp in (poly.hasse(i, 1) for i in range(3)) if pp.terms]
    for pp in parts:
        keep = _vanishing(_row_coefficients(pp, L, tables), L, tables, ys, zs)
        ys, zs = ys[keep], zs[keep]
        at_inf = _at_infinity(pp)
        if at_inf.terms:
            inf = inf[_vanishing(_row_coefficients(at_inf, L, tables), L, tables,
                                 np.zeros_like(inf), inf)]
    origin = origin and all((0, 0, pp.degree) not in pp.terms for pp in parts)
    return ([(1, y, z) for y, z in zip(ys.tolist(), zs.tolist())]
            + [(0, 1, z) for z in inf.tolist()] + [(0, 0, 1)] * origin)


# ---------------------------------------------------------------------------
# branch resolution at rational singular points
# ---------------------------------------------------------------------------

def tangent_cone_data(poly: HomPoly3, pt: tuple[int, int, int], forms: dict | None = None):
    """(multiplicity, ordinary, rational_tangents) at a normalized point.

    On the point's chart, with u and v along the two other axes, the
    coefficient of u^a v^b in poly(pt + u e_u + v e_v) is the Hasse
    derivative D_u^(a) D_v^(b) poly at pt (HomPoly3.hasse).  The
    lowest-degree nonzero part, found for m = 0, 1, 2, ... in turn, is the
    tangent cone and m the multiplicity.  The point is ordinary when that
    form has distinct roots over the closure; rational branches of an
    ordinary point biject with rational tangent directions.
    rational_tangents counts the distinct rational tangent lines, a
    repeated one once, on every chart alike.  A node (m = 2) is decided by
    its discriminant (_node_lines); poly_roots counts the lines for m >= 3.

    The derivative forms depend only on the chart, not on the point: forms
    is the caller's memo of them for this poly, keyed by (u axis, v axis,
    a, b), and a count hands one memo to every call, so each form is built
    once per chart.
    """
    F = poly.field
    ua, va = _chart_axes(pt)
    if forms is None:
        forms = {}
    for mult in range(poly.degree + 1):
        coeffs = []
        for j in range(mult + 1):
            key = (ua, va, mult - j, j)
            if key not in forms:
                forms[key] = poly.hasse(ua, mult - j).hasse(va, j)
            coeffs.append(forms[key].eval_i(*pt))
        if any(coeffs):
            break
    else:
        raise ValueError("the zero form has no tangent cone")
    if mult == 0:
        raise ValueError("point is not on the curve")
    if mult == 1:
        raise ValueError("point is smooth")
    if mult == 2:
        return (2, *_node_lines(F, *coeffs))
    f = FPoly(F, coeffs)
    inf_mult = mult - f.degree()
    roots = poly_roots(f)
    squarefree = f.gcd(f.derivative()).degree() == 0
    ordinary = squarefree and inf_mult <= 1
    rational = len(roots) + (1 if inf_mult else 0)   # distinct rational lines
    return mult, ordinary, rational


def _node_lines(F: ExtField, c: int, b: int, a: int) -> tuple[bool, int]:
    """(ordinary, rational_tangents) of the nonzero cone c u^2 + b uv + a v^2
    over F, with packed coefficients.

    a = 0: u = 0 is a line, and the other is b v + c u = 0, distinct from it
    when b != 0.  Otherwise the lines are the roots t = v/u of
    a t^2 + b t + c.  In odd characteristic they coincide when b^2 - 4ac = 0,
    and are two rational lines or none as that is a square or not (Euler's
    criterion).  In characteristic 2 they coincide when b = 0 (every element
    is a square); otherwise t = (b/a) s turns the quadratic into
    s^2 + s + ac/b^2, which has two roots in F or none as the absolute trace
    of ac/b^2 is 0 or 1.
    """
    if a == 0:
        return (True, 2) if b else (False, 1)
    ac = F.mul_i(a, c)
    if F.p == 2:
        if b == 0:
            return False, 1
        x = F.mul_i(ac, F.inv_i(F.mul_i(b, b)))
        trace = x
        for _ in range(F.k - 1):
            x = F.mul_i(x, x)
            trace ^= x
        return True, 2 if trace == 0 else 0
    disc = F.sub_i(F.mul_i(b, b), F.mul_i(4 % F.p, ac))
    if disc == 0:
        return False, 1
    return True, 2 if F.pow_i(disc, F.group_order // 2) == 1 else 0


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
    sigma, m, least, orbit_size = _frobenius_orbits(poly, L)
    # rows is never empty: 0 is its own orbit
    ys, zs, inf = _sweep_zeros(poly, L, np.flatnonzero(least))
    origin = (0, 0, poly.degree) not in poly.terms     # (0:0:1) is a zero
    # the partials at the zeros of the rows least in their sigma-orbit, and
    # at z least in its orbit on the line at infinity ((0:0:1) is fixed)
    seeds = _singular_seeds(poly, L, ys, zs, inf[least[inf]], origin)
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
    total = int(orbit_size[ys].sum()) + inf.size + origin
    singular = len(sing_pts)
    smooth = total - singular
    branches: int | None = 0
    forms: dict = {}        # the cone forms of this count, by chart
    for pt, size in orbits:
        mult, ordinary, rational = tangent_cone_data(poly, pt, forms)
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


def hasse_weil_bounds(q: int, g: int) -> tuple[int, int]:
    """(max(0, q+1-2g*sqrt(q)), q+1+2g*sqrt(q)); q must be a square and
    g nonnegative."""
    s = exact_isqrt(q)
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
    raw_lower = 2 * (q + 1) - upper     # q + 1 - 2g sqrt(q), which may be negative
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
    s = exact_isqrt(q)
    return q**k + 1 - 2 * g * (-s) ** k


def genus_from_count(n_points: int, q: int) -> int:
    """Solve n = q + 1 + 2g*sqrt(q) for g; errors when g is not a
    nonnegative integer (the curve is then not maximal or the count wrong)."""
    s = exact_isqrt(q)
    delta = n_points - q - 1
    if delta < 0 or delta % (2 * s):
        raise ValueError(f"count {n_points} is not maximal over F_{q}")
    return delta // (2 * s)
