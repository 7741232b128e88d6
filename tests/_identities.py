"""Shared test references.

A symbolic check that the integrated double-cover volume equals the closed
form identically, modulo the threshold's defining quadratic relation; the
two root-selection routines and the downstairs double-cover walk that
`locvol.cone` used before covers and round lattice models shared one walk,
and its separate curve and projective-space formulas from before they
shared the rank-one route, the references the shared routes are checked
against; the Zariski chamber walk that solved each chamber's Gram system
twice and sorted its segments (`reference_chamber_walk`), the reference
for the one-solve, in-order walk;
Fourier-Motzkin elimination, the independent reference for the
double-description slides of `locvol.toric.saturate_region`; the exact
simplex, the independent reference for set equality and for the capping
values and positive functionals that `locvol.geometry` takes from double
description, and for the pseudo-effective intervals that `locvol.surface`
reads off the facet normals of a generated cone (`psef_lp`, the LP the
package solved before); and the checkers and accessors only tests use:
an exact Sturm-sequence monotonicity check of piecewise polynomials,
cube-root enclosures at a given width, ideal membership, the dual cone
as a polyhedron, a polyhedron's rows as LP input, a scaled toric
divisor, the interior rays of a toric datum and relabelled dual graphs.
"""

from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import comb

from locvol.cone import (
    AbelianCover, ConeError, Curve, PiecewisePoly, ProjSpace, _as_number, _poly_eval, _simplify,
)
from locvol.exactnum import QuadraticNumber, nth_root_bounds, solve_quadratic
from locvol.geometry import Halfspace, Polyhedron
from locvol.linalg import dot, solve_linear
from locvol.linprog import solve_lp
from locvol.monomial import GENERATOR_LIMIT, GeneratorBlowup, MonomialIdeal
from locvol.surface import DualGraph, InvalidModel, lattice_zariski
from locvol.toric import INTERIOR, ToricDivisor


def _poly(**mono):
    return {tuple(mono.get(k, 0) for k in ("d2", "dl", "l2", "m")): F(1)}


def _scale(p, c):
    return {e: c * v for e, v in p.items()}


def _add(*ps):
    out = {}
    for p in ps:
        for e, v in p.items():
            out[e] = out.get(e, F(0)) + v
    return {e: v for e, v in out.items() if v}


def _mul(p, q):
    out = {}
    for e1, v1 in p.items():
        for e2, v2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, F(0)) + v1 * v2
    return {e: v for e, v in out.items() if v}


def abelian_closed_form_identity_holds() -> bool:
    """3 * int_0^m 2(d2 - 2t dl + t^2 l2) dt == (4 d2 l2 - 4 dl^2)/l2 * m
    + 2 dl d2 / l2, as polynomials in (d2, dl, l2, m) modulo
    l2 m^2 - 2 dl m + d2 (pseudo-division in m)."""
    lhs = _add(_scale(_poly(d2=1, m=1), F(6)), _scale(_poly(dl=1, m=2), F(-6)),
               _scale(_poly(l2=1, m=3), F(2)))
    rhs_times_l2 = _add(
        _scale(_poly(d2=1, l2=1, m=1), F(4)), _scale(_poly(dl=2, m=1), F(-4)),
        _scale(_poly(dl=1, d2=1), F(2)),
    )
    diff = _add(_mul(lhs, _poly(l2=1)), _scale(rhs_times_l2, F(-1)))
    relation = _add(_poly(l2=1, m=2), _scale(_poly(dl=1, m=1), F(-2)), _poly(d2=1))
    while diff:
        k = max(e[3] for e in diff)
        if k < 2:
            break
        lead = {e[:3] + (0,): v for e, v in diff.items() if e[3] == k}
        shifted = _mul(lead, {(0, 0, 0, k - 2): F(1)})
        diff = _add(_mul(diff, _poly(l2=1)), _scale(_mul(shifted, relation), F(-1)))
    return not diff


def _quadratic_psef_reach(c0, c1, c2, l0, l1):
    """Largest T >= 0 with c(t) >= 0 and l(t) >= 0 on [0, T], for the
    downward walk of a class across a round psef cone; None if empty at 0.

    c is the self-intersection (c2 > 0), l the pairing with a positivity
    witness; the boundary must be hit on the quadric, so l(T) >= 0 is
    asserted as the explicit root-selection sign test.
    """
    if c0 < 0 or l0 < 0:
        return None
    r1, r2 = solve_quadratic(c2, c1, c0)
    reach = _simplify(r1)
    if isinstance(reach, F) and reach < 0:
        raise ConeError("class stays inside the quadric for all t >= 0")
    if isinstance(reach, QuadraticNumber) and reach.sign() < 0:
        raise ConeError("class stays inside the quadric for all t >= 0")
    if not l0 + l1 * reach >= 0:
        raise ConeError("psef direction test failed at the threshold root")
    return reach


def _min_psef_root(c0, c1, c2, l0, l1):
    """Minimal t with c(t) >= 0 and l(t) >= 0 for an upward walk (l1 > 0)."""
    if l1 <= 0:
        raise InvalidModel("positivity pairing must grow along the polarization")
    t_lin = -l0 / l1
    r1, r2 = solve_quadratic(c2, c1, c0)
    if t_lin <= r1:
        out = _as_number(t_lin)
    elif t_lin >= r2:
        out = _as_number(t_lin)
    else:
        out = r2
    # explicit sign test on the selected root
    if _poly_eval((c0, c1, c2), out) < 0 or l0 + l1 * out < 0:
        raise ConeError(f"selected root {out} fails the pseudo-effectivity sign test")
    return _simplify(out)


def _abelian_volume_function(model: AbelianCover, k, h):
    d2, dl, l2 = model.base_sq, model.mixed, model.pol_sq
    # (kD + (h - t)L)^2 expanded in t
    c0 = k * k * d2 + 2 * k * h * dl + h * h * l2
    c1 = -2 * (k * dl + h * l2)
    c2 = F(l2)
    l0 = k * dl + h * l2  # pairing with the polarization downstairs
    l1 = F(-l2)
    reach = _quadratic_psef_reach(c0, c1, c2, l0, l1)
    if reach is None or not 0 < reach:
        return PiecewisePoly.zero()
    m = 2  # a double cover doubles every intersection number
    return PiecewisePoly([F(0), reach], [(m * c0, m * c1, m * c2)])


def reference_volume_function(model, k, h):
    """vol(kK + hH - tH) of a curve, a projective space, a double cover
    (downstairs, doubled) or a round lattice model, by the per-family
    formulas and walks the package used before they were shared."""
    k, h = F(k), F(h)
    if isinstance(model, Curve):
        deg0 = k * (2 * model.genus - 2) + h * model.degree
        if deg0 <= 0:
            return PiecewisePoly.zero()
        return PiecewisePoly([F(0), deg0 / model.degree], [(deg0, F(-model.degree))])
    if isinstance(model, ProjSpace):
        a0 = -k * (model.dim + 1) + h * model.h
        if a0 <= 0:
            return PiecewisePoly.zero()
        coeffs = tuple(comb(model.dim, j) * a0 ** (model.dim - j) * F(-model.h) ** j
                       for j in range(model.dim + 1))
        return PiecewisePoly([F(0), a0 / model.h], [coeffs])
    if isinstance(model, AbelianCover):
        return _abelian_volume_function(model, k, h)
    lat, h_vec = model.lattice, model.polarization
    a_vec = tuple(k * x + h * y for x, y in zip(model.canonical, h_vec))
    c0 = lat.pair(a_vec, a_vec)
    c1 = -2 * lat.pair(a_vec, h_vec)
    c2 = lat.pair(h_vec, h_vec)
    reach = _quadratic_psef_reach(c0, c1, c2, lat.pair(a_vec, lat.ample),
                                  -lat.pair(h_vec, lat.ample))
    if reach is None or not 0 < reach:
        return PiecewisePoly.zero()
    return PiecewisePoly([F(0), reach], [(c0, c1, c2)])


def reference_threshold(model):
    """min{t : -K + tH psef} of a curve, a projective space, a double cover or
    a round lattice model, by the per-family formulas and the upward root
    selection the package used before they were shared."""
    if isinstance(model, Curve):
        return F(2 * model.genus - 2, model.degree)
    if isinstance(model, ProjSpace):
        return F(-(model.dim + 1), model.h)
    if isinstance(model, AbelianCover):
        d2, dl, l2 = model.base_sq, model.mixed, model.pol_sq
        return _min_psef_root(c0=F(d2), c1=F(-2 * dl), c2=F(l2), l0=F(-dl), l1=F(l2))
    lat = model.lattice
    mk = tuple(-x for x in model.canonical)
    hv = model.polarization
    return _min_psef_root(
        c0=lat.pair(mk, mk), c1=2 * lat.pair(mk, hv), c2=lat.pair(hv, hv),
        l0=lat.pair(mk, lat.ample), l1=lat.pair(hv, lat.ample),
    )


def reference_degree(model):
    """H^n of a curve, a projective space, a double cover or a lattice model,
    by the per-family formulas the package used before the rank-one route."""
    if isinstance(model, Curve):
        return F(model.degree)
    if isinstance(model, ProjSpace):
        return F(model.h ** model.dim)
    if isinstance(model, AbelianCover):
        return F(2 * model.pol_sq)
    return model.lattice.pair(model.polarization, model.polarization)


def _chamber_data(lat, a_vec, h_vec, support):
    """Nef part as a pair (constant vector, t-coefficient vector) on the
    chamber with the given negative support."""
    curves = lat.negative_curves
    n0 = {i: F(0) for i in support}
    n1 = {i: F(0) for i in support}
    if support:
        idx = sorted(support)
        gram = [[lat.pair(curves[i], curves[j]) for j in idx] for i in idx]
        rhs0 = [lat.pair(a_vec, curves[i]) for i in idx]
        rhs1 = [-lat.pair(h_vec, curves[i]) for i in idx]
        for i, v in zip(idx, solve_linear(gram, rhs0)):
            n0[i] = v
        for i, v in zip(idx, solve_linear(gram, rhs1)):
            n1[i] = v
    const = list(a_vec)
    slope = [-x for x in h_vec]
    for i in support:
        const = [c - n0[i] * x for c, x in zip(const, curves[i])]
        slope = [s - n1[i] * x for s, x in zip(slope, curves[i])]
    return tuple(const), tuple(slope), n0, n1


def reference_chamber_walk(lat, a_vec, h_vec, reach):
    """Breakpoints and quadratic pieces of vol(a - t*h) on [0, reach] by the
    walk `locvol.cone` used before it read each chamber off one solve: two
    solves per chamber, segments collected, sorted and checked for gaps."""
    curves = lat.negative_curves

    def chamber_at(t):
        d = tuple(a - t * h for a, h in zip(a_vec, h_vec))
        _, coeffs = lattice_zariski(lat, d)
        return frozenset(i for i, v in coeffs.items() if v != 0)

    def piece_for(support):
        const, slope, n0, n1 = _chamber_data(lat, a_vec, h_vec, support)
        c0 = lat.pair(const, const)
        c1 = 2 * lat.pair(const, slope)
        c2 = lat.pair(slope, slope)
        # validity bounds: nef against outside curves, coefficients >= 0 inside
        walls = []
        for i, c in enumerate(curves):
            if i in support:
                f0, f1 = n0[i], n1[i]
            else:
                f0, f1 = lat.pair(const, c), lat.pair(slope, c)
            if f1 != 0:
                walls.append((-f0 / f1, f1))
            elif f0 < 0:
                raise InvalidModel("chamber constraint violated identically")
        return (c0, c1, c2), walls

    def emit(lo, hi, out):
        if not lo < hi:
            return
        sample = (lo + hi) / 2
        support = chamber_at(sample)
        coeffs, walls = piece_for(support)
        left, right = lo, hi
        for root, slope_sign in walls:
            if root <= sample and slope_sign > 0:
                left = max(left, root)
            if root >= sample and slope_sign < 0:
                right = min(right, root)
        emit(lo, max(left, lo), out)
        out.append((max(left, lo), min(right, hi), coeffs))
        emit(min(right, hi), hi, out)

    segments: list = []
    emit(F(0), F(reach), segments)
    segments.sort(key=lambda s: s[0])
    breakpoints = [F(0)]
    pieces = []
    for lo, hi, coeffs in segments:
        if pieces and coeffs == pieces[-1]:
            breakpoints[-1] = hi  # merge identical neighbours
            continue
        if lo != breakpoints[-1]:
            raise ConeError(f"volume function pieces leave a gap at {breakpoints[-1]}")
        breakpoints.append(hi)
        pieces.append(coeffs)
    return breakpoints, pieces


def fm_project_out(p, coord):
    """Fourier-Motzkin elimination of one coordinate, without pruning."""
    rows = [(h.normal, h.offset) for h in p.halfspaces if h.normal[coord] == 0]
    for hp in p.halfspaces:
        for hn in p.halfspaces:
            cp, cn = hp.normal[coord], -hn.normal[coord]
            if cp > 0 and cn > 0:  # cn*hp + cp*hn kills the coordinate
                rows.append(([cn * a + cp * b for a, b in zip(hp.normal, hn.normal)],
                             cn * hp.offset + cp * hn.offset))
    out = []
    for normal, offset in rows:
        normal = tuple(x for i, x in enumerate(normal) if i != coord)
        if any(normal):
            out.append(Halfspace(normal, offset))
        elif offset > 0:
            raise ValueError("the projection is empty")
    return Polyhedron(p.dim - 1, out)


def fm_slide(p, direction):
    """{x - t*direction : x in p, t >= 0}: lift by t, then eliminate t."""
    rows = [Halfspace(h.normal + (sum(a * b for a, b in zip(h.normal, direction)),),
                      h.offset) for h in p.halfspaces]
    rows.append(Halfspace((0,) * p.dim + (1,), F(0)))
    return fm_project_out(Polyhedron(p.dim + 1, rows), p.dim)


def rows(p):
    """The halfspaces of a polyhedron as (normal, offset) LP rows."""
    return [(h.normal, h.offset) for h in p.halfspaces]


def contains_polyhedron(outer, inner):
    """Point-set containment inner <= outer, decided by one LP per halfspace."""
    for h in outer.halfspaces:
        res = solve_lp(h.normal, rows(inner), "min")
        if res.status == "infeasible":
            return True
        if res.status == "unbounded" or res.value < h.offset:
            return False
    return True


def same_set(p, q):
    return contains_polyhedron(p, q) and contains_polyhedron(q, p)


def lp_cap(inner, outer, w):
    """The cap w <= c over outer minus inner, by two LPs per inner halfspace:
    the largest LP value of w over outer n {not h}, for the halfspaces h
    whose minimum over outer falls below their offset; None when there are
    none."""
    best = None
    for h in inner.halfspaces:
        low = solve_lp(h.normal, rows(outer), "min")
        if low.is_optimal and low.value >= h.offset:
            continue
        res = solve_lp(w, rows(outer) + [(tuple(-x for x in h.normal), -h.offset)], "max")
        if not res.is_optimal:
            raise ValueError(f"capping LP is {res.status}")
        best = res.value if best is None else max(best, res.value)
    return best


def lp_has_positive_functional(rays, dim):
    """Whether some w has <w, r> >= 1 on every ray: LP feasibility."""
    return solve_lp([0] * dim, [(r, F(1)) for r in rays]).is_optimal


def psef_lp(lattice, a, h, sense="max"):
    """Optimize t subject to a + t*h in the cone of the lattice's
    `psef_generators`, by exact LP.

    The variables are t and a non-negative weight per generator.  With
    h = 0 the LP is unbounded when a is pseudo-effective and infeasible
    when it is not.
    """
    gens = lattice.psef_generators
    k = len(gens)
    lp_rows = []
    for coord in range(lattice.rank):
        coeffs = (F(h[coord]),) + tuple(-g[coord] for g in gens)
        lp_rows.append((coeffs, -F(a[coord])))
        lp_rows.append((tuple(-c for c in coeffs), F(a[coord])))
    for i in range(k):
        unit = (0,) + tuple(1 if j == i else 0 for j in range(k))
        lp_rows.append((unit, F(0)))
    return solve_lp((1,) + (0,) * k, lp_rows, sense)


def _poly_trim(p):
    """Coefficients (low to high) without trailing zeros."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p):
    return _poly_trim([(j + 1) * c for j, c in enumerate(p[1:])])


def _poly_divmod(p, q):
    """Quotient and remainder of p by a nonzero trimmed q, over Q."""
    p = list(p)
    quot = [F(0)] * max(len(p) - len(q) + 1, 0)
    for k in reversed(range(len(quot))):
        quot[k] = p[k + len(q) - 1] / q[-1]
        for j, c in enumerate(q):
            p[k + j] -= quot[k] * c
    return quot, _poly_trim(p[:len(q) - 1])


def _sturm_sequence(p):
    """Signed remainder sequence of the square-free part of nonzero p.

    For a < b, the sign changes at a minus those at b count the distinct
    roots of p in (a, b], whether or not a or b is a root.
    """
    g, r = p, _poly_deriv(p)
    while r:
        g, r = r, _poly_divmod(g, r)[1]
    seq = [_poly_divmod(p, g)[0]]
    r = _poly_deriv(seq[0])
    while r:
        seq.append(r)
        r = [-c for c in _poly_divmod(seq[-2], r)[1]]
    return seq


def _sign_changes(seq, t):
    signs = [v > 0 for v in (_poly_eval(f, t) for f in seq) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def is_nonincreasing(pp) -> bool:
    """Whether each piece's derivative is <= 0 on its interval, exactly.

    A Sturm sequence counts the distinct roots of the derivative in an
    open interval.  Bisection tests the sign at one point of every gap
    between roots: an interval without roots by its midpoint, and one
    with a single root and non-root ends by its two ends.
    """
    for i, piece in enumerate(pp.pieces):
        deriv = _poly_deriv(piece)
        if not deriv:
            continue
        seq = _sturm_sequence(deriv)
        stack = [(pp.breakpoints[i], pp.breakpoints[i + 1])]
        while stack:
            lo, hi = stack.pop()
            ends = [_poly_eval(deriv, lo), _poly_eval(deriv, hi)]
            roots = _sign_changes(seq, lo) - _sign_changes(seq, hi) - (ends[1] == 0)
            if roots == 1 and 0 not in ends:
                if any(v > 0 for v in ends):
                    return False
                continue
            mid = (lo + hi) / 2
            if _poly_eval(deriv, mid) > 0:
                return False
            if roots:
                stack += [(lo, mid), (mid, hi)]
    return True


def certified_cbrt_gap(x, y, z, scale=10 ** 9):
    """Enclosures of x^(1/3)+y^(1/3) and z^(1/3) at width 1/scale each.

    Returns ((lo, hi), (lo, hi)); a caller proves strict inequality by
    comparing the intervals.
    """
    xl, xh = nth_root_bounds(x, 3, scale * 2)
    yl, yh = nth_root_bounds(y, 3, scale * 2)
    zl, zh = nth_root_bounds(z, 3, scale)
    return ((xl + yl, xh + yh), (zl, zh))


def reference_power(ideal, p):
    """The p-th power from scratch: minimalized p-fold sums of generators,
    refused before any is built when C(k+p-1, p), their number for k
    generators, passes GENERATOR_LIMIT."""
    if p < 1:
        raise ValueError("power must be >= 1")
    k = len(ideal.generators)
    raw_count = 1
    for i in range(1, p + 1):
        raw_count = raw_count * (k + i - 1) // i
    if raw_count > GENERATOR_LIMIT:
        raise GeneratorBlowup(f"{raw_count} candidate generators at power {p}")
    sums = {
        tuple([sum(col) for col in zip(*combo)])
        for combo in combinations_with_replacement(ideal.generators, p)
    }
    return MonomialIdeal(sums, ideal.ambient)


def contains_exponent(ideal, u):
    """Whether u lies in some generator's translate of the ambient cone."""
    return any(all(dot(f, u) >= dot(f, g) for f in ideal.facets)
               for g in ideal.generators)


def dual_polyhedron(cone):
    """The dual cone as a polyhedron {u : <u, g> >= 0 for all generators}."""
    return Polyhedron(cone.dim, [Halfspace(g, F(0)) for g in cone.generators])


def scaled_divisor(d, m):
    """The toric divisor m*D."""
    return ToricDivisor(d.datum, tuple(F(m) * c for c in d.coeffs))


def interior_indices(datum):
    return [i for i, k in enumerate(datum.kinds) if k == INTERIOR]


def permuted(graph, perm):
    """The dual graph with vertex perm[i] relabelled i."""
    inv = {old: new for new, old in enumerate(perm)}
    verts = [graph.vertices[old] for old in perm]
    edges = [(inv[i], inv[j], mult) for i, j, mult in graph.edges]
    return DualGraph(verts, edges)
