"""Shared test references.

A symbolic check that the integrated double-cover volume equals the closed
form identically, modulo the threshold's defining quadratic relation;
Fourier-Motzkin elimination, the independent reference for the
double-description slides of `locvol.toric.saturate_region`; the exact
simplex, the independent reference for set equality and for the capping
values and positive functionals that `locvol.geometry` takes from double
description; and the checkers and accessors only tests use: an exact
Sturm-sequence monotonicity check of piecewise polynomials, cube-root
enclosures at a given width, ideal membership, the dual cone as a
polyhedron, the interior rays of a toric datum and relabelled dual graphs.
"""

from fractions import Fraction as F

from locvol.cone import _poly_eval
from locvol.exactnum import nth_root_bounds
from locvol.geometry import Halfspace, Polyhedron
from locvol.linalg import dot
from locvol.linprog import solve_lp
from locvol.surface import DualGraph
from locvol.toric import INTERIOR


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


def contains_polyhedron(outer, inner):
    """Point-set containment inner <= outer, decided by one LP per halfspace."""
    for h in outer.halfspaces:
        res = solve_lp(h.normal, inner.rows(), "min")
        if res.status == "infeasible":
            return True
        if res.status == "unbounded" or res.value < h.offset:
            return False
    return True


def same_set(p, q):
    return contains_polyhedron(p, q) and contains_polyhedron(q, p)


def lp_cap(inner, outer, w):
    """The cap w <= c over outer minus inner, by two LPs per inner halfspace:
    one plus the largest LP value of w over outer n {not h}, for the
    halfspaces h whose minimum over outer falls below their offset; None
    when there are none."""
    best = None
    for h in inner.halfspaces:
        low = solve_lp(h.normal, outer.rows(), "min")
        if low.is_optimal and low.value >= h.offset:
            continue
        res = solve_lp(w, outer.rows() + [(tuple(-x for x in h.normal), -h.offset)], "max")
        if not res.is_optimal:
            raise ValueError(f"capping LP is {res.status}")
        best = res.value if best is None else max(best, res.value)
    return None if best is None else best + 1


def lp_has_positive_functional(rays, dim):
    """Whether some w has <w, r> >= 1 on every ray: LP feasibility."""
    return solve_lp([0] * dim, [(r, F(1)) for r in rays]).is_optimal


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


def contains_exponent(ideal, u):
    """Whether u lies in some generator's translate of the ambient cone."""
    return any(all(dot(f, u) >= dot(f, g) for f in ideal.facets)
               for g in ideal.generators)


def dual_polyhedron(cone):
    """The dual cone as a polyhedron {u : <u, g> >= 0 for all generators}."""
    return Polyhedron(cone.dim, [Halfspace(g, F(0)) for g in cone.generators])


def interior_indices(datum):
    return [i for i, k in enumerate(datum.kinds) if k == INTERIOR]


def permuted(graph, perm):
    """The dual graph with vertex perm[i] relabelled i."""
    inv = {old: new for new, old in enumerate(perm)}
    verts = [graph.vertices[old] for old in perm]
    edges = [(inv[i], inv[j], mult) for i, j, mult in graph.edges]
    return DualGraph(verts, edges)
