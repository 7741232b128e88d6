"""Shared test references.

A symbolic check that the integrated double-cover volume equals the closed
form identically, modulo the threshold's defining quadratic relation;
Fourier-Motzkin elimination, the independent reference for the
double-description slides of `locvol.toric.saturate_region`; and the
exact simplex, the independent reference for set equality and for the
capping values and positive functionals that `locvol.geometry` takes from
double description.
"""

from fractions import Fraction as F

from locvol.geometry import Halfspace, Polyhedron
from locvol.linprog import solve_lp


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
