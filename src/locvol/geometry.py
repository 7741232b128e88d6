"""Exact rational polyhedral kernel.

H-representations over the rationals are primary.  Rank, determinant and
linear solves come from the one elimination core in locvol.linalg.
Vertex enumeration and facet enumeration both run through the one
double-description routine, locvol.dd.cone_extreme_rays.  It is the
kernel's only polyhedral algorithm: no coordinate is eliminated, no row is
dropped and no linear program is solved, so a polyhedron may carry rows
the others imply, which change no set, volume or count.  Volumes of
bounded regions come from a recursive boundary-fan triangulation with
exact determinants; volumes and lattice-point counts of bounded
differences of nested unbounded polyhedra are obtained by capping with a
halfspace that is strictly positive on the common recession cone, at a
height read off the vertices of bounded pieces.

Lattice points are counted and enumerated by the one slice scan,
locvol.lattice, over the integer rows and the integer box this module
reads off a polyhedron.  A difference count is N(O) - N(O and I).  A box
of more than FIBRE_LIMIT fibres (lines along the last coordinate) raises
LatticeBudget before any slice is visited, and an enumeration of more than
POINT_LIMIT points raises it before any point is built.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, ceil, floor, prod

from .dd import GeometryError, cone_extreme_rays
from .lattice import _count, _envelope_at, _slices
# solve_linear is bound here, unused, because perfbench/tracing.py targets
# locvol.geometry.{mat_rank,solve_linear}; rebinding the shared function
# object rewrites the bindings in linalg and in every module importing it
from .linalg import (  # noqa: F401
    clear_denominators,
    dot,
    mat_det,
    mat_rank,
    primitive,
    solve_linear,
    vec_gcd,
)


class EmptyPolyhedron(GeometryError):
    pass


class DimensionCap(GeometryError):
    pass


class Unbounded(GeometryError):
    pass


class RecessionMismatch(GeometryError):
    pass


class NotNested(GeometryError):
    pass


class NotPointed(GeometryError):
    pass


VERTEX_ENUM_MAX_DIM = 8


def affine_rank(points) -> int:
    """Dimension of the affine span of a point set."""
    pts = list(points)
    if len(pts) <= 1:
        return 0
    p0 = pts[0]
    return mat_rank([[x - y for x, y in zip(p, p0)] for p in pts[1:]])


# ---------------------------------------------------------------------------
# H-representation
# ---------------------------------------------------------------------------

class Halfspace:
    """Constraint <normal, x> >= offset with primitive integer normal."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset):
        ints, d = clear_denominators(normal)
        g = vec_gcd(ints)
        if g == 0:
            raise ValueError("zero normal in halfspace")
        self.normal = tuple([v // g for v in ints])
        self.offset = Fraction(offset) * d / g

    def holds(self, point) -> bool:
        return dot(self.normal, point) >= self.offset


VRep = namedtuple("VRep", "vertices rays")
VRep.__doc__ = "Minimal V-representation: vertices plus extreme recession rays."


class Polyhedron:
    """Immutable rational polyhedron in H-representation.

    Rows are Halfspaces or pairs (normal, offset), for <normal, x> >= offset.
    """

    __slots__ = ("dim", "halfspaces", "_vrep")

    def __init__(self, dim: int, halfspaces):
        if dim < 1:
            raise ValueError("dimension must be positive")
        best = {}  # first-seen order of the normals
        for h in halfspaces:
            if not isinstance(h, Halfspace):
                h = Halfspace(tuple(h[0]), h[1])
            if len(h.normal) != dim:
                raise ValueError("halfspace dimension mismatch")
            # same normal: keep only the tightest offset
            kept = best.get(h.normal)
            if kept is None or h.offset > kept.offset:
                best[h.normal] = h
        self.dim = dim
        self.halfspaces = tuple(best.values())
        self._vrep = None

    def __repr__(self):
        return f"Polyhedron(dim={self.dim}, {len(self.halfspaces)} halfspaces)"

    def contains(self, point) -> bool:
        return all(h.holds(point) for h in self.halfspaces)

    def scaled(self, m) -> "Polyhedron":
        """Dilation m*P for rational m > 0; a cached V-representation comes
        along as m times the vertices and the same rays."""
        m = Fraction(m)
        if m <= 0:
            raise ValueError("scale factor must be positive")
        q = Polyhedron(self.dim, [(h.normal, m * h.offset) for h in self.halfspaces])
        if self._vrep is not None:
            q._vrep = VRep(tuple([tuple([m * x for x in v]) for v in self._vrep.vertices]),
                           self._vrep.rays)
        return q

    def intersect(self, h) -> "Polyhedron":
        """The polyhedron cut by one more row: a Halfspace or a pair."""
        return Polyhedron(self.dim, self.halfspaces + (h,))

    # -- cached geometry --------------------------------------------------

    def vrep(self) -> VRep:
        if self._vrep is not None:
            return self._vrep
        if self.dim > VERTEX_ENUM_MAX_DIM:
            raise DimensionCap(f"vertex enumeration capped at dim {VERTEX_ENUM_MAX_DIM}")
        rows = [list(h.normal) + [-h.offset] for h in self.halfspaces]
        rows.append([0] * self.dim + [1])
        rays, lin = cone_extreme_rays(rows, self.dim + 1)
        verts, rec = [], []
        for r in rays:
            if r[-1] > 0:
                t = Fraction(r[-1])
                verts.append(tuple([Fraction(x) / t for x in r[:-1]]))
            elif r[-1] == 0:
                rec.append(primitive(r[:-1]))
        if not verts:
            raise EmptyPolyhedron("polyhedron has no points")
        if lin:
            raise NotPointed("polyhedron contains a line")
        self._vrep = VRep(tuple(sorted(verts)), tuple(sorted(rec)))
        return self._vrep


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def facets_from_generators(dim, vertices, rays):
    """Facet halfspaces of conv(vertices) + cone(rays), a full-dimensional hull."""
    ineqs = [list(v) + [1] for v in vertices] + [list(r) + [0] for r in rays]
    drays, dlin = cone_extreme_rays(ineqs, dim + 1)
    if any(any(u[:-1]) for u in dlin):
        raise GeometryError("hull is not full-dimensional")
    return [Halfspace(tuple(u[:-1]), Fraction(-u[-1])) for u in drays if any(u[:-1])]


def hull_polyhedron(dim, vertices, rays) -> Polyhedron:
    return Polyhedron(dim, facets_from_generators(dim, vertices, rays))


# ---------------------------------------------------------------------------
# volume of a bounded polyhedron
# ---------------------------------------------------------------------------

def volume_bounded(p: Polyhedron) -> Fraction:
    """Exact Euclidean volume of a bounded polyhedron (unit cube = 1).

    Boundary facets are fanned from one vertex recursively; each resulting
    simplex contributes |det|/n!.  Lower-dimensional regions have volume 0.
    """
    vr = p.vrep()
    if vr.rays:
        raise Unbounded("recession cone is nontrivial")
    verts = list(vr.vertices)
    n = p.dim
    if len(verts) < n + 1 or affine_rank(verts) < n:
        return Fraction(0)
    tight = []
    for h in p.halfspaces:
        idx = frozenset(
            i for i, v in enumerate(verts) if dot(h.normal, v) == h.offset
        )
        tight.append(idx)
    total = Fraction(0)
    for simplex in _fan_simplices(frozenset(range(len(verts))), tight, verts, n):
        pts = [verts[i] for i in simplex]
        rows = [[x - y for x, y in zip(q, pts[0])] for q in pts[1:]]
        total += abs(mat_det(rows))
    return total / factorial(n)


def _fan_simplices(face, tight, verts, d):
    """Yield d-simplices (as index tuples) triangulating the given face."""
    members = sorted(face)
    if len(members) == d + 1:
        yield tuple(members)
        return
    apex = members[0]
    seen = set()
    for t in tight:
        sub = face & t
        if apex in sub or sub in seen or len(sub) < d:
            continue
        if affine_rank([verts[i] for i in sub]) != d - 1:
            continue
        seen.add(sub)
        for s in _fan_simplices(sub, tight, verts, d - 1):
            yield (apex,) + s


# ---------------------------------------------------------------------------
# bounded differences of nested polyhedra
# ---------------------------------------------------------------------------

def positive_functional(rec_rays, dim):
    """Integer w with <w, r> > 0 on every recession ray, preferring sum of rays.

    Otherwise w is the sum of the extreme rays of the dual cone
    {x : <r, x> >= 0 for all r}, from double description.  Each of them is
    >= 0 on every r, so <w, r> = 0 only if r is orthogonal to all of them;
    r lies in the span of the rays, so it is orthogonal to the dual's
    lineality space too, and hence to the whole dual cone.  The dual of a
    pointed cone is full-dimensional, even when the cone is not, so then
    no nonzero r is orthogonal to it and w is strictly positive.  A cone
    that is not pointed has no positive functional at all.
    """
    w = tuple([sum(r[i] for r in rec_rays) for i in range(dim)])
    if all(dot(w, r) > 0 for r in rec_rays):
        return w
    # skew recession cone: the sum of the dual's extreme rays is interior
    dual, _ = cone_extreme_rays(rec_rays, dim)
    w = tuple([sum(u[i] for u in dual) for i in range(dim)])
    if not all(dot(w, r) > 0 for r in rec_rays):
        raise NotPointed("recession cone admits no positive functional")
    return w


def _check_nested(inner: Polyhedron, outer: Polyhedron):
    if inner.dim != outer.dim:
        raise ValueError("dimension mismatch")
    vr = inner.vrep()
    for v in vr.vertices:
        if not outer.contains(v):
            raise NotNested(f"inner vertex {v} escapes the outer polyhedron")
    for r in vr.rays:
        for h in outer.halfspaces:
            if dot(h.normal, r) < 0:
                raise NotNested(f"inner ray {r} escapes the outer polyhedron")
    rec = outer.vrep().rays
    if set(vr.rays) != set(rec):
        raise RecessionMismatch(
            "recession cones differ; the difference would have infinite volume"
        )
    return rec


def _difference_cap(inner: Polyhedron, outer: Polyhedron):
    """Capping data (w, best) for outer \\ inner, or None if no cap is needed.

    w is strictly positive on the common recession cone and best is the
    largest w-value on the closure of the difference.  An inner halfspace h
    is nonnegative on that cone, so outer escapes it only if some vertex of
    outer does.  Then outer n {not h} is bounded, h being strictly positive
    on the cone, and w is largest there at one of its vertices.  Capping at
    best keeps inner n {w <= best} nonempty: on a segment from a point of
    the difference to a point of inner, the first point of inner is a limit
    of points of the difference, so w <= best there.
    """
    rec = _check_nested(inner, outer)
    if not rec:
        return None  # both bounded; no cap needed
    w = positive_functional(rec, inner.dim)
    outer_vertices = outer.vrep().vertices
    best = None
    for h in inner.halfspaces:
        if all(h.holds(v) for v in outer_vertices):
            continue  # outer satisfies this constraint; nothing escapes here
        if not all(dot(h.normal, r) > 0 for r in rec):
            raise Unbounded(
                "difference region is unbounded (violated halfspace is not "
                "strictly positive on the recession cone)"
            )
        piece = outer.intersect(Halfspace(tuple([-x for x in h.normal]), -h.offset))
        top = max(dot(w, v) for v in piece.vrep().vertices)
        best = top if best is None else max(best, top)
    if best is None:
        return None
    return (w, best)


def _cap_halfspace(w, c):
    return Halfspace(tuple([-x for x in w]), -Fraction(c))


def volume_of_difference(inner: Polyhedron, outer: Polyhedron) -> Fraction:
    """Exact volume of outer \\ inner for nested polyhedra with equal recession."""
    cap = _difference_cap(inner, outer)
    if cap is None:
        if inner.vrep().rays:
            return Fraction(0)
        return volume_bounded(outer) - volume_bounded(inner)
    h = _cap_halfspace(*cap)
    return volume_bounded(outer.intersect(h)) - volume_bounded(inner.intersect(h))


# ---------------------------------------------------------------------------
# lattice points: boxes and budgets around the slice scan
# ---------------------------------------------------------------------------

FIBRE_LIMIT = 1 << 24   # fibres (lines along the last coordinate) one box may span
POINT_LIMIT = 1 << 20   # points one enumeration may return


class LatticeBudget(GeometryError):
    """A lattice scan would exceed FIBRE_LIMIT, or an enumeration POINT_LIMIT."""


def _integer_constraints(p: Polyhedron, m=1):
    """Integer rows (a, b) whose solutions in Z^n are the lattice points of m*P.

    Normals are integral, so a.x >= m*offset holds on Z^n exactly when
    a.x >= ceil(m*offset).
    """
    return [(h.normal, ceil(m * h.offset)) for h in p.halfspaces]


def _box_of(p: Polyhedron, m=1):
    """Integer coordinate bounds (lo, hi) of the lattice points of m*P, for
    a bounded polyhedron P."""
    vr = p.vrep()
    if vr.rays:
        raise Unbounded("cannot box an unbounded polyhedron")
    coords = list(zip(*vr.vertices))
    return [ceil(m * min(c)) for c in coords], [floor(m * max(c)) for c in coords]


def _fibre_count(lo, hi):
    """Number of fibres of the box [lo, hi]; LatticeBudget past FIBRE_LIMIT."""
    fibres = prod(max(0, h - l + 1) for l, h in zip(lo[:-1], hi[:-1]))
    if fibres > FIBRE_LIMIT:
        raise LatticeBudget(
            f"lattice scan needs {fibres} fibres; the limit is {FIBRE_LIMIT}"
        )
    return fibres


def count_lattice_points(outer_rows, inner_rows, lo, hi):
    """Integer points in the box satisfying outer but not inner, exactly.

    That is N(outer) - N(outer and inner), each N a sum over 2-dim slices.
    """
    _fibre_count(lo, hi)
    return _count(outer_rows, lo, hi) - _count(list(outer_rows) + list(inner_rows), lo, hi)


def lattice_points(p: Polyhedron):
    """All integer points of a bounded polyhedron, sorted, as int tuples.

    The points are counted first, so an enumeration past POINT_LIMIT raises
    LatticeBudget before any is built.
    """
    try:
        lo, hi = _box_of(p)
    except EmptyPolyhedron:
        return []
    rows = _integer_constraints(p)
    _fibre_count(lo, hi)
    total = _count(rows, lo, hi)
    if total > POINT_LIMIT:
        raise LatticeBudget(
            f"enumeration needs {total} points; the limit is {POINT_LIMIT}"
        )
    points = []
    for prefix, x0, x1, upper, lower in _slices(rows, lo, hi):
        for x in range(x0, x1 + 1):
            head = prefix + (x,)
            ys = range(-_envelope_at(lower, x), _envelope_at(upper, x) + 1)
            points.extend(head + (y,) for y in ys)
    if p.dim == 1:  # drop the last coordinate _slices pins to 0
        return [pt[:1] for pt in points]
    return points


def lattice_difference_counts(inner: Polyhedron, outer: Polyhedron, scales):
    """Numbers of integer points in (m*outer) \\ (m*inner) for each m in scales,
    an increasing sequence of positive integers.

    The geometry is built once, at scale 1.  Nestedness, the recession rays
    and w do not depend on m, and the cap scales linearly: the level-m
    difference has w <= m*best, where best is the cap of the scale-1
    difference.  So m times outer n {w <= best} holds every level's
    difference, and any box that does gives the same count.
    """
    if not scales:
        return []
    if scales[0] < 1:
        raise ValueError("scale must be a positive integer")
    cap = _difference_cap(inner, outer)
    if cap is None:
        if inner.vrep().rays:
            return [0] * len(scales)
        region = outer
    else:
        region = outer.intersect(_cap_halfspace(*cap))
    _fibre_count(*_box_of(region, scales[-1]))  # fail before counting any level
    return [
        count_lattice_points(_integer_constraints(outer, m),
                             _integer_constraints(inner, m), *_box_of(region, m))
        for m in scales
    ]
