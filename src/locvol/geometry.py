"""Exact rational polyhedral kernel.

H-representations over the rationals are primary.  Rank, determinant and
linear solves come from the one elimination core in locvol.linalg.
Vertex enumeration and facet enumeration both run through one
double-description routine on cones, whose adjacency test is combinatorial:
a pair of rays is adjacent iff no third ray is tight on all rows both are
tight on.  It is the kernel's only polyhedral algorithm: no coordinate is
eliminated, no row is dropped and no linear program is solved, so a
polyhedron may carry rows the others imply, which change no set, volume
or count.  A pass that would build more than RAY_LIMIT candidate rays
raises RayBudget before it builds any.  Volumes of bounded regions come
from a recursive boundary-fan triangulation with exact determinants;
volumes and lattice-point counts of bounded differences of nested
unbounded polyhedra are obtained by capping with a halfspace that is
strictly positive on the common recession cone, at a height read off the
vertices of bounded pieces.

Lattice points are found by one slice scan on Python ints.  A slice fixes
the first n-2 coordinates; in the plane left over, every row is a line
bounding the last coordinate from below or above, or a bound on the other
one.  The points of a slice lie between the least upper and the greatest
lower line over an x-range given exactly by the pairs of lines, so a slice
is counted by a few floor sums, each O(log) by Euclid's algorithm, and
enumerated by evaluating the two envelopes at each x.  A difference count
is N(O) - N(O and I).  A box of more than FIBRE_LIMIT fibres (lines along
the last coordinate) raises LatticeBudget before any slice is visited, and
an enumeration of more than POINT_LIMIT points raises it before any point
is built.  numpy is never loaded.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import factorial, ceil, floor, prod

from . import LocvolError
# solve_linear is bound here, unused, because perfbench/tracing.py targets
# locvol.geometry.{mat_rank,solve_linear}; rebinding the shared function
# object rewrites the bindings in linalg and in every module importing it
from .linalg import (  # noqa: F401
    _bareiss,
    clear_denominators,
    dot,
    mat_det,
    mat_rank,
    primitive,
    solve_linear,
    vec_gcd,
)


class GeometryError(LocvolError):
    """Base class for polyhedral kernel failures."""


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
# double description: extreme rays of {x : <row, x> >= 0}
# ---------------------------------------------------------------------------

RAY_LIMIT = 1 << 16  # candidate rays (pos x neg pairs) one DD pass may build


class RayBudget(GeometryError):
    """A double-description pass would build more than RAY_LIMIT candidate rays."""


def cone_extreme_rays(rows, dim):
    """Extreme rays and lineality basis of the cone {x : <r, x> >= 0 for all r}.

    Rays are primitive integer vectors.  A maximal independent prefix of the
    rows is processed first, so it consumes the whole lineality space; after
    it, the rays are the extreme rays of a pointed cone modulo the lineality,
    and two of them are adjacent iff no third ray is tight on every row both
    are tight on (Fukuda & Prodon 1996).
    """
    rows = [primitive(clear_denominators(r)[0]) for r in rows]
    rows = [r for r in rows if any(r)]
    prefix, _, _ = _bareiss([list(col) for col in zip(*rows)])
    rows = [rows[i] for i in prefix] + [r for i, r in enumerate(rows) if i not in prefix]

    lin = [tuple([1 if j == i else 0 for j in range(dim)]) for i in range(dim)]
    rays = []  # list of (vector, tight bitmask over processed rows)

    for k, a in enumerate(rows):
        lvals = [dot(a, l) for l in lin]
        j0 = next((j for j, v in enumerate(lvals) if v != 0), None)
        if j0 is not None:
            l0 = lin[j0] if lvals[j0] > 0 else tuple([-x for x in lin[j0]])
            v0 = abs(lvals[j0])
            new_lin = []
            for j, l in enumerate(lin):
                if j == j0:
                    continue
                w = primitive([v0 * x - dot(a, l) * y for x, y in zip(l, l0)])
                new_lin.append(w)
            lin = new_lin
            new_rays = []
            for r, mask in rays:
                w = primitive([v0 * x - dot(a, r) * y for x, y in zip(r, l0)])
                new_rays.append((w, mask | (1 << k)))
            new_rays.append((l0, (1 << k) - 1))
            rays = _dedupe(new_rays)
            continue
        pos, zer, neg = [], [], []
        for r, mask in rays:
            v = dot(a, r)
            if v > 0:
                pos.append((r, mask, v))
            elif v < 0:
                neg.append((r, mask, v))
            else:
                zer.append((r, mask | (1 << k)))
        if not neg:
            rays = [(r, m) for r, m, _ in pos] + zer
            continue
        if not pos:
            rays = zer
            continue
        if len(pos) * len(neg) > RAY_LIMIT:
            raise RayBudget(f"a double-description pass would pair {len(pos)} with "
                            f"{len(neg)} rays, over the limit of {RAY_LIMIT} "
                            f"candidate rays")
        masks = [m for _, m in rays]
        combos = []
        for rp, mp, vp in pos:
            for rn, mn, vn in neg:
                common = mp & mn
                # the pair itself always qualifies; a third ray means the
                # pair spans more than an edge and the combination is not extreme
                if sum(m & common == common for m in masks) > 2:
                    continue
                w = primitive([vp * x - vn * y for x, y in zip(rn, rp)])
                combos.append((w, common | (1 << k)))
        rays = _dedupe([(r, m) for r, m, _ in pos] + zer + combos)
    return [r for r, _ in rays], lin


def _dedupe(rays):
    seen = {}
    for r, m in rays:
        if r in seen:
            seen[r] |= m
        else:
            seen[r] = m
    return list(seen.items())


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
# lattice points: 2-dim slices
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


def _floor_sum(n, m, a, b):
    """Sum of floor((a*i + b)/m) over 0 <= i < n, for n >= 0 and m >= 1.

    After a and b are reduced mod m the sum counts the lattice points under
    a segment, and exchanging the axes leaves the same sum with (m, a)
    replaced by (a, m): Euclid's algorithm, O(log m) steps on Python ints
    (Graham, Knuth & Patashnik, Concrete Mathematics, section 3.5).
    """
    total = 0
    while n:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def _envelope_sum(lines, x0, x1):
    """Sum over x0 <= x <= x1 of the least floor((a*x + c)/q) over the lines,
    which come in order of falling slope a/q.

    The least of the real lines is a concave envelope, and walking it from
    x0 the slope only falls: the lowest line at x (the flattest of a tie)
    stays lowest until a flatter line crosses it, so each piece of the
    envelope is one floor sum.
    """
    total, first = 0, 0
    while x0 <= x1:
        j = first
        a, c, q = lines[j]
        for i in range(first + 1, len(lines)):
            a2, c2, q2 = lines[i]
            if (a2 * x0 + c2) * q <= (a * x0 + c) * q2:
                j, a, c, q = i, a2, c2, q2
        end = x1
        for a2, c2, q2 in lines[j + 1:]:
            s = a * q2 - a2 * q
            if s > 0:  # (a*x + c)/q <= (a2*x + c2)/q2 while x*s <= c2*q - c*q2
                end = min(end, (c2 * q - c * q2) // s)
        total += _floor_sum(end - x0 + 1, q, a, a * x0 + c)
        x0, first = end + 1, j + 1
    return total


def _envelope_at(lines, x):
    return min((a * x + c) // q for a, c, q in lines)


def _slices(rows, lo, hi):
    """The rows a.x >= b on the box [lo, hi], cut into 2-dim slices.

    A slice fixes the prefix p of the first n-2 coordinates and leaves
    (x, y) = (x_{n-1}, x_n).  There a row reads alpha*x + beta*y >= r with
    r = b - a'.p: for beta > 0 it is the lower line -y <= (alpha*x - r)/beta,
    for beta < 0 the upper line y <= (alpha*x - r)/|beta|, and for beta = 0
    a bound on x; the box adds y >= lo and y <= hi as lines.  The slice's
    points are then -L(x) <= y <= U(x), where U and L are the least
    floor((alpha*x - r)/|beta|) over the upper and the lower lines.  Each
    pair of a lower and an upper line adds the bound on x under which the
    two real lines do not cross (Fourier-Motzkin elimination of y); where
    all such bounds hold, U + L + 1 >= 0, and where one fails, U + L + 1 <= 0.

    Yields (p, x0, x1, upper, lower) for every prefix in lexicographic
    order with a nonempty x-range [x0, x1]; a line is (alpha, -r, |beta|),
    and each group comes in order of falling slope.  Dimension 1 is one
    slice, x_1 being x and y a last coordinate pinned to 0.
    """
    rows = [(tuple(a), b) for a, b in rows]
    if len(lo) == 1:
        rows = [(a + (0,), b) for a, b in rows]
        lo, hi = [lo[0], 0], [hi[0], 0]
    k = len(lo) - 2
    y_unit = (0,) * (k + 1)
    rows = dict.fromkeys(rows + [(y_unit + (1,), lo[-1]), (y_unit + (-1,), -hi[-1])])
    falling = lambda row: Fraction(-row[0][k], abs(row[0][-1]))
    lower = sorted((r for r in rows if r[0][-1] > 0), key=falling)
    upper = sorted((r for r in rows if r[0][-1] < 0), key=falling)
    flat = [r for r in rows if not r[0][-1]]
    for ai, bi in lower:
        for aj, bj in upper:
            qi, qj = ai[-1], -aj[-1]
            flat.append((tuple([qj * u + qi * v for u, v in zip(ai, aj)]), qj * bi + qi * bj))
    flat = list(dict.fromkeys(flat))
    bounds = [a[k] for a, _ in flat]
    slopes = [(a[k], abs(a[-1])) for a, _ in upper + lower]
    nf, nu = len(flat), len(upper)
    for prefix, offsets in _prefix_offsets(flat + upper + lower, lo, hi, k):
        x0, x1 = lo[k], hi[k]
        for alpha, r in zip(bounds, offsets):
            if alpha > 0:
                x0 = max(x0, -(-r // alpha))
            elif alpha < 0:
                x1 = min(x1, r // alpha)
            elif r > 0:
                x1 = x0 - 1
                break
        if x0 <= x1:
            lines = [(alpha, -r, q) for (alpha, q), r in zip(slopes, offsets[nf:])]
            yield prefix, x0, x1, lines[:nu], lines[nu:]


def _prefix_offsets(forms, lo, hi, k):
    """(p, [b - a.p for each form (a, b)]) over the prefixes p of the box's
    first k coordinates, in lexicographic order.  The last coordinate of p
    moves innermost, so one subtraction per form takes each step.
    """
    if not k:
        yield (), [b for _, b in forms]
        return
    step = [a[k - 1] for a, _ in forms]
    for head in product(*[range(lo[i], hi[i] + 1) for i in range(k - 1)]):
        offsets = [b - dot(a, head) - c * lo[k - 1] for (a, b), c in zip(forms, step)]
        for v in range(lo[k - 1], hi[k - 1] + 1):
            yield head + (v,), offsets
            offsets = [r - c for r, c in zip(offsets, step)]


def _count(rows, lo, hi):
    """Integer points of the box [lo, hi] satisfying every row, exactly."""
    return sum(_envelope_sum(upper, x0, x1) + _envelope_sum(lower, x0, x1) + x1 - x0 + 1
               for _, x0, x1, upper, lower in _slices(rows, lo, hi))


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
