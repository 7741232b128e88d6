"""Exact rational polyhedral kernel.

H-representations over the rationals are primary.  Rank, determinant and
linear solves share one fraction-free Gauss-Jordan elimination (Bareiss) on
Python ints, after each row is scaled by the lcm of its denominators.
Vertex enumeration and facet enumeration both run through one
double-description routine on cones, whose adjacency test is combinatorial:
a pair of rays is adjacent iff no third ray is tight on all rows both are
tight on.  Volumes of bounded regions come from a recursive boundary-fan
triangulation with exact determinants; volumes and lattice-point counts of
bounded differences of nested unbounded polyhedra are obtained by capping
with a halfspace that is strictly positive on the common recession cone.

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
from math import factorial, gcd, ceil, floor, lcm, prod

from .linprog import LPResult, solve_lp


class GeometryError(Exception):
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


# ---------------------------------------------------------------------------
# small exact linear algebra: one fraction-free elimination core
# ---------------------------------------------------------------------------

def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        return tuple(0 for _ in v)
    return tuple(int(x) // g for x in v)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def clear_denominators(row):
    """The rational row times the lcm d of its denominators, as ints, and d."""
    row = [Fraction(x) for x in row]
    d = lcm(*[x.denominator for x in row])
    return [x.numerator * (d // x.denominator) for x in row], d


def _bareiss(a):
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    Returns (pivot columns, last pivot, sign of the row swaps).  Every entry
    stays a minor of the input, so each division by the previous pivot is
    exact (Bareiss 1968).  Afterwards the first r = len(pivot columns) rows
    are the reduced row echelon form times the last pivot, and the other rows
    are zero; for a nonsingular square matrix the last pivot is sign * det.
    """
    cols, prev, sign = [], 1, 1
    for c in range(len(a[0]) if a else 0):
        r = len(cols)
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        piv, top = a[r][c], a[r]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        cols.append(c)
        prev = piv
    return cols, prev, sign


def mat_rank(rows) -> int:
    return len(_bareiss([clear_denominators(r)[0] for r in rows])[0])


def mat_det(rows) -> Fraction:
    scaled = [clear_denominators(r) for r in rows]
    cols, last, sign = _bareiss([r for r, _ in scaled])
    if len(cols) < len(scaled):
        return Fraction(0)
    return Fraction(sign * last, prod(d for _, d in scaled))


def solve_linear(rows, rhs):
    """Solve a square nonsingular rational system exactly."""
    n = len(rows)
    aug = [clear_denominators(list(r) + [b])[0] for r, b in zip(rows, rhs)]
    cols, last, _ = _bareiss(aug)
    if cols != list(range(n)):
        raise ValueError("singular system")
    return tuple([Fraction(row[n], last) for row in aug])


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

    lin = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays = []  # list of (vector, tight bitmask over processed rows)

    for k, a in enumerate(rows):
        lvals = [dot(a, l) for l in lin]
        j0 = next((j for j, v in enumerate(lvals) if v != 0), None)
        if j0 is not None:
            l0 = lin[j0] if lvals[j0] > 0 else tuple(-x for x in lin[j0])
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
        self.normal = tuple(v // g for v in ints)
        self.offset = Fraction(offset) * d / g

    def holds(self, point) -> bool:
        return dot(self.normal, point) >= self.offset

    def scaled(self, m) -> "Halfspace":
        return Halfspace(self.normal, self.offset * Fraction(m))


VRep = namedtuple("VRep", "vertices rays")
VRep.__doc__ = "Minimal V-representation: vertices plus extreme recession rays."


class Polyhedron:
    """Immutable rational polyhedron in H-representation."""

    def __init__(self, dim: int, halfspaces):
        if dim < 1:
            raise ValueError("dimension must be positive")
        hs = []
        best = {}
        for h in halfspaces:
            if not isinstance(h, Halfspace):
                h = Halfspace(tuple(h[0]), h[1])
            if len(h.normal) != dim:
                raise ValueError("halfspace dimension mismatch")
            # same normal: keep only the tightest offset
            if h.normal in best:
                best[h.normal] = max(best[h.normal], h.offset)
            else:
                best[h.normal] = h.offset
                hs.append(h.normal)
        self.dim = dim
        self.halfspaces = tuple(Halfspace(n, best[n]) for n in hs)
        self._cache = {}

    @classmethod
    def from_inequalities(cls, dim, rows):
        """rows: iterable of (normal, offset) meaning <normal, x> >= offset."""
        return cls(dim, [Halfspace(tuple(n), b) for n, b in rows])

    @classmethod
    def orthant(cls, dim):
        unit = lambda i: tuple(1 if j == i else 0 for j in range(dim))
        return cls(dim, [Halfspace(unit(i), Fraction(0)) for i in range(dim)])

    def __repr__(self):
        return f"Polyhedron(dim={self.dim}, {len(self.halfspaces)} halfspaces)"

    def rows(self):
        return [(h.normal, h.offset) for h in self.halfspaces]

    def contains(self, point) -> bool:
        return all(h.holds(point) for h in self.halfspaces)

    def scaled(self, m) -> "Polyhedron":
        """Dilation m*P for rational m > 0."""
        m = Fraction(m)
        if m <= 0:
            raise ValueError("scale factor must be positive")
        return Polyhedron(self.dim, [h.scaled(m) for h in self.halfspaces])

    def intersect(self, other) -> "Polyhedron":
        if isinstance(other, Polyhedron):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            extra = other.halfspaces
        else:
            extra = [other if isinstance(other, Halfspace) else Halfspace(*other)]
        return Polyhedron(self.dim, list(self.halfspaces) + list(extra))

    # -- cached geometry --------------------------------------------------

    def is_empty(self) -> bool:
        if "empty" not in self._cache:
            res = solve_lp([0] * self.dim, self.rows())
            self._cache["empty"] = not res.is_optimal and res.status == "infeasible"
        return self._cache["empty"]

    def vrep(self) -> VRep:
        if "vrep" in self._cache:
            return self._cache["vrep"]
        if self.dim > VERTEX_ENUM_MAX_DIM:
            raise DimensionCap(f"vertex enumeration capped at dim {VERTEX_ENUM_MAX_DIM}")
        rows = [list(h.normal) + [-h.offset] for h in self.halfspaces]
        rows.append([0] * self.dim + [1])
        rays, lin = cone_extreme_rays(rows, self.dim + 1)
        verts, rec = [], []
        for r in rays:
            if r[-1] > 0:
                t = Fraction(r[-1])
                verts.append(tuple(Fraction(x) / t for x in r[:-1]))
            elif r[-1] == 0:
                rec.append(primitive(r[:-1]))
        if not verts:
            raise EmptyPolyhedron("polyhedron has no points")
        if lin:
            raise NotPointed("polyhedron contains a line")
        vr = VRep(tuple(sorted(verts)), tuple(sorted(rec)))
        self._cache["vrep"] = vr
        return vr

    def recession_rays(self) -> tuple[tuple[int, ...], ...]:
        """Extreme rays of the recession cone (must be pointed)."""
        if "rec" in self._cache:
            return self._cache["rec"]
        rays, lin = cone_extreme_rays([h.normal for h in self.halfspaces], self.dim)
        if lin:
            raise NotPointed("recession cone contains a line")
        rec = tuple(sorted(primitive(r) for r in rays))
        self._cache["rec"] = rec
        return rec

    def pruned(self) -> "Polyhedron":
        """Drop halfspaces implied by the others (one LP per halfspace)."""
        if self.is_empty():
            return self
        keep = list(self.halfspaces)
        i = 0
        while i < len(keep):
            h = keep[i]
            others = keep[:i] + keep[i + 1:]
            res = solve_lp(h.normal, [(g.normal, g.offset) for g in others], "min")
            if res.is_optimal and res.value >= h.offset:
                keep.pop(i)
            else:
                i += 1
        return Polyhedron(self.dim, keep)

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        """Point-set containment other <= self, decided by LP per halfspace."""
        for h in self.halfspaces:
            res = solve_lp(h.normal, other.rows(), "min")
            if res.status == "infeasible":
                return True
            if res.status == "unbounded" or res.value < h.offset:
                return False
        return True

    def same_set(self, other: "Polyhedron") -> bool:
        return self.contains_polyhedron(other) and other.contains_polyhedron(self)


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def vertex_enumerate(p: Polyhedron) -> VRep:
    """Exact minimal V-representation of a nonempty polyhedron (dim <= 8)."""
    return p.vrep()


def facets_from_generators(dim, vertices, rays):
    """H-representation of conv(vertices) + cone(rays), as Halfspace list.

    Lower-dimensional hulls yield pairs of opposite halfspaces for the
    affine span's equations.
    """
    ineqs = [list(v) + [1] for v in vertices] + [list(r) + [0] for r in rays]
    drays, dlin = cone_extreme_rays(ineqs, dim + 1)
    out = []
    for u in drays:
        if any(u[:-1]):
            out.append(Halfspace(tuple(u[:-1]), Fraction(-u[-1])))
    for u in dlin:
        if any(u[:-1]):
            out.append(Halfspace(tuple(u[:-1]), Fraction(-u[-1])))
            out.append(Halfspace(tuple(-x for x in u[:-1]), Fraction(u[-1])))
    return out


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
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

def _fm_rows(rows, coord):
    """Eliminate one coordinate from integer rows (normal, offset)."""
    pos, neg, zer = [], [], []
    for n, b in rows:
        c = n[coord]
        if c > 0:
            pos.append((n, b, c))
        elif c < 0:
            neg.append((n, b, c))
        else:
            zer.append((n, b))
    out = [(tuple(x for i, x in enumerate(n) if i != coord), b) for n, b in zer]
    for np_, bp, cp in pos:
        for nn, bn, cn in neg:
            # cp > 0 > cn: (-cn)*pos + cp*neg kills the coordinate
            n = [-cn * a + cp * b for a, b in zip(np_, nn)]
            b = -cn * bp + cp * bn
            n = tuple(x for i, x in enumerate(n) if i != coord)
            if any(n):
                out.append((n, b))
            elif b > 0:
                out.append((tuple(n), b))  # 0 >= b > 0: infeasible marker
    return out


def project_out(p: Polyhedron, coord: int) -> Polyhedron:
    """Exact Fourier-Motzkin elimination of one coordinate (dim drops by 1)."""
    if p.dim < 2:
        raise ValueError("cannot project below dimension 1")
    if not 0 <= coord < p.dim:
        raise ValueError("coordinate out of range")
    rows = [(h.normal, h.offset) for h in p.halfspaces]
    out = _fm_rows(rows, coord)
    infeasible = [r for r in out if not any(r[0])]
    if infeasible:
        unit = (1,) + (0,) * (p.dim - 2)
        return Polyhedron(p.dim - 1, [Halfspace(unit, Fraction(1)),
                                      Halfspace(tuple(-x for x in unit), Fraction(1))])
    out = [r for r in out if any(r[0])]
    if not out:
        return Polyhedron(p.dim - 1, [])  # projection is all of R^(dim-1)
    return Polyhedron.from_inequalities(p.dim - 1, out).pruned()


def eliminate_direction(p: Polyhedron, direction) -> Polyhedron:
    """Trace of sliding P along -direction: {x - t*direction : x in P, t >= 0}."""
    direction = tuple(int(x) for x in direction)
    rows = []
    for h in p.halfspaces:
        rows.append((h.normal + (dot(h.normal, direction),), h.offset))
    rows.append(((0,) * p.dim + (1,), Fraction(0)))
    lifted = Polyhedron.from_inequalities(p.dim + 1, rows)
    return project_out(lifted, p.dim)


# ---------------------------------------------------------------------------
# bounded differences of nested polyhedra
# ---------------------------------------------------------------------------

def lp_optimize(objective, p: Polyhedron, sense: str = "max") -> LPResult:
    """Exact optimum of a linear functional over a polyhedron."""
    return solve_lp(objective, p.rows(), sense)


def positive_functional(rec_rays, dim):
    """Integer w with <w, r> > 0 on every recession ray, preferring sum of rays."""
    w = tuple(sum(r[i] for r in rec_rays) for i in range(dim))
    if all(dot(w, r) > 0 for r in rec_rays):
        return w
    # skew recession cone: any interior point of the dual cone works
    rows = [(r, Fraction(1)) for r in rec_rays]
    res = solve_lp([0] * dim, rows)
    if not res.is_optimal:
        raise NotPointed("recession cone admits no positive functional")
    fr = [Fraction(x) for x in res.point]
    lcm = 1
    for x in fr:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    return primitive([int(x * lcm) for x in fr])


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
    rec_in, rec_out = inner.recession_rays(), outer.recession_rays()
    if set(rec_in) != set(rec_out):
        raise RecessionMismatch(
            "recession cones differ; the difference would have infinite volume"
        )
    return rec_out


def _difference_cap(inner: Polyhedron, outer: Polyhedron):
    """Capping data (w, c) covering outer \\ inner, or None if difference empty.

    w is strictly positive on the common recession cone and c exceeds the
    w-value of every point of the difference.
    """
    rec = _check_nested(inner, outer)
    if not rec:
        return None  # both bounded; no cap needed
    w = positive_functional(rec, inner.dim)
    best = None
    for h in inner.halfspaces:
        low = solve_lp(h.normal, outer.rows(), "min")
        if low.is_optimal and low.value >= h.offset:
            continue  # outer satisfies this constraint; nothing escapes here
        if not all(dot(h.normal, r) > 0 for r in rec):
            raise Unbounded(
                "difference region is unbounded (violated halfspace is not "
                "strictly positive on the recession cone)"
            )
        rows = outer.rows()
        rows.append((tuple(-x for x in h.normal), -h.offset))
        res = solve_lp(w, rows, "max")
        if res.status != "optimal":
            raise GeometryError("capping LP failed unexpectedly")
        best = res.value if best is None else max(best, res.value)
    if best is None:
        return None
    return (w, best + 1)


def _cap_halfspace(w, c):
    return Halfspace(tuple(-x for x in w), -Fraction(c))


def volume_of_difference(inner: Polyhedron, outer: Polyhedron) -> Fraction:
    """Exact volume of outer \\ inner for nested polyhedra with equal recession."""
    cap = _difference_cap(inner, outer)
    if cap is None:
        if inner.recession_rays():
            return Fraction(0)
        return volume_bounded(outer) - volume_bounded(inner)
    w, c = cap
    h = _cap_halfspace(w, c)
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


def _box_of(p: Polyhedron):
    """Rational coordinate bounds (lo, hi) of a bounded polyhedron."""
    vr = p.vrep()
    if vr.rays:
        raise Unbounded("cannot box an unbounded polyhedron")
    lo = [min(v[i] for v in vr.vertices) for i in range(p.dim)]
    hi = [max(v[i] for v in vr.vertices) for i in range(p.dim)]
    return lo, hi


def _lattice_box(box, m=1):
    """Integer coordinate bounds of the lattice points of m times a box."""
    lo, hi = box
    return [ceil(m * x) for x in lo], [floor(m * x) for x in hi]


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
            flat.append((tuple(qj * u + qi * v for u, v in zip(ai, aj)), qj * bi + qi * bj))
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
    for head in product(*(range(lo[i], hi[i] + 1) for i in range(k - 1))):
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
        lo, hi = _lattice_box(_box_of(p))
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
    and w do not depend on m, and every capping-LP value scales linearly:
    the level-m difference has w <= m*best, where best bounds w on the
    scale-1 difference.  So m times the vertex box of outer n {w <= best}
    holds every level's difference, and any box that does gives the same
    count.
    """
    if not scales:
        return []
    if scales[0] < 1:
        raise ValueError("scale must be a positive integer")
    cap = _difference_cap(inner, outer)
    if cap is None:
        if inner.recession_rays():
            return [0] * len(scales)
        region = outer
    else:
        w, c = cap
        region = outer.intersect(_cap_halfspace(w, c - 1))  # c = best + 1
    try:
        box = _box_of(region)
    except EmptyPolyhedron:
        return [0] * len(scales)
    _fibre_count(*_lattice_box(box, scales[-1]))  # fail before counting any level
    return [
        count_lattice_points(_integer_constraints(outer, m),
                             _integer_constraints(inner, m), *_lattice_box(box, m))
        for m in scales
    ]


def count_lattice_difference(inner: Polyhedron, outer: Polyhedron, m: int) -> int:
    """Number of integer points in (m*outer) \\ (m*inner)."""
    return lattice_difference_counts(inner, outer, [m])[0]
