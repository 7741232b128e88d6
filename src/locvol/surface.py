"""Surface singularity volumes via relative Zariski decomposition.

A weighted dual graph (self-intersections, genera, edge multiplicities) with
negative definite intersection matrix determines the resolution data of a
normal surface singularity.  Any intersection vector decomposes uniquely into
a relatively nef part and an effective part supported where nefness fails;
the singularity volume is minus the self-intersection of the nef part of the
log-canonical vector.  The same growing-support iteration also computes
volumes of divisor classes on projective-surface lattices against a declared
list of negative curves, whose pseudo-effective cone is either round or
spanned by declared generators; a spanned cone is read through its facet
normals, from one double description.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import LocvolError
from .linalg import clear_denominators, dot, primitive, solve_linear


class SurfaceError(LocvolError):
    pass


class NotNegativeDefinite(SurfaceError):
    pass


class NegativeCoefficient(SurfaceError):
    """The support iteration ended with an invalid effective part."""


class InvalidLattice(SurfaceError):
    pass


class InvalidModel(SurfaceError):
    pass


# ---------------------------------------------------------------------------
# exact symmetric-matrix checks: one fraction-free symmetric elimination
# ---------------------------------------------------------------------------

def ldl_pivots_negative(m) -> bool:
    """Negative definiteness, read off the inertia."""
    return symmetric_inertia(m) == (0, len(m), 0)


def symmetric_inertia(m):
    """(positive, negative, zero) eigenvalue counts by exact congruence.

    Fraction-free symmetric elimination on diagonal pivots, after scaling
    the whole matrix by one positive lcm of its denominators.  Each pivot is
    the principal minor on the indices pivoted so far, so the LDL^T pivot it
    stands for is positive iff it has the sign of the previous minor.  When
    every diagonal entry left is zero but some a_ij is not, the congruence
    e_i -> e_i + e_j makes the diagonal entry 2*a_ij; the divisions stay
    exact, since a congruence of the remaining block commutes with the
    elimination.
    """
    n = len(m)
    flat, _ = clear_denominators([x for row in m for x in row])
    a = [flat[i * n:(i + 1) * n] for i in range(n)]
    active = list(range(n))
    pos = neg = 0
    prev = 1
    while active:
        k = next((i for i in active if a[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in active for j in active if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            aij = a[i][j]
            for l in active:
                a[i][l] += a[j][l]
                a[l][i] = a[i][l]
            a[i][i] = 2 * aij
            continue
        piv = a[k][k]
        if (piv > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        active.remove(k)
        for i in active:
            for j in active:
                a[i][j] = (piv * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = piv
    return (pos, neg, len(active))


def _mat_vec(m, v):
    return tuple([sum(Fraction(a) * Fraction(x) for a, x in zip(row, v)) for row in m])


def _bilinear(u, m, v):
    return sum(Fraction(x) * y for x, y in zip(u, _mat_vec(m, v)))


# ---------------------------------------------------------------------------
# dual graphs
# ---------------------------------------------------------------------------

class DualGraph:
    """Weighted dual graph of a good resolution of a surface singularity."""

    def __init__(self, vertices, edges=()):
        verts = [(int(s), int(g)) for s, g in vertices]
        if not verts:
            raise ValueError("graph needs at least one vertex")
        if any(s > -1 or g < 0 for s, g in verts):
            raise ValueError("need self-intersections <= -1 and genera >= 0")
        n = len(verts)
        parsed = []  # one pass, so a one-shot iterable of edges is read once
        for e in edges:
            i, j, mult = (int(e[0]), int(e[1]), int(e[2]) if len(e) > 2 else 1)
            if i == j or not (0 <= i < n and 0 <= j < n) or mult < 1:
                raise ValueError(f"bad edge {e}")
            parsed.append((i, j, mult))
        m = [[0] * n for _ in range(n)]
        for i, (s, _) in enumerate(verts):
            m[i][i] = s
        for i, j, mult in parsed:
            m[i][j] += mult
            m[j][i] += mult
        if not ldl_pivots_negative(m):
            raise NotNegativeDefinite("intersection matrix is not negative definite")
        self.vertices, self.edges = tuple(verts), tuple(parsed)
        self.matrix = tuple([tuple(row) for row in m])

    @property
    def rank(self) -> int:
        return len(self.vertices)


def log_canonical_intersections(graph: DualGraph):
    """Intersection numbers of the log-canonical vector with each curve:
    2*genus - 2 plus the number of neighbours counted with multiplicity."""
    deg = [0] * graph.rank
    for i, j, mult in graph.edges:
        deg[i] += mult
        deg[j] += mult
    return tuple([
        Fraction(2 * g - 2 + deg[i]) for i, (_, g) in enumerate(graph.vertices)
    ])


ZariskiParts = namedtuple("ZariskiParts", "nef negative")
ZariskiParts.__doc__ = "Nef and effective parts, as coefficient vectors over the vertices."


def _support_iteration(gram, target):
    """Grow the support of the negative part until the rest is nef.

    `gram` is the curves' Gram matrix and `target` the class's intersection
    numbers with them.  Each pass solves for the coefficients on the
    support that make the rest orthogonal to it, and adds every curve the
    rest pairs negatively with.  Returns (support index -> coefficient, the
    rest's pairing with each curve); a singular support raises ValueError.
    """
    support = []
    for _ in range(len(target) + 1):
        coeffs = {}
        if support:
            sub = [[gram[i][j] for j in support] for i in support]
            coeffs = dict(zip(support, solve_linear(sub, [target[i] for i in support])))
        pairing = tuple([t - sum(v * gram[i][k] for i, v in coeffs.items())
                         for k, t in enumerate(target)])
        violations = [k for k, v in enumerate(pairing) if v < 0]
        if not violations:
            return coeffs, pairing
        support = sorted(support + violations)
    raise SurfaceError("support iteration failed to terminate")  # unreachable


def zariski_decompose(graph: DualGraph, target) -> ZariskiParts:
    """Relative Zariski decomposition of the class with the given intersection
    numbers; rejects classes whose effective part comes out negative."""
    target = tuple([Fraction(x) for x in target])
    if len(target) != graph.rank:
        raise ValueError("intersection vector length mismatch")
    coeffs, pairing = _support_iteration(graph.matrix, target)
    negative = tuple([coeffs.get(i, Fraction(0)) for i in range(graph.rank)])
    whole = solve_linear([list(r) for r in graph.matrix], list(target))  # the class itself
    parts = ZariskiParts(tuple([a - b for a, b in zip(whole, negative)]), negative)
    if any(v < 0 for v in parts.negative):
        raise NegativeCoefficient(f"effective part {parts.negative} is invalid")
    if any(v < 0 for v in pairing):
        raise SurfaceError(f"nef part pairs negatively with a curve: {pairing}")
    if any(pairing[j] != 0 for j, v in enumerate(parts.negative) if v != 0):
        raise SurfaceError("nef part is not orthogonal to the negative support")
    if _bilinear(parts.nef, graph.matrix, parts.negative) != 0:
        raise SurfaceError("nef and negative parts are not orthogonal")
    return parts


def divisor_local_volume(graph: DualGraph, target) -> Fraction:
    """Minus the self-intersection of the nef part."""
    parts = zariski_decompose(graph, target)
    return -_bilinear(parts.nef, graph.matrix, parts.nef)


def singularity_volume(graph: DualGraph) -> Fraction:
    """Volume of the singularity: the log-canonical class's local volume."""
    return divisor_local_volume(graph, log_canonical_intersections(graph))


# ---------------------------------------------------------------------------
# projective-surface lattice models
# ---------------------------------------------------------------------------

class SurfaceLattice:
    """Numerical lattice of a smooth projective surface.

    The Gram matrix must have signature (1, rank-1).  Negative curves are
    trusted to be the complete list; when `psef_generators` is empty the
    pseudo-effective cone is the round cone {D : D.D >= 0, D.ample >= 0},
    and otherwise it is the cone they span, held as its facet normals.
    """

    def __init__(self, gram, canonical, ample, negative_curves=(),
                 psef_generators=()):
        gram = tuple([tuple([int(x) for x in row]) for row in gram])
        n = len(gram)
        if any(len(row) != n for row in gram) or any(
            gram[i][j] != gram[j][i] for i in range(n) for j in range(n)
        ):
            raise ValueError("gram matrix must be square and symmetric")
        if symmetric_inertia(gram) != (1, n - 1, 0):
            raise InvalidLattice("gram matrix must have signature (1, rank-1)")
        self.rank = n
        self.gram = gram
        self.canonical = tuple([int(x) for x in canonical])
        self.ample = tuple([int(x) for x in ample])
        self.negative_curves = tuple([tuple([int(x) for x in c]) for c in negative_curves])
        self.psef_generators = tuple([tuple([Fraction(x) for x in g])
                                      for g in psef_generators])
        if any(len(v) != n for v in (self.canonical, self.ample,
                                     *self.negative_curves, *self.psef_generators)):
            raise ValueError(f"lattice vectors must have length {n}, the gram rank")
        if _bilinear(self.ample, gram, self.ample) <= 0:
            raise InvalidLattice("ample class must have positive self-intersection")
        curves = self.negative_curves
        # the curves' Gram matrix, on ints: every Zariski decomposition solves on it
        images = [[dot(row, e) for row in gram] for e in curves]
        self.curve_gram = tuple([tuple([Fraction(dot(c, g)) for g in images])
                                 for c in curves])
        for i, c in enumerate(curves):
            if self.curve_gram[i][i] >= 0:
                raise InvalidLattice(f"declared curve {c} is not negative")
            if _bilinear(self.ample, gram, c) <= 0:
                raise InvalidLattice(f"declared curve {c} meets the ample class badly")
        self.psef_normals = _psef_normals(self) if self.psef_generators else ()

    def pair(self, u, v) -> Fraction:
        return _bilinear(u, self.gram, v)

    @property
    def is_round_model(self) -> bool:
        return not self.psef_generators

    def is_psef(self, d) -> bool:
        d = tuple([Fraction(x) for x in d])
        if self.is_round_model:
            return self.pair(d, d) >= 0 and self.pair(d, self.ample) >= 0
        return self.psef_interval(d, (0,) * self.rank) is not None

    def psef_interval(self, a, h):
        """Ends (lo, hi) of {t : a + t*h in the cone of `psef_generators`},
        None at an open end; None when no t qualifies.  Each facet normal f
        needs <f, a> + t*<f, h> >= 0."""
        lo = hi = None
        for f in self.psef_normals:
            fa, fh = dot(f, a), dot(f, h)
            if fh == 0:
                if fa < 0:
                    return None
                continue
            t = -Fraction(fa) / fh
            if fh > 0:
                lo = t if lo is None else max(lo, t)
            else:
                hi = t if hi is None else min(hi, t)
        if lo is not None and hi is not None and lo > hi:
            return None
        return lo, hi


def _psef_normals(lat: SurfaceLattice):
    """Facet normals of the cone the psef generators span, once it is checked
    to be a surface's pseudo-effective cone.  Such a cone holds the ample
    class in its interior and, by Riemann-Roch, every class D with D^2 > 0
    and D.A > 0; it holds no line, as a nonzero pseudo-effective class meets
    A positively; and an extremal class of negative square is a curve, so
    the declared curves lie in it and each such extreme ray is one of them.
    """
    from .dd import cone_extreme_rays  # round models never load it

    normals, lineality = cone_extreme_rays(lat.psef_generators, lat.rank)
    if lineality or any(dot(f, lat.ample) <= 0 for f in normals):
        raise InvalidLattice("ample class must lie inside the pseudo-effective cone")
    # with f.A > 0, f >= 0 on the positive cone iff the class g^-1 f squares to >= 0
    if any(dot(f, solve_linear(lat.gram, f)) < 0 for f in normals):
        raise InvalidLattice("pseudo-effective cone must hold every class of "
                             "positive square that meets the ample class positively")
    for c in lat.negative_curves:
        if any(dot(f, c) < 0 for f in normals):
            raise InvalidLattice(f"declared curve {c} is not pseudo-effective")
    rays, line = cone_extreme_rays(normals, lat.rank)
    if line:
        raise InvalidLattice("pseudo-effective cone must not contain a line")
    declared = {primitive(c) for c in lat.negative_curves}
    for r in rays:
        if lat.pair(r, r) < 0 and r not in declared:
            raise InvalidLattice(f"extremal class {r} has negative square but is "
                                 "no declared curve")
    return tuple(normals)


def lattice_zariski(lattice: SurfaceLattice, d):
    """Zariski decomposition against the declared negative curves.

    Returns (nef part as a vector, dict curve index -> coefficient).
    """
    d = tuple([Fraction(x) for x in d])
    curves = lattice.negative_curves
    try:
        coeffs, _ = _support_iteration(lattice.curve_gram, [lattice.pair(d, c) for c in curves])
    except ValueError:
        raise InvalidModel("declared negative curves do not span a definite support")
    if any(v < 0 for v in coeffs.values()):
        raise NegativeCoefficient(f"negative part {coeffs} of a pseudo-effective class")
    nef = d
    for i, v in coeffs.items():
        nef = tuple([a - v * c for a, c in zip(nef, curves[i])])
    return nef, coeffs


def projective_volume(lattice: SurfaceLattice, d) -> Fraction:
    """Volume of a divisor class: zero off the pseudo-effective cone, else
    the self-intersection of the nef part of its Zariski decomposition."""
    d = tuple([Fraction(x) for x in d])
    if not lattice.is_psef(d):
        return Fraction(0)
    if lattice.is_round_model:
        return lattice.pair(d, d)
    nef, _ = lattice_zariski(lattice, d)
    return lattice.pair(nef, nef)
