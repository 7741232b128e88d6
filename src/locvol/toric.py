"""Local volumes of T-invariant divisors on toric modifications.

A modification of a full-dimensional pointed cone's affine toric variety is
described by the list of primitive ray generators of a refining fan; only the
rays matter here.  A divisor assigns a rational coefficient to each ray.  Two
exponent regions are attached to a divisor: the region of all sections and
the larger region of sections defined away from the fiber over the torus
fixed point, which drops the constraints of rays interior to the cone.  The
local volume is the normalized Euclidean volume of their difference, and
finite-level data comes from counting lattice points in the scaled regions.
The Fujita check instead takes the integer hull of each scaled section
region; one enumeration below Meyer's cap makes that hull exact.  The hull
is then saturated by sliding it along the dual rays: each slide is the
double-description hull of the hull's vertices, its rays and the negated
ray.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, lcm
from operator import ge

from . import LocvolError
from .dd import cone_extreme_rays
from .geometry import (
    Halfspace,
    Polyhedron,
    facets_from_generators,
    hull_polyhedron,
    lattice_difference_counts,
    lattice_points,
    positive_functional,
    volume_of_difference,
)
from .linalg import as_int, dot, mat_rank, primitive

BOUNDARY = "boundary"
FACE_INTERIOR = "face_interior"
INTERIOR = "interior"


class ToricError(LocvolError):
    pass


class NotInCone(ToricError, ValueError):
    pass


class PointedCone:
    """Full-dimensional pointed rational cone, given by generating rays."""

    def __init__(self, generators):
        gens = [primitive([as_int(x) for x in g]) for g in generators]
        if not gens or any(not any(g) for g in gens):
            raise ValueError("cone needs nonzero generators")
        dim = len(gens[0])
        if dim < 2 or any(len(g) != dim for g in gens):
            raise ValueError("inconsistent generator dimensions (need dim >= 2)")
        if mat_rank(gens) != dim:
            raise ValueError("cone is not full-dimensional")
        self.dim = dim
        self.generators = tuple(gens)
        # facet normals of the cone = extreme rays of its dual
        dual_rays, dual_lin = cone_extreme_rays(gens, dim)
        if dual_lin or mat_rank(dual_rays) != dim:
            raise ValueError("cone is not pointed")
        self.facets = tuple(sorted(primitive(r) for r in dual_rays))
        ext, _ = cone_extreme_rays(list(self.facets), dim)
        self.extreme_rays = tuple(sorted(primitive(r) for r in ext))

    def contains(self, v) -> bool:
        return all(dot(f, v) >= 0 for f in self.facets)

    def classify(self, v) -> str:
        """Position of a ray: extreme, in a proper face's interior, or interior."""
        tight = [f for f in self.facets if dot(f, v) == 0]
        if any(dot(f, v) < 0 for f in self.facets):
            raise NotInCone(f"ray {v} is not in the cone")
        if not tight:
            return INTERIOR
        if mat_rank(tight) == self.dim - 1:
            return BOUNDARY
        return FACE_INTERIOR


class ToricDatum:
    """A pointed cone together with all rays of a refining fan."""

    def __init__(self, cone: PointedCone, refinement_rays):
        rays = tuple([primitive([as_int(x) for x in r]) for r in refinement_rays])
        if any(len(r) != cone.dim for r in rays):
            raise ValueError(f"refinement rays must have length {cone.dim}")
        if any(not any(r) for r in rays):
            raise ValueError("zero refinement ray")
        if len(set(rays)) != len(rays):
            raise ValueError("refinement rays must be distinct after making "
                             "them primitive")
        kinds = tuple([cone.classify(r) for r in rays])
        missing = set(cone.extreme_rays) - set(rays)
        if missing:
            raise ValueError(f"refinement must list every extreme ray; missing {missing}")
        self.cone = cone
        self.rays = rays
        self.kinds = kinds

    @property
    def dim(self) -> int:
        return self.cone.dim


class ToricDivisor:
    """T-invariant divisor: one rational coefficient per refinement ray."""

    __slots__ = ("datum", "coeffs")

    def __init__(self, datum: ToricDatum, coeffs):
        coeffs = tuple([Fraction(c) for c in coeffs])
        if len(coeffs) != len(datum.rays):
            raise ValueError("coefficient count must match ray count")
        self.datum = datum
        self.coeffs = coeffs


def divisor_polyhedra(d: ToricDivisor):
    """Exponent regions (sections, sections defined off the central fiber).

    The first polyhedron imposes <u, ray> >= -coeff for every ray; the
    second drops exactly the interior-ray constraints.  Both have the dual
    cone as recession cone.
    """
    datum = d.datum
    all_rows = [Halfspace(r, -a) for r, a in zip(datum.rays, d.coeffs)]
    outer_rows = [
        h for h, k in zip(all_rows, datum.kinds) if k != INTERIOR
    ]
    sections = Polyhedron(datum.dim, all_rows)
    punctured = Polyhedron(datum.dim, outer_rows)
    return sections, punctured


def local_volume_toric(d: ToricDivisor) -> Fraction:
    """n! times the Euclidean volume of the section-region difference."""
    sections, punctured = divisor_polyhedra(d)
    n = d.datum.dim
    return factorial(n) * volume_of_difference(sections, punctured)


def _levels(d: ToricDivisor, top: int):
    """The levels 1..top at which every scaled coefficient is an integer:
    the multiples of the Cartier index."""
    step = lcm(*[a.denominator for a in d.coeffs])
    return range(step, top + 1, step)


def h1_sequence(d: ToricDivisor, m_max: int):
    """Exact lattice counts at scales 1..m_max with n!-normalized values.

    Scales where some scaled coefficient is non-integral are skipped; counts
    at such scales have no section-space meaning for a non-Cartier multiple.
    """
    sections, punctured = divisor_polyhedra(d)
    n = d.datum.dim
    scales = _levels(d, m_max)
    counts = lattice_difference_counts(sections, punctured, scales)
    return [(m, c, Fraction(factorial(n) * c, m ** n)) for m, c in zip(scales, counts)]


VanishingReport = namedtuple("VanishingReport", "lies_over_center effective volume_zero")


def effectivity_vanishing_check(d: ToricDivisor) -> VanishingReport:
    """Vanishing test: for divisors over the fixed point, volume zero must
    coincide with effectivity."""
    kinds = d.datum.kinds
    over = all(k == INTERIOR for k, a in zip(kinds, d.coeffs) if a != 0)
    eff = all(a >= 0 for a in d.coeffs)
    vol0 = local_volume_toric(d) == 0
    return VanishingReport(over, eff, vol0)


# ---------------------------------------------------------------------------
# Fujita approximation through Newton regions of pushforward ideals
# ---------------------------------------------------------------------------

def _minimal_generators(points, facets):
    """Minimal points of the set modulo the cone {x : <f, x> >= 0, f in facets}.

    In the coordinates <f, u>, one per facet normal f, a point lies in
    another's translate of the cone iff it is componentwise >= it.  Their
    sum is positive on the nonzero points of a pointed full-dimensional
    cone, so in order of (sum, point) each point comes after every point
    it dominates, and one pass suffices.
    """
    coords = {u: tuple([dot(f, u) for f in facets]) for u in points}
    gens, kept = [], []
    for u in sorted(coords, key=lambda u: (sum(coords[u]), u)):
        c = coords[u]
        if not any(all(map(ge, c, k)) for k in kept):
            gens.append(u)
            kept.append(c)
    return gens


def stable_newton_region(region: Polyhedron, cone: PointedCone) -> Polyhedron:
    """Integer hull conv(region ∩ Z^n) + σ^∨ of a region with recession cone σ^∨.

    Write the region as Q + cone(y), with Q the hull of its vertices and y
    the dual rays `cone.facets`, which are primitive integer vectors.  By
    Meyer's theorem (Meyer 1974; Schrijver, *Theory of Linear and Integer
    Programming*, §16.2) the integer hull is conv((Q + Π) ∩ Z^n) + cone(y),
    where Π = {Σ μ_i y_i : 0 <= μ_i <= 1}.  A functional w positive on every
    y_i is at most max_v w(v) + Σ_i w(y_i) on Q + Π, so the lattice points of
    the region below that cap, with the dual rays, generate the hull exactly.
    A capped point u with u - y_i capped for some i lies in that point's
    translate of σ^∨, so dropping it keeps the hull: one set lookup per dual
    ray, and every minimal point stays.
    """
    dual_rays = list(cone.facets)
    w = positive_functional(dual_rays, cone.dim)
    top = max(dot(w, v) for v in region.vrep().vertices).__ceil__()
    cap = top + sum(dot(w, y) for y in dual_rays)
    capped = region.intersect(Halfspace(tuple([-x for x in w]), Fraction(-cap)))
    points = lattice_points(capped)
    seen = set(points)
    gens = [u for u in points
            if not any(tuple([a - b for a, b in zip(u, y)]) in seen for y in dual_rays)]
    return hull_polyhedron(cone.dim, gens, dual_rays)


def saturate_region(region: Polyhedron, rays, walls) -> Polyhedron:
    """Intersection of the region's slides along the rays, inside the walls.

    The region is conv(V) + cone(R), pointed and full-dimensional, so its
    slide along a ray r, the region + cone(-r), is conv(V) + cone(R, -r),
    and one double description gives exactly the slide's facets.  Each wall
    f contributes <f, x> >= 0.  A facet of one slide that another slide
    implies is kept: it changes no set, volume or count.
    """
    vr = region.vrep()
    rows = [h for r in rays
            for h in facets_from_generators(region.dim, vr.vertices,
                                            vr.rays + (tuple([-x for x in r]),))]
    rows += [Halfspace(f, Fraction(0)) for f in walls]
    return Polyhedron(region.dim, rows)


def fujita_sequence(d: ToricDivisor, p_max: int):
    """Normalized multiplicities of the pushforward ideals at levels 1..p_max.

    The levels are those of h1_sequence.
    Each level takes the Newton region (integer hull) of the level's
    sections, saturates it by sliding, and takes the n!-normalized volume
    of the difference; the sequence approaches the local volume of the
    divisor.  The section polyhedron's vertices are found once, and each
    level's region carries p times them.
    """
    datum = d.datum
    n = datum.dim
    sections, _ = divisor_polyhedra(d)
    sections.vrep()
    out = []
    for p in _levels(d, p_max):
        newton = stable_newton_region(sections.scaled(p), datum.cone)
        saturated = saturate_region(newton, datum.cone.facets, ())
        mult = factorial(n) * volume_of_difference(newton, saturated)
        out.append((p, mult, mult / Fraction(p ** n)))
    return out
