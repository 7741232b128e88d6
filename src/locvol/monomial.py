"""Local multiplicities of monomial ideals at the origin.

A monomial ideal is a finite minimal set of exponent vectors inside an
ambient cone (the non-negative orthant, or a pointed exponent cone for the
semigroup-ring variant).  Saturation removes the components supported at the
origin; at finite level this is coordinatewise sliding of the staircase, and
asymptotically it is the same sliding applied to the Newton region.  The
normalized growth of the saturation quotients of powers is the local
multiplicity, computed exactly as a volume difference.

The length of a saturation quotient is summed over fibres: a staircase is
a height function over the prefixes of its exponents, so the length is the
sum of the height differences of ideal and saturation, on Python ints.  Its
prefix grid shares the lattice scans' FIBRE_LIMIT budget, and nothing in
this module loads numpy.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import accumulate, count, islice
from math import comb, factorial
from operator import ge, sub

from . import LocvolError
from .geometry import Polyhedron, _fibre_count, hull_polyhedron, volume_of_difference
from .linalg import as_int, mat_det, solve_linear
from .toric import PointedCone, _minimal_generators, saturate_region

GENERATOR_LIMIT = 10 ** 6


class MonomialError(LocvolError):
    pass


class GeneratorBlowup(MonomialError):
    pass


class UnsupportedAmbient(MonomialError):
    """Cone-ambient request outside the simplicial unimodular range."""


class MonomialIdeal:
    """Monomial ideal by minimal generators; orthant or cone ambient.

    `rays` and `facets` are the ambient cone's extreme rays and facet
    normals; for the orthant both are the unit vectors.
    """

    def __init__(self, generators, ambient: PointedCone | None = None):
        gens = [tuple([as_int(x) for x in g]) for g in generators]
        if not gens:
            raise ValueError("need at least one generator")
        dim = len(gens[0])
        if any(len(g) != dim for g in gens):
            raise ValueError("inconsistent exponent dimensions")
        self.dim = dim
        self.ambient = ambient
        if ambient is None:
            if any(x < 0 for g in gens for x in g):
                raise ValueError("orthant-ambient exponents must be non-negative")
            units = tuple([tuple([int(j == i) for j in range(dim)]) for i in range(dim)])
            self.rays = self.facets = units
        else:
            if ambient.dim != dim:
                raise ValueError("ambient dimension mismatch")
            for g in gens:
                if not ambient.contains(g):
                    raise ValueError(f"generator {g} outside the ambient cone")
            self.rays, self.facets = ambient.extreme_rays, ambient.facets
        self.generators = tuple(sorted(_minimal_generators(gens, self.facets)))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.dim == other.dim
            and self.ambient is other.ambient
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.dim, self.generators))

    def __repr__(self):
        return f"MonomialIdeal({list(self.generators)})"

    def newton_region(self) -> Polyhedron:
        """Convex hull of the generators plus the ambient cone."""
        return hull_polyhedron(self.dim, self.generators, self.rays)


def _budget(k: int, p: int) -> None:
    """Refuse level p when C(k+p-1, p), its p-fold sums of k generators, passes the limit."""
    if (raw_count := comb(k + p - 1, p)) > GENERATOR_LIMIT:
        raise GeneratorBlowup(f"{raw_count} candidate generators at power {p}")


def _powers(ideal: MonomialIdeal):
    """I, I^2, ...: level p is level p-1 times I, the minimalized sums g + h."""
    level = MonomialIdeal([(0,) * ideal.dim], ideal.ambient)
    for p in count(1):
        _budget(len(ideal.generators), p)  # before the product
        level = MonomialIdeal({tuple([a + b for a, b in zip(g, h)]) for g in level.generators
                               for h in ideal.generators}, ideal.ambient)
        yield level


def power(ideal: MonomialIdeal, p: int) -> MonomialIdeal:
    """The p-th level of `_powers`, refused up front on level p's budget,
    which bounds those of the levels below it."""
    if p < 1:
        raise ValueError("power must be >= 1")
    _budget(len(ideal.generators), p)
    return next(islice(_powers(ideal), p - 1, None))


def _orthant_transform(ideal: MonomialIdeal):
    """Unimodular identification of a simplicial cone ambient with an orthant.

    Returns (transformed orthant ideal, back map), or raises.
    """
    cone = ideal.ambient
    rays = list(cone.extreme_rays)
    if len(rays) != cone.dim or abs(mat_det(rays)) != 1:
        raise UnsupportedAmbient(
            "finite-level saturation needs a simplicial unimodular ambient cone"
        )
    basis = [list(r) for r in zip(*rays)]  # columns are the rays

    def to_orthant(u):  # integral by Cramer's rule: det(basis) = +-1
        return tuple([int(x) for x in solve_linear(basis, list(u))])

    def from_orthant(u):
        return tuple([sum(rays[j][i] * u[j] for j in range(cone.dim))
                      for i in range(cone.dim)])

    moved = MonomialIdeal([to_orthant(g) for g in ideal.generators])
    return moved, from_orthant


def saturation(ideal: MonomialIdeal) -> MonomialIdeal:
    """Colon with all powers of the maximal ideal, exactly.

    Per coordinate, zeroing that coordinate of every generator gives the
    colon with that variable's powers; the results intersect by
    componentwise maxima of generator tuples.
    """
    if ideal.ambient is not None:
        moved, back = _orthant_transform(ideal)
        sat = saturation(moved)
        return MonomialIdeal([back(g) for g in sat.generators], ideal.ambient)
    partials = [MonomialIdeal([g[:i] + (0,) + g[i + 1:] for g in ideal.generators])
                for i in range(ideal.dim)]
    sat = partials[0]
    for part in partials[1:]:
        sat = MonomialIdeal([[max(a, b) for a, b in zip(g, h)]
                             for g in sat.generators for h in part.generators])
    return sat


def _staircase_mask(pts, gens):
    """Membership of integer points in the ideal of the generators, one bool
    per point: some generator is componentwise <= it.

    The tests count colengths with it as the reference for `h1_dim`.
    """
    return [any(all(map(ge, pt, g)) for g in gens) for pt in pts]


def _running_min(row, side, strides):
    """Running minimum, in place, along each axis of a flattened grid slab."""
    for s in strides:
        for b in range(0, len(row), s * side):
            if s == 1:
                row[b:b + side] = accumulate(row[b:b + side], min)
                continue
            for off in range(b + s, b + s * side, s):
                row[off:off + s] = map(min, row[off - s:off], row[off:off + s])


def h1_dim(ideal: MonomialIdeal) -> int:
    """Exact dimension of saturation/ideal, summed fibre by fibre.

    Over a prefix p (the first n-1 exponents), the ideal of generators G
    holds the fibre's points from height first_G(p) = min{g_n : g' <= p}
    on, so the colength difference is the sum of first_I(p) - first_sat(p)
    over the prefixes where the saturation has entered.  Past the largest
    prefix coordinate B of any generator the sets {g : g' <= p} stop
    changing, and the quotient has finite length, so prefixes in
    [0, B]^(n-1) give the whole sum.  They are swept one slab of fixed
    first coordinate at a time: each slab is the previous one lowered by
    the generators starting in it, made a running minimum along its own
    axes, and a slab no generator starts in repeats the previous one.
    """
    if ideal.ambient is not None:
        moved, _ = _orthant_transform(ideal)
        return h1_dim(moved)
    sat = saturation(ideal)
    if sat == ideal:
        return 0
    n = ideal.dim
    if n == 1:  # one fibre, over the empty prefix
        return ideal.generators[0][0] - sat.generators[0][0]
    gens = [*ideal.generators, *sat.generators]
    bound = max(x for g in gens for x in g[:-1])
    _fibre_count((0,) * n, (bound,) * n)  # LatticeBudget before any work
    never = 1 + max(g[-1] for g in gens)  # height of a fibre nothing enters
    side = bound + 1
    strides = [side ** k for k in range(n - 3, -1, -1)]
    starts = defaultdict(lambda: ([], []))
    for which, part in enumerate((ideal, sat)):
        for g in part.generators:
            at = sum(c * s for c, s in zip(g[1:-1], strides))
            starts[g[0]][which].append((at, g[-1]))
    rows = ([never] * side ** (n - 2), [never] * side ** (n - 2))
    slabs = sorted(starts) + [side]
    total = 0
    for first, end in zip(slabs, slabs[1:]):
        for row, entering in zip(rows, starts[first]):
            for at, height in entering:
                row[at] = min(row[at], height)
            if entering:
                _running_min(row, side, strides)
        first_i, first_sat = rows
        # first_sat <= first_I everywhere, so the counts differ exactly
        # where the saturation enters a fibre the ideal does not
        if first_i.count(never) != first_sat.count(never):
            raise MonomialError(
                "the saturation enters a fibre the ideal never enters"
            )
        total += (end - first) * sum(map(sub, first_i, first_sat))
    return total


def saturated_newton_region(ideal: MonomialIdeal) -> Polyhedron:
    """The Newton region's saturation: its slides along the ambient cone's
    extreme rays, intersected with the cone."""
    return saturate_region(ideal.newton_region(), ideal.rays, ideal.facets)


def asymptotic_multiplicity(ideal: MonomialIdeal) -> Fraction:
    """n!-normalized volume between the Newton region and its saturation."""
    region = ideal.newton_region()
    saturated = saturated_newton_region(ideal)
    return factorial(ideal.dim) * volume_of_difference(region, saturated)


def multiplicity_sequence(ideal: MonomialIdeal, p_max: int):
    """(p, h1 of I^p, n!-normalized value) for p = 1..p_max, one product per level."""
    if ideal.ambient is not None:
        moved, _ = _orthant_transform(ideal)
        return multiplicity_sequence(moved, p_max)
    n = ideal.dim
    return [(p, h1, Fraction(factorial(n) * h1, p ** n))
            for p, h1 in zip(range(1, p_max + 1), map(h1_dim, _powers(ideal)))]
