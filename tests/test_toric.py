import random
from fractions import Fraction as F
from math import lcm

import pytest

from locvol import toric
from locvol.exactnum import compare_cbrt_sum
from locvol.geometry import (
    Halfspace,
    LatticeBudget,
    Polyhedron,
    dot,
    hull_polyhedron,
    lattice_points,
    mat_rank,
    positive_functional,
    primitive,
    _difference_cap,
)
from locvol.toric import (
    BOUNDARY,
    FACE_INTERIOR,
    INTERIOR,
    NotInCone,
    PointedCone,
    ToricDatum,
    ToricDivisor,
    divisor_polyhedra,
    effectivity_vanishing_check,
    fujita_sequence,
    h1_sequence,
    local_volume_toric,
    saturate_region,
    stable_newton_region,
    _minimal_generators,
)
from locvol.monomial import MonomialIdeal, saturated_newton_region

from _identities import (
    contains_polyhedron,
    dual_polyhedron,
    fm_slide,
    interior_indices,
    lp_cap,
    rows,
    same_set,
    scaled_divisor,
)


@pytest.fixture(scope="module")
def tnc_datum():
    sigma = PointedCone([(0, 1, 0), (0, 0, 1), (1, 0, -2)])
    return ToricDatum(sigma, [(0, 1, 0), (0, 0, 1), (1, 0, -2), (1, 1, 1), (1, 0, 0)])


@pytest.fixture(scope="module")
def octant_datum():
    octant = PointedCone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    return ToricDatum(octant, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])


@pytest.fixture(scope="module")
def q4_datum():
    q4 = PointedCone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    return ToricDatum(q4, list(q4.generators) + [
        (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1)])


def tnc_divisor(datum, t):
    """2*(ray (1,0,-2)) - t*(ray (1,1,1))."""
    return ToricDivisor(datum, (F(0), F(0), F(2), -F(t), F(0)))


def over_center(datum, c):
    """c times the unique interior ray of either fixture."""
    coeffs = [F(0)] * len(datum.rays)
    coeffs[interior_indices(datum)[0]] = F(c)
    return ToricDivisor(datum, tuple(coeffs))


# -- cone and classification --------------------------------------------------

def test_pointedness_and_rank_checks():
    with pytest.raises(ValueError):
        PointedCone([(1, 0), (-1, 0)])  # contains a line
    with pytest.raises(ValueError):
        PointedCone([(1, 0, 0), (0, 1, 0)])  # not full-dimensional


def test_classification(tnc_datum, octant_datum):
    assert octant_datum.cone.classify((1, 1, 1)) == INTERIOR
    assert tnc_datum.kinds == (
        BOUNDARY, BOUNDARY, BOUNDARY, INTERIOR, FACE_INTERIOR,
    )
    with pytest.raises(NotInCone):
        tnc_datum.cone.classify((-1, 0, 0))


def test_refinement_must_carry_extreme_rays():
    sigma = PointedCone([(0, 1, 0), (0, 0, 1), (1, 0, -2)])
    with pytest.raises(ValueError):
        ToricDatum(sigma, [(0, 1, 0), (0, 0, 1), (1, 1, 1)])


# -- section regions ----------------------------------------------------------

def test_zero_divisor_regions_are_dual_cone(tnc_datum):
    d = ToricDivisor(tnc_datum, (F(0),) * 5)
    sections, punctured = divisor_polyhedra(d)
    dual = dual_polyhedron(tnc_datum.cone)
    assert same_set(sections, dual)
    assert same_set(punctured, dual)


def test_difference_body_matches_fixture(tnc_datum):
    from locvol.geometry import Polyhedron

    sections, punctured = divisor_polyhedra(tnc_divisor(tnc_datum, F(3, 2)))
    body = Polyhedron(
        3,
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 0, -2), -2),
         ((1, 1, 1), F(3, 2))],
    )
    assert same_set(sections, body)
    assert set(sections.vrep().rays) == set(punctured.vrep().rays)


def test_negative_interior_coefficient_shrinks_sections(tnc_datum):
    d = over_center(tnc_datum, -1)
    sections, punctured = divisor_polyhedra(d)
    assert contains_polyhedron(punctured, sections)
    assert not same_set(sections, punctured)


# -- local volumes ------------------------------------------------------------

def test_golden_volumes(tnc_datum):
    for t in (F(1, 4), F(1, 2), F(1)):
        assert local_volume_toric(tnc_divisor(tnc_datum, t)) == t ** 3
    assert local_volume_toric(tnc_divisor(tnc_datum, F(3, 2))) == F(79, 24)


def test_effective_over_center_has_volume_zero(tnc_datum, octant_datum):
    for datum in (tnc_datum, octant_datum):
        assert local_volume_toric(over_center(datum, 2)) == 0


def test_homogeneity_exact(tnc_datum):
    d = tnc_divisor(tnc_datum, F(3, 2))
    base = local_volume_toric(d)
    for k in (2, 3):
        assert local_volume_toric(scaled_divisor(d, k)) == k ** 3 * base


def test_monotonicity_directions(tnc_datum):
    d = tnc_divisor(tnc_datum, 1)
    base = local_volume_toric(d)
    bump_interior = list(d.coeffs)
    bump_interior[3] += 1
    assert local_volume_toric(ToricDivisor(tnc_datum, tuple(bump_interior))) <= base
    bump_boundary = list(d.coeffs)
    bump_boundary[0] += 1
    assert local_volume_toric(ToricDivisor(tnc_datum, tuple(bump_boundary))) >= base


# -- counting sequences -------------------------------------------------------

def test_h1_sequence_simplex_counts(tnc_datum):
    seq = h1_sequence(tnc_divisor(tnc_datum, 1), 6)
    # body is the standard simplex for t <= 1: strict points are C(m+2, 3)
    assert [(m, c) for m, c, _ in seq] == [
        (1, 1), (2, 4), (3, 10), (4, 20), (5, 35), (6, 56)
    ]
    assert seq[-1][2] == F(6 * 56, 6 ** 3)


def test_h1_sequence_skips_fractional_scales(tnc_datum):
    seq = h1_sequence(tnc_divisor(tnc_datum, F(3, 2)), 8)
    assert [m for m, _, _ in seq] == [2, 4, 6, 8]
    assert h1_sequence(tnc_divisor(tnc_datum, F(3, 2)), 1) == []  # below the Cartier step


def test_h1_zero_divisor(tnc_datum):
    d = ToricDivisor(tnc_datum, (F(0),) * 5)
    assert all(c == 0 for _, c, _ in h1_sequence(d, 5))


def test_h1_converges_towards_volume(tnc_datum):
    d = tnc_divisor(tnc_datum, F(3, 2))
    target = local_volume_toric(d)
    last = h1_sequence(d, 20)[-1]
    assert abs(last[2] - target) / target < F(1, 4)


# -- vanishing <-> effectivity ------------------------------------------------

def test_vanishing_reports(tnc_datum):
    r = effectivity_vanishing_check(over_center(tnc_datum, 1))
    assert (r.lies_over_center, r.effective, r.volume_zero) == (True, True, True)
    r = effectivity_vanishing_check(over_center(tnc_datum, -1))
    assert (r.lies_over_center, r.effective, r.volume_zero) == (True, False, False)
    r = effectivity_vanishing_check(tnc_divisor(tnc_datum, 1))
    assert (r.lies_over_center, r.effective, r.volume_zero) == (False, False, False)


def test_vanishing_grid_over_center(tnc_datum, octant_datum):
    for datum in (tnc_datum, octant_datum):
        for c in range(-2, 3):
            r = effectivity_vanishing_check(over_center(datum, c))
            assert r.lies_over_center
            assert r.volume_zero == r.effective


# -- log-convexity and the non-convexity witness ------------------------------

def test_log_convexity_on_interior_rays(octant_datum):
    d1 = over_center(octant_datum, -1)
    d2 = over_center(octant_datum, -2)
    mid = ToricDivisor(
        octant_datum,
        tuple((a + b) / 2 for a, b in zip(d1.coeffs, d2.coeffs)),
    )
    v1, v2 = local_volume_toric(d1), local_volume_toric(d2)
    vm = local_volume_toric(mid)
    # vol(mid)^(1/3) <= (v1^(1/3) + v2^(1/3))/2, i.e. 8*vm <= (...)^3 via sign test
    assert compare_cbrt_sum(v1, v2, 8 * vm) >= 0


def test_non_convexity_witness(tnc_datum):
    v_half = local_volume_toric(tnc_divisor(tnc_datum, F(1, 2)))
    v_three_half = local_volume_toric(tnc_divisor(tnc_datum, F(3, 2)))
    v_one = local_volume_toric(tnc_divisor(tnc_datum, 1))
    assert (v_half, v_three_half, v_one) == (F(1, 8), F(79, 24), F(1))
    # strict failure of convexity: lhs sum of cube roots < 2 * rhs cube root
    assert compare_cbrt_sum(v_half, v_three_half, 8 * v_one) == -1


# -- Fujita approximation -----------------------------------------------------

def test_fujita_effective_all_zero(tnc_datum):
    assert all(m == 0 for _, m, _ in fujita_sequence(over_center(tnc_datum, 1), 3))


def test_fujita_lattice_divisor_is_exact(tnc_datum):
    seq = fujita_sequence(tnc_divisor(tnc_datum, 1), 5)
    assert all(norm == 1 for _, _, norm in seq)


def test_fujita_converges_for_fractional_vertices(tnc_datum):
    d = ToricDivisor(tnc_datum, (F(0), F(0), F(0), F(-1), F(0)))
    target = local_volume_toric(d)
    assert target == F(1, 3)
    seq = fujita_sequence(d, 8)
    assert abs(seq[-1][2] - target) / target <= F(1, 10)


def test_fujita_octant_matches_maximal_ideal_multiplicity(octant_datum):
    d = ToricDivisor(octant_datum, (F(0), F(0), F(0), F(-1)))
    seq = fujita_sequence(d, 3)
    assert seq[0][1] == 1  # Hilbert-Samuel multiplicity of the maximal ideal
    assert all(norm == 1 for _, _, norm in seq)


def test_fujita_and_h1_share_limit(tnc_datum):
    d = tnc_divisor(tnc_datum, 1)
    lim = local_volume_toric(d)
    h1_tail = h1_sequence(d, 14)[-1][2]
    fuj_tail = fujita_sequence(d, 4)[-1][2]
    assert abs(fuj_tail - lim) <= abs(h1_tail - lim)


def test_fujita_hulls_skip_the_dominance_test(tnc_datum, monkeypatch):
    def refuse(points, facets):
        raise AssertionError("fujita_sequence ran the dominance test")

    monkeypatch.setattr(toric, "_minimal_generators", refuse)
    assert fujita_sequence(_wide_divisor(), 3) == [(3, 12688, F(12688, 27))]
    assert fujita_sequence(tnc_divisor(tnc_datum, F(1, 2)), 4)


def test_fujita_levels_carry_the_section_vertices(tnc_datum, octant_datum, monkeypatch):
    """Each level's region p*P inherits P's vertices, so no level runs a
    double description for them; the levels are those of h1_sequence."""
    cached = []

    def traced(region, cone):
        cached.append(region._vrep is not None)
        return stable_newton_region(region, cone)

    monkeypatch.setattr(toric, "stable_newton_region", traced)
    divisors = [tnc_divisor(tnc_datum, t) for t in (1, F(1, 2), F(3, 2))]
    divisors.append(ToricDivisor(octant_datum, (F(0), F(0), F(0), F(-1, 2))))
    for d in divisors:
        levels = [p for p, _, _ in fujita_sequence(d, 6)]
        assert levels == [m for m, _, _ in h1_sequence(d, 6)]
    assert len(cached) == 6 + 3 + 3 + 3 and all(cached)


def test_fujita_enumeration_shares_the_lattice_budget(octant_datum):
    # Meyer's cap is 5003 here: a box of 5004^2 fibres, past FIBRE_LIMIT
    d = ToricDivisor(octant_datum, (F(0), F(0), F(0), F(-5000)))
    with pytest.raises(LatticeBudget):
        fujita_sequence(d, 1)


def _cartier_boundary_divisor(rng):
    """A random 3-dim divisor, with an interior ray, whose coefficients on
    the non-interior rays are -<m, ray> for one lattice point m: the
    punctured region is m plus the dual cone, the same at every level."""
    while True:
        datum = _random_simplicial_divisor(rng).datum
        if INTERIOR in datum.kinds:
            break
    m = [rng.randint(-1, 1) for _ in range(3)]
    return ToricDivisor(datum, [-dot(m, r) - (F(rng.randint(1, 2), rng.randint(2, 3))
                                              if k == INTERIOR else 0)
                                for r, k in zip(datum.rays, datum.kinds)])


def test_fujita_certificates_are_exact(tnc_datum):
    """Exact facts tying fujita_sequence to local_volume_toric.

    For a graded sequence of ideals a_p a_q <= a_(p+q) with a fixed
    saturation, a_p^k <= a_(kp) and e(I^k) = k^n e(I), so e(a_p)/p^n does
    not increase along multiples, and it tends to the volume (Mustata, "On
    multiplicities of graded sequences of ideals", J. Algebra 256 (2002)):
    every e(a_p)/p^n is at least the volume.  When pP is integral, P being
    the section region, the Newton region is pP itself and equality holds;
    elsewhere it is strict.  A fixed saturation needs the punctured region
    to be a lattice translate of the dual cone, as on the tnc family.
    """
    rng = random.Random(71)
    divisors = [(tnc_divisor(tnc_datum, t), 8) for t in (F(1, 2), 1, F(3, 2), 2)]
    divisors += [(_reflected(_cartier_boundary_divisor(rng),
                             [rng.choice((1, -1)) for _ in range(3)]), 6)
                 for _ in range(24)]
    periods, split = [], 0
    for d, p_max in divisors:
        vol = local_volume_toric(d)
        norms = {p: norm for p, _, norm in fujita_sequence(d, p_max)}
        q = lcm(*(x.denominator for v in divisor_polyhedra(d)[0].vrep().vertices
                  for x in v))
        for p, norm in norms.items():
            assert norm >= vol, (d.coeffs, p)
            assert all(norms[k * p] <= norm for k in range(2, p_max // p + 1)
                       if k * p in norms), (d.coeffs, p)
        assert [p for p in norms if norms[p] == vol] == [p for p in norms if p % q == 0], \
            (d.coeffs, q)
        periods.append(q)
        split += any(p % q == 0 for p in norms) and any(p % q for p in norms)
    assert periods[:4] == [2, 1, 6, 3]
    assert split >= 7, split


def _hull_below(region, cone, cap):
    """Integer hull built as stable_newton_region does, at a chosen cap."""
    rays = list(cone.facets)
    w = positive_functional(rays, cone.dim)
    capped = region.intersect(Halfspace(tuple(-x for x in w), F(-cap)))
    gens = _minimal_generators(lattice_points(capped), cone.generators)
    return hull_polyhedron(cone.dim, gens, rays)


def _random_simplicial_divisor(rng):
    while True:
        gens = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        if mat_rank(gens) == 3:
            break
    cone = PointedCone(gens)
    gens = cone.extreme_rays
    rays = list(gens)
    while len(rays) < 5:
        lam = [rng.randint(0, 2) for _ in range(3)]
        r = primitive(tuple(sum(c * g[i] for c, g in zip(lam, gens)) for i in range(3)))
        if any(r) and r not in rays:
            rays.append(r)
    coeffs = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in rays)
    return ToricDivisor(ToricDatum(cone, rays), coeffs)


def _wide_divisor():
    """A divisor whose Meyer cap holds about 10^5 lattice points at level 3."""
    cone = PointedCone([(0, -1, -2), (-1, 0, -2), (1, 1, 0)])
    rays = [(-1, 0, -2), (0, -1, -2), (1, 1, 0), (-1, -1, -8), (0, 0, -1)]
    return ToricDivisor(ToricDatum(cone, rays), (4, 5, -1, F(-1, 3), -1))


def test_meyer_hull_matches_larger_caps(tnc_datum, q4_datum):
    """Oracle for Meyer's cap: no lattice point above it changes the hull,
    and the hull of the points no dual ray lowers is the hull of the
    minimal points that the dominance test keeps."""
    divisors = [(tnc_divisor(tnc_datum, t), p)
                for t, p in ((F(1, 2), 2), (1, 1), (F(3, 2), 2), (2, 1))]
    divisors.append((ToricDivisor(q4_datum, (0, 0, 0, 0, -2, -2, -3, -3)), 1))
    divisors.append((ToricDivisor(q4_datum, (1, 0, 2, 0, -3, -2, -2, -4)), 1))
    # the dual cone itself: its one vertex, the origin, puts the top at 0
    divisors.append((ToricDivisor(q4_datum, (0,) * 8), 1))
    divisors.append((_wide_divisor(), 1))
    rng = random.Random(13)
    divisors += [(_random_simplicial_divisor(rng), 1) for _ in range(24)]
    divisors += [(_reflected(_random_simplicial_divisor(rng),
                             [rng.choice((1, -1)) for _ in range(3)]), 1) for _ in range(8)]
    nonpositive_tops = 0
    for d, p in divisors:
        cone = d.datum.cone
        region = divisor_polyhedra(d)[0].scaled(p)
        rays = list(cone.facets)
        w = positive_functional(rays, cone.dim)
        top = max(dot(w, v) for v in region.vrep().vertices).__ceil__()
        width = sum(dot(w, y) for y in rays)
        cap = top + width
        nonpositive_tops += top <= 0
        hull = stable_newton_region(region, cone)
        assert same_set(hull, _hull_below(region, cone, cap))
        # twice the cap, or one more width of Π when twice would not be larger
        assert same_set(hull, _hull_below(region, cone, max(2 * cap, cap + width)))
        assert same_set(hull, _hull_below(region, cone, 3 * abs(top) + 3 * width + 10))
    assert nonpositive_tops >= 3


def test_difference_cap_matches_lp_cap(tnc_datum, octant_datum, q4_datum):
    """Differential: the cap read off double-description vertices against
    the one the simplex finds, for the same functional w."""
    rng = random.Random(43)
    coeffs = lambda k: [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
    divisors = [_random_simplicial_divisor(rng) for _ in range(20)]
    while len(divisors) < 50:  # a random simplicial cone with an interior ray
        gens = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        if mat_rank(gens) == 3:
            cone = PointedCone(gens)
            lam = [rng.randint(1, 3) for _ in range(3)]
            inside = primitive([dot(lam, col) for col in zip(*cone.extreme_rays)])
            datum = ToricDatum(cone, list(cone.extreme_rays) + [inside])
            divisors.append(ToricDivisor(datum, coeffs(4)))
    divisors += [ToricDivisor(datum, coeffs(len(datum.rays)))
                 for datum in (tnc_datum, octant_datum, q4_datum) for _ in range(8)]
    pairs = [divisor_polyhedra(d) for d in divisors]
    cones = [PointedCone([(1, 0), (1, 2)]), PointedCone([(1, 0), (-1, 3)]),
             PointedCone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])]
    for cone in [None] * 3 + cones:  # None: the orthant of dimension 2 or 3
        for _ in range(6):
            dim = cone.dim if cone else rng.randint(2, 3)
            gens = []
            while len(gens) < 3:
                u = tuple(rng.randint(-4, 6) if cone else rng.randint(0, 5)
                          for _ in range(dim))
                if cone is None or cone.contains(u):
                    gens.append(u)
            ideal = MonomialIdeal(gens, ambient=cone)
            pairs.append((ideal.newton_region(), saturated_newton_region(ideal)))
    capped = skew = 0
    for inner, outer in pairs:
        cap = _difference_cap(inner, outer)
        rays = outer.vrep().rays
        if cap is None:
            w = positive_functional(rays, inner.dim) if rays else (0,) * inner.dim
            assert lp_cap(inner, outer, w) is None
            continue
        w, c = cap
        assert c == lp_cap(inner, outer, w), rows(inner)
        capped += 1
        ray_sum = [sum(col) for col in zip(*rays)]
        skew += not all(dot(ray_sum, r) > 0 for r in rays)
    assert capped >= 45 and skew >= 12, (capped, skew)


def _reflected(d, signs):
    """The same divisor in the frame whose coordinates are multiplied by signs."""
    flip = lambda v: tuple(s * x for s, x in zip(signs, v))
    cone = PointedCone([flip(g) for g in d.datum.cone.generators])
    return ToricDivisor(ToricDatum(cone, [flip(r) for r in d.datum.rays]), d.coeffs)


def _fm_saturation(region, rays, walls):
    """Reference saturation: the Fourier-Motzkin slides, inside the walls."""
    rows = [h for r in rays for h in fm_slide(region, r).halfspaces]
    rows += [Halfspace(f, F(0)) for f in walls]
    return Polyhedron(region.dim, rows)


def test_saturation_matches_fourier_motzkin_on_fujita_regions(tnc_datum):
    """Differential: double-description slides against Fourier-Motzkin ones."""
    square = PointedCone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    square_datum = ToricDatum(square, list(square.generators) + [(0, 0, 1), (1, 0, 2)])
    rng = random.Random(37)
    divisors = [tnc_divisor(tnc_datum, t) for t in (F(1, 2), 1, F(3, 2), 2)]
    divisors += [_random_simplicial_divisor(rng) for _ in range(8)]
    divisors += [ToricDivisor(square_datum, [F(rng.randint(-3, 3), rng.randint(1, 2))
                                             for _ in range(6)]) for _ in range(6)]
    strict = 0
    for d in divisors:
        d = _reflected(d, [rng.choice((1, -1)) for _ in range(3)])
        cone = d.datum.cone
        newton = stable_newton_region(divisor_polyhedra(d)[0], cone)
        saturated = saturate_region(newton, cone.facets, ())
        assert same_set(saturated, _fm_saturation(newton, cone.facets, ())), d.coeffs
        strict += not same_set(saturated, newton)
    assert strict >= 10


def test_saturation_matches_fourier_motzkin_on_cone_ambients():
    cones = [PointedCone([(1, 0), (1, 2)]), PointedCone([(1, 0), (-1, 3)]),
             PointedCone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
             PointedCone([(1, 0, 0), (1, 2, 0), (0, 1, 3)])]
    rng = random.Random(41)
    strict = 0
    for cone in cones:
        for _ in range(8):
            # multiples of most extreme rays, so most ideals are primary
            rays = cone.extreme_rays
            gens = [tuple(k * x for x in r)
                    for r, k in zip(rays, rng.choices(range(5), k=len(rays))) if k]
            while len(gens) < 4:
                u = tuple(rng.randint(-4, 6) for _ in range(cone.dim))
                if cone.contains(u):
                    gens.append(u)
            ideal = MonomialIdeal(gens, ambient=cone)
            region = ideal.newton_region()
            saturated = saturated_newton_region(ideal)
            assert same_set(saturated, _fm_saturation(region, ideal.rays, ideal.facets)), gens
            strict += not same_set(saturated, region)
    assert strict >= 24


def _brute_minimal(points, cone):
    """The distinct points no other distinct point lies below modulo the cone."""
    pts = set(points)
    return sorted(u for u in pts if not any(
        v != u and cone.contains(tuple(a - b for a, b in zip(u, v))) for v in pts))


def test_minimal_generators_match_brute_force():
    cones = [
        PointedCone([(1, 0), (0, 1)]),
        PointedCone([(1, 0), (1, 3)]),
        PointedCone([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        PointedCone([(0, 1, 0), (0, 0, 1), (1, 0, -2)]),
        PointedCone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),  # four facets
    ]
    rng = random.Random(29)
    for cone in cones:
        assert _minimal_generators([], cone.facets) == []
        for _ in range(12):
            pts = [tuple(rng.randint(-4, 4) for _ in range(cone.dim))
                   for _ in range(rng.randint(1, 40))]
            pts += rng.choices(pts, k=5)  # duplicates
            gens = _minimal_generators(pts, cone.facets)
            assert sorted(gens) == _brute_minimal(pts, cone), (cone.generators, pts)
