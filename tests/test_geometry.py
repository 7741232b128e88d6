import random
from fractions import Fraction as F
from math import factorial

import pytest

from locvol.geometry import (
    EmptyPolyhedron,
    DimensionCap,
    NotNested,
    NotPointed,
    Polyhedron,
    RecessionMismatch,
    Unbounded,
    _difference_cap,
    dot,
    hull_polyhedron,
    lattice_difference_counts,
    mat_rank,
    positive_functional,
    primitive,
    volume_bounded,
    volume_of_difference,
)
from locvol.toric import saturate_region

from _identities import fm_project_out, lp_cap, lp_has_positive_functional, same_set


def poly(dim, rows):
    return Polyhedron(dim, rows)


def unit_square():
    return poly(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)])


def unit_cube():
    rows = []
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        rows.append((e, 0))
        rows.append((tuple(-x for x in e), -1))
    return poly(3, rows)


def b_body(t):
    """{x,y,z>=0, x-2z>=-2, x+y+z<=t}: the bounded difference body of the
    three-dimensional golden fixture."""
    return poly(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                    ((1, 0, -2), -2), ((-1, -1, -1), F(-t))])


def staircase_hull():
    # conv{(3,0),(1,3)} + first quadrant
    return poly(2, [((1, 0), 1), ((0, 1), 0), ((3, 2), 9)])


# -- vertex enumeration ------------------------------------------------------

def test_unit_square_vertices():
    vr = unit_square().vrep()
    assert set(vr.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert vr.rays == ()


def test_first_quadrant_vrep():
    vr = poly(2, [((1, 0), 0), ((0, 1), 0)]).vrep()
    assert vr.vertices == ((F(0), F(0)),)
    assert set(vr.rays) == {(1, 0), (0, 1)}


def test_b_body_vertices():
    # derived once by brute force over all 3-subsets of the five constraints
    expected = {
        (F(0), F(0), F(0)), (F(0), F(0), F(1)), (F(0), F(1, 2), F(1)),
        (F(0), F(3, 2), F(0)), (F(1, 3), F(0), F(7, 6)), (F(3, 2), F(0), F(0)),
    }
    vr = b_body(F(3, 2)).vrep()
    assert set(vr.vertices) == expected
    assert vr.rays == ()


def test_vertex_enumeration_roundtrip():
    p = b_body(F(3, 2))
    vr = p.vrep()
    q = hull_polyhedron(3, vr.vertices, vr.rays)
    assert same_set(p, q)


def test_roundtrip_unbounded():
    p = staircase_hull()
    vr = p.vrep()
    assert set(vr.vertices) == {(F(1), F(3)), (F(3), F(0))}
    assert set(vr.rays) == {(1, 0), (0, 1)}
    assert same_set(p, hull_polyhedron(2, vr.vertices, vr.rays))


def test_empty_and_cap_errors():
    with pytest.raises(EmptyPolyhedron):
        poly(1, [((1,), 1), ((-1,), 0)]).vrep()
    with pytest.raises(DimensionCap):
        poly(9, [(tuple(int(j == i) for j in range(9)), 0) for i in range(9)]).vrep()


# -- volumes -----------------------------------------------------------------

def test_unit_cube_volume():
    assert volume_bounded(unit_cube()) == 1


def test_simplex_volume_scales_cubically():
    for t in (F(1), F(3, 2), F(7, 3)):
        simplex = poly(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                           ((-1, -1, -1), -t)])
        assert volume_bounded(simplex) == t ** 3 / 6


def test_b_body_volume():
    # 79/144 = vol(S(3/2)) - vol(cut corner) = 27/48 - 1/72
    assert volume_bounded(b_body(F(3, 2))) == F(79, 144)
    assert volume_bounded(b_body(F(1))) == F(1, 6)


def test_volume_unbounded_raises():
    with pytest.raises(Unbounded):
        volume_bounded(staircase_hull())


def test_degenerate_volume_zero():
    flat = poly(3, [((1, 0, 0), 0), ((-1, 0, 0), 0), ((0, 1, 0), 0),
                    ((0, -1, 0), -1), ((0, 0, 1), 0), ((0, 0, -1), -1)])
    assert volume_bounded(flat) == 0


def test_volume_homogeneity_exact():
    p = b_body(F(3, 2))
    for m in (2, 3, F(5, 2)):
        assert volume_bounded(p.scaled(m)) == F(m) ** 3 * F(79, 144)


def test_scaled_polyhedra_carry_their_vertices():
    """Once P's vertices are known, m*P comes with m times them and P's
    rays: what a fresh double description of the scaled rows finds."""
    bodies = [b_body(F(3, 2)), unit_cube(), staircase_hull(),
              poly(2, [((0, 1), F(-1, 2)), ((1, 1), 0), ((1, 2), 1)])]
    for p in bodies:
        p.vrep()
        for m in (1, 3, F(2, 3), F(7, 2)):
            q = p.scaled(m)
            assert q._vrep is not None
            assert q._vrep == Polyhedron(q.dim, q.halfspaces).vrep()


# -- difference volumes ------------------------------------------------------

def test_difference_equal_polyhedra_is_zero():
    p = staircase_hull()
    assert volume_of_difference(p, p) == 0


def test_difference_staircase():
    inner = staircase_hull()
    outer = poly(2, [((1, 0), 1), ((0, 1), 0)])
    assert volume_of_difference(inner, outer) == 3


def test_difference_tnc_polyhedra():
    # inner has all five ray constraints, outer drops the interior one
    t = F(3, 2)
    inner = poly(3, [((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 0, -2), -2),
                     ((1, 0, 0), 0), ((1, 1, 1), t)])
    outer = poly(3, [((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 0, -2), -2),
                     ((1, 0, 0), 0)])
    assert volume_of_difference(inner, outer) == F(79, 144)


def test_difference_errors():
    inner = poly(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)])
    shifted = poly(2, [((1, 0), -1), ((0, 1), 0)])
    with pytest.raises(NotNested):
        volume_of_difference(shifted, inner)
    cone_narrow = poly(2, [((0, 1), 0), ((1, -1), 0)])  # {y>=0, x>=y}: inside quadrant
    with pytest.raises(RecessionMismatch):
        volume_of_difference(cone_narrow, poly(2, [((1, 0), 0), ((0, 1), 0)]))


def test_difference_unbounded_detected():
    inner = poly(2, [((1, 0), 1), ((0, 1), 0)])
    outer = poly(2, [((1, 0), 0), ((0, 1), 0)])
    with pytest.raises(Unbounded):
        volume_of_difference(inner, outer)


def test_cap_independence():
    from locvol.geometry import _cap_halfspace, _difference_cap

    inner = staircase_hull()
    outer = poly(2, [((1, 0), 1), ((0, 1), 0)])
    w, c = _difference_cap(inner, outer)
    for bump in (0, 1, 2):
        h = _cap_halfspace(w, c + bump)
        got = volume_bounded(outer.intersect(h)) - volume_bounded(inner.intersect(h))
        assert got == 3


def test_difference_additivity():
    from locvol.geometry import _cap_halfspace, _difference_cap

    inner = staircase_hull()
    outer = poly(2, [((1, 0), 1), ((0, 1), 0)])
    w, c = _difference_cap(inner, outer)
    h = _cap_halfspace(w, c)
    assert volume_bounded(outer.intersect(h)) == (
        volume_bounded(inner.intersect(h)) + volume_of_difference(inner, outer)
    )


def skew_pairs():
    """Nested pairs whose recession cone cone((1,0), (-1,1)) has a ray sum
    (0, 1) that vanishes on (1, 0): in the plane, and as a lower-dimensional
    cone of a slab in space.  The inner one adds x + 2y >= 1."""
    plane = poly(2, [((0, 1), 0), ((1, 1), 0)])
    slab = poly(3, [((0, 1, 0), 0), ((1, 1, 0), 0), ((0, 0, 1), 0), ((0, 0, -1), -1)])
    return [(p.intersect(((1, 2) + (0,) * (p.dim - 2), 1)), p) for p in (plane, slab)]


def test_skew_recession_cones_cap_like_the_lp():
    for inner, outer in skew_pairs():
        rays = outer.vrep().rays
        ray_sum = [sum(c) for c in zip(*rays)]
        assert not all(dot(ray_sum, r) > 0 for r in rays)
        w, c = _difference_cap(inner, outer)
        assert all(dot(w, r) > 0 for r in rays)
        assert c == lp_cap(inner, outer, w)
        # the difference is the triangle (0,0), (1,0), (-1,1), times [0,1] in space
        assert volume_of_difference(inner, outer) == F(1, 2)
        for m in (1, 2):
            assert lattice_difference_counts(inner, outer, [m])[0] == brute_count(inner, outer, m)


def test_positive_functional_matches_lp_feasibility():
    """Differential: the double-description functional exists exactly when
    the LP {<r, w> >= 1} is feasible, and is then positive on every ray."""
    rng = random.Random(53)
    ray_sets = [[(1, 0), (-1, 0)], [(1, 0, 0), (-1, 0, 0), (0, 1, 0)],
                [(1, 0, 0), (-1, 1, 0)], [(1, 2, 0, 0), (-1, -1, 1, 0)],
                [(1, 0), (0, 1), (-1, -1)]]
    while len(ray_sets) < 400:
        dim = rng.randint(2, 4)
        rays = {primitive([rng.randint(-3, 3) for _ in range(dim)])
                for _ in range(rng.randint(1, dim + 2))}
        ray_sets.append(sorted(r for r in rays if any(r)))
    fallback = not_pointed = lower = 0
    for rays in ray_sets:
        dim = len(rays[0])
        feasible = lp_has_positive_functional(rays, dim)
        try:
            w = positive_functional(rays, dim)
        except NotPointed:
            assert not feasible, rays
            not_pointed += 1
            continue
        assert feasible and all(dot(w, r) > 0 for r in rays), rays
        fallback += not all(dot([sum(c) for c in zip(*rays)], r) > 0 for r in rays)
        lower += mat_rank(rays) < dim
    assert fallback >= 80 and not_pointed >= 30 and lower >= 100, (
        fallback, not_pointed, lower)


# -- lattice counting --------------------------------------------------------

def brute_count(inner, outer, m):
    """Independent oracle: plain loop over a box with margin."""
    lim = 3 * m + 3
    count = 0
    dim = inner.dim
    from itertools import product

    inner_m, outer_m = inner.scaled(m), outer.scaled(m)
    for pt in product(range(-2, lim + 1), repeat=dim):
        if outer_m.contains(pt) and not inner_m.contains(pt):
            count += 1
    return count


def test_count_equal_is_zero():
    p = staircase_hull()
    assert lattice_difference_counts(p, p, [3])[0] == 0


def test_count_staircase_m1():
    inner = staircase_hull()
    outer = poly(2, [((1, 0), 1), ((0, 1), 0)])
    # the hull difference holds 5 lattice points: (2,2) satisfies 3x+2y >= 9
    # and so sits inside the inner hull even though it escapes the staircase
    assert lattice_difference_counts(inner, outer, [1])[0] == 5
    assert lattice_difference_counts(inner, outer, [1])[0] == brute_count(inner, outer, 1)


def test_count_matches_bruteforce_tnc():
    t = F(1)
    inner = poly(3, [((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 0, -2), -2),
                     ((1, 0, 0), 0), ((1, 1, 1), t)])
    outer = poly(3, [((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 0, -2), -2),
                     ((1, 0, 0), 0)])
    for m in (1, 2, 3):
        got = lattice_difference_counts(inner, outer, [m])[0]
        assert got == brute_count(inner, outer, m)
    assert lattice_difference_counts(inner, outer, [1])[0] == 1


def test_count_converges_to_volume():
    inner = staircase_hull()
    outer = poly(2, [((1, 0), 1), ((0, 1), 0)])
    vol = volume_of_difference(inner, outer)
    for m in (10, 20, 40):
        ratio = F(lattice_difference_counts(inner, outer, [m])[0], m ** 2)
        assert abs(ratio - vol) * m <= 8  # perimeter-scale error bound


# -- fibre scan against a dense scan -------------------------------------------

def dense_points(rows, lo, hi):
    """Reference: every point of the box, tested against every row."""
    from itertools import product

    return [pt for pt in product(*[range(l, h + 1) for l, h in zip(lo, hi)])
            if all(sum(a * x for a, x in zip(n, pt)) >= b for n, b in rows)]


def dense_count(outer_rows, inner_rows, lo, hi):
    inner = set(dense_points(inner_rows, lo, hi))
    return sum(1 for pt in dense_points(outer_rows, lo, hi) if pt not in inner)


def random_rows(rng, dim, k):
    """Integer rows with small entries; about a third have last coefficient 0."""
    rows = []
    for _ in range(k):
        normal = [rng.randint(-3, 3) for _ in range(dim)]
        if rng.random() < 1 / 3:
            normal[-1] = 0
        rows.append((tuple(normal), rng.randint(-8, 3)))
    return rows


def random_box(rng, dim):
    lo = [rng.randint(-4, 1) for _ in range(dim)]
    return lo, [l + rng.randint(-1, 5 - dim) for l in lo]  # width 0 gives empty boxes


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_fibre_count_matches_dense_scan(dim):
    from locvol.geometry import count_lattice_points

    rng = random.Random(dim)
    for _ in range(60):
        lo, hi = random_box(rng, dim)
        outer = random_rows(rng, dim, rng.randint(0, 4))
        inner = outer + random_rows(rng, dim, rng.randint(1, 3))
        assert count_lattice_points(outer, inner, lo, hi) == dense_count(outer, inner, lo, hi)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_lattice_points_match_dense_scan(dim):
    from locvol.geometry import lattice_points

    rng = random.Random(10 + dim)
    for _ in range(40):
        lo, hi = random_box(rng, dim)
        box_rows = []
        for i in range(dim):
            e = tuple(1 if j == i else 0 for j in range(dim))
            box_rows += [(e, lo[i]), (tuple(-x for x in e), -hi[i])]
        rows = box_rows + [r for r in random_rows(rng, dim, rng.randint(0, 3)) if any(r[0])]
        p = poly(dim, [(n, F(b) - F(rng.randint(0, 2), 3)) for n, b in rows])
        expected = dense_points(
            [(h.normal, h.offset) for h in p.halfspaces],
            [l - 1 for l in lo], [h + 1 for h in hi],
        )
        assert lattice_points(p) == expected


def test_box_of_bounds_the_lattice_points_of_every_scale():
    from itertools import product

    from locvol.geometry import _box_of

    rng = random.Random(31)
    bodies = [b_body(F(3, 2)), unit_cube()]
    while len(bodies) < 8:
        dim = rng.choice((2, 3))
        box = [(tuple(s * int(j == i) for j in range(dim)),
                F(-rng.randint(1, 3), rng.randint(1, 2))) for i in range(dim) for s in (1, -1)]
        rows = [(tuple(rng.randint(-3, 3) for _ in range(dim)), F(rng.randint(-6, 1), 2))
                for _ in range(2)]
        body = poly(dim, box + [r for r in rows if any(r[0])])
        try:
            body.vrep()
        except EmptyPolyhedron:
            continue
        bodies.append(body)
    for body in bodies:
        for m in (1, 2, 3, F(5, 2)):
            scaled = body.scaled(m)
            lo, hi = _box_of(body, m)
            assert (lo, hi) == _box_of(scaled)
            reach = range(-int(3 * m) - 2, int(3 * m) + 3)
            points = [pt for pt in product(reach, repeat=body.dim) if scaled.contains(pt)]
            assert all(l <= x <= h for pt in points for x, l, h in zip(pt, lo, hi))


def test_fibre_scan_at_2_62_takes_exact_integers():
    from locvol.geometry import count_lattice_points, lattice_points

    big = 2 ** 62 + 5
    # a small triangle translated to x = big: rows x >= big, y >= 0, x + y <= big + 3
    rows = [((1, 0), big), ((0, 1), 0), ((-1, -1), -(big + 3))]
    lo, hi = [big - 1, -1], [big + 4, 4]
    pts = lattice_points(poly(2, rows))
    assert pts == [(big + i, j) for i in range(4) for j in range(4 - i)]
    assert all(type(x) is int for pt in pts for x in pt)
    inner = rows + [((1, 1), big + 2)]
    small = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -3)]
    assert count_lattice_points(rows, inner, lo, hi) == dense_count(
        small, small + [((1, 1), 2)], [-1, -1], [4, 4]
    ) == 3


def test_fibre_budget_is_checked_before_scanning():
    from locvol.geometry import FIBRE_LIMIT, LatticeBudget, count_lattice_points

    side = int(FIBRE_LIMIT ** 0.5) + 1
    with pytest.raises(LatticeBudget):
        count_lattice_points([((0, 0, 1), 0)], [], [0, 0, 0], [side, side, 1])


def test_dd_pass_over_the_ray_budget_raises(monkeypatch):
    from locvol import dd

    # cone over the unit square: after the three independent rows, the last
    # row splits the rays (0,0,1), (1,0,1), (0,1,0) into two positive and one
    # negative, so its pass builds two candidate rays
    rows = [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)]
    monkeypatch.setattr(dd, "RAY_LIMIT", 2)
    rays, lin = dd.cone_extreme_rays(rows, 3)
    assert sorted(rays) == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)] and lin == []
    monkeypatch.setattr(dd, "RAY_LIMIT", 1)
    with pytest.raises(dd.RayBudget, match="pair 2 with 1 rays, over the limit of 1"):
        dd.cone_extreme_rays(rows, 3)


def test_floor_sum_matches_naive_sum():
    from locvol.lattice import _floor_sum

    rng = random.Random(7)
    for trial in range(600):
        size = 2 ** 70 if trial % 3 == 0 else 50  # every third draw is past 2**62
        n = rng.randint(0, 40)
        m = rng.randint(1, size)
        a, b = rng.randint(-size, size), rng.randint(-size, size)
        assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def slice_rows(rng, dim, k):
    """Integer rows drawn to hit every case of a slice: rows with a zero last
    coefficient, rows zero in both slice coordinates, and hyperplanes (a row
    and its negation), whose slices leave many x with no integer y."""
    rows = []
    for _ in range(k):
        normal = [rng.randint(-5, 5) for _ in range(dim)]
        case = rng.random()
        if case < 0.25:
            normal[-1] = 0
        elif case < 0.4:
            normal[-2:] = [0] * min(2, dim)
        rows.append((tuple(normal), rng.randint(-12, 6)))
        if case > 0.85:
            rows.append((tuple(-x for x in normal), -rows[-1][1]))
    return rows


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_slice_count_matches_dense_scan(dim):
    from locvol.geometry import count_lattice_points
    from locvol.lattice import _count, _envelope_at, _slices

    rng = random.Random(100 + dim)
    # prefixes whose x-range is empty, and x inside an x-range with no point
    # (no integer between the lower and the upper envelope) or with some
    seen = {"empty x-range": 0, "empty fibre": 0, "fibre with points": 0}
    for _ in range(150):
        lo = [rng.randint(-5, 1) for _ in range(dim)]
        hi = [l + rng.randint(-1, 6 - dim) for l in lo]
        outer = slice_rows(rng, dim, rng.randint(0, 5))
        inner = outer + slice_rows(rng, dim, rng.randint(1, 3))
        assert _count(outer, lo, hi) == len(dense_points(outer, lo, hi))
        assert count_lattice_points(outer, inner, lo, hi) == dense_count(outer, inner, lo, hi)
        prefixes = 1
        for l, h in zip(lo[:-2], hi[:-2]):
            prefixes *= max(0, h - l + 1)
        slices = list(_slices(outer, lo, hi))
        seen["empty x-range"] += prefixes - len(slices)
        for _, x0, x1, upper, lower in slices:
            for x in range(x0, x1 + 1):
                width = _envelope_at(upper, x) + _envelope_at(lower, x) + 1
                assert width >= 0
                seen["empty fibre" if width == 0 else "fibre with points"] += 1
    if dim == 1:  # y is pinned to 0, so every x in the range is a point
        del seen["empty fibre"]
    assert all(seen.values()), seen


def test_enumeration_is_counted_before_any_point_is_built():
    import tracemalloc

    from locvol.geometry import POINT_LIMIT, LatticeBudget, lattice_points

    box = poly(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -999), ((0, -1), -1048)])
    assert 1000 * 1049 > POINT_LIMIT
    box.vrep()
    tracemalloc.start()
    try:
        with pytest.raises(LatticeBudget):
            lattice_points(box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # the points alone would take some 250 MB


@pytest.mark.parametrize("t", ["1/2", "1", "3/2", "2"])
def test_tnc_h1_sequence_matches_pinned_counts(t):
    import json
    from math import comb
    from pathlib import Path

    from locvol.toric import PointedCone, ToricDatum, ToricDivisor, h1_sequence

    pinned = json.loads((Path(__file__).resolve().parents[1] / "perfbench" /
                         "pinned.json").read_text())["h1"]
    cone = [(0, 1, 0), (0, 0, 1), (1, 0, -2)]
    datum = ToricDatum(PointedCone(cone), cone + [(1, 1, 1), (1, 0, 0)])
    d = ToricDivisor(datum, (0, 0, 2, -F(t), 0))
    if t == "1":  # the unit-volume family has comb(m + 2, 3) points at level m
        m_max, expected = 60, {m: comb(m + 2, 3) for m in range(1, 61)}
    else:
        expected = {int(m): c for m, c in pinned[t].items()}
        m_max = max(expected)
    seq = h1_sequence(d, m_max)
    assert [m for m, _, _ in seq] == sorted(expected)
    assert all(c == expected[m] for m, c, _ in seq)


@pytest.mark.parametrize("family", ["tnc", "q4"])
def test_h1_sequence_matches_per_level_counts(family):
    from locvol.toric import (PointedCone, ToricDatum, ToricDivisor,
                              divisor_polyhedra, h1_sequence)

    if family == "tnc":
        cone = [(0, 1, 0), (0, 0, 1), (1, 0, -2)]
        datum = ToricDatum(PointedCone(cone), cone + [(1, 1, 1), (1, 0, 0)])
        d, m_max = ToricDivisor(datum, (0, 0, 2, F(-3, 2), 0)), 9
    else:
        cone = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        rays = cone + [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1)]
        d, m_max = ToricDivisor(ToricDatum(PointedCone(cone), rays),
                                (0, 0, 0, 0, -2, -2, -3, -3)), 4
    inner, outer = divisor_polyhedra(d)
    n = d.datum.dim
    expected = []
    for m in range(1, m_max + 1):
        if all((m * a).denominator == 1 for a in d.coeffs):
            # cap and box built on the scaled polyhedra themselves
            c = lattice_difference_counts(inner.scaled(m), outer.scaled(m), [1])[0]
            assert c == lattice_difference_counts(inner, outer, [m])[0]
            expected.append((m, c, F(factorial(n) * c, m ** n)))
    assert h1_sequence(d, m_max) == expected
    assert [m for m, _, _ in expected] == (
        list(range(2, m_max + 1, 2)) if family == "tnc" else list(range(1, m_max + 1))
    )


# -- projection and sliding --------------------------------------------------

def test_project_triangle():
    p = poly(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)])
    q = fm_project_out(p, 0)
    assert same_set(q, poly(1, [((1,), 0), ((-1,), -1)]))


def test_project_staircase_hull():
    q = fm_project_out(staircase_hull(), 1)
    assert same_set(q, poly(1, [((1,), 1)]))


def test_project_b_body():
    q = fm_project_out(b_body(F(3, 2)), 2)
    assert same_set(q, poly(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), F(-3, 2))]))


def test_saturate_region_slide():
    p = staircase_hull()
    # sliding along -x relaxes every x-positive constraint: only y >= 0 is left
    assert same_set(saturate_region(p, [(1, 0)], ()), poly(2, [((0, 1), 0)]))
    # sliding along -y leaves exactly the x >= 1 wall
    assert same_set(saturate_region(p, [(0, 1)], ()), poly(2, [((1, 0), 1)]))


# -- independent cross-checks ------------------------------------------------

def brute_vertices(p):
    """Oracle: solve every dim-subset of tight constraints, keep feasible."""
    from itertools import combinations

    from locvol.linalg import mat_rank, solve_linear

    verts = set()
    for sub in combinations(p.halfspaces, p.dim):
        rows = [list(h.normal) for h in sub]
        if mat_rank(rows) < p.dim:
            continue
        x = solve_linear(rows, [h.offset for h in sub])
        if p.contains(x):
            verts.add(x)
    return verts


def test_vertices_match_bruteforce_randomized():
    import random

    rng = random.Random(99)
    for _ in range(25):
        dim = rng.choice((2, 3))
        rows = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), F(rng.randint(-6, 2)))
            for _ in range(rng.randint(2, 5))
        ]
        rows = [r for r in rows if any(r[0])]
        box = []
        for i in range(dim):
            e = tuple(1 if j == i else 0 for j in range(dim))
            box.append((e, -4))
            box.append((tuple(-x for x in e), -4))
        p = poly(dim, rows + box)
        try:
            vr = p.vrep()
        except EmptyPolyhedron:
            assert not brute_vertices(p)
            continue
        assert set(vr.vertices) == brute_vertices(p)
        assert vr.rays == ()


def test_octahedron_degenerate_vertices():
    rows = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                rows.append(((sx, sy, sz), -1))
    p = poly(3, rows)
    vr = p.vrep()
    assert len(vr.vertices) == 6  # each vertex tight on four facets
    assert volume_bounded(p) == F(4, 3)


def test_cross_polytope_dim4():
    from itertools import product as iproduct

    rows = [(signs, -1) for signs in iproduct((1, -1), repeat=4)]
    p = poly(4, rows)
    assert len(p.vrep().vertices) == 8
    assert volume_bounded(p) == F(2, 3)
