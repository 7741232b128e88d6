import gc
import random
import sys
from fractions import Fraction as F
from itertools import product
from math import factorial

import pytest

from locvol.geometry import FIBRE_LIMIT, Halfspace, LatticeBudget, Polyhedron
from locvol.monomial import (
    GeneratorBlowup,
    MonomialIdeal,
    UnsupportedAmbient,
    _orthant_transform,
    _staircase_mask,
    asymptotic_multiplicity,
    h1_dim,
    multiplicity_sequence,
    power,
    saturated_newton_region,
    saturation,
)
from locvol.toric import PointedCone

from _identities import contains_exponent, fm_project_out, reference_power, same_set


def ideal(*gens):
    return MonomialIdeal(list(gens))


def brute_h1(I, box=12):
    """Independent oracle: direct staircase scan of saturation minus ideal."""
    sat = saturation(I)
    return sum(
        1
        for pt in product(range(box), repeat=I.dim)
        if contains_exponent(sat, pt) and not contains_exponent(I, pt)
    )


def dense_h1(I):
    """Reference: staircase masks over a box that doubles until nothing
    counted touches its outer faces."""
    if I.ambient is not None:
        I = _orthant_transform(I)[0]
    sat = saturation(I)
    box = max(x for g in I.generators + sat.generators for x in g)
    while True:
        pts = list(product(range(box + 1), repeat=I.dim))
        gap = [pt for pt, s, i in zip(pts, _staircase_mask(pts, sat.generators),
                                      _staircase_mask(pts, I.generators)) if s and not i]
        if not gap or max(map(max, gap)) < box:
            return len(gap)
        box *= 2


def test_minimalization_and_equality():
    assert ideal((3, 0), (1, 3), (4, 1), (1, 4)).generators == ((1, 3), (3, 0))
    assert ideal((3, 0), (1, 3)) == ideal((1, 3), (3, 0), (5, 5))


def test_power_examples():
    principal = ideal((2, 5))
    assert power(principal, 3).generators == ((6, 15),)
    assert power(ideal((3, 0), (1, 3)), 2).generators == ((2, 6), (4, 3), (6, 0))
    assert power(ideal((1, 0), (0, 1)), 2).generators == ((0, 2), (1, 1), (2, 0))


def test_power_blowup_guard():
    wide = MonomialIdeal([(i, 120 - i) for i in range(121)])
    with pytest.raises(GeneratorBlowup):
        power(wide, 5)


def test_saturation_examples():
    assert saturation(ideal((1, 0), (0, 1))).generators == ((0, 0),)
    assert saturation(ideal((3, 0), (1, 3))).generators == ((1, 0),)
    assert saturation(ideal((2, 5))).generators == ((2, 5),)


def test_saturation_idempotent_and_extensive():
    for I in (ideal((3, 0), (1, 3)), ideal((2, 1), (1, 2)), ideal((4, 0), (0, 3))):
        sat = saturation(I)
        assert saturation(sat) == sat
        for g in I.generators:
            assert contains_exponent(sat, g)


def test_h1_dim_examples():
    assert h1_dim(ideal((3, 0), (1, 3))) == 6
    assert h1_dim(power(ideal((1, 0), (0, 1)), 3)) == 6
    assert h1_dim(ideal((2, 5))) == 0
    assert h1_dim(ideal((3, 0), (1, 3))) == brute_h1(ideal((3, 0), (1, 3)))
    # x^3 (x, y^4) is not m-primary: its saturation is (x^3)
    assert h1_dim(ideal((4, 0), (3, 4))) == 4


def test_h1_zero_iff_saturated():
    for I in (ideal((3, 0), (1, 3)), ideal((1, 0)), ideal((2, 2), (0, 5))):
        assert (h1_dim(I) == 0) == (saturation(I) == I)


def test_h1_three_variables():
    I = MonomialIdeal([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert h1_dim(I) == 1
    J = MonomialIdeal([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])
    assert h1_dim(J) == brute_h1(J, box=8)


def test_asymptotic_multiplicity_examples():
    assert asymptotic_multiplicity(ideal((3, 0), (1, 3))) == 6
    assert asymptotic_multiplicity(ideal((2, 5))) == 0
    for a, b in ((2, 3), (4, 5), (3, 7)):
        assert asymptotic_multiplicity(ideal((a, 0), (0, b))) == a * b


def test_homogeneity_through_powers():
    I = ideal((3, 0), (1, 3))
    base = asymptotic_multiplicity(I)
    for k in (2, 3):
        assert asymptotic_multiplicity(power(I, k)) == k ** 2 * base


def test_multiplicity_sequence_maximal_ideal():
    seq = multiplicity_sequence(ideal((1, 0), (0, 1)), 8)
    assert [(p, h) for p, h, _ in seq] == [
        (p, p * (p + 1) // 2) for p in range(1, 9)
    ]
    assert seq[-1][2] == F(2 * 36, 64)


def test_multiplicity_sequence_converges():
    I = ideal((3, 0), (1, 3))
    target = asymptotic_multiplicity(I)
    seq = multiplicity_sequence(I, 40)
    assert abs(seq[-1][2] - target) / target <= F(1, 10)
    # empirical O(1/p) error: |value - limit| * p stays bounded
    assert all(abs(norm - target) * p <= 8 for p, _, norm in seq)


def _lifted_shadows(ideal):
    """The orthant saturation as lifted coordinate shadows of the Newton region,
    intersected with the orthant."""
    region, n = ideal.newton_region(), ideal.dim
    rows = []
    for i in range(n):
        for h in fm_project_out(region, i).halfspaces:
            rows.append(Halfspace(h.normal[:i] + (0,) + h.normal[i:], h.offset))
    rows += [Halfspace(tuple(int(j == i) for j in range(n)), F(0)) for i in range(n)]
    return Polyhedron(n, rows)


def test_orthant_saturation_matches_lifted_shadows():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.choice((2, 3))
        gens = [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        I = MonomialIdeal(gens)
        assert same_set(saturated_newton_region(I), _lifted_shadows(I)), gens


def test_cone_ambient_unimodular_roundtrip():
    uni = PointedCone([(1, 0), (1, 1)])
    L = MonomialIdeal([(1, 0), (1, 1)], ambient=uni)
    assert saturation(L).generators == ((0, 0),)
    assert h1_dim(L) == 1
    assert asymptotic_multiplicity(L) == 1
    # (1, 0) and (1, 1) are the orthant's unit vectors in the rays' frame
    assert multiplicity_sequence(L, 3) == multiplicity_sequence(ideal((1, 0), (0, 1)), 3)


def test_cone_ambient_nonunimodular_asymptotics():
    skew = PointedCone([(1, 0), (1, 2)])
    K = MonomialIdeal([(1, 0), (1, 1)], ambient=skew)
    # difference region is the triangle (1/2,0),(1,0),(1,1): area 1/4, times 2!
    assert asymptotic_multiplicity(K) == F(1, 2)
    assert asymptotic_multiplicity(MonomialIdeal([(2, 2)], ambient=skew)) == 0
    with pytest.raises(UnsupportedAmbient):
        h1_dim(K)


def test_cone_ambient_membership_validation():
    skew = PointedCone([(1, 0), (1, 2)])
    with pytest.raises(ValueError):
        MonomialIdeal([(0, 1)], ambient=skew)


def test_h1_dim_needs_no_enumeration_box():
    # saturated to (1), so h1 is the colength 1 + 2 * 9999 of a 10^8-point box
    huge = MonomialIdeal([(10 ** 4, 0), (0, 10 ** 4), (1, 1)])
    assert h1_dim(huge) == 19999


def test_h1_dim_prefix_grid_budget():
    wide = MonomialIdeal([(FIBRE_LIMIT, 0), (0, 1)])
    with pytest.raises(LatticeBudget):
        h1_dim(wide)


def _random_ideal(rng, n, ambient=None):
    top = 4 if n < 4 else 3
    gens = [[rng.randint(0, top) for _ in range(n)]
            for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.7:  # pure powers make it m-primary
        gens += [[rng.randint(1, top) if j == i else 0 for j in range(n)]
                 for i in range(n)]
    if ambient is not None:
        rays = ambient.extreme_rays
        gens = [[sum(r[i] * c for r, c in zip(rays, g)) for i in range(n)]
                for g in gens]
    return MonomialIdeal(gens, ambient)


def test_h1_dim_matches_dense_staircase_count():
    rng = random.Random(11)
    cones = [PointedCone([(1, 0), (1, 1)]),
             PointedCone([(1, 0, 0), (1, 1, 0), (0, 1, 1)])]
    for _ in range(120):
        n = rng.randint(1, 4)
        I = _random_ideal(rng, n)
        if n < 4 and rng.random() < 0.4:
            I = power(I, rng.randint(2, 3))
        assert h1_dim(I) == dense_h1(I), I
    for cone in cones:
        for _ in range(15):
            I = _random_ideal(rng, cone.dim, cone)
            assert h1_dim(I) == dense_h1(I), I


def _reference_sequence(I, p_max):
    """multiplicity_sequence with every power built from scratch."""
    rows = []
    for p in range(1, p_max + 1):
        h1 = h1_dim(reference_power(I, p))
        rows.append((p, h1, F(factorial(I.dim) * h1, p ** I.dim)))
    return rows


def test_power_walk_matches_the_from_scratch_power():
    rng = random.Random(34)
    cones = {2: PointedCone([(1, 0), (1, 1)]),
             3: PointedCone([(1, 0, 0), (1, 1, 0), (0, 1, 1)]),
             4: PointedCone([(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])}
    for n, cases, top in ((2, 24, 46), (3, 12, 8), (4, 8, 8)):
        for case in range(cases):
            ambient = cones[n] if case % 3 == 2 else None
            I = _random_ideal(rng, n, ambient)
            while len(I.generators) > 3 and n == 2:  # keeps the reference at p 46 cheap
                I = _random_ideal(rng, n, ambient)
            p_max = rng.randint(top // 2, top)
            for p in (1, 2, p_max):
                assert power(I, p) == reference_power(I, p), (I, p)
                assert repr(power(I, p)) == repr(reference_power(I, p))
            assert multiplicity_sequence(I, p_max) == _reference_sequence(I, p_max), I


def test_power_walk_refuses_the_same_first_level():
    for k, first in ((1415, 2), (183, 3)):
        line = MonomialIdeal([(i, k - 1 - i) for i in range(k)])
        # the walk stops at p_max: the level past it would be refused
        assert multiplicity_sequence(line, first - 1) == _reference_sequence(line, first - 1)
        for p_max in (first, first + 2):
            with pytest.raises(GeneratorBlowup) as walked:
                multiplicity_sequence(line, p_max)
            with pytest.raises(GeneratorBlowup) as scratch:
                _reference_sequence(line, p_max)
            assert str(walked.value) == str(scratch.value)
            assert str(walked.value).endswith(f"at power {first}")
            with pytest.raises(GeneratorBlowup) as walked:
                power(line, p_max)
            with pytest.raises(GeneratorBlowup) as scratch:
                reference_power(line, p_max)
            assert str(walked.value) == str(scratch.value)


def test_multiplicity_sequences_leave_no_blocks_behind():
    # a run of staircase sequences must not park freed blocks on the
    # allocator's freelists.  CPython 3.11 keeps every freed 20-tuple on a
    # freelist it never draws from, up to 2,000 of them; the p-fold
    # combination tuples of powers built from scratch filled it within 20
    # sequences (about 1,700 blocks over this window), while the walk parks
    # one or two per sequence.  One full collection empties the freelists before
    # the warm-up, whatever earlier tests left there; none runs in the
    # measured window, where it would hide the drift
    rng = random.Random(34)
    runs = []
    for _ in range(200):
        gens = [(4, 0), (rng.randint(1, 3), rng.randint(2, 4))]
        if rng.random() < 0.5:
            gens = [g[::-1] for g in gens]
        runs.append((MonomialIdeal(gens), rng.choice((30, 46))))
    gc.collect()
    for I, p in runs[:5]:
        multiplicity_sequence(I, p)
    before = sys.getallocatedblocks()
    for I, p in runs:
        multiplicity_sequence(I, p)
    assert sys.getallocatedblocks() - before < 800
