"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from locvol.cone import (
    AbelianCover,
    Curve,
    LatticeModel,
    ProjSpace,
    bdff_cone_volume,
    cone_gamma_volume,
    cone_singularity_volume,
    volume_function,
)
from locvol.exactnum import QuadraticNumber
from locvol.geometry import lattice_difference_counts
from locvol.monomial import MonomialIdeal, asymptotic_multiplicity, \
    multiplicity_sequence
from locvol.surface import DualGraph, SurfaceLattice, singularity_volume
from locvol.toric import (
    PointedCone,
    ToricDatum,
    ToricDivisor,
    divisor_polyhedra,
    effectivity_vanishing_check,
    fujita_sequence,
    local_volume_toric,
)

from _identities import abelian_closed_form_identity_holds, certified_cbrt_gap, \
    interior_indices


@contextmanager
def criterion(number, budget_seconds, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed <= budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
    )
    print(f"ACCEPTANCE {number}: PASS - {label} ({elapsed:.2f}s)")


def tnc_datum():
    sigma = PointedCone([(0, 1, 0), (0, 0, 1), (1, 0, -2)])
    return ToricDatum(sigma, [(0, 1, 0), (0, 0, 1), (1, 0, -2), (1, 1, 1), (1, 0, 0)])


def tnc_divisor(datum, t):
    return ToricDivisor(datum, (F(0), F(0), F(2), -F(t), F(0)))


def octant_datum():
    octant = PointedCone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    return ToricDatum(octant, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])


def test_criterion_1_toric_golden_values():
    with criterion(1, 10, "toric golden values with lattice confirmation"):
        datum = tnc_datum()
        for t in (F(1, 4), F(1, 2), F(1)):
            assert local_volume_toric(tnc_divisor(datum, t)) == t ** 3
        d = tnc_divisor(datum, F(3, 2))
        target = local_volume_toric(d)
        assert target == F(79, 24)
        inner, outer = divisor_polyhedra(d)
        count = lattice_difference_counts(inner, outer, [60])[0]
        ratio = F(6 * count, 60 ** 3)
        assert abs(ratio - target) / target <= F(5, 100)


def test_criterion_2_non_convexity_certified():
    with criterion(2, 1, "non-convexity certified at interval width 1e-9"):
        datum = tnc_datum()
        v_half = local_volume_toric(tnc_divisor(datum, F(1, 2)))
        v_three_half = local_volume_toric(tnc_divisor(datum, F(3, 2)))
        v_one = local_volume_toric(tnc_divisor(datum, F(1)))
        # vol(a)^(1/3) + vol(b)^(1/3) < 2 vol(mid)^(1/3) = (8 vol(mid))^(1/3)
        (lhs_lo, lhs_hi), (rhs_lo, rhs_hi) = certified_cbrt_gap(
            v_half, v_three_half, 8 * v_one, scale=10 ** 9
        )
        assert lhs_hi - lhs_lo <= F(1, 10 ** 9)
        assert rhs_hi - rhs_lo <= F(1, 10 ** 9)
        assert lhs_hi < rhs_lo  # certified strict failure of midpoint convexity
        assert rhs_lo - lhs_hi > F(1, 100)  # resolves the ~1.2e-2 gap


def test_criterion_3_monomial_multiplicities():
    with criterion(3, 30, "monomial multiplicities and Hilbert-Samuel agreement"):
        staircase = MonomialIdeal([(3, 0), (1, 3)])
        assert asymptotic_multiplicity(staircase) == 6
        seq = multiplicity_sequence(staircase, 40)
        assert abs(seq[-1][2] - 6) / 6 <= F(1, 10)
        for a, b in ((2, 3), (4, 5)):
            assert asymptotic_multiplicity(MonomialIdeal([(a, 0), (0, b)])) == a * b


def test_criterion_4_surface_zariski():
    with criterion(4, 1, "surface volumes: ADE, one-vertex grid, closed form"):
        chains = [DualGraph([(-2, 0)] * n, [(i, i + 1, 1) for i in range(n - 1)])
                  for n in range(1, 6)]
        d4 = DualGraph([(-2, 0)] * 4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        e8 = DualGraph([(-2, 0)] * 8,
                       [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1),
                        (5, 6, 1), (2, 7, 1)])
        for g in chains + [d4, e8]:
            assert singularity_volume(g) == 0
        for genus in (2, 3, 4):
            for deg in range(1, 6):
                got = singularity_volume(DualGraph([(-deg, genus)]))
                assert got == F((2 * genus - 2) ** 2, deg)
        w = F(1, 4)  # quasi-homogeneous weights (1/4, 1/4, 1/4)
        assert singularity_volume(DualGraph([(-4, 3)])) == (1 - 3 * w) ** 2 / w ** 3 == 4


def test_criterion_5_cone_surface_consistency():
    with criterion(5, 1, "cone volumes match one-vertex dual graphs"):
        for genus in (2, 3, 4):
            for deg in range(1, 6):
                assert cone_singularity_volume(Curve(genus, deg)) == (
                    singularity_volume(DualGraph([(-deg, genus)]))
                )


def test_criterion_6_gamma_projective_space():
    with criterion(6, 1, "gamma volume of anticanonically-polarized spaces"):
        for n in (2, 3, 4):
            assert cone_gamma_volume(ProjSpace(n - 1, n + 1)) == F(1, n + 1)


def test_criterion_7_irrational_volume():
    with criterion(7, 1, "irrational double-cover volume and closed form"):
        assert abelian_closed_form_identity_holds()
        model = AbelianCover(2, 3, 2)
        v = cone_singularity_volume(model)
        assert isinstance(v, QuadraticNumber) and v.b != 0  # irrationality
        m = volume_function(model, 1, 0).breakpoints[-1]
        d2, dl, l2 = 2, 3, 2
        closed = F(4 * d2 * l2 - 4 * dl ** 2, l2) * m + F(2 * dl * d2, l2)
        assert v == closed == QuadraticNumber(F(-9), F(5), 5)


def test_criterion_8_fujita_convergence():
    with criterion(8, 60, "Fujita approximation on the golden divisor"):
        datum = tnc_datum()
        d = tnc_divisor(datum, F(1))
        target = local_volume_toric(d)
        assert target == 1
        seq = fujita_sequence(d, 8)
        assert seq[-1][0] == 8
        assert abs(seq[-1][2] - target) / target <= F(1, 10)
        tail = [norm for _, _, norm in seq[-3:]]
        assert (max(tail) - min(tail)) <= F(3, 100) * min(tail)


def test_criterion_9_vanishing_iff_effective():
    with criterion(9, 60, "vanishing equals effectivity over the center"):
        for datum in (octant_datum(), tnc_datum()):
            interior = interior_indices(datum)
            for c in range(-2, 3):
                coeffs = [F(0)] * len(datum.rays)
                for i in interior:
                    coeffs[i] = F(c)
                report = effectivity_vanishing_check(ToricDivisor(datum, tuple(coeffs)))
                assert report.lies_over_center
                assert report.volume_zero == report.effective


def test_criterion_10_envelope_dominates_volume():
    with criterion(10, 1, "nef-envelope volume dominates the singularity volume"):
        product = LatticeModel(
            SurfaceLattice([[0, 1], [1, 0]], (2, -2), (1, 1),
                           psef_generators=((1, 0), (0, 1))),
            (2, -2), (1, 1),
        )
        cover = AbelianCover(2, 3, 2)
        fixtures = [Curve(2, 1), Curve(3, 4), Curve(4, 5), ProjSpace(2, 4),
                    cover, product]
        for model in fixtures:
            assert bdff_cone_volume(model) >= cone_singularity_volume(model)
        assert bdff_cone_volume(product) == 16 > 0 == cone_singularity_volume(product)
        assert bdff_cone_volume(cover) > cone_singularity_volume(cover)


def test_criterion_11_property_suites():
    import test_properties as props

    with criterion(11, 120, "randomized property suites"):
        props.test_toric_homogeneity_randomized()
        props.test_toric_monotonicity_randomized()
        props.test_toric_log_convexity_randomized()
        props.test_zariski_randomized_invariants()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
