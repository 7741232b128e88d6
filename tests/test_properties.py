"""Randomized and property-based suites across the modules."""

import random
from fractions import Fraction as F
from math import factorial, gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from locvol.exactnum import QuadraticNumber, compare_cbrt_sum, nth_root_bounds
from locvol.geometry import Polyhedron, _cap_halfspace, _difference_cap, volume_bounded
from locvol.linprog import solve_lp
from locvol.monomial import MonomialIdeal, h1_dim, power, saturation
from locvol.surface import (
    DualGraph,
    NotNegativeDefinite,
    divisor_local_volume,
    log_canonical_intersections,
    singularity_volume,
    zariski_decompose,
)
from locvol.toric import (
    PointedCone,
    ToricDatum,
    ToricDivisor,
    divisor_polyhedra,
    h1_sequence,
    local_volume_toric,
)

from _identities import contains_exponent, interior_indices, permuted, scaled_divisor

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


# -- quadratic field axioms ---------------------------------------------------

@given(rationals, rationals, rationals, rationals)
def test_quadratic_ring_axioms(a1, b1, a2, b2):
    x = QuadraticNumber(a1, b1, 5)
    y = QuadraticNumber(a2, b2, 5)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    if y != 0:
        assert (x / y) * y == x


@given(rationals, rationals)
def test_quadratic_sign_matches_float(a, b):
    x = QuadraticNumber(a, b, 7)
    fl = float(a) + float(b) * 7 ** 0.5
    if abs(fl) > 1e-9:
        assert x.sign() == (1 if fl > 0 else -1)


@given(st.fractions(min_value=0, max_value=100, max_denominator=20),
       st.integers(min_value=2, max_value=5))
def test_nth_root_bounds_enclose(x, k):
    lo, hi = nth_root_bounds(x, k, 10 ** 6)
    assert lo ** k <= x <= hi ** k
    assert hi - lo <= F(1, 10 ** 6)


@given(st.fractions(min_value=0, max_value=30, max_denominator=8),
       st.fractions(min_value=0, max_value=30, max_denominator=8))
def test_cbrt_compare_consistent_with_floats(x, y):
    z = x + y  # never a tie unless x or y is 0... still a valid sign check
    sign = compare_cbrt_sum(x, y, z)
    approx = float(x) ** (1 / 3) + float(y) ** (1 / 3) - float(z) ** (1 / 3)
    if abs(approx) > 1e-6:
        assert sign == (1 if approx > 0 else -1)


# -- exact LP against brute vertex enumeration --------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-4, 4)), min_size=3, max_size=7),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_lp_optimum_dominates_feasible_grid(rows, objective):
    rows = [((a, b), F(c)) for a, b, c in rows if (a, b) != (0, 0)]
    if not rows:
        return
    res = solve_lp(objective, rows)
    if res.status != "optimal":
        return
    for x in range(-6, 7):
        for y in range(-6, 7):
            if all(a * x + b * y >= c for (a, b), c in rows):
                assert objective[0] * x + objective[1] * y <= res.value


# -- kernel volume properties -------------------------------------------------

def test_volume_homogeneity_random_simplices():
    rng = random.Random(20260810)
    for _ in range(10):
        t = F(rng.randint(1, 12), rng.randint(1, 4))
        rows = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -t)]
        p = Polyhedron(3, rows)
        base = volume_bounded(p)
        for m in (2, F(3, 2)):
            assert volume_bounded(p.scaled(m)) == F(m) ** 3 * base


# -- monomial ideal properties -------------------------------------------------

exponents = st.tuples(st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=50, deadline=None)
@given(st.lists(exponents, min_size=1, max_size=5))
def test_saturation_idempotent_extensive(gens):
    ideal = MonomialIdeal(gens)
    sat = saturation(ideal)
    assert saturation(sat) == sat
    for g in ideal.generators:
        assert contains_exponent(sat, g)
    assert (h1_dim(ideal) == 0) == (sat == ideal)


@settings(max_examples=20, deadline=None)
@given(st.lists(exponents, min_size=1, max_size=4), st.integers(1, 3))
def test_power_membership_consistency(gens, p):
    ideal = MonomialIdeal(gens)
    powered = power(ideal, p)
    for g in ideal.generators:
        scaled = tuple(p * x for x in g)
        assert contains_exponent(powered, scaled)


# -- randomized toric suites ---------------------------------------------------

def _tnc_datum():
    sigma = PointedCone([(0, 1, 0), (0, 0, 1), (1, 0, -2)])
    return ToricDatum(sigma, [(0, 1, 0), (0, 0, 1), (1, 0, -2), (1, 1, 1), (1, 0, 0)])


def _random_coeffs(rng, datum):
    return tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in datum.rays)


def test_toric_homogeneity_randomized():
    rng = random.Random(1)
    datum = _tnc_datum()
    for _ in range(20):
        d = ToricDivisor(datum, _random_coeffs(rng, datum))
        base = local_volume_toric(d)
        for k in (1, 2, 3):
            assert local_volume_toric(scaled_divisor(d, k)) == k ** 3 * base


def test_toric_monotonicity_randomized():
    rng = random.Random(2)
    datum = _tnc_datum()
    interior = interior_indices(datum)[0]
    for _ in range(20):
        coeffs = _random_coeffs(rng, datum)
        d = ToricDivisor(datum, coeffs)
        base = local_volume_toric(d)
        bump = F(rng.randint(1, 3), rng.randint(1, 2))
        up_interior = list(coeffs)
        up_interior[interior] += bump
        assert local_volume_toric(ToricDivisor(datum, tuple(up_interior))) <= base
        other = rng.choice([i for i in range(len(coeffs)) if i != interior])
        up_other = list(coeffs)
        up_other[other] += bump
        assert local_volume_toric(ToricDivisor(datum, tuple(up_other))) >= base


def test_toric_log_convexity_randomized():
    rng = random.Random(3)
    datum = _tnc_datum()
    interior = interior_indices(datum)[0]
    for _ in range(20):
        c1, c2 = (F(-rng.randint(0, 5), rng.randint(1, 2)) for _ in range(2))
        div = []
        for c in (c1, c2):
            coeffs = [F(0)] * len(datum.rays)
            coeffs[interior] = c
            div.append(ToricDivisor(datum, tuple(coeffs)))
        mid = ToricDivisor(
            datum,
            tuple((a + b) / 2 for a, b in zip(div[0].coeffs, div[1].coeffs)),
        )
        v1, v2 = local_volume_toric(div[0]), local_volume_toric(div[1])
        vm = local_volume_toric(mid)
        assert compare_cbrt_sum(v1, v2, 8 * vm) >= 0


# -- randomized dual graphs ----------------------------------------------------

def _random_graph(rng):
    while True:
        n = rng.randint(1, 5)
        verts = [(-rng.randint(2, 5), rng.randint(0, 2)) for _ in range(n)]
        edges = [(i, rng.randint(0, i - 1), 1) for i in range(1, n)]  # random tree
        try:
            return DualGraph(verts, [(j, i, m) for i, j, m in edges])
        except NotNegativeDefinite:
            continue


def test_zariski_randomized_invariants():
    rng = random.Random(4)
    for _ in range(20):
        g = _random_graph(rng)
        d = tuple(F(rng.randint(-5, 5)) for _ in range(g.rank))
        parts = zariski_decompose(g, d)
        m = g.matrix
        pairing = [sum(m[i][j] * parts.nef[j] for j in range(g.rank))
                   for i in range(g.rank)]
        # nefness, effectivity, orthogonality
        assert all(v >= 0 for v in pairing)
        assert all(v >= 0 for v in parts.negative)
        assert sum(p * v for p, v in zip(parts.nef, pairing)) == sum(
            parts.nef[i] * m[i][j] * parts.nef[j]
            for i in range(g.rank) for j in range(g.rank)
        )
        assert sum(
            parts.nef[i] * m[i][j] * parts.negative[j]
            for i in range(g.rank) for j in range(g.rank)
        ) == 0
        # permutation invariance
        perm = list(range(g.rank))
        rng.shuffle(perm)
        gp = permuted(g, perm)
        parts_p = zariski_decompose(gp, [d[old] for old in perm])
        assert parts_p.nef == tuple(parts.nef[old] for old in perm)
        assert parts_p.negative == tuple(parts.negative[old] for old in perm)


def test_singularity_volume_nonnegative_randomized():
    rng = random.Random(5)
    for _ in range(20):
        g = _random_graph(rng)
        v = singularity_volume(g)
        assert v >= 0
        parts = zariski_decompose(g, log_canonical_intersections(g))
        if all(x == 0 for x in parts.nef):
            assert v == 0


# -- toric surfaces against their Hirzebruch-Jung dual graphs ------------------

def _hirzebruch_jung(n, q):
    """[b_1..b_k] with n/q = b_1 - 1/(b_2 - ... - 1/b_k)."""
    out = []
    while q:
        b = -(-n // q)
        out.append(b)
        n, q = q, b * q - n
    return out


def _cyclic_quotients():
    """(n, q, [b_i], datum) for 1/n(1,q), 2 <= n < 12: the cone
    <(0,1), (n,-q)> with its smooth refinement v_0..v_{k+1}, where
    v_{i-1} + v_{i+1} = b_i v_i."""
    for n in range(2, 12):
        for q in (q for q in range(1, n) if gcd(n, q) == 1):
            bs = _hirzebruch_jung(n, q)
            rays = [(0, 1), (1, 0)]
            for b in bs:
                rays.append(tuple(b * x - y for x, y in zip(rays[-1], rays[-2])))
            assert rays[-1] == (n, -q)
            yield n, q, bs, ToricDatum(PointedCone([(0, 1), (n, -q)]), rays)


def test_cyclic_quotients_agree_with_chain_graphs():
    # a toric divisor sum a_i D_i meets the exceptional curve of v_i in
    # a_{i-1} + a_{i+1} - b_i a_i
    rng = random.Random(6)
    for n, q, bs, datum in _cyclic_quotients():
        chain = DualGraph([(-b, 0) for b in bs],
                          [(i, i + 1, 1) for i in range(len(bs) - 1)])
        for _ in range(3):
            a = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in datum.rays]
            target = [a[i - 1] + a[i + 1] - b * a[i] for i, b in enumerate(bs, 1)]
            assert local_volume_toric(ToricDivisor(datum, a)) == \
                divisor_local_volume(chain, target), (n, q, a)


# -- lattice counts against their Ehrhart quasi-polynomial ---------------------

def _interpolate(xs, ys):
    """Coefficients, low to high, of the polynomial through the points (xs, ys)."""
    coeffs = [F(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, denom = [F(1)], F(1)
        for j, xj in enumerate(xs):
            if j != i:  # basis *= (x - xj)
                basis = [F(0)] + basis
                for k in range(len(basis) - 1):
                    basis[k] -= xj * basis[k + 1]
                denom *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    return coeffs


def _ehrhart_period(d):
    """lcm of the vertex denominators of the capped outer and inner regions
    that h1_sequence counts in, or None when the difference is empty."""
    inner, outer = divisor_polyhedra(d)
    cap = _difference_cap(inner, outer)
    if cap is None:
        return None
    top = _cap_halfspace(*cap)
    return lcm(*(x.denominator for region in (outer, inner)
                 for v in region.intersect(top).vrep().vertices for x in v))


def test_h1_counts_follow_the_ehrhart_quasi_polynomial():
    """The paper's two definitions of the local volume agree exactly.

    The level-m count is E(O, m) - E(I, m) for the capped outer and inner
    polytopes, a quasi-polynomial of degree n whose period divides the lcm
    q of their vertex denominators (Beck & Robins, *Computing the
    Continuous Discretely*, ch. 3).  Over the level index j = m/step it has
    period Q = lcm(q, step)/step, so the counts at j <= Q(n+1) fix one
    polynomial per residue class.  Each must predict the counts past
    Q(n+1), and n! times its leading coefficient over step^n is the local
    volume, the limit of the normalized counts.
    """
    tnc = _tnc_datum()
    q4 = PointedCone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    q4_datum = ToricDatum(q4, list(q4.generators) + [
        (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1)])
    divisors = [ToricDivisor(tnc, (0, 0, 2, -t, 0)) for t in (F(1, 2), 1, F(3, 2), 2)]
    divisors.append(ToricDivisor(q4_datum, (0, 0, 0, 0, -2, -2, -3, -3)))
    rng = random.Random(8)
    divisors += [ToricDivisor(datum, [F(rng.randint(-4, 4), rng.randint(1, 3))
                                      for _ in datum.rays])
                 for *_, datum in _cyclic_quotients()]
    periods, fitted = [], 0
    for d in divisors:
        n = d.datum.dim
        vol = local_volume_toric(d)
        step = lcm(*(a.denominator for a in d.coeffs))
        q = _ehrhart_period(d)
        period = 1 if q is None else lcm(q, step) // step
        counts = {m // step: c for m, c, _ in h1_sequence(d, step * period * (n + 2))}
        periods.append(q)
        if q is None:
            assert vol == 0 and not any(counts.values()), d.coeffs
            continue
        for r in range(1, period + 1):
            js = [r + k * period for k in range(n + 1)]
            poly = _interpolate(js, [counts[j] for j in js])
            for j in range(r, max(counts) + 1, period):
                assert sum(c * j ** k for k, c in enumerate(poly)) == counts[j], \
                    (d.coeffs, j)
            assert factorial(n) * poly[n] / step ** n == vol, d.coeffs
        fitted += 1
    assert periods[:5] == [14, 7, 6, 21, 1]
    assert fitted >= 30, fitted
