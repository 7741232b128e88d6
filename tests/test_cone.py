import random
from collections import Counter
from fractions import Fraction as F

import pytest

from locvol import LocvolError
from locvol.cone import (
    AbelianCover,
    ConeError,
    Curve,
    HypothesisNotAsserted,
    LatticeModel,
    PiecewisePoly,
    ProjSpace,
    SpecialRange,
    bdff_cone_volume,
    cone_gamma_volume,
    cone_singularity_volume,
    lambda_sequence,
    psef_threshold_anticanonical,
    section_count_curve,
    volume_function,
    _simplify,
)
from locvol.exactnum import QuadraticNumber
from locvol.surface import SurfaceLattice, projective_volume

from _identities import (
    is_nonincreasing,
    psef_lp,
    reference_threshold,
    reference_volume_function,
)


def quad(a, b, c):
    return QuadraticNumber(F(a), F(b), c)


@pytest.fixture(scope="module")
def abelian():
    return AbelianCover(2, 3, 2)


@pytest.fixture(scope="module")
def product_lattice():
    lat = SurfaceLattice([[0, 1], [1, 0]], (2, -2), (1, 1),
                         psef_generators=((1, 0), (0, 1)))
    return LatticeModel(lat, (2, -2), (1, 1))


# -- piecewise polynomials ----------------------------------------------------

def test_piecewise_continuity_enforced():
    with pytest.raises(ValueError):
        PiecewisePoly([0, 1, 2], [(1,), (2,)])
    with pytest.raises(ValueError):
        PiecewisePoly([0, 1], [(1,)])  # does not vanish at the end
    pp = PiecewisePoly([0, 1, 2], [(2, -1), (2, -1)])
    assert pp(F(1, 2)) == F(3, 2) and pp(3) == 0
    assert pp.integral() == 2


def test_piecewise_quadratic_breakpoint_evaluation():
    m = quad(F(3, 2), F(-1, 2), 5)
    pp = PiecewisePoly([F(0), m], [(2, -6, 2)])  # 2 - 6t + 2t^2, root at m
    assert pp(m) == 0
    assert pp(0) == 2
    assert is_nonincreasing(pp)


def test_monotonicity_is_exact_past_quadratic_derivatives():
    # f' = t(t - 1/4)(t - 1/2)(t - 3/4)(t - 1) vanishes at every dyadic
    # probe, yet f(1/8) > f(0)
    pp = PiecewisePoly([0, 1], [(0, 0, F(3, 64), F(-25, 96), F(35, 64),
                                 F(-1, 2), F(1, 6))])
    assert pp(F(1, 8)) == F(539, 1572864) > pp(0)
    assert not is_nonincreasing(pp)
    # f' = -(t - 1/2)^2 touches zero without changing sign
    assert is_nonincreasing(
        PiecewisePoly([0, 1], [(F(1, 12), F(-1, 4), F(1, 2), F(-1, 3))]))


# -- volume functions ---------------------------------------------------------

def test_curve_volume_function_is_linear_degree():
    f = volume_function(Curve(2, 1), 1, 0)
    assert f.breakpoints == (F(0), F(2))
    assert f.pieces == ((F(2), F(-1)),)
    assert f(1) == 1  # volume equals the degree all the way down
    assert all(c == 0 for piece in volume_function(Curve(0, 3), 1, 0).pieces for c in piece)


def test_projspace_volume_function():
    f = volume_function(ProjSpace(2, 4), 1, 1)  # O(-3+4) = O(1)
    assert f.breakpoints == (F(0), F(1, 4))
    assert f(0) == 1 and f(F(1, 8)) == F(1, 4)
    assert f.pieces == ((F(1), F(-8), F(16)),)


def test_abelian_volume_function(abelian):
    f = volume_function(abelian, 1, 0)
    m = quad(F(3, 2), F(-1, 2), 5)
    assert f.breakpoints[-1] == m
    assert f.pieces == ((F(4), F(-12), F(4)),)
    assert f(m) == 0


def test_volume_functions_nonincreasing(abelian, product_lattice):
    for model in (Curve(3, 2), ProjSpace(3, 5), abelian, product_lattice):
        assert is_nonincreasing(volume_function(model, 1, 0))
        assert is_nonincreasing(volume_function(model, 1, 1))


# -- singularity volume -------------------------------------------------------

def test_curve_cone_volume_grid():
    for g in (2, 3, 4):
        for d in range(1, 6):
            assert cone_singularity_volume(Curve(g, d)) == F((2 * g - 2) ** 2, d)


def test_rational_model_volume_vanishes():
    assert cone_singularity_volume(ProjSpace(2, 4)) == 0
    assert cone_singularity_volume(Curve(0, 2)) == 0
    assert cone_singularity_volume(Curve(1, 3)) == 0


def test_abelian_irrational_volume(abelian):
    v = cone_singularity_volume(abelian)
    assert v == quad(-9, 5, 5)
    assert not v.is_rational  # irrationality certificate: b != 0


def test_abelian_closed_form_identity(abelian):
    # 3*int_0^m 2(D2 - 2t DL + t^2 L2) dt == (4 D2 L2 - 4 DL^2)/L2 * m + 2 DL D2/L2
    # modulo L2 m^2 = 2 DL m - D2, as polynomials; checked symbolically and
    # instantiated here at the fixture
    d2, dl, l2 = abelian.base_sq, abelian.mixed, abelian.pol_sq
    m = volume_function(abelian, 1, 0).breakpoints[-1]
    closed = F(4 * d2 * l2 - 4 * dl ** 2, l2) * m + F(2 * dl * d2, l2)
    assert cone_singularity_volume(abelian) == closed


def test_symbolic_integral_equals_closed_form():
    """The integrated volume and the closed form agree identically in
    (D2, DL, L2, m) modulo the defining relation of the threshold."""
    # polynomials in (d2, dl, l2, m) as exponent-dict -> coefficient
    def poly(**mono):
        return {tuple(mono.get(k, 0) for k in ("d2", "dl", "l2", "m")): F(1)}

    def scale(p, c):
        return {e: c * v for e, v in p.items()}

    def add(*ps):
        out = {}
        for p in ps:
            for e, v in p.items():
                out[e] = out.get(e, F(0)) + v
        return {e: v for e, v in out.items() if v}

    def mul(p, q):
        out = {}
        for e1, v1 in p.items():
            for e2, v2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, F(0)) + v1 * v2
        return {e: v for e, v in out.items() if v}

    # lhs: 3 * integral_0^m 2(d2 - 2 t dl + t^2 l2) dt = 6 d2 m - 6 dl m^2 + 2 l2 m^3
    lhs = add(scale(poly(d2=1, m=1), F(6)), scale(poly(dl=1, m=2), F(-6)),
              scale(poly(l2=1, m=3), F(2)))
    # rhs * l2: (4 d2 l2 - 4 dl^2) m + 2 dl d2
    rhs_l2 = add(scale(poly(d2=1, l2=1, m=1), F(4)), scale(poly(dl=2, m=1), F(-4)),
                 scale(poly(dl=1, d2=1), F(2)))
    diff = add(mul(lhs, poly(l2=1)), scale(rhs_l2, F(-1)))
    # pseudo-reduce modulo l2 m^2 - 2 dl m + d2: multiply by l2 and cancel
    # the full leading m-coefficient each round
    relation = add(poly(l2=1, m=2), scale(poly(dl=1, m=1), F(-2)), poly(d2=1))
    while diff:
        k = max(e[3] for e in diff)
        if k < 2:
            break
        lead = {e[:3] + (0,): v for e, v in diff.items() if e[3] == k}
        shifted = mul(lead, {(0, 0, 0, k - 2): F(1)})
        diff = add(mul(diff, poly(l2=1)), scale(mul(shifted, relation), F(-1)))
    assert not diff


def test_product_lattice_volume_zero(product_lattice):
    assert cone_singularity_volume(product_lattice) == 0


# -- gamma volume -------------------------------------------------------------

def test_gamma_volume_projective_space():
    for n in (2, 3, 4):
        assert cone_gamma_volume(ProjSpace(n - 1, n + 1)) == F(1, n + 1)


def test_gamma_volume_curve():
    assert cone_gamma_volume(Curve(2, 1)) == 9  # degree 3 class: 2*9/2


def test_gamma_vanishes_when_not_psef():
    assert cone_gamma_volume(ProjSpace(2, 1)) == 0  # K + H = O(-2)


# -- nef-envelope volume ------------------------------------------------------

def test_bdff_product_strict(product_lattice):
    assert bdff_cone_volume(product_lattice) == 16
    assert cone_singularity_volume(product_lattice) == 0


def test_bdff_abelian(abelian):
    assert psef_threshold_anticanonical(abelian) == quad(F(3, 2), F(1, 2), 5)
    assert bdff_cone_volume(abelian) == quad(36, 16, 5)


def test_bdff_anticanonical_models_vanish():
    assert bdff_cone_volume(ProjSpace(2, 4)) == 0
    assert bdff_cone_volume(Curve(0, 1)) == 0


def test_bdff_matches_direct_on_curves():
    for g in (2, 3, 4):
        for d in (1, 2, 3):
            assert bdff_cone_volume(Curve(g, d)) == cone_singularity_volume(Curve(g, d))


def test_bdff_dominates_volume(abelian, product_lattice):
    fixtures = [Curve(2, 1), Curve(3, 4), ProjSpace(2, 4), abelian, product_lattice]
    for model in fixtures:
        big = bdff_cone_volume(model)
        small = cone_singularity_volume(model)
        assert big >= small


def test_bdff_hypothesis_gate():
    lat = SurfaceLattice([[1, 0], [0, -1]], (-3, 1), (2, -1),
                         negative_curves=((0, 1),),
                         psef_generators=((0, 1), (1, -1)))
    model = LatticeModel(lat, (-3, 1), (2, -1))
    with pytest.raises(HypothesisNotAsserted):
        bdff_cone_volume(model)
    certified = LatticeModel(lat, (-3, 1), (2, -1), envelope_nef_certified=True)
    assert bdff_cone_volume(certified) == 0  # -K ample: threshold negative


# -- lattice chamber walk -----------------------------------------------------

def test_lattice_two_chamber_walk():
    lat = SurfaceLattice([[1, 0], [0, -1]], (-3, 1), (2, -1),
                         negative_curves=((0, 1),),
                         psef_generators=((0, 1), (1, -1)))
    model = LatticeModel(lat, canonical=(3, -1), polarization=(3, -2))
    f = volume_function(model, 1, 0)
    assert f.breakpoints == (F(0), F(1, 2), F(1))
    assert f.pieces == ((F(8), F(-14), F(5)), (F(9), F(-18), F(9)))
    for t in (F(1, 5), F(1, 2), F(4, 5), F(99, 100)):
        direct = projective_volume(lat, (3 - 3 * t, -1 + 2 * t))
        assert f(t) == direct


def test_round_lattice_threshold_is_quadratic():
    lat = SurfaceLattice([[2, 3], [3, 2]], (0, 0), (1, 1))
    model = LatticeModel(lat, canonical=(1, 0), polarization=(0, 1))
    f = volume_function(model, 1, 0)
    # (D - tL)^2 = 2 - 6t + 2t^2 with D=(1,0), L=(0,1): same quadratic as the
    # double-cover fixture without the factor two
    assert f.pieces == ((F(2), F(-6), F(2)),)
    assert f.breakpoints[-1] == quad(F(3, 2), F(-1, 2), 5)


# -- plurigenera --------------------------------------------------------------

def test_lambda_projective_space_vanishes():
    assert all(l == 0 for _, l, _ in lambda_sequence(ProjSpace(3, 4), 5))


def test_lambda_curve_values():
    seq = lambda_sequence(Curve(2, 1, general_position=True), 8)
    assert [l for _, l, _ in seq] == [(2 * m - 2) * (2 * m - 1) // 2
                                      for m in range(1, 9)]
    assert seq[0][1] == 0 and seq[2][1] == 10


def test_lambda_special_range_gate():
    with pytest.raises(SpecialRange):
        lambda_sequence(Curve(2, 1), 4)
    # far from the special range everything is Riemann-Roch regardless of flag
    seq = lambda_sequence(Curve(2, 5, general_position=True), 3)
    assert seq[0][1] == 0


def _lambda_term_sums(model, m_max):
    """Oracle: lambda_m summed term by term over k >= 1."""
    kdeg, out = 2 * model.genus - 2, []
    for m in range(1, m_max + 1):
        lam, k = 0, 1
        while m * kdeg - k * model.degree >= 0:
            lam += section_count_curve(model, m * kdeg - k * model.degree)
            k += 1
        out.append(lam)
    return out


def test_lambda_closed_form_matches_term_sums():
    gated = 0
    for genus in range(9):
        for degree in range(1, 12):
            for flag in (False, True):
                model = Curve(genus, degree, general_position=flag)
                try:
                    expected = _lambda_term_sums(model, 12)
                except SpecialRange as exc:
                    with pytest.raises(SpecialRange) as info:
                        lambda_sequence(model, 12)
                    assert str(info.value) == str(exc)
                    gated += 1
                    continue
                assert [lam for _, lam, _ in lambda_sequence(model, 12)] == expected
    assert gated >= 70


def test_lambda_converges_to_volume():
    model = Curve(2, 1, general_position=True)
    target = cone_singularity_volume(model)
    m, lam, norm = lambda_sequence(model, 60)[-1]
    assert abs(norm - target) <= F(6, m)


def test_riemann_roch_consistency():
    from locvol.cone import section_count_curve

    for flag in (False, True):
        model = Curve(2, 1, general_position=flag)
        for d in (3, 4, 7):
            assert section_count_curve(model, d) == d - 1


def test_root_sign_guard_raises_cone_error():
    from locvol.cone import _round_end

    # c(t) = 1 - t^2 has no inside: the walk direction has negative square
    with pytest.raises(ConeError):
        _round_end(F(1), F(0), F(-1), F(5), F(1))
    # c(t) = t^2 - 1 upward selects t = 1, where l(t) = t - 5 is negative
    with pytest.raises(ConeError, match="sign test"):
        _round_end(F(-1), F(0), F(1), F(-5), F(1))


# -- one round walk against the per-model walks it replaced -------------------

SHIFTS = ((1, 0), (1, 1), (2, 1), (F(-1, 2), 2))  # (k, h): the first two integrate


def _check_against_reference(model):
    """Every cone invariant of a cover or round lattice model equals, in value
    and representation, what the per-model walks the shared walk replaced give."""
    series = {kh: reference_volume_function(model, *kh) for kh in SHIFTS}
    threshold = reference_threshold(model)
    degree = (2 * model.pol_sq if isinstance(model, AbelianCover)
              else model.lattice.pair(model.polarization, model.polarization))
    expected = {
        cone_singularity_volume: _simplify(3 * series[1, 0].integral()),
        cone_gamma_volume: _simplify(3 * series[1, 1].integral()),
        bdff_cone_volume: _simplify(threshold ** 3 * degree) if threshold > 0 else F(0),
        psef_threshold_anticanonical: threshold,
    }
    for fn, value in expected.items():
        assert repr(fn(model)) == repr(value), fn.__name__
    for kh, old in series.items():
        new = volume_function(model, *kh)
        assert repr((new.breakpoints, new.pieces)) == repr((old.breakpoints, old.pieces)), kh


def test_covers_walk_as_before():
    degenerate = 0
    for base_sq in range(1, 9):
        for mixed in range(1, 9):
            for pol_sq in range(1, 9):
                if mixed ** 2 < base_sq * pol_sq:
                    continue  # the constructor refuses a complex threshold
                degenerate += mixed ** 2 == base_sq * pol_sq
                _check_against_reference(AbelianCover(base_sq, mixed, pol_sq))
    assert degenerate == 12


def _random_round_model(rng, rank):
    """A seeded round lattice model of the given rank that the constructors
    accept, or None."""
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            gram[i][j] = gram[j][i] = rng.randint(-5, 5)
    ample, k, h = ([rng.randint(-4, 4) for _ in range(rank)] for _ in range(3))
    try:
        return LatticeModel(SurfaceLattice(gram, k, ample), k, h)
    except (ValueError, LocvolError):
        return None


def test_round_lattice_models_walk_as_before():
    rng = random.Random(25)
    accepted = {2: 0, 3: 0}
    while sum(accepted.values()) < 1000:
        rank = min(accepted, key=accepted.get)
        model = _random_round_model(rng, rank)
        if model is not None:
            accepted[rank] += 1
            _check_against_reference(model)


# -- the psef interval from facet normals against the simplex -----------------

# rational surfaces as (gram, ample class, generators of the psef cone, the
# negative curves among them): the Hirzebruch surfaces F_0, F_1 and F_3 on
# (section, fibre), and the plane blown up in two and in three points on
# (line, exceptional curves)
_BL3 = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (1, -1, -1, 0), (1, -1, 0, -1), (1, 0, -1, -1))
PSEF_SURFACES = {
    2: [(((0, 1), (1, 0)), (1, 1), ((1, 0), (0, 1)), ()),
        (((-1, 1), (1, 0)), (1, 2), ((1, 0), (0, 1)), ((1, 0),)),
        (((-3, 1), (1, 0)), (1, 4), ((1, 0), (0, 1)), ((1, 0),))],
    3: [(((1, 0, 0), (0, -1, 0), (0, 0, -1)), (3, -1, -1),
         ((0, 1, 0), (0, 0, 1), (1, -1, -1)), ((0, 1, 0), (0, 0, 1), (1, -1, -1)))],
    4: [(((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)), (3, -1, -1, -1),
         _BL3, _BL3)],
}


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _random_psef_model(rng, rank):
    """A lattice model on one of PSEF_SURFACES in seeded unimodular
    coordinates, with up to 6 generators (the extra ones are positive
    combinations) and seeded ample class, canonical and polarization, or
    None when the constructors refuse it."""
    gram, ample, gens, curves = rng.choice(PSEF_SURFACES[rank])
    # coordinates y = u x, with u a product of elementary matrices and v = u^-1
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    v = [row[:] for row in u]
    for _ in range(3):
        i, j = rng.sample(range(rank), 2)
        k = rng.choice((-1, 1))
        e = [[int(a == b) + k * ((a, b) == (i, j)) for b in range(rank)] for a in range(rank)]
        e_inv = [[int(a == b) - k * ((a, b) == (i, j)) for b in range(rank)] for a in range(rank)]
        u, v = _mat_mul(e, u), _mat_mul(v, e_inv)
    gram = _mat_mul(list(zip(*v)), _mat_mul(gram, v))

    def move(c):
        return tuple(sum(x * y for x, y in zip(row, c)) for row in u)

    gens, curves = [move(g) for g in gens], [move(c) for c in curves]

    def combination(vectors):
        w = [rng.randint(1, 3) for _ in vectors]
        return tuple(sum(c * g[i] for c, g in zip(w, vectors)) for i in range(rank))

    def near_ample():
        return tuple(rng.randint(1, 3) * a + b
                     for a, b in zip(move(ample), combination(rng.sample(gens, 1))))

    spanning = gens + [combination(rng.sample(gens, rng.randint(1, len(gens))))
                       for _ in range(rng.randint(0, 6 - len(gens)))]
    rng.shuffle(spanning)
    canonical = [rng.randint(-3, 3) for _ in range(rank)]
    try:
        lat = SurfaceLattice(gram, canonical, near_ample(), curves, spanning)
        return LatticeModel(lat, canonical, near_ample())
    except (ValueError, LocvolError):
        return None


def test_psef_interval_matches_the_simplex():
    # is_psef, the interval's ends in both senses (h = 0 among the directions),
    # the anticanonical threshold and the volume function's reach all equal
    # what the exact LP over the generators gives
    rng = random.Random(26)
    accepted, statuses = Counter(), Counter()
    while sum(accepted.values()) < 48:
        rank = min(PSEF_SURFACES, key=lambda r: accepted[r])
        model = _random_psef_model(rng, rank)
        if model is None:
            continue
        accepted[rank] += 1
        lat = model.lattice
        for _ in range(2):
            a = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(rank)]
            h = rng.choice([[rng.randint(-2, 2) for _ in range(rank)]] * 3 + [[0] * rank])
            lo, hi = (psef_lp(lat, a, h, sense) for sense in ("min", "max"))
            statuses.update((lo.status, hi.status))
            ends = tuple(None if r.status == "unbounded" else r.value for r in (lo, hi))
            assert lat.psef_interval(a, h) == (None if hi.status == "infeasible" else ends)
            assert lat.is_psef(a) == (psef_lp(lat, a, [0] * rank).status != "infeasible")
        mk = [-x for x in model.canonical]
        res = psef_lp(lat, mk, model.polarization, "min")
        assert res.is_optimal and psef_threshold_anticanonical(model) == res.value
        for k, h in SHIFTS[:2]:
            a = [k * x + h * y for x, y in zip(model.canonical, model.polarization)]
            reach = psef_lp(lat, a, [-x for x in model.polarization], "max")
            series = volume_function(model, k, h)
            if lat.is_psef(a) and reach.value > 0:
                assert series.breakpoints[-1] == reach.value
            else:
                assert series.pieces == ()
    assert set(statuses) == {"infeasible", "optimal", "unbounded"}, statuses
