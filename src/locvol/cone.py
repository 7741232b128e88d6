"""Invariants of cone singularities over polarized projective models.

A polarized model (curve, projective space, abelian-type double cover, or an
explicit surface lattice) of dimension `dim` supports an exact volume
function t -> vol(A - tH) as a piecewise polynomial with rational or
quadratic-irrational breakpoints.  The singularity volume integrates the
canonical class's function, the gamma-volume integrates the
canonical-plus-polarization function, and the nef-envelope volume is the
pseudo-effective threshold of the anticanonical class raised to the
singularity dimension times the polarization degree.  Curves and projective
spaces have Picard rank one, so K and H are integer multiples of one class l
with l^n = 1 and vol(x*l) = x^n (`_rank_one`).  Covers and round lattice
models walk a round pseudo-effective cone to one quadratic piece; lattices
with a polyhedral cone hand the curves' Gram matrix, the class's pairings
with the curves and its square to the Zariski chamber walk of
`surface.chamber_walk`.  All integration is symbolic; nothing is numeric.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from . import LocvolError
from .exactnum import FieldMismatch, QuadraticNumber, solve_quadratic
from .surface import InvalidModel, SurfaceLattice, _bilinear, chamber_walk


class ConeError(LocvolError):
    pass


class SpecialRange(ConeError):
    """Section counts in the special degree range need the general-position flag."""


class HypothesisNotAsserted(ConeError):
    """The nef-envelope formula needs psef = nef along the threshold segment."""


class IrrationalBreakpointUnsupported(ConeError):
    pass


def _simplify(x):
    if isinstance(x, QuadraticNumber) and x.is_rational:
        return x.as_fraction()
    return x


def _as_number(x):
    return x if isinstance(x, QuadraticNumber) else Fraction(x)


# ---------------------------------------------------------------------------
# piecewise polynomials
# ---------------------------------------------------------------------------

def _poly_eval(coeffs, t):
    out = _as_number(0)
    for c in reversed(coeffs):
        out = out * t + c
    return _simplify(out)


class PiecewisePoly:
    """Piecewise polynomial on [0, oo), identically zero past the last
    breakpoint; continuity is asserted exactly at construction."""

    def __init__(self, breakpoints, pieces):
        if not breakpoints:
            breakpoints = [Fraction(0)]
        bps = [_simplify(_as_number(b)) for b in breakpoints]
        if len(bps) != len(pieces) + 1:
            raise ValueError("need one more breakpoint than pieces")
        try:
            for a, b in zip(bps, bps[1:]):
                if not a < b:
                    raise ValueError("breakpoints must increase strictly")
        except FieldMismatch as exc:
            raise IrrationalBreakpointUnsupported(str(exc)) from exc
        pieces = [tuple([Fraction(c) for c in p]) for p in pieces]
        for i in range(len(pieces) - 1):
            if _poly_eval(pieces[i], bps[i + 1]) != _poly_eval(pieces[i + 1], bps[i + 1]):
                raise ValueError(f"discontinuous at breakpoint {bps[i + 1]}")
        if pieces and _poly_eval(pieces[-1], bps[-1]) != 0:
            raise ValueError("must vanish at the last breakpoint")
        self.breakpoints = tuple(bps)
        self.pieces = tuple(pieces)

    @classmethod
    def zero(cls):
        return cls([Fraction(0)], [])

    def __call__(self, t):
        t = _as_number(t)
        if t < self.breakpoints[0] or t > self.breakpoints[-1]:
            return Fraction(0)
        for i, piece in enumerate(self.pieces):
            if t <= self.breakpoints[i + 1]:
                return _poly_eval(piece, t)
        return Fraction(0)

    def integral(self):
        """Exact integral over [0, oo) by per-piece antidifferentiation."""
        total = _as_number(0)
        for i, piece in enumerate(self.pieces):
            anti = [Fraction(0)] + [c / (j + 1) for j, c in enumerate(piece)]
            total = total + _poly_eval(anti, self.breakpoints[i + 1])
            total = total - _poly_eval(anti, self.breakpoints[i])
        return _simplify(total)


# ---------------------------------------------------------------------------
# polarized models
# ---------------------------------------------------------------------------

class Curve:
    """Smooth projective curve with a polarization of the given degree."""

    __slots__ = ("genus", "degree", "general_position")
    dim = 1

    def __init__(self, genus: int, degree: int, general_position: bool = False):
        if genus < 0 or degree < 1:
            raise ValueError("need genus >= 0 and polarization degree >= 1")
        self.genus, self.degree = genus, degree
        self.general_position = general_position


class ProjSpace:
    """Projective space of the given dimension, polarized by O(h)."""

    __slots__ = ("dim", "h")

    def __init__(self, dim: int, h: int):
        if dim < 1 or h < 1:
            raise ValueError("need dim >= 1 and h >= 1")
        self.dim, self.h = dim, h


class AbelianCover:
    """Double cover of an abelian surface: the canonical class pulls back the
    branch-defining ample class D, the polarization pulls back another ample
    class L.

    base_sq, mixed, pol_sq are D^2, D.L and L^2 downstairs.  Upstairs the
    cover is the round surface form on the pulled-back classes (D, L), with
    Gram matrix 2*[[base_sq, mixed], [mixed, pol_sq]] (a double cover doubles
    every intersection number) and L ample, so its invariants take the same
    walk across the round psef cone as a round `LatticeModel`.
    """

    __slots__ = ("base_sq", "mixed", "pol_sq")
    dim = 2

    def __init__(self, base_sq: int, mixed: int, pol_sq: int):
        if min(base_sq, mixed, pol_sq) <= 0:
            raise ValueError("intersection data must be positive")
        if mixed ** 2 - base_sq * pol_sq < 0:
            raise ValueError("threshold would be complex: need mixed^2 >= base*pol")
        self.base_sq, self.mixed, self.pol_sq = base_sq, mixed, pol_sq


class LatticeModel:
    """Surface given by its numerical lattice, canonical and polarization
    vectors; `envelope_nef_certified` asserts psef = nef where needed."""

    __slots__ = ("lattice", "canonical", "polarization", "envelope_nef_certified")
    dim = 2

    def __init__(self, lattice: SurfaceLattice, canonical, polarization,
                 envelope_nef_certified: bool = False):
        k = tuple([Fraction(x) for x in canonical])
        h = tuple([Fraction(x) for x in polarization])
        if len(k) != lattice.rank or len(h) != lattice.rank:
            raise ValueError(f"k and h must have length {lattice.rank}, the gram rank")
        if lattice.pair(h, h) <= 0:
            raise InvalidModel("polarization must have positive self-intersection")
        if lattice.pair(h, lattice.ample) <= 0:
            raise InvalidModel("polarization must pair positively with the ample class")
        if lattice.is_round_model and lattice.negative_curves:
            raise InvalidModel("round psef model cannot carry negative curves")
        self.lattice, self.canonical, self.polarization = lattice, k, h
        self.envelope_nef_certified = envelope_nef_certified


def _rank_one(model):
    """The integers (kappa, eta) with K = kappa*l and H = eta*l on a curve
    (l a point) or a projective space (l a hyperplane), where l^n = 1."""
    if isinstance(model, Curve):
        return 2 * model.genus - 2, model.degree
    return -(model.dim + 1), model.h


def _surface_form(model):
    """(pairing, ample class, K, H) of a surface model; the ample class is
    None when the pseudo-effective cone is polyhedral rather than round.
    The one place a non-model is refused."""
    if isinstance(model, AbelianCover):
        d2, dl, l2 = 2 * model.base_sq, 2 * model.mixed, 2 * model.pol_sq
        gram = ((d2, dl), (dl, l2))
        return (lambda u, v: _bilinear(u, gram, v)), (0, 1), (1, 0), (0, 1)
    if not isinstance(model, LatticeModel):
        raise TypeError(f"not a polarized model: {model!r}")
    lat = model.lattice
    ample = lat.ample if lat.is_round_model else None
    return lat.pair, ample, model.canonical, model.polarization


def polarization_degree(model):
    """Top self-intersection of the polarization on the model."""
    if isinstance(model, (Curve, ProjSpace)):
        return Fraction(_rank_one(model)[1] ** model.dim)
    pair, _, _, h_vec = _surface_form(model)
    return pair(h_vec, h_vec)


# ---------------------------------------------------------------------------
# the volume function t -> vol(kK + hH - tH)
# ---------------------------------------------------------------------------

def volume_function(model, k_canonical=1, k_polarization=0) -> PiecewisePoly:
    """Exact vol(k*K + h*H - t*H) on t >= 0 as a PiecewisePoly."""
    k, h = Fraction(k_canonical), Fraction(k_polarization)
    if not isinstance(model, (Curve, ProjSpace)):
        return _surface_volume_function(model, k, h)
    kappa, eta = _rank_one(model)
    n, a = model.dim, k * kappa + h * eta
    if a <= 0:
        return PiecewisePoly.zero()
    # vol((a - t*eta)*l) = (a - t*eta)^n, pseudo-effective until t = a/eta;
    # the powers of eta stay integers
    coeffs = tuple([comb(n, j) * a ** (n - j) * (-eta) ** j for j in range(n + 1)])
    return PiecewisePoly([Fraction(0), a / eta], [coeffs])


def _round_end(c0, c1, c2, l0, l1):
    """The end of {t : c(t) >= 0, l(t) >= 0} that a walk a + t*d across a
    round psef cone reaches: c = (a + t*d)^2 = c0 + c1*t + c2*t^2 and
    l = (a + t*d).A = l0 + l1*t for the ample class A.

    The walk runs along d with d^2 > 0 and d.A != 0, so d or -d is inside the
    cone: upward (d.A > 0) the set ends below at the larger root, downward
    (d.A < 0) above at the smaller one.  l >= 0 at the selected root is the
    explicit root-selection sign test.
    """
    if c2 <= 0 or l1 == 0:
        raise ConeError("walk direction must have positive square and meet "
                        "the ample class")
    r1, r2 = solve_quadratic(c2, c1, c0)
    end = _simplify(r2 if l1 > 0 else r1)
    if l0 + l1 * end < 0:
        raise ConeError(f"selected root {end} fails the pseudo-effectivity sign test")
    return end


def _surface_volume_function(model, k, h):
    pair, ample, canonical, h_vec = _surface_form(model)
    a_vec = tuple([k * x + h * y for x, y in zip(canonical, h_vec)])
    square = (pair(a_vec, a_vec), -2 * pair(a_vec, h_vec), pair(h_vec, h_vec))
    if ample is not None:
        reach = _round_end(*square, pair(a_vec, ample), -pair(h_vec, ample))
        if not 0 < reach:
            return PiecewisePoly.zero()
        return PiecewisePoly([Fraction(0), reach], [square])
    lat = model.lattice
    if not lat.is_psef(a_vec):
        return PiecewisePoly.zero()
    reach = lat.psef_interval(a_vec, tuple([-x for x in h_vec]))[1]
    if reach is None:
        raise InvalidModel("polarization direction stays pseudo-effective forever")
    if reach <= 0:
        return PiecewisePoly.zero()
    curves = lat.negative_curves
    return PiecewisePoly(*chamber_walk(lat.curve_gram, [pair(a_vec, c) for c in curves],
                                       [-pair(h_vec, c) for c in curves], square, reach))


# ---------------------------------------------------------------------------
# singularity invariants
# ---------------------------------------------------------------------------

def cone_singularity_volume(model):
    """Volume of the cone singularity: n times the integral of the canonical
    class's volume function; zero exactly for non-general-type models."""
    series = volume_function(model, 1, 0)
    return _simplify((model.dim + 1) * series.integral())


def cone_gamma_volume(model):
    """Growth of the resolution's canonical sections: the canonical class is
    the pullback of K + H, so integrate that volume function."""
    series = volume_function(model, 1, 1)
    return _simplify((model.dim + 1) * series.integral())


def psef_threshold_anticanonical(model):
    """min{t : -K + t*H pseudo-effective}, exactly."""
    if isinstance(model, (Curve, ProjSpace)):
        return Fraction(*_rank_one(model))
    pair, ample, canonical, h_vec = _surface_form(model)
    mk = tuple([-x for x in canonical])
    if ample is not None:
        return _round_end(pair(mk, mk), 2 * pair(mk, h_vec), pair(h_vec, h_vec),
                          pair(mk, ample), pair(h_vec, ample))
    ends = model.lattice.psef_interval(mk, h_vec)
    if ends is None or ends[0] is None:
        raise InvalidModel("anticanonical threshold has no finite value")
    return ends[0]


def bdff_cone_volume(model):
    """Nef-envelope volume: threshold^n times the polarization degree,
    zero when the threshold is negative."""
    # psef = nef is structural on curves, projective spaces and covers; a
    # lattice needs no negative curves or the caller's certificate
    if (isinstance(model, LatticeModel) and model.lattice.negative_curves
            and not model.envelope_nef_certified):
        raise HypothesisNotAsserted(
            "cannot certify that the anticanonical envelope is relatively nef; "
            "pass envelope_nef_certified=True to assert it"
        )
    threshold = psef_threshold_anticanonical(model)
    if threshold <= 0:
        return Fraction(0)
    return _simplify(threshold ** (model.dim + 1) * polarization_degree(model))


# ---------------------------------------------------------------------------
# plurigenus sequences
# ---------------------------------------------------------------------------

def section_count_curve(model: Curve, degree) -> int:
    """h^0 of a degree-d line bundle on the curve.

    Above the canonical degree this is Riemann-Roch; inside [0, 2g-2] it is
    the general-position value, gated by the model flag.
    """
    degree = Fraction(degree)
    if degree.denominator != 1:
        raise ValueError("section counts need integral degrees")
    d = int(degree)
    g = model.genus
    if d < 0:
        return 0
    if d > 2 * g - 2:
        return d + 1 - g
    if not model.general_position:
        raise SpecialRange(
            f"h^0 of a degree-{d} bundle on a genus-{g} curve is not a function "
            "of the degree; set general_position=True to use max(0, d+1-g)"
        )
    return max(0, d + 1 - g)


def lambda_sequence(model, m_max: int):
    """Plurigenera (m, lambda_m, n!*lambda_m/m^n) for m = 1..m_max.

    lambda_m sums section counts of m*K - k*H over k >= 1; only models with
    exact section counts (curves, projective spaces) are supported.
    """
    if isinstance(model, ProjSpace):
        # m*K - k*H has negative degree
        return [(m, 0, Fraction(0)) for m in range(1, m_max + 1)]
    if not isinstance(model, Curve):
        raise ConeError("lambda sequences need exact section counts "
                        "(curve or projective-space models)")
    n, out = model.dim + 1, []
    g, d = model.genus, model.degree
    for m in range(1, m_max + 1):
        top = m * (2 * g - 2)  # lambda_m sums h^0 at the degrees x_k = top - k*d
        last = top // d  # the last k with x_k >= 0
        if last >= 1 and top - last * d <= 2 * g - 2:
            # raises SpecialRange unless the curve is in general position,
            # naming the first x_k in [0, 2g-2]
            section_count_curve(model, top - max(1, -((2 * g - 2 - top) // d)) * d)
        # each x_k >= 0 counts max(0, x_k + 1 - g): an arithmetic series up
        # to the last k with x_k >= g - 1
        k1 = max(0, (top + 1 - g) // d)
        lam = k1 * (top + 1 - g) - d * k1 * (k1 + 1) // 2
        out.append((m, lam, Fraction(factorial(n) * lam, m ** n)))
    return out
