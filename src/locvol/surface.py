"""Surface singularity volumes via relative Zariski decomposition.

A weighted dual graph (self-intersections, genera, edge multiplicities) with
negative definite intersection matrix determines the resolution data of a
normal surface singularity.  Any intersection vector decomposes uniquely into
a relatively nef part and an effective part supported where nefness fails;
the singularity volume is minus the self-intersection of the nef part of the
log-canonical vector.  The same growing-support iteration also computes
volumes of divisor classes on projective-surface lattices against a declared
list of negative curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import solve_linear
from .linprog import INFEASIBLE, LPResult, solve_lp


class SurfaceError(Exception):
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
# exact symmetric-matrix checks
# ---------------------------------------------------------------------------

def ldl_pivots_negative(m) -> bool:
    """Negative definiteness by in-order LDL^T elimination, all pivots < 0."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    for k in range(n):
        if a[k][k] >= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


def symmetric_inertia(m):
    """(positive, negative, zero) eigenvalue counts by exact congruence."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        k = next((i for i in active if a[i][i] != 0), None)
        if k is not None:
            if a[k][k] > 0:
                pos += 1
            else:
                neg += 1
            active.remove(k)
            piv = a[k][k]
            for i in active:
                f = a[i][k] / piv
                if f:
                    for j in active:
                        a[i][j] -= f * a[k][j]
                    a[i][k] = Fraction(0)
            for j in active:
                a[k][j] = Fraction(0)
            continue
        pair = next(
            ((i, j) for i in active for j in active if j > i and a[i][j] != 0),
            None,
        )
        if pair is None:
            zero += len(active)
            break
        i0, j0 = pair
        pos += 1
        neg += 1
        active.remove(i0)
        active.remove(j0)
        b = a[i0][j0]
        for l in active:
            ci, cj = a[l][i0], a[l][j0]
            if ci or cj:
                for mcol in active:
                    a[l][mcol] -= (ci * a[j0][mcol] + cj * a[i0][mcol]) / b
    return (pos, neg, zero)


def _mat_vec(m, v):
    return tuple(sum(Fraction(a) * Fraction(x) for a, x in zip(row, v)) for row in m)


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
        m = [[0] * n for _ in range(n)]
        for i, (s, _) in enumerate(verts):
            m[i][i] = s
        for e in edges:
            i, j, mult = (int(e[0]), int(e[1]), int(e[2]) if len(e) > 2 else 1)
            if i == j or not (0 <= i < n and 0 <= j < n) or mult < 1:
                raise ValueError(f"bad edge {e}")
            m[i][j] += mult
            m[j][i] += mult
        if not ldl_pivots_negative(m):
            raise NotNegativeDefinite("intersection matrix is not negative definite")
        self.vertices = tuple(verts)
        self.edges = tuple((int(e[0]), int(e[1]), int(e[2]) if len(e) > 2 else 1)
                           for e in edges)
        self.matrix = tuple(tuple(row) for row in m)

    @property
    def rank(self) -> int:
        return len(self.vertices)

    def permuted(self, perm) -> "DualGraph":
        inv = {old: new for new, old in enumerate(perm)}
        verts = [self.vertices[old] for old in perm]
        edges = [(inv[i], inv[j], mult) for i, j, mult in self.edges]
        return DualGraph(verts, edges)


def log_canonical_intersections(graph: DualGraph):
    """Intersection numbers of the log-canonical vector with each curve:
    2*genus - 2 plus the number of neighbours counted with multiplicity."""
    deg = [0] * graph.rank
    for i, j, mult in graph.edges:
        deg[i] += mult
        deg[j] += mult
    return tuple(
        Fraction(2 * g - 2 + deg[i]) for i, (_, g) in enumerate(graph.vertices)
    )


@dataclass(frozen=True)
class ZariskiParts:
    """Nef and effective parts, as coefficient vectors over the vertices."""

    nef: tuple[Fraction, ...]
    negative: tuple[Fraction, ...]


def _support_iteration(gram, target):
    """Decompose the class with intersection numbers `target` against the
    negative definite `gram`: grow the bad support until the rest is nef."""
    n = len(target)
    z = solve_linear([list(r) for r in gram], list(target))
    support = set()
    for _ in range(n + 1):
        if support:
            idx = sorted(support)
            sub = [[gram[i][j] for j in idx] for i in idx]
            sol = solve_linear(sub, [target[i] for i in idx])
            neg = [Fraction(0)] * n
            for i, v in zip(idx, sol):
                neg[i] = v
        else:
            neg = [Fraction(0)] * n
        nef = tuple(a - b for a, b in zip(z, neg))
        pairing = _mat_vec(gram, nef)
        violations = {j for j, v in enumerate(pairing) if v < 0}
        if not violations:
            return ZariskiParts(nef, tuple(neg)), pairing
        support |= violations
    raise SurfaceError("support iteration failed to terminate")  # unreachable


def zariski_decompose(graph: DualGraph, target) -> ZariskiParts:
    """Relative Zariski decomposition of the class with the given intersection
    numbers; rejects classes whose effective part comes out negative."""
    target = tuple(Fraction(x) for x in target)
    if len(target) != graph.rank:
        raise ValueError("intersection vector length mismatch")
    parts, pairing = _support_iteration(graph.matrix, target)
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
    pseudo-effective cone is the round cone {D : D.D >= 0, D.ample >= 0}.
    """

    def __init__(self, gram, canonical, ample, negative_curves=(),
                 psef_generators=()):
        gram = tuple(tuple(int(x) for x in row) for row in gram)
        n = len(gram)
        if any(len(row) != n for row in gram) or any(
            gram[i][j] != gram[j][i] for i in range(n) for j in range(n)
        ):
            raise InvalidLattice("gram matrix must be square and symmetric")
        if symmetric_inertia(gram) != (1, n - 1, 0):
            raise InvalidLattice("gram matrix must have signature (1, rank-1)")
        self.rank = n
        self.gram = gram
        self.canonical = tuple(int(x) for x in canonical)
        self.ample = tuple(int(x) for x in ample)
        if _bilinear(self.ample, gram, self.ample) <= 0:
            raise InvalidLattice("ample class must have positive self-intersection")
        self.negative_curves = tuple(tuple(int(x) for x in c) for c in negative_curves)
        for c in self.negative_curves:
            if _bilinear(c, gram, c) >= 0:
                raise InvalidLattice(f"declared curve {c} is not negative")
            if _bilinear(self.ample, gram, c) <= 0:
                raise InvalidLattice(f"declared curve {c} meets the ample class badly")
        self.psef_generators = tuple(tuple(Fraction(x) for x in g)
                                     for g in psef_generators)

    def pair(self, u, v) -> Fraction:
        return _bilinear(u, self.gram, v)

    @property
    def is_round_model(self) -> bool:
        return not self.psef_generators

    def is_psef(self, d) -> bool:
        d = tuple(Fraction(x) for x in d)
        if self.is_round_model:
            return self.pair(d, d) >= 0 and self.pair(d, self.ample) >= 0
        return self.psef_lp(d, (0,) * self.rank).status != INFEASIBLE

    def psef_lp(self, a, h, sense: str = "max") -> LPResult:
        """Optimize t subject to a + t*h in the cone of `psef_generators`.

        The variables are t and a non-negative weight per generator.  With
        h = 0 the LP is unbounded when a is pseudo-effective and infeasible
        when it is not.
        """
        gens = self.psef_generators
        k = len(gens)
        rows = []
        for coord in range(self.rank):
            coeffs = (Fraction(h[coord]),) + tuple(-g[coord] for g in gens)
            rows.append((coeffs, -Fraction(a[coord])))
            rows.append((tuple(-c for c in coeffs), Fraction(a[coord])))
        for i in range(k):
            unit = (0,) + tuple(1 if j == i else 0 for j in range(k))
            rows.append((unit, Fraction(0)))
        return solve_lp((1,) + (0,) * k, rows, sense)


def lattice_zariski(lattice: SurfaceLattice, d):
    """Zariski decomposition against the declared negative curves.

    Returns (nef part as a vector, dict curve index -> coefficient).
    """
    d = tuple(Fraction(x) for x in d)
    curves = lattice.negative_curves
    support = set()
    for _ in range(len(curves) + 1):
        coeffs = {}
        nef = list(d)
        if support:
            idx = sorted(support)
            sub = [[lattice.pair(curves[i], curves[j]) for j in idx] for i in idx]
            rhs = [lattice.pair(d, curves[i]) for i in idx]
            try:
                sol = solve_linear(sub, rhs)
            except ValueError:
                raise InvalidModel(
                    "declared negative curves do not span a definite support"
                )
            coeffs = dict(zip(idx, sol))
            for i, v in coeffs.items():
                nef = [a - v * c for a, c in zip(nef, curves[i])]
        violations = {
            i for i, c in enumerate(curves)
            if i not in support and lattice.pair(nef, c) < 0
        }
        if not violations:
            if any(v < 0 for v in coeffs.values()):
                raise NegativeCoefficient(
                    f"negative part {coeffs} of a pseudo-effective class"
                )
            return tuple(nef), coeffs
        support |= violations
    raise SurfaceError("support iteration failed to terminate")  # unreachable


def projective_volume(lattice: SurfaceLattice, d) -> Fraction:
    """Volume of a divisor class: zero off the pseudo-effective cone, else
    the self-intersection of the nef part of its Zariski decomposition."""
    d = tuple(Fraction(x) for x in d)
    if not lattice.is_psef(d):
        return Fraction(0)
    if lattice.is_round_model:
        return lattice.pair(d, d)
    nef, _ = lattice_zariski(lattice, d)
    return lattice.pair(nef, nef)
