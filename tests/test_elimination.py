"""Differential tests of the fraction-free elimination core.

The oracles are the Fraction eliminations and the rank-test double
description that the Bareiss core and the combinatorial adjacency test
replaced, kept here verbatim as references.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from locvol.dd import cone_extreme_rays
from locvol.linalg import dot, mat_det, mat_rank, primitive, solve_linear
from locvol.surface import ldl_pivots_negative, symmetric_inertia


# -- oracles ------------------------------------------------------------------

def oracle_rank(rows) -> int:
    rows = [[Fraction(x) for x in r] for r in rows]
    rank, ncols = 0, (len(rows[0]) if rows else 0)
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def oracle_det(rows) -> Fraction:
    rows = [[Fraction(x) for x in r] for r in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def oracle_solve(rows, rhs):
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return tuple(aug[i][n] for i in range(n))


def _oracle_integer_rows(rows):
    out = []
    for r in rows:
        fr = [Fraction(x) for x in r]
        lcm = 1
        for x in fr:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        out.append(primitive([int(x * lcm) for x in fr]))
    return out


def _oracle_bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _oracle_dedupe(rays):
    seen = {}
    for r, m in rays:
        if r in seen:
            seen[r] |= m
        else:
            seen[r] = m
    return list(seen.items())


def oracle_extreme_rays(rows, dim):
    """Double description with the algebraic (rank) adjacency test."""
    rows = [r for r in _oracle_integer_rows(rows) if any(r)]
    prefix, rest, seen = [], [], []
    for r in rows:
        if oracle_rank(seen + [r]) > len(seen):
            prefix.append(r)
            seen.append(r)
        else:
            rest.append(r)
    rows = prefix + rest

    lin = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    for k, a in enumerate(rows):
        lvals = [dot(a, l) for l in lin]
        j0 = next((j for j, v in enumerate(lvals) if v != 0), None)
        if j0 is not None:
            l0 = lin[j0] if lvals[j0] > 0 else tuple(-x for x in lin[j0])
            v0 = abs(lvals[j0])
            new_lin = []
            for j, l in enumerate(lin):
                if j == j0:
                    continue
                w = primitive([v0 * x - dot(a, l) * y for x, y in zip(l, l0)])
                new_lin.append(w)
            lin = new_lin
            new_rays = []
            for r, mask in rays:
                w = primitive([v0 * x - dot(a, r) * y for x, y in zip(r, l0)])
                new_rays.append((w, mask | (1 << k)))
            new_rays.append((l0, (1 << k) - 1))
            rays = _oracle_dedupe(new_rays)
            continue
        pos, zer, neg = [], [], []
        for r, mask in rays:
            v = dot(a, r)
            if v > 0:
                pos.append((r, mask, v))
            elif v < 0:
                neg.append((r, mask, v))
            else:
                zer.append((r, mask | (1 << k)))
        if not neg:
            rays = [(r, m) for r, m, _ in pos] + zer
            continue
        if not pos:
            rays = zer
            continue
        target = dim - len(lin) - 2
        combos = []
        for rp, mp, vp in pos:
            for rn, mn, vn in neg:
                common = mp & mn
                tight_rows = [rows[j] for j in _oracle_bits(common)]
                rank = oracle_rank(tight_rows) if tight_rows else 0
                if rank != target:
                    continue
                w = primitive([vp * x - vn * y for x, y in zip(rn, rp)])
                combos.append((w, common | (1 << k)))
        rays = _oracle_dedupe([(r, m) for r, m, _ in pos] + zer + combos)
    return [r for r, _ in rays], lin


def oracle_inertia(m):
    """Congruence elimination with a 2x2 block step on a zero diagonal."""
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


# -- random inputs ------------------------------------------------------------

def _entry(rng, rational):
    if rng.random() < 0.3:
        return 0
    num = rng.randint(-6, 6)
    return Fraction(num, rng.randint(1, 5)) if rational else num


def _matrix(rng, nrows, ncols, rank=None, rational=True):
    """A random matrix, of at most the given rank when one is given."""
    if rank is None:
        return [[_entry(rng, rational) for _ in range(ncols)] for _ in range(nrows)]
    if rank == 0:
        return [[0] * ncols for _ in range(nrows)]
    left = _matrix(rng, nrows, rank, rational=rational)
    right = _matrix(rng, rank, ncols, rational=rational)
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
            for row in left]


def _random_matrices(seed, count):
    rng = random.Random(seed)
    yield []
    yield [[]]
    yield [[0, 0], [0, 0]]
    for _ in range(count):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.choice([None, rng.randint(0, min(nrows, ncols))])
        m = _matrix(rng, nrows, ncols, rank, rational=rng.random() < 0.5)
        if rng.random() < 0.3:
            m[rng.randrange(nrows)] = [0] * ncols
        yield m


# -- rank, determinant, solve -------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_rank_matches_fraction_elimination(seed):
    for m in _random_matrices(seed, 300):
        assert mat_rank(m) == oracle_rank(m), m


@pytest.mark.parametrize("seed", range(4))
def test_det_and_solve_match_fraction_elimination(seed):
    rng = random.Random(100 + seed)
    for _ in range(300):
        n = rng.randint(0, 6)
        m = _matrix(rng, n, n, rng.choice([None, n, rng.randint(0, n)]),
                    rational=rng.random() < 0.5)
        det = mat_det(m)
        assert isinstance(det, Fraction) and det == oracle_det(m), m
        rhs = [_entry(rng, True) for _ in range(n)]
        try:
            expected = oracle_solve(m, rhs)
        except ValueError:
            with pytest.raises(ValueError, match="singular system"):
                solve_linear(m, rhs)
        else:
            assert solve_linear(m, rhs) == expected, (m, rhs)


# -- double description -------------------------------------------------------

def _random_cone(rng, dim):
    """Rows with redundancy: doubled, summed, negated and zero rows."""
    rows = [[rng.randint(-3, 3) for _ in range(dim)]
            for _ in range(rng.randint(1, dim + 3))]
    for _ in range(rng.randint(0, 3)):
        op = rng.randrange(4)
        r = rng.choice(rows)
        if op == 0:
            rows.append([2 * x for x in r])
        elif op == 1:
            rows.append([x + y for x, y in zip(r, rng.choice(rows))])
        elif op == 2:
            rows.append([-x for x in r])  # an implicit equality: lineality
        else:
            rows.append([Fraction(x, 3) for x in r])
    if rng.random() < 0.1:
        rows.append([0] * dim)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_combinatorial_adjacency_matches_rank_test(dim):
    rng = random.Random(dim)
    for _ in range(400):
        rows = _random_cone(rng, dim)
        assert cone_extreme_rays(rows, dim) == oracle_extreme_rays(rows, dim), rows


def test_cyclic_polytope_cone_matches_rank_test():
    # the cone over a cyclic 4-polytope: many rays, many adjacent pairs
    rows = [(1, t, t * t, t ** 3, t ** 4) for t in range(-4, 5)]
    facets, lin = cone_extreme_rays(rows, 5)
    assert (facets, lin) == oracle_extreme_rays(rows, 5)
    assert cone_extreme_rays(facets, 5) == oracle_extreme_rays(facets, 5)


# -- symmetric inertia --------------------------------------------------------

def _random_symmetric(rng, n):
    rational = rng.random() < 0.3
    a = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        a[i][j] = a[j][i] = _entry(rng, rational)
    zero_diagonal = rng.random() < 0.4
    for i in range(n):
        a[i][i] = 0 if zero_diagonal or rng.random() < 0.3 else _entry(rng, rational)
    return a


@pytest.mark.parametrize("seed", range(4))
def test_inertia_matches_block_elimination(seed):
    rng = random.Random(200 + seed)
    for _ in range(400):
        n = rng.randint(0, 7)
        m = _random_symmetric(rng, n)
        expected = oracle_inertia(m)
        assert symmetric_inertia(m) == expected, m
        assert ldl_pivots_negative(m) == (expected == (0, n, 0)), m


def test_negative_definite_matrices_are_recognised():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        b = _matrix(rng, n, n, rational=False)
        # -(B B^T + I) is negative definite
        m = [[-sum(x * y for x, y in zip(b[i], b[j])) - (i == j) for j in range(n)]
             for i in range(n)]
        assert oracle_inertia(m) == (0, n, 0)
        assert symmetric_inertia(m) == (0, n, 0)
        assert ldl_pivots_negative(m)
