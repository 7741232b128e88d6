"""One exact elimination core over the rationals.

Rank, determinant and linear solves share one fraction-free Gauss-Jordan
elimination (Bareiss) on Python ints, after each row is scaled by the lcm of
its denominators.  The module imports nothing from locvol, so the surface
and cone layers use it without loading the polyhedral kernel.

Every tuple in the package is built from a list or another sized sequence,
never from a generator, `map` or `zip`: `tuple()` of an unsized iterator
takes a 10-slot tuple and shrinks it, so its block is later freed onto
another size's freelist, and over thousands of calls those freelists fill
up and the process's peak memory climbs with its op count.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        return tuple([0 for _ in v])
    return tuple([int(x) // g for x in v])


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def clear_denominators(row):
    """The rational row times the lcm d of its denominators, as ints, and d."""
    row = [Fraction(x) for x in row]
    d = lcm(*[x.denominator for x in row])
    return [x.numerator * (d // x.denominator) for x in row], d


def _bareiss(a):
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    Returns (pivot columns, last pivot, sign of the row swaps).  Every entry
    stays a minor of the input, so each division by the previous pivot is
    exact (Bareiss 1968).  Afterwards the first r = len(pivot columns) rows
    are the reduced row echelon form times the last pivot, and the other rows
    are zero; for a nonsingular square matrix the last pivot is sign * det.
    """
    cols, prev, sign = [], 1, 1
    for c in range(len(a[0]) if a else 0):
        r = len(cols)
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        piv, top = a[r][c], a[r]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        cols.append(c)
        prev = piv
    return cols, prev, sign


def mat_rank(rows) -> int:
    return len(_bareiss([clear_denominators(r)[0] for r in rows])[0])


def mat_det(rows) -> Fraction:
    scaled = [clear_denominators(r) for r in rows]
    cols, last, sign = _bareiss([r for r, _ in scaled])
    if len(cols) < len(scaled):
        return Fraction(0)
    return Fraction(sign * last, prod(d for _, d in scaled))


def solve_linear(rows, rhs):
    """Solve a square nonsingular rational system exactly."""
    n = len(rows)
    aug = [clear_denominators(list(r) + [b])[0] for r, b in zip(rows, rhs)]
    cols, last, _ = _bareiss(aug)
    if cols != list(range(n)):
        raise ValueError("singular system")
    return tuple([Fraction(row[n], last) for row in aug])
