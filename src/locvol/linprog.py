"""Exact linear programming over the rationals.

Two-phase primal simplex on a dense Fraction tableau with Bland's pivoting
rule, so termination is guaranteed and every reported optimum is exact.
Problems arrive as systems of lower bounds <coeffs, x> >= rhs on free
variables; internally x splits into a difference of non-negative parts.

No package module imports it: it is the tests' exact reference for what
the package reads off double descriptions.  It stays in the package,
rather than in the tests, as long as the benchmark's tracer wraps
`solve_lp` and `_pivot` by name (ROADMAP item 5).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


class LPResult(namedtuple("LPResult", "status value point", defaults=(None, None))):
    """Status, and for an optimum its value and a point attaining it."""

    __slots__ = ()

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _pivot(tab, basis, i, j):
    piv = tab[i][j]
    inv = 1 / piv
    tab[i] = [v * inv for v in tab[i]]
    for r in range(len(tab)):
        if r != i and tab[r][j]:
            f = tab[r][j]
            row, prow = tab[r], tab[i]
            tab[r] = [a - f * b for a, b in zip(row, prow)]
    basis[i] = j


def _simplex(tab, basis, cost, ncols):
    """Maximize cost over the current feasible tableau; Bland's rule."""
    m = len(tab)
    while True:
        # reduced costs r_j = c_j - c_B . (tableau column j)
        cb = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in range(ncols):
            if j in basis:
                continue
            r = cost[j]
            for i in range(m):
                if cb[i] and tab[i][j]:
                    r -= cb[i] * tab[i][j]
            if r > 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        leave, best = -1, None
        for i in range(m):
            t = tab[i][entering]
            if t > 0:
                ratio = tab[i][-1] / t
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave < 0:
            return UNBOUNDED
        _pivot(tab, basis, leave, entering)


def solve_lp(objective, rows, sense: str = "max") -> LPResult:
    """Optimize <objective, x> subject to <coeffs, x> >= rhs for each row.

    Variables are free rationals.  Returns an LPResult whose status is one
    of "optimal" (with value and attaining point), "unbounded", or
    "infeasible".
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    c = [Fraction(v) for v in objective]
    if sense == "min":
        c = [-v for v in c]
    n = len(c)
    rows = [([Fraction(a) for a in coeffs], Fraction(rhs)) for coeffs, rhs in rows]
    m = len(rows)

    # columns: u (n) | v (n) | slack (m) | artificial (k), x = u - v
    nart = sum(1 for _, rhs in rows if rhs > 0)
    ncols = 2 * n + m + nart
    tab = []
    basis = []
    art_at = 0
    for i, (coeffs, rhs) in enumerate(rows):
        if len(coeffs) != n:
            raise ValueError("row length mismatch")
        row = [Fraction(0)] * (ncols + 1)
        sign = 1 if rhs > 0 else -1  # flip rows with rhs <= 0: slack gets +1
        for j, a in enumerate(coeffs):
            row[j] = sign * a
            row[n + j] = -sign * a
        row[2 * n + i] = -sign  # surplus variable of the >= constraint
        row[-1] = sign * rhs
        if rhs > 0:
            row[2 * n + m + art_at] = Fraction(1)
            basis.append(2 * n + m + art_at)
            art_at += 1
        else:
            basis.append(2 * n + i)
        tab.append(row)

    if nart:
        phase1 = [Fraction(0)] * ncols
        for j in range(2 * n + m, ncols):
            phase1[j] = Fraction(-1)
        _simplex(tab, basis, phase1, ncols)
        total = sum(tab[i][-1] for i in range(m) if basis[i] >= 2 * n + m)
        if total != 0:
            return LPResult(INFEASIBLE)
        # pivot leftover zero-level artificials out, or drop redundant rows
        i = 0
        while i < len(tab):
            if basis[i] >= 2 * n + m:
                entering = next(
                    (j for j in range(2 * n + m) if tab[i][j] != 0), None
                )
                if entering is None:
                    del tab[i], basis[i]
                    continue
                _pivot(tab, basis, i, entering)
            i += 1

    ncols2 = 2 * n + m
    tab = [row[:ncols2] + [row[-1]] for row in tab]
    cost = [Fraction(0)] * ncols2
    for j in range(n):
        cost[j] = c[j]
        cost[n + j] = -c[j]
    status = _simplex(tab, basis, cost, ncols2)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * (2 * n)
    for i, b in enumerate(basis):
        if b < 2 * n:
            x[b] = tab[i][-1]
    point = tuple(x[j] - x[n + j] for j in range(n))
    value = sum(cj * pj for cj, pj in zip(c, point))
    if sense == "min":
        value = -value
    return LPResult(OPTIMAL, value, point)
