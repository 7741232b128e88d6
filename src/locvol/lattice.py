"""Integer slice scan: lattice points of {x in [lo, hi] : a.x >= b}.

This is the polyhedral kernel's one lattice-scan primitive, on Python ints
with integer rows (a, b).  A slice fixes the first n-2 coordinates; in the
plane left over, every row is a line bounding the last coordinate from
below or above, or a bound on the other one.  The points of a slice lie
between the least upper and the greatest lower line over an x-range given
exactly by the pairs of lines, so a slice is counted by a few floor sums,
each O(log) by Euclid's algorithm, and enumerated by evaluating the two
envelopes at each x.  Budgets, boxes and the rows of a polyhedron belong
to locvol.geometry, the module's one caller; numpy is never loaded.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .linalg import dot


def _floor_sum(n, m, a, b):
    """Sum of floor((a*i + b)/m) over 0 <= i < n, for n >= 0 and m >= 1.

    After a and b are reduced mod m the sum counts the lattice points under
    a segment, and exchanging the axes leaves the same sum with (m, a)
    replaced by (a, m): Euclid's algorithm, O(log m) steps on Python ints
    (Graham, Knuth & Patashnik, Concrete Mathematics, section 3.5).
    """
    total = 0
    while n:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def _envelope_sum(lines, x0, x1):
    """Sum over x0 <= x <= x1 of the least floor((a*x + c)/q) over the lines,
    which come in order of falling slope a/q.

    The least of the real lines is a concave envelope, and walking it from
    x0 the slope only falls: the lowest line at x (the flattest of a tie)
    stays lowest until a flatter line crosses it, so each piece of the
    envelope is one floor sum.
    """
    total, first = 0, 0
    while x0 <= x1:
        j = first
        a, c, q = lines[j]
        for i in range(first + 1, len(lines)):
            a2, c2, q2 = lines[i]
            if (a2 * x0 + c2) * q <= (a * x0 + c) * q2:
                j, a, c, q = i, a2, c2, q2
        end = x1
        for a2, c2, q2 in lines[j + 1:]:
            s = a * q2 - a2 * q
            if s > 0:  # (a*x + c)/q <= (a2*x + c2)/q2 while x*s <= c2*q - c*q2
                end = min(end, (c2 * q - c * q2) // s)
        total += _floor_sum(end - x0 + 1, q, a, a * x0 + c)
        x0, first = end + 1, j + 1
    return total


def _envelope_at(lines, x):
    return min((a * x + c) // q for a, c, q in lines)


def _slices(rows, lo, hi):
    """The rows a.x >= b on the box [lo, hi], cut into 2-dim slices.

    A slice fixes the prefix p of the first n-2 coordinates and leaves
    (x, y) = (x_{n-1}, x_n).  There a row reads alpha*x + beta*y >= r with
    r = b - a'.p: for beta > 0 it is the lower line -y <= (alpha*x - r)/beta,
    for beta < 0 the upper line y <= (alpha*x - r)/|beta|, and for beta = 0
    a bound on x; the box adds y >= lo and y <= hi as lines.  The slice's
    points are then -L(x) <= y <= U(x), where U and L are the least
    floor((alpha*x - r)/|beta|) over the upper and the lower lines.  Each
    pair of a lower and an upper line adds the bound on x under which the
    two real lines do not cross (Fourier-Motzkin elimination of y); where
    all such bounds hold, U + L + 1 >= 0, and where one fails, U + L + 1 <= 0.

    Yields (p, x0, x1, upper, lower) for every prefix in lexicographic
    order with a nonempty x-range [x0, x1]; a line is (alpha, -r, |beta|),
    and each group comes in order of falling slope.  Dimension 1 is one
    slice, x_1 being x and y a last coordinate pinned to 0.
    """
    rows = [(tuple(a), b) for a, b in rows]
    if len(lo) == 1:
        rows = [(a + (0,), b) for a, b in rows]
        lo, hi = [lo[0], 0], [hi[0], 0]
    k = len(lo) - 2
    y_unit = (0,) * (k + 1)
    rows = dict.fromkeys(rows + [(y_unit + (1,), lo[-1]), (y_unit + (-1,), -hi[-1])])
    falling = lambda row: Fraction(-row[0][k], abs(row[0][-1]))
    lower = sorted((r for r in rows if r[0][-1] > 0), key=falling)
    upper = sorted((r for r in rows if r[0][-1] < 0), key=falling)
    flat = [r for r in rows if not r[0][-1]]
    for ai, bi in lower:
        for aj, bj in upper:
            qi, qj = ai[-1], -aj[-1]
            flat.append((tuple([qj * u + qi * v for u, v in zip(ai, aj)]), qj * bi + qi * bj))
    flat = list(dict.fromkeys(flat))
    bounds = [a[k] for a, _ in flat]
    slopes = [(a[k], abs(a[-1])) for a, _ in upper + lower]
    nf, nu = len(flat), len(upper)
    for prefix, offsets in _prefix_offsets(flat + upper + lower, lo, hi, k):
        x0, x1 = lo[k], hi[k]
        for alpha, r in zip(bounds, offsets):
            if alpha > 0:
                x0 = max(x0, -(-r // alpha))
            elif alpha < 0:
                x1 = min(x1, r // alpha)
            elif r > 0:
                x1 = x0 - 1
                break
        if x0 <= x1:
            lines = [(alpha, -r, q) for (alpha, q), r in zip(slopes, offsets[nf:])]
            yield prefix, x0, x1, lines[:nu], lines[nu:]


def _prefix_offsets(forms, lo, hi, k):
    """(p, [b - a.p for each form (a, b)]) over the prefixes p of the box's
    first k coordinates, in lexicographic order.  The last coordinate of p
    moves innermost, so one subtraction per form takes each step.
    """
    if not k:
        yield (), [b for _, b in forms]
        return
    step = [a[k - 1] for a, _ in forms]
    for head in product(*[range(lo[i], hi[i] + 1) for i in range(k - 1)]):
        offsets = [b - dot(a, head) - c * lo[k - 1] for (a, b), c in zip(forms, step)]
        for v in range(lo[k - 1], hi[k - 1] + 1):
            yield head + (v,), offsets
            offsets = [r - c for r, c in zip(offsets, step)]


def _count(rows, lo, hi):
    """Integer points of the box [lo, hi] satisfying every row, exactly."""
    return sum(_envelope_sum(upper, x0, x1) + _envelope_sum(lower, x0, x1) + x1 - x0 + 1
               for _, x0, x1, upper, lower in _slices(rows, lo, hi))
