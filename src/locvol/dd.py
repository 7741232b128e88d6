"""Double description: extreme rays of {x : <row, x> >= 0}.

This is the polyhedral kernel's one double-description routine.  Vertex
and facet enumeration in locvol.geometry, the dual cones of locvol.toric
and the surface layer's pseudo-effective cone all run through it.  Its
adjacency test is combinatorial: a pair of rays is adjacent iff no third
ray is tight on all rows both are tight on.  A pass that would build more
than RAY_LIMIT candidate rays raises RayBudget before it builds any.  The
module imports nothing of locvol above locvol.linalg, so a caller that
needs only a cone's rays does not compile the rest of the kernel.
"""

from __future__ import annotations

from . import LocvolError
from .linalg import _bareiss, clear_denominators, dot, primitive


class GeometryError(LocvolError):
    """Base class for polyhedral kernel failures."""


RAY_LIMIT = 1 << 16  # candidate rays (pos x neg pairs) one DD pass may build


class RayBudget(GeometryError):
    """A double-description pass would build more than RAY_LIMIT candidate rays."""


def cone_extreme_rays(rows, dim):
    """Extreme rays and lineality basis of the cone {x : <r, x> >= 0 for all r}.

    Rays are primitive integer vectors.  A maximal independent prefix of the
    rows is processed first, so it consumes the whole lineality space; after
    it, the rays are the extreme rays of a pointed cone modulo the lineality,
    and two of them are adjacent iff no third ray is tight on every row both
    are tight on (Fukuda & Prodon 1996).
    """
    rows = [primitive(clear_denominators(r)[0]) for r in rows]
    rows = [r for r in rows if any(r)]
    prefix, _, _ = _bareiss([list(col) for col in zip(*rows)])
    rows = [rows[i] for i in prefix] + [r for i, r in enumerate(rows) if i not in prefix]

    lin = [tuple([1 if j == i else 0 for j in range(dim)]) for i in range(dim)]
    rays = []  # list of (vector, tight bitmask over processed rows)

    for k, a in enumerate(rows):
        lvals = [dot(a, l) for l in lin]
        j0 = next((j for j, v in enumerate(lvals) if v != 0), None)
        if j0 is not None:
            l0 = lin[j0] if lvals[j0] > 0 else tuple([-x for x in lin[j0]])
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
            rays = _dedupe(new_rays)
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
        if len(pos) * len(neg) > RAY_LIMIT:
            raise RayBudget(f"a double-description pass would pair {len(pos)} with "
                            f"{len(neg)} rays, over the limit of {RAY_LIMIT} "
                            f"candidate rays")
        masks = [m for _, m in rays]
        combos = []
        for rp, mp, vp in pos:
            for rn, mn, vn in neg:
                common = mp & mn
                # the pair itself always qualifies; a third ray means the
                # pair spans more than an edge and the combination is not extreme
                if sum(m & common == common for m in masks) > 2:
                    continue
                w = primitive([vp * x - vn * y for x, y in zip(rn, rp)])
                combos.append((w, common | (1 << k)))
        rays = _dedupe([(r, m) for r, m, _ in pos] + zer + combos)
    return [r for r, _ in rays], lin


def _dedupe(rays):
    seen = {}
    for r, m in rays:
        if r in seen:
            seen[r] |= m
        else:
            seen[r] = m
    return list(seen.items())
