"""Regenerate pinned.json: catalogues and the values locvol gives for them.

    python3 perfbench/pin.py

The catalogues are drawn from fixed generator seeds, so rerunning this at
the same commit reproduces pinned.json byte for byte.  Values that have a
stronger reference (paper values, closed forms) are checked against it
in oracles.py, not taken from here; pinned values of lattice counts are
cross-checked by a brute-force counter in test_perfbench.py.  Rerun this
only when a catalogue changes, never to make a failing check pass.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction as F

import problems as P

sys.path.insert(0, str(P.SRC))

from locvol.cone import AbelianCover, bdff_cone_volume, cone_gamma_volume, cone_singularity_volume  # noqa: E402
from locvol.exactnum import QuadraticNumber  # noqa: E402
from locvol.monomial import MonomialIdeal, asymptotic_multiplicity, multiplicity_sequence  # noqa: E402
from locvol.surface import DualGraph, NotNegativeDefinite, singularity_volume  # noqa: E402
from locvol.toric import fujita_sequence, h1_sequence, local_volume_toric  # noqa: E402


def exact(v):
    if isinstance(v, QuadraticNumber) and not v.is_rational:
        return {"a": str(v.a), "b": str(v.b), "c": v.c}
    if isinstance(v, QuadraticNumber):
        v = v.as_fraction()
    return str(F(v))


def stars():
    rng = random.Random("star-catalogue")
    out = []
    while len(out) < 16:
        verts = [(-rng.randint(1, 4), rng.randint(0, 2))]
        edges = []
        for _ in range(rng.randint(3, 4)):
            prev = 0
            for _ in range(rng.randint(1, 3)):
                if len(verts) == 12:
                    break
                verts.append((-rng.randint(2, 4), 0))
                edges.append((prev, len(verts) - 1, 1))
                prev = len(verts) - 1
        try:
            value = singularity_volume(DualGraph(verts, edges))
        except NotNegativeDefinite:
            continue
        out.append({"vertices": verts, "edges": edges, "value": exact(value)})
    return out


def toric():
    out = []
    singles = ["1/4", "1/2", "3/4", "1", "3/2"]
    ts = sorted({F(t) for t in singles}
                | {(F(a) + F(b)) / 2 for a in singles for b in singles})
    for t in ts:
        coeffs = list(P.tnc_coeffs(t))
        value = local_volume_toric(P._divisor("tnc", coeffs))
        out.append({"datum": "tnc", "family": "tnc", "coeffs": coeffs,
                    "value": exact(value)})
    rng = random.Random("toric-catalogue")
    for datum, count in (("tnc", 12), ("octant", 4)):
        nrays = len(P.DATA[datum][1])
        for _ in range(count):
            coeffs = [str(F(rng.randint(-4, 4), rng.randint(1, 3)))
                      for _ in range(nrays)]
            value = local_volume_toric(P._divisor(datum, coeffs))
            out.append({"datum": datum, "family": "random", "coeffs": coeffs,
                        "value": exact(value)})
    return out


ABELIAN = [(2, 3, 2), (1, 2, 3), (3, 4, 2), (2, 5, 3), (1, 1, 1), (1, 3, 2),
           (2, 4, 5)]

# blow-up of the plane at a point: H^2 = 1, E^2 = -1, psef cone <E, H - E>;
# the nef-envelope hypothesis is asserted so that bdff_cone_volume applies
BLOWUP = {"gram": [[1, 0], [0, -1]], "canonical": [-3, 1], "ample": [2, -1],
          "negative_curves": [[0, 1]], "psef_generators": [[0, 1], [1, -1]],
          "envelope_nef_certified": True}
LATTICE = [
    # the product P^1 x C of docs/schemas/p1xC.json
    {"gram": [[0, 1], [1, 0]], "canonical": [2, -2], "ample": [1, 1],
     "negative_curves": [], "psef_generators": [[1, 0], [0, 1]],
     "envelope_nef_certified": False, "k": [2, -2], "h": [1, 1]},
    dict(BLOWUP, k=[5, -1], h=[2, -1]),
    dict(BLOWUP, k=[4, -2], h=[1, 0]),
    dict(BLOWUP, k=[6, -1], h=[3, -1]),
    dict(BLOWUP, k=[7, -3], h=[2, -1]),
    # round psef cone on a hyperbolic lattice
    {"gram": [[1, 0], [0, -2]], "canonical": [3, 1], "ample": [1, 0],
     "negative_curves": [], "psef_generators": [],
     "envelope_nef_certified": False, "k": [3, 1], "h": [1, 0]},
]


def cone_values(model):
    return {"volume": exact(cone_singularity_volume(model)),
            "gamma": exact(cone_gamma_volume(model)),
            "bdff": exact(bdff_cone_volume(model))}


def sequences():
    h1 = {}
    for t in ("1/2", "3/2", "2"):
        seq = h1_sequence(P._divisor("tnc", P.tnc_coeffs(t)), P.H1_PINNED_MAX[t])
        h1[t] = {str(m): c for m, c, _ in seq}
    seq = h1_sequence(P._divisor("q4", P.Q4_COEFFS), P.H1_PINNED_MAX["q4"])
    h1["q4"] = {str(m): c for m, c, _ in seq}
    fujita = {}
    for t, p_max in P.FUJITA_PINNED_MAX.items():
        seq = fujita_sequence(P._divisor("tnc", P.tnc_coeffs(t)), p_max)
        fujita[t] = {str(p): exact(mult) for p, mult, _ in seq}
    ideal = MonomialIdeal(P.MIXED3_GENS)
    mixed3 = {"asymptotic": exact(asymptotic_multiplicity(ideal)),
              "h1": {str(p): h for p, h, _ in
                     multiplicity_sequence(ideal, P.MIXED3_PINNED_MAX)}}
    return h1, fujita, mixed3


def main():
    pinned = {"stars": stars(), "toric": toric()}
    pinned["abelian"] = []
    for data in ABELIAN:
        pinned["abelian"].append({"data": list(data),
                                  "values": cone_values(AbelianCover(*data))})
    pinned["lattice"] = []
    for spec in LATTICE:
        model = P._model({"type": "lattice", "ref": 0}, {"lattice": [{"model": spec}]})
        pinned["lattice"].append({"model": spec, "values": cone_values(model)})
    pinned["h1"], pinned["fujita"], pinned["mixed3"] = sequences()
    P.PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
