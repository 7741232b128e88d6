"""Seeded inputs for the four workloads, and the code that runs one op.

Every op is plain data: a dict with a "kind" and its parameters.  The seed
decides, per round, which catalogue entries, sizes and value-preserving
transforms (graph relabelling, divisor scaling) the round uses, and in
which order; locvol only ever sees the generated inputs.  Each round holds
one op per slot of its workload, so every seed draws from the same cost
mix and rounds are the unit a run is measured in.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "docs" / "schemas"
PINNED_PATH = HERE / "pinned.json"

WORKLOADS = ("cli_fixtures", "toric_h1", "saturation_seq", "exact_invariants")

# -- toric data --------------------------------------------------------------

# the paper's running example (docs/schemas/tnc.json): 2D - tE on a
# three-dimensional non-simplicial-free cone refined by (1,1,1) and (1,0,0)
TNC_CONE = ((0, 1, 0), (0, 0, 1), (1, 0, -2))
TNC_RAYS = ((0, 1, 0), (0, 0, 1), (1, 0, -2), (1, 1, 1), (1, 0, 0))
OCTANT_CONE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
OCTANT_RAYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
# four-dimensional simplex cone with four interior rays (8 rays in all)
Q4_CONE = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
Q4_RAYS = Q4_CONE + ((1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1))
Q4_COEFFS = ("0", "0", "0", "0", "-2", "-2", "-3", "-3")
DATA = {
    "tnc": (TNC_CONE, TNC_RAYS),
    "octant": (OCTANT_CONE, OCTANT_RAYS),
    "q4": (Q4_CONE, Q4_RAYS),
}

TNC_T = ("1/2", "1", "3/2", "2")
# largest sizes whose values are pinned (t = 1 has a closed form instead)
H1_PINNED_MAX = {"1/2": 60, "3/2": 60, "2": 40, "q4": 10}
FUJITA_PINNED_MAX = {"1/2": 10, "3/2": 8, "2": 6}
MIXED3_GENS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1))
MIXED3_PINNED_MAX = 12


def tnc_coeffs(t) -> tuple[str, ...]:
    return ("0", "0", "2", str(-F(t)), "0")


def h1_coeffs(op) -> tuple[str, ...]:
    return Q4_COEFFS if op["family"] == "q4" else tnc_coeffs(op["t"])


# -- CLI fixtures ------------------------------------------------------------

# (subcommand, fixture, size options the benchmark writes into its copy)
CLI_PAIRS = (
    ("toric-volume", "tnc.json", None),
    ("toric-h1", "tnc.json", {"m_max": 20}),
    ("monomial-mult", "mon_x3xy3.json", {"p_max": 40}),
    ("surface-volume", "a1.json", None),
    ("surface-volume", "quartic_cone.json", None),
    ("cone-volume", "abelian_cover.json", None),
    ("cone-gamma", "pspace.json", None),
    ("bdff-volume", "p1xC.json", None),
    ("bdff-volume", "abelian_cover.json", None),
    ("lambda-seq", "pspace.json", {"m_max": 10}),
    ("fujita-check", "tnc_fujita.json", {"p_max": 8}),
    ("convexity-check", "tnc_convexity.json", None),
)


def cli_problem(fixture, options):
    """The fixture with its sizes written into the file's own options."""
    problem = json.loads((FIXTURES / fixture).read_text())
    if options:
        problem["options"] = dict(options)
    return problem


def write_cli_inputs(workdir: Path):
    """Write one sized problem file per pair; return the ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (sub, fixture, options) in enumerate(CLI_PAIRS):
        problem = cli_problem(fixture, options)
        path = workdir / f"{i:02d}_{sub}_{fixture}"
        path.write_text(json.dumps(problem, sort_keys=True))
        ops.append({"kind": "cli", "sub": sub, "fixture": fixture,
                    "path": str(path), "problem": problem})
    return ops


# -- round generators ----------------------------------------------------------

# Slots have fixed sizes: three cheap, three mid-cost and three costly, so
# the median op sits inside the mid-cost cluster.  The seed varies what
# does not change the cost: the order of the round, and the signs of the
# coordinates (a unimodular map, so every count and volume is unchanged and
# the box the scan covers is only reflected).  Permuting the coordinates
# would be unimodular too, but it reorders the double-description and
# simplex steps and moves the cost of a Fujita op by up to a half.
H1_SLOTS = (
    ("tnc", "1", 10), ("tnc", "3/2", 12), ("q4", None, 4),
    ("tnc", "1", 20), ("tnc", "2", 16), ("q4", None, 7),
    ("tnc", "1/2", 58), ("tnc", "3/2", 36), ("tnc", "2", 24),
)
FUJITA_SLOTS = (("1", 5), ("1", 7), ("1/2", 10), ("3/2", 6), ("2", 4))
# (x^4, x^b y^c) staircases with their powers' sizes
STAIR2_SLOTS = ((((4, 0), (1, 3)), 30), (((4, 0), (3, 4)), 46))
MIXED3_P = 10
AXES3_P = 8


def _frame(rng, dim):
    """Random signs of the coordinates, as (index, sign) pairs."""
    return [(i, rng.choice((1, -1))) for i in range(dim)]


def _swapped(rng, gens):
    """The staircase with x and y exchanged, on a coin flip."""
    return tuple(g[::-1] for g in gens) if rng.random() < 0.5 else gens


def _stair2(rng):
    return ((4, 0), (rng.randint(1, 3), rng.randint(2, 4)))


def _axes3(rng):
    # (x^u, y^v, z^w) with largest exponent 3: the box is 3p on every seed
    exps = [3, rng.randint(1, 3), rng.randint(1, 3)]
    rng.shuffle(exps)
    return tuple(tuple(e if j == i else 0 for j in range(3))
                 for i, e in enumerate(exps))


def _round_toric_h1(rng, pinned):
    return [{"kind": "h1", "family": fam, "t": t, "m_max": m,
             "frame": _frame(rng, 4 if fam == "q4" else 3)}
            for fam, t, m in H1_SLOTS]


def _round_saturation_seq(rng, pinned):
    ops = [{"kind": "fujita", "t": t, "p_max": p, "frame": _frame(rng, 3)}
           for t, p in FUJITA_SLOTS]
    for gens, p in STAIR2_SLOTS:
        ops.append({"kind": "mult_seq", "family": "stair2",
                    "gens": _swapped(rng, gens), "p_max": p})
    ops.append({"kind": "mult_seq", "family": "mixed3", "gens": MIXED3_GENS,
                "p_max": MIXED3_P})
    ops.append({"kind": "mult_seq", "family": "axes3", "gens": _axes3(rng),
                "p_max": AXES3_P})
    return ops


def _chain(rng):
    n = rng.randint(2, 12)
    return ([(-rng.randint(2, 5), 0) for _ in range(n)],
            [(i, i + 1, 1) for i in range(n - 1)])


def _relabelled(rng, vertices, edges):
    perm = list(range(len(vertices)))
    rng.shuffle(perm)
    inv = {old: new for new, old in enumerate(perm)}
    return ([vertices[old] for old in perm],
            [(inv[i], inv[j], m) for i, j, m in edges])


def _cbrt_triple(rng):
    """Either a toric midpoint check on the tnc family or random rationals."""
    if rng.random() < 0.5:
        ta, tb = rng.sample(["1/4", "1/2", "3/4", "1", "3/2"], 2)
        mid = str((F(ta) + F(tb)) / 2)
        return {"kind": "cbrt", "family": "tnc_mid", "t": [ta, tb, mid]}
    x, y, z = (str(F(rng.randint(1, 400), rng.randint(1, 30))) for _ in range(3))
    return {"kind": "cbrt", "family": "random", "xyz": [x, y, z]}


def _round_exact_invariants(rng, pinned):
    ops = []
    for _ in range(3):
        verts, edges = _chain(rng)
        ops.append({"kind": "singvol", "family": "chain", "vertices": verts,
                    "edges": edges})
    stars = pinned["stars"]
    for _ in range(3):
        ref = rng.randrange(len(stars))
        verts, edges = _relabelled(rng, stars[ref]["vertices"], stars[ref]["edges"])
        ops.append({"kind": "singvol", "family": "star", "ref": ref,
                    "vertices": verts, "edges": edges})
    for _ in range(2):
        ops.append({"kind": "singvol", "family": "one_vertex",
                    "vertices": [(-rng.randint(1, 8), rng.randint(1, 6))],
                    "edges": []})
    models = [
        {"type": "curve", "genus": rng.randint(0, 6), "degree": rng.randint(1, 8)},
        {"type": "proj_space", "dim": rng.randint(1, 4), "h": rng.randint(1, 8)},
        {"type": "abelian_cover", "ref": rng.randrange(len(pinned["abelian"]))},
        {"type": "lattice", "ref": rng.randrange(len(pinned["lattice"]))},
    ]
    for model in models:
        for fn in ("volume", "gamma", "bdff"):
            ops.append({"kind": "cone", "fn": fn, "model": model})
    toric = pinned["toric"]
    for _ in range(3):
        ref = rng.randrange(len(toric))
        scale = rng.choice(["1", "2", "3", "1/2", "2/3"])
        ops.append({"kind": "toric_volume", "ref": ref, "scale": scale,
                    "datum": toric[ref]["datum"], "frame": _frame(rng, 3),
                    "coeffs": [str(F(c) * F(scale)) for c in toric[ref]["coeffs"]]})
    for _ in range(3):
        ops.append(_cbrt_triple(rng))
    ops.append({"kind": "asym_mult", "family": "stair2",
                "gens": _swapped(rng, _stair2(rng))})
    ops.append({"kind": "asym_mult", "family": "axes3", "gens": _axes3(rng)})
    ops.append({"kind": "asym_mult", "family": "mixed3", "gens": MIXED3_GENS})
    return ops


ROUND_BUILDERS = {
    "toric_h1": _round_toric_h1,
    "saturation_seq": _round_saturation_seq,
    "exact_invariants": _round_exact_invariants,
}


def load_pinned():
    return json.loads(PINNED_PATH.read_text())


def round_ops(workload, seed, index, pinned, cli_ops=None):
    """The ops of round `index`, in seeded order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "cli_fixtures":
        ops = list(cli_ops)
    else:
        ops = ROUND_BUILDERS[workload](rng, pinned)
    rng.shuffle(ops)
    return ops


# A fixed, cheap op per workload, run untimed before the first timed op.
WARMUP = {
    "toric_h1": {"kind": "h1", "family": "tnc", "t": "1", "m_max": 8},
    "saturation_seq": {"kind": "fujita", "t": "1", "p_max": 2},
    "exact_invariants": {"kind": "singvol", "family": "one_vertex",
                         "vertices": [(-4, 3)], "edges": []},
}


# -- running one in-process op ---------------------------------------------------

def _divisor(datum_name, coeffs, frame=None):
    from locvol.toric import PointedCone, ToricDatum, ToricDivisor

    cone, rays = DATA[datum_name]
    if frame is not None:
        def move(v):
            return tuple(sign * v[i] for i, sign in frame)
        cone, rays = [move(g) for g in cone], [move(r) for r in rays]
    datum = ToricDatum(PointedCone(cone), rays)
    return ToricDivisor(datum, tuple(F(c) for c in coeffs))


def _model(spec, pinned):
    from locvol.cone import AbelianCover, Curve, LatticeModel, ProjSpace
    from locvol.surface import SurfaceLattice

    kind = spec["type"]
    if kind == "curve":
        return Curve(spec["genus"], spec["degree"])
    if kind == "proj_space":
        return ProjSpace(spec["dim"], spec["h"])
    if kind == "abelian_cover":
        return AbelianCover(*pinned["abelian"][spec["ref"]]["data"])
    m = pinned["lattice"][spec["ref"]]["model"]
    lattice = SurfaceLattice(m["gram"], m["canonical"], m["ample"],
                             negative_curves=m["negative_curves"],
                             psef_generators=m["psef_generators"])
    return LatticeModel(lattice, m["k"], m["h"],
                        envelope_nef_certified=m["envelope_nef_certified"])


def execute(op, pinned):
    """Build the op's objects from plain data and make the one library call."""
    kind = op["kind"]
    if kind == "h1":
        from locvol.toric import h1_sequence

        datum = "q4" if op["family"] == "q4" else "tnc"
        return h1_sequence(_divisor(datum, h1_coeffs(op), op.get("frame")),
                           op["m_max"])
    if kind == "fujita":
        from locvol.toric import fujita_sequence

        return fujita_sequence(_divisor("tnc", tnc_coeffs(op["t"]), op.get("frame")),
                               op["p_max"])
    if kind == "mult_seq":
        from locvol.monomial import MonomialIdeal, multiplicity_sequence

        return multiplicity_sequence(MonomialIdeal(op["gens"]), op["p_max"])
    if kind == "asym_mult":
        from locvol.monomial import MonomialIdeal, asymptotic_multiplicity

        return asymptotic_multiplicity(MonomialIdeal(op["gens"]))
    if kind == "singvol":
        from locvol.surface import DualGraph, singularity_volume

        return singularity_volume(DualGraph(op["vertices"], op["edges"]))
    if kind == "cone":
        from locvol import cone

        fn = {"volume": cone.cone_singularity_volume,
              "gamma": cone.cone_gamma_volume,
              "bdff": cone.bdff_cone_volume}[op["fn"]]
        return fn(_model(op["model"], pinned))
    if kind == "toric_volume":
        from locvol.toric import local_volume_toric

        return local_volume_toric(_divisor(op["datum"], op["coeffs"], op.get("frame")))
    if kind == "cbrt":
        from locvol.exactnum import compare_cbrt_sum

        return compare_cbrt_sum(*cbrt_inputs(op, pinned))
    raise ValueError(f"unknown op kind {kind!r}")


def cbrt_inputs(op, pinned):
    """(x, y, z) of a cube-root comparison: x^(1/3) + y^(1/3) vs z^(1/3)."""
    if op["family"] == "random":
        return tuple(F(v) for v in op["xyz"])
    vol = {e["coeffs"][3]: F(e["value"]) for e in pinned["toric"]
           if e["datum"] == "tnc" and e["family"] == "tnc"}
    ta, tb, mid = (vol[str(-F(t))] for t in op["t"])
    return ta, tb, 8 * mid
