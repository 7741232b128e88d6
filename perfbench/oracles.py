"""Exact expected outputs for every op, each from the strongest reference.

Sources, strongest first:

* paper and README values: 79/24 (tnc volume), 6 (x^3, xy^3), 4 (quartic
  cone), 0 (A1), 1/4 (gamma of P^2 with O(4)), -9+5*sqrt(5) and
  36+16*sqrt(5) (abelian double cover), 16 (nef envelope of P^1 x C), the
  certified non-convexity of the tnc midpoint check, the true verdicts of
  fujita-check and bdff-volume on p1xC, and the zero lambda sequence of P^2;
* closed forms: tnc t = 1 lattice counts C(m+2, 3) and Fujita
  multiplicities p^3; tnc volumes t^3 for t <= 1; (2g-2)^2/d for one-vertex
  graphs and curve cones; 0 for chains of rational curves (cyclic quotient
  singularities are log terminal); gamma max(0, h-n-1)^(n+1)/h of
  projective space, which is 1/(n+1) for ProjSpace(n-1, n+1); colengths of
  powers of the staircases (x^a, x^b y^c) and (x^u, y^v, z^w);
* cross-route identities: tnc volumes are homogeneous (vol(sD) =
  s^3 vol(D)); lattice counts, multiplicities and volumes do not change
  when coordinates change sign, nor graph volumes under relabelling; a cube-root comparison is re-decided by an independent
  integer-root enclosure here;
* everything else: values pinned at this commit in pinned.json (pin.py),
  whose lattice counts test_perfbench.py re-derives by brute force.

No function here calls locvol: expected values never come from the code
under test.
"""

from __future__ import annotations

import json
from decimal import Context, Decimal
from fractions import Fraction as F
from math import comb, factorial

from problems import cbrt_inputs, h1_coeffs, tnc_coeffs

PAPER = {
    "tnc_volume": F(79, 24),
    "x3_xy3": F(6),
    "quartic_cone": F(4),
    "a1": F(0),
    "pspace_gamma": F(1, 4),
    "abelian_volume": {"a": "-9", "b": "5", "c": 5},
    "abelian_bdff": {"a": "36", "b": "16", "c": 5},
    "p1xc_bdff": F(16),
}


class Mismatch(Exception):
    """An op's output differs from its reference."""


# -- exact values in one canonical form -------------------------------------

def canon(value):
    """A Fraction, an int or a locvol QuadraticNumber as comparable data."""
    if hasattr(value, "is_rational"):
        if not value.is_rational:
            return {"a": str(value.a), "b": str(value.b), "c": value.c}
        value = value.as_fraction()
    return str(F(value))


def _pinned_exact(value):
    return value if isinstance(value, dict) else str(F(value))


# -- independent references -------------------------------------------------------

def icbrt(n: int) -> int:
    """floor(n ** (1/3)) for an integer n >= 0, by integer Newton steps."""
    if n < 0:
        raise ValueError("negative radicand")
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x ** 3 > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def _rational_cbrt(q: F):
    """The rational cube root of q >= 0, or None if q is not a cube."""
    p, d = icbrt(q.numerator), icbrt(q.denominator)
    return F(p, d) if p ** 3 == q.numerator and d ** 3 == q.denominator else None


def cbrt_sum_sign(x, y, z) -> int:
    """Sign of x^(1/3) + y^(1/3) - z^(1/3) for rationals x, y, z > 0.

    A tie u + v = w forces u/w and v/w to be rational (a real cube root of a
    non-cube has degree 3, but u/w would satisfy a rational quadratic), so
    ties are found exactly; otherwise integer-root enclosures of shrinking
    width separate the two sides.
    """
    x, y, z = F(x), F(y), F(z)
    a, b = _rational_cbrt(x / z), _rational_cbrt(y / z)
    if a is not None and b is not None and a + b == 1:
        return 0
    scale = 10 ** 6
    while True:
        lo, hi = [], []
        for q in (x, y, z):
            # q^(1/3) = (num * den^2)^(1/3) / den
            r = icbrt(q.numerator * q.denominator ** 2 * scale ** 3)
            lo.append(F(r, q.denominator * scale))
            hi.append(F(r + 1, q.denominator * scale))
        if lo[0] + lo[1] > hi[2]:
            return 1
        if hi[0] + hi[1] < lo[2]:
            return -1
        scale *= 1000


def decimal_rendering(exact) -> str:
    """12-significant-digit rendering of an exact value, via Decimal."""
    ctx = Context(prec=60)
    if isinstance(exact, dict):
        a, b = F(exact["a"]), F(exact["b"])
        value = ctx.add(ctx.divide(a.numerator, a.denominator),
                        ctx.multiply(ctx.divide(b.numerator, b.denominator),
                                     ctx.sqrt(Decimal(exact["c"]))))
    else:
        q = F(exact)
        value = ctx.divide(Decimal(q.numerator), Decimal(q.denominator))
    return str(Context(prec=12).plus(value))


# -- expected results per op --------------------------------------------------------

def _valid_levels(coeffs, top):
    return [m for m in range(1, top + 1)
            if all((m * F(c)).denominator == 1 for c in coeffs)]


def _from_pinned(table, key, level):
    try:
        return table[key][str(level)]
    except KeyError:
        raise Mismatch(f"no reference for {key!r} at level {level}") from None


def h1_rows(op, pinned, coeffs):
    n = 4 if op["family"] == "q4" else 3
    key = "q4" if op["family"] == "q4" else op["t"]
    rows = []
    for m in _valid_levels(coeffs, op["m_max"]):
        if key == "1":
            count = comb(m + 2, 3)  # lattice points of the unit-volume family
        else:
            count = _from_pinned(pinned["h1"], key, m)
        rows.append((m, count, F(factorial(n) * count, m ** n)))
    return rows


def fujita_rows(op, pinned, coeffs):
    rows = []
    for p in _valid_levels(coeffs, op["p_max"]):
        if op["t"] == "1":
            mult = F(p ** 3)
        else:
            mult = F(_from_pinned(pinned["fujita"], op["t"], p))
        rows.append((p, mult, mult / p ** 3))
    return rows


def _stair2(gens):
    """(a, b, c) of the staircase (x^a, x^b y^c), in either orientation."""
    g0, g1 = gens
    if g0[1] != 0:  # x and y exchanged
        g0, g1 = g0[::-1], g1[::-1]
    return g0[0], g1[0], g1[1]


def colength(family, gens, p, pinned) -> int:
    """Length of saturation/ideal for the p-th power of a catalogue ideal."""
    if family == "stair2":
        # (x^a, x^b y^c)^p = x^(bp) (x^(a-b), y^c)^p, saturated to (x^(bp))
        a, b, c = _stair2(gens)
        return (a - b) * c * p * (p + 1) // 2
    if family == "axes3":
        u, v, w = gens[0][0], gens[1][1], gens[2][2]
        return u * v * w * comb(p + 2, 3)
    return _from_pinned(pinned["mixed3"], "h1", p)


def asymptotic(family, gens, pinned) -> F:
    if family == "stair2":
        a, b, c = _stair2(gens)
        return F((a - b) * c)
    if family == "axes3":
        return F(gens[0][0] * gens[1][1] * gens[2][2])
    return F(pinned["mixed3"]["asymptotic"])


def mult_rows(op, pinned):
    n = len(op["gens"][0])
    rows = []
    for p in range(1, op["p_max"] + 1):
        h = colength(op["family"], op["gens"], p, pinned)
        rows.append((p, h, F(factorial(n) * h, p ** n)))
    return rows


def one_vertex_volume(self_int, genus) -> F:
    return F((2 * genus - 2) ** 2, -self_int) if genus >= 1 else F(0)


def cone_value(op, pinned):
    spec, fn = op["model"], op["fn"]
    kind = spec["type"]
    if kind == "curve":
        g, d = spec["genus"], spec["degree"]
        if fn == "gamma":
            deg = 2 * g - 2 + d
            return str(F(deg * deg, d) if deg > 0 else F(0))
        return str(one_vertex_volume(-d, g))  # volume and nef envelope agree
    if kind == "proj_space":
        n, h = spec["dim"], spec["h"]
        if fn != "gamma":
            return "0"  # not of general type; anticanonical threshold < 0
        return str(F(max(0, h - n - 1) ** (n + 1), h))
    table = "abelian" if kind == "abelian_cover" else "lattice"
    return _pinned_exact(pinned[table][spec["ref"]]["values"][fn])


def expected(op, pinned):
    """The exact result the library call of an in-process op must return."""
    kind = op["kind"]
    if kind == "h1":
        return h1_rows(op, pinned, h1_coeffs(op))
    if kind == "fujita":
        return fujita_rows(op, pinned, tnc_coeffs(op["t"]))
    if kind == "mult_seq":
        return mult_rows(op, pinned)
    if kind == "asym_mult":
        return str(asymptotic(op["family"], op["gens"], pinned))
    if kind == "singvol":
        if op["family"] == "chain":
            return "0"
        if op["family"] == "one_vertex":
            return str(one_vertex_volume(*op["vertices"][0]))
        return pinned["stars"][op["ref"]]["value"]
    if kind == "cone":
        return cone_value(op, pinned)
    if kind == "toric_volume":
        base = F(pinned["toric"][op["ref"]]["value"])
        return str(F(op["scale"]) ** 3 * base)
    if kind == "cbrt":
        return cbrt_sum_sign(*cbrt_inputs(op, pinned))
    raise Mismatch(f"no oracle for op kind {kind!r}")


def _check_rows(op, result, want):
    size = "m_max" if op["kind"] == "h1" else "p_max"
    got = [tuple(row) for row in result]
    if len(got) != len(want):
        raise Mismatch(f"{len(got)} rows, expected {len(want)} for {size}="
                       f"{op[size]}")
    if got and got[-1][0] != want[-1][0]:
        raise Mismatch(f"last index {got[-1][0]}, expected {want[-1][0]}")
    for g, w in zip(got, want):
        if g != w or type(g[1]) is not type(w[1]):
            raise Mismatch(f"row {g!r}, expected {w!r}")


def check(op, result, pinned):
    """Raise Mismatch unless `result` is exactly the op's expected output."""
    want = expected(op, pinned)
    if isinstance(want, list):
        _check_rows(op, result, want)
    elif op["kind"] == "cbrt":
        if result != want or type(result) is not int:
            raise Mismatch(f"sign {result!r}, expected {want}")
    elif canon(result) != want:
        raise Mismatch(f"value {canon(result)!r}, expected {want!r}")


# -- CLI records -------------------------------------------------------------------

def _frac(q) -> str:
    q = F(q)
    return f"{q.numerator}/{q.denominator}"


def _exact_json(value):
    if isinstance(value, dict):
        return {"quadratic": {"a": _frac(value["a"]), "b": _frac(value["b"]),
                              "c": value["c"]}}
    return {"rational": _frac(value)}


def cli_record(op, pinned):
    """The record `locvol <sub> <file>` must print for a fixture op."""
    sub, problem = op["sub"], op["problem"]
    opts = problem.get("options", {})
    rec = {"input": problem}
    seq = verdict = None
    if sub == "toric-volume":
        value, prov = PAPER["tnc_volume"], "toric.local_volume"
    elif sub == "toric-h1":
        value, prov = PAPER["tnc_volume"], "toric.h1_sequence"
        h1 = {"kind": "h1", "family": "tnc", "t": "3/2", "m_max": opts["m_max"]}
        seq = (["m", "count", "normalized"],
               [[m, c, _frac(n)] for m, c, n in h1_rows(h1, pinned, h1_coeffs(h1))])
    elif sub == "monomial-mult":
        value, prov = PAPER["x3_xy3"], "monomial.asymptotic_multiplicity"
        ideal = {"family": "stair2", "gens": problem["payload"]["generators"],
                 "p_max": opts["p_max"]}
        seq = (["p", "mult", "normalized"],
               [[p, h, _frac(n)] for p, h, n in mult_rows(ideal, pinned)])
    elif sub == "surface-volume":
        value = PAPER["a1"] if op["fixture"] == "a1.json" else PAPER["quartic_cone"]
        prov = "surface.singularity_volume"
    elif sub == "cone-volume":
        value, prov = PAPER["abelian_volume"], "cone.singularity_volume"
    elif sub == "cone-gamma":
        value, prov = PAPER["pspace_gamma"], "cone.gamma_volume"
    elif sub == "bdff-volume" and op["fixture"] == "p1xC.json":
        value, prov = PAPER["p1xc_bdff"], "cone.nef_envelope_volume"
        seq = (["quantity", "value"],
               [["nef_envelope_volume", "16/1"], ["singularity_volume", "0/1"]])
        verdict = True
    elif sub == "bdff-volume":
        value, prov = PAPER["abelian_bdff"], "cone.nef_envelope_volume"
    elif sub == "lambda-seq":
        value, prov = F(0), "cone.lambda_sequence"
        seq = (["m", "lambda", "normalized"],
               [[m, 0, "0/1"] for m in range(1, opts["m_max"] + 1)])
    elif sub == "fujita-check":
        value, prov = F(1), "toric.fujita_sequence"
        seq = (["p", "mult", "normalized"],
               [[p, _frac(p ** 3), "1/1"] for p in range(1, opts["p_max"] + 1)])
        verdict = True
    elif sub == "convexity-check":
        # vol(t) = t^3 for t <= 1, and 79/24 at t = 3/2; the midpoint fails
        value, prov = F(1), "toric.log_convexity_check"
        seq = (["quantity", "value"],
               [["vol_a", "1/8"], ["vol_b", "79/24"], ["vol_mid", "1/1"]])
        verdict = False
    else:
        raise Mismatch(f"no oracle for subcommand {sub!r}")
    rec["exact_value"] = _exact_json(value)
    rec["float_value"] = decimal_rendering(value)
    rec["provenance"] = prov
    if seq:
        rec["sequences"] = {"header": seq[0], "rows": seq[1]}
    if verdict is not None:
        rec["verdict"] = verdict
    return rec


def check_cli(op, code, stdout: bytes, pinned, validator):
    """Raise Mismatch unless the CLI exited 0 with exactly the expected record."""
    if code != 0:
        raise Mismatch(f"exit code {code}: {stdout[:200]!r}")
    text = stdout.decode("utf-8")
    if not text.endswith("\n") or text.count("\n") != 1:
        raise Mismatch("stdout is not one JSON line")
    record = json.loads(text)
    errors = sorted(validator.iter_errors(record), key=str)
    if errors:
        raise Mismatch(f"record fails result.schema.json: {errors[0].message}")
    want = cli_record(op, pinned)
    if record != want:
        diff = sorted(k for k in set(record) | set(want)
                      if record.get(k) != want.get(k))
        raise Mismatch(f"record differs in {diff}")
    canonical = json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n"
    if text != canonical:
        raise Mismatch("record is not in canonical serialisation")
