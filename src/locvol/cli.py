"""Batch command-line interface.

One problem per JSON file; the subcommand picks the operation, the file's
`kind` must match.  A run validates the file against the problem schema,
builds the payload's objects with its kind's one builder (`_BUILDERS`),
computes, and emits a single deterministic JSON record (or CSV for sequence
tables) on standard output: exact values always accompany the 12-digit
decimal rendering, which is presentation-only.
Exit codes: 0 success; 2 invalid input, which is a file that fails the
schema or a payload whose objects raise ValueError while being built;
3 computational failure, which is any LocvolError, one raised while
building included, or a ValueError raised after building.
"""

from __future__ import annotations

import argparse
import functools
import json
import pkgutil
import re
import sys
import time
from fractions import Fraction

# every record renders through exactnum; the kernel layers are imported by
# the builders and runners that use them, so a call loads only its family
from . import LocvolError, __version__
from .exactnum import QuadraticNumber, compare_cbrt_sum, format_decimal

SUBCOMMANDS = {  # the problem kinds each subcommand accepts
    "toric-volume": ("toric",),
    "toric-h1": ("toric",),
    "monomial-mult": ("monomial",),
    "surface-volume": ("surface",),
    "cone-volume": ("cone",),
    "cone-gamma": ("cone",),
    "bdff-volume": ("cone", "tcomp"),
    "lambda-seq": ("cone",),
    "fujita-check": ("fujita",),
    "convexity-check": ("logconvexity",),
}


SEQUENCE_LIMIT = 10 ** 5  # levels one --m-max/--p-max sequence may have


class ValidationFailure(Exception):
    pass


class SequenceBudget(LocvolError):
    """A sequence would have more than SEQUENCE_LIMIT levels."""


# -- problem-file validation --------------------------------------------------
#
# An in-tree validator for exactly the JSON Schema keywords that
# problem.schema.json uses, with jsonschema's messages; loading a schema
# that uses any other keyword raises SchemaError, so an edit to the schema
# cannot silently skip a check.

class SchemaError(Exception):
    """A schema uses a keyword, or a form of one, that the validator lacks."""


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    # JSON integer literals only: 3.0 loads as a float, which the exact
    # kernels cannot take, although JSON Schema counts it as an integer
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
}
_ANNOTATIONS = {"$schema", "$id", "title"}
_SUBSCHEMA = {"items", "if", "then"}
_SUBSCHEMA_LISTS = {"allOf", "oneOf"}
_SUBSCHEMA_MAPS = {"properties", "$defs"}
_KEYWORDS = _ANNOTATIONS | _SUBSCHEMA | _SUBSCHEMA_LISTS | _SUBSCHEMA_MAPS | {
    "type", "required", "additionalProperties", "$ref", "minItems", "minimum",
    "maximum", "const", "enum", "pattern"}


class ProblemSchema:
    """A JSON Schema restricted to the keywords in _KEYWORDS."""

    def __init__(self, schema):
        self.defs = schema.get("$defs", {})
        self.root = schema
        self._check(schema)

    def _check(self, schema):
        if not isinstance(schema, dict):
            raise SchemaError(f"a subschema must be an object, got {schema!r}")
        unknown = sorted(set(schema) - _KEYWORDS)
        if unknown:
            raise SchemaError(f"unsupported schema keywords {unknown}")
        types = schema.get("type", [])
        for name in [types] if isinstance(types, str) else types:
            if name not in _TYPES:
                raise SchemaError(f"unsupported type {name!r}")
        if schema.get("additionalProperties", False) is not False:
            raise SchemaError("additionalProperties must be false")
        ref = schema.get("$ref")
        if ref is not None and (not ref.startswith("#/$defs/") or ref[8:] not in self.defs):
            raise SchemaError(f"unresolvable $ref {ref!r}")
        # Python equality is JSON equality on strings, not on 1 and true
        values = list(schema.get("enum", ()))
        if "const" in schema:
            values.append(schema["const"])
        if not all(isinstance(v, str) for v in values):
            raise SchemaError("enum and const values must be strings")
        subs = [schema[k] for k in _SUBSCHEMA if k in schema]
        for key in _SUBSCHEMA_LISTS:
            subs += schema.get(key, [])
        for key in _SUBSCHEMA_MAPS:
            subs += schema.get(key, {}).values()
        for sub in subs:
            self._check(sub)

    def errors(self, x, schema=None):
        """Yield a message for each way x fails the schema."""
        s = self.root if schema is None else schema
        if "$ref" in s:
            yield from self.errors(x, self.defs[s["$ref"][8:]])
        if "type" in s:
            types = [s["type"]] if isinstance(s["type"], str) else s["type"]
            if not any(_TYPES[name](x) for name in types):
                yield f"{x!r} is not of type {', '.join(map(repr, types))}"
        if "enum" in s and x not in s["enum"]:
            yield f"{x!r} is not one of {s['enum']!r}"
        if "const" in s and x != s["const"]:
            yield f"{s['const']!r} was expected"
        if "pattern" in s and isinstance(x, str) and not re.search(s["pattern"], x):
            yield f"{x!r} does not match {s['pattern']!r}"
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            if "minimum" in s and x < s["minimum"]:
                yield f"{x!r} is less than the minimum of {s['minimum']!r}"
            if "maximum" in s and x > s["maximum"]:
                yield f"{x!r} is greater than the maximum of {s['maximum']!r}"
        if isinstance(x, list):
            if len(x) < s.get("minItems", 0):
                short = "should be non-empty" if s["minItems"] == 1 else "is too short"
                yield f"{x!r} {short}"
            for item in x if "items" in s else ():
                yield from self.errors(item, s["items"])
        if isinstance(x, dict):
            for name in s.get("required", ()):
                if name not in x:
                    yield f"{name!r} is a required property"
            props = s.get("properties", {})
            for name, sub in props.items():
                if name in x:
                    yield from self.errors(x[name], sub)
            extras = sorted((k for k in x if k not in props), key=str)
            if "additionalProperties" in s and extras:
                verb = "was" if len(extras) == 1 else "were"
                yield (f"Additional properties are not allowed "
                       f"({', '.join(map(repr, extras))} {verb} unexpected)")
        if "if" in s and "then" in s and self.is_valid(x, s["if"]):
            yield from self.errors(x, s["then"])
        for sub in s.get("allOf", ()):
            yield from self.errors(x, sub)
        if "oneOf" in s:
            valid = [sub for sub in s["oneOf"] if self.is_valid(x, sub)]
            if not valid:
                yield f"{x!r} is not valid under any of the given schemas"
            elif len(valid) > 1:
                reprs = ", ".join(map(repr, valid[1:] + valid[:1]))
                yield f"{x!r} is valid under each of {reprs}"

    def is_valid(self, x, schema=None):
        return next(self.errors(x, schema), None) is None


@functools.cache
def _problem_schema() -> ProblemSchema:
    # pkgutil rather than importlib.resources, which loads about twice the modules
    return ProblemSchema(json.loads(pkgutil.get_data("locvol", "schemas/problem.schema.json")))


def _validate(problem):
    # of several errors, the least message, so the report is deterministic
    message = min(_problem_schema().errors(problem), default=None)
    if message is not None:
        raise ValidationFailure(message)


def _fraction(value) -> Fraction:
    # the schema's rational is an int or a string like "-3/2", and "1/0" matches it
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {value!r}: {exc}") from exc


def _render_exact(value):
    """A rational, or a quadratic irrational as cone invariants return it."""
    if isinstance(value, QuadraticNumber):
        return {"quadratic": {"a": _frac_str(value.a), "b": _frac_str(value.b),
                              "c": value.c}}
    return {"rational": _frac_str(Fraction(value))}


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _exact_text(exact):
    """A CSV value: p/q, or a+b*sqrt(c) for a quadratic irrational."""
    if "rational" in exact:
        return exact["rational"]
    q = exact["quadratic"]
    return f"{q['a']}+{q['b']}*sqrt({q['c']})"


def _cell(value):
    """A sequence-table cell, written as CSV writes the exact value."""
    return _exact_text(_render_exact(value))


def _record(problem, value, provenance, header=None, rows=None, verdict=None):
    rec = {
        "input": problem,
        "exact_value": _render_exact(value),
        "float_value": format_decimal(value),
        "provenance": provenance,
    }
    if header is not None:
        rec["sequences"] = {"header": header, "rows": rows}
    if verdict is not None:
        rec["verdict"] = verdict
    return rec


# -- building objects ---------------------------------------------------------
#
# One builder per payload shape, keyed in _BUILDERS by problem kind as the
# schema's allOf keys the payload definitions.

def _divisors(payload, *keys):
    from .toric import PointedCone, ToricDatum, ToricDivisor

    datum = ToricDatum(PointedCone(payload["cone"]["generators"]), payload["rays"])
    return [ToricDivisor(datum, [_fraction(c) for c in payload[key]]) for key in keys]


def _divisor(payload):
    return _divisors(payload, "coeffs")[0]


def _divisor_pair(payload):
    pair = _divisors(payload, "coeffs_a", "coeffs_b")
    if pair[0].datum.dim != 3:
        raise ValueError("convexity certification is implemented for "
                         "three-dimensional cones")
    return pair


def _ideal(payload):
    from .monomial import MonomialIdeal
    from .toric import PointedCone

    ambient = None
    if "ambient_cone" in payload:
        ambient = PointedCone(payload["ambient_cone"]["generators"])
    return MonomialIdeal(payload["generators"], ambient=ambient)


def _graph(payload):
    """The dual graph, and the divisor on it or None."""
    from .surface import DualGraph

    verts = [(v["self_int"], v.get("genus", 0)) for v in payload["vertices"]]
    edges = [(e["i"], e["j"], e.get("multiplicity", 1))
             for e in payload.get("edges", [])]
    graph = DualGraph(verts, edges)
    if "divisor" not in payload:
        return graph, None
    d = [_fraction(x) for x in payload["divisor"]]
    if len(d) != graph.rank:
        raise ValueError("divisor length must match the vertex count")
    return graph, d


def _model(payload):
    from .cone import AbelianCover, Curve, LatticeModel, ProjSpace
    from .surface import SurfaceLattice

    model = payload["model"]
    kind = model["type"]
    if kind == "curve":
        return Curve(model["genus"], model["degree"],
                     model.get("general_position", False))
    if kind == "proj_space":
        return ProjSpace(model["dim"], model["h"])
    if kind == "abelian_cover":
        return AbelianCover(model["base_sq"], model["mixed"], model["pol_sq"])
    # the schema's oneOf leaves "lattice" as the only other type
    lattice = SurfaceLattice(
        model["gram"], model["canonical"], model["ample"],
        negative_curves=model.get("negative_curves", ()),
        psef_generators=model.get("psef_generators", ()),
    )
    k = model.get("k", model["canonical"])
    return LatticeModel(
        lattice,
        [_fraction(x) for x in k],
        [_fraction(x) for x in model["h"]],
        envelope_nef_certified=model.get("envelope_nef_certified", False),
    )


_BUILDERS = {
    "toric": _divisor, "fujita": _divisor,
    "logconvexity": _divisor_pair,
    "monomial": _ideal,
    "surface": _graph,
    "cone": _model, "tcomp": _model,
}


def _objects(problem):
    """The objects a problem's payload describes.  A ValueError raised while
    building them is invalid input (exit 2); a LocvolError keeps exit 3."""
    try:
        return _BUILDERS[problem["kind"]](problem["payload"])
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc


# -- subcommand implementations -----------------------------------------------

def _run_toric_volume(problem, opts):
    from .toric import local_volume_toric

    return _record(problem, local_volume_toric(_objects(problem)), "toric.local_volume")


def _run_toric_h1(problem, opts):
    from .toric import h1_sequence, local_volume_toric

    d = _objects(problem)
    seq = h1_sequence(d, opts["m_max"])
    return _record(problem, local_volume_toric(d), "toric.h1_sequence",
                   ["m", "count", "normalized"], [[m, c, _cell(norm)] for m, c, norm in seq])


def _run_monomial_mult(problem, opts):
    from .monomial import asymptotic_multiplicity, multiplicity_sequence

    ideal = _objects(problem)
    value = asymptotic_multiplicity(ideal)
    seq = multiplicity_sequence(ideal, opts["p_max"])
    return _record(problem, value, "monomial.asymptotic_multiplicity",
                   ["p", "mult", "normalized"], [[p, h, _cell(norm)] for p, h, norm in seq])


def _run_surface_volume(problem, opts):
    from .surface import divisor_local_volume, singularity_volume

    graph, d = _objects(problem)
    if d is None:
        return _record(problem, singularity_volume(graph), "surface.singularity_volume")
    return _record(problem, divisor_local_volume(graph, d), "surface.divisor_local_volume")


def _run_cone_volume(problem, opts):
    from .cone import cone_singularity_volume

    return _record(problem, cone_singularity_volume(_objects(problem)),
                   "cone.singularity_volume")


def _run_cone_gamma(problem, opts):
    from .cone import cone_gamma_volume

    return _record(problem, cone_gamma_volume(_objects(problem)), "cone.gamma_volume")


def _run_bdff(problem, opts):
    from .cone import bdff_cone_volume, cone_singularity_volume

    model = _objects(problem)
    big = bdff_cone_volume(model)
    if problem["kind"] == "cone":
        return _record(problem, big, "cone.nef_envelope_volume")
    small = cone_singularity_volume(model)
    rows = [["nef_envelope_volume", _cell(big)], ["singularity_volume", _cell(small)]]
    return _record(problem, big, "cone.nef_envelope_volume", ["quantity", "value"], rows,
                   verdict=bool(big >= small))


def _run_lambda_seq(problem, opts):
    from .cone import cone_singularity_volume, lambda_sequence

    model = _objects(problem)
    seq = lambda_sequence(model, opts["m_max"])
    return _record(problem, cone_singularity_volume(model), "cone.lambda_sequence",
                   ["m", "lambda", "normalized"],
                   [[m, lam, _cell(norm)] for m, lam, norm in seq])


def _run_fujita_check(problem, opts):
    from .toric import fujita_sequence, local_volume_toric

    d = _objects(problem)
    value = local_volume_toric(d)
    seq = fujita_sequence(d, opts["p_max"])
    rows = [[p, _cell(mult), _cell(norm)] for p, mult, norm in seq]
    ok = bool(seq)
    if seq:
        final = seq[-1][2]
        ok = value > 0 and abs(final - value) * 10 <= value
        tail = [norm for _, _, norm in seq[-3:]]
        if len(tail) == 3 and min(tail) > 0:
            ok = ok and (max(tail) - min(tail)) * 100 <= 3 * min(tail)
    return _record(problem, value, "toric.fujita_sequence", ["p", "mult", "normalized"],
                   rows, verdict=ok)


def _run_convexity_check(problem, opts):
    from .toric import ToricDivisor, local_volume_toric

    d_a, d_b = _objects(problem)
    mid = ToricDivisor(d_a.datum, [(a + b) / 2 for a, b in zip(d_a.coeffs, d_b.coeffs)])
    va, vb, vm = (local_volume_toric(x) for x in (d_a, d_b, mid))
    # midpoint log-convexity: vol(mid)^(1/3) <= (va^(1/3) + vb^(1/3)) / 2
    holds = compare_cbrt_sum(va, vb, 8 * vm) >= 0
    rows = [["vol_a", _cell(va)], ["vol_b", _cell(vb)], ["vol_mid", _cell(vm)]]
    return _record(problem, vm, "toric.log_convexity_check", ["quantity", "value"], rows,
                   verdict=bool(holds))


_RUNNERS = {
    "toric-volume": _run_toric_volume,
    "toric-h1": _run_toric_h1,
    "monomial-mult": _run_monomial_mult,
    "surface-volume": _run_surface_volume,
    "cone-volume": _run_cone_volume,
    "cone-gamma": _run_cone_gamma,
    "bdff-volume": _run_bdff,
    "lambda-seq": _run_lambda_seq,
    "fujita-check": _run_fujita_check,
    "convexity-check": _run_convexity_check,
}


def _emit_json(record, stream):
    stream.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
    stream.write("\n")


def _emit_csv(record, stream):
    seq = record.get("sequences")
    if seq:
        stream.write(",".join(seq["header"]) + "\n")
        for row in seq["rows"]:
            stream.write(",".join(str(c) for c in row) + "\n")
        return
    stream.write("value\n" + _exact_text(record["exact_value"]) + "\n")


def _error(code, name, message, stream):
    _emit_json({"error": {"code": code, "name": name, "message": message}}, stream)


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = argparse.ArgumentParser(
        prog="locvol",
        description="Exact local volumes of divisors and singularity invariants.",
    )
    parser.add_argument("subcommand", choices=sorted(_RUNNERS))
    parser.add_argument("problem", help="path to a JSON problem file")
    parser.add_argument("--m-max", type=int, default=None,
                        help="sequence length; beats the file's options (default 10)")
    parser.add_argument("--p-max", type=int, default=None,
                        help="sequence length; beats the file's options (default 8)")
    parser.add_argument("--output", choices=("json", "csv"), default=None)
    parser.add_argument("--meta", action="store_true",
                        help="emit version/timestamp metadata on stderr")
    args = parser.parse_args(argv)

    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            problem = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, bad JSON, 4301+ digits
        _error("validation", type(exc).__name__, str(exc), stdout)
        return 2

    try:
        _validate(problem)
        kinds = SUBCOMMANDS[args.subcommand]
        if problem["kind"] not in kinds:
            raise ValidationFailure(
                f"subcommand {args.subcommand} expects kind "
                f"{' or '.join(kinds)}, got {problem['kind']!r}"
            )
        # an explicit flag beats the file's options, which beat the defaults
        opts = {"m_max": 10, "p_max": 8, **problem.get("options", {})}
        if args.m_max is not None:
            opts["m_max"] = args.m_max
        if args.p_max is not None:
            opts["p_max"] = args.p_max
        for key in ("m_max", "p_max"):
            if opts[key] < 1:
                raise ValidationFailure(f"{key} must be at least 1, got {opts[key]}")
            if opts[key] > SEQUENCE_LIMIT:
                raise SequenceBudget(
                    f"{key} {opts[key]} exceeds the limit of {SEQUENCE_LIMIT} levels")
        output = args.output or opts.get("output", "json")
        record = _RUNNERS[args.subcommand](problem, opts)
    except ValidationFailure as exc:
        _error("validation", "ValidationFailure", str(exc), stdout)
        return 2
    except (LocvolError, ValueError) as exc:
        _error("computation", type(exc).__name__, str(exc), stdout)
        return 3

    if output == "csv":
        _emit_csv(record, stdout)
    else:
        _emit_json(record, stdout)
    if args.meta:
        _emit_json({"meta": {"version": __version__, "timestamp": time.time()}},
                   stderr)
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
