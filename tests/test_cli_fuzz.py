"""Property-based fuzzing of the CLI over small schema-valid problems.

Every schema-valid problem file must end with exit code 0, 2 or 3 and a
record that validates against result.schema.json, and the same file must
give the same bytes twice, within a generous wall-clock ceiling.  The
problems are kept small (entries of at most a few units, sequences of a
few levels) so the ten tests take a few seconds; the budgets that bound
larger inputs have their own tests.  One more test checks that the
lattice draws still reach the generated pseudo-effective cone's paths.
Records are requested as JSON: CSV output is not a result record.
"""

import io
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from locvol.cli import SUBCOMMANDS, run

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"
PROBLEM = Draft202012Validator(json.loads((SCHEMAS / "problem.schema.json").read_text()))
RESULT = Draft202012Validator(json.loads((SCHEMAS / "result.schema.json").read_text()))


def rational(lo=-3, hi=3):
    """A schema rational: an integer, or a string p/q, where q is sometimes 0."""
    return st.one_of(st.integers(lo, hi), st.builds(
        "{}/{}".format, st.integers(lo, hi), st.sampled_from((1, 2, 3) * 3 + (0,))))


def vector(dim, lo=-2, hi=2):
    return st.lists(st.integers(lo, hi), min_size=dim, max_size=dim)


@st.composite
def cone_def(draw, dim):
    """Mostly the unit vectors skewed by small entries, which are often a
    basis, now and then with one more vector; sometimes any vectors."""
    shape = draw(st.sampled_from(["skewed"] * 4 + ["skewed and one more", "any"]))
    if shape == "any":
        return {"generators": draw(st.lists(vector(dim), min_size=2, max_size=dim + 1))}
    gens = [[1 if i == j else draw(st.integers(-1, 1)) for j in range(dim)]
            for i in range(dim)]
    if shape == "skewed and one more":
        gens.append(draw(vector(dim)))
    return {"generators": gens}


@st.composite
def toric_payload(draw, coeff_keys=("coeffs",)):
    dim = draw(st.integers(2, 3))
    cone = draw(cone_def(dim))
    gens = cone["generators"]
    # extra rays: sums of distinct generators, which lie in the cone, or any vector
    sums = st.lists(st.sampled_from(range(len(gens))), min_size=2, max_size=3,
                    unique=True).map(lambda ix: [sum(gens[i][k] for i in ix)
                                                 for k in range(dim)])
    rays = gens + draw(st.lists(st.one_of(sums, vector(dim)), max_size=2, unique_by=tuple))
    payload = {"cone": cone, "rays": rays}
    for key in coeff_keys:
        size = st.sampled_from([len(rays)] * 4 + [len(rays) + 1])
        payload[key] = draw(size.flatmap(
            lambda k: st.lists(rational(), min_size=k, max_size=k)))
    return payload


@st.composite
def monomial_payload(draw):
    dim = draw(st.integers(1, 3))
    payload = {"generators": draw(st.lists(vector(dim, 0, 4), min_size=1, max_size=4))}
    if dim >= 2 and draw(st.booleans()):
        payload["ambient_cone"] = draw(cone_def(dim))
        payload["generators"] = draw(st.lists(vector(dim, -2, 4), min_size=1, max_size=4))
    return payload


@st.composite
def surface_payload(draw):
    vertex = st.fixed_dictionaries({"self_int": st.integers(-4, -1)},
                                   optional={"genus": st.integers(0, 1)})
    vertices = draw(st.lists(vertex, min_size=1, max_size=3))
    edge = st.fixed_dictionaries(
        {"i": st.integers(0, len(vertices)), "j": st.integers(0, len(vertices))},
        optional={"multiplicity": st.integers(1, 2)})
    payload = {"vertices": vertices}
    if draw(st.booleans()):
        payload["edges"] = draw(st.lists(edge, max_size=3))
    if draw(st.booleans()):
        size = draw(st.sampled_from([len(vertices), len(vertices) + 1]))
        payload["divisor"] = draw(st.lists(rational(), min_size=size, max_size=size))
    return payload


# (gram, ample class, psef generators, negative curves) of F_0 = P1 x P1,
# F_1 and the plane blown up in two points, which the fuzz edits field by field
SURFACE_LATTICES = [
    ([[0, 1], [1, 0]], [1, 1], [[1, 0], [0, 1]], []),
    ([[1, 0], [0, -1]], [2, -1], [[0, 1], [1, -1]], [[0, 1]]),
    ([[1, 0, 0], [0, -1, 0], [0, 0, -1]], [3, -1, -1],
     [[0, 1, 0], [0, 0, 1], [1, -1, -1]], [[0, 1, 0], [0, 0, 1], [1, -1, -1]]),
]


@st.composite
def lattice_model(draw):
    """A small random lattice, or a surface's lattice, polarized by its ample
    class, with more psef generators now and then and at most one field
    redrawn, so that the psef cone checks both refuse and pass."""
    surface = draw(st.sampled_from([None] + SURFACE_LATTICES))
    rank = len(surface[0]) if surface else draw(st.integers(1, 3))
    row = vector(rank, -2, 2)
    fields = {
        "gram": st.lists(row, min_size=rank, max_size=rank),
        "ample": row,
        "psef_generators": st.lists(row, max_size=4),
        "negative_curves": st.lists(row, max_size=2),
        "h": st.lists(rational(), min_size=rank, max_size=rank),
    }
    model = {"type": "lattice", "canonical": draw(row)}
    if surface:
        gram, ample, gens, curves = surface
        fields["psef_generators"] = st.lists(row, max_size=4 - len(gens)).map(
            lambda extra: gens + extra)
        redrawn = draw(st.sampled_from([None, None, "gram", "ample", "negative_curves", "h"]))
        model.update((key, draw(values) if key in (redrawn, "psef_generators") else value)
                     for (key, values), value in zip(fields.items(),
                                                     (gram, ample, gens, curves, ample)))
    else:
        model.update(gram=draw(fields["gram"]), ample=draw(row), h=draw(fields["h"]))
    optional = {
        "negative_curves": fields["negative_curves"],
        "psef_generators": fields["psef_generators"],
        "k": st.lists(rational(), min_size=rank, max_size=rank),
        "envelope_nef_certified": st.booleans(),
    }
    for key, values in optional.items():
        if key not in model and draw(st.booleans()):
            model[key] = draw(values)
    return model


def cone_payload():
    others = st.one_of(
        st.fixed_dictionaries(
            {"type": st.just("curve"), "genus": st.integers(0, 4),
             "degree": st.integers(1, 4)},
            optional={"general_position": st.booleans()}),
        st.fixed_dictionaries(
            {"type": st.just("proj_space"), "dim": st.integers(1, 3),
             "h": st.integers(1, 4)}),
        st.fixed_dictionaries(
            {"type": st.just("abelian_cover"), "base_sq": st.integers(1, 4),
             "mixed": st.integers(1, 4), "pol_sq": st.integers(1, 4)}),
    )
    # half the models are lattices, which have the most checks to pass
    models = st.booleans().flatmap(lambda lattice: lattice_model() if lattice else others)
    return st.fixed_dictionaries({"model": models})


PAYLOADS = {
    "toric": toric_payload(),
    "fujita": toric_payload(),
    "logconvexity": toric_payload(("coeffs_a", "coeffs_b")),
    "monomial": monomial_payload(),
    "surface": surface_payload(),
    "cone": cone_payload(),
    "tcomp": cone_payload(),
}

# sequence lengths stay small in the file and in the flags that beat it
OPTIONS = st.fixed_dictionaries({"m_max": st.integers(1, 6), "p_max": st.integers(1, 3)},
                                optional={"output": st.just("json")})
FLAGS = st.lists(st.sampled_from([("--m-max", "4"), ("--p-max", "2")]), unique=True).map(
    lambda flags: [arg for flag in flags for arg in flag])


@st.composite
def problem(draw, subcommand):
    kind = draw(st.sampled_from(SUBCOMMANDS[subcommand]))
    return {"kind": kind, "payload": draw(PAYLOADS[kind]), "options": draw(OPTIONS)}


# a generous ceiling on the two runs of one case: the budgets bound memory, not time
RUN_SECONDS = 10


def invoke(argv):
    out = io.StringIO()
    return run(argv, stdout=out, stderr=io.StringIO()), out.getvalue()


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
def test_schema_valid_problems_end_with_a_deterministic_record(subcommand, tmp_path_factory):
    path = tmp_path_factory.mktemp(subcommand) / "problem.json"

    @settings(max_examples=20, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(problem(subcommand), FLAGS)
    def check(prob, flags):
        PROBLEM.validate(prob)
        path.write_text(json.dumps(prob))
        argv = [subcommand, str(path)] + flags
        start = time.monotonic()
        first = invoke(argv)
        assert first[0] in (0, 2, 3), first
        RESULT.validate(json.loads(first[1]))
        assert invoke(argv) == first
        assert time.monotonic() - start < RUN_SECONDS, prob

    check()


# refusals of `cone-volume` on a lattice whose psef cone fails the checks
PSEF_REFUSALS = {
    "line": r"must not contain a line",
    "negative square": r"^extremal class .* has negative square",
}


def test_lattice_draws_reach_the_psef_cone_paths(tmp_path):
    # derandomized draws follow this file's source, so an edit may move them:
    # the draws must still reach a generated psef cone's answer and two of its
    # refusals (raise the draw count if one turns rare)
    path, reached = tmp_path / "problem.json", set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lattice_model())
    def draw(model):
        path.write_text(json.dumps({"kind": "cone", "payload": {"model": model}}))
        code, out = invoke(["cone-volume", str(path)])
        if code == 0 and "psef_generators" in model:
            reached.add("answer")
        elif code != 0:
            message = json.loads(out)["error"]["message"]
            reached.update(name for name, pattern in PSEF_REFUSALS.items()
                           if re.search(pattern, message))

    draw()
    assert reached == {"answer", *PSEF_REFUSALS}
