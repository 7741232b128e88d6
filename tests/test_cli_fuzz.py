"""Property-based fuzzing of the CLI over small schema-valid problems.

Every schema-valid problem file must end with exit code 0, 2 or 3 and a
record that validates against result.schema.json, and the same file must
give the same bytes twice.  The problems are kept small (entries of at
most a few units, sequences of a few levels) so the ten tests take a few
seconds; the budgets that bound larger inputs have their own tests.
Records are requested as JSON: CSV output is not a result record.
"""

import io
import json
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


@st.composite
def lattice_model(draw):
    rank = draw(st.integers(1, 2))
    row = vector(rank, -2, 2)
    model = {
        "type": "lattice",
        "gram": draw(st.lists(row, min_size=rank, max_size=rank)),
        "canonical": draw(row),
        "ample": draw(row),
        "h": draw(st.lists(rational(), min_size=rank, max_size=rank)),
    }
    optional = {
        "negative_curves": st.lists(row, max_size=2),
        "psef_generators": st.lists(row, max_size=2),
        "k": st.lists(rational(), min_size=rank, max_size=rank),
        "envelope_nef_certified": st.booleans(),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            model[key] = draw(values)
    return model


def cone_payload():
    models = st.one_of(
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
        lattice_model(),
    )
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
    kinds = SUBCOMMANDS[subcommand]
    kind = draw(st.sampled_from([kinds] if isinstance(kinds, str) else list(kinds)))
    return {"kind": kind, "payload": draw(PAYLOADS[kind]), "options": draw(OPTIONS)}


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
        first = invoke(argv)
        assert first[0] in (0, 2, 3), first
        RESULT.validate(json.loads(first[1]))
        assert invoke(argv) == first

    check()
