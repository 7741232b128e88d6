"""The CLI's in-tree problem validator against jsonschema, and its keyword guard."""

import copy
import json
import random
import re
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator, validators

from locvol.cli import ProblemSchema, SchemaError

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"
SCHEMA = json.loads((SCHEMAS / "problem.schema.json").read_text())
FIXTURES = {path.name: json.loads(path.read_text())
            for path in sorted(SCHEMAS.glob("*.json")) if "schema" not in path.name}
MUTATIONS_PER_FIXTURE = 600

# values a mutation may put anywhere: integral floats, booleans, strings that
# are and are not rationals, and containers of each shape
ATOMS = [0, 1, -1, 2, -5, 3.0, -2.0, 0.5, True, False, None, "", "x", "1/2", "-3",
         "3/0", "1.5", [], [1], [[1, 0]], {}, {"type": "curve"}]


def reference_validator(schema):
    """Draft 2020-12, except that `integer` means a JSON integer literal
    (jsonschema also admits 3.0): the validator's one intended divergence."""
    checker = Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool))
    return validators.extend(Draft202012Validator, type_checker=checker)(schema)


def _walk(value):
    """value and everything nested in it, parents first."""
    yield value
    if isinstance(value, (dict, list)):
        for child in value.values() if isinstance(value, dict) else value:
            yield from _walk(child)


def _property_names(schema):
    for node in _walk(schema):
        if isinstance(node, dict) and isinstance(node.get("properties"), dict):
            yield from node["properties"]


VALUES = ATOMS + [v for doc in FIXTURES.values() for v in _walk(doc)
                  if not isinstance(v, (dict, list))]
KEYS = sorted(set(_property_names(SCHEMA))) + ["junk"]


def mutate(doc, rng):
    """doc after one to three random edits: a key dropped or added, a value
    swapped for an atom or a fixture's value, or a list item popped."""
    box = [copy.deepcopy(doc)]  # the root is a slot too
    for _ in range(rng.randint(1, 3)):
        nodes = [n for n in _walk(box) if isinstance(n, (dict, list))]
        op = rng.choice(("drop", "add", "swap", "pop"))
        dicts = [n for n in nodes if isinstance(n, dict)]
        lists = [n for n in nodes[1:] if isinstance(n, list) and n]
        if op == "drop" and any(dicts):
            node = rng.choice([d for d in dicts if d])
            del node[rng.choice(sorted(node))]
        elif op == "add" and dicts:
            rng.choice(dicts)[rng.choice(KEYS)] = copy.deepcopy(rng.choice(VALUES))
        elif op == "pop" and lists:
            node = rng.choice(lists)
            node.pop(rng.randrange(len(node)))
        else:
            node = rng.choice([n for n in nodes if n])
            slot = rng.choice(sorted(node) if isinstance(node, dict) else range(len(node)))
            node[slot] = copy.deepcopy(rng.choice(VALUES))
    return box[0]


def test_agrees_with_jsonschema_on_fixtures_and_mutations():
    ours, reference = ProblemSchema(SCHEMA), reference_validator(SCHEMA)
    rng = random.Random(20111)
    outcomes = {True: 0, False: 0}
    disagreements = []
    for name, doc in FIXTURES.items():
        docs = [doc] + [mutate(doc, rng) for _ in range(MUTATIONS_PER_FIXTURE)]
        for problem in docs:
            valid = reference.is_valid(problem)
            outcomes[valid] += 1
            if ours.is_valid(problem) != valid:
                disagreements.append((name, problem))
    assert not disagreements[:5]
    assert outcomes[True] >= 500 and outcomes[False] >= 500, outcomes


@pytest.mark.parametrize("keyword, value", [
    ("maxItems", 3), ("format", "email"), ("$dynamicRef", "#/$defs/rational"),
    # supported keywords in forms the validator does not implement
    ("additionalProperties", True), ("type", "number"), ("const", 1),
    ("$ref", "#/$defs/missing"),
])
def test_unsupported_schema_keywords_raise(keyword, value):
    ProblemSchema(SCHEMA)
    at_root = dict(SCHEMA, **{keyword: value})
    nested = copy.deepcopy(SCHEMA)
    nested["$defs"]["cone_payload"]["properties"]["model"]["oneOf"][3][
        "properties"]["gram"][keyword] = value
    for schema in (at_root, nested):
        with pytest.raises(SchemaError, match=re.escape(keyword)):
            ProblemSchema(schema)


# keyword cases the problem schema cannot reach: overlapping oneOf branches,
# if without then, several types, minItems above 1
SMALL_SCHEMAS = [
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, [1, -1, 0.5, -0.5, "a"]),
    ({"if": {"type": "string"}}, ["a", 1]),
    ({"type": ["integer", "string"], "pattern": "^a"}, ["a", "b", 1, 1.0, True]),
    ({"type": "array", "minItems": 2}, [[], [1], [1, 2]]),
]


@pytest.mark.parametrize("schema, instances", SMALL_SCHEMAS)
def test_agrees_with_jsonschema_on_small_schemas(schema, instances):
    ours, reference = ProblemSchema(schema), reference_validator(schema)
    for x in instances:
        want = sorted(reference.iter_errors(x), key=str)
        assert min(ours.errors(x), default=None) == (want[0].message if want else None)
