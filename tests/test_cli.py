import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from locvol.cli import SUBCOMMANDS, run

ROOT = Path(__file__).resolve().parents[1]
SCHEMAS = ROOT / "docs" / "schemas"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def fixture(name):
    return str(SCHEMAS / name)


def write_problem(tmp_path, payload):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def result_validator():
    schema = json.loads((SCHEMAS / "result.schema.json").read_text())
    return Draft202012Validator(schema)


def test_golden_values_from_fixtures(result_validator):
    expectations = {
        ("toric-volume", "tnc.json"): {"rational": "79/24"},
        ("surface-volume", "a1.json"): {"rational": "0/1"},
        ("surface-volume", "quartic_cone.json"): {"rational": "4/1"},
        ("cone-gamma", "pspace.json"): {"rational": "1/4"},
        ("cone-volume", "abelian_cover.json"): {
            "quadratic": {"a": "-9/1", "b": "5/1", "c": 5}
        },
        ("monomial-mult", "mon_x3xy3.json"): {"rational": "6/1"},
    }
    for (sub, name), expected in expectations.items():
        code, out, _ = invoke(sub, fixture(name))
        assert code == 0, out
        record = json.loads(out)
        assert record["exact_value"] == expected
        result_validator.validate(record)


def test_determinism_byte_identical():
    first = invoke("toric-volume", fixture("tnc.json"))
    second = invoke("toric-volume", fixture("tnc.json"))
    assert first == second


def test_meta_goes_to_stderr_only():
    code, out, err = invoke("surface-volume", fixture("a1.json"), "--meta")
    plain = invoke("surface-volume", fixture("a1.json"))
    assert code == 0
    assert out == plain[1]  # stdout unchanged by --meta
    assert "meta" in err and "version" in err


def test_tcomp_comparison_verdict(result_validator):
    code, out, _ = invoke("bdff-volume", fixture("p1xC.json"))
    record = json.loads(out)
    assert code == 0
    assert record["verdict"] is True
    assert record["exact_value"] == {"rational": "16/1"}
    rows = dict(record["sequences"]["rows"])
    assert rows["singularity_volume"] == "0/1"
    result_validator.validate(record)


def test_fujita_check(result_validator):
    code, out, _ = invoke("fujita-check", fixture("tnc_fujita.json"))
    record = json.loads(out)
    assert code == 0 and record["verdict"] is True
    assert record["exact_value"] == {"rational": "1/1"}
    assert record["sequences"]["header"] == ["p", "mult", "normalized"]
    result_validator.validate(record)


def test_convexity_check_detects_failure(result_validator):
    code, out, _ = invoke("convexity-check", fixture("tnc_convexity.json"))
    record = json.loads(out)
    assert code == 0
    assert record["verdict"] is False  # the golden counterexample
    result_validator.validate(record)


def test_csv_sequence_output():
    code, out, _ = invoke("toric-h1", fixture("tnc.json"), "--output", "csv",
                          "--m-max", "8")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "m,count,normalized"
    assert lines[1].split(",")[0] == "2"  # fractional scales skipped


def test_csv_scalar_output():
    for sub, name, value in (("toric-volume", "tnc.json", "79/24"),
                             ("cone-volume", "abelian_cover.json", "-9/1+5/1*sqrt(5)")):
        code, out, _ = invoke(sub, fixture(name), "--output", "csv")
        assert code == 0
        assert out.splitlines() == ["value", value]


def test_lambda_seq(tmp_path, result_validator):
    path = write_problem(tmp_path, {
        "kind": "cone",
        "payload": {"model": {"type": "curve", "genus": 2, "degree": 1,
                              "general_position": True}},
    })
    code, out, _ = invoke("lambda-seq", path, "--m-max", "4")
    record = json.loads(out)
    assert code == 0
    assert record["sequences"]["rows"][2][1] == 10
    assert record["exact_value"] == {"rational": "4/1"}
    result_validator.validate(record)


def test_lambda_seq_of_a_high_genus_curve_is_fast(tmp_path, result_validator):
    # each level is a closed-form sum, not one term per degree
    path = write_problem(tmp_path, {
        "kind": "cone",
        "payload": {"model": {"type": "curve", "genus": 10 ** 9, "degree": 1,
                              "general_position": True}},
    })
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "locvol.cli", "lambda-seq", path, "--m-max", "1000"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stdout
    record = json.loads(proc.stdout)
    result_validator.validate(record)
    # at m = 1 the degrees 2g-3, ..., 0 count g-2, ..., 0 sections
    g = 10 ** 9
    assert record["sequences"]["rows"][0][1] == (g - 1) * (g - 2) // 2


@pytest.mark.parametrize("dim, h", [(1001, 5), (5, 1000001)])
def test_exit_2_on_a_projective_space_over_the_maxima(tmp_path, dim, h):
    path = write_problem(tmp_path, {
        "kind": "cone", "payload": {"model": {"type": "proj_space", "dim": dim, "h": h}},
    })
    code, out, _ = invoke("cone-gamma", path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "validation"


def test_the_largest_projective_space_ends_with_a_record(tmp_path, result_validator):
    # the rank-one coefficients have about dim * log10(h) digits, largest here
    path = write_problem(tmp_path, {
        "kind": "cone",
        "payload": {"model": {"type": "proj_space", "dim": 1000, "h": 1000000}},
    })
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for sub in ("cone-volume", "cone-gamma", "bdff-volume", "lambda-seq"):
        proc = subprocess.run([sys.executable, "-m", "locvol.cli", sub, path],
                              capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode in (0, 3), (sub, proc.stdout)
        result_validator.validate(json.loads(proc.stdout))


def test_surface_divisor_volume(tmp_path):
    path = write_problem(tmp_path, {
        "kind": "surface",
        "payload": {"vertices": [{"self_int": -2, "genus": 0}], "divisor": [2]},
    })
    code, out, _ = invoke("surface-volume", path)
    assert code == 0
    assert json.loads(out)["exact_value"] == {"rational": "2/1"}


def test_exit_2_on_schema_violation(tmp_path, result_validator):
    path = write_problem(tmp_path, {
        "kind": "toric",
        "payload": {"cone": {"generators": [[0, 1, 0]]}, "rays": [[1, 0, 0]],
                    "coeffs": [0], "junk": 1},
    })
    code, out, _ = invoke("toric-volume", path)
    assert code == 2
    err = json.loads(out)
    assert err["error"]["code"] == "validation"
    result_validator.validate(err)


def test_exit_2_on_kind_mismatch(tmp_path):
    code, out, _ = invoke("toric-volume", fixture("a1.json"))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "validation"


def test_exit_2_on_missing_file():
    code, out, _ = invoke("toric-volume", "/nonexistent/nope.json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "validation"


def test_exit_2_on_repeated_ray(tmp_path, result_validator):
    # (2, 2) is the ray (1, 1) once made primitive
    for rays in ([[1, 0], [0, 1], [1, 1], [1, 1]], [[1, 0], [0, 1], [1, 1], [2, 2]]):
        path = write_problem(tmp_path, {
            "kind": "toric",
            "payload": {"cone": {"generators": [[1, 0], [0, 1]]},
                        "rays": rays, "coeffs": [0, 0, -1, -1]},
        })
        code, out, _ = invoke("toric-volume", path)
        assert code == 2, out
        err = json.loads(out)
        assert err["error"]["code"] == "validation"
        result_validator.validate(err)


def test_ray_outside_the_cone_is_invalid_input(tmp_path, result_validator):
    path = write_problem(tmp_path, {
        "kind": "toric",
        "payload": {"cone": {"generators": [[1, 0], [0, 1]]},
                    "rays": [[1, 0], [0, 1], [-1, 1]], "coeffs": [0, 0, 1]},
    })
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "locvol.cli", "toric-volume", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stdout)
    result_validator.validate(err)
    assert err["error"]["code"] == "validation"
    assert "not in the cone" in err["error"]["message"]


INTEGRAL_FLOATS = {
    # JSON Schema's integer admits 3.0; the exact kernels take only ints
    "m_max": ("toric-h1", {
        "kind": "toric",
        "payload": {"cone": {"generators": [[1, 0], [0, 1]]},
                    "rays": [[1, 0], [0, 1], [1, 1]], "coeffs": [0, 0, -1]},
        "options": {"m_max": 3.0}}),
    "self_int": ("surface-volume", {
        "kind": "surface", "payload": {"vertices": [{"self_int": -2.0}]}}),
    "ray": ("toric-volume", {
        "kind": "toric",
        "payload": {"cone": {"generators": [[0, 1, 0], [0, 0, 1], [1, 0, -2]]},
                    "rays": [[0, 1, 0], [0, 0, 1], [1, 0, -2], [1.0, 1.0, 1.0]],
                    "coeffs": [0, 0, 2, -1]}}),
}


@pytest.mark.parametrize("case", sorted(INTEGRAL_FLOATS))
def test_integral_floats_are_invalid_input(tmp_path, result_validator, case):
    sub, problem = INTEGRAL_FLOATS[case]
    path = write_problem(tmp_path, problem)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "locvol.cli", sub, path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stdout)
    result_validator.validate(err)
    assert err["error"]["code"] == "validation"
    assert "is not of type 'integer'" in err["error"]["message"]


def test_exit_2_on_files_json_cannot_load(tmp_path, result_validator):
    # ValueError, not JSONDecodeError: the first is past Python's int
    # conversion limit, the second is not UTF-8
    long_int = '{"kind": "surface", "payload": {"vertices": [{"self_int": -%s}]}}'
    for name, data in (("long.json", (long_int % ("2" * 5000)).encode()),
                       ("latin1.json", b"\xff{}")):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, _ = invoke("surface-volume", str(path))
        assert code == 2, out
        err = json.loads(out)
        result_validator.validate(err)
        assert err["error"]["code"] == "validation"


def test_principal_monomial_ideal_is_saturated(tmp_path):
    path = write_problem(tmp_path, {"kind": "monomial",
                                    "payload": {"generators": [[3, 1]]}})
    code, out, _ = invoke("monomial-mult", path)
    assert code == 0, out
    record = json.loads(out)
    assert record["exact_value"] == {"rational": "0/1"}
    assert [row[1] for row in record["sequences"]["rows"]] == [0] * 8


def _fixture_with(name, edit):
    problem = json.loads((SCHEMAS / name).read_text())
    edit(problem["payload"])
    return problem


def _p1xc_with(**model):
    return ("bdff-volume", _fixture_with("p1xC.json", lambda p: p["model"].update(model)))


INVALID_PAYLOADS = {
    "ragged-exponents": ("monomial-mult", {
        "kind": "monomial", "payload": {"generators": [[1, 0], [0, 1, 2]]}}),
    "outside-ambient": ("monomial-mult", {
        "kind": "monomial",
        "payload": {"generators": [[0, 1]],
                    "ambient_cone": {"generators": [[1, 0], [1, 2]]}}}),
    "bad-edge": ("surface-volume", {
        "kind": "surface",
        "payload": {"vertices": [{"self_int": -2}], "edges": [{"i": 0, "j": 3}]}}),
    "long-divisor": ("surface-volume", {
        "kind": "surface",
        "payload": {"vertices": [{"self_int": -2}], "divisor": [1, 2]}}),
    "flat-cone": ("toric-volume", {
        "kind": "toric",
        "payload": {"cone": {"generators": [[1, 0, 0], [0, 1, 0]]},
                    "rays": [[1, 0, 0], [0, 1, 0]], "coeffs": [0, 0]}}),
    "complex-threshold": ("cone-volume", {
        "kind": "cone",
        "payload": {"model": {"type": "abelian_cover", "base_sq": 1, "mixed": 1,
                              "pol_sq": 4}}}),
    # lattice vectors must have the length of the gram rank, 2 here
    "short-canonical": _p1xc_with(canonical=[2]),
    "long-ample": _p1xc_with(ample=[1, 1, 7]),
    "long-psef-generator": _p1xc_with(psef_generators=[[1, 0, 4], [0, 1]]),
    "long-negative-curve": _p1xc_with(negative_curves=[[1, -1, 3]]),
    "long-k": _p1xc_with(k=[1, 0, 0]),
    "short-h": _p1xc_with(h=[1]),
    "long-ray": ("toric-volume", _fixture_with(
        "tnc.json", lambda p: p.update(rays=p["rays"][:-1] + [[1, 0, 0, 5]]))),
    # a gram matrix must be square and symmetric before its signature means anything
    "nonsymmetric-gram": _p1xc_with(gram=[[0, 1], [2, 0]]),
    "ragged-gram": _p1xc_with(gram=[[0, 1], [1, 0, 0]]),
    "ray-outside-cone": ("toric-volume", {
        "kind": "toric",
        "payload": {"cone": {"generators": [[1, 0], [0, 1]]},
                    "rays": [[1, 0], [0, 1], [-1, 1]], "coeffs": [0, 0, 1]}}),
    # "1/0" matches the schema's rational pattern
    "zero-denominator": ("toric-volume", {
        "kind": "toric",
        "payload": {"cone": {"generators": [[1, 0], [0, 1]]},
                    "rays": [[1, 0], [0, 1], [1, 1]], "coeffs": [0, 0, "1/0"]}}),
    "flat-convexity": ("convexity-check", {
        "kind": "logconvexity",
        "payload": {"cone": {"generators": [[1, 0], [0, 1]]},
                    "rays": [[1, 0], [0, 1], [1, 1]],
                    "coeffs_a": [0, 0, -1], "coeffs_b": [0, 0, "-1/2"]}}),
    # the divisors are built before the dimension is checked
    "flat-convexity-zero-denominator": ("convexity-check", {
        "kind": "logconvexity",
        "payload": {"cone": {"generators": [[1, 0], [0, 1]]},
                    "rays": [[1, 0], [0, 1], [1, 1]],
                    "coeffs_a": [0, 0, -1], "coeffs_b": [0, "1/0", 1]}}),
    # the graph is built before the divisor's length is checked
    "bad-edge-long-divisor": ("surface-volume", {
        "kind": "surface",
        "payload": {"vertices": [{"self_int": -2}], "edges": [{"i": 0, "j": 3}],
                    "divisor": [1, 2]}}),
}
LATTICE_LENGTH = "lattice vectors must have length 2, the gram rank"
MODEL_LENGTH = "k and h must have length 2, the gram rank"
ASYMMETRIC_GRAM = "gram matrix must be square and symmetric"
# the message of each case's error record, and so the order of the checks
INVALID_PAYLOAD_MESSAGES = {
    "bad-edge": "bad edge (0, 3, 1)",
    "bad-edge-long-divisor": "bad edge (0, 3, 1)",
    "complex-threshold": "threshold would be complex: need mixed^2 >= base*pol",
    "flat-cone": "cone is not full-dimensional",
    "flat-convexity": "convexity certification is implemented for three-dimensional cones",
    "flat-convexity-zero-denominator": "bad rational '1/0': Fraction(1, 0)",
    "long-ample": LATTICE_LENGTH,
    "long-divisor": "divisor length must match the vertex count",
    "long-k": MODEL_LENGTH,
    "long-negative-curve": LATTICE_LENGTH,
    "long-psef-generator": LATTICE_LENGTH,
    "long-ray": "refinement rays must have length 3",
    "nonsymmetric-gram": ASYMMETRIC_GRAM,
    "outside-ambient": "generator (0, 1) outside the ambient cone",
    "ragged-exponents": "inconsistent exponent dimensions",
    "ragged-gram": ASYMMETRIC_GRAM,
    "ray-outside-cone": "ray (-1, 1) is not in the cone",
    "short-canonical": LATTICE_LENGTH,
    "short-h": MODEL_LENGTH,
    "zero-denominator": "bad rational '1/0': Fraction(1, 0)",
}


@pytest.mark.parametrize("case", sorted(INVALID_PAYLOADS))
def test_exit_2_when_payload_objects_cannot_be_built(tmp_path, result_validator, case):
    sub, problem = INVALID_PAYLOADS[case]
    code, out, _ = invoke(sub, write_problem(tmp_path, problem))
    assert code == 2, out
    assert out == ('{"error":{"code":"validation","message":%s,"name":"ValidationFailure"}}\n'
                   % json.dumps(INVALID_PAYLOAD_MESSAGES[case]))
    result_validator.validate(json.loads(out))


def test_exit_3_on_computational_error(tmp_path, result_validator):
    path = write_problem(tmp_path, {
        "kind": "surface",
        "payload": {"vertices": [{"self_int": -2, "genus": 0},
                                 {"self_int": -2, "genus": 0}],
                    "edges": [{"i": 0, "j": 1, "multiplicity": 2}]},
    })
    code, out, _ = invoke("surface-volume", path)
    assert code == 3
    err = json.loads(out)
    assert err["error"]["code"] == "computation"
    assert err["error"]["name"] == "NotNegativeDefinite"
    result_validator.validate(err)


def test_gram_of_wrong_signature_exits_3(tmp_path, result_validator):
    sub, problem = _p1xc_with(gram=[[1, 0], [0, 1]])
    code, out, _ = invoke(sub, write_problem(tmp_path, problem))
    assert code == 3
    err = json.loads(out)
    assert err["error"]["name"] == "InvalidLattice"
    result_validator.validate(err)


@pytest.mark.parametrize("canonical", [[-1, 2], [1, -2]])
def test_polarization_meeting_the_ample_class_negatively_exits_3(
        tmp_path, result_validator, canonical):
    # h^2 = 11 > 0 but h.A = -17, so -h is the class in the positive cone
    path = write_problem(tmp_path, {"kind": "cone", "payload": {"model": {
        "type": "lattice", "gram": [[-4, 2], [2, 3]], "canonical": canonical,
        "ample": [1, 1], "h": [1, -3]}}})
    code, out, _ = invoke("cone-volume", path)
    assert code == 3, out
    err = json.loads(out)
    assert err["error"]["name"] == "InvalidModel"
    assert "ample class" in err["error"]["message"]
    result_validator.validate(err)


# a lattice model whose chamber walk meets a support with a singular Gram block
SINGULAR_WALK = {"type": "lattice", "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                 "canonical": [-3, 1, 1], "ample": [1, 0, 0],
                 "negative_curves": [[1, -1, 1], [1, -2, 1], [1, -1, -2], [1, 2, 0],
                                     [1, -1, 2]],
                 "k": [1, -4, -1], "h": [4, -3, 1]}
SINGULAR_WALK["psef_generators"] = SINGULAR_WALK["negative_curves"]


def test_chamber_walk_on_a_singular_support_exits_3(tmp_path, result_validator):
    path = write_problem(tmp_path, {"kind": "cone", "payload": {"model": SINGULAR_WALK}})
    code, out, _ = invoke("cone-gamma", path)
    assert code == 3, out
    err = json.loads(out)
    assert (err["error"]["name"], err["error"]["message"]) == (
        "InvalidModel", "declared negative curves do not span a definite support")
    result_validator.validate(err)


def test_identically_violated_chamber_wall_exits_3(tmp_path, monkeypatch, result_validator):
    # no support iteration leaves a wall violated for every t, since the nef
    # part at the sampled t pairs non-negatively with every curve; one that
    # returns no support for 3L + E_1, which meets E_1 negatively while
    # H = L meets it in 0, does
    import locvol.surface as surface

    monkeypatch.setattr(surface, "_support_iteration", lambda gram, target: ({}, target))
    curves = [[0, 1, 0], [0, 0, 1], [1, -1, -1]]
    model = {"type": "lattice", "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
             "canonical": [-3, 1, 1], "ample": [3, -1, -1], "negative_curves": curves,
             "psef_generators": curves, "k": [3, 1, 0], "h": [1, 0, 0]}
    path = write_problem(tmp_path, {"kind": "cone", "payload": {"model": model}})
    code, out, _ = invoke("cone-volume", path)
    assert code == 3, out
    err = json.loads(out)
    assert (err["error"]["name"], err["error"]["message"]) == (
        "InvalidModel", "chamber constraint violated identically")
    result_validator.validate(err)


# psef generators that no surface's pseudo-effective cone has: (model, the
# refusal's message); each used to print a volume or fail in the wrong place
INCONSISTENT_PSEF_CONES = {
    # the extremal class (0, 1) has square -1 but is no declared curve
    "undeclared-negative-ray": (
        {"gram": [[1, 0], [0, -1]], "ample": [3, 0], "canonical": [2, 3], "h": [3, 0],
         "psef_generators": [[2, 2], [0, 1], [2, -2]]}, "negative square"),
    "one-ray": ({"psef_generators": [[1, 0]]}, "ample class must lie inside"),
    "ample-outside": ({"canonical": [-2, -2], "psef_generators": [[1, 0], [1, -1]]},
                      "ample class must lie inside"),
    "half-plane": ({"canonical": [-2, -2], "psef_generators": [[1, 0], [0, 1], [-1, 0]]},
                   "contain a line"),
}


@pytest.mark.parametrize("sub", ["cone-volume", "bdff-volume"])
@pytest.mark.parametrize("case", sorted(INCONSISTENT_PSEF_CONES))
def test_inconsistent_psef_generators_exit_3(tmp_path, result_validator, case, sub):
    model, message = INCONSISTENT_PSEF_CONES[case]
    problem = _fixture_with("p1xC.json", lambda p: p["model"].update(model))
    problem["kind"] = "cone"
    code, out, _ = invoke(sub, write_problem(tmp_path, problem))
    assert code == 3, out
    err = json.loads(out)
    assert err["error"]["name"] == "InvalidLattice"
    assert message in err["error"]["message"]
    result_validator.validate(err)


def test_explicit_flag_beats_file_options_which_beat_defaults(tmp_path):
    def last_index(*argv):
        code, out, _ = invoke(*argv)
        assert code == 0, out
        return json.loads(out)["sequences"]["rows"][-1][0]

    # tnc.json sets m_max 20, mon_x3xy3.json sets p_max 40
    assert last_index("toric-h1", fixture("tnc.json")) == 20
    assert last_index("toric-h1", fixture("tnc.json"), "--m-max", "6") == 6
    assert last_index("monomial-mult", fixture("mon_x3xy3.json")) == 40
    assert last_index("monomial-mult", fixture("mon_x3xy3.json"), "--p-max", "5") == 5
    bare = json.loads((SCHEMAS / "tnc.json").read_text())
    del bare["options"]
    path = write_problem(tmp_path, bare)
    assert last_index("toric-h1", path) == 10
    assert invoke("toric-h1", path) == invoke("toric-h1", path, "--m-max", "10")
    bare = json.loads((SCHEMAS / "mon_x3xy3.json").read_text())
    del bare["options"]
    path = write_problem(tmp_path, bare)
    assert last_index("monomial-mult", path) == 8


def test_huge_lattice_scan_ends_with_a_record(tmp_path, result_validator):
    # its box at m = 3 holds 3.6e13 points; a dense scan exhausted memory
    path = write_problem(tmp_path, {
        "kind": "toric",
        "payload": {"cone": {"generators": [[1, 0], [0, 1]]},
                    "rays": [[1, 0], [0, 1], [1, 1]], "coeffs": [0, 0, -2000000]},
    })
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for m_max, code in (("3", 0), ("12", 3)):
        proc = subprocess.run(
            [sys.executable, "-m", "locvol.cli", "toric-h1", path, "--m-max", m_max],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        record = json.loads(proc.stdout)
        result_validator.validate(record)
        if code == 0:
            assert record["sequences"]["rows"][0][:2] == [1, 2000001000000]
        else:
            assert record["error"]["name"] == "LatticeBudget"


def test_huge_radicand_ends_with_a_record(tmp_path, result_validator):
    # its threshold's radicand, about 10^37, leaves a cofactor past 10^15
    # once its factors below 10^5 are divided out
    path = write_problem(tmp_path, {
        "kind": "cone",
        "payload": {"model": {"type": "abelian_cover", "base_sq": 1,
                              "mixed": 1000000000000000003, "pol_sq": 1}},
    })
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "locvol.cli", "cone-volume", path],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 3, proc.stdout
    assert "Traceback" not in proc.stderr
    record = json.loads(proc.stdout)
    result_validator.validate(record)
    assert record["error"]["name"] == "RadicandBudget"


def test_huge_monomial_prefix_grid_ends_with_a_record(tmp_path, result_validator):
    # 2^24 + 1 prefixes, one past the fibre budget
    path = write_problem(tmp_path, {"kind": "monomial",
                                    "payload": {"generators": [[1 << 24, 0], [0, 1]]}})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "locvol.cli", "monomial-mult", path, "--p-max", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    record = json.loads(proc.stdout)
    result_validator.validate(record)
    assert record["error"]["name"] == "LatticeBudget"


FUJITA_REGRESSIONS = {
    # caps 2 and 4 of a doubling search gave the same hull, short of points
    "missed-points": ({"cone": {"generators": [[-1, 0, 2], [1, -2, 0], [-1, -1, -2]]},
                       "rays": [[-1, -1, -2], [-1, 0, 2], [1, -2, 0], [-1, -3, 0]],
                       "coeffs": [1, 3, -3, -1]},
                      ["p,mult,normalized", "1,13/5,13/5", "2,64/5,8/5"]),
    # a doubling search never saw two equal hulls
    "never-stable": ({"cone": {"generators": [[2, 2, 1], [2, -1, -2], [1, 2, 0]]},
                      "rays": [[1, 2, 0], [2, -1, -2], [2, 2, 1], [5, 3, -1]],
                      "coeffs": [1, -1, -2, -1]},
                     ["p,mult,normalized", "1,17/3,17/3", "2,2/1,1/4"]),
}


@pytest.mark.parametrize("case", sorted(FUJITA_REGRESSIONS))
def test_fujita_hulls_are_exact(tmp_path, case):
    payload, expected = FUJITA_REGRESSIONS[case]
    path = write_problem(tmp_path, {"kind": "fujita", "payload": payload,
                                    "options": {"p_max": 2}})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "locvol.cli", "fujita-check", path, "--output", "csv"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines() == expected


def test_sequence_length_below_one_is_invalid():
    for argv in (("fujita-check", fixture("tnc_fujita.json"), "--p-max", "-1"),
                 ("monomial-mult", fixture("mon_x3xy3.json"), "--p-max", "0"),
                 ("toric-h1", fixture("tnc.json"), "--m-max", "0")):
        code, out, _ = invoke(*argv)
        assert code == 2, out
        assert json.loads(out)["error"]["code"] == "validation"


def test_overlong_sequence_ends_with_a_record(tmp_path, result_validator):
    # no lattice budget bounds these (lambda-seq counts none, and the toric
    # difference is empty), so only the sequence budget stops them
    toric = write_problem(tmp_path, {
        "kind": "toric",
        "payload": {"cone": {"generators": [[1, 0], [0, 1]]},
                    "rays": [[1, 0], [0, 1], [1, 1]], "coeffs": [0, 0, 1]},
    })
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for sub, path in (("lambda-seq", fixture("pspace.json")), ("toric-h1", toric)):
        proc = subprocess.run(
            [sys.executable, "-m", "locvol.cli", sub, path, "--m-max", "100000000"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 3, proc.stdout
        assert "Traceback" not in proc.stderr
        record = json.loads(proc.stdout)
        result_validator.validate(record)
        assert record["error"]["name"] == "SequenceBudget"


# one fixture for each of the 10 subcommands
SUBCOMMAND_FIXTURES = [("toric-volume", "tnc.json"), ("toric-h1", "tnc.json"),
                       ("monomial-mult", "mon_x3xy3.json"), ("surface-volume", "a1.json"),
                       ("cone-volume", "abelian_cover.json"), ("cone-gamma", "pspace.json"),
                       ("bdff-volume", "p1xC.json"), ("lambda-seq", "pspace.json"),
                       ("fujita-check", "tnc_fujita.json"),
                       ("convexity-check", "tnc_convexity.json")]

# prints, after each stage, the stage, which of the third-party modules the
# package must not load are loaded, and which locvol modules are loaded; the
# third-party modules are imported last when the second argument is "all"
IMPORT_PROBE = """
import io, json, sys
def seen(stage):
    print(json.dumps([stage, [m for m in ("jsonschema", "numpy") if m in sys.modules],
                      sorted(m for m in sys.modules if m.partition(".")[0] == "locvol")]))
import locvol
seen("import locvol")
from locvol import cli
seen("import locvol.cli")
for sub, path in json.loads(sys.argv[1]):
    seen([sub, cli.run([sub, path], stdout=io.StringIO())])
if sys.argv[2] == "all":
    import jsonschema, numpy
    seen("import jsonschema, numpy")
"""


def import_probe(runs, third_party, path=()):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), *map(str, path)]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(runs),
                           "all" if third_party else "none"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_no_subcommand_loads_numpy_or_jsonschema(tmp_path):
    assert sorted(sub for sub, _ in SUBCOMMAND_FIXTURES) == sorted(SUBCOMMANDS)
    runs = [(sub, fixture(name)) for sub, name in SUBCOMMAND_FIXTURES]
    # numpy is no test dependency: the probe's own path carries a stub of it
    (tmp_path / "numpy.py").write_text('"""Stub: the probe only checks that it is seen."""\n')
    stages = [stage[:2] for stage in import_probe(runs, third_party=True, path=[tmp_path])]
    expected = [["import locvol", []], ["import locvol.cli", []]]
    expected += [[[sub, 0], []] for sub, _ in SUBCOMMAND_FIXTURES]
    # the probe can see both
    expected.append(["import jsonschema, numpy", ["jsonschema", "numpy"]])
    assert stages == expected


# run with -S: a site hook may import importlib.resources before the probe
RESOURCES_PROBE = """
import io, json, sys
from locvol import cli
for sub, path in json.loads(sys.argv[1]):
    print(json.dumps([sub, cli.run([sub, path], stdout=io.StringIO()),
                      "importlib.resources" in sys.modules]))
import importlib.resources
print(json.dumps(["import importlib.resources", 0, "importlib.resources" in sys.modules]))
"""


def test_no_subcommand_loads_importlib_resources():
    runs = [(sub, fixture(name)) for sub, name in SUBCOMMAND_FIXTURES]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", RESOURCES_PROBE, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the last line shows that the probe can see the module
    assert [json.loads(line) for line in proc.stdout.splitlines()] == (
        [[sub, 0, False] for sub, _ in runs] + [["import importlib.resources", 0, True]])


CLI_MODULES = ["locvol", "locvol.cli", "locvol.exactnum"]
# the kernel modules each family of subcommands loads on top of CLI_MODULES:
# toric calls need no surface or cone layer, and surface and cone calls
# need no toric or monomial layer, nor the polyhedral kernel, save its
# double description (dd) when a lattice's psef cone is spanned by generators
FAMILY_MODULES = {
    "toric": ["dd", "geometry", "lattice", "linalg", "toric"],
    "monomial": ["dd", "geometry", "lattice", "linalg", "monomial", "toric"],
    "surface": ["linalg", "surface"],
    "cone": ["cone", "linalg", "surface"],
}
# p1xC.json's lattice has psef generators: its cone takes one double description
PSEF_GENERATOR_FIXTURES = {"p1xC.json": ["dd"]}
SUBCOMMAND_FAMILY = {
    "toric-volume": "toric", "toric-h1": "toric", "fujita-check": "toric",
    "convexity-check": "toric", "monomial-mult": "monomial",
    "surface-volume": "surface", "cone-volume": "cone", "cone-gamma": "cone",
    "bdff-volume": "cone", "lambda-seq": "cone",
}


@pytest.mark.parametrize("sub, name", SUBCOMMAND_FIXTURES)
def test_each_subcommand_loads_only_its_family(sub, name):
    assert sorted(SUBCOMMAND_FAMILY) == sorted(SUBCOMMANDS)
    family = [f"locvol.{m}" for m in FAMILY_MODULES[SUBCOMMAND_FAMILY[sub]]
              + PSEF_GENERATOR_FIXTURES.get(name, [])]
    assert import_probe([(sub, fixture(name))], third_party=False) == [
        ["import locvol", [], ["locvol"]],
        ["import locvol.cli", [], CLI_MODULES],
        [[sub, 0], [], sorted(CLI_MODULES + family)],
    ]


def test_star_import_binds_every_exported_name():
    import importlib

    import locvol

    assert len(locvol.__all__) == len(set(locvol.__all__)) == 40
    names = {}
    exec("from locvol import *", names)
    for name in locvol.__all__:
        obj = names[name]
        home = importlib.import_module(obj.__module__)
        assert obj.__module__.startswith("locvol.") and getattr(home, name) is obj, name
        assert getattr(locvol, name) is obj


def test_unknown_package_attribute_raises_attribute_error():
    import locvol

    with pytest.raises(AttributeError, match="no_such_name"):
        locvol.no_such_name
    assert not hasattr(locvol, "LatticeBudget")  # exported by geometry only


ERROR_ROOTS = [("geometry", "GeometryError"), ("toric", "ToricError"),
               ("monomial", "MonomialError"), ("surface", "SurfaceError"),
               ("cone", "ConeError")]


@pytest.mark.parametrize("module, root", ERROR_ROOTS)
def test_kernel_errors_exit_3_through_one_root(monkeypatch, result_validator, module, root):
    import importlib

    from locvol import LocvolError, cli

    base = getattr(importlib.import_module(f"locvol.{module}"), root)
    assert issubclass(base, LocvolError)
    failure = type(f"Stubbed{root}", (base,), {})

    def runner(problem, opts):
        raise failure("stubbed failure")

    monkeypatch.setitem(cli._RUNNERS, "surface-volume", runner)
    code, out, _ = invoke("surface-volume", fixture("a1.json"))
    assert code == 3
    record = json.loads(out)
    assert record["error"] == {"code": "computation", "name": f"Stubbed{root}",
                               "message": "stubbed failure"}
    result_validator.validate(record)


def test_value_error_while_building_still_exits_2(monkeypatch):
    from locvol import cli

    def build(payload):
        raise ValueError("stubbed payload")

    monkeypatch.setitem(cli._BUILDERS, "surface", build)
    code, out, _ = invoke("surface-volume", fixture("a1.json"))
    assert code == 2
    assert json.loads(out)["error"] == {"code": "validation", "name": "ValidationFailure",
                                        "message": "stubbed payload"}


def test_value_error_after_building_exits_3(monkeypatch):
    from locvol import cli

    def runner(problem, opts):
        cli._objects(problem)
        raise ValueError("stubbed computation")

    monkeypatch.setitem(cli._RUNNERS, "surface-volume", runner)
    code, out, _ = invoke("surface-volume", fixture("a1.json"))
    assert code == 3
    assert json.loads(out)["error"] == {"code": "computation", "name": "ValueError",
                                        "message": "stubbed computation"}


def test_builders_mirror_the_schema():
    # a new kind needs a builder, a schema entry and a subcommand
    from locvol import cli

    schema = json.loads((SCHEMAS / "problem.schema.json").read_text())
    kinds = set(schema["properties"]["kind"]["enum"])
    assert set(cli._BUILDERS) == kinds
    assert set(cli._BUILDERS) == {k for ks in SUBCOMMANDS.values() for k in ks}
    payload_ref = {}
    for rule in schema["allOf"]:
        kind = rule["if"]["properties"]["kind"]
        ref = rule["then"]["properties"]["payload"]["$ref"]
        for k in kind.get("enum", [kind.get("const")]):
            payload_ref[k] = ref
    assert set(payload_ref) == kinds
    for a in kinds:
        for b in kinds:
            same_ref = payload_ref[a] == payload_ref[b]
            assert same_ref == (cli._BUILDERS[a] is cli._BUILDERS[b]), (a, b)


def test_dd_budget_ends_with_a_record(monkeypatch, result_validator):
    from locvol import dd

    monkeypatch.setattr(dd, "RAY_LIMIT", 1)
    code, out, _ = invoke("toric-volume", fixture("tnc.json"))
    assert code == 3
    record = json.loads(out)
    assert record["error"]["code"] == "computation"
    assert record["error"]["name"] == "RayBudget"
    result_validator.validate(record)


def test_packaged_schema_matches_published_copy():
    from importlib import resources

    packaged = resources.files("locvol").joinpath(
        "schemas/problem.schema.json").read_text()
    published = (SCHEMAS / "problem.schema.json").read_text()
    assert packaged == published


def test_all_fixtures_validate_against_problem_schema():
    schema = json.loads((SCHEMAS / "problem.schema.json").read_text())
    validator = Draft202012Validator(schema)
    for path in SCHEMAS.glob("*.json"):
        if "schema" in path.name:
            continue
        validator.validate(json.loads(path.read_text()))


# one fixture per problem kind
TRACED_RUNS = {"toric": ("toric-volume", "tnc.json"),
               "monomial": ("monomial-mult", "mon_x3xy3.json"),
               "surface": ("surface-volume", "a1.json"),
               "cone": ("cone-volume", "abelian_cover.json"),
               "tcomp": ("bdff-volume", "p1xC.json"),
               "fujita": ("fujita-check", "tnc_fujita.json"),
               "logconvexity": ("convexity-check", "tnc_convexity.json")}


@pytest.mark.parametrize("kind", sorted(TRACED_RUNS))
def test_traced_cli_prints_what_the_cli_prints(kind):
    # the benchmark's traced cli_fixtures run reads the last stderr line of
    # perfbench/cli_traced.py; tracing must leave stdout and the exit code alone
    sub, name = TRACED_RUNS[kind]
    assert json.loads((SCHEMAS / name).read_text())["kind"] == kind
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run([sys.executable, "-m", "locvol.cli", sub, fixture(name)],
                           capture_output=True, text=True, env=env, timeout=120)
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "cli_traced.py"), sub, fixture(name)],
        capture_output=True, text=True, env=env, timeout=120)
    assert plain.returncode == 0, plain.stdout + plain.stderr
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    summary = json.loads(traced.stderr.splitlines()[-1])
    assert summary["missing"] == []
