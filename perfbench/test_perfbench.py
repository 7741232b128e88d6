"""Self-tests of the benchmark's references.

    python3 -m pytest -q perfbench

A pure-Python lattice counter, independent of locvol.geometry, re-derives
the pinned h1 counts at small scales; the remaining tests pin the paper
values and closed forms against pinned.json and check that a corrupted
expected value is reported as a failure.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from itertools import product

import pytest

import oracles
import problems as P

sys.path.insert(0, str(P.SRC))

PINNED = P.load_pinned()


def brute_count(rays, coeffs, interior, m, box):
    """Integer points of (m * punctured region) minus (m * section region).

    A point is counted when it meets <u, ray> >= -m * coeff for every
    non-interior ray and fails it for some interior ray; `box` must contain
    every such point.
    """
    count = 0
    for u in product(*(range(lo, hi + 1) for lo, hi in box)):
        pairs = [sum(a * b for a, b in zip(u, r)) for r in rays]
        bounds = [-m * F(c) for c in coeffs]
        outer = all(p >= b for p, b, inner in zip(pairs, bounds, interior) if not inner)
        sections = all(p >= b for p, b in zip(pairs, bounds))
        count += outer and not sections
    return count


def tnc_box(m, t):
    # y = (u2, u3, u1 - 2 u3) are the pairings with the cone generators;
    # y1, y2 >= 0 and (1,0,0) gives y3 >= -2 y2, so a counted point, which
    # has y1 + 3 y2 + y3 < m t, has y1 + y2 < m t and u1 < m t + 2 m t
    top = int(m * F(t))
    return [(-2 * m, 3 * top), (0, top), (0, top)]


def q4_box(m):
    # u >= 0 on the orthant, and a counted point has <u, rho> < 3m for an
    # interior ray rho whose coordinates are all >= 1
    return [(0, 3 * m)] * 4


TNC_INTERIOR = (False, False, False, True, False)
Q4_INTERIOR = (False,) * 4 + (True,) * 4


@pytest.mark.parametrize("t", P.TNC_T)
def test_tnc_counts_match_brute_force(t):
    coeffs = P.tnc_coeffs(t)
    op = {"kind": "h1", "family": "tnc", "t": t, "m_max": 8}
    rows = oracles.h1_rows(op, PINNED, coeffs)
    assert rows and rows[-1][0] >= 6
    for m, count, _ in rows:
        assert brute_count(P.TNC_RAYS, coeffs, TNC_INTERIOR, m, tnc_box(m, t)) == count


def test_q4_counts_match_brute_force():
    op = {"kind": "h1", "family": "q4", "t": None, "m_max": 3}
    for m, count, _ in oracles.h1_rows(op, PINNED, P.Q4_COEFFS):
        assert brute_count(P.Q4_RAYS, P.Q4_COEFFS, Q4_INTERIOR, m, q4_box(m)) == count


def test_h1_rows_follow_the_requested_size():
    op = {"kind": "h1", "family": "tnc", "t": "3/2", "m_max": 21}
    rows = oracles.h1_rows(op, PINNED, P.tnc_coeffs("3/2"))
    assert len(rows) == 10 and rows[-1][0] == 20
    assert rows[-1][2] == F(6 * PINNED["h1"]["3/2"]["20"], 20 ** 3)


def test_pinned_values_agree_with_paper_and_closed_forms():
    toric = {e["coeffs"][3]: F(e["value"]) for e in PINNED["toric"]
             if e["family"] == "tnc"}
    assert toric["-3/2"] == oracles.PAPER["tnc_volume"]
    for t, value in toric.items():
        if -F(t) <= 1:
            assert value == (-F(t)) ** 3
    cover = PINNED["abelian"][0]
    assert cover["data"] == [2, 3, 2]
    assert cover["values"]["volume"] == oracles.PAPER["abelian_volume"]
    assert cover["values"]["bdff"] == oracles.PAPER["abelian_bdff"]
    p1xc = PINNED["lattice"][0]["values"]
    assert F(p1xc["bdff"]) == oracles.PAPER["p1xc_bdff"] and F(p1xc["volume"]) == 0
    assert F(PINNED["mixed3"]["asymptotic"]) == 8


def _sign(x, c):
    """Exact sign of a + b sqrt(c) for x = (a, b)."""
    a, b = x
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:
        return (a > 0 or b > 0) - (a < 0 or b < 0)
    return 1 if (a * a > b * b * c) == (a > 0) else -1


def _pair(value):
    if isinstance(value, dict):
        return (F(value["a"]), F(value["b"])), value["c"]
    return (F(value), F(0)), 2


@pytest.mark.parametrize("table", ["abelian", "lattice"])
def test_nef_envelope_dominates_volume(table):
    for entry in PINNED[table]:
        (big, c1), (small, c2) = _pair(entry["values"]["bdff"]), _pair(entry["values"]["volume"])
        c = c1 if big[1] else c2
        assert big[1] == 0 or small[1] == 0 or c1 == c2
        assert _sign((big[0] - small[0], big[1] - small[1]), c) >= 0


def test_closed_forms_of_cone_models():
    for n in (2, 3, 4):
        op = {"fn": "gamma", "model": {"type": "proj_space", "dim": n - 1, "h": n + 1}}
        assert F(oracles.cone_value(op, PINNED)) == F(1, n + 1)
    assert oracles.one_vertex_volume(-4, 3) == oracles.PAPER["quartic_cone"]


def test_cube_root_oracle():
    # the certified non-convexity of the tnc midpoint check (t = 1/2, 3/2)
    assert oracles.cbrt_sum_sign(F(1, 8), F(79, 24), 8) == -1
    assert oracles.cbrt_sum_sign(1, 1, 8) == 0
    assert oracles.cbrt_sum_sign(2, 2, 16) == 0  # a tie without rational roots
    assert oracles.cbrt_sum_sign(2, 2, 15) == 1
    assert oracles.icbrt(10 ** 30 - 1) == 10 ** 10 - 1


def test_rounds_are_seeded():
    for workload in ("toric_h1", "saturation_seq", "exact_invariants"):
        first = P.round_ops(workload, 7, 0, PINNED)
        assert first == P.round_ops(workload, 7, 0, PINNED)
        assert first != P.round_ops(workload, 8, 0, PINNED)


def test_every_exact_invariants_op_has_a_reference():
    for op in P.round_ops("exact_invariants", 1, 0, PINNED):
        oracles.expected(op, PINNED)


def test_corrupted_reference_is_reported():
    op = {"kind": "h1", "family": "tnc", "t": "3/2", "m_max": 6}
    result = P.execute(op, PINNED)
    oracles.check(op, result, PINNED)
    corrupted = json.loads(json.dumps(PINNED))
    corrupted["h1"]["3/2"]["4"] += 1
    with pytest.raises(oracles.Mismatch):
        oracles.check(op, result, corrupted)
    with pytest.raises(oracles.Mismatch):
        oracles.check(dict(op, m_max=8), result, PINNED)


def test_cli_record_reference(tmp_path):
    from jsonschema import Draft202012Validator

    from locvol.cli import run

    validator = Draft202012Validator(
        json.loads((P.FIXTURES / "result.schema.json").read_text()))
    for op in P.write_cli_inputs(tmp_path):
        if op["sub"] in ("fujita-check", "monomial-mult", "toric-h1"):
            continue  # the heavier fixtures run in the benchmark itself
        out = tmp_path / "out.txt"
        with out.open("w") as fh:
            assert run([op["sub"], op["path"]], stdout=fh) == 0
        oracles.check_cli(op, 0, out.read_bytes(), PINNED, validator)
        record = json.loads(out.read_text())
        record["float_value"] += "0"
        bad = (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode()
        with pytest.raises(oracles.Mismatch):
            oracles.check_cli(op, 0, bad, PINNED, validator)
