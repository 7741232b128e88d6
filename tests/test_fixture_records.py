"""CLI records pinned byte for byte.

Each line of `fixture_records.jsonl` names a subcommand, a fixture of
`docs/schemas` and the size options written into the file's own options
(`null` keeps the fixture's own).  It holds the exit code and stdout the
CLI gave for that run when the file was written.  The first twelve lines
are the runs of the benchmark's cli_fixtures workload; the rest complete
every fixture x subcommand pair, most of them refusals of a fixture whose
kind the subcommand does not take.  A change meant to keep results keeps
every record.

`chamber_records.jsonl` pins the cone subcommands on P^2 blown up at three
points (`BLOWN_UP_PLANE`), whose volume functions cross four Zariski
chambers each; no fixture reaches a walk with more than one piece.
"""

import io
import json
from pathlib import Path

import pytest

from locvol.cli import SUBCOMMANDS, run

HERE = Path(__file__).resolve().parent
SCHEMAS = HERE.parent / "docs" / "schemas"
RECORDS = [json.loads(line)
           for line in (HERE / "fixture_records.jsonl").read_text().splitlines()]
CHAMBER_RECORDS = [json.loads(line)
                   for line in (HERE / "chamber_records.jsonl").read_text().splitlines()]
_CURVES = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
           [1, -1, -1, 0], [1, -1, 0, -1], [1, 0, -1, -1]]
BLOWN_UP_PLANE = {
    "type": "lattice",
    "gram": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    "canonical": [-3, 1, 1, 1],
    "k": [6, -2, -3, -1],
    "ample": [3, -1, -1, -1],
    "h": [4, 0, -1, 0],
    "negative_curves": _CURVES,
    "psef_generators": _CURVES,
    "envelope_nef_certified": True,
}


def _run(sub, problem, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem, sort_keys=True))
    out = io.StringIO()
    code = run([sub, str(path)], stdout=out, stderr=io.StringIO())
    return code, out.getvalue()


def test_every_fixture_runs_under_every_subcommand():
    fixtures = {p.name for p in SCHEMAS.glob("*.json") if not p.name.endswith("schema.json")}
    pinned = [(r["sub"], r["fixture"]) for r in RECORDS]
    assert sorted(pinned) == sorted((s, f) for s in SUBCOMMANDS for f in fixtures)


@pytest.mark.parametrize("record", RECORDS,
                         ids=[f"{r['sub']}-{r['fixture']}" for r in RECORDS])
def test_cli_record_is_pinned(tmp_path, record):
    problem = json.loads((SCHEMAS / record["fixture"]).read_text())
    if record["options"]:
        problem["options"] = dict(record["options"])
    assert _run(record["sub"], problem, tmp_path) == (record["exit"], record["stdout"])


@pytest.mark.parametrize("record", CHAMBER_RECORDS,
                         ids=[f"{r['sub']}-{r['kind']}" for r in CHAMBER_RECORDS])
def test_multi_chamber_record_is_pinned(tmp_path, record):
    problem = {"kind": record["kind"], "payload": {"model": BLOWN_UP_PLANE}}
    assert _run(record["sub"], problem, tmp_path) == (record["exit"], record["stdout"])
