"""CLI records pinned byte for byte.

Each line of `fixture_records.jsonl` names a subcommand, a fixture of
`docs/schemas` and the size options written into the file's own options
(`null` keeps the fixture's own).  It holds the exit code and stdout the
CLI gave for that run when the file was written.  The first twelve lines
are the runs of the benchmark's cli_fixtures workload; the rest complete
every fixture x subcommand pair, most of them refusals of a fixture whose
kind the subcommand does not take.  A change meant to keep results keeps
every record.
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
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem, sort_keys=True))
    out = io.StringIO()
    code = run([record["sub"], str(path)], stdout=out, stderr=io.StringIO())
    assert (code, out.getvalue()) == (record["exit"], record["stdout"])
