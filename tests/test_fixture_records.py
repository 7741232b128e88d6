"""CLI records pinned byte for byte.

Each line of `fixture_records.jsonl` names a subcommand, a fixture of
`docs/schemas` and the size options written into the file's own options:
the twelve runs of the benchmark's cli_fixtures workload.  It holds the
exit code and stdout the CLI gave for that run when the file was written.
A change meant to keep results keeps every record.
"""

import io
import json
from pathlib import Path

import pytest

from locvol.cli import run

HERE = Path(__file__).resolve().parent
SCHEMAS = HERE.parent / "docs" / "schemas"
RECORDS = [json.loads(line)
           for line in (HERE / "fixture_records.jsonl").read_text().splitlines()]


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
