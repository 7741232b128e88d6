"""One traced `locvol` CLI call, for the traced run of cli_fixtures.

    python3 perfbench/cli_traced.py <subcommand> <problem.json>

Standard output is exactly what `python -m locvol.cli` prints.  The last
line on standard error is a JSON object with the import time of
locvol.cli, the per-layer totals of locvol.cli.run's stages and of the
kernel layers below them, and the spans themselves.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main(argv):
    start = time.perf_counter()
    import locvol.cli as cli

    import_ms = (time.perf_counter() - start) * 1e3
    tracer = tracing.Tracer()
    tracer.install()
    tracer.install_cli(cli)
    code = cli.run(argv)
    sys.stdout.flush()
    tracer.uninstall()
    summary = tracer.totals()
    summary["import_ms"] = import_ms
    summary["spans"] = tracer.spans
    sys.stderr.write(json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
