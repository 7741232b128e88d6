"""locvol benchmark: four seeded workloads, every output checked exactly.

    python3 perfbench/run.py --workload toric_h1 --seed 1 --seconds 20 --trace 0

Workloads (see WORKLOADS.md): cli_fixtures, toric_h1, saturation_seq,
exact_invariants.  Load is closed-loop from this one process: each op
starts when the previous one has returned and been checked.  Ops run in
rounds (one op per slot of the workload, in seeded order, with seeded
value-preserving variations); the run keeps starting rounds until
--seconds have passed, so every run measures whole rounds.

--trace 0 reports the end-to-end metrics (peak memory, set-up time); op
wall and CPU times go to the diagnostics line.  --trace 1 runs the same ops
with per-layer tracing (tracing.py) and reports the per-layer metrics.
Earlier stdout lines carry the environment and diagnostics; the last line
is the result object.  Exit status is 0 whenever a result is printed; a run whose
checks fail reports "correct": false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from math import ceil

import problems as P
import oracles

WORK = P.ROOT / ".perfbench_work"
OP_TIMEOUT_S = 60
SETUP_PROBES = 7
TRACE_SAMPLE = 3
# Tail percentile per workload, reported in the diagnostics: the highest
# whole percentile with at least ten samples beyond it at the fewest samples
# a 20 s run made at this commit (36 for the round-of-9-to-12 workloads).
# It is fixed, so a change that fits more rounds into a run does not read a
# different percentile.
TAIL_PCT = {"cli_fixtures": 72, "toric_h1": 72, "saturation_seq": 72,
            "exact_invariants": 99}
# ops timed with the default thread pool and with LOCVOL_THREADS=1
THREAD_BASELINE = (
    {"kind": "h1", "family": "tnc", "t": "1", "m_max": 30},
    {"kind": "h1", "family": "tnc", "t": "3/2", "m_max": 40},
    {"kind": "h1", "family": "q4", "t": None, "m_max": 8},
)


def describe(op):
    """An op as reported in diagnostics (CLI ops by subcommand and fixture)."""
    if op["kind"] == "cli":
        return {"sub": op["sub"], "fixture": op["fixture"]}
    return op


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(P.SRC)
    return env


class Session:
    """Inputs, checkers and tallies of one process's run."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.pinned = P.load_pinned()
        self.attempted = self.failed = 0
        self.failures = []
        self.import_ms = None
        self.cli_ops = self.validator = None
        self.workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
        if workload == "cli_fixtures":
            from jsonschema import Draft202012Validator

            schema = json.loads((P.FIXTURES / "result.schema.json").read_text())
            self.validator = Draft202012Validator(schema)
            self.cli_ops = P.write_cli_inputs(self.workdir)
        else:
            sys.path.insert(0, str(P.SRC))
            start = time.perf_counter()
            import locvol  # noqa: F401

            self.import_ms = (time.perf_counter() - start) * 1e3
        self.first_round = P.round_ops(workload, seed, 0, self.pinned, self.cli_ops)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def record(self, op, error):
        """Tally one checked op; True when its output was correct."""
        self.attempted += 1
        if error is None:
            return True
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append({"op": describe(op), "error": error})
        return False

    def run_cli(self, op, traced=False):
        """One cold CLI subprocess: (wall s, cpu s, stdout, child summary, ok)."""
        if traced:
            cmd = [sys.executable, str(P.HERE / "cli_traced.py"), op["sub"], op["path"]]
        else:
            cmd = [sys.executable, "-m", "locvol.cli", op["sub"], op["path"]]
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, env=cli_env(),
                                  cwd=P.ROOT, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - start
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (time.process_time() - cpu0 + ru1.ru_utime - ru0.ru_utime
               + ru1.ru_stime - ru0.ru_stime)
        error = summary = None
        if proc is None:
            error, stdout = f"timed out after {OP_TIMEOUT_S}s", b""
        else:
            stdout = proc.stdout
            try:
                oracles.check_cli(op, proc.returncode, stdout, self.pinned,
                                  self.validator)
                if traced:
                    summary = json.loads(proc.stderr.decode().splitlines()[-1])
            except (oracles.Mismatch, ValueError, IndexError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        return wall, cpu, stdout, summary, self.record(op, error)

    def run_inprocess(self, op):
        """One library call: (wall s, cpu s, repr of the result, ok)."""
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            result, error = P.execute(op, self.pinned), None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        if error is None and wall > OP_TIMEOUT_S:
            error = f"took {wall:.1f}s, over the {OP_TIMEOUT_S}s limit"
        if error is None:
            try:
                oracles.check(op, result, self.pinned)
            except oracles.Mismatch as exc:
                error = str(exc)
        return wall, cpu, repr(result).encode(), self.record(op, error)

    def run_op(self, op, traced=False):
        """(wall s, cpu s, output bytes, child trace summary or None, ok)."""
        if op["kind"] == "cli":
            return self.run_cli(op, traced)
        wall, cpu, out, ok = self.run_inprocess(op)
        return wall, cpu, out, None, ok

    def warm_up(self):
        op = self.cli_ops[0] if self.cli_ops else P.WARMUP[self.workload]
        self.run_op(op)


def setup_probe(session):
    """Wall seconds for a fresh process to import, build inputs and warm up."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(P.HERE / "run.py"), "--workload", session.workload,
         "--seed", str(session.seed), "--setup-probe"],
        capture_output=True, cwd=P.ROOT, timeout=OP_TIMEOUT_S)
    wall = time.perf_counter() - start
    session.record({"kind": "setup-probe"}, None if proc.returncode == 0 else
                   f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return wall


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs of the machine, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def timed_rounds(session, seconds, tracer=None):
    """Run whole rounds until `seconds` have passed; per-op samples.

    Only the first round's samples keep their op, so memory does not grow
    with the number of ops a run completes.
    """
    samples = []  # (op or None, wall s, cpu s, ok)
    summaries = []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        ops = session.first_round if index == 0 else P.round_ops(
            session.workload, session.seed, index, session.pinned, session.cli_ops)
        for op in ops:
            if tracer is not None:
                tracer.op = len(samples)
            wall, cpu, _, summary, ok = session.run_op(op, traced=tracer is not None)
            samples.append((op if index == 0 else None, wall, cpu, ok))
            if summary is not None:
                summaries.append(summary)
        index += 1
    return samples, summaries, index


def tail(latencies, pct):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(latencies)
    rank = max(1, ceil(pct * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(session, samples, setup_walls, steal_share):
    walls = [s[1] for s in samples]
    cpus = [s[2] for s in samples]
    verified = sum(1 for s in samples if s[3])
    who = (resource.RUSAGE_CHILDREN if session.workload == "cli_fixtures"
           else resource.RUSAGE_SELF)
    pct = TAIL_PCT[session.workload]
    tail_s, beyond = tail(walls, pct)
    metrics = {
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_walls), "s"),
    }
    # time figures drift with the host machine's load here; see WORKLOADS.md
    diag = {"cpu_ms_per_op": sum(cpus) / len(cpus) * 1e3,
            "op_ms_p50": statistics.median(walls) * 1e3,
            "op_ms_tail": tail_s * 1e3, "op_ms_tail_percentile": pct,
            "samples_beyond_tail": beyond, "samples": len(walls),
            "ops_per_s": verified / sum(walls),
            "setup_samples_s": setup_walls,
            # share of the machine's CPU time its host took away during the
            # timed rounds; wall-time metrics drift with it
            "host_steal_share": steal_share}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, diag


def thread_baseline(session):
    """Diagnostic: the same toric_h1 ops on the default pool and on one thread."""
    out = {}
    for label, value in (("default_pool_s", None), ("one_thread_s", "1")):
        if value is not None:
            os.environ["LOCVOL_THREADS"] = value
        try:
            out[label] = sum(session.run_inprocess(op)[0] for op in THREAD_BASELINE)
        finally:
            os.environ.pop("LOCVOL_THREADS", None)
    out["ops"] = [dict(op) for op in THREAD_BASELINE]
    return out


def trace_sample(session, samples, tracer):
    """Untraced and traced runs of a few first-round ops of median latency:
    tracing overhead, and whether outputs are identical."""
    by_latency = sorted((s for s in samples if s[0] is not None), key=lambda s: s[1])
    mid = len(by_latency) // 2
    picked = [s[0] for s in by_latency[max(0, mid - 1):mid - 1 + TRACE_SAMPLE]]
    plain = traced = 0.0
    identical = True
    tracer.op = "overhead-sample"
    for op in picked:
        tracer.uninstall()
        wall_plain, _, out_plain, _, _ = session.run_op(op)
        if op["kind"] != "cli":
            tracer.install()
        wall_traced, _, out_traced, _, _ = session.run_op(op, traced=True)
        plain += wall_plain
        traced += wall_traced
        if out_plain != out_traced:
            identical = False
            session.record(op, "traced output differs from untraced output")
    tracer.uninstall()
    return (traced - plain) * 1e3 / len(picked), identical, [describe(op) for op in picked]


def environment(threads_env):
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "jsonschema": version("jsonschema"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "LOCVOL_THREADS_set_by_caller": threads_env}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=P.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once, warm up, and exit")
    args = parser.parse_args(argv)
    if not (P.SRC / "locvol" / "__init__.py").is_file() or not P.FIXTURES.is_dir():
        sys.exit(f"no locvol source tree under {P.ROOT}: run from a checkout")
    threads_env = os.environ.pop("LOCVOL_THREADS", None)

    if args.setup_probe:
        session = Session(args.workload, args.seed)
        session.warm_up()
        session.close()
        return 1 if session.failed else 0

    session = Session(args.workload, args.seed)
    try:
        setup_walls = [] if args.trace else [setup_probe(session)
                                             for _ in range(SETUP_PROBES)]
        session.warm_up()
        diag = {"workload": args.workload, "seed": args.seed}
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            if args.workload != "cli_fixtures":
                tracer.install()
            samples, summaries, rounds = timed_rounds(session, args.seconds, tracer)
            tracer.uninstall()
            totals = tracing.merge(tracing.empty_totals(), tracer.totals())
            for summary in summaries:
                tracing.merge(totals, summary)
            if session.cli_ops:
                import_ms = statistics.mean(s["import_ms"] for s in summaries)
            else:
                import_ms = session.import_ms
            overhead, identical, picked = trace_sample(session, samples, tracer)
            metrics = tracing.layer_metrics(totals, len(samples), import_ms, overhead)
            op_ms = statistics.mean(s[1] for s in samples) * 1e3
            diag["traced_op_ms_mean"] = op_ms
            diag["self_ms_share_of_op"] = {
                name: value["value"] / op_ms for name, value in metrics.items()
                if name.endswith("self_ms") and value["value"]}
            diag.update(trace_overhead_ops=picked, traced_output_identical=identical,
                        missing_targets=totals["missing"])
            spans = tracer.spans + [s for summary in summaries for s in summary["spans"]]
            WORK.mkdir(exist_ok=True)
            (WORK / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps({"totals": totals, "spans": spans}))
        else:
            steal0, total0 = cpu_jiffies()
            samples, _, rounds = timed_rounds(session, args.seconds)
            steal1, total1 = cpu_jiffies()
            steal_share = (steal1 - steal0) / max(1, total1 - total0)
            metrics, more = end_to_end(session, samples, setup_walls, steal_share)
            diag.update(more)
            if args.workload == "toric_h1":
                diag["thread_baseline"] = thread_baseline(session)
        diag.update(rounds=rounds, failures=session.failures)
    finally:
        session.close()
    print(json.dumps({"env": environment(threads_env)}))
    print(json.dumps({"diagnostics": diag}, default=str))
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
