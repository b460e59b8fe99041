#!/usr/bin/env python3
"""sumsetlab benchmark: drives the CLI in-process on seeded workloads.

Usage, from the repository root:

    python3 bench/run.py --workload search-serial --seed 1 --seconds 20 --trace 0

Workloads: search-serial, search-pool, requests (see workloads.py).  The
package is imported from ./src; nothing is installed.  The CLI parser is
built once during set-up and each op's argv goes through it in-process,
the way a long-lived caller would use it.

--trace 0 replays the round (at least twice) while another round still
fits in --seconds and reports the end-to-end metrics.  --trace 1 does the
same with pairs of one untraced and one traced round and reports the
per-layer metrics, per traced round, plus the tracing overhead; the spans
go to bench/out/spans-<workload>.tsv.gz.  Full results, with sample counts
and the tail percentile used, go to bench/out/<workload>-seed<n>-trace<t>.json.

Every op's output is checked outside the timed region (see workloads.py);
search reports must also be byte-identical at 1 and 2 workers.  The last
stdout line is one JSON object {correct, attempted, failed, metrics}; the
exit code is 1 when any check failed and 2 when ./src/sumsetlab is missing
or the arguments are wrong (then nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"

SETUP_SAMPLES = 15
PARSER_BUILDS = 5
# The tail percentile must have at least this many latency samples beyond it.
MIN_BEYOND = 10

_now = time.perf_counter

# A fresh interpreter times: import + build_parser() + one warm-up op.
SETUP_CHILD = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from sumsetlab import cli
parser = cli.build_parser()
args = parser.parse_args(sys.argv[2:])
with contextlib.redirect_stdout(io.StringIO()):
    rc = args.func(args)
print(time.perf_counter() - t0, rc)
"""


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    """Runs one argv through the prebuilt parser, capturing stdout."""

    def __init__(self, parser, error_type) -> None:
        self.parser = parser
        self.error_type = error_type
        self.recorder = None

    def run(self, argv: list[str]) -> tuple[float, object, str, str]:
        buf = io.StringIO()
        rc, error = None, ""
        t0 = _now()
        try:
            with contextlib.redirect_stdout(buf):
                args = self.parser.parse_args(argv)
                if self.recorder is None:
                    rc = args.func(args)
                else:
                    rc = self.recorder.call("cli." + args.command, args.func, args)
        except self.error_type as ex:
            rc, error = 2, f"error: {ex}"
        except SystemExit as ex:
            rc, error = ex.code, "usage error"
        except Exception:  # an op that crashes is a failed op, not a crash
            error = traceback.format_exc()
        return _now() - t0, rc, buf.getvalue(), error


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    results: list


def run_round(runner: Runner, ops) -> Round:
    cpu0 = _cpu_s()
    t0 = _now()
    results = [runner.run(op.argv) for op in ops]
    return Round(_now() - t0, _cpu_s() - cpu0, results)


class Checker:
    """Validates a round's outputs; later rounds must repeat the first's bytes."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.reference: list = [None] * len(ops)
        self.reasons: dict[int, str] = {}
        self.failed = 0

    def _fail(self, i: int, reason: str, executions: int = 1) -> None:
        self.reasons.setdefault(i, reason)
        self.failed += executions

    def check(self, rnd: Round) -> None:
        for i, (op, (_, rc, out, error)) in enumerate(zip(self.ops, rnd.results)):
            if error or rc != 0:
                self._fail(i, error or f"exit code {rc}")
            elif self.reference[i] is None:
                try:
                    reason = op.check(out)
                except (ValueError, KeyError, IndexError, StopIteration) as ex:
                    reason = f"unparseable output: {ex!r}"
                if reason:
                    self._fail(i, reason)
                else:
                    self.reference[i] = out
            elif out != self.reference[i]:
                self._fail(i, "output differs from an earlier round")

    def cross_check(self, runner: Runner, rounds: int) -> dict[int, float]:
        """Rerun each search at the other worker count; reports must match.

        A mismatch fails every execution of the op.  Returns the rerun
        latencies by op index.
        """
        latency = {}
        for i, op in enumerate(self.ops):
            if op.cross_argv is None or self.reference[i] is None:
                continue
            latency[i], rc, out, error = runner.run(op.cross_argv)
            if error or rc != 0 or out != self.reference[i]:
                self._fail(i, "report differs between 1 and 2 workers", rounds)
        return latency


def repeat_for(seconds: float, step, minimum: int) -> None:
    """Run `step` at least `minimum` times, then while another one still
    fits in `seconds` (judged by the last one's duration)."""
    start = _now()
    done = 0
    while True:
        t0 = _now()
        step()
        done += 1
        if done >= minimum and _now() - start + (_now() - t0) > seconds:
            return


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(1, math.ceil(pct / 100 * len(sorted_values))) - 1]


def min_rounds(workload: str, ops) -> int:
    """Rounds needed for MIN_BEYOND latency samples beyond the tail
    percentile (and at least two, so that per-round medians mean something)."""
    per_round = sum(op.latency for op in ops)
    beyond = (1 - workloads.TAIL_PERCENTILE[workload] / 100) * per_round
    return max(2, math.ceil(MIN_BEYOND / beyond - 1e-9))


def setup_sample(workload: str) -> float:
    env = {k: v for k, v in os.environ.items() if k != "SUMSETLAB_THREADS"}
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), *workloads.warmup_argv(workload)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=60, check=False)
    if done.returncode != 0 or done.stdout.split()[1:] != ["0"]:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return float(done.stdout.split()[0])


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def end_to_end(workload, ops, rounds, setup, peak_rss_mib) -> tuple[dict, dict]:
    """End-to-end metrics (value, unit) and notes on how each was sampled."""
    lat_ms, items, busy_s = [], 0, 0.0
    for rnd in rounds:
        for op, (latency, *_rest) in zip(ops, rnd.results):
            if op.latency:
                lat_ms.append(latency * 1000)
            if op.items:
                items += op.items
                busy_s += latency
    lat_ms.sort()
    pct = workloads.TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "items_per_s": (items / busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (nearest_rank(lat_ms, pct), "ms"),
        "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": f"median wall of one round, {len(rounds)} rounds",
        "items_per_s": f"{items} items in {busy_s:.3f} s of throughput ops",
        "latency_p50_ms": f"{len(lat_ms)} samples",
        "latency_tail_ms": f"p{pct:g} of {len(lat_ms)} samples",
        "cpu_s": f"median user+sys of one round incl. children, {len(rounds)} rounds",
        "peak_rss_mib": "bench process ru_maxrss",
    }
    return metrics, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload, rec, ops, untraced, traced, parser_s, cross_latency,
              child_rss_mib) -> dict:
    """Per-layer metrics (value, unit), each per traced round."""
    n = len(traced)
    tot = rec.layer_totals()
    counts = rec.counts
    dp = rec.dp_counts()

    def spans(name: str, key: str = "self_s") -> float:
        """Per-round sum of `key` over spans named `name` or `name.<sub>`."""
        return sum(v[key] for span, v in tot.items()
                   if span == name or span.startswith(name + ".")) / n

    dp_calls = spans("engine.compute_dp", "calls")
    # Each small search ran at one worker count in the rounds and at the
    # other in the cross-check; overhead = 2-worker minus 1-worker latency.
    sign = {"search-serial": -1, "search-pool": 1}.get(workload, 0)
    pool_overhead = [
        sign * (statistics.median(r.results[i][0] for r in untraced) - cross_latency[i])
        for i, op in enumerate(ops) if op.latency and i in cross_latency
    ]
    m = {
        "engine.compute_dp.calls": (dp_calls, "count"),
        "engine.compute_dp.self_s": (spans("engine.compute_dp"), "s"),
        **{f"engine.compute_dp.{v}.self_s": (spans(f"engine.compute_dp.{v}"), "s")
           for v in ("rss", "restricted", "plain", "signed")},
        "engine.compute_dp.values_out": (dp["values_out"] / n, "count"),
        "engine.compute_dp.shift_or_steps": (dp["shift_or_steps"] / n, "count"),
        "engine.compute_dp.table_bits": (dp["table_bits"] / n, "bits"),
        "engine.compute_dp.max_table_bits": (dp["max_table_bits"], "bits"),
        "engine.compute_dp.unique_ratio": (_ratio(dp["distinct"], dp_calls), "ratio"),
        "intset.IntegerSet.validate_s": (spans("intset.IntegerSet.validate", "total_s"), "s"),
        "intset.SumsetResult.validate_s": (spans("intset.SumsetResult.validate", "total_s"), "s"),
        "intset.classify_structure.calls": (spans("intset.classify_structure", "calls"), "count"),
        "intset.classify_structure.self_s": (spans("intset.classify_structure"), "s"),
        "intset.subsums.calls": (spans("intset.subsums", "calls"), "count"),
        "intset.subsums.self_s": (spans("intset.subsums"), "s"),
        "search.minimize.self_s": (spans("search.minimize"), "s"),
        "search.sets_scanned": (counts["search.sets_scanned"] / n, "count"),
        "search.dp_per_set": (_ratio(dp["under.cli.search"], counts["search.sets_scanned"]), "ratio"),
        "search.classify.useful_ratio": (
            _ratio(counts["search.minimizers"], counts["search.classify_calls"]), "ratio"),
        "search.pool.overhead_s": (statistics.median(pool_overhead) if pool_overhead else 0.0, "s"),
        "search.pool.child_peak_rss_mib": (child_rss_mib, "MiB"),
        "bounds.check_bounds.calls": (spans("bounds.check_bounds", "calls"), "count"),
        "bounds.check_bounds.self_s": (spans("bounds.check_bounds"), "s"),
        "bounds.check_bounds.applicable_ratio": (
            _ratio(counts["bounds.entries_applicable"], counts["bounds.entries_checked"]), "ratio"),
        "inverse.inverse_verdict.calls": (spans("inverse.inverse_verdict", "calls"), "count"),
        "inverse.inverse_verdict.self_s": (spans("inverse.inverse_verdict"), "s"),
        "inverse.inverse_verdict.unsupported_ratio": (
            _ratio(counts["inverse.unsupported"], spans("inverse.inverse_verdict", "calls") * n),
            "ratio"),
        "witness.generate.self_s": (spans("witness.generate"), "s"),
        "witness.WitnessFamily.verify.calls": (spans("witness.WitnessFamily.verify", "calls"), "count"),
        "witness.WitnessFamily.verify.self_s": (spans("witness.WitnessFamily.verify"), "s"),
        "witness.ordering_guards_hold.self_s": (spans("witness.ordering_guards_hold"), "s"),
        "witness.dp_calls_per_family": (
            _ratio(dp["under.cli.witness"], spans("witness.generate", "calls") * n), "ratio"),
        "cli.handler.self_s": (spans("cli"), "s"),
        "cli.build_parser_s": (parser_s, "s"),
        "trace.overhead_s": (statistics.median(r.wall_s for r in traced)
                             - statistics.median(r.wall_s for r in untraced), "s"),
    }
    # Counts per round are whole numbers: every traced round is identical.
    return {k: (round(v) if u in ("count", "bits") else v, u) for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if opts.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "sumsetlab" / "__init__.py").is_file():
        print(f"error: no sumsetlab package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("SUMSETLAB_THREADS", None)
    sys.path.insert(0, str(SRC))

    from sumsetlab import cli
    from sumsetlab.errors import SumsetLabError

    parser_times = []
    for _ in range(PARSER_BUILDS):
        t0 = _now()
        parser = cli.build_parser()
        parser_times.append(_now() - t0)
    ops, info = workloads.make_ops(opts.workload, opts.seed)
    runner = Runner(parser, SumsetLabError)
    runner.run(workloads.warmup_argv(opts.workload))

    checker = Checker(ops)
    untraced: list[Round] = []
    traced: list[Round] = []
    setup: list[float] = []
    child_rss_mib = 0.0
    rec = None
    start = _now()

    def untraced_round() -> None:
        nonlocal child_rss_mib
        untraced.append(run_round(runner, ops))
        checker.check(untraced[-1])
        if len(untraced) == 1 and opts.workload == "search-pool":
            # Read before any set-up child runs: children's ru_maxrss is a
            # max over all of them (and survives exec, so it is not read
            # where no pool ran).
            child_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        if not opts.trace:
            # Set-up samples are spread over the run so that one slow
            # stretch of the host does not set their median.
            while len(setup) < SETUP_SAMPLES * min(1.0, (_now() - start) / opts.seconds):
                setup.append(setup_sample(opts.workload))

    if opts.trace:
        import tracer

        rec = tracer.Recorder()

        def step() -> None:
            untraced_round()
            rec.install()
            runner.recorder = rec
            try:
                traced.append(run_round(runner, ops))
            finally:
                rec.uninstall()
                runner.recorder = None
            checker.check(traced[-1])

        repeat_for(opts.seconds, step, 1)
    else:
        repeat_for(opts.seconds, untraced_round, min_rounds(opts.workload, ops))
    rounds = len(untraced) + len(traced)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while not opts.trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(opts.workload))
    cross_latency = checker.cross_check(runner, rounds)
    failed = checker.failed
    attempted = rounds * len(ops)

    OUT.mkdir(exist_ok=True)
    doc = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
           "machine": machine(), **info, "rounds": rounds,
           "attempted": attempted, "failed": failed,
           "failures": {" ".join(ops[i].argv): r for i, r in checker.reasons.items()}}
    if opts.trace:
        metrics = per_layer(opts.workload, rec, ops, untraced, traced,
                            statistics.median(parser_times), cross_latency, child_rss_mib)
        doc["spans"] = rec.write(OUT / f"spans-{opts.workload}.tsv.gz")
        notes = {}
    else:
        metrics, notes = end_to_end(opts.workload, ops, untraced, setup, peak_rss_mib)
        doc["pool_child_peak_rss_mib"] = child_rss_mib
    doc["metrics"] = {k: {"value": v, "unit": u, **({"note": notes[k]} if k in notes else {})}
                      for k, (v, u) in metrics.items()}
    (OUT / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json").write_text(
        json.dumps(doc, indent=2) + "\n")

    print(f"workload={opts.workload} seed={opts.seed} trace={opts.trace} "
          f"inputs_digest={info['inputs_digest']} rounds={rounds} ops_per_round={len(ops)}")
    if "reuse_share" in info:
        print(f"reuse_share={info['reuse_share']:.3f}")
    if not opts.trace:
        print(f"pool_child_peak_rss_mib={child_rss_mib:.1f}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:45s} {value:>16.6g} {unit}{note}")
    print(f"error_rate={failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    for i, reason in sorted(checker.reasons.items()):
        print(f"FAILED {' '.join(ops[i].argv)}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
