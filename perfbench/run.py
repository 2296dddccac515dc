"""Benchmark of the permstats CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from `src/`.  Each
operation is one in-process `permstats.cli.run(argv)` call; its stdout is
captured and checked by `perfbench.checks` outside the timed region.  A pass
runs a workload's op list once; passes repeat until S seconds of passes have
been measured (and at least the workload's `min_passes`).  Everything runs in
this one process, single-threaded, apart from the short set-up probes.

The host this was tuned on runs the same code up to 1.4x slower for minutes
at a time, and no statistic taken within one run removes that.  So before
each op of an untraced run the benchmark also times two chunks of a fixed
pure-Python loop, outside the op's timing, and reports op and pass times and
the throughput at the reference speed: the raw time multiplied by REF_CHUNK_S
over the run's median chunk time.  The raw values are in the record.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced and
traced passes over the same inputs and prints the per-layer metrics from the
traced ones (per pass), with the tracing overhead.  The last stdout line is the
result object; a fuller record (environment, every op's stdout sha256, the
known-defect probes, the check self-test) goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path[0] = str(ROOT)
sys.path.insert(1, str(SRC))

from perfbench import checks  # noqa: E402
from perfbench.workloads import KNOWN_DEFECT_PROBES, WORKLOADS, Op, Workload  # noqa: E402

# A seed kept out of every run made while developing a change; use it once to
# confirm a claimed gain.
HELD_OUT_SEED = 90017
SETUP_REPEATS = 7
# The op tail is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10
# End-to-end times are given at the machine speed at which one calibration
# chunk takes REF_CHUNK_S (about the median on the reference machine, so
# reported times there read close to raw ones).
CHUNK_ITERATIONS = 50_000
REF_CHUNK_S = 0.005

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import permstats.cli
from perfbench.workloads import WORKLOADS
WORKLOADS[sys.argv[3]].ops(int(sys.argv[4]), 0)
print(repr(time.perf_counter() - t0))
"""

WARMUP = (
    ("verify", "--max-n", "3"),
    ("sample", "--n", "5", "--trials", "20"),
    ("improve", "--stat", "s-star", "--perm", "3 1 4 2 5"),
    ("improve", "--stat", "disp", "--perm", "1 2 3 4"),
    ("metrics", "--perm", "2 4 1 3"),
    ("construct", "--n", "10", "--displacement", "1/4"),
    ("extremal", "--n", "6", "--stat", "s-star"),
)


@dataclass
class OpResult:
    op: Op
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None
    problems: tuple[str, ...] = ()
    report: dict[str, Any] | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def call(cli: Any, argv: tuple[str, ...]) -> tuple[float, int | None, str, str | None]:
    """One CLI call: (seconds, exit code, stdout, exception text)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, error = cli.run(list(argv)), None
    except Exception as exc:  # an op that raises is a counted failure, not a crash
        code, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
    return time.perf_counter() - t0, code, out.getvalue(), error


def calibration_chunk() -> float:
    """Seconds for a fixed pure-Python loop: a probe of the machine's speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CHUNK_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def run_pass(cli: Any, ops: list[Op],
             chunks: list[float] | None = None) -> tuple[float, list[OpResult]]:
    """Run the ops once; the pass time is the sum of their latencies.  With
    `chunks`, two calibration chunks are timed before each op and appended."""
    gc.collect()
    results = []
    for op in ops:
        if chunks is not None:
            chunks += (calibration_chunk(), calibration_chunk())
        results.append(OpResult(op, *call(cli, op.argv)))
    return sum(r.seconds for r in results), results


def check_pass(results: list[OpResult]) -> None:
    for r in results:
        if r.error is not None:
            r.problems = (f"raised {r.error}",)
        else:
            problems, r.report = checks.check(r.op, r.code, r.stdout)
            r.problems = tuple(problems)


def pass_work(wl: Workload, results: list[OpResult]) -> int:
    return sum(wl.work(r.op, r.report) for r in results if not r.failed)


def setup_once(workload: str, seed: int) -> float:
    """Import permstats (with numpy) and build the argv, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(ROOT), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def op_tail(latencies: list[float], floor_ops: int) -> tuple[float, float, int]:
    """(percentile, value, ops beyond) of the op-latency tail.

    The percentile is the highest one with TAIL_BEYOND ops beyond it in a run
    of `floor_ops` ops, the fewest a run makes; fixing it per workload keeps a
    run with one pass more or less from jumping between op kinds.  The value is
    the nearest-rank order statistic over all ops of the run.
    """
    p = max(0.0, 1.0 - TAIL_BEYOND / floor_ops)
    ordered = sorted(latencies)
    rank = max(1, math.ceil(p * len(ordered)))
    return 100 * p, ordered[rank - 1], len(ordered) - rank


def known_defects(cli: Any) -> list[dict[str, Any]]:
    rows = []
    for argv in KNOWN_DEFECT_PROBES:
        _, code, out, error = call(cli, argv)
        rows.append({"argv": list(argv), "exit": code, "raised": error, "stdout_bytes": len(out)})
    return rows


@dataclass
class Tally:
    """What a run keeps of its ops once they are checked: records, not outputs."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    records: list[dict[str, Any]] = field(default_factory=list)
    passing: dict[str, tuple[Op, dict[str, Any]]] = field(default_factory=dict)

    def add(self, k: int, traced: bool, results: list[OpResult]) -> None:
        for r in results:
            self.attempted += 1
            self.records.append(op_record(k, traced, r))
            if r.failed:
                self.failures.append(f"{r.op.label}: {'; '.join(r.problems[:3])}")
            elif r.op.kind not in self.passing:
                self.passing[r.op.kind] = (r.op, r.report)

    def self_test(self) -> dict[str, str]:
        """Feed each op kind's check one tampered output; it must be flagged."""
        return {
            kind: "flagged" if checks.tamper_flagged(op, report) else "MISSED"
            for kind, (op, report) in self.passing.items()
        }


def op_record(k: int, traced: bool, r: OpResult) -> dict[str, Any]:
    return {
        "pass": k,
        "traced": traced,
        "op": r.op.label,
        "argv_sha256": hashlib.sha256("\0".join(r.op.argv).encode()).hexdigest(),
        "stdout_sha256": hashlib.sha256(r.stdout.encode()).hexdigest(),
        "stdout_bytes": len(r.stdout.encode()),
        "latency_ms": 1000 * r.seconds,
        "exit": r.code,
        "problems": list(r.problems[:3]),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(cli: Any, wl: Workload, seed: int, seconds: float) -> dict[str, Any]:
    walls, works, latencies, setup, chunks, tally = [], [], [], [], [], Tally()
    k = measured = 0
    while k < wl.min_passes or measured < seconds:
        wall, rs = run_pass(cli, wl.ops(seed, k), chunks)
        check_pass(rs)
        measured += wall
        walls.append(wall)
        works.append(pass_work(wl, rs))
        latencies += [r.seconds for r in rs]
        tally.add(k, False, rs)
        k += 1
        # Set-up probes are spread over the run, so that they meet the same
        # slow and fast phases of the machine as the passes do.
        if len(setup) < SETUP_REPEATS * min(1.0, measured / seconds):
            setup.append(setup_once(wl.name, seed))
    rss = peak_rss_mb()
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once(wl.name, seed))
    pct, tail, beyond = op_tail(latencies, wl.min_passes * len(wl.ops(seed, 0)))
    raw = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.mean(walls), "s"),
        "op_p50_ms": (1000 * statistics.median_low(latencies), "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "work_per_s": (sum(works) / sum(walls), "1/s"),
    }
    # Op times are multiplied by the scale and rates divided by it.  Set-up
    # (a fresh interpreter importing numpy) does not follow the calibration
    # loop, and memory is not a time: both stay as measured.
    scale = REF_CHUNK_S / statistics.median(chunks)
    metrics = dict(raw)
    for name in ("wall_s", "op_p50_ms", "op_tail_ms"):
        metrics[name] = (raw[name][0] * scale, raw[name][1])
    metrics["work_per_s"] = (raw["work_per_s"][0] / scale, "1/s")
    detail = {
        "calibration": {"chunks": len(chunks), "median_chunk_s": statistics.median(chunks),
                        "ref_chunk_s": REF_CHUNK_S, "scale": scale},
        "raw_metrics": {name: {"value": v, "unit": u} for name, (v, u) in raw.items()},
        "passes": k,
        "ops": len(latencies),
        "op_tail": {"percentile": pct, "ops_beyond": beyond},
        "throughput": {wl.throughput_name: metrics["work_per_s"][0]},
        "pass_wall_s": walls,
        "pass_work": works,
        "setup_runs_s": setup,
        "chunk_s": chunks,
    }
    return {"metrics": metrics, "detail": detail, "tally": tally}


def layer_metrics(summary: dict[str, tuple[int, float, float]], counts: dict[str, float],
                  passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass, from span totals and counters."""

    def calls(name: str) -> float:
        return summary.get(name, (0, 0.0, 0.0))[0] / passes

    def incl(name: str) -> float:
        return summary.get(name, (0, 0.0, 0.0))[1] / passes

    def own(name: str) -> float:
        return summary.get(name, (0, 0.0, 0.0))[2] / passes

    def layer_self(layer: str) -> float:
        return sum(v[2] for k, v in summary.items() if k.split(".")[0] == layer) / passes

    def us_per_trial(n: int) -> float:
        trials = counts.get(f"sampling.n{n}.trials", 0)
        total = summary.get(f"sampling.n{n}.displacement_sums", (0, 0.0, 0.0))[1]
        return 1e6 * total / trials if trials else 0.0

    classified = calls("cycles.classify_jumps")
    return {
        "oracle.brute_argmax_s": (incl("oracle.brute_argmax"), "s"),
        "oracle.brute_average_s": (incl("oracle.brute_average_displacement"), "s"),
        "oracle.perms_enumerated": (counts.get("oracle.perms_enumerated", 0) / passes, "count"),
        "oracle.self_s": (layer_self("oracle"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.output_bytes": (counts.get("cli.output_bytes", 0) / passes, "bytes"),
        "core.perms_built": (calls("core.perm_build"), "count"),
        "core.perm_build_s": (incl("core.perm_build"), "s"),
        "core.spread_s": (incl("core.spread"), "s"),
        "core.dispersion_s": (incl("core.dispersion"), "s"),
        "core.self_s": (layer_self("core"), "s"),
        "extremal.is_crossing.calls": (calls("extremal.is_crossing"), "count"),
        "extremal.is_crossing_s": (incl("extremal.is_crossing"), "s"),
        "extremal.improve_noncrossing_s": (incl("extremal.improve_noncrossing"), "s"),
        "extremal.construct_prescribed_s": (incl("extremal.construct_prescribed"), "s"),
        "extremal.self_s": (layer_self("extremal"), "s"),
        "stretch.pv_compare.calls": (calls("stretch.pv_compare"), "count"),
        "stretch.pv_compare_s": (incl("stretch.pv_compare"), "s"),
        "stretch.stretch_multiplicative_s": (incl("stretch.stretch_multiplicative"), "s"),
        "stretch.stretch_additive_s": (incl("stretch.stretch_additive"), "s"),
        "stretch.is_additive_maximizer_s": (incl("stretch.is_additive_maximizer"), "s"),
        "stretch.multiplicative_maximizers_s": (incl("stretch.multiplicative_maximizers"), "s"),
        "stretch.self_s": (layer_self("stretch"), "s"),
        "cycles.find_improvement.calls": (calls("cycles.find_improvement"), "count"),
        "cycles.find_improvement_self_s": (own("cycles.find_improvement"), "s"),
        "cycles.classify_jumps.calls": (classified, "count"),
        "cycles.classify_jumps_s": (incl("cycles.classify_jumps"), "s"),
        "cycles.two_opt_s": (incl("cycles.two_opt"), "s"),
        "cycles.cycle_stat_s": (incl("cycles.cycle_stat"), "s"),
        "cycles.best_unrolling_s": (incl("cycles.best_unrolling"), "s"),
        "cycles.rewire_yield": (
            calls("cycles.two_opt") / classified if classified else 0.0, "ratio"
        ),
        "cycles.self_s": (layer_self("cycles"), "s"),
        "sampling.n10.displacement_sums_s": (incl("sampling.n10.displacement_sums"), "s"),
        "sampling.n1000.displacement_sums_s": (incl("sampling.n1000.displacement_sums"), "s"),
        "sampling.n10.us_per_trial": (us_per_trial(10), "us"),
        "sampling.n1000.us_per_trial": (us_per_trial(1000), "us"),
        "sampling.empirical_stats_self_s": (own("sampling.empirical_stats"), "s"),
        "sampling.concentration_report_s": (incl("sampling.concentration_report"), "s"),
        "sampling.self_s": (layer_self("sampling"), "s"),
    }


def measure_traced(cli: Any, package: Any, wl: Workload, seed: int,
                   seconds: float) -> dict[str, Any]:
    from perfbench.tracing import Tracer

    tracer = Tracer(package)
    plain_walls, traced_walls, tally = [], [], Tally()
    k = measured = 0
    while k < 1 or measured < seconds:
        ops = wl.ops(seed, k)
        # Alternate which side runs first, so neither always follows the other.
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                wall, rs = run_pass(cli, ops)
            finally:
                tracer.uninstall()
            check_pass(rs)
            measured += wall
            (traced_walls if traced else plain_walls).append(wall)
            if traced:
                tracer.counts["cli.output_bytes"] += sum(len(r.stdout.encode()) for r in rs)
            tally.add(k, traced, rs)
        k += 1
    overheads = [t - p for t, p in zip(traced_walls, plain_walls)]
    summary = tracer.summary()
    metrics = layer_metrics(summary, tracer.counts, k)
    overhead = statistics.median(overheads)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / statistics.median(plain_walls), "ratio")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"{wl.name}.spans.npz")
    detail = {
        "passes": k,
        "spans": len(tracer.name_ids),
        "untraced_wall_s": plain_walls,
        "traced_wall_s": traced_walls,
        "span_totals": {
            name: {"calls_per_pass": c / k, "incl_s_per_pass": t / k, "self_s_per_pass": s / k}
            for name, (c, t, s) in sorted(summary.items())
        },
    }
    return {"metrics": metrics, "detail": detail, "tally": tally}


def environment(args: argparse.Namespace, np_version: str) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": np_version,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "held_out_seed": HELD_OUT_SEED,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import numpy
    import permstats
    import permstats.cli as cli

    if Path(permstats.__file__).resolve().parent != SRC / "permstats":
        raise SystemExit(f"permstats imported from {permstats.__file__}, not from {SRC}")

    wl = WORKLOADS[args.workload]
    for argv in WARMUP:
        call(cli, (*argv, "--format", "json"))
    if args.trace:
        run = measure_traced(cli, permstats, wl, args.seed, args.seconds)
    else:
        run = measure(cli, wl, args.seed, args.seconds)
    tally: Tally = run["tally"]
    failed = len(tally.failures)
    tamper = tally.self_test()
    correct = failed == 0 and all(v == "flagged" for v in tamper.values())

    record = {
        "environment": environment(args, numpy.__version__),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "fail_frac": failed / tally.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
        "detail": run["detail"],
        "check_self_test": tamper,
        "known_defects": known_defects(cli) if wl.name == "large-word" else [],
        "failures": tally.failures,
        "ops": tally.records,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    for line in tally.failures:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
