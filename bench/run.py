#!/usr/bin/env python3
"""agreelab benchmark: one workload at one seed, closed loop, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload sweep_dense --seed 1 --seconds 35 --trace 0

One single-threaded caller issues each verdict only after the previous one
returned, in whole rounds, until ``--seconds`` have passed (sweep_dense
always runs at least three rounds). Every answer is checked; a wrong answer,
an exception or a nonzero CLI exit code counts as a failed verdict.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each round
twice, first with spans recorded at every layer boundary and then untraced,
and reports per-layer metrics and the tracing overhead.
The last line of standard output is the result as one JSON object; the full
result (environment, latency breakdown by size, checks) and the spans go to
``.bench_out/``. BENCHMARK.json at the repository root lists the metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: on a small machine the figures should measure the
# program, not the scheduler. Set before numpy is imported.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("fuzz_process", "sweep_dense", "cli_scenarios")

# setup_s is the median over the measuring process and this many fresh
# ones, half run before the timed loop and half after it so that a slow
# spell of a shared host does not cover them all. One more process runs
# first, untimed, so byte-code caches exist.
SETUP_PROBES = 6
SETUP_PROBE_TIMEOUT_S = 60
# A slow program stops taking new rounds here, so a run ends in time.
MAX_RUN_FACTOR = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
MIN_BEYOND_TAIL = 10
MAX_FAILURE_NOTES = 20


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def check_checkout() -> None:
    if not (SRC / "agreelab" / "__init__.py").is_file():
        raise BenchError(f"no agreelab sources under {SRC}")


def import_library():
    """Put the checkout's own src/ first on the path and import agreelab."""
    check_checkout()
    sys.path.insert(0, str(SRC))
    import agreelab

    if Path(agreelab.__file__).resolve().parent != SRC / "agreelab":
        raise BenchError(f"imported agreelab from {agreelab.__file__}, not from {SRC}")


def set_up(workload: str, seed: int, smoke: bool, work_dir: Path):
    """Import agreelab and build the workload's first round; (workload, seconds)."""
    start = time.perf_counter()
    import_library()
    import workloads

    wl = workloads.build(workload, seed, smoke, work_dir)
    return wl, time.perf_counter() - start


def probe_setup(args, count: int) -> list[float]:
    """Set-up time of ``count`` fresh processes, each importing and building anew."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    times = []
    for _ in range(count):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class Tally:
    """Outcome of executing a list of rounds."""

    latencies: list[float] = field(default_factory=list)
    buckets: dict[str, list[float]] = field(default_factory=dict)
    failed: int = 0
    closures: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(message)


def execute(verdicts, tally: Tally, tracer=None) -> None:
    """Run each verdict in order, timing the call and checking its answer."""
    from workloads import CheckFailed

    for verdict in verdicts:
        vid = tally.attempted
        start = time.perf_counter()
        try:
            if tracer is None:
                answer = verdict.call()
            else:
                with tracer.verdict(vid):
                    answer = verdict.call()
        except Exception:
            elapsed = time.perf_counter() - start
            tally.fail(f"verdict {vid} [{verdict.bucket}] raised: {traceback.format_exc(limit=3)}")
        else:
            elapsed = time.perf_counter() - start
            try:
                tally.closures += verdict.check(answer)
            except CheckFailed as e:
                tally.fail(f"verdict {vid} [{verdict.bucket}]: {e}")
            except Exception:  # an answer too malformed to check is wrong too
                tally.fail(f"verdict {vid} [{verdict.bucket}] unreadable: {traceback.format_exc(limit=3)}")
        tally.latencies.append(elapsed)
        tally.buckets.setdefault(verdict.bucket, []).append(elapsed)


def take_rounds(wl, seconds: float, run_round) -> int:
    """Run whole rounds until ``seconds`` have passed and the workload's
    minimum count is reached; returns the number of rounds run."""
    done = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and done >= wl.min_rounds
        if done and (enough or elapsed >= MAX_RUN_FACTOR * seconds):
            return done
        run_round(wl.next_round())
        done += 1


def tail(latencies: list[float], cap: float) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile up to ``cap`` with
    at least MIN_BEYOND_TAIL samples beyond it."""
    import numpy as np

    n = len(latencies)
    pct = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if p <= cap and n * (100 - p) / 100 >= MIN_BEYOND_TAIL:
            pct = p
    return pct, float(np.percentile(latencies, pct))


def _natural_key(s: str):
    return [int(x) if x.isdigit() else x for x in re.split(r"(\d+)", s)]


def breakdown(tally: Tally) -> dict:
    """Latency per size bucket (table size, W dimension, command and file kind)."""
    return {
        b: {
            "count": len(v),
            "p50_ms": statistics.median(v) * 1e3,
            "mean_ms": statistics.fmean(v) * 1e3,
            "max_ms": max(v) * 1e3,
        }
        for b, v in sorted(tally.buckets.items(), key=lambda kv: _natural_key(kv[0]))
    }


def _git_commit() -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "agreelab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, wl) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": wl.digest,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(tally: Tally, wl, setup_times: list[float]) -> tuple[dict, dict]:
    pct, tail_s = tail(tally.latencies, wl.tail_pct)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdicts_per_s": (tally.attempted / tally.busy_s, "1/s"),
        "verdict_p50_ms": (statistics.median(tally.latencies) * 1e3, "ms"),
        "verdict_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    info = {
        "tail_percentile": pct,
        "tail_samples_beyond": tally.attempted - sum(1 for x in tally.latencies if x <= tail_s),
        "samples": tally.attempted,
        "fail_ratio": tally.failed / tally.attempted,
        "setup_samples_s": setup_times,
    }
    return metrics, info


def per_layer(traced: Tally, replay: Tally, tracer) -> tuple[dict, dict]:
    """Per-layer self time and counts, each divided by the verdicts traced,
    so that a faster program, which fits more verdicts into a run, still
    compares per unit of work."""
    n = traced.attempted
    metrics = {}
    for layer, (self_s, calls, errors) in tracer.layer_totals().items():
        metrics[f"{layer}_s"] = (self_s / n, "s/verdict")
        metrics[f"{layer}.calls"] = (calls / n, "1/verdict")
        metrics[f"{layer}.errors"] = (errors, "count")
    counts = tracer.counts
    closures = counts["agreement.closures"]
    metrics["agreement.closures"] = (closures / n, "1/verdict")
    metrics["agreement.closure_steps"] = (counts["agreement.closure_steps"] / n, "1/verdict")
    held = counts["agreement.closures_held"]
    metrics["agreement.ck_hold_ratio"] = (held / closures if closures else 0.0, "ratio")
    metrics["agreement.protocol_rounds"] = (counts["agreement.protocol_rounds"] / n, "1/verdict")
    metrics["scenario.bytes_parsed"] = (counts["scenario.bytes_parsed"] / n, "bytes/verdict")
    metrics["report.bytes"] = (counts["report.bytes"] / n, "bytes/verdict")
    metrics["trace.verdicts"] = (n, "count")
    metrics["trace.spans"] = ((len(tracer.spans) + tracer.dropped) / n, "1/verdict")
    metrics["trace.overhead_s"] = (traced.busy_s - replay.busy_s, "s")
    metrics["trace.overhead_ratio"] = (traced.busy_s / replay.busy_s - 1, "ratio")
    info = {
        "traced_busy_s": traced.busy_s,
        "untraced_busy_s": replay.busy_s,
        "closures_traced_wrapper": closures,
        "closures_traced_outputs": traced.closures,
        "closures_untraced_outputs": replay.closures,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "hooks_missing": tracer.missing,
    }
    return metrics, info


def traced_run(args, wl) -> tuple[dict, dict, Tally]:
    """Each round runs traced, then again untraced, so both passes see the
    same spells of a shared host and their difference is the overhead."""
    from spans import Tracer

    tracer = Tracer()
    traced = Tally()
    replay = Tally()
    predicted = []

    def run_round(rnd):
        with tracer.installed():
            execute(rnd, traced, tracer)
        execute(rnd, replay)
        predicted.extend(v.w_dim for v in rnd if v.w_dim is not None)

    take_rounds(wl, args.seconds, run_round)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    metrics, info = per_layer(traced, replay, tracer)
    closure_counts = {
        info["closures_traced_wrapper"],
        info["closures_traced_outputs"],
        info["closures_untraced_outputs"],
    }
    if len(closure_counts) != 1:
        traced.fail(f"closure counts differ between traced and untraced passes: {info}")
    if predicted != tracer.w_dims:
        info["w_dim_prediction"] = "stale: strata no longer match the W the library builds"
    info["untraced_failed"] = replay.failed
    traced.failed += replay.failed
    traced.notes.extend(replay.notes)
    return metrics, info, traced


def run(args) -> tuple[dict, dict, Tally, object]:
    check_checkout()
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        if args.setup_probe:
            _, setup_s = set_up(args.workload, args.seed, args.smoke, work_dir)
            print(repr(setup_s))
            return {}, {}, Tally(), None
        probing = not (args.trace or args.smoke)
        if probing:
            probes = probe_setup(args, 1 + SETUP_PROBES // 2)[1:]
        wl, setup_s = set_up(args.workload, args.seed, args.smoke, work_dir)
        if args.trace:
            metrics, info, tally = traced_run(args, wl)
        else:
            tally = Tally()
            take_rounds(wl, args.seconds, lambda rnd: execute(rnd, tally))
            setup_times = [setup_s]
            if probing:
                setup_times += probes + probe_setup(args, SETUP_PROBES - SETUP_PROBES // 2)
            metrics, info = end_to_end(tally, wl, setup_times)
        return metrics, info, tally, wl
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny rounds and no set-up probes (smoke test)"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        metrics, info, tally, wl = run(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return 0
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = {
        **result,
        "info": info,
        "environment": environment(args, wl),
        "breakdown": breakdown(tally),
        "failures": tally.notes,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    for note in tally.notes:
        print(f"FAILED {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(f"full result: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
