#!/usr/bin/env python3
"""Sweep scaling: time and peak RSS of the closure sweep against table size.

For n = 8, 16 and 40 (sizes in the benchmark's sweep_dense mix), 64, 128,
256 and 512 (up to ``--max-n``) it builds one n x n x 3
``make_sweep_table`` table from the benchmark's workloads, then times the
chain a sweep verdict runs: ``validate_joint``, ``verify_agreement`` and
the singular check the sweep's result answers (``singular_ok``, from the
sweep's own engine). Each size runs in
a fresh process, so the peak RSS printed is that size's own. The time is
the median of ``--repeats`` calls after one untimed call. Every result is
checked without building a report per pair: the closure count, no
violation, the singular check, and common knowledge held exactly once, on
the table's constant block. A failed check exits 1. There is no timing
bound.

Usage: python scripts/sweep_scaling.py [--max-n 512] [--seed 0] [--repeats 3]
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark; set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from agreelab import agreement, joint  # noqa: E402
from workloads import SWEEP_K, make_sweep_table  # noqa: E402

SIZES = (8, 16, 40, 64, 128, 256, 512)


def measure(n: int, seed: int, repeats: int) -> dict:
    """Time the sweep chain on one table and check its answer."""
    spec = make_sweep_table(n, np.random.default_rng(seed))
    space = joint.OutcomeSpace(n, n, SWEEP_K)
    event = joint.Event(space, frozenset(spec.event))

    def call():
        p = joint.validate_joint(spec.table, space)
        result = agreement.verify_agreement(p, event)
        return result, result.singular_ok

    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result, singular_ok = call()
        times.append(time.perf_counter() - start)
    problems = []
    if len(result) != spec.closures:
        problems.append(f"{len(result)} closures, expected {spec.closures}")
    if len(result.violating()):
        problems.append(f"{len(result.violating())} violations")
    if not singular_ok:
        problems.append("singular disagreement reported")
    held = np.flatnonzero(result.ck_holds).tolist()
    if len(held) != 1:
        problems.append(f"common knowledge held {len(held)} times, expected once")
    elif (result[held[0]].a_star, result[held[0]].b_star) != (spec.const_rows, spec.const_cols):
        problems.append("the fixed point is not the constant block")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "n": n,
        "pairs": len(result),
        "seconds": statistics.median(times),
        "peak_rss_mb": peak / 2**20 if sys.platform == "darwin" else peak / 2**10,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=SIZES[-1])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    sizes = [n for n in SIZES if n <= args.max_n]
    if not sizes or args.repeats < 1:
        parser.error(f"--max-n must be at least {SIZES[0]} and --repeats at least 1")
    # a fresh process per size, so each peak RSS is that size's alone
    ctx = multiprocessing.get_context("spawn")
    failed = False
    print(f"{'n':>5} {'pairs':>8} {'seconds':>9} {'peak RSS MB':>12}")
    for n in sizes:
        with ctx.Pool(1) as pool:
            row = pool.apply(measure, (n, args.seed, args.repeats))
        print(f"{row['n']:>5} {row['pairs']:>8} {row['seconds']:>9.4f} {row['peak_rss_mb']:>12.1f}")
        for problem in row["problems"]:
            print(f"  n={n}: {problem}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
