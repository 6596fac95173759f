"""Fuzz harness determinism and zero-violation sweeps."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from agreelab import ValidationError
from agreelab.cli import EXIT_VALIDATION, main
from agreelab.report import emit_search_summary
from agreelab.scenario import BACKENDS
from agreelab.search import fuzz_search
from agreelab.randomgen import trial_rng


@pytest.mark.parametrize("backend", ["table", "classical", "quantum", "process"])
def test_small_sweeps_find_nothing(backend):
    summary = fuzz_search(backend, trials=25, max_dim=3, seed=13)
    assert summary.violation_count == 0
    assert summary.singular_failures == 0
    assert summary.closures_examined > 0
    assert summary.passed


def test_nearly_singular_kraus_draw_stays_trace_preserving():
    # trial 3 of this seed draws a 4 -> 2 one-branch instrument whose
    # sum G^dag G has condition number 1.6e7; renormalizing by the inverse
    # square root of that sum once left ||sum K^dag K - 1|| = 2.2e-9, above
    # COMPLETENESS_TOL, while the polar factor of G is an isometry to rounding
    summary = fuzz_search("quantum", trials=4, max_dim=4, seed=6950883801045473076)
    assert summary.passed


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_trial_without_an_attained_pair_counts_zero_steps(backend):
    # at tol 0.6 most trial tables have no outcome above tol on some axis,
    # so their sweeps hold no pair: fewer closures than trials
    summary = fuzz_search(backend, trials=20, seed=0, tol=0.6)
    assert summary.closures_examined < summary.trials
    assert summary.violation_count == 0


def test_identical_seeds_are_byte_identical():
    a = fuzz_search("quantum", trials=15, max_dim=3, seed=21)
    b = fuzz_search("quantum", trials=15, max_dim=3, seed=21)
    assert a == b
    assert emit_search_summary(a, "records") == emit_search_summary(b, "records")


def test_different_seeds_differ():
    a = fuzz_search("table", trials=15, seed=1)
    b = fuzz_search("table", trials=15, seed=2)
    assert a.closure_sizes != b.closure_sizes


def test_trial_replays_from_seed_and_index():
    # a failing trial must be reconstructible from (seed, index) alone
    process = BACKENDS["process"]
    (source_a, event_a), (source_b, event_b) = (
        process.draw(trial_rng(99, 7), 3) for _ in range(2)
    )
    assert process.joint(source_a, 1e-9).flat() == process.joint(source_b, 1e-9).flat()
    assert event_a.members == event_b.members


def test_thousand_classical_trials_find_nothing():
    summary = fuzz_search("classical", trials=1000, max_dim=4, seed=77)
    assert summary.violation_count == 0
    assert summary.singular_failures == 0


def test_bad_arguments_rejected():
    with pytest.raises(ValidationError):
        fuzz_search("table", trials=0)
    with pytest.raises(ValidationError):
        fuzz_search("stochastic", trials=5)


def test_process_fuzz_summary_is_pinned():
    # recorded from the dense-W contraction; the Kraus composition of each
    # factored term must reproduce every closure of the acceptance fuzz
    summary = fuzz_search("process", 500, seed=42)
    assert summary.closures_examined == 1997
    assert summary.max_steps == 2
    assert summary.closure_sizes == (
        ((0, 0), 1817), ((1, 1), 25), ((1, 2), 18), ((1, 3), 9), ((1, 4), 5),
        ((2, 1), 10), ((2, 2), 21), ((2, 3), 15), ((2, 4), 10),
        ((3, 1), 11), ((3, 2), 12), ((3, 3), 16), ((3, 4), 6),
        ((4, 1), 6), ((4, 2), 7), ((4, 3), 6), ((4, 4), 3),
    )


PINNED_SUMMARIES = {
    # backend: (trials, closures, max_steps, closure_sizes), all at seed 42,
    # recorded from the engine that built one report per closure
    "table": (500, 2382, 2, (
        ((0, 0), 2208), ((1, 1), 48), ((1, 2), 10), ((1, 3), 5), ((1, 4), 5),
        ((2, 1), 9), ((2, 2), 9), ((2, 3), 12), ((2, 4), 11),
        ((3, 1), 7), ((3, 2), 8), ((3, 3), 10), ((3, 4), 5),
        ((4, 1), 6), ((4, 2), 10), ((4, 3), 7), ((4, 4), 12),
    )),
    "classical": (500, 1084, 4, (
        ((0, 0), 714), ((1, 1), 89), ((1, 2), 33), ((1, 3), 20), ((1, 4), 12),
        ((2, 1), 32), ((2, 2), 37), ((2, 3), 20), ((2, 4), 15),
        ((3, 1), 16), ((3, 2), 18), ((3, 3), 12), ((3, 4), 13),
        ((4, 1), 16), ((4, 2), 11), ((4, 3), 14), ((4, 4), 12),
    )),
    "quantum": (1000, 4636, 2, (
        ((0, 0), 4270), ((1, 1), 60), ((1, 2), 29), ((1, 3), 13), ((1, 4), 15),
        ((2, 1), 24), ((2, 2), 26), ((2, 3), 19), ((2, 4), 14),
        ((3, 1), 21), ((3, 2), 18), ((3, 3), 19), ((3, 4), 30),
        ((4, 1), 19), ((4, 2), 22), ((4, 3), 20), ((4, 4), 17),
    )),
}


@pytest.mark.parametrize("backend", sorted(PINNED_SUMMARIES))
def test_fuzz_summary_is_pinned(backend):
    trials, closures, max_steps, sizes = PINNED_SUMMARIES[backend]
    summary = fuzz_search(backend, trials, seed=42)
    assert summary.passed
    assert summary.closures_examined == closures
    assert summary.max_steps == max_steps
    assert summary.closure_sizes == sizes


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
def test_process_fuzz_peak_memory():
    # a dense two-order mixture at lab dimension 4 alone would hold 256 MiB
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import resource, sys\n"
        "from agreelab.search import fuzz_search\n"
        "fuzz_search('process', 500, seed=42)\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(peak / 2**20 if sys.platform == 'darwin' else peak / 2**10)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 200.0, f"peak RSS {out.stdout.strip()} MB"


@pytest.mark.parametrize(
    "backend, smallest", [("table", 1), ("classical", 1), ("quantum", 2), ("process", 2)]
)
def test_max_dim_below_the_smallest_draw_is_refused(backend, smallest, capsys):
    """A ``max_dim`` below every size a backend draws is refused with the
    option named, from the library and the CLI alike; the smallest one runs."""
    assert BACKENDS[backend].min_dim == smallest
    for max_dim in (smallest - 1, -3):
        with pytest.raises(ValidationError, match="max_dim"):
            fuzz_search(backend, trials=2, max_dim=max_dim)
        argv = ["search", "--backend", backend, "--trials", "2", "--max-dim", str(max_dim)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "max_dim" in err and "internal error" not in err
    assert fuzz_search(backend, trials=5, max_dim=smallest).passed
