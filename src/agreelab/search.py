"""Randomized search for agreement-theorem violations across all backends.

Each trial draws a random scenario through the backend's registry entry,
builds its joint table at the search's tolerance, runs the full closure
sweep, and tallies any report that claims common knowledge of differing
posteriors (expected count: zero, always). Trials are seeded independently
from (seed, trial index) so failures replay exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .agreement import verify_agreement
from .errors import ValidationError
from .joint import DEFAULT_TOL
from .randomgen import trial_rng
from .scenario import BACKENDS


@dataclass(frozen=True)
class FuzzSummary:
    """Aggregate result of a randomized search run."""

    backend: str
    trials: int
    seed: int
    max_dim: int
    closures_examined: int
    violation_count: int
    singular_failures: int
    max_steps: int
    closure_sizes: tuple[tuple[tuple[int, int], int], ...] = field(default=())

    @property
    def passed(self) -> bool:
        return self.violation_count == 0 and self.singular_failures == 0


def fuzz_search(
    backend: str,
    trials: int,
    max_dim: int = 4,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> FuzzSummary:
    """Run ``trials`` random scenarios of one backend through the verifier."""
    if trials < 1:
        raise ValidationError("trials must be >= 1", "trials")
    if backend not in BACKENDS:
        raise ValidationError(
            f"unknown backend {backend!r}, expected one of {tuple(BACKENDS)}", "backend"
        )
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(
            f"must be finite and positive, since every trial table is float; got {tol}", "tol"
        )
    entry = BACKENDS[backend]
    if max_dim < entry.min_dim:
        raise ValidationError(
            f"must be at least {entry.min_dim} for backend {backend!r}, got {max_dim}", "max_dim"
        )
    closures = 0
    violation_count = 0
    singular_failures = 0
    max_steps = 0
    size_counts: dict[tuple[int, int], int] = {}
    for t in range(trials):
        source, event = entry.draw(trial_rng(seed, t), max_dim)
        joint = entry.joint(source, tol)
        result = verify_agreement(joint, event, tol)
        closures += len(result)
        violation_count += len(result.violating())
        if not result.singular_ok:
            singular_failures += 1
        # a sweep with no attained pair (every mass at or below tol) takes 0 steps
        steps = int(result.steps.max(initial=0))
        max_steps = max(max_steps, steps)
        bound = joint.space.size_i + joint.space.size_j
        if steps > bound:
            raise AssertionError(
                f"closure took {steps} steps, above the {bound} bound "
                f"(backend={backend}, seed={seed}, trial={t})"
            )
        # every pair without a stored fixed point has two empty sets
        empty = len(result) - len(result.fixed_points)
        if empty:
            size_counts[(0, 0)] = size_counts.get((0, 0), 0) + empty
        for a, b in result.fixed_points.values():
            key = (len(a), len(b))
            size_counts[key] = size_counts.get(key, 0) + 1
    return FuzzSummary(
        backend=backend,
        trials=trials,
        seed=seed,
        max_dim=max_dim,
        closures_examined=closures,
        violation_count=violation_count,
        singular_failures=singular_failures,
        max_steps=max_steps,
        closure_sizes=tuple(sorted(size_counts.items())),
    )
