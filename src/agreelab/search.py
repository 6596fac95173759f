"""Randomized search for agreement-theorem violations across all backends.

Each trial draws a random scenario, computes its joint table, runs the
full closure sweep, and tallies any report that claims common knowledge of
differing posteriors (expected count: zero, always). Trials are seeded
independently from (seed, trial index) so failures replay exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .agreement import verify_agreement
from .classical import embed_classical
from .errors import ValidationError
from .joint import DEFAULT_TOL, Event, JointDistribution, OutcomeSpace
from .process import LABS, ProcessMatrix, embed_definite_order, mix_processes, process_joint
from .quantum import Instrument, sequential_joint
from .randomgen import (
    random_classical_model,
    random_density,
    random_event,
    random_instrument,
    random_joint_table,
    random_quantum_scenario,
    trial_rng,
)
from .scenario import BACKENDS


def random_process_setup(
    rng: np.random.Generator, max_dim: int = 4, max_branches: int = 4
) -> tuple[ProcessMatrix, tuple[Instrument, Instrument, Instrument], Event, str]:
    """Random definite-order embedding or convex mixture of causal orders.

    Lab dimensions stay at or below ``max_dim``; most trials use wires of
    dimension at most 3, with a reproducible minority exercising the full
    bound. The processes are factored, so no trial builds its dense W, and
    the draws keep their order so every trial replays from its generator.
    """
    cap = max_dim if rng.random() < 0.12 else min(3, max_dim)
    if rng.random() < 0.6:
        # single definite order over a random (possibly uneven) wire chain
        chain = [int(d) for d in rng.integers(2, cap + 1, size=4)]
        order = tuple(str(x) for x in rng.permutation(list(LABS)))
        stage_dims = {order[t]: (chain[t], chain[t + 1]) for t in range(3)}
        lab_dims = tuple(stage_dims[lab] for lab in LABS)
        state = random_density(chain[0], rng)
        w = embed_definite_order(state, order, lab_dims)
        kind = "definite:" + "".join(order)
    else:
        d = int(rng.choice([2, 2, 3, 3, cap]))
        state = random_density(d, rng)
        orders = [tuple(str(x) for x in rng.permutation(list(LABS))) for _ in range(2)]
        while orders[1] == orders[0]:
            orders[1] = tuple(str(x) for x in rng.permutation(list(LABS)))
        lam = float(rng.uniform(0.1, 0.9))
        components = [embed_definite_order(state, o) for o in orders]
        w = mix_processes(components, [lam, 1.0 - lam])
        lab_dims = w.lab_dims
        kind = "mixture:" + "+".join("".join(o) for o in orders)
    instrs = tuple(
        random_instrument(d_in, d_out, rng, max_branches) for d_in, d_out in lab_dims
    )
    space = OutcomeSpace(instrs[0].n_branches, instrs[1].n_branches, instrs[2].n_branches)
    event = random_event(instrs[2].n_branches, rng, space)
    return w, instrs, event, kind


def _trial_joint(
    backend: str, rng: np.random.Generator, max_dim: int
) -> tuple[JointDistribution, Event]:
    if backend == "table":
        return random_joint_table(rng, max_size=max_dim, structured_zeros=rng.random() < 0.3)
    if backend == "classical":
        model = random_classical_model(rng, max_states=2 * max_dim, exact=False)
        return embed_classical(model)
    if backend == "quantum":
        scenario = random_quantum_scenario(rng, max_dim=max_dim)
        return sequential_joint(scenario), scenario.event
    if backend == "process":
        w, instrs, event, _ = random_process_setup(rng, max_dim=max_dim)
        return process_joint(w, *instrs), event
    raise ValidationError(f"unknown backend {backend!r}, expected one of {BACKENDS}", "backend")


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
        raise ValidationError(f"unknown backend {backend!r}, expected one of {BACKENDS}", "backend")
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(
            f"must be finite and positive, since every trial table is float; got {tol}", "tol"
        )
    closures = 0
    violation_count = 0
    singular_failures = 0
    max_steps = 0
    size_counts: dict[tuple[int, int], int] = {}
    for t in range(trials):
        rng = trial_rng(seed, t)
        joint, event = _trial_joint(backend, rng, max_dim)
        result = verify_agreement(joint, event, tol)
        closures += len(result)
        violation_count += len(result.violating())
        if not result.singular_ok:
            singular_failures += 1
        steps = int(result.steps.max())
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
