"""Seed-reproducible random states, instruments, models, tables, and processes.

Every generator takes an explicit ``numpy.random.Generator``; use
:func:`trial_rng` to derive one deterministically from (seed, trial index)
so any fuzz failure can be replayed from those two integers alone.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .classical import ClassicalModel
from .joint import Event, JointDistribution, OutcomeSpace, validate_joint
from .process import LABS, ProcessMatrix, embed_definite_order, mix_processes
from .quantum import DensityMatrix, Instrument, QuantumScenario


def trial_rng(seed: int, trial: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, int(trial)])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    return DensityMatrix.pure(haar_unitary(dim, rng)[:, 0])


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho))


def random_projective_instrument(
    dim: int, rng: np.random.Generator, n_branches: int | None = None
) -> Instrument:
    """Projective instrument in a Haar-random basis, optionally coarse grained.

    With fewer branches than the dimension, basis projectors are grouped and
    each group becomes one branch with several Kraus operators (the usual
    update rule for a degenerate projective measurement).
    """
    u = haar_unitary(dim, rng)
    projectors = [np.outer(u[:, c], u[:, c].conj()) for c in range(dim)]
    if n_branches is None or n_branches >= dim:
        return Instrument(tuple((pr,) for pr in projectors))
    n_branches = max(1, n_branches)
    assignment = list(rng.permutation(dim))
    groups: list[list[np.ndarray]] = [[] for _ in range(n_branches)]
    for pos, col in enumerate(assignment):
        groups[pos % n_branches].append(projectors[col])
    return Instrument(tuple(tuple(g) for g in groups))


def random_kraus_instrument(
    dim_in: int,
    dim_out: int,
    n_branches: int,
    rng: np.random.Generator,
    kraus_per_branch: int = 1,
) -> Instrument:
    """Generic instrument: the polar factor of stacked Gaussian Kraus draws.

    The ``n_branches * kraus_per_branch`` complex Gaussian operators G_m
    (real part, then imaginary part, operator by operator) are stacked into
    one (N * dim_out) x dim_in matrix G. Its polar factor U V^dag, from the
    thin SVD G = U S V^dag, is G (G^dag G)^(-1/2): every Kraus operator
    renormalized by the same square root, so sum K^dag K = 1 to rounding
    whatever G's condition number. ``kraus_per_branch`` is raised when needed
    so that G has at least dim_in rows.
    """
    # trace preservation needs rank dim_in, so enough Kraus rows in total
    need = -(-dim_in // (n_branches * dim_out))
    kraus_per_branch = max(kraus_per_branch, need)
    z = rng.standard_normal((n_branches * kraus_per_branch, 2, dim_out, dim_in))
    g = (z[:, 0] + 1j * z[:, 1]).reshape(-1, dim_in)
    u, _, vh = np.linalg.svd(g, full_matrices=False)
    kraus = (u @ vh).reshape(n_branches, kraus_per_branch, dim_out, dim_in)
    return Instrument(tuple(tuple(branch) for branch in kraus))


def random_instrument(
    dim_in: int,
    dim_out: int,
    rng: np.random.Generator,
    max_branches: int = 4,
) -> Instrument:
    n_branches = int(rng.integers(1, max_branches + 1))
    if dim_in == dim_out and rng.random() < 0.5:
        return random_projective_instrument(dim_in, rng, n_branches)
    kraus_per_branch = int(rng.integers(1, 3))
    return random_kraus_instrument(dim_in, dim_out, n_branches, rng, kraus_per_branch)


def random_event(size_k: int, rng: np.random.Generator, space: OutcomeSpace) -> Event:
    """Random event, usually a nonempty proper subset of the K outcomes."""
    if size_k == 1:
        members = {0}
    else:
        roll = rng.random()
        if roll < 0.05:
            members = set()
        elif roll < 0.10:
            members = set(range(size_k))
        else:
            count = int(rng.integers(1, size_k))
            members = set(rng.choice(size_k, size=count, replace=False).tolist())
    return Event(space, frozenset(members))


def _random_partition(num_states: int, n_cells: int, rng: np.random.Generator) -> tuple[int, ...]:
    cells = list(rng.integers(0, n_cells, size=num_states))
    seats = list(rng.permutation(num_states)[:n_cells])
    for cell, state in enumerate(seats):
        cells[state] = cell
    return tuple(int(c) for c in cells)


def random_classical_model(
    rng: np.random.Generator, max_states: int = 8, exact: bool = True
) -> ClassicalModel:
    """Random ontic model with a strictly positive prior and surjective partitions."""
    n = int(rng.integers(2, max_states + 1))
    if exact:
        weights = [int(w) for w in rng.integers(1, 10, size=n)]
        total = sum(weights)
        prior = tuple(Fraction(w, total) for w in weights)
    else:
        weights = rng.exponential(1.0, size=n) + 1e-3
        prior = tuple(float(x) for x in weights / weights.sum())
    max_cells = min(4, n)
    parts = [
        _random_partition(n, int(rng.integers(1, max_cells + 1)), rng) for _ in range(3)
    ]
    n_cells_e = max(parts[2]) + 1
    count = int(rng.integers(1, n_cells_e + 1))
    event_cells = frozenset(rng.choice(n_cells_e, size=count, replace=False).tolist())
    return ClassicalModel(
        prior=prior,
        part_a=parts[0],
        part_b=parts[1],
        part_e=parts[2],
        event_cells=event_cells,
    )


def random_joint_table(
    rng: np.random.Generator, max_size: int = 4, structured_zeros: bool = False
) -> tuple[JointDistribution, Event]:
    """Random dense joint table; optionally zero out a patch of entries."""
    sizes = tuple(int(rng.integers(1, max_size + 1)) for _ in range(3))
    table = rng.exponential(1.0, size=sizes) + 1e-3
    if structured_zeros and table.size > 1:
        mask = rng.random(size=sizes) < 0.3
        flat = mask.reshape(-1)
        if flat.all():
            flat[int(rng.integers(0, flat.size))] = False
        table = np.where(mask, 0.0, table)
    table /= table.sum()
    space = OutcomeSpace(*sizes)
    return validate_joint(table, space), random_event(sizes[2], rng, space)


def random_quantum_scenario(
    rng: np.random.Generator, max_dim: int = 4, max_branches: int = 4
) -> QuantumScenario:
    """Random state and instruments chained in a random temporal order."""
    dims = [int(d) for d in rng.integers(2, max_dim + 1, size=4)]
    state = (
        random_pure_density(dims[0], rng)
        if rng.random() < 0.5
        else random_density(dims[0], rng)
    )
    order = "ABE" if rng.random() < 0.5 else "AEB"
    stages = [
        random_instrument(dims[t], dims[t + 1], rng, max_branches) for t in range(3)
    ]
    if order == "ABE":
        instr_a, instr_b, instr_e = stages
    else:
        instr_a, instr_e, instr_b = stages
    space = OutcomeSpace(instr_a.n_branches, instr_b.n_branches, instr_e.n_branches)
    event = random_event(instr_e.n_branches, rng, space)
    return QuantumScenario(state, instr_a, instr_b, instr_e, order=order, event=event)


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
