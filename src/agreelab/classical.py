"""Finite ontic models: a prior over world states plus measurement partitions.

A model carries a prior over states 0..n-1 and three partitions of the
state space, one per measurement (Alice, Bob, event). Conditioning and
knowledge are defined cell-wise, and ``embed_classical`` turns any model
into a joint outcome table so the same closure machinery can run on
either formulation and be cross-checked.

Knowledge sets are computed over the support of the prior: a state with
zero prior mass can neither be observed nor ground anyone's beliefs, so
it is ignored by the iteration. With full-support priors this coincides
with the textbook set-inclusion rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidState, ValidationError, ZeroMassCell
from .joint import DEFAULT_TOL, Event, JointDistribution, OutcomeSpace, validate_joint


def _as_partition(assignments, num_states: int, name: str) -> tuple[int, ...]:
    cells = tuple(int(c) for c in assignments)
    if len(cells) != num_states:
        raise ValidationError(
            f"expected one cell index per state ({num_states}), got {len(cells)}", name
        )
    if any(c < 0 for c in cells):
        raise ValidationError("cell indices must be nonnegative", name)
    n_cells = max(cells) + 1
    missing = set(range(n_cells)) - set(cells)
    if missing:
        raise ValidationError(f"cell indices {sorted(missing)} are empty", name)
    return cells


@dataclass(frozen=True)
class ClassicalModel:
    """Prior over ontic states with partitions for Alice, Bob, and the event.

    ``prior`` entries may be floats or ``fractions.Fraction``; all-rational
    priors switch every derived quantity to exact arithmetic. Partitions
    are given as one cell index per state; ``event_cells`` selects which
    cells of the event partition make up the event of interest.
    """

    prior: tuple
    part_a: tuple[int, ...]
    part_b: tuple[int, ...]
    part_e: tuple[int, ...]
    event_cells: frozenset[int]

    def __post_init__(self):
        prior = tuple(self.prior)
        n = len(prior)
        if n < 1:
            raise ValidationError("model needs at least one state", "prior")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "part_a", _as_partition(self.part_a, n, "part_a"))
        object.__setattr__(self, "part_b", _as_partition(self.part_b, n, "part_b"))
        object.__setattr__(self, "part_e", _as_partition(self.part_e, n, "part_e"))
        object.__setattr__(self, "event_cells", frozenset(int(c) for c in self.event_cells))
        for x in prior:
            if x < 0:
                raise ValidationError(f"prior entry {x} is negative", "prior")
        total = sum(prior)
        if abs(total - 1) > DEFAULT_TOL:
            raise ValidationError(f"prior mass is {total}, not 1", "prior")
        bad = [c for c in self.event_cells if not 0 <= c < self.n_cells_e]
        if bad:
            raise ValidationError(
                f"event cells {sorted(bad)} outside event partition of size {self.n_cells_e}",
                "event_cells",
            )

    @property
    def num_states(self) -> int:
        return len(self.prior)

    @property
    def n_cells_a(self) -> int:
        return max(self.part_a) + 1

    @property
    def n_cells_b(self) -> int:
        return max(self.part_b) + 1

    @property
    def n_cells_e(self) -> int:
        return max(self.part_e) + 1

    @property
    def exact(self) -> bool:
        return all(isinstance(x, (Fraction, int)) for x in self.prior)

    @property
    def event(self) -> Event:
        """The event as a set of K outcomes of the model's joint table."""
        space = OutcomeSpace(self.n_cells_a, self.n_cells_b, self.n_cells_e)
        return Event(space, self.event_cells)

    @property
    def event_states(self) -> frozenset[int]:
        """States belonging to the event (union of the selected event cells)."""
        return frozenset(
            w for w in range(self.num_states) if self.part_e[w] in self.event_cells
        )

    def cell_states(self, agent: str, cell: int) -> tuple[int, ...]:
        part = self._partition(agent)
        return tuple(w for w in range(self.num_states) if part[w] == cell)

    def _partition(self, agent: str) -> tuple[int, ...]:
        try:
            return {"A": self.part_a, "B": self.part_b, "E": self.part_e}[agent]
        except KeyError:
            raise ValueError(f"unknown agent {agent!r}, expected 'A', 'B', or 'E'") from None

    def mass(self, states) -> float | Fraction:
        start = Fraction(0) if self.exact else 0.0
        return sum((self.prior[w] for w in states), start)


def classical_posterior(model: ClassicalModel, agent: str, cell: int, tol: float = DEFAULT_TOL):
    """Posterior probability of the event given the observed partition cell."""
    part = model._partition(agent)
    if not 0 <= cell < max(part) + 1:
        raise InvalidState(f"agent {agent} has no cell {cell}")
    members = model.cell_states(agent, cell)
    denom = model.mass(members)
    if denom <= tol:
        raise ZeroMassCell(f"cell {cell} of agent {agent} has mass {denom} <= tol")
    event = model.event_states
    numer = model.mass(w for w in members if w in event)
    return numer / denom


def classical_ck_at(
    model: ClassicalModel, omega: int, q_a, q_b, tol: float = DEFAULT_TOL
) -> bool:
    """Whether the posterior pair (q_a, q_b) is common knowledge at state omega.

    Iterates the knowledge sets until they stabilize (guaranteed within the
    number of states) and tests membership of omega in the fixed point.
    Pass ``tol=0`` with an exact-prior model for exact set logic.
    """
    if not 0 <= omega < model.num_states:
        raise InvalidState(f"state {omega} outside 0..{model.num_states - 1}")
    for agent in ("A", "B"):
        cell = model._partition(agent)[omega]
        if model.mass(model.cell_states(agent, cell)) <= tol:
            raise ZeroMassCell(f"agent {agent} cell at state {omega} has no mass")

    support = frozenset(w for w in range(model.num_states) if model.prior[w] > 0)
    event = model.event_states

    def level_set(agent: str, n_cells: int, q):
        keep = set()
        for c in range(n_cells):
            members = model.cell_states(agent, c)
            denom = model.mass(members)
            if denom <= tol:
                continue
            post = model.mass(w for w in members if w in event) / denom
            if abs(post - q) <= tol:
                keep.update(w for w in members if w in support)
        return frozenset(keep)

    a_set = level_set("A", model.n_cells_a, q_a)
    b_set = level_set("B", model.n_cells_b, q_b)

    cell_a = {
        c: frozenset(model.cell_states("A", c)) & support for c in range(model.n_cells_a)
    }
    cell_b = {
        c: frozenset(model.cell_states("B", c)) & support for c in range(model.n_cells_b)
    }

    while True:
        next_a = frozenset(w for w in a_set if cell_a[model.part_a[w]] <= b_set)
        next_b = frozenset(w for w in b_set if cell_b[model.part_b[w]] <= a_set)
        if next_a == a_set and next_b == b_set:
            break
        a_set, b_set = next_a, next_b
    return omega in a_set and omega in b_set


def embed_classical(
    model: ClassicalModel, tol: float = DEFAULT_TOL
) -> tuple[JointDistribution, Event]:
    """Joint outcome table of a model: p(i, j, k) sums the prior over the
    intersection of Alice's cell i, Bob's cell j, and event cell k. The
    table is validated at ``tol``, which it then carries."""
    event = model.event
    if model.exact:
        table = np.full(event.space.sizes, Fraction(0), dtype=object)
    else:
        table = np.zeros(event.space.sizes, dtype=float)
    for w in range(model.num_states):
        table[model.part_a[w], model.part_b[w], model.part_e[w]] += model.prior[w]
    return validate_joint(table, event.space, tol), event
