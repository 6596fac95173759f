"""Finite joint outcome distributions and Bayesian conditioning.

Every backend in this package ultimately produces a table p(i, j, k): the
joint probability that Alice observes i, Bob observes j, and a third
"event" measurement yields k. This module owns that table type together
with marginalization, conditioning, and posterior computations.

Tables are dense numpy arrays. Two entry modes are supported:

* float64 entries with tolerance-based validation (the normal case);
* exact entries (``fractions.Fraction``) stored in an object array, used
  by the classical backend to remove tolerance questions entirely.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyAxes,
    NegativeMass,
    NotNormalized,
    ZeroProbabilityConditioning,
)

DEFAULT_TOL = 1e-9

AXES = ("I", "J", "K")


def axis_position(axis: str) -> int:
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}, expected one of {AXES}")
    return AXES.index(axis)


def as_index(x, what: str) -> int:
    """``x`` as an int: a Python or numpy integer, or a float with no
    fractional part. A bool, a fractional number or a string is refused,
    never truncated."""
    if type(x) is int:
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if not isinstance(x, (bool, np.bool_, float)):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise DimensionMismatch(f"{what} must be an integer, got {x!r}")


def _check_labels(labels, size: int, axis: str) -> None:
    if labels is None:
        return
    if len(labels) != size:
        raise DimensionMismatch(
            f"axis {axis} has {size} outcomes but {len(labels)} labels"
        )
    if len(set(labels)) != len(labels):
        raise DimensionMismatch(f"axis {axis} labels are not unique: {labels}")


@dataclass(frozen=True)
class OutcomeSpace:
    """Sizes (and optional labels) of the three outcome axes I, J, K."""

    size_i: int
    size_j: int
    size_k: int
    labels_i: tuple[str, ...] | None = None
    labels_j: tuple[str, ...] | None = None
    labels_k: tuple[str, ...] | None = None

    def __post_init__(self):
        for axis, name in zip(AXES, ("size_i", "size_j", "size_k")):
            size = as_index(getattr(self, name), f"axis {axis} size")
            if size < 1:
                raise DimensionMismatch(f"axis {axis} must have size >= 1, got {size}")
            object.__setattr__(self, name, size)
        _check_labels(self.labels_i, self.size_i, "I")
        _check_labels(self.labels_j, self.size_j, "J")
        _check_labels(self.labels_k, self.size_k, "K")

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.size_i, self.size_j, self.size_k)

    def axis_size(self, axis: str) -> int:
        return self.sizes[axis_position(axis)]


@dataclass(frozen=True)
class Event:
    """A subset of the event-measurement outcomes k. May be empty or full."""

    space: OutcomeSpace
    members: frozenset[int]

    def __post_init__(self):
        members = frozenset(as_index(k, "event member") for k in self.members)
        object.__setattr__(self, "members", members)
        bad = [k for k in members if not 0 <= k < self.space.size_k]
        if bad:
            raise DimensionMismatch(
                f"event members {sorted(bad)} outside K axis of size {self.space.size_k}"
            )

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


def _is_exact_table(table: np.ndarray) -> bool:
    return table.dtype == object


def _zero_like(table: np.ndarray):
    return Fraction(0) if _is_exact_table(table) else 0.0


@dataclass(frozen=True)
class JointDistribution:
    """A validated, immutable joint probability table over I x J x K.

    Construct through :func:`validate_joint`; direct construction assumes
    the table is already clamped and normalized. The table is made read
    only, and a view is copied first, so no writable base can change it.
    """

    space: OutcomeSpace
    table: np.ndarray
    tol: float = DEFAULT_TOL
    # the agreement engine last built on this table, as ((event, tol),
    # engine): key and engine are written as one tuple, so a concurrent
    # reader never pairs a key with another key's engine
    _engine_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the agreement engine kept on the table assumes its entries never
        # change
        if not self.table.flags.owndata:
            object.__setattr__(self, "table", self.table.copy())
        try:
            self.table.setflags(write=False)
        except ValueError:
            pass

    @property
    def exact(self) -> bool:
        """True when entries are exact rationals rather than floats."""
        return _is_exact_table(self.table)

    def axis_masses(self, axis: str) -> np.ndarray:
        """Marginal probability vector of a single axis."""
        keep = axis_position(axis)
        drop = tuple(a for a in range(3) if a != keep)
        return self.table.sum(axis=drop)

    def axis_mass(self, axis: str, members: Iterable[int]):
        """Total mass of a subset of one axis's outcomes."""
        idx = sorted(set(int(m) for m in members))
        if not idx:
            return _zero_like(self.table)
        return self.axis_masses(axis)[idx].sum()

    def event_mass(self, event: Event):
        return self.axis_mass("K", event.members)

    def flat(self) -> tuple:
        """Entries in row-major (i, j, k) order."""
        return tuple(self.table.reshape(-1))

    def to_float(self) -> "JointDistribution":
        if not self.exact:
            return self
        return JointDistribution(self.space, self.table.astype(float), self.tol)


def validate_joint(table, space: OutcomeSpace, tol: float = DEFAULT_TOL) -> JointDistribution:
    """Clamp and validate a raw table into a :class:`JointDistribution`.

    Entries in (-tol, 0) are clamped to zero; entries at or below -tol
    raise :class:`NegativeMass`; total mass outside [1 - tol, 1 + tol]
    raises :class:`NotNormalized`.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    arr = np.asarray(table)
    if arr.dtype != object:
        arr = np.asarray(table, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise NotNormalized("table contains non-finite entries")
    if arr.shape != space.sizes:
        raise DimensionMismatch(
            f"table shape {arr.shape} does not match outcome space {space.sizes}"
        )
    arr = arr.copy()
    flat = arr.reshape(-1)
    if flat.min() < 0:
        bad = np.flatnonzero(flat <= -tol)
        if len(bad):
            pos = int(bad[0])
            raise NegativeMass(f"entry at flat index {pos} is {flat[pos]}, below -tol={-tol}")
        flat[flat < 0] = _zero_like(arr)
    total = flat.sum()
    if abs(total - 1) > tol:
        raise NotNormalized(f"table mass is {total}, not within {tol} of 1")
    return JointDistribution(space, arr, tol)


def marginal(p: JointDistribution, axes: Iterable[str]) -> np.ndarray:
    """Marginal table over a nonempty subset of axes, in I, J, K order."""
    keep = sorted({axis_position(a) for a in axes})
    if not keep:
        raise EmptyAxes("at least one axis must be retained")
    drop = tuple(a for a in range(3) if a not in keep)
    return p.table.sum(axis=drop) if drop else p.table.copy()


def _check_index(p: JointDistribution, axis: str, index: int) -> None:
    """Refuse an outcome outside the axis, a negative one included."""
    size = p.space.axis_size(axis)
    if not 0 <= index < size:
        raise DimensionMismatch(f"axis {axis} index {index} outside range 0..{size - 1}")


def _check_conditioning(p: JointDistribution, axis: str, index: int) -> None:
    """Refuse to condition on an outcome outside the axis or of mass at most
    the table's tol."""
    _check_index(p, axis, index)
    mass = p.axis_masses(axis)[index]
    if mass <= p.tol:
        raise ZeroProbabilityConditioning(
            f"axis {axis} outcome {index} has mass {mass} <= tol"
        )


def _axis_posterior(p: JointDistribution, axis: str, index: int, event: Event):
    _check_conditioning(p, axis, index)
    return axis_posteriors(p, event, axis)[index]


def _axis_event_masses(p: JointDistribution, event: Event, axis: str):
    """Each outcome's mass on one axis, and its mass inside the event: one
    contiguous row per outcome, summed. Every posterior is one divided by
    the other, so all readers of posteriors share this arithmetic."""
    masses = p.axis_masses(axis)
    keep = axis_position(axis)
    # the axis moved to the front, the other two in order
    hits = p.table[:, :, list(event.sorted_members)].transpose(
        keep, *(a for a in range(3) if a != keep)
    )
    return masses, np.ascontiguousarray(hits).reshape(len(masses), -1).sum(axis=1)


def axis_posteriors(p: JointDistribution, event: Event, axis: str) -> tuple:
    """Every outcome's posterior on one axis, in one pass over the table:
    None where the outcome's mass is at most the table's tol."""
    masses, hits = _axis_event_masses(p, event, axis)
    # built from a list: tuple(generator) resizes its result, which leaves
    # blocks stranded in the tuple free lists until a full gc
    return tuple([h / m if m > p.tol else None for h, m in zip(hits, masses)])


def posterior_alice(p: JointDistribution, i: int, event: Event):
    """Alice's posterior probability of the event after observing outcome i."""
    return _axis_posterior(p, "I", i, event)


def posterior_bob(p: JointDistribution, j: int, event: Event):
    """Bob's posterior probability of the event after observing outcome j."""
    return _axis_posterior(p, "J", j, event)


def conditional_prob(
    p: JointDistribution,
    target_axis: str,
    target: Iterable[int],
    given_axis: str,
    given: Iterable[int],
):
    """P(target subset | given subset), both lifted to the full triple space.

    The two subsets live on distinct axes; unmentioned axes are summed out.
    """
    t_pos = axis_position(target_axis)
    g_pos = axis_position(given_axis)
    if t_pos == g_pos:
        raise ValueError("target and conditioning axes must differ")
    t_idx = sorted({int(x) for x in target})
    g_idx = sorted({int(x) for x in given})
    for name, pos, idx in ((target_axis, t_pos, t_idx), (given_axis, g_pos, g_idx)):
        size = p.space.sizes[pos]
        if any(not 0 <= x < size for x in idx):
            raise DimensionMismatch(f"axis {name} subset {idx} outside range 0..{size - 1}")
    if not g_idx:
        raise ZeroProbabilityConditioning("conditioning subset is empty")
    denom = np.take(p.table, g_idx, axis=g_pos).sum()
    if denom <= p.tol:
        raise ZeroProbabilityConditioning(
            f"conditioning subset on axis {given_axis} has mass {denom} <= tol"
        )
    if not t_idx:
        return _zero_like(p.table)
    numer = np.take(np.take(p.table, g_idx, axis=g_pos), t_idx, axis=t_pos).sum()
    return numer / denom
