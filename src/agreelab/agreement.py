"""Iterated common-knowledge closure and agreement verification.

Given a joint outcome table, an event, and a posterior pair (q_a, q_b),
the closure starts from the level sets

    A_0 = outcomes i with posterior q_a,   B_0 = outcomes j with posterior q_b,

and repeatedly removes outcomes that fail to certify the other side:

    A_{n+1} = { i in A_n : P(B_n | i) = 1 },
    B_{n+1} = { j in B_n : P(A_n | j) = 1 },

both updates reading the level-n sets. The sets shrink monotonically, so a
fixed point (A*, B*) is reached within |I| + |J| productive steps. The
posteriors are common knowledge for an outcome pair exactly when the pair
lies in A* x B* with positive mass, and in that case q_a must equal q_b;
``verify_agreement`` checks that implication over every attained posterior
pair.

``ck_step`` and ``ck_closure`` follow that definition one posterior pair at
a time and are the reference oracle. Every other reader shares one engine
per (table, event, tol), kept on the table (``_engine``), and returns the
same answers, bit for bit: the engine computes each axis's posteriors
once, reads them out as plain Python numbers and clusters them once into a
posterior partition. ``is_common_knowledge`` closes one pair on it and
``singular_disagreement_check`` at most two. ``verify_agreement`` sweeps
every pair:

* each representative's level set is its own cluster whenever no two
  representatives lie within tol of each other, checked once per axis;
* each axis's level sets are laid out as consecutive runs of one index
  array, so one gather and one ``np.add.reduceat`` per axis give every
  outcome's mass in every level set of the other axis, and with it the
  first closure step of every (q_a, q_b) pair. That sum runs in another
  order than ``ck_step``'s; the few entries within a rounding band of
  their threshold, derived in ``_Engine.first_step``, are recomputed in
  ``ck_step``'s order, so every comparison comes out as the oracle's;
* most pairs keep no outcome on either side at that step; they are filled
  in one batch (one step, two empty sets), and only the other pairs
  iterate from there on the shared pair marginal and certainty
  thresholds, with no per-pair recomputation.

``verify_agreement`` returns a columnar :class:`SweepResult`: per-pair
arrays ``q_a``, ``q_b``, ``steps`` and ``ck_holds``, with the fixed-point
sets kept only where they are nonempty. It is a sequence of
:class:`CKReport` whose reports are built when they are read, through the
same code for every access, so each equals ``ck_closure``'s. ``violations``
and the fuzz read the arrays and build none. The result also carries each
axis's per-outcome ``posteriors`` and answers the singular check as
``singular_ok`` from its engine, so a scenario run or a fuzz trial builds
one engine; so does a caller that passes one table to ``verify_agreement``
and then to ``singular_disagreement_check``.

One tolerance ``tol`` plays three roles, all with the same default:

* mass cutoff: outcomes with mass at most tol have no posterior and never
  enter a level set;
* posterior equality: posteriors within tol of their sorted neighbour fall
  into one cluster, and an outcome is in the level set of q when its
  cluster's representative lies within tol of q;
* certainty slack: P(B | i) = 1 is tested as P(B | i) >= 1 - tol, because
  floating-point tables from the quantum backends never hit exactly 1.
  Pass ``tol=0`` with an exact-rational table for exact set logic.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, pairwise

import numpy as np

from .classical import ClassicalModel
from .errors import NoConvergence, ZeroProbabilityConditioning
from .joint import (
    DEFAULT_TOL,
    Event,
    JointDistribution,
    _axis_event_masses,
    _check_conditioning,
)


@dataclass(frozen=True)
class CKState:
    """Knowledge sets after n closure steps."""

    a_set: frozenset[int]
    b_set: frozenset[int]
    n: int = 0


@dataclass(frozen=True)
class CKReport:
    """Outcome of one closure run at a fixed posterior pair."""

    q_a: float
    q_b: float
    a_star: tuple[int, ...]
    b_star: tuple[int, ...]
    steps: int
    ck_holds: bool
    agrees: bool
    mass_a: float
    mass_b: float
    witness: tuple[int, int] | None


def _pair_marginal(p: JointDistribution) -> np.ndarray:
    return p.table.sum(axis=2)


def _zero(p: JointDistribution):
    return Fraction(0) if p.exact else 0.0


@dataclass(frozen=True, eq=False)
class _PosteriorPartition:
    """One axis's posteriors for one (table, event), clustered once.

    ``masses`` and ``posteriors`` have an entry per outcome of the axis, the
    posteriors as ``axis_posteriors`` returns them. ``clusters`` groups the
    outcomes with mass above the sweep's ``tol`` by single linkage on their
    posteriors, in ascending order of posterior; ``representatives`` holds
    one value per cluster, its smallest member's for exact tables and the
    mean otherwise.
    """

    masses: np.ndarray
    posteriors: tuple
    clusters: tuple[tuple[int, ...], ...]
    representatives: tuple
    tol: float

    def level_set(self, q) -> tuple[int, ...]:
        """Outcomes, ascending, whose cluster representative lies within tol of q.

        fl(rep - q) never decreases along the ascending representatives, so
        those clusters are one run, found by bisection; a NaN q matches none.
        """
        if q != q:
            return ()
        reps = self.representatives
        lo = bisect_left(reps, -self.tol, key=lambda rep: rep - q)
        hi = bisect_right(reps, self.tol, lo, key=lambda rep: rep - q)
        if hi - lo == 1:
            return self.clusters[lo]
        return tuple(sorted(x for cluster in self.clusters[lo:hi] for x in cluster))

    def level_sets(self) -> tuple[tuple[int, ...], ...]:
        """The level set of each representative, in order, without bisection.

        When fl(rep_k - rep_k) = 0 (every representative is finite) and
        each step fl(rep_{k+1} - rep_k) exceeds tol, only the diagonal of the
        matrix fl(rep_i - rep_k), the key ``level_set`` bisects on, lies
        within +-tol: that key never decreases along i, and rounding to
        nearest is odd, so fl(rep_{k-1} - rep_k) < -tol. Each level set is
        then its own cluster. Otherwise (two representatives within tol,
        which only rounding of the cluster means allows, or a NaN) each is
        looked up with ``level_set``.
        """
        reps, tol = self.representatives, self.tol
        if all(q - q <= tol for q in reps) and all(hi - lo > tol for lo, hi in pairwise(reps)):
            return self.clusters
        return tuple([self.level_set(q) for q in reps])

    def representative(self, x: int):
        """Representative of the cluster holding outcome x; None when x has
        mass at most tol and so is in no cluster."""
        for rep, cluster in zip(self.representatives, self.clusters):
            if x in cluster:
                return rep
        return None


def _posterior_partition(
    p: JointDistribution, event: Event, axis: str, tol: float = DEFAULT_TOL
) -> _PosteriorPartition:
    """Compute one axis's posteriors in one pass and cluster them.

    Values within tol of their sorted neighbour merge into one cluster so
    floating-point twins do not masquerade as different posteriors. An
    outcome with mass above tol but not above the table's own tol has no
    posterior and raises ZeroProbabilityConditioning.

    The masses are read out as Python numbers once, so the clustering
    compares and adds plain floats (or Fractions), not numpy scalars; each
    posterior is the same IEEE quotient ``axis_posteriors`` computes.
    """
    masses, hits = _axis_event_masses(p, event, axis)
    mass_list = masses.tolist()
    # built from lists: tuple(generator) resizes its result, which leaves
    # blocks stranded in the tuple free lists until a full gc
    posteriors = tuple(
        [h / m if m > p.tol else None for h, m in zip(hits.tolist(), mass_list)]
    )
    members = [x for x, m in enumerate(mass_list) if m > tol]
    for x in members:
        if posteriors[x] is None:
            raise ZeroProbabilityConditioning(
                f"axis {axis} outcome {x} has mass {masses[x]} <= tol"
            )
    # single linkage along the sorted posteriors. Each cluster's sum starts
    # from 0 (so -0.0 sums to 0.0) and adds one term at a time, on every
    # Python: builtin sum() of plain floats is compensated from 3.12 on
    clusters: list[list[int]] = []
    sums = []
    for x in sorted(members, key=posteriors.__getitem__):
        q = posteriors[x]
        if clusters and abs(q - last) <= tol:
            clusters[-1].append(x)
            sums[-1] += q
        else:
            clusters.append([x])
            sums.append(0 + q)
        last = q
    if p.exact:
        representatives = tuple([posteriors[c[0]] for c in clusters])
    else:
        representatives = tuple([total / len(c) for total, c in zip(sums, clusters)])
    return _PosteriorPartition(
        masses, posteriors, tuple([tuple(sorted(c)) for c in clusters]), representatives, tol
    )


def attained_posteriors(
    p: JointDistribution, event: Event, axis: str, tol: float = DEFAULT_TOL
) -> tuple:
    """Distinct posterior values over positive-mass outcomes of one axis:
    the representatives of its posterior partition."""
    return _posterior_partition(p, event, axis, tol).representatives


def initial_sets(
    p: JointDistribution, event: Event, q_a, q_b, tol: float = DEFAULT_TOL
) -> tuple[frozenset[int], frozenset[int]]:
    """Level sets of q_a and q_b: the outcomes whose posterior cluster's
    representative lies within tol of it.

    Outcomes with mass at most tol are excluded: their posteriors are
    undefined and cannot ground knowledge.
    """
    part_a = _posterior_partition(p, event, "I", tol)
    part_b = _posterior_partition(p, event, "J", tol)
    return frozenset(part_a.level_set(q_a)), frozenset(part_b.level_set(q_b))


def ck_step(p: JointDistribution, state: CKState, tol: float = DEFAULT_TOL) -> CKState:
    """One simultaneous refinement of the knowledge sets."""
    m2 = _pair_marginal(p)
    a_rows = sorted(state.a_set)
    b_cols = sorted(state.b_set)

    def certain_rows(matrix, rows, cols):
        kept = []
        for r in rows:
            total = matrix[r, :].sum()
            inside = matrix[r, cols].sum() if cols else _zero(p)
            # tol == 0 keeps exact-rational tables exact (no float threshold)
            threshold = total if tol == 0 else (1 - tol) * total
            if inside >= threshold:
                kept.append(r)
        return frozenset(kept)

    next_a = certain_rows(m2, a_rows, b_cols)
    next_b = certain_rows(m2.T, b_cols, a_rows)
    return CKState(next_a, next_b, state.n + 1)


def ck_closure(
    p: JointDistribution, event: Event, q_a, q_b, tol: float = DEFAULT_TOL
) -> CKReport:
    """Iterate ck_step from the initial level sets to the fixed point.

    ``steps`` counts the productive iterations; monotone shrinkage bounds it
    by |I| + |J|. Common knowledge holds when both fixed-point sets are
    nonempty with mass above tol.
    """
    a0, b0 = initial_sets(p, event, q_a, q_b, tol)
    state = CKState(a0, b0, 0)
    steps = 0
    limit = p.space.size_i + p.space.size_j + 1
    for _ in range(limit + 1):
        nxt = ck_step(p, state, tol)
        if nxt.a_set == state.a_set and nxt.b_set == state.b_set:
            break
        state = nxt
        steps += 1
    else:
        raise AssertionError("closure failed to stabilize within its bound")
    mass_a = p.axis_mass("I", state.a_set)
    mass_b = p.axis_mass("J", state.b_set)
    ck_holds = bool(state.a_set and state.b_set and mass_a > tol and mass_b > tol)
    agrees = bool(abs(q_a - q_b) <= tol)
    witness = (min(state.a_set), min(state.b_set)) if ck_holds else None
    return CKReport(
        q_a=q_a,
        q_b=q_b,
        a_star=tuple(sorted(state.a_set)),
        b_star=tuple(sorted(state.b_set)),
        steps=steps,
        ck_holds=ck_holds,
        agrees=agrees,
        mass_a=mass_a,
        mass_b=mass_b,
        witness=witness,
    )


def is_common_knowledge(
    p: JointDistribution, event: Event, i: int, j: int, tol: float = DEFAULT_TOL
) -> bool:
    """Whether the posteriors induced by observing (i, j) are common knowledge.

    The closure runs on the sweep's engine, at the representatives of the
    posterior clusters that hold i and j, the values the sweep runs it at,
    so the answer agrees with ``verify_agreement`` and with ``ck_closure``.
    An outcome with mass at most tol is in no cluster and its posterior is
    never common knowledge.
    """
    _check_conditioning(p, "I", i)
    _check_conditioning(p, "J", j)
    engine = _engine(p, event, tol)
    q_a = engine.parts[0].representative(i)
    q_b = engine.parts[1].representative(j)
    if q_a is None or q_b is None:
        return False
    a, b, _ = engine.fixed_point(q_a, q_b)
    return i in a and j in b


# unit roundoff of float64: the relative error bound of one rounded operation
_UNIT_ROUNDOFF = 2.0**-53


class _Engine:
    """What every closure on one (table, event, tol) shares, computed once:
    both posterior partitions, the pair marginal read row-wise from each
    side, and each outcome's certainty threshold. Built only by
    ``_engine``, which keeps it on the table.

    ``certain`` tests some outcomes against one set in ``ck_step``'s order
    of summation, and ``step``, ``fixed_point`` and ``close`` iterate it.
    ``first_step`` tests every outcome against every level set of the
    other axis in one pass, for the sweep.
    """

    def __init__(self, p: JointDistribution, event: Event, tol: float):
        self.tol = tol
        self.exact = p.exact
        self.zero = _zero(p)
        self.parts = (
            _posterior_partition(p, event, "I", tol),
            _posterior_partition(p, event, "J", tol),
        )
        m2 = _pair_marginal(p)
        self.rows = (m2, np.ascontiguousarray(m2.T))
        totals = [m.sum(axis=1) for m in self.rows]
        # tol == 0 keeps exact-rational tables exact (no float threshold)
        self.thresholds = totals if tol == 0 else [(1 - tol) * t for t in totals]

    def level_set(self, side: int, q) -> np.ndarray:
        return np.array(self.parts[side].level_set(q), dtype=np.intp)

    def certain(self, side: int, rows, cols: np.ndarray) -> np.ndarray:
        """Mask over ``rows`` (indices of outcomes of ``side``): which are
        certain of ``cols``.

        Each row is gathered contiguously and summed in ck_step's order.
        """
        inside = np.take(self.rows[side][rows], cols, axis=1).sum(axis=1)
        return inside >= self.thresholds[side][rows]

    def first_step(
        self, side: int, index: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """``out[x, s]``: whether outcome x of ``side`` is certain of the
        other side's level set s, for every outcome and level set at once.

        The level sets are consecutive runs of ``index`` (``_runs``), so one
        gather and one ``np.add.reduceat`` give every in-set mass. That sum
        runs in another order than ``certain``'s and may differ from it in
        the last bits, so an entry near its threshold is recomputed with
        ``certain``. The band: L terms x_t summed in any order land within
        L u sum|x_t| of their exact sum, u = 2**-53 (the inner-product
        bound of Jeannerod and Rump, SIAM J. Matrix Anal. Appl. 34:338,
        2013, with every other factor 1). The two orders then differ by at
        most 2 L u sum|x_t|, so both compare alike with the shared
        threshold whenever the reduceat sum lies at least
        2 (L + 1) u sum|row| from it; the spare 2 u sum|row| absorbs the
        rounding of the band and of the distance themselves. |row|, because
        a directly built table may be signed. An all-zero row sums to
        exactly 0 in any order and has an empty band. Exact tables sum
        exactly and need no band.
        """
        rows = self.rows[side]
        inside = np.add.reduceat(rows[:, index], starts, axis=1)
        threshold = self.thresholds[side][:, None]
        certain = inside >= threshold
        if not self.exact:
            band = (2 * _UNIT_ROUNDOFF) * np.abs(rows).sum(axis=1)[:, None] * (lengths + 1)
            near = np.abs(inside - threshold) < band
            for x, s in zip(*np.nonzero(near)):
                cols = index[starts[s] : starts[s] + lengths[s]]
                certain[x, s] = self.certain(side, [x], cols)[0]
        return certain

    def step(self, a: np.ndarray, b: np.ndarray):
        """One closure step: the outcomes of a certain of b, and of b of a."""
        return a[self.certain(0, a, b)], b[self.certain(1, b, a)]

    def fixed_point(self, q_a, q_b):
        """The closure from the level sets of (q_a, q_b): (A*, B*, steps)."""
        a, b = self.level_set(0, q_a), self.level_set(1, q_b)
        return self.close(a, b, *self.step(a, b))

    def close(self, a: np.ndarray, b: np.ndarray, next_a: np.ndarray, next_b: np.ndarray):
        """Iterate from the level sets (a, b), whose first step is (next_a,
        next_b), to the fixed point, counting productive steps; each step
        keeps a subset, so it ends."""
        steps = 0
        while len(next_a) != len(a) or len(next_b) != len(b):
            a, b, steps = next_a, next_b, steps + 1
            if not (len(a) or len(b)):
                break  # two empty sets are their own next step
            next_a, next_b = self.step(a, b)
        return a, b, steps

    def weigh(self, a: np.ndarray, b: np.ndarray):
        """The masses of fixed-point sets a and b, and whether they carry
        common knowledge: both nonempty with mass above tol."""
        tol = self.tol
        mass_a = self.parts[0].masses[a].sum() if len(a) else self.zero
        mass_b = self.parts[1].masses[b].sum() if len(b) else self.zero
        return mass_a, mass_b, bool(len(a) and len(b) and mass_a > tol and mass_b > tol)

    def report(self, q_a, q_b, a: np.ndarray, b: np.ndarray, steps: int) -> CKReport:
        mass_a, mass_b, ck_holds = self.weigh(a, b)
        return CKReport(
            q_a=q_a,
            q_b=q_b,
            a_star=tuple(a.tolist()),
            b_star=tuple(b.tolist()),
            steps=steps,
            ck_holds=ck_holds,
            agrees=bool(abs(q_a - q_b) <= self.tol),
            mass_a=mass_a,
            mass_b=mass_b,
            witness=(int(a[0]), int(b[0])) if ck_holds else None,
        )

    def singular_ok(self) -> bool:
        """True when no positive-mass pair has common knowledge of
        posteriors 1 versus 0, in either orientation.

        Each orientation's two level sets are looked up first, and the
        orientation is skipped when either is empty. That is exact: a
        closure step keeps a subset of each set, so an empty level set
        stays empty at the fixed point, and common knowledge needs both
        fixed-point sets nonempty; the skipped closure would have answered
        no. Tables almost never attain posterior 1 on one axis and 0 on the
        other, so almost no closure runs.
        """
        for q_a, q_b in ((1.0, 0.0), (0.0, 1.0)):
            a, b = self.level_set(0, q_a), self.level_set(1, q_b)
            if len(a) and len(b):
                a, b, _ = self.close(a, b, *self.step(a, b))
                if self.weigh(a, b)[2]:
                    return False
        return True


def _engine(p: JointDistribution, event: Event, tol: float) -> _Engine:
    """The engine of (p, event, tol), the only place one is built.

    ``p`` keeps the last engine built on it, with its (event, tol): an
    equal key returns that engine, any other builds one and replaces it.
    Key and engine are stored as one tuple in one assignment, so threads
    sharing ``p`` at worst build an engine twice. The engine holds no
    reference to ``p``, so it is freed with the table.
    """
    key = (event, tol)
    memo = p._engine_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    engine = _Engine(p, event, tol)
    object.__setattr__(p, "_engine_memo", (key, engine))
    return engine


_EMPTY = np.empty(0, dtype=np.intp)
_EMPTY.setflags(write=False)


class SweepResult(Sequence[CKReport]):
    """The closure at every attained posterior pair of one (table, event),
    stored as columns in row-major (q_a, q_b) order.

    ``q_a``, ``q_b``, ``steps`` and ``ck_holds`` hold one entry per pair.
    ``posteriors`` holds each axis's per-outcome posteriors, equal to
    ``axis_posteriors``'s but as Python floats (Fractions for an exact
    table; None where the mass is at most the table's tol), and
    ``singular_ok`` is ``singular_disagreement_check``'s answer, computed
    on first read from the same engine.
    ``fixed_points`` maps a pair's index to its fixed-point sets
    (A*, B*), as ascending index arrays, for the pairs where they are not
    both empty; every other pair's are. As a sequence the result yields one
    :class:`CKReport` per pair, built when it is read and equal to
    ``ck_closure``'s at that pair; compare ``tuple(result)`` to compare
    reports.
    """

    def __init__(
        self,
        engine: _Engine,
        steps: np.ndarray,
        ck_holds: np.ndarray,
        fixed_points: dict[int, tuple[np.ndarray, np.ndarray]],
    ):
        self._engine = engine
        self._reps = (engine.parts[0].representatives, engine.parts[1].representatives)
        self.steps = steps
        self.ck_holds = ck_holds
        self.fixed_points = fixed_points
        self.posteriors = (engine.parts[0].posteriors, engine.parts[1].posteriors)

    @cached_property
    def singular_ok(self) -> bool:
        return self._engine.singular_ok()

    # built on first read: the fuzz and violations never read them
    @cached_property
    def q_a(self) -> np.ndarray:
        reps_a, reps_b = self._reps
        return np.repeat(np.array(reps_a), len(reps_b))

    @cached_property
    def q_b(self) -> np.ndarray:
        reps_a, reps_b = self._reps
        return np.tile(np.array(reps_b), len(reps_a))

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, index: int) -> CKReport:
        index = operator.index(index)
        if not -len(self) <= index < len(self):
            raise IndexError(f"pair index {index} out of range for {len(self)} pairs")
        index %= len(self)
        return self._report(index, int(self.steps[index]))

    def __iter__(self) -> Iterator[CKReport]:
        for index, steps in enumerate(self.steps.tolist()):
            yield self._report(index, steps)

    def _report(self, index: int, steps: int) -> CKReport:
        reps_a, reps_b = self._reps
        k, l = divmod(index, len(reps_b))
        a, b = self.fixed_points.get(index, (_EMPTY, _EMPTY))
        return self._engine.report(reps_a[k], reps_b[l], a, b, steps)

    def violating(self) -> list[int]:
        """Indices of the pairs that hold common knowledge of differing
        posteriors. Only a pair with a nonempty fixed point can hold it."""
        reps_a, reps_b = self._reps
        tol = self._engine.tol
        return [
            index
            for index in self.fixed_points
            if self.ck_holds[index]
            and not abs(reps_a[index // len(reps_b)] - reps_b[index % len(reps_b)]) <= tol
        ]


def _runs(level_sets: tuple[tuple[int, ...], ...]):
    """One axis's level sets as consecutive runs of one index array:
    (index, starts, lengths); every level set is nonempty."""
    lengths = [len(s) for s in level_sets]
    index = np.fromiter(chain.from_iterable(level_sets), dtype=np.intp, count=sum(lengths))
    starts = np.fromiter(accumulate(lengths[:-1], initial=0), dtype=np.intp, count=len(lengths))
    return index, starts, np.array(lengths)


def _keeps_any(certain: np.ndarray, index: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``out[k, s]``: whether any outcome of this axis's level set k (the
    run of ``index`` from ``starts[k]``) is certain of the other axis's
    level set s, given ``certain[outcome, s]``."""
    return np.logical_or.reduceat(certain[index], starts, axis=0)


def verify_agreement(
    p: JointDistribution, event: Event, tol: float = DEFAULT_TOL
) -> SweepResult:
    """Run the closure at every attained posterior pair.

    A pair with ``ck_holds`` whose posteriors do not agree would witness
    common knowledge of differing posteriors; for any valid joint table
    none exists, and callers treat one as a hard failure. The result's
    reports equal ``ck_closure``'s at each pair, in row-major (q_a, q_b)
    order.

    Every pair's first step comes from one gather per axis (see
    ``_Engine.first_step``). A pair whose first step keeps no outcome of
    either level set is closed after that step, both sets empty; only the
    other pairs iterate, from their first-step sets. An axis with no
    outcome of mass above tol attains no posterior, so its sweep is empty.
    """
    engine = _engine(p, event, tol)
    index_a, starts_a, lengths_a = _runs(engine.parts[0].level_sets())
    index_b, starts_b, lengths_b = _runs(engine.parts[1].level_sets())
    if not (len(lengths_a) and len(lengths_b)):
        return SweepResult(engine, np.ones(0, dtype=np.intp), np.zeros(0, dtype=bool), {})
    # certain_a[i, l]: whether outcome i of I is certain of J's level set l
    # (and certain_b likewise); kept[k, l]: whether pair (k, l)'s first step
    # keeps any outcome of either level set
    certain_a = engine.first_step(0, index_b, starts_b, lengths_b)
    certain_b = engine.first_step(1, index_a, starts_a, lengths_a)
    kept = _keeps_any(certain_a, index_a, starts_a) | _keeps_any(certain_b, index_b, starts_b).T
    steps = np.ones(kept.size, dtype=np.intp)
    ck_holds = np.zeros(kept.size, dtype=bool)
    fixed_points = {}
    for index in np.flatnonzero(kept).tolist():
        k, l = divmod(index, len(lengths_b))
        a = index_a[starts_a[k] : starts_a[k] + lengths_a[k]]
        b = index_b[starts_b[l] : starts_b[l] + lengths_b[l]]
        a, b, steps[index] = engine.close(a, b, a[certain_a[a, l]], b[certain_b[b, k]])
        if len(a) or len(b):
            fixed_points[index] = (a, b)
            ck_holds[index] = engine.weigh(a, b)[2]
    return SweepResult(engine, steps, ck_holds, fixed_points)


def violations(reports) -> tuple[CKReport, ...]:
    """The reports that hold common knowledge of differing posteriors; a
    :class:`SweepResult` builds only those."""
    if isinstance(reports, SweepResult):
        return tuple([reports[index] for index in reports.violating()])
    return tuple(r for r in reports if r.ck_holds and not r.agrees)


def singular_disagreement_check(
    p: JointDistribution, event: Event, tol: float = DEFAULT_TOL
) -> bool:
    """True when no positive-mass pair has common knowledge of posteriors
    1 versus 0 (in either orientation). Always true for a well-defined
    joint table: certainty of the event on one side forces zero mass on
    every outcome the other side would need.

    It runs on the engine kept on ``p`` for (event, tol), so after
    ``verify_agreement`` on the same arguments it builds no posterior
    partition, pair marginal or threshold again; a sweep's result answers
    the same from that engine as ``SweepResult.singular_ok``. A closure
    runs only for an orientation that attains both level sets, posterior
    1 on one axis and 0 on the other."""
    return _engine(p, event, tol).singular_ok()


@dataclass(frozen=True)
class AnnouncementRound:
    """One round of the disclose-and-update protocol, after refinement."""

    alice_announcement: float
    bob_announcement: float
    alice_consistent: tuple[int, ...]
    bob_consistent: tuple[int, ...]


@dataclass(frozen=True)
class ProtocolTranscript:
    observed: tuple[int, int]
    rounds: tuple[AnnouncementRound, ...]
    final_alice: float
    final_bob: float
    rectangle_posterior: float

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


def dynamic_protocol(
    p: JointDistribution,
    event: Event,
    i: int,
    j: int,
    max_rounds: int | None = None,
    tol: float = DEFAULT_TOL,
) -> ProtocolTranscript:
    """Alternating public posterior announcements until they stabilize.

    Alice observed i, Bob observed j. Publicly, Alice's outcome is known to
    lie in a set S_A and Bob's in S_B, initially full. Each round Alice
    announces her posterior given (i, S_B); S_A shrinks to the outcomes
    consistent with that announcement; Bob announces given (j, S_A) and S_B
    shrinks likewise. The protocol stops at the first round that changes
    neither set; both final announcements then equal the conditional
    probability of the event on the rectangle S_A x S_B.
    """
    ks = list(event.sorted_members)
    m2 = p.table.sum(axis=2)
    e2 = p.table[:, :, ks].sum(axis=2) if ks else np.zeros_like(m2)
    if m2[i, :].sum() <= tol or m2[:, j].sum() <= tol:
        raise ZeroProbabilityConditioning("observed outcomes need positive prior mass")
    if max_rounds is None:
        max_rounds = p.space.size_i * p.space.size_j

    def posterior_rows(rows_matrix, event_matrix, x, other):
        denom = rows_matrix[x, other].sum()
        if denom <= tol:
            raise ZeroProbabilityConditioning(
                "announcements eliminated every outcome consistent with an observation"
            )
        return event_matrix[x, other].sum() / denom

    s_a = list(range(p.space.size_i))
    s_b = list(range(p.space.size_j))
    rounds: list[AnnouncementRound] = []
    for _ in range(max_rounds):
        changed = False
        announce_a = posterior_rows(m2, e2, i, s_b)
        new_a = [
            x
            for x in s_a
            if m2[x, s_b].sum() > tol
            and abs(posterior_rows(m2, e2, x, s_b) - announce_a) <= tol
        ]
        if new_a != s_a:
            s_a = new_a
            changed = True
        announce_b = posterior_rows(m2.T, e2.T, j, s_a)
        new_b = [
            y
            for y in s_b
            if m2.T[y, s_a].sum() > tol
            and abs(posterior_rows(m2.T, e2.T, y, s_a) - announce_b) <= tol
        ]
        if new_b != s_b:
            s_b = new_b
            changed = True
        rounds.append(
            AnnouncementRound(
                float(announce_a), float(announce_b), tuple(s_a), tuple(s_b)
            )
        )
        if not changed:
            rect_mass = m2[np.ix_(s_a, s_b)].sum()
            rect = e2[np.ix_(s_a, s_b)].sum() / rect_mass
            return ProtocolTranscript(
                observed=(i, j),
                rounds=tuple(rounds),
                final_alice=float(announce_a),
                final_bob=float(announce_b),
                rectangle_posterior=float(rect),
            )
    raise NoConvergence(
        f"protocol did not stabilize within {max_rounds} rounds"
    )


def as_effective_state_space(p: JointDistribution, event: Event) -> ClassicalModel:
    """Reexpress a joint table as an ontic model over the outcome triples.

    States are the triples (i, j, k) in row-major order with the table as
    prior; Alice's partition groups states by i, Bob's by j, the event
    partition by k, and the event cells are the event members. Embedding
    this model back into a table recovers p entry for entry.
    """
    size_i, size_j, size_k = p.space.sizes
    prior = tuple(p.table.reshape(-1))
    part_a = []
    part_b = []
    part_e = []
    for i in range(size_i):
        for j in range(size_j):
            for k in range(size_k):
                part_a.append(i)
                part_b.append(j)
                part_e.append(k)
    return ClassicalModel(
        prior=prior,
        part_a=tuple(part_a),
        part_b=tuple(part_b),
        part_e=tuple(part_e),
        event_cells=event.members,
    )
