"""The one-pass agreement engine against the per-pair oracle.

``verify_agreement`` must return exactly what ``ck_closure`` returns at
each attained posterior pair, field for field and float for float (the
reprs are compared too, so types and bits match), and
``singular_disagreement_check`` and the result's ``singular_ok`` must match
its two oracle closures, and ``is_common_knowledge`` the oracle's A* x B*.
The result's columns must agree with those reports, the readers of the
columns (``violations``, ``fuzz_search``) must build no report, and each
production reader must build one posterior partition per axis: readers of
one (table, event, tol) share the engine kept on the table, and the
singular check closes only an orientation whose level sets are both
nonempty. The sweep's one-pass first step and its level sets without
bisection are also checked at the float edges where they must fall back:
a sum on its threshold, two summation orders on either side of it, and
two representatives within tol.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreelab import (
    CKReport,
    Event,
    JointDistribution,
    OutcomeSpace,
    SweepResult,
    attained_posteriors,
    ck_closure,
    embed_classical,
    fuzz_search,
    initial_sets,
    is_common_knowledge,
    parse_scenario,
    run_scenario,
    singular_disagreement_check,
    validate_joint,
    verify_agreement,
    violations,
)
from agreelab import agreement
from agreelab.agreement import _Engine, _PosteriorPartition, _posterior_partition
from agreelab.joint import axis_posteriors
from agreelab.randomgen import random_classical_model, trial_rng
from agreelab.scenario import BACKENDS


def _trial_joint(backend, rng, max_dim):
    """One fuzz trial's table and event, drawn and built as ``fuzz_search``
    does at its default tolerance."""
    source, event = BACKENDS[backend].draw(rng, max_dim)
    return BACKENDS[backend].joint(source, 1e-9), event


def oracle_sweep(p, event, tol):
    return tuple(
        ck_closure(p, event, qa, qb, tol)
        for qa in attained_posteriors(p, event, "I", tol)
        for qb in attained_posteriors(p, event, "J", tol)
    )


def oracle_singular(p, event, tol):
    return not any(
        ck_closure(p, event, qa, qb, tol).ck_holds for qa, qb in ((1.0, 0.0), (0.0, 1.0))
    )


def assert_matches_oracle(p, event, tol):
    got = verify_agreement(p, event, tol)
    want = oracle_sweep(p, event, tol)
    assert tuple(got) == want
    assert repr(tuple(got)) == repr(want)
    # the columns agree with the reports without building any
    assert got.q_a.tolist() == [r.q_a for r in want]
    assert got.q_b.tolist() == [r.q_b for r in want]
    assert got.steps.tolist() == [r.steps for r in want]
    assert got.ck_holds.tolist() == [r.ck_holds for r in want]
    assert got.posteriors == (axis_posteriors(p, event, "I"), axis_posteriors(p, event, "J"))
    singular = oracle_singular(p, event, tol)
    assert got.singular_ok == singular_disagreement_check(p, event, tol) == singular
    assert_point_queries_match_oracle(p, event, tol)
    return got


def oracle_point_queries(p, event, tol):
    """``is_common_knowledge`` at every (i, j) of outcomes with mass above
    the table's tol: membership of i and j in ck_closure's A* and B* at the
    representatives of their posterior clusters, False for an outcome in no
    cluster."""
    held = {}
    reps_b = attained_posteriors(p, event, "J", tol)
    for qa in attained_posteriors(p, event, "I", tol):
        for qb in reps_b:
            a0, b0 = initial_sets(p, event, qa, qb, tol)
            r = ck_closure(p, event, qa, qb, tol)
            held.update({(i, j): i in r.a_star and j in r.b_star for i in a0 for j in b0})
    rows, cols = (np.flatnonzero(p.axis_masses(axis) > p.tol).tolist() for axis in "IJ")
    return {(i, j): held.get((i, j), False) for i in rows for j in cols}


def assert_point_queries_match_oracle(p, event, tol):
    want = oracle_point_queries(p, event, tol)
    assert want
    got = {(i, j): is_common_knowledge(p, event, i, j, tol) for i, j in want}
    assert got == want


@pytest.mark.parametrize("backend", BACKENDS)
def test_seeded_trials_match_oracle(backend):
    for t in range(20 if backend == "process" else 60):
        p, event = _trial_joint(backend, trial_rng(2024, t), 4)
        assert_matches_oracle(p, event, 1e-9)


def test_exact_classical_models_at_zero_tol():
    for t in range(80):
        p, event = embed_classical(random_classical_model(trial_rng(31, t), exact=True))
        assert p.exact
        assert_matches_oracle(p, event, 0)


def block_table(n, rng):
    """n x n x 3: three dense blocks with random posteriors and one
    constant-posterior block whose first row leaks 1e-12 of its mass
    into another block, with relative noise of 1e-12 on its entries."""
    c = max(2, n // 6)
    sizes = [c, *(2 + e for e in rng.multinomial(n - c - 6, [1 / 3] * 3))]
    rows, cols = rng.permutation(n), rng.permutation(n)
    t = np.zeros((n, n, 3))
    r_const = rng.dirichlet(np.ones(3))
    starts = np.cumsum([0, *sizes])
    for b in range(4):
        bi = rows[starts[b] : starts[b + 1]]
        bj = cols[starts[b] : starts[b + 1]]
        mass = rng.exponential(1.0, size=(len(bi), len(bj))) + 0.05
        if b == 0:
            cond = r_const * (1 + rng.uniform(-1e-12, 1e-12, size=(len(bi), len(bj), 3)))
        else:
            cond = rng.dirichlet(np.ones(3), size=(len(bi), len(bj)))
        t[np.ix_(bi, bj)] = mass[:, :, None] * cond
    t[rows[0], cols[starts[1]], 0] = 1e-12 * t[rows[0]].sum()
    return t / t.sum(), sorted(int(x) for x in rows[:c]), sorted(int(x) for x in cols[:c])


@pytest.mark.parametrize("n", [8, 12, 20])
def test_block_tables_with_leak_match_oracle(n):
    rng = np.random.default_rng(n)
    for members in ({0}, {1, 2}):
        table, const_rows, const_cols = block_table(n, rng)
        space = OutcomeSpace(n, n, 3)
        event = Event(space, frozenset(members))
        reports = assert_matches_oracle(validate_joint(table, space), event, 1e-9)
        held = [r for r in reports if r.ck_holds]
        assert [(list(r.a_star), list(r.b_star)) for r in held] == [(const_rows, const_cols)]


@pytest.mark.parametrize("n", [16, 33])
def test_one_large_cluster_matches_oracle(n):
    # every posterior equal up to 1e-12: one level set of n outcomes per
    # side, so masses and certainty sums run over many entries, where the
    # summation order shows in the last bits
    rng = np.random.default_rng(n)
    mass = rng.exponential(1.0, size=(n, n)) * (rng.random((n, n)) < 0.8)
    noise = 1 + rng.uniform(-1e-12, 1e-12, size=(n, n, 2))
    table = mass[:, :, None] * np.array([0.3, 0.7]) * noise
    space = OutcomeSpace(n, n, 2)
    event = Event(space, frozenset({0}))
    (r,) = assert_matches_oracle(validate_joint(table / table.sum(), space), event, 1e-9)
    assert r.ck_holds and len(r.a_star) == n


def test_leaked_block_holds_only_through_certainty_slack():
    # rows and columns {0, 1} form a block with posterior 0.3; row 0 leaks
    # 1e-12 of its mass, with the same posterior, into column 2 of a block
    # with distinct posteriors. The leak is below tol = 1e-9 and above
    # tol = 1e-13, and the block's posteriors agree far closer than either,
    # so common knowledge stands or falls with the certainty test alone.
    # A rule on support entries (p(i, j) > 0) would join the two blocks.
    table = np.zeros((4, 4, 2))
    table[:2, :2] = (0.3, 0.7)
    table[2:, 2:] = [[(0.2, 0.8), (0.8, 0.2)], [(0.6, 0.4), (0.5, 0.5)]]
    table[0, 2] = 2e-12 * np.array([0.3, 0.7])
    space = OutcomeSpace(4, 4, 2)
    event = Event(space, frozenset({0}))
    for tol, holds in ((1e-9, True), (1e-13, False)):
        p = validate_joint(table / table.sum(), space, tol)
        reports = assert_matches_oracle(p, event, tol)
        held = [(r.a_star, r.b_star) for r in reports if r.ck_holds]
        assert held == ([((0, 1), (0, 1))] if holds else [])


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-9, 1e-12, 1e-14]),
)
def test_near_zero_entries_match_oracle(seed, tol):
    """Block tables with constant posteriors per block, then exact zeros,
    ~1e-17 round-off entries (as quantum tables carry) and ~1e-12 leaks
    across blocks: the engine must still agree with the oracle pair by pair."""
    rng = np.random.default_rng(seed)
    size_i, size_j, size_k = (int(x) for x in rng.integers(2, 7, size=3))
    block_i = rng.integers(0, 2, size=size_i)
    block_j = rng.integers(0, 2, size=size_j)
    cond = rng.dirichlet(np.ones(size_k), size=2)
    mass = rng.exponential(1.0, size=(size_i, size_j)) * (block_i[:, None] == block_j[None, :])
    table = mass[:, :, None] * cond[block_i][:, None, :]
    table[rng.random(mass.shape) < 0.2] = 0.0
    roundoff = rng.random(table.shape) < 0.15
    table[roundoff] += rng.uniform(0, 2e-17, size=int(roundoff.sum()))
    leaks = rng.random(table.shape) < 0.05
    table[leaks] += rng.uniform(0, 2e-12, size=int(leaks.sum()))
    if table.sum() == 0:
        table[0, 0, 0] = 1.0
    space = OutcomeSpace(size_i, size_j, size_k)
    members = frozenset(int(k) for k in np.flatnonzero(rng.random(size_k) < 0.5))
    p = validate_joint(table / table.sum(), space, tol)
    assert_matches_oracle(p, Event(space, members), tol)


def scanned_level_set(part, q):
    """The level set by a scan of every cluster, as it was computed before
    bisection."""
    return tuple(
        sorted(
            x
            for rep, cluster in zip(part.representatives, part.clusters)
            if abs(rep - q) <= part.tol
            for x in cluster
        )
    )


def probe_points(part):
    """Each representative, each midpoint of two neighbours, the points at
    exactly tol from each representative, and values within tol of nothing."""
    reps = list(part.representatives)
    mids = [(a + b) / 2 for a, b in zip(reps, reps[1:])]
    edges = [r + s * part.tol for r in reps for s in (-1, 1)]
    return reps + mids + edges + [-1.0, 2.0, float("inf"), float("-inf"), float("nan")]


def test_level_set_spanning_two_clusters_matches_the_scan():
    # Alice's posteriors 0.5 and 0.5 + 1.5e-9 stay two clusters at tol 1e-9,
    # and q = 0.5 + 0.75e-9 lies within tol of both representatives
    q_rows = [0.2, 0.5, 0.5 + 1.5e-9, 0.5 + 1.5e-9, 0.8]
    table = np.array([[[q / 10, (1 - q) / 10], [q / 10, (1 - q) / 10]] for q in q_rows])
    space = OutcomeSpace(5, 2, 2)
    p = validate_joint(table / table.sum(), space)
    part = _posterior_partition(p, Event(space, frozenset({0})), "I", 1e-9)
    assert part.clusters == ((0,), (1,), (2, 3), (4,))
    assert part.level_set(0.5 + 0.75e-9) == scanned_level_set(part, 0.5 + 0.75e-9) == (1, 2, 3)
    for q in probe_points(part):
        assert part.level_set(q) == scanned_level_set(part, q), q


def test_level_sets_of_trial_tables_match_the_scan():
    for backend in BACKENDS:
        for t in range(10):
            p, event = _trial_joint(backend, trial_rng(2024, t), 4)
            for axis in "IJ":
                part = _posterior_partition(p, event, axis, 1e-9)
                for q in probe_points(part):
                    assert part.level_set(q) == scanned_level_set(part, q), (backend, t, q)
    for t in range(10):
        p, event = embed_classical(random_classical_model(trial_rng(31, t), exact=True))
        part = _posterior_partition(p, event, "I", 0)
        for q in probe_points(part):
            assert part.level_set(q) == scanned_level_set(part, q), (t, q)


def test_first_step_on_its_threshold_matches_oracle():
    # dyadic entries, so every sum is exact: row 0 of the pair marginal is
    # [1 - tol, tol] / 2, and its mass in column 0's level set is
    # (1 - tol) times its total, on the threshold, where the sweep's one-pass
    # sum is recomputed in ck_step's order
    tol = 2.0**-30
    table = np.zeros((2, 2, 2))
    table[0, 0] = (1 - tol) / 2 * np.array([0.25, 0.75])
    table[0, 1] = tol / 2 * np.array([0.5, 0.5])
    table[1, 1] = [0.375, 0.125]
    space = OutcomeSpace(2, 2, 2)
    p = validate_joint(table, space, tol)
    m2 = p.table.sum(axis=2)
    assert m2[0, 0] == (1 - tol) * m2[0].sum()
    result = assert_matches_oracle(p, Event(space, frozenset({0})), tol)
    assert result[0].ck_holds and (result[0].a_star, result[0].b_star) == ((0,), (0,))


def test_first_step_between_two_summation_orders_matches_oracle():
    # row 0's mass in the level set of columns 0-2 (posterior 1/2 each) lies
    # on one side of its threshold summed in ck_step's order and on the
    # other summed in one run by np.add.reduceat: the sweep must recompute it
    tol = 2.0**-30
    row = np.array([1 + 2.0**-52, 2.0**-29 + 2.0**-54, 2.0**-29 + 2.0**-54, tol + 2.0**-53]) / 2
    table = np.zeros((2, 4, 2))
    table[0] = row[:, None] / 2
    rest = 1 - row.sum()
    table[1, 3] = [rest / 4, 3 * rest / 4]
    space = OutcomeSpace(2, 4, 2)
    p = validate_joint(table, space, tol)
    m2 = p.table.sum(axis=2)
    assert m2[0].tolist() == row.tolist()
    threshold = (1 - tol) * m2[0].sum()
    in_order = m2[0, :3].sum() >= threshold
    in_one_run = np.add.reduceat(m2[:, [0, 1, 2]], [0], axis=1)[0, 0] >= threshold
    assert in_order != in_one_run, "the two summation orders no longer straddle the threshold"
    assert_matches_oracle(p, Event(space, frozenset({0})), tol)


def test_sweep_looks_up_level_sets_when_representatives_lie_within_tol():
    # rows 0-2 share posterior x, and their mean ((x + x) + x) / 3 rounds one
    # ulp up; row 3's posterior lies tol plus one ulp above x, so it is a
    # cluster of its own whose representative lies within tol of the first's
    tol = 2.0**-30
    x = 0.75 + 2.0**-52
    q_rows = [x, x, x, x + tol + 2.0**-53]
    space = OutcomeSpace(4, 1, 2)
    p = validate_joint(np.array([[[q / 4, (1 - q) / 4]] for q in q_rows]), space, tol)
    event = Event(space, frozenset({0}))
    part = _posterior_partition(p, event, "I", tol)
    low, high = part.representatives
    assert part.clusters == ((0, 1, 2), (3,)) and high - low <= tol
    assert part.level_sets() == (part.level_set(low), part.level_set(high)) == ((0, 1, 2, 3),) * 2
    assert_matches_oracle(p, event, tol)


def test_level_sets_equal_the_lookup_at_each_representative():
    parts = [
        _posterior_partition(p, event, axis, 1e-9)
        for backend in BACKENDS
        for p, event in (_trial_joint(backend, trial_rng(2024, t), 4) for t in range(10))
        for axis in "IJ"
    ]
    # a NaN or infinite representative is within tol of nothing, itself included
    nan, inf = float("nan"), float("inf")
    parts += [
        _PosteriorPartition(np.ones(1), (nan,), ((0,),), (nan,), 1e-9),
        _PosteriorPartition(np.ones(2), (0.5, inf), ((0,), (1,)), (0.5, inf), 1e-9),
    ]
    for part in parts:
        assert part.level_sets() == tuple(part.level_set(q) for q in part.representatives)


def test_axis_without_posteriors_sweeps_no_pair():
    # at tol 0.6 no outcome of the uniform 2 x 2 x 2 table has mass above
    # tol, so neither axis attains a posterior
    space = OutcomeSpace(2, 2, 2)
    p = validate_joint(np.full((2, 2, 2), 0.125), space)
    result = assert_matches_oracle(p, Event(space, frozenset({0})), 0.6)
    assert len(result) == 0 and result.singular_ok


def test_result_is_a_sequence_of_reports():
    p, event = _trial_joint("table", trial_rng(2024, 3), 4)
    got = verify_agreement(p, event, 1e-9)
    want = oracle_sweep(p, event, 1e-9)
    assert isinstance(got, SweepResult) and len(got) == len(want) > 1
    assert got[-1] == want[-1] and repr(got[-1]) == repr(want[-1])
    assert got[-len(want)] == want[0] and got[len(want) - 1] == want[-1]
    for index in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            got[index]
    first, second = tuple(got), tuple(got)
    assert first == second == want
    assert all(isinstance(r, CKReport) for r in first)


def test_violations_of_result_equal_violations_of_its_reports():
    for backend in BACKENDS:
        p, event = _trial_joint(backend, trial_rng(2024, 5), 4)
        result = verify_agreement(p, event, 1e-9)
        assert violations(result) == violations(tuple(result)) == ()
    # a signed table, which validate_joint refuses, is the only way to a
    # violation: row 0's posterior 0.75 counts the event half of a
    # zero-mass (+1/4, -1/4) entry that column 0's posterior 0.5 never sees
    space = OutcomeSpace(1, 2, 2)
    signed = JointDistribution(space, np.array([[[0.5, 0.5], [0.25, -0.25]]]))
    event = Event(space, frozenset({0}))
    result = verify_agreement(signed, event, 1e-9)
    (bad,) = violations(result)
    assert (bad.q_a, bad.q_b, bad.ck_holds, bad.agrees) == (0.75, 0.5, True, False)
    assert violations(result) == violations(tuple(result))
    assert repr(violations(result)) == repr(violations(tuple(result)))


def test_singular_check_fails_on_a_signed_table():
    # column 1 carries (+1, -1), zero mass and no posterior, so row 0 sees
    # the event with certainty while column 0 never does: common knowledge
    # of 1 versus 0, in the orientation the event picks
    space = OutcomeSpace(1, 2, 2)
    signed = JointDistribution(space, np.array([[[0.0, 1.0], [1.0, -1.0]]]))
    for members, pair in (({0}, (1.0, 0.0)), ({1}, (0.0, 1.0))):
        result = assert_matches_oracle(signed, Event(space, frozenset(members)), 1e-9)
        assert result.singular_ok is False
        assert [(r.q_a, r.q_b) for r in violations(result)] == [pair]


def test_columnar_readers_build_no_report(monkeypatch):
    calls = []
    real = _Engine.report

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(_Engine, "report", counted)
    for backend in BACKENDS:
        assert fuzz_search(backend, trials=15, max_dim=3, seed=5).passed
    p, event = _trial_joint("process", trial_rng(2024, 1), 4)
    result = verify_agreement(p, event, 1e-9)
    assert violations(result) == ()
    assert calls == []
    tuple(result)
    assert len(calls) == len(result)


def test_one_posterior_partition_per_axis(monkeypatch, scenarios_dir):
    calls = []
    real = agreement._posterior_partition

    def counted(p, event, axis, tol):
        calls.append(axis)
        return real(p, event, axis, tol)

    monkeypatch.setattr(agreement, "_posterior_partition", counted)

    def partitions(run):
        calls.clear()
        run()
        return sorted(calls)

    for path in sorted(scenarios_dir.glob("*.json")):
        s = parse_scenario(path.read_text())
        assert partitions(lambda: run_scenario(s)) == ["I", "J"], path.name
    for backend in BACKENDS:
        assert partitions(lambda: fuzz_search(backend, trials=1, seed=3)) == ["I", "J"], backend
    p, event = _trial_joint("table", trial_rng(2024, 3), 4)
    i, j = (int(np.argmax(p.axis_masses(axis))) for axis in "IJ")
    assert partitions(lambda: is_common_knowledge(p, event, i, j)) == ["I", "J"]


def test_one_engine_per_table_event_and_tol(monkeypatch):
    p, event = _trial_joint("table", trial_rng(2024, 3), 4)
    engine = agreement._engine(p, event, 1e-9)
    # an equal event built anew is the same key
    twin = Event(event.space, frozenset(event.members))
    assert agreement._engine(p, twin, 1e-9) is engine
    built = []
    real = _Engine.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(_Engine, "__init__", counted)
    result = verify_agreement(p, event, 1e-9)
    assert singular_disagreement_check(p, event, 1e-9) == result.singular_ok
    i, j = (int(np.argmax(p.axis_masses(axis))) for axis in "IJ")
    is_common_knowledge(p, event, i, j, 1e-9)
    assert built == []
    assert result._engine is engine


def test_another_key_or_table_builds_another_engine():
    p, event = _trial_joint("table", trial_rng(2024, 3), 4)
    engine = agreement._engine(p, event, 1e-9)
    other_event = Event(event.space, frozenset(range(event.space.size_k)) - event.members)
    for other in (
        agreement._engine(p, other_event, 1e-9),
        agreement._engine(p, event, 1e-12),
        agreement._engine(validate_joint(p.table, p.space), event, 1e-9),
    ):
        assert other is not engine
    # the table keeps only its last engine: the first key builds anew
    again = agreement._engine(p, event, 1e-9)
    assert again is not engine and agreement._engine(p, event, 1e-9) is again


def test_kept_engine_does_not_keep_its_table():
    p, event = _trial_joint("table", trial_rng(2024, 3), 4)
    assert verify_agreement(p, event, 1e-9).singular_ok
    gone = weakref.ref(p)
    del p
    # no reference cycle: the table is freed at once, without a collection
    assert gone() is None


def certain_and_free_table(rng):
    """Outcomes of each axis in three groups: 0, whose mass is all in the
    event {0, 1} (posterior 1); 1, with none in it (posterior 0); and 2,
    mixed. Group 0 of one axis shares no mass with group 1 of the other,
    as a valid table must, so each axis attains posteriors 1 and 0."""
    size_i, size_j = (int(x) for x in rng.integers(3, 8, size=2))
    group_i = np.concatenate([[0, 1, 2], rng.integers(0, 3, size=size_i - 3)])[:, None]
    group_j = np.concatenate([[0, 1, 2], rng.integers(0, 3, size=size_j - 3)])[None, :]
    mass = rng.exponential(1.0, size=(size_i, size_j)) * (group_i + group_j != 1)
    cond = rng.dirichlet(np.ones(3), size=mass.shape)
    cond[(group_i == 0) | (group_j == 0), 2] = 0.0
    cond[(group_i == 1) | (group_j == 1)] = (0.0, 0.0, 1.0)
    table = mass[:, :, None] * cond / cond.sum(axis=2, keepdims=True)
    return table / table.sum(), OutcomeSpace(size_i, size_j, 3)


def test_singular_check_on_tables_attaining_certainty_both_ways(monkeypatch):
    closed = []
    real = _Engine.close

    def counted(self, *args):
        closed.append(args)
        return real(self, *args)

    monkeypatch.setattr(_Engine, "close", counted)
    rng = np.random.default_rng(17)
    for _ in range(40):
        table, space = certain_and_free_table(rng)
        p = validate_joint(table, space)
        event = Event(space, frozenset({0, 1}))
        engine = agreement._engine(p, event, 1e-9)
        assert all(len(engine.level_set(side, q)) for side in (0, 1) for q in (0.0, 1.0))
        closed.clear()
        assert singular_disagreement_check(p, event, 1e-9) == oracle_singular(p, event, 1e-9)
        # both orientations attain both level sets, so both are closed
        assert len(closed) == 2
        assert_matches_oracle(p, event, 1e-9)
    # a table without posterior 0 on either axis closes nothing
    p, event = _trial_joint("table", trial_rng(2024, 3), 4)
    assert all(0.0 not in attained_posteriors(p, event, axis, 1e-9) for axis in "IJ")
    closed.clear()
    assert singular_disagreement_check(p, event, 1e-9) == oracle_singular(p, event, 1e-9)
    assert closed == []


def test_singular_check_closes_the_signed_table_that_fails_it():
    # the signed table of test_singular_check_fails_on_a_signed_table: row 0
    # attains posterior 1 (or 0) and column 0 the other, and the closure
    # keeps both, so the check fails in the orientation the event picks
    space = OutcomeSpace(1, 2, 2)
    signed = JointDistribution(space, np.array([[[0.0, 1.0], [1.0, -1.0]]]))
    for members in ({0}, {1}):
        event = Event(space, frozenset(members))
        assert oracle_singular(signed, event, 1e-9) is False
        assert agreement._engine(signed, event, 1e-9).singular_ok() is False
        assert singular_disagreement_check(signed, event, 1e-9) is False


def test_table_built_on_a_view_cannot_change_under_its_engine():
    # a view's base stays writable after the view is frozen; writing it
    # once changed the table and left the kept engine answering for the old
    # entries
    space = OutcomeSpace(1, 2, 2)
    base = np.array([[[0.5, 0.0], [0.0, 0.5]]])
    p = JointDistribution(space, base[:])
    event = Event(space, frozenset({0}))
    before = verify_agreement(p, event, 1e-9).posteriors
    base[0] = base[0, ::-1].copy()
    assert p.table.tolist() == [[[0.5, 0.0], [0.0, 0.5]]]
    assert verify_agreement(p, event, 1e-9).posteriors == before == ((0.5,), (1.0, 0.0))
