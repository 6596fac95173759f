"""Property-based tests for the table algebra and the closure machinery.

Strategies build small random joint tables (optionally with structural
zeros) and random events, then assert the invariants every distribution
must satisfy regardless of origin.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agreelab import (
    DEFAULT_TOL,
    Event,
    OutcomeSpace,
    as_effective_state_space,
    attained_posteriors,
    ck_closure,
    embed_classical,
    marginal,
    posterior_alice,
    posterior_bob,
    singular_disagreement_check,
    validate_joint,
    verify_agreement,
    violations,
)
from agreelab.agreement import _posterior_partition


@st.composite
def joint_tables(draw, max_size=4):
    sizes = tuple(draw(st.integers(1, max_size)) for _ in range(3))
    n = sizes[0] * sizes[1] * sizes[2]
    entries = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    if entries.sum() <= 0:
        entries[draw(st.integers(0, n - 1))] = 1.0
    table = (entries / entries.sum()).reshape(sizes)
    return validate_joint(table, OutcomeSpace(*sizes))


@st.composite
def tables_with_events(draw, max_size=4):
    joint = draw(joint_tables(max_size))
    size_k = joint.space.size_k
    members = draw(st.sets(st.integers(0, size_k - 1)))
    return joint, Event(joint.space, frozenset(members))


@settings(max_examples=80, deadline=None)
@given(tables_with_events())
def test_marginals_are_distributions(pair):
    joint, _ = pair
    for axes in (["I"], ["J"], ["K"], ["I", "J"], ["J", "K"], ["I", "K"]):
        m = marginal(joint, axes)
        assert m.sum() == pytest.approx(1.0, abs=1e-9)
        assert m.min() >= -1e-12


@settings(max_examples=80, deadline=None)
@given(tables_with_events())
def test_law_of_total_probability(pair):
    joint, event = pair
    for axis, post in (("I", posterior_alice), ("J", posterior_bob)):
        masses = joint.axis_masses(axis)
        total = sum(
            masses[x] * post(joint, x, event)
            for x in range(joint.space.axis_size(axis))
            if masses[x] > joint.tol
        )
        skipped = sum(
            joint.table.take([x], axis=0 if axis == "I" else 1)[..., list(event.members)].sum()
            for x in range(joint.space.axis_size(axis))
            if masses[x] <= joint.tol
        ) if event.members else 0.0
        assert total + skipped == pytest.approx(float(joint.event_mass(event)), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(joint_tables(), st.data())
def test_posterior_monotone_in_event(joint, data):
    size_k = joint.space.size_k
    small = data.draw(st.sets(st.integers(0, size_k - 1)))
    extra = data.draw(st.sets(st.integers(0, size_k - 1)))
    e_small = Event(joint.space, frozenset(small))
    e_big = Event(joint.space, frozenset(small | extra))
    masses = joint.axis_masses("I")
    for i in range(joint.space.size_i):
        if masses[i] > joint.tol:
            assert posterior_alice(joint, i, e_small) <= posterior_alice(joint, i, e_big) + 1e-12


@settings(max_examples=60, deadline=None)
@given(joint_tables())
def test_full_and_empty_event_posteriors(joint):
    full = Event(joint.space, frozenset(range(joint.space.size_k)))
    empty = Event(joint.space, frozenset())
    masses = joint.axis_masses("I")
    for i in range(joint.space.size_i):
        if masses[i] > joint.tol:
            assert posterior_alice(joint, i, full) == pytest.approx(1.0, abs=1e-12)
            assert posterior_alice(joint, i, empty) == 0.0


@settings(max_examples=60, deadline=None)
@given(tables_with_events())
def test_closure_terminates_within_bound_and_never_violates(pair):
    joint, event = pair
    bound = joint.space.size_i + joint.space.size_j
    reports = verify_agreement(joint, event)
    assert not violations(reports)
    for r in reports:
        assert r.steps <= bound
        assert set(r.a_star) <= set(range(joint.space.size_i))


@settings(max_examples=60, deadline=None)
@given(tables_with_events())
def test_singular_disagreement_impossible(pair):
    joint, event = pair
    assert singular_disagreement_check(joint, event)


@settings(max_examples=50, deadline=None)
@given(tables_with_events())
def test_effective_state_space_round_trip(pair):
    joint, event = pair
    model = as_effective_state_space(joint, event)
    back, back_event = embed_classical(model)
    assert back.flat() == joint.flat()
    assert back_event.members == event.members


def one_wide_cluster():
    # posteriors 0.7 tol apart chain into one cluster whose outer members
    # lie 1.05 tol from its representative; q is that representative
    q = 0.5 + 0.7 * DEFAULT_TOL * np.arange(4)
    table = np.zeros((4, 1, 2))
    table[:, 0, 0] = q / 4
    table[:, 0, 1] = (1 - q) / 4
    joint = validate_joint(table, OutcomeSpace(4, 1, 2))
    event = Event(joint.space, frozenset({0}))
    return (joint, event), attained_posteriors(joint, event, "I")[0]


@settings(max_examples=50, deadline=None)
@given(tables_with_events(), st.floats(0.0, 1.0))
@example(*one_wide_cluster())
def test_closure_level_sets_contain_only_matching_posteriors(pair, q):
    # a level set is made of whole posterior clusters, so a member of A*
    # may lie up to tol plus its cluster's width from q; its cluster's
    # representative lies within tol
    joint, event = pair
    r = ck_closure(joint, event, q, q)
    part = _posterior_partition(joint, event, "I", joint.tol)
    for i in r.a_star:
        assert abs(part.representative(i) - q) <= joint.tol * (1 + 1e-6)
    values = attained_posteriors(joint, event, "I")
    assert all(0 <= v <= 1 + 1e-12 for v in values)
