"""Closure iteration, agreement verification, and the state-space identification."""

import numpy as np
import pytest

from agreelab import (
    CKState,
    Event,
    OutcomeSpace,
    ZeroProbabilityConditioning,
    as_effective_state_space,
    attained_posteriors,
    ck_closure,
    ck_step,
    classical_ck_at,
    conditional_prob,
    embed_classical,
    initial_sets,
    is_common_knowledge,
    posterior_alice,
    posterior_bob,
    singular_disagreement_check,
    validate_joint,
    verify_agreement,
    violations,
)
from agreelab.randomgen import random_joint_table, trial_rng


def product_distribution():
    pi = np.array([0.3, 0.7])
    pj = np.array([0.25, 0.25, 0.5])
    pk = np.array([0.6, 0.4])
    table = np.einsum("i,j,k->ijk", pi, pj, pk)
    space = OutcomeSpace(2, 3, 2)
    return validate_joint(table, space), Event(space, frozenset({0}))


class TestInitialSets:
    def test_product_distribution_keeps_everything(self):
        joint, event = product_distribution()
        a0, b0 = initial_sets(joint, event, 0.6, 0.6)
        assert a0 == frozenset({0, 1})
        assert b0 == frozenset({0, 1, 2})

    def test_four_state_level_sets(self, four_state_joint):
        joint, event = four_state_joint
        a0, b0 = initial_sets(joint, event, 0.5, 1 / 3)
        assert a0 == frozenset({0, 1})
        assert b0 == frozenset({0})

    def test_unattained_posterior_gives_empty_set(self, four_state_joint):
        joint, event = four_state_joint
        a0, _ = initial_sets(joint, event, 0.9, 1 / 3)
        assert a0 == frozenset()

    def test_zero_mass_outcomes_excluded(self):
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = table[0, 0, 1] = 0.5
        joint = validate_joint(table, OutcomeSpace(2, 2, 2))
        a0, b0 = initial_sets(joint, Event(joint.space, frozenset({0})), 0.5, 0.5)
        assert a0 == frozenset({0})
        assert b0 == frozenset({0})


class TestCKStep:
    def test_full_sets_absorb(self, four_state_joint):
        joint, _ = four_state_joint
        state = CKState(frozenset({0, 1}), frozenset({0, 1}), 0)
        nxt = ck_step(joint, state)
        assert (nxt.a_set, nxt.b_set) == (state.a_set, state.b_set)
        assert nxt.n == 1

    def test_four_state_iteration_trace(self, four_state_joint):
        joint, _ = four_state_joint
        s0 = CKState(frozenset({0, 1}), frozenset({0}), 0)
        s1 = ck_step(joint, s0)
        assert (s1.a_set, s1.b_set) == (frozenset({0}), frozenset({0}))
        s2 = ck_step(joint, s1)
        assert s2.b_set == frozenset()

    def test_empty_is_absorbing(self, four_state_joint):
        joint, _ = four_state_joint
        s = ck_step(joint, CKState(frozenset(), frozenset({0, 1}), 0))
        assert s.a_set == frozenset()
        s = ck_step(joint, s)
        assert s.b_set == frozenset()


class TestCKClosure:
    def test_product_distribution_common_knowledge(self):
        joint, event = product_distribution()
        r = ck_closure(joint, event, 0.6, 0.6)
        assert r.ck_holds and r.agrees
        assert r.a_star == (0, 1)
        assert r.b_star == (0, 1, 2)
        assert r.mass_a == pytest.approx(1.0)

    def test_four_state_closure_empties(self, four_state_joint):
        joint, event = four_state_joint
        r = ck_closure(joint, event, 0.5, 1 / 3)
        assert r.b_star == ()
        assert not r.ck_holds
        assert r.witness is None

    def test_block_example_first_block(self, block_example):
        scenario, joint = block_example
        r = ck_closure(joint, scenario.event, 0.2, 0.2)
        assert r.ck_holds and r.agrees
        assert set(r.a_star) >= {0, 1}
        assert set(r.b_star) >= {0, 1}

    def test_steps_bounded(self, four_state_joint):
        joint, event = four_state_joint
        for qa in attained_posteriors(joint, event, "I"):
            for qb in attained_posteriors(joint, event, "J"):
                r = ck_closure(joint, event, qa, qb)
                assert r.steps <= joint.space.size_i + joint.space.size_j


def single_linkage_table(bob_of, tol=1e-9):
    """Alice's posteriors 0.5 + k * 0.7 tol, k = 0..3, chain into one
    cluster whose mean lies 1.05 tol from the outer two; Alice's outcome i
    occurs only with Bob's outcome bob_of[i]."""
    q = 0.5 + 0.7 * tol * np.arange(4)
    size_j = max(bob_of) + 1
    table = np.zeros((4, size_j, 2))
    for i, j in enumerate(bob_of):
        table[i, j, 0] = q[i] / 4
        table[i, j, 1] = (1 - q[i]) / 4
    joint = validate_joint(table, OutcomeSpace(4, size_j, 2))
    return joint, Event(joint.space, frozenset({0}))


class TestIsCommonKnowledge:
    def test_product_distribution_every_pair(self):
        joint, event = product_distribution()
        for i in range(2):
            for j in range(3):
                assert is_common_knowledge(joint, event, i, j)

    def test_four_state_pair_fails(self, four_state_joint):
        joint, event = four_state_joint
        assert not is_common_knowledge(joint, event, 0, 0)

    def test_block_example_pair_holds(self, block_example):
        scenario, joint = block_example
        assert is_common_knowledge(joint, scenario.event, 0, 0)

    def test_single_linkage_cluster_agrees_with_sweep(self):
        # i0, i1 lie more than tol from their cluster's mean but within tol
        # of their own raw posteriors; the point query must still run at the
        # representative and agree with the sweep's A* x B*
        tol = 1e-9
        joint, event = single_linkage_table((0, 0, 1, 1), tol)
        reports = verify_agreement(joint, event, tol)
        assert [(r.a_star, r.b_star) for r in reports] == [((0, 1), (0,)), ((2, 3), (1,))]
        for i in range(4):
            for j in range(2):
                in_sweep = any(i in r.a_star and j in r.b_star for r in reports)
                assert is_common_knowledge(joint, event, i, j, tol) == in_sweep
        assert is_common_knowledge(joint, event, 0, 0, tol)
        assert not is_common_knowledge(joint, event, 0, 1, tol)

    def test_zero_mass_pair_rejected(self):
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = 1.0
        joint = validate_joint(table, OutcomeSpace(2, 2, 2))
        with pytest.raises(ZeroProbabilityConditioning):
            is_common_knowledge(joint, Event(joint.space, frozenset({0})), 1, 0)


class TestVerifyAgreement:
    def test_classical_embedding_has_no_violations(self, four_state_joint):
        joint, event = four_state_joint
        reports = verify_agreement(joint, event)
        assert not violations(reports)
        assert len(reports) == 2  # q_a attained: {1/2}; q_b attained: {1/3, 1}

    def test_empty_event_single_agreeing_report(self, four_state_joint):
        joint, _ = four_state_joint
        reports = verify_agreement(joint, Event(joint.space, frozenset()))
        assert len(reports) == 1
        assert reports[0].ck_holds and reports[0].agrees
        assert reports[0].q_a == 0.0 and reports[0].q_b == 0.0

    def test_random_tables_never_violate(self):
        for trial in range(60):
            joint, event = random_joint_table(trial_rng(55, trial), structured_zeros=trial % 3 == 0)
            assert not violations(verify_agreement(joint, event))

    def test_single_linkage_cluster_is_one_level_set(self):
        # Alice's posteriors 0.7 tol apart chain into one cluster, and the
        # outer two lie more than tol from its mean: the level set is the
        # whole cluster all the same
        tol = 1e-9
        joint, event = single_linkage_table((0, 0, 0, 0), tol)
        assert len(attained_posteriors(joint, event, "I", tol)) == 1
        (r,) = verify_agreement(joint, event, tol)
        assert r.ck_holds and r.agrees
        assert (r.a_star, r.b_star) == ((0, 1, 2, 3), (0,))

    def test_closure_posterior_identity(self):
        # the fixed-point set, when nonempty, carries the announced posterior
        for trial in range(40):
            joint, event = random_joint_table(trial_rng(66, trial))
            for r in verify_agreement(joint, event):
                if r.ck_holds:
                    cond = conditional_prob(joint, "K", event.members, "I", r.a_star)
                    assert cond == pytest.approx(r.q_a, abs=1e-8)
                    cond_b = conditional_prob(joint, "K", event.members, "J", r.b_star)
                    assert cond_b == pytest.approx(r.q_b, abs=1e-8)


class TestSingularDisagreement:
    def test_fixtures_pass(self, four_state_joint, block_example):
        joint, event = four_state_joint
        assert singular_disagreement_check(joint, event)
        scenario, qjoint = block_example
        assert singular_disagreement_check(qjoint, scenario.event)

    def test_point_mass_passes(self):
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = 1.0
        joint = validate_joint(table, OutcomeSpace(2, 2, 2))
        assert singular_disagreement_check(joint, Event(joint.space, frozenset({0})))

    def test_random_tables_pass(self):
        for trial in range(40):
            joint, event = random_joint_table(trial_rng(88, trial), structured_zeros=True)
            assert singular_disagreement_check(joint, event)


class TestEffectiveStateSpace:
    def test_round_trip_recovers_table_exactly(self, four_state_joint, block_example):
        for joint, event in (four_state_joint, (block_example[1], block_example[0].event)):
            model = as_effective_state_space(joint, event)
            back, back_event = embed_classical(model)
            assert back.to_float().flat() == joint.to_float().flat()
            assert back_event.members == event.members

    def test_single_cell_distribution(self):
        joint = validate_joint(np.ones((1, 1, 1)), OutcomeSpace(1, 1, 1))
        model = as_effective_state_space(joint, Event(joint.space, frozenset({0})))
        assert model.num_states == 1

    def test_verdicts_coincide_with_engine(self, four_state_joint):
        joint, event = four_state_joint
        model = as_effective_state_space(joint, event)
        sizes = joint.space.sizes
        for i in range(sizes[0]):
            for j in range(sizes[1]):
                for k in range(sizes[2]):
                    if joint.table[i, j, k] <= joint.tol:
                        continue
                    omega = (i * sizes[1] + j) * sizes[2] + k
                    q_a = posterior_alice(joint, i, event)
                    q_b = posterior_bob(joint, j, event)
                    assert classical_ck_at(model, omega, q_a, q_b) == is_common_knowledge(
                        joint, event, i, j
                    )
