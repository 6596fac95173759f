"""Joint table validation, marginalization, and conditioning."""

from fractions import Fraction

import numpy as np
import pytest

from agreelab import (
    DimensionMismatch,
    EmptyAxes,
    Event,
    NegativeMass,
    NotNormalized,
    OutcomeSpace,
    ZeroProbabilityConditioning,
    conditional_prob,
    marginal,
    posterior_alice,
    posterior_bob,
    validate_joint,
)
from agreelab.quantum import block_rotation_scenario, sequential_joint

from conftest import enum_conditional, enum_posterior, pure_state


def point_mass_222():
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = 1.0
    return validate_joint(table, OutcomeSpace(2, 2, 2))


class TestValidateJoint:
    def test_uniform_accepted(self):
        joint = validate_joint(np.full((2, 2, 2), 1 / 8), OutcomeSpace(2, 2, 2))
        assert joint.table.sum() == pytest.approx(1.0)

    def test_tiny_negative_entry_clamped(self):
        table = np.full((2, 2, 2), 1 / 8)
        table[1, 1, 1] = -1e-15
        table[0, 0, 0] += 1 / 8  # keep total mass at 1
        joint = validate_joint(table, OutcomeSpace(2, 2, 2))
        assert joint.table[1, 1, 1] == 0.0
        assert joint.table.min() >= 0.0

    def test_mass_deficit_rejected(self):
        table = np.full((2, 2, 2), 0.9 / 8)
        with pytest.raises(NotNormalized):
            validate_joint(table, OutcomeSpace(2, 2, 2), tol=1e-9)

    def test_large_negative_rejected(self):
        table = np.full((2, 2, 2), 1 / 8)
        table[0, 0, 0] = -1e-3
        with pytest.raises(NegativeMass):
            validate_joint(table, OutcomeSpace(2, 2, 2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            validate_joint(np.full((2, 2), 0.25), OutcomeSpace(2, 2, 2))

    def test_non_finite_rejected(self):
        table = np.full((2, 2, 2), 1 / 8)
        table[0, 0, 0] = np.nan
        with pytest.raises(NotNormalized):
            validate_joint(table, OutcomeSpace(2, 2, 2))

    def test_first_of_two_bad_entries_is_named(self):
        table = np.full((2, 2, 2), 1 / 8)
        table[0, 1, 1] = -0.25
        table[1, 0, 0] = -0.5
        with pytest.raises(NegativeMass, match=r"flat index 3 is -0\.25,"):
            validate_joint(table, OutcomeSpace(2, 2, 2))

    def test_entries_within_tol_below_zero_are_clamped(self):
        tol = 1e-9
        table = np.full((2, 2, 2), 1 / 8)
        small = [-1e-15, -0.5 * tol, -0.999 * tol]
        table.reshape(-1)[[1, 4, 6]] = small
        table[0, 0, 0] += 1 - table.clip(min=0).sum()  # mass 1 once clamped
        joint = validate_joint(table, OutcomeSpace(2, 2, 2), tol)
        assert joint.table.reshape(-1)[[1, 4, 6]].tolist() == [0.0, 0.0, 0.0]
        assert joint.table.min() >= 0.0
        table.reshape(-1)[6] = -tol  # at -tol itself: refused
        with pytest.raises(NegativeMass, match="flat index 6"):
            validate_joint(table, OutcomeSpace(2, 2, 2), tol)

    def test_exact_table_is_clamped_and_checked_exactly(self):
        space = OutcomeSpace(1, 2, 2)
        tiny = Fraction(-1, 10**12)
        table = np.array([[[Fraction(1, 2), tiny], [Fraction(1, 2) - tiny, Fraction(0)]]], dtype=object)
        joint = validate_joint(table, space)
        assert joint.exact
        assert joint.table[0, 0, 1] == 0 and type(joint.table[0, 0, 1]) is Fraction
        assert joint.table.sum() == 1 + Fraction(1, 10**12)
        table[0, 1, 1] = Fraction(-1, 3)
        with pytest.raises(NegativeMass, match="flat index 3 is -1/3"):
            validate_joint(table, space)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_positive(self, tol):
        # a non-finite tol would pass any mass, here a table of mass 10
        with pytest.raises(ValueError, match="finite and positive"):
            validate_joint(np.full((1, 1, 1), 10.0), OutcomeSpace(1, 1, 1), tol)

    def test_table_is_immutable(self):
        joint = validate_joint(np.full((1, 1, 1), 1.0), OutcomeSpace(1, 1, 1))
        with pytest.raises(ValueError):
            joint.table[0, 0, 0] = 0.5


class TestMarginal:
    def test_uniform_single_axis(self, uniform_222):
        joint, _ = uniform_222
        assert marginal(joint, ["I"]) == pytest.approx([0.5, 0.5])

    def test_point_mass_two_axes(self):
        m = marginal(point_mass_222(), ["J", "K"])
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        assert m == pytest.approx(expected)

    def test_projective_first_measurement_is_deterministic(self):
        # Alice measures the basis containing the state, so her marginal is
        # a point mass: |<a_i|a_0>|^2 = delta(i, 0)
        scenario = block_rotation_scenario(np.pi / 4, np.pi / 3, 0.2, 0.1,
                                           state=pure_state([1, 0, 0, 0]))
        joint = sequential_joint(scenario)
        assert marginal(joint, ["I"]) == pytest.approx([1, 0, 0, 0], abs=1e-12)

    def test_empty_axes_rejected(self, uniform_222):
        joint, _ = uniform_222
        with pytest.raises(EmptyAxes):
            marginal(joint, [])

    def test_marginals_stay_normalized(self, four_state_joint):
        joint, _ = four_state_joint
        for axes in (["I"], ["J"], ["K"], ["I", "J"], ["I", "K"], ["J", "K"]):
            m = marginal(joint, axes)
            assert m.sum() == pytest.approx(1.0, abs=1e-12)
            assert m.min() >= 0


class TestPosteriors:
    def test_uniform_conditional(self, uniform_222):
        joint, event = uniform_222
        for x in range(2):
            assert posterior_alice(joint, x, event) == pytest.approx(0.5)
            assert posterior_bob(joint, x, event) == pytest.approx(0.5)

    def test_point_mass(self):
        joint = point_mass_222()
        event = Event(joint.space, frozenset({0}))
        assert posterior_alice(joint, 0, event) == pytest.approx(1.0)
        assert posterior_bob(joint, 0, event) == pytest.approx(1.0)

    def test_four_state_values_match_enumeration(self, four_state_joint):
        joint, event = four_state_joint
        oracle = enum_posterior(joint.table, 0, 0, event.members)
        assert oracle == pytest.approx(0.5)
        assert posterior_alice(joint, 0, event) == pytest.approx(oracle)
        oracle_b = enum_posterior(joint.table, 1, 1, event.members)
        assert oracle_b == pytest.approx(1.0)
        assert posterior_bob(joint, 1, event) == pytest.approx(oracle_b)
        assert posterior_bob(joint, 0, event) == pytest.approx(
            enum_posterior(joint.table, 1, 0, event.members)
        )

    def test_zero_mass_conditioning_rejected(self):
        joint = point_mass_222()
        event = Event(joint.space, frozenset({0}))
        with pytest.raises(ZeroProbabilityConditioning):
            posterior_alice(joint, 1, event)

    def test_full_event_posterior_is_one_exactly(self, four_state_joint):
        joint, _ = four_state_joint
        full = Event(joint.space, frozenset({0, 1}))
        assert posterior_alice(joint, 0, full) == 1.0

    def test_empty_event_posterior_is_zero_exactly(self, four_state_joint):
        joint, _ = four_state_joint
        empty = Event(joint.space, frozenset())
        assert posterior_alice(joint, 0, empty) == 0.0
        assert posterior_bob(joint, 1, empty) == 0.0


class TestConditionalProb:
    def test_uniform_independence(self, uniform_222):
        joint, _ = uniform_222
        assert conditional_prob(joint, "I", {0}, "J", {0}) == pytest.approx(0.5)

    def test_point_mass_certainty(self):
        joint = point_mass_222()
        assert conditional_prob(joint, "J", {0}, "I", {0}) == pytest.approx(1.0)

    def test_four_state_matches_enumeration(self, four_state_joint):
        joint, _ = four_state_joint
        oracle = enum_conditional(joint.table, 1, {0}, 0, {1})
        assert oracle == pytest.approx(0.5)
        assert conditional_prob(joint, "J", {0}, "I", {1}) == pytest.approx(oracle)

    def test_zero_mass_given_rejected(self):
        joint = point_mass_222()
        with pytest.raises(ZeroProbabilityConditioning):
            conditional_prob(joint, "J", {0}, "I", {1})
        with pytest.raises(ZeroProbabilityConditioning):
            conditional_prob(joint, "J", {0}, "I", set())

    def test_same_axis_rejected(self, uniform_222):
        joint, _ = uniform_222
        with pytest.raises(ValueError):
            conditional_prob(joint, "I", {0}, "I", {1})


def test_law_of_total_probability(four_state_joint):
    joint, event = four_state_joint
    masses = joint.axis_masses("I")
    total = sum(
        masses[i] * posterior_alice(joint, i, event)
        for i in range(2)
        if masses[i] > joint.tol
    )
    assert total == pytest.approx(joint.event_mass(event), abs=1e-9)


def test_label_validation():
    with pytest.raises(DimensionMismatch):
        OutcomeSpace(2, 1, 1, labels_i=("a",))
    with pytest.raises(DimensionMismatch):
        OutcomeSpace(2, 1, 1, labels_i=("a", "a"))
    space = OutcomeSpace(2, 1, 1, labels_i=("up", "down"))
    assert space.labels_i == ("up", "down")


def test_event_outside_axis_rejected():
    with pytest.raises(DimensionMismatch):
        Event(OutcomeSpace(2, 2, 2), frozenset({5}))


@pytest.mark.parametrize("member", [0.7, True, False, "1", None, np.bool_(True)])
def test_event_refuses_non_integer_member(member):
    """A member is never truncated: int(0.7) and int(True) would silently
    make {0.7, True} the event {0, 1}."""
    with pytest.raises(DimensionMismatch, match=rf"event member must be an integer, got {member!r}"):
        Event(OutcomeSpace(2, 2, 2), frozenset({member}))


def test_event_takes_numpy_and_integral_members_as_ints():
    event = Event(OutcomeSpace(2, 2, 3), frozenset({np.int64(2), np.uint8(0), 1.0}))
    assert event.sorted_members == (0, 1, 2)
    assert all(type(k) is int for k in event.members)


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("size", [2.5, True, "2", None, float("inf")])
def test_outcome_space_refuses_non_integer_size(axis, size):
    sizes = [2, 2, 2]
    sizes[axis] = size
    name = "IJK"[axis]
    with pytest.raises(DimensionMismatch, match=rf"^axis {name} size must be an integer, got "):
        OutcomeSpace(*sizes)


def test_outcome_space_keeps_sizes_as_ints():
    space = OutcomeSpace(np.int64(2), 3.0, 4)
    assert space.sizes == (2, 3, 4)
    assert all(type(n) is int for n in space.sizes)
    assert space == OutcomeSpace(2, 3, 4)
