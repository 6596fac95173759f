"""Instruments, sequential composition, and the block-rotation example."""

import tracemalloc

import numpy as np
import pytest

from agreelab import (
    DensityMatrix,
    DimensionMismatch,
    Instrument,
    NegativeMass,
    NotNormalized,
    ParameterOutOfRange,
    QuantumScenario,
    block_rotation_scenario,
    closed_form_posteriors,
    is_common_knowledge,
    posterior_alice,
    posterior_bob,
    sequential_joint,
    validate_instrument,
    validate_joint,
    verify_agreement,
    violations,
)
from agreelab import matrices as mx
from agreelab.quantum import completeness_deviation
from agreelab.randomgen import random_kraus_instrument, random_quantum_scenario, trial_rng

from conftest import apply_branch, pure_state, staged_table


class TestDensityMatrix:
    def test_valid(self):
        rho = DensityMatrix.maximally_mixed(3)
        assert rho.dim == 3
        assert np.trace(rho.matrix) == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(NotNormalized):
            DensityMatrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NegativeMass):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


class TestInstrument:
    def test_non_finite_kraus_entry_refused(self):
        ops = [np.eye(2, dtype=complex) / np.sqrt(3) for _ in range(3)]  # trace preserving
        ops[2] = ops[2].copy()
        ops[2][1, 0] = np.nan
        for check in (True, False):
            with pytest.raises(NotNormalized, match="kraus operator 0 of branch 2 has non-finite"):
                Instrument(tuple((k,) for k in ops), check=check)
        ops[2][1, 0] = np.inf
        with pytest.raises(NotNormalized, match="non-finite"):
            Instrument(tuple((k,) for k in ops))

    def test_projective_from_basis(self):
        instr = Instrument.projective(np.eye(2, dtype=complex))
        assert instr.n_branches == 2
        assert instr.dim_in == instr.dim_out == 2

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(NotNormalized):
            Instrument(((1.1 * np.eye(2, dtype=complex),),))

    def test_check_false_allows_broken(self):
        instr = Instrument(((1.1 * np.eye(2, dtype=complex),),), check=False)
        assert not validate_instrument(instr).passes


class TestApplyBranch:
    def test_identity_channel(self):
        rho = DensityMatrix.maximally_mixed(2).matrix
        out = apply_branch((np.eye(2, dtype=complex),), rho)
        assert out == pytest.approx(rho)

    def test_projector_on_maximally_mixed(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        out = apply_branch((p0,), np.eye(2, dtype=complex) / 2)
        assert out == pytest.approx(p0 / 2)
        assert np.trace(out) == pytest.approx(0.5)

    def test_block_branch_preserves_own_eigenstate(self):
        scenario = block_rotation_scenario(0.3, 0.9, 0.2, 0.3)
        rho = pure_state([1, 0, 0, 0]).matrix
        out = apply_branch(scenario.instr_a.branches[0], rho)
        assert out == pytest.approx(rho)
        assert np.trace(out).real == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_branch((np.eye(3, dtype=complex),), np.eye(2, dtype=complex) / 2)


class TestSequentialJoint:
    def test_all_identity_instruments(self):
        ident = Instrument.identity(2)
        scenario = QuantumScenario(
            DensityMatrix.maximally_mixed(2), ident, ident, ident
        )
        joint = sequential_joint(scenario)
        assert joint.space.sizes == (1, 1, 1)
        assert joint.table[0, 0, 0] == pytest.approx(1.0)

    def test_block_pair_probability_is_squared_amplitude(self):
        # p(i=0, j=0) = |<b_0|a_0>|^2 = cos^2(pi/4) when the state is |a_0>
        scenario = block_rotation_scenario(np.pi / 4, np.pi / 3, 0.2, 0.1,
                                           state=pure_state([1, 0, 0, 0]))
        joint = sequential_joint(scenario)
        assert joint.table[0, 0, :].sum() == pytest.approx(0.5, abs=1e-12)

    def test_normalization_over_random_parameters(self):
        rng = trial_rng(17)
        for _ in range(10):
            theta, phi = rng.uniform(0, np.pi, size=2)
            q = rng.uniform(0.01, 0.49)
            r = rng.uniform(0.01, 1 - 2 * q - 0.01)
            joint = sequential_joint(block_rotation_scenario(theta, phi, q, r))
            assert joint.table.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [1, 41, 42, 5005])
    def test_bits_of_the_staged_apply_branch_loop(self, seed):
        # tobytes compares every bit, the sign of a zero included; some draws
        # have branches of unequal Kraus counts, whose stacks are padded
        for trial in range(300):
            scenario = random_quantum_scenario(trial_rng(seed, trial))
            want = validate_joint(staged_table(scenario), scenario.space).table
            assert sequential_joint(scenario).table.tobytes() == want.tobytes(), trial

    def test_exact_zeros_and_padded_branches_keep_their_bits(self):
        # coarse-grained measurements (branches of two and of one Kraus
        # operator) on a basis state leave exact zeros in the table
        p0, p1, p2 = (mx.projector(np.eye(3)[c]) for c in range(3))
        c, s = np.cos(0.3), np.sin(0.3)
        rotated = np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=complex)
        scenario = QuantumScenario(
            pure_state([1, 0, 0]),
            Instrument(((p0, p1), (p2,))),
            Instrument.projective(rotated),
            Instrument(((p2,), (p0, p1))),
            order="AEB",
        )
        want = validate_joint(staged_table(scenario), scenario.space).table
        got = sequential_joint(scenario).table
        assert (got == 0).any()
        assert got.tobytes() == want.tobytes()

    def test_many_branches_stay_within_a_memory_bound(self):
        # 32 branches per lab at d = 8: the 32768 final 8 x 8 states alone
        # would take 32 MiB; the composition traces them a block at a time
        rng = trial_rng(8)
        instrs = [random_kraus_instrument(8, 8, 32, rng) for _ in range(3)]
        scenario = QuantumScenario(DensityMatrix.maximally_mixed(8), *instrs)
        tracemalloc.start()
        try:
            joint = sequential_joint(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert joint.table.shape == (32, 32, 32)
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_chain_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            QuantumScenario(
                DensityMatrix.maximally_mixed(2),
                Instrument.identity(2),
                Instrument.identity(3),
                Instrument.identity(3),
            )


class TestClosedFormPosteriors:
    def test_phi_right_angle(self):
        q_a, _ = closed_form_posteriors(0.2, np.pi / 2, 0.2, 0.3)
        assert q_a[2] == pytest.approx(1 - 2 * 0.2 - 0.3)

    def test_phi_zero_collapses_to_bob(self):
        q_a, q_b = closed_form_posteriors(0.7, 0.0, 0.1, 0.4)
        assert q_a == pytest.approx(q_b)

    def test_bob_never_depends_on_angles(self):
        rng = trial_rng(23)
        reference = closed_form_posteriors(0.0, 0.0, 0.15, 0.2)[1]
        for _ in range(10):
            theta, phi = rng.uniform(0, 2 * np.pi, size=2)
            assert closed_form_posteriors(theta, phi, 0.15, 0.2)[1] == pytest.approx(reference)

    def test_parameter_ranges(self):
        with pytest.raises(ParameterOutOfRange):
            closed_form_posteriors(0.1, 0.1, 0.6, 0.1)
        with pytest.raises(ParameterOutOfRange):
            closed_form_posteriors(0.1, 0.1, 0.2, 0.7)
        with pytest.raises(ParameterOutOfRange):
            block_rotation_scenario(0.1, 0.1, 0.0, 0.1)


class TestBlockScenario:
    def test_coinciding_bases_at_zero_angles(self):
        q, r = 0.2, 0.3
        scenario = block_rotation_scenario(0.0, 0.0, q, r)
        joint = sequential_joint(scenario)
        expected = [q, q, r, 1 - 2 * q - r]
        for x in range(4):
            assert posterior_alice(joint, x, scenario.event) == pytest.approx(expected[x])
            assert posterior_bob(joint, x, scenario.event) == pytest.approx(expected[x])

    def test_fixed_parameters_reproduce_closed_forms(self, block_example):
        scenario, joint = block_example
        q_a = [posterior_alice(joint, i, scenario.event) for i in range(4)]
        q_b = [posterior_bob(joint, j, scenario.event) for j in range(4)]
        assert q_a == pytest.approx([0.2, 0.2, 0.4, 0.2], abs=1e-12)
        assert q_b == pytest.approx([0.2, 0.2, 0.1, 0.5], abs=1e-12)

    def test_first_block_posteriors_always_q(self):
        rng = trial_rng(31)
        for _ in range(15):
            theta, phi = rng.uniform(0, np.pi, size=2)
            q = rng.uniform(0.05, 0.45)
            r = rng.uniform(0.05, 1 - 2 * q - 0.01)
            scenario = block_rotation_scenario(theta, phi, q, r)
            joint = sequential_joint(scenario)
            for x in (0, 1):
                assert posterior_alice(joint, x, scenario.event) == pytest.approx(q, abs=1e-9)
                assert posterior_bob(joint, x, scenario.event) == pytest.approx(q, abs=1e-9)

    def test_bob_posteriors_are_state_independent(self):
        rng = trial_rng(37)
        from agreelab.randomgen import random_density

        _, q_b_ref = closed_form_posteriors(0.6, 1.1, 0.2, 0.25)
        for _ in range(10):
            state = random_density(4, rng)
            scenario = block_rotation_scenario(0.6, 1.1, 0.2, 0.25, state=state)
            joint = sequential_joint(scenario)
            masses = joint.axis_masses("J")
            for j in range(4):
                if masses[j] > 1e-9:
                    assert posterior_bob(joint, j, scenario.event) == pytest.approx(
                        q_b_ref[j], abs=1e-9
                    )

    def test_raw_composition_never_goes_below_negativity_floor(self):
        # entries of the un-clamped table stay above -1e-12
        for trial in range(20):
            scenario = random_quantum_scenario(trial_rng(53, trial))
            worst = 0.0
            chain = scenario.instrument_chain()
            for b0 in chain[0].branches:
                s0 = apply_branch(b0, scenario.state.matrix)
                for b1 in chain[1].branches:
                    s1 = apply_branch(b1, s0)
                    for b2 in chain[2].branches:
                        worst = min(worst, np.trace(apply_branch(b2, s1)).real)
            assert worst >= -1e-12


class TestValidateInstrument:
    def test_projective_passes(self):
        diag = validate_instrument(Instrument.projective(np.eye(4, dtype=complex)))
        assert diag.passes
        assert diag.completeness_deviation == pytest.approx(0.0, abs=1e-12)

    def test_scaled_kraus_fails(self):
        bad = Instrument(
            tuple((1.1 * p[0],) for p in Instrument.projective(np.eye(2, dtype=complex)).branches),
            check=False,
        )
        diag = validate_instrument(bad)
        assert not diag.passes
        assert diag.completeness_deviation > 0.1

    def test_block_event_instrument_passes(self):
        scenario = block_rotation_scenario(0.4, 0.8, 0.15, 0.3)
        diag = validate_instrument(scenario.instr_e)
        assert diag.passes
        assert min(diag.branch_min_choi_eigenvalues) >= -1e-10


class TestOrderSensitivity:
    def test_orders_differ_but_both_satisfy_theorem(self, block_example):
        scenario, joint_abe = block_example
        interleaved = QuantumScenario(
            scenario.state, scenario.instr_a, scenario.instr_b, scenario.instr_e,
            order="AEB", event=scenario.event,
        )
        joint_aeb = sequential_joint(interleaved)
        assert np.abs(joint_abe.table - joint_aeb.table).max() > 1e-3
        for joint in (joint_abe, joint_aeb):
            assert not violations(verify_agreement(joint, scenario.event))

    def test_random_scenarios_both_orders_verify(self):
        for trial in range(25):
            scenario = random_quantum_scenario(trial_rng(41, trial))
            joint = sequential_joint(scenario)
            assert not violations(verify_agreement(joint, scenario.event))


class TestStateDependence:
    def test_block_support_forces_common_knowledge(self):
        # state confined to the first block: every surviving outcome pair
        # carries posterior q on both sides and certifies the other's set
        scenario = block_rotation_scenario(
            0.5, 1.2, 0.2, 0.3, state=pure_state([0.6, 0.8j, 0, 0])
        )
        joint = sequential_joint(scenario)
        m2 = joint.table.sum(axis=2)
        for i in range(4):
            for j in range(4):
                if m2[i, j] > 1e-9:
                    assert is_common_knowledge(joint, scenario.event, i, j)

    def test_cross_block_superposition_splits_verdicts(self):
        # r != 1 - 2q - r keeps the second-block posteriors genuinely apart
        scenario = block_rotation_scenario(
            0.5, 1.2, 0.2, 0.1, state=pure_state([1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])
        )
        joint = sequential_joint(scenario)
        assert is_common_knowledge(joint, scenario.event, 0, 0)
        assert not is_common_knowledge(joint, scenario.event, 2, 2)


class TestRandomKrausInstrument:
    """The draw is the polar factor of the stacked Gaussian operators G:
    K = G (G^dag G)^(-1/2), so K is an isometry and K^dag G = (G^dag G)^(1/2)
    is hermitian positive definite."""

    @pytest.mark.parametrize(
        "dim_in, dim_out, n_branches, kraus_per_branch, drawn_per_branch",
        [
            (4, 2, 2, 1, 1),  # square: N * dim_out == dim_in
            (4, 2, 1, 1, 2),  # one operator of rank 2 < 4 is bumped to two
            (4, 1, 2, 1, 2),  # rank-1 effects bumped to reach rank 4
            (3, 2, 3, 2, 2),  # tall G
        ],
    )
    def test_polar_factor_of_the_gaussian_draw(
        self, dim_in, dim_out, n_branches, kraus_per_branch, drawn_per_branch
    ):
        for trial in range(20):
            instr = random_kraus_instrument(
                dim_in, dim_out, n_branches, trial_rng(43, trial), kraus_per_branch
            )
            # G regenerated in the documented order: operator by operator,
            # real part then imaginary part
            rng = trial_rng(43, trial)
            g = np.vstack(
                [
                    rng.standard_normal((dim_out, dim_in))
                    + 1j * rng.standard_normal((dim_out, dim_in))
                    for _ in range(n_branches * drawn_per_branch)
                ]
            )
            assert instr.n_branches == n_branches
            assert all(len(branch) == drawn_per_branch for branch in instr.branches)
            k = np.vstack([op for branch in instr.branches for op in branch])
            assert completeness_deviation(instr) <= 1e-13
            root = mx.dagger(k) @ g
            assert mx.hermiticity_deviation(root) <= 1e-12 * np.abs(g).max()
            assert mx.min_eigenvalue(root) > 0
