"""Choi stacks, definite-order embeddings, mixtures, and external W input."""

import json
import re
from itertools import permutations

import numpy as np
import pytest

from agreelab import (
    BadWeights,
    DensityMatrix,
    DimensionMismatch,
    Instrument,
    NotNormalized,
    ProcessMatrix,
    QuantumScenario,
    ValidationError,
    choi_stack,
    embed_definite_order,
    mix_processes,
    process_joint,
    sequential_joint,
    singular_disagreement_check,
    validate_process,
    verify_agreement,
    violations,
)
from agreelab import matrices as mx
from agreelab import process, quantum
from agreelab.cli import EXIT_OK, main
from agreelab.process import DENSE_W_BUDGET_BYTES, JOINT_IMAG_TOL
from agreelab.randomgen import random_density, random_instrument, random_pure_density, trial_rng
from agreelab.scenario import complex_matrix_to_json, parse_scenario
from conftest import bell_vector, choi_link_table


class TestChoiStack:
    def test_identity_channel(self):
        (c,) = choi_stack(Instrument.identity(3))
        bell = bell_vector(3)
        assert c == pytest.approx(np.outer(bell, bell.conj()))
        assert np.trace(c).real == pytest.approx(3.0)

    def test_completely_depolarizing_qubit(self):
        paulis = [
            np.eye(2, dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        (c,) = choi_stack(Instrument((tuple(p / 2 for p in paulis),)))
        assert c == pytest.approx(np.eye(4) / 2)
        assert np.trace(c).real == pytest.approx(2.0)

    def test_projector_branch(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        c = choi_stack(Instrument(((p0,), (np.eye(2) - p0,))))[0]
        assert np.trace(c).real == pytest.approx(1.0)
        assert np.linalg.matrix_rank(c) == 1
        assert mx.min_eigenvalue(c) >= -1e-12

    def test_branches_of_one_two_and_three_kraus_operators(self):
        rng = trial_rng(35)
        branches = tuple(
            tuple(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)) for _ in range(n))
            for n in (1, 2, 3)
        )
        stack = choi_stack(Instrument(branches, check=False))
        assert stack.shape == (3, 6, 6)
        for c, branch in zip(stack, branches):
            vecs = [k.T.reshape(-1) for k in branch]
            expected = sum(np.outer(v, v.conj()) for v in vecs)
            assert np.abs(c - expected).max() < 1e-12


class TestEmbedDefiniteOrder:
    def test_trace_is_product_of_output_dims(self):
        w = embed_definite_order(DensityMatrix.maximally_mixed(3))
        assert np.trace(w.matrix).real == pytest.approx(27.0)
        assert mx.hermiticity_deviation(w.matrix) == pytest.approx(0.0, abs=1e-12)
        assert mx.min_eigenvalue(w.matrix) >= -1e-10

    def test_degenerate_chain_reduces_to_state(self):
        rho = DensityMatrix(np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex))
        w = embed_definite_order(
            rho, ("A", "B", "E"), {"A": (2, 1), "B": (1, 1), "E": (1, 1)}
        )
        assert w.matrix == pytest.approx(rho.matrix.T)
        assert np.trace(w.matrix).real == pytest.approx(1.0)

    def test_chain_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            embed_definite_order(
                DensityMatrix.maximally_mixed(2),
                ("A", "B", "E"),
                {"A": (2, 3), "B": (2, 2), "E": (2, 2)},
            )

    def test_bad_order_rejected(self):
        with pytest.raises(DimensionMismatch):
            embed_definite_order(DensityMatrix.maximally_mixed(2), ("A", "A", "E"))

    def test_fractional_and_bool_dims_rejected(self):
        # once read as ((2, 2), (2, 2), (2, 1)) without a word
        with pytest.raises(DimensionMismatch, match="lab A"):
            embed_definite_order(
                DensityMatrix.maximally_mixed(2),
                ("A", "B", "E"),
                {"A": (2, 2.7), "B": (2, 2), "E": (2, True)},
            )
        # the rule of joint.as_index, shared with file lab dims, Event members
        # and outcome-space sizes
        for x in (True, 2.5, "2"):
            message = f"lab E dims must be an integer, got {x!r}"
            with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
                embed_definite_order(
                    DensityMatrix.maximally_mixed(2),
                    ("A", "B", "E"),
                    {"A": (2, 2), "B": (2, 2), "E": (2, x)},
                )

    def test_numpy_integer_dims_accepted(self):
        # integer-valued floats too, by the rule of joint.as_index
        for two in (np.int64(2), np.int32(2), 2.0, np.float64(2.0)):
            dims = {lab: (two, two) for lab in "ABE"}
            w = embed_definite_order(DensityMatrix.maximally_mixed(2), ("A", "B", "E"), dims)
            assert w.lab_dims == ((2, 2), (2, 2), (2, 2))
            assert all(type(d) is int for pair in w.lab_dims for d in pair)


class TestCrossBackend:
    def test_block_example_both_orders(self, block_example):
        # one circuit serves both backends, so their bits agree
        scenario, joint_abe = block_example
        w = embed_definite_order(scenario.state, ("A", "B", "E"))
        table = process_joint(w, scenario.instr_a, scenario.instr_b, scenario.instr_e)
        assert table.table.tobytes() == joint_abe.table.tobytes()
        link = choi_link_table(w, scenario.instr_a, scenario.instr_b, scenario.instr_e)
        assert np.abs(joint_abe.table - link).max() < 1e-10

        interleaved = QuantumScenario(
            scenario.state, scenario.instr_a, scenario.instr_b, scenario.instr_e,
            order="AEB", event=scenario.event,
        )
        w2 = embed_definite_order(scenario.state, ("A", "E", "B"))
        table2 = process_joint(w2, scenario.instr_a, scenario.instr_b, scenario.instr_e)
        seq2 = sequential_joint(interleaved)
        assert table2.table.tobytes() == seq2.table.tobytes()
        link2 = choi_link_table(w2, scenario.instr_a, scenario.instr_b, scenario.instr_e)
        assert np.abs(seq2.table - link2).max() < 1e-10

    def test_random_chains(self):
        for trial in range(20):
            rng = trial_rng(77, trial)
            d0, d1, d2, d3 = (int(x) for x in rng.integers(2, 5, size=4))
            state = random_density(d0, rng)
            ia = random_instrument(d0, d1, rng)
            ib = random_instrument(d1, d2, rng)
            ie = random_instrument(d2, d3, rng)
            seq = sequential_joint(QuantumScenario(state, ia, ib, ie, order="ABE"))
            w = embed_definite_order(
                state, ("A", "B", "E"), {"A": (d0, d1), "B": (d1, d2), "E": (d2, d3)}
            )
            emb = process_joint(w, ia, ib, ie)
            # one circuit serves both backends, so their bits agree
            assert emb.table.tobytes() == seq.table.tobytes()
            assert np.abs(seq.table - choi_link_table(w, ia, ib, ie)).max() < 1e-10


class TestProcessJoint:
    def test_trivial_instruments_give_unit_table(self):
        w = embed_definite_order(DensityMatrix.maximally_mixed(2))
        ident = Instrument.identity(2)
        joint = process_joint(w, ident, ident, ident)
        assert joint.space.sizes == (1, 1, 1)
        assert joint.table[0, 0, 0] == pytest.approx(1.0)

    def test_scaled_w_not_normalized(self):
        w = embed_definite_order(DensityMatrix.maximally_mixed(2))
        half = ProcessMatrix(0.5 * w.matrix, w.lab_dims, validate=False)
        ident = Instrument.identity(2)
        with pytest.raises(NotNormalized):
            process_joint(half, ident, ident, ident)

    def test_imaginary_table_is_refused_above_its_bound(self):
        # i * c * 1 / prod(d_out) added to W puts exactly i * c on the one
        # table entry of identity instruments (their Choi product has trace
        # prod(d_out)): refused just above JOINT_IMAG_TOL, kept just below it
        w = embed_definite_order(DensityMatrix.maximally_mixed(2))
        ident = Instrument.identity(2)
        for scale, passes in ((2.0, False), (0.5, True)):
            skew = 1j * scale * JOINT_IMAG_TOL * np.eye(w.total_dim) / w.output_dim_product
            bent = ProcessMatrix(w.matrix + skew, w.lab_dims, validate=False)
            if passes:
                assert process_joint(bent, ident, ident, ident).table[0, 0, 0] == pytest.approx(1)
            else:
                with pytest.raises(NotNormalized, match="imaginary parts"):
                    process_joint(bent, ident, ident, ident)

    def test_factored_w_builds_no_choi_operator(self, monkeypatch):
        rng = trial_rng(9)
        state = random_density(2, rng)
        orders = (("A", "B", "E"), ("E", "A", "B"))
        w = mix_processes([embed_definite_order(state, o) for o in orders], [0.4, 0.6])
        instrs = [random_instrument(2, 2, rng) for _ in range(3)]
        link = choi_link_table(w, *instrs)

        def refuse(instr):
            raise AssertionError("a factored W built a Choi stack")

        monkeypatch.setattr(quantum, "choi_stack", refuse)
        monkeypatch.setattr(process, "choi_stack", refuse)
        assert np.abs(process_joint(w, *instrs).table - link).max() < 1e-10

    def test_instrument_dims_must_match(self):
        w = embed_definite_order(DensityMatrix.maximally_mixed(2))
        with pytest.raises(DimensionMismatch):
            process_joint(w, Instrument.identity(3), Instrument.identity(2), Instrument.identity(2))


class TestMixProcesses:
    def test_degenerate_weights_keep_first(self):
        rng = trial_rng(5)
        state = random_density(2, rng)
        w1 = embed_definite_order(state, ("A", "B", "E"))
        w2 = embed_definite_order(state, ("B", "A", "E"))
        mixed = mix_processes([w1, w2], [1.0, 0.0])
        assert mixed.matrix == pytest.approx(w1.matrix)

    def test_mixture_is_affine_in_the_process(self):
        rng = trial_rng(6)
        state = random_density(2, rng)
        w1 = embed_definite_order(state, ("A", "B", "E"))
        w2 = embed_definite_order(state, ("B", "A", "E"))
        instrs = [random_instrument(2, 2, rng) for _ in range(3)]
        j1 = process_joint(w1, *instrs).table
        j2 = process_joint(w2, *instrs).table
        for lam in (0.5, float(rng.uniform(0.05, 0.95))):
            mixed = mix_processes([w1, w2], [lam, 1 - lam])
            jm = process_joint(mixed, *instrs).table
            assert np.abs(jm - (lam * j1 + (1 - lam) * j2)).max() < 1e-10
            assert np.trace(mixed.matrix).real == pytest.approx(mixed.output_dim_product)

    def test_bad_weights_rejected(self):
        w = embed_definite_order(DensityMatrix.maximally_mixed(2))
        with pytest.raises(BadWeights):
            mix_processes([w, w], [0.5, 0.3])
        with pytest.raises(BadWeights):
            mix_processes([w, w], [1.5, -0.5])


def _causal_loop():
    """Identity wires A_out -> B_in and B_out -> A_in, and a maximally mixed
    E_in: hermitian, positive and of the right trace, yet not a process."""
    wire = mx.projector(bell_vector(2)).reshape(2, 2, 2, 2)
    # factors (A_in, A_out, B_in, B_out, E_in) on each matrix side
    w = np.einsum("bcBC,daDA,eE->abcdeABCDE", wire, wire, np.eye(2) / 2)
    return w.reshape(32, 32), ((2, 2), (2, 2), (2, 1))


def _measure_and_prepare(d_in, d_out):
    """Measure the computational basis, prepare |0> (Kraus |0><i|)."""
    return tuple(
        (np.outer(np.eye(d_out)[0], np.eye(d_in)[i]).astype(complex),) for i in range(d_in)
    )


class TestValidateProcess:
    def test_embedding_passes(self):
        w = embed_definite_order(DensityMatrix.maximally_mixed(2))
        diag = validate_process(w.matrix, w.lab_dims)
        assert diag.passes
        assert diag.validity_deviation < 1e-9

    @pytest.mark.parametrize("order", ["ABE", "BAE", "EBA"])
    def test_definite_orders_and_their_mixture_are_fixed_by_l_v(self, order):
        rng = trial_rng(36)
        state = random_density(2, rng)
        w = mix_processes(
            [embed_definite_order(state, tuple(order)), embed_definite_order(state, ("B", "E", "A"))],
            [0.3, 0.7],
        )
        diag = validate_process(w.matrix, w.lab_dims)
        assert diag.passes
        assert diag.validity_deviation < 1e-12

    def test_non_hermitian_fails(self):
        w = embed_definite_order(DensityMatrix.maximally_mixed(2))
        bad = w.matrix.copy()
        bad[0, 1] += 0.1
        diag = validate_process(bad, w.lab_dims)
        assert not diag.passes
        assert diag.hermiticity_deviation > 0.05

    def test_wrong_trace_fails(self):
        w = embed_definite_order(DensityMatrix.maximally_mixed(2))
        diag = validate_process(2.0 * w.matrix, w.lab_dims)
        assert not diag.passes
        assert diag.trace_deviation > 1.0

    def test_constructor_rejects_what_diagnostics_flag(self):
        w = embed_definite_order(DensityMatrix.maximally_mixed(2))
        bad = w.matrix.copy()
        bad[0, 1] += 0.1
        with pytest.raises(ValidationError, match="hermitian"):
            ProcessMatrix(bad, w.lab_dims)

    def test_non_finite_entry_rejected(self):
        w = embed_definite_order(DensityMatrix.maximally_mixed(2))
        bad = w.matrix.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            ProcessMatrix(bad, w.lab_dims)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "kind, build",
        [
            ("density matrix", DensityMatrix),
            ("kraus operator", lambda m: Instrument(((m,),))),
            ("process matrix", lambda m: ProcessMatrix(m, ((1, 1), (1, 1), (2, 1)))),
            ("process matrix", lambda m: validate_process(m, ((1, 1), (1, 1), (2, 1)))),
        ],
        ids=["density", "instrument", "process", "validate_process"],
    )
    def test_entries_above_the_bound_refused(self, kind, build):
        """Library callers get the bound that scenario files get: entries of
        1e308 used to overflow in the hermiticity, completeness and trace
        checks."""
        huge = np.array([[1e308, -1e308], [-1e308, 1e308]])
        message = f"{kind} entries must be at most {mx.MAX_ENTRY:g} in magnitude"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(huge)

    def test_causal_loop_fails_only_the_validity_check(self):
        w, dims = _causal_loop()
        diag = validate_process(w, dims)
        assert not diag.passes
        assert diag.validity_deviation == pytest.approx(0.5)
        assert diag.hermiticity_deviation <= mx.HERMITICITY_TOL
        assert diag.min_eigenvalue >= -mx.PSD_TOL
        assert diag.trace_deviation < 1e-12
        with pytest.raises(ValidationError, match="L_V"):
            ProcessMatrix(w, dims)

    def test_causal_loop_scenario_exits_3(self, tmp_path, capsys):
        w, dims = _causal_loop()
        payload = {
            "backend": "process",
            "lab_dims": dict(zip("ABE", dims)),
            "w": complex_matrix_to_json(w),
            "instruments": {
                "A": _instrument_json(Instrument(_measure_and_prepare(2, 2))),
                "B": _instrument_json(Instrument(_measure_and_prepare(2, 2))),
                "E": _instrument_json(Instrument(_measure_and_prepare(2, 1))),
            },
            "event": [0],
        }
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", str(path)]) == 3
        assert "L_V" in capsys.readouterr().err


def _shifted_process(target: float):
    """A valid-in-all-but-positivity W whose smallest eigenvalue is
    ``target``: the affine step W + s (W - W0) from a definite-order W,
    which has zero eigenvalues, away from the maximally mixed process W0.
    Both are fixed by L_V and have the right trace, so the step keeps that."""
    w = embed_definite_order(random_density(2, trial_rng(5)))
    d = w.total_dim
    w0 = np.eye(d) * w.output_dim_product / d
    s = -target / (w.output_dim_product / d)
    return w.matrix + s * (w.matrix - w0), w.lab_dims


class TestCertificate:
    """An explicit W is certified by one Cholesky factorization of
    H + (PSD_TOL/2)·1; eigvalsh runs only when the certificate fails, and
    then decides exactly as before."""

    @pytest.mark.parametrize("factor", [-0.4, -0.7, -1.3])
    def test_smallest_eigenvalue_near_the_bound(self, monkeypatch, factor):
        m, dims = _shifted_process(factor * mx.PSD_TOL)
        diag = validate_process(m, dims)
        assert diag.min_eigenvalue == pytest.approx(factor * mx.PSD_TOL, rel=1e-3)
        assert diag.hermiticity_deviation <= mx.HERMITICITY_TOL
        assert diag.validity_deviation <= process.VALIDITY_TOL
        certified = process._certified(m, dims)
        assert certified is (factor == -0.4)
        if certified:
            # accepted without an eigendecomposition
            def no_eigvalsh(*args):
                raise AssertionError("eigvalsh ran on a certified W")

            monkeypatch.setattr(mx, "min_eigenvalue", no_eigvalsh)
            ProcessMatrix(m, dims)
        elif factor == -0.7:
            assert diag.passes
            ProcessMatrix(m, dims)
        else:
            assert diag.failure.startswith("has eigenvalue")
            with pytest.raises(ValidationError) as e:
                ProcessMatrix(m, dims)
            assert str(e.value) == f"process matrix {diag.failure}"

    def test_switch_and_random_processes_are_certified(self, scenarios_dir):
        w = parse_scenario((scenarios_dir / "process_switch.json").read_text()).source[0]
        assert process._certified(w.matrix, w.lab_dims)
        rng = trial_rng(7)
        for dims in [((2, 2),) * 3, ((3, 2), (2, 3), (3, 2)), ((3, 3),) * 3]:
            state = random_density(dims[0][0], rng)
            for order in [("A", "B", "E"), ("E", "A", "B")]:
                if dims[0] != dims[1] and order != ("A", "B", "E"):
                    continue
                w = embed_definite_order(state, order, dims)
                assert process._certified(w.matrix, w.lab_dims)

    @pytest.mark.parametrize("seed", range(6))
    def test_verdict_and_message_match_the_diagnostics(self, seed):
        """Valid W, and W broken in each of the four checks: the constructor
        accepts exactly what validate_process passes, and refuses with its
        message."""
        rng = trial_rng(100 + seed)
        state = random_density(2, rng)
        w = mix_processes(
            [embed_definite_order(state, ("A", "B", "E")), embed_definite_order(state, ("B", "A", "E"))],
            [0.25, 0.75],
        )
        m, dims = w.matrix, w.lab_dims
        herm = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        herm = (herm + herm.conj().T) / 2
        loop, loop_dims = _causal_loop()
        candidates = [
            (m, dims),
            (m + 1e-9 * rng.standard_normal(m.shape), dims),
            (1.5 * m, dims),
            (m + 1e-3 * herm, dims),
            (_shifted_process(-1e-6)[0], dims),
            (loop, loop_dims),
        ]
        for cand, cdims in candidates:
            failure = validate_process(cand, cdims).failure
            assert process._certified(cand, cdims) is (failure is None)
            if failure is None:
                ProcessMatrix(cand, cdims)
            else:
                with pytest.raises(ValidationError) as e:
                    ProcessMatrix(cand, cdims)
                assert str(e.value) == f"process matrix {failure}"


def _sparse_shifted_process(target: float):
    """A definite-order W, zero on 24 of its 32 rows, whose smallest
    eigenvalue is ``target``: the affine step W + s (W - W0) from a pure
    state's W to the same circuit's W0 with a maximally mixed state. Both
    have the form rho^T (x) X for one X >= 0, so the step's smallest
    eigenvalue is -s/2 times X's largest, and it keeps W's zero rows, its
    trace and its fixedness by L_V."""
    dims = ((2, 2), (2, 2), (2, 1))
    rho = random_pure_density(2, trial_rng(5))
    w = embed_definite_order(rho, ("A", "B", "E"), dims).matrix
    w0 = embed_definite_order(DensityMatrix.maximally_mixed(2), ("A", "B", "E"), dims).matrix
    s = -2 * target / np.linalg.eigvalsh(w)[-1]
    return w + s * (w - w0), dims


class TestSupportCertificate:
    """The certificate checks hermiticity and positivity on W's support, the
    indices whose row or column has a nonzero entry, and still accepts
    exactly what the diagnostics pass and refuses with their message."""

    @staticmethod
    def _same_verdict(m, dims):
        """The constructor's verdict on ``m``, checked against the
        diagnostics': the failure they name, or None."""
        failure = validate_process(m, dims).failure
        if failure is None:
            ProcessMatrix(m, dims)
        else:
            with pytest.raises(ValidationError) as e:
                ProcessMatrix(m, dims)
            assert str(e.value) == f"process matrix {failure}"
        return failure

    @pytest.mark.parametrize("factor", [-0.4, -0.7, -1.3])
    def test_smallest_eigenvalue_near_the_bound(self, factor):
        m, dims = _sparse_shifted_process(factor * mx.PSD_TOL)
        support = m.any(axis=1) | m.any(axis=0)
        assert support.sum() == 8 and len(support) == 32
        diag = validate_process(m, dims)
        assert diag.min_eigenvalue == pytest.approx(factor * mx.PSD_TOL, rel=1e-3)
        assert process._certified(m, dims) is (factor == -0.4)
        failure = self._same_verdict(m, dims)
        assert (failure is None) is (factor > -1)

    def test_negative_diagonal_entry_in_a_zero_row(self):
        m, dims = _sparse_shifted_process(0.0)
        r = np.flatnonzero(~m.any(axis=1))[0]
        m[r, r] = -1e-9
        assert not process._certified(m, dims)
        assert self._same_verdict(m, dims).startswith("has eigenvalue -1.000e-09")

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_lone_entry_in_the_column_of_a_zero_row(self, hermitian):
        m, dims = _sparse_shifted_process(0.0)
        r = np.flatnonzero(~m.any(axis=1))[0]
        c = np.flatnonzero(m.any(axis=1))[0]
        if hermitian:
            # a nonzero off-diagonal pair beside a zero diagonal entry is not
            # positive
            m[c, r], m[r, c] = 1e-3j, -1e-3j
            assert not process._certified(m, dims)
            assert self._same_verdict(m, dims).startswith("has eigenvalue")
        else:
            # small enough to pass the trace and L_V checks: only the
            # hermiticity of column r refuses it
            m[c, r] = 1e-8j
            assert not process._certified(m, dims)
            assert self._same_verdict(m, dims) == "is not hermitian (deviation 1.000e-08)"


class TestIndefiniteOrderFromFile:
    def test_switch_scenario_is_valid_and_agrees(self, scenarios_dir):
        s = parse_scenario((scenarios_dir / "process_switch.json").read_text())
        # full validation path: hermiticity, trace, positivity, then W = L_V(W)
        w, instruments = s.source
        diag = validate_process(w.matrix, w.lab_dims)
        assert diag.passes
        assert diag.validity_deviation < 1e-12
        joint = process_joint(w, *instruments)
        assert joint.table.sum() == pytest.approx(1.0, abs=1e-9)
        reports = verify_agreement(joint, s.event)
        assert not violations(reports)
        assert singular_disagreement_check(joint, s.event)

    def test_switch_differs_from_both_definite_orders(self, scenarios_dir):
        # the coherent control is not any single wiring of the two labs
        s = parse_scenario((scenarios_dir / "process_switch.json").read_text())
        switch, instruments = s.source
        joint = process_joint(switch, *instruments).table
        for orders in (("A", "B", "E"), ("B", "A", "E")):
            state = DensityMatrix.pure(np.array([1, 0], dtype=complex))
            try:
                w = embed_definite_order(state, orders, dict(zip("ABE", switch.lab_dims)))
            except DimensionMismatch:
                continue  # wire dims cannot even chain for this lab geometry
            assert np.abs(process_joint(w, *instruments).table - joint).max() > 1e-3


def _discard(w, pre, d, post):
    """Trace out the dimension-d factor between dimensions pre and post of
    the space W acts on, and put back the normalized identity."""
    traced = np.einsum("akbAkB->abAB", w.reshape(pre, d, post, pre, d, post)) / d
    return np.einsum("abAB,kK->akbAKB", traced, np.eye(d)).reshape(w.shape)


def _reference_validity_deviation(m, lab_dims):
    """max|W - L_V(W)|, each map of the product applied as a whole-W einsum."""
    total = m.shape[0]
    t, pre = m, 1
    for d_in, d_out in lab_dims:
        post = total // (pre * d_in * d_out)
        t = t - _discard(t, pre * d_in, d_out, post) + _discard(t, pre, d_in * d_out, post)
        pre *= d_in * d_out
    return float(np.abs(t - np.trace(m) / total * np.eye(total)).max())


def _random_hermitian(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


class TestValidityDeviationMatchesReference:
    """The in-place L_V check against the whole-W einsum formula, within 1e-12."""

    @pytest.mark.parametrize(
        "lab_dims",
        [
            ((1, 2), (2, 1), (3, 2)),
            ((2, 2), (2, 2), (4, 1)),
            ((2, 2), (2, 2), (2, 2)),
            ((3, 2), (2, 3), (3, 2)),
            ((1, 1), (2, 3), (1, 1)),
        ],
    )
    def test_random_hermitian(self, lab_dims):
        d = int(np.prod(lab_dims))
        for trial in range(5):
            m = _random_hermitian(d, trial_rng(37, trial))
            kept = m.copy()
            got = validate_process(m, lab_dims).validity_deviation
            assert got == pytest.approx(_reference_validity_deviation(kept, lab_dims), abs=1e-12)
            assert got > 1e-3
            assert np.array_equal(m, kept)

    @pytest.mark.parametrize("order", ["ABE", "BEA", "EAB"])
    def test_definite_orders_and_mixtures(self, order):
        rng = trial_rng(39)
        for chain in ((2, 2, 2, 2), (1, 2, 1, 2), (3, 1, 2, 1)):
            dims, _ = _chain_instruments(order, chain, rng)
            orders = [tuple(order)] * 2
            if chain == (2, 2, 2, 2):
                orders.append(tuple(reversed(order)))
            ws = [embed_definite_order(random_density(chain[0], rng), o, dims) for o in orders]
            for w in (ws[0], mix_processes(ws, rng.dirichlet(np.ones(len(ws))))):
                m = w.matrix
                got = validate_process(m, w.lab_dims).validity_deviation
                assert got == pytest.approx(_reference_validity_deviation(m, w.lab_dims), abs=1e-12)
                assert got < 1e-12

    def test_switch(self, scenarios_dir):
        s = parse_scenario((scenarios_dir / "process_switch.json").read_text())
        m, dims = s.source[0].matrix, s.source[0].lab_dims
        assert not m.flags.writeable  # so the check cannot write to its input
        got = validate_process(m, dims).validity_deviation
        assert got == pytest.approx(_reference_validity_deviation(m, dims), abs=1e-12)

    def test_causal_loop(self):
        w, dims = _causal_loop()
        kept = w.copy()
        assert validate_process(w, dims).validity_deviation == pytest.approx(0.5, abs=1e-12)
        assert _reference_validity_deviation(w, dims) == pytest.approx(0.5, abs=1e-12)
        assert np.array_equal(w, kept)


def _dense_table(w, instrs):
    """The joint table of ``w`` through the dense path: its materialized
    matrix, held as an explicit W and contracted in one einsum."""
    return process_joint(ProcessMatrix(w.matrix, w.lab_dims), *instrs).table


def _chain_instruments(order, chain, rng):
    """Instruments for labs A, B, E whose dims chain along ``order``."""
    stage = {lab: (chain[t], chain[t + 1]) for t, lab in enumerate(order)}
    dims = {lab: stage[lab] for lab in "ABE"}
    return dims, [random_instrument(*dims[lab], rng) for lab in "ABE"]


class TestFactoredMatchesDense:
    """The factored contraction against the kept dense-W path, within 1e-12."""

    @pytest.mark.parametrize("k, order", list(enumerate(permutations("ABE"))))
    def test_every_order(self, k, order):
        rng = trial_rng(31, k)
        state = random_density(3, rng)
        instrs = [random_instrument(3, 3, rng) for _ in range(3)]
        w = embed_definite_order(state, order)
        assert w.terms and w.total_dim == 3**6
        assert np.abs(process_joint(w, *instrs).table - _dense_table(w, instrs)).max() < 1e-12

    def test_uneven_wire_chains(self):
        for trial, order in enumerate(permutations("ABE")):
            rng = trial_rng(32, trial)
            chain = [int(d) for d in rng.integers(1, 4, size=4)]
            dims, instrs = _chain_instruments(order, chain, rng)
            w = embed_definite_order(random_density(chain[0], rng), order, dims)
            factored = process_joint(w, *instrs).table
            assert np.abs(factored - _dense_table(w, instrs)).max() < 1e-12

    @pytest.mark.parametrize("n_terms", [2, 3])
    def test_mixtures(self, n_terms):
        rng = trial_rng(33, n_terms)
        orders = list(permutations("ABE"))
        picked = [orders[k] for k in rng.choice(len(orders), n_terms, replace=False)]
        ws = [embed_definite_order(random_density(2, rng), o) for o in picked]
        weights = rng.dirichlet(np.ones(n_terms))
        mixed = mix_processes(ws, weights)
        assert len(mixed.terms) == n_terms
        instrs = [random_instrument(2, 2, rng) for _ in range(3)]
        factored = process_joint(mixed, *instrs).table
        assert np.abs(factored - _dense_table(mixed, instrs)).max() < 1e-12

    def test_mixture_with_a_dense_component_is_dense(self):
        w = embed_definite_order(DensityMatrix.maximally_mixed(2))
        dense = ProcessMatrix(w.matrix, w.lab_dims)
        mixed = mix_processes([w, dense], [0.5, 0.5])
        assert not mixed.terms
        assert mixed.matrix == pytest.approx(w.matrix)

    def test_mixture_matrix_with_unit_wires(self):
        # every non-unit axis is spanned by the term's factors, so each term's
        # dense W comes out of the product whole and must still be summable
        state = DensityMatrix.maximally_mixed(1)
        dims = {"A": (1, 2), "B": (2, 1), "E": (1, 2)}
        w = embed_definite_order(state, "ABE", dims)
        mixed = mix_processes([w, w], [0.5, 0.5])
        assert np.abs(mixed.matrix - w.matrix).max() < 1e-15

    def test_factored_trace_is_checked(self):
        w = embed_definite_order(DensityMatrix.maximally_mixed(2))
        with pytest.raises(ValidationError, match="trace"):
            ProcessMatrix._factored([w.terms[0], w.terms[0]], w.lab_dims)


def _instrument_json(instr):
    return [[complex_matrix_to_json(k) for k in branch] for branch in instr.branches]


class TestDenseBudget:
    """A dense W above the byte budget fails before it is allocated."""

    def test_lab_dimension_five_construction_runs_factored(self, tmp_path, capsys):
        assert (5**6) ** 2 * 16 > DENSE_W_BUDGET_BYTES
        rng = trial_rng(34)
        payload = {
            "backend": "process",
            "construction": {
                "kind": "mixture",
                "state": {"matrix": complex_matrix_to_json(random_density(5, rng).matrix)},
                "components": [
                    {"order": ["A", "B", "E"], "weight": 0.25},
                    {"order": ["E", "B", "A"], "weight": 0.75},
                ],
            },
            "instruments": {lab: _instrument_json(random_instrument(5, 5, rng)) for lab in "ABE"},
            "event": [0],
        }
        path = tmp_path / "d5.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", str(path), "--format", "records"]) == EXIT_OK
        assert '"violations": 0' in capsys.readouterr().out
        s = parse_scenario(path.read_text())
        with pytest.raises(ValidationError, match="budget"):
            s.source[0].matrix

    def test_oversize_explicit_w_refused_before_parsing(self, tmp_path, capsys):
        payload = {
            "backend": "process",
            "lab_dims": {"A": [5, 5], "B": [5, 5], "E": [5, 5]},
            "w": "never read",
            "instruments": {lab: _instrument_json(Instrument.identity(5)) for lab in "ABE"},
            "event": [0],
        }
        with pytest.raises(ValidationError, match="budget"):
            parse_scenario(json.dumps(payload))
        path = tmp_path / "w5.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", str(path)]) == 3
        assert "budget" in capsys.readouterr().err
