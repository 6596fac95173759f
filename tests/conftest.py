"""Shared fixtures: the four-state ontic model, the block-rotation example,
and brute-force oracles used to pin expected values independently of the
library code paths under test, among them two references for the Kraus
composition behind every definite-order table: the staged branch loop
(``apply_branch``, ``staged_table``) and the Choi link product."""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from agreelab import (
    ClassicalModel,
    DensityMatrix,
    DimensionMismatch,
    block_rotation_scenario,
    choi_stack,
    embed_classical,
    sequential_joint,
)
from agreelab import matrices as mx

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def scenarios_dir() -> Path:
    return SCENARIOS


@pytest.fixture
def four_state_model() -> ClassicalModel:
    # states {0,1,2,3} uniform; Alice {0,1}/{2,3}; Bob {0,1,2}/{3};
    # event partition {0,3}/{1,2} with the event being its first cell
    return ClassicalModel(
        prior=(Fraction(1, 4),) * 4,
        part_a=(0, 0, 1, 1),
        part_b=(0, 0, 0, 1),
        part_e=(0, 1, 1, 0),
        event_cells=frozenset({0}),
    )


@pytest.fixture
def four_state_joint(four_state_model):
    joint, event = embed_classical(four_state_model)
    return joint.to_float(), event


@pytest.fixture
def block_example():
    scenario = block_rotation_scenario(np.pi / 4, np.pi / 3, 0.2, 0.1)
    return scenario, sequential_joint(scenario)


@pytest.fixture
def uniform_222():
    from agreelab import Event, OutcomeSpace, validate_joint

    space = OutcomeSpace(2, 2, 2)
    joint = validate_joint(np.full((2, 2, 2), 0.125), space)
    return joint, Event(space, frozenset({0}))


def enum_posterior(table: np.ndarray, axis: int, index: int, event_ks) -> float:
    """Brute-force posterior by triple enumeration (independent oracle)."""
    num = 0.0
    den = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            for k in range(table.shape[2]):
                if (i, j, k)[axis] != index:
                    continue
                den += table[i, j, k]
                if k in event_ks:
                    num += table[i, j, k]
    return num / den


def enum_conditional(table: np.ndarray, t_axis: int, t_set, g_axis: int, g_set) -> float:
    """Brute-force conditional probability by triple enumeration."""
    num = 0.0
    den = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            for k in range(table.shape[2]):
                triple = (i, j, k)
                if triple[g_axis] not in g_set:
                    continue
                den += table[i, j, k]
                if triple[t_axis] in t_set:
                    num += table[i, j, k]
    return num / den


def bell_vector(dim: int) -> np.ndarray:
    """Unnormalized maximally entangled vector sum_x |x,x> on dim*dim."""
    v = np.zeros(dim * dim, dtype=complex)
    v[:: dim + 1] = 1.0
    return v


def pure_state(vec) -> DensityMatrix:
    return DensityMatrix.pure(np.asarray(vec, dtype=complex))


def apply_branch(branch: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Unnormalized post-measurement state sum_m K_m rho K_m^dag, the terms
    added in Kraus order; its trace is the branch probability."""
    rho = mx.as_complex_matrix(rho, "state")
    out = None
    for k in branch:
        k = mx.as_complex_matrix(k, "kraus operator")
        if k.shape[1] != rho.shape[0] or rho.shape[0] != rho.shape[1]:
            raise DimensionMismatch(f"kraus operator {k.shape} cannot act on state {rho.shape}")
        term = k @ rho @ k.conj().T
        out = term if out is None else out + term
    return out


def staged_table(scenario) -> np.ndarray:
    """Raw table of a quantum scenario from nested apply_branch calls, one
    per branch of each stage, traced with np.trace: the staged loop whose
    bits the composition in sequential_joint keeps."""
    chain = scenario.instrument_chain()
    staged = np.zeros([instr.n_branches for instr in chain], dtype=float)
    first, second, third = chain
    for x, br_x in enumerate(first.branches):
        rho_x = apply_branch(br_x, scenario.state.matrix)
        for y, br_y in enumerate(second.branches):
            rho_xy = apply_branch(br_y, rho_x)
            for z, br_z in enumerate(third.branches):
                staged[x, y, z] = complex(np.trace(apply_branch(br_z, rho_xy))).real
    # staged axes follow the temporal order; the table's are (i, j, k)
    return staged.transpose([scenario.order.index(c) for c in "ABE"])


def choi_link_table(w, instr_a, instr_b, instr_e) -> np.ndarray:
    """Raw complex table of a factored W by the Choi link product: per term,
    each lab's Choi stack contracted along the term's order, weighted and
    summed. It shares no arithmetic with the Kraus composition, so the
    cross-backend checks compare two independent contractions."""
    stacks = {
        lab: choi_stack(instr).reshape(instr.n_branches, *dims, *dims)
        for lab, instr, dims in zip("ABE", (instr_a, instr_b, instr_e), w.lab_dims)
    }

    def term_table(t) -> np.ndarray:
        # C[i, in, out, in', out'] against the term's W factors: rho^T[in', in]
        # on the first lab, delta wires from each output to the next input on
        # both matrix sides, and the last output traced out.
        cx, cy, cz = (stacks[lab] for lab in t.order)
        p = np.einsum("iabcd,ac->ibd", cx, t.state.matrix)
        p = np.einsum("ibd,jbedf->ijef", p, cy)
        p = np.einsum("ijef,kegfg->ijk", p, cz)
        return p.transpose([t.order.index(lab) for lab in "ABE"])

    return sum(t.weight * term_table(t) for t in w.terms)
