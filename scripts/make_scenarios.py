#!/usr/bin/env python3
"""Regenerate the scenario fixture files in scenarios/.

The switch scenario builds a process matrix with a control qubit coherently
selecting between the two orderings of labs A and B (target qubit wired
A-then-B on control |0>, B-then-A on control |1>), with lab E measuring
control and target together and discarding. No definite-order wiring or
classical mixture of wirings produces this W; it is the standard example of
an indefinite causal order and enters the package only as data, through
this file format.

Usage: python scripts/make_scenarios.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from agreelab.process import validate_process
from agreelab.quantum import Instrument
from agreelab.scenario import complex_matrix_to_json, parse_scenario

OUT = Path(__file__).resolve().parents[1] / "scenarios"


def switch_w(psi: np.ndarray) -> np.ndarray:
    """Superposition-of-orders process vector on (A_in, A_out, B_in, B_out, E_in)."""
    psi = np.asarray(psi, dtype=complex).reshape(2)
    psi = psi / np.linalg.norm(psi)
    dims = (2, 2, 2, 2, 4)  # E_in = control (x) target, E_out = 1
    w_a = np.zeros(dims, dtype=complex)
    w_b = np.zeros(dims, dtype=complex)
    for y in range(2):
        for x in range(2):
            for s in range(2):
                # control 0: state into A, wire A->B, B_out into target
                w_a[s, y, y, x, 0 * 2 + x] += np.conj(psi[s])
                # control 1: state into B, wire B->A, A_out into target
                w_b[y, x, s, y, 1 * 2 + x] += np.conj(psi[s])
    vec = (w_a + w_b).reshape(-1) / np.sqrt(2)
    return np.outer(vec, vec.conj())


def qubit_instruments() -> dict:
    z = Instrument.projective(np.eye(2, dtype=complex))
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    x = Instrument.projective(h)
    plus_minus = h
    e_basis = np.kron(plus_minus, np.eye(2, dtype=complex))  # control in +/-, target in z
    e_branches = [[e_basis[:, c].conj().reshape(1, 4)] for c in range(4)]
    Instrument(tuple(tuple(np.asarray(k) for k in b) for b in e_branches))  # completeness check
    return {
        "A": [[complex_matrix_to_json(k) for k in br] for br in z.branches],
        "B": [[complex_matrix_to_json(k) for k in br] for br in x.branches],
        "E": [[complex_matrix_to_json(np.asarray(k)) for k in br] for br in e_branches],
    }


def main() -> None:
    OUT.mkdir(exist_ok=True)

    table = {
        "id": "uniform-2x2x2",
        "backend": "table",
        "sizes": [2, 2, 2],
        "p": [0.125] * 8,
        "event": [0],
    }

    classical = {
        "id": "four-state",
        "backend": "classical",
        "num_states": 4,
        "prior": ["1/4", "1/4", "1/4", "1/4"],
        "partition_a": [0, 0, 1, 1],
        "partition_b": [0, 0, 0, 1],
        "partition_e": [0, 1, 1, 0],
        "event": [0],
    }

    quantum = {
        "id": "block-rotation",
        "backend": "quantum",
        "preset": {
            "name": "block_rotation",
            "theta": 0.7853981633974483,
            "phi": 1.0471975511965976,
            "q": 0.2,
            "r": 0.1,
        },
        "event": [0],
    }

    instrs = qubit_instruments()
    state2 = complex_matrix_to_json(np.eye(2, dtype=complex) / 2)

    definite = {
        "id": "definite-order-qubits",
        "backend": "process",
        "construction": {"kind": "definite_order", "order": ["A", "B", "E"],
                         "state": {"matrix": state2}},
        "instruments": {
            "A": instrs["A"],
            "B": instrs["B"],
            "E": instrs["A"],
        },
        "event": [0],
    }

    mixture = {
        "id": "mixed-orders-qubits",
        "backend": "process",
        "construction": {
            "kind": "mixture",
            "state": {"matrix": state2},
            "components": [
                {"order": ["A", "B", "E"], "weight": 0.5},
                {"order": ["B", "A", "E"], "weight": 0.5},
            ],
        },
        "instruments": {
            "A": instrs["A"],
            "B": instrs["B"],
            "E": instrs["A"],
        },
        "event": [0],
    }

    w = switch_w(np.array([1.0, 0.0]))
    diag = validate_process(w, ((2, 2), (2, 2), (4, 1)))
    assert diag.passes and diag.validity_deviation < 1e-12, diag
    switch = {
        "id": "order-superposition-switch",
        "backend": "process",
        "lab_dims": {"A": [2, 2], "B": [2, 2], "E": [4, 1]},
        "w": complex_matrix_to_json(w),
        "instruments": instrs,
        "event": [0],
    }

    for name, payload in [
        ("table_uniform.json", table),
        ("classical_four_state.json", classical),
        ("quantum_block.json", quantum),
        ("process_definite.json", definite),
        ("process_mixture.json", mixture),
        ("process_switch.json", switch),
    ]:
        text = json.dumps(payload, indent=1)
        (OUT / name).write_text(text + "\n")
        scenario = parse_scenario(text)  # every committed fixture must parse
        print(f"wrote scenarios/{name} (backend {scenario.backend})")

    joint = parse_scenario((OUT / "process_switch.json").read_text()).compute_joint()
    print("switch joint sums to", float(joint.table.sum()))


if __name__ == "__main__":
    main()
