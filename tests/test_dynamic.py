"""The disclose-and-update announcement protocol.

The golden transcripts pin every announcement bit for bit. Regenerate them,
only on purpose, with

    PYTHONPATH=src python tests/test_dynamic.py > tests/golden/protocol_transcripts.jsonl
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from agreelab import (
    DEFAULT_TOL,
    AgreeLabError,
    DimensionMismatch,
    Event,
    NoConvergence,
    OutcomeSpace,
    ZeroProbabilityConditioning,
    dynamic_protocol,
    embed_classical,
    parse_scenario,
    validate_joint,
)
from agreelab.randomgen import random_classical_model, random_joint_table, trial_rng

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
GOLDEN_TRANSCRIPTS = Path(__file__).resolve().parent / "golden" / "protocol_transcripts.jsonl"


def test_product_distribution_converges_in_one_round():
    pi = np.array([0.4, 0.6])
    pj = np.array([0.5, 0.5])
    pk = np.array([0.3, 0.7])
    joint = validate_joint(np.einsum("i,j,k->ijk", pi, pj, pk), OutcomeSpace(2, 2, 2))
    event = Event(joint.space, frozenset({0}))
    t = dynamic_protocol(joint, event, 0, 1)
    assert t.n_rounds == 1
    assert t.final_alice == pytest.approx(0.3)
    assert t.final_bob == pytest.approx(0.3)


def test_four_state_announcements(four_state_joint):
    joint, event = four_state_joint
    t = dynamic_protocol(joint, event, 0, 0)
    # Alice opens at her posterior 1/2, Bob at his 1/3; Bob's announcement
    # reveals his cell, Alice's refinement then reveals hers, and both meet
    assert t.rounds[0].alice_announcement == pytest.approx(0.5)
    assert t.rounds[0].bob_announcement == pytest.approx(1 / 3)
    assert t.final_alice == pytest.approx(t.final_bob, abs=1e-12)
    assert t.final_alice == pytest.approx(0.5)
    assert t.rectangle_posterior == pytest.approx(t.final_alice, abs=1e-12)
    assert t.n_rounds <= 4


def test_single_outcome_axes_agree_immediately():
    table = np.array([[[0.25, 0.75]]])
    joint = validate_joint(table, OutcomeSpace(1, 1, 2))
    event = Event(joint.space, frozenset({0}))
    t = dynamic_protocol(joint, event, 0, 0)
    assert t.n_rounds == 1
    assert t.final_alice == pytest.approx(0.25)
    assert t.final_bob == pytest.approx(0.25)


def test_random_tables_converge_and_agree():
    for trial in range(60):
        rng = trial_rng(909, trial)
        joint, event = random_joint_table(rng, structured_zeros=trial % 2 == 0)
        m2 = joint.table.sum(axis=2)
        pairs = np.argwhere(m2 > 1e-9)
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        t = dynamic_protocol(joint, event, int(i), int(j))
        bound = joint.space.size_i * joint.space.size_j
        assert t.n_rounds <= bound
        assert abs(t.final_alice - t.final_bob) <= 1e-9
        assert t.final_alice == pytest.approx(t.rectangle_posterior, abs=1e-9)


def test_zero_mass_observation_rejected():
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = 1.0
    joint = validate_joint(table, OutcomeSpace(2, 2, 2))
    event = Event(joint.space, frozenset({0}))
    with pytest.raises(ZeroProbabilityConditioning):
        dynamic_protocol(joint, event, 1, 0)


@pytest.mark.parametrize(
    "i, j, message",
    [
        (9, 0, "axis I index 9 outside range 0..1"),
        (-1, 0, "axis I index -1 outside range 0..1"),
        (0, 2, "axis J index 2 outside range 0..1"),
        (0, -1, "axis J index -1 outside range 0..1"),
    ],
)
def test_outcome_outside_axis_rejected(four_state_joint, i, j, message):
    """An index past the end is not an IndexError, and a negative one does
    not wrap around to an outcome from the end."""
    joint, event = four_state_joint
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        dynamic_protocol(joint, event, i, j)


def test_round_budget_enforced(four_state_joint):
    joint, event = four_state_joint
    with pytest.raises(NoConvergence):
        dynamic_protocol(joint, event, 0, 0, max_rounds=1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_negative_or_non_finite_tol_refused(tol):
    """A negative tol divided 0 by 0 and announced NaN, and a NaN one
    claimed that the announcements had eliminated every outcome."""
    joint, event = random_joint_table(trial_rng(1, 0), max_size=3)
    message = f"tol must be finite and nonnegative, got {tol}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dynamic_protocol(joint, event, 0, 0, tol=tol)


def golden_tables():
    """(name, table, event, tol, max_rounds) of every table whose transcripts
    are pinned: each fixture at its tol, with the default budget and with a
    budget of one round; seeded float tables, half with zero patches, and two
    with 10 and 12 outcomes per axis, at the default tol; seeded exact
    classical models at tol 0."""
    for path in sorted(SCENARIOS.glob("*.json")):
        s = parse_scenario(path.read_text())
        joint = s.compute_joint()
        event = Event(joint.space, s.event.members)
        yield path.name, joint, event, s.tol, None
        yield f"{path.name} max_rounds=1", joint, event, s.tol, 1
    for trial in range(40):
        rng = trial_rng(2121, trial)
        joint, event = random_joint_table(rng, max_size=6, structured_zeros=trial % 2 == 1)
        yield f"random_joint_table {trial}", joint, event, DEFAULT_TOL, None
    # rows longer than 8, which numpy sums in unrolled blocks: a dense
    # 10 x 10 table, and a 12 x 12 product table with 1e-12 noise, whose
    # sets all stay full, so each announcement is a 12-term sum
    rng = trial_rng(2123)
    for n, noise in ((10, 1.0), (12, 1e-12)):
        pi, pj, pk = rng.exponential(1.0, n), rng.exponential(1.0, n), rng.exponential(1.0, 2)
        table = np.einsum("i,j,k->ijk", pi, pj, pk) * (1 + noise * rng.random((n, n, 2)))
        joint = validate_joint(table / table.sum(), OutcomeSpace(n, n, 2))
        event = Event(joint.space, frozenset({0}))
        yield f"{n} x {n} x 2 noise {noise}", joint, event, DEFAULT_TOL, None
    for trial in range(40):
        joint, event = embed_classical(random_classical_model(trial_rng(2122, trial), exact=True))
        yield f"exact classical {trial}", joint, event, 0, None


def transcript_lines():
    """One JSON line per (table, i, j), for every outcome pair of every
    golden table: the transcript's numbers, or the error it raises."""
    for name, joint, event, tol, max_rounds in golden_tables():
        for i in range(joint.space.size_i):
            for j in range(joint.space.size_j):
                record = {"table": name, "pair": [i, j]}
                try:
                    t = dynamic_protocol(joint, event, i, j, max_rounds, tol)
                except AgreeLabError as e:
                    record["error"] = [type(e).__name__, str(e)]
                else:
                    assert t.observed == (i, j)
                    record["rounds"] = [
                        [
                            r.alice_announcement,
                            r.bob_announcement,
                            list(r.alice_consistent),
                            list(r.bob_consistent),
                        ]
                        for r in t.rounds
                    ]
                    record["final"] = [t.final_alice, t.final_bob, t.rectangle_posterior]
                    # floats and ints as Python's, not numpy scalars
                    numbers = record["final"] + [x for r in record["rounds"] for x in r[:2]]
                    indices = [x for r in record["rounds"] for x in r[2] + r[3]]
                    assert all(type(x) is float for x in numbers)
                    assert all(type(x) is int for x in indices)
                yield json.dumps(record) + "\n"


def test_transcripts_match_golden_file_byte_for_byte():
    """Every pinned transcript, down to the last bit of each announcement,
    and every pinned error with its message."""
    assert "".join(transcript_lines()) == GOLDEN_TRANSCRIPTS.read_text()


if __name__ == "__main__":
    sys.stdout.writelines(transcript_lines())
