"""Scenario parsing, run reports, record round trips, and the CLI contract."""

import gc
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from agreelab import ParseError, ValidationError, parse_scenario, run_scenario
from agreelab.cli import main
from agreelab.matrices import MAX_ENTRY
from agreelab.report import emit_report, parse_records
from agreelab.scenario import RunReport, _complex_matrix, complex_matrix_to_json


MINIMAL_TABLE = {
    "id": "t",
    "backend": "table",
    "sizes": [2, 2, 2],
    "p": [0.125] * 8,
    "event": [0],
}


class TestParseScenario:
    def test_minimal_table(self):
        s = parse_scenario(json.dumps(MINIMAL_TABLE))
        assert s.backend == "table"
        assert s.compute_joint().table.sum() == pytest.approx(1.0)

    def test_malformed_json_locates_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_scenario('{"backend": "table",\n  broken')

    def test_unknown_backend(self):
        with pytest.raises(ValidationError, match="backend"):
            parse_scenario(json.dumps({"backend": "oracle", "event": [0]}))

    def test_missing_key_is_located(self):
        bad = dict(MINIMAL_TABLE)
        del bad["p"]
        with pytest.raises(ValidationError, match="p"):
            parse_scenario(json.dumps(bad))

    def test_non_trace_preserving_instrument_cites_diagnostics(self):
        eye = [[[1.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.1, 0.0]]]
        payload = {
            "backend": "quantum",
            "state": {"maximally_mixed": 2},
            "instruments": {"A": [[eye]], "B": [[eye]], "E": [[eye]]},
            "event": [0],
        }
        with pytest.raises(ValidationError, match="trace preserving"):
            parse_scenario(json.dumps(payload))

    def test_block_preset_out_of_range(self):
        payload = {
            "backend": "quantum",
            "preset": {"name": "block_rotation", "theta": 0.1, "phi": 0.2, "q": 0.6, "r": 0.1},
            "event": [0],
        }
        with pytest.raises(ValidationError, match="q must satisfy"):
            parse_scenario(json.dumps(payload))

    def test_all_fixture_files_parse(self, scenarios_dir):
        for path in sorted(scenarios_dir.glob("*.json")):
            s = parse_scenario(path.read_text())
            assert s.backend in ("table", "classical", "quantum", "process")

    def test_table_labels(self):
        payload = dict(MINIMAL_TABLE, labels={"I": ["left", "right"], "K": ["hit", "miss"]})
        s = parse_scenario(json.dumps(payload))
        assert s.compute_joint().space.labels_i == ("left", "right")
        bad = dict(MINIMAL_TABLE, labels={"I": ["left"]})
        with pytest.raises(ValidationError, match="labels"):
            parse_scenario(json.dumps(bad))


def _asarray_reference(data, where: str) -> np.ndarray:
    """The reference converter: numpy discovers the nested shape, then the
    pair axis must be last and of length 2."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"not a numeric array: {e}", where) from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError(f"bad shape {arr.shape}", where)
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _outcome(convert, data):
    """What a converter makes of ``data``: the matrix's shape and bytes, or
    the exception's type and the field it names."""
    try:
        m = convert(data, "w")
    except Exception as e:
        return type(e).__name__, getattr(e, "field", None)
    assert m.dtype == np.complex128
    return m.shape, m.tobytes()


def _with_ints(rows: list, rng) -> list:
    """``rows`` with about a third of its integral entries, -0.0 aside,
    written as JSON ints."""

    def entry(x: float):
        signed_zero = x == 0 and math.copysign(1.0, x) < 0
        return int(x) if x.is_integer() and not signed_zero and rng.random() < 0.3 else x

    return [[[entry(x) for x in pair] for pair in row] for row in rows]


class TestComplexMatrix:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_matrices_match_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 9, size=2)
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        special = np.array([-0.0, 0.0, 5e-324, -2.5e-310, MAX_ENTRY, -MAX_ENTRY, 3.0, -7.0, 1e15])
        mask = rng.random((rows, cols, 2)) < 0.4
        parts = np.stack([m.real, m.imag], axis=-1)
        parts[mask] = rng.choice(special, size=int(mask.sum()))
        m = parts[..., 0] + 1j * parts[..., 1]
        data = json.loads(json.dumps(_with_ints(complex_matrix_to_json(m), rng)))
        assert _outcome(_complex_matrix, data) == _outcome(_asarray_reference, data)
        # equal in value; a -0.0 real part beside a +0.0 imaginary part reads
        # back as +0.0, on either path
        np.testing.assert_array_equal(_complex_matrix(data, "w"), m)

    @pytest.mark.parametrize(
        "text, accepted",
        [
            ("[[[-0.0, -0.0], [0, -0.0]], [[-0.0, 0], [0, 0]]]", True),
            ("[[[1, 2], [3, 4]]]", True),
            ("[[[5e-324, -1e150]], [[1e150, -5e-324]], [[2.2250738585072014e-308, 1e-320]]]", True),
            ("[[[NaN, 0], [0, NaN]]]", True),
            ('[[["1.5", null], [true, false]]]', False),
        ],
        ids=["signed-zeros", "ints", "extremes", "nan", "odd-leaves"],
    )
    def test_edge_entries_match_reference(self, text, accepted):
        """Number entries convert as the reference converts them; a string,
        a null or a bool, which the reference would coerce, is refused with
        the matrix named."""
        data = json.loads(text)
        got = _outcome(_complex_matrix, data)
        if accepted:
            assert isinstance(got[0], tuple)
            assert got == _outcome(_asarray_reference, data)
        else:
            assert got == ("ValidationError", "w")
            with pytest.raises(ValidationError, match=r"^w: must be a number, got '1\.5'$"):
                _complex_matrix(data, "w")

    @pytest.mark.parametrize("x", [np.nextafter(MAX_ENTRY, np.inf), -1e308, np.inf, -np.inf])
    def test_entry_above_bound_refused(self, x):
        """A part beyond the bound, the next float above it included, is
        refused with the matrix named; a NaN part is left to the checks
        that refuse non-finite entries."""
        data = [[[0.5, np.nan], [-MAX_ENTRY, x]]]
        message = "w: entries must be at most 1e+150 in magnitude"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            _complex_matrix(data, "w")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("indent", [None, 1], ids=["compact", "indented"])
    @pytest.mark.parametrize("where", ["w", "state", "instruments.A[0][0]"])
    def test_huge_entry_exits_3_naming_the_matrix(self, tmp_path, capsys, where, indent):
        """Entries of 1e308 used to overflow in the checks on W, on a state
        and on a Kraus operator: exit 1 when numpy's RuntimeWarning is an
        error. They are refused before any arithmetic."""

        def matrix(rows):
            return [[[float(x), 0.0] for x in row] for row in rows]

        big = 1e308
        one, eye = [[matrix([[1]])]], [[matrix(np.eye(2))]]
        payload = {
            "w": {
                "backend": "process",
                "lab_dims": {"A": [1, 1], "B": [1, 1], "E": [2, 1]},
                "w": matrix([[big, -big], [-big, big]]),
                "instruments": {"A": one, "B": one, "E": [[matrix([[1, 0]])], [matrix([[0, 1]])]]},
            },
            "state": {
                "backend": "quantum",
                "state": matrix([[big, -big], [-big, big]]),
                "instruments": {"A": eye, "B": eye, "E": eye},
            },
            "instruments.A[0][0]": {
                "backend": "quantum",
                "state": matrix([[1]]),
                "instruments": {"A": [[matrix([[big]])]], "B": one, "E": one},
            },
        }[where]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**payload, "event": [0]}, indent=indent))
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"{where}: entries must be at most 1e+150 in magnitude" in err

    @pytest.mark.parametrize("leaf", ["true", "false", '"0.5"', "null"])
    @pytest.mark.parametrize(
        "where, template",
        [
            ("w", '{"backend": "process", "lab_dims": {"A": [1, 1], "B": [1, 1], "E": [1, 1]}, '
             '"w": [[[LEAF, 0.0]]], "instruments": {"A": [[[[[1.0, 0.0]]]]], '
             '"B": [[[[[1.0, 0.0]]]]], "E": [[[[[1.0, 0.0]]]]]}, "event": [0]}'),
            ("instruments.B[0][0]", '{"backend": "quantum", "state": [[[1.0, 0.0]]], '
             '"instruments": {"A": [[[[[1.0, 0.0]]]]], "B": [[[[[LEAF, 0.0]]]]], '
             '"E": [[[[[1.0, 0.0]]]]]}, "event": [0]}'),
            ("state", '{"backend": "quantum", "state": [[[1.0, LEAF]]], '
             '"instruments": {"A": [[[[[1.0, 0.0]]]]], "B": [[[[[1.0, 0.0]]]]], '
             '"E": [[[[[1.0, 0.0]]]]]}, "event": [0]}'),
        ],
        ids=["w", "kraus", "state"],
    )
    def test_odd_leaf_exits_3_naming_the_matrix(self, tmp_path, capsys, leaf, where, template):
        path = tmp_path / "odd.json"
        path.write_text(template.replace("LEAF", leaf))
        with pytest.raises(ValidationError, match=r"must be a number") as e:
            parse_scenario(path.read_text())
        assert e.value.field == where
        assert main(["verify", str(path)]) == 3
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [
            [[[1, 0], [0, 0]], [[1, 0]]],
            [[[1, 0]], []],
            [[[1]]],
            [[[1, 0], [0]]],
            [[[1, 0, 0]]],
            [[[1, 0], [0, 0, 0]]],
            [["ab"]],
            [["12", "34"]],
            [[{"re": 1, "im": 0}]],
            [[[[1, 0], [0, 1]]]],
            [[[[1], [0]]]],
            [[[[1, 0], 0]]],
            [[["x", 0]]],
            [[[{"a": 1}, 0]]],
            [[[10**400, 0]]],
            [],
            [[]],
            [[[]]],
            [[1, 0], [0, 1]],
            5,
            "w",
            None,
            {"re": [[1]]},
        ],
        ids=[
            "ragged",
            "empty-row",
            "one-element-pair",
            "one-element-pair-late",
            "three-element-pair",
            "three-element-pair-late",
            "string-for-pair",
            "strings-for-pairs",
            "dict-for-pair",
            "deeper",
            "deeper-singletons",
            "deeper-mixed",
            "bad-string-entry",
            "dict-entry",
            "overflowing-int",
            "empty",
            "empty-rows",
            "empty-pair",
            "flat-rows",
            "number",
            "string",
            "null",
            "dict",
        ],
    )
    def test_malformed_refused_as_before(self, data):
        got = _outcome(_complex_matrix, data)
        assert got == _outcome(_asarray_reference, data)
        assert not isinstance(got[0], tuple)


# a one-dimensional process whose W has a ragged second row
RAGGED_W = json.dumps(
    {
        "backend": "process",
        "lab_dims": {"A": [1, 1], "B": [1, 1], "E": [1, 1]},
        "w": [[[1.0, 0.0]], []],
        "instruments": {lab: [[[[[1.0, 0.0]]]]] for lab in "ABE"},
        "event": [0],
    }
)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "text, error",
    [
        (json.dumps(MINIMAL_TABLE), None),
        ('{"backend": "table",\n  broken', ParseError),
        (RAGGED_W, ValidationError),
    ],
    ids=["good", "bad-json", "bad-matrix"],
)
def test_parse_leaves_collector_as_found(enabled, text, error):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            parse_scenario(text)
        else:
            with pytest.raises(error):
                parse_scenario(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_no_cyclic_collection_during_parse(scenarios_dir):
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    text = (scenarios_dir / "process_switch.json").read_text()
    gc.callbacks.append(count)
    try:
        parse_scenario(text)
    finally:
        gc.callbacks.remove(count)
    assert starts == []


class TestRunScenario:
    def test_classical_fixture_report(self, scenarios_dir):
        s = parse_scenario((scenarios_dir / "classical_four_state.json").read_text())
        r = run_scenario(s)
        assert r.q_a == pytest.approx((0.5, 0.5))
        assert r.q_b == pytest.approx((1 / 3, 1.0))
        assert r.violation_count == 0
        assert r.singular_ok

    def test_quantum_block_fixture_report(self, scenarios_dir):
        s = parse_scenario((scenarios_dir / "quantum_block.json").read_text())
        r = run_scenario(s)
        assert r.q_b == pytest.approx((0.2, 0.2, 0.1, 0.5), abs=1e-9)
        assert r.violation_count == 0

    def test_trivial_table_agrees(self):
        payload = {"backend": "table", "sizes": [1, 1, 1], "p": [1.0], "event": [0]}
        r = run_scenario(parse_scenario(json.dumps(payload)))
        assert len(r.reports) == 1
        assert r.reports[0].ck_holds and r.reports[0].agrees


class TestReportEmission:
    def test_header_only_when_no_reports(self):
        r = RunReport(
            scenario_id="empty", backend="table", sizes=(1, 1, 1), event=(0,),
            q_a=(1.0,), q_b=(1.0,), reports=(), violation_count=0, singular_ok=True,
        )
        text = emit_report(r, "table")
        assert "q_a" in text and "\n" in text
        assert len(text.strip().splitlines()) == 5  # header block only

    def test_single_report_fully_populated(self, scenarios_dir):
        s = parse_scenario((scenarios_dir / "table_uniform.json").read_text())
        r = run_scenario(s)
        text = emit_report(r, "records")
        lines = [json.loads(line) for line in text.strip().splitlines()]
        assert lines[0]["record"] == "run"
        assert all(line["record"] == "ck" for line in lines[1:])
        assert {"q_a", "q_b", "a_star", "b_star", "steps", "ck_holds", "agrees",
                "mass_a", "mass_b", "witness"} <= set(lines[1])

    def test_records_round_trip_equals_report(self, scenarios_dir):
        for name in ("classical_four_state.json", "quantum_block.json"):
            s = parse_scenario((scenarios_dir / name).read_text())
            r = run_scenario(s, include_joint=True)
            assert parse_records(emit_report(r, "records")) == r

    def test_records_are_deterministic(self, scenarios_dir):
        s = parse_scenario((scenarios_dir / "quantum_block.json").read_text())
        a = emit_report(run_scenario(s, include_joint=True), "records")
        b = emit_report(run_scenario(s, include_joint=True), "records")
        assert a == b


class TestCLI:
    def test_verify_fixture_exits_zero(self, scenarios_dir, capsys):
        assert main(["verify", str(scenarios_dir / "classical_four_state.json")]) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["verify", str(bad)]) == 2

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"backend": "table", "sizes": [2, 2], "p": [], "event": []}))
        assert main(["joint", str(bad)]) == 3

    def test_nan_kraus_entry_names_the_instrument(self, scenarios_dir, tmp_path, capsys):
        text = (scenarios_dir / "process_definite.json").read_text()
        payload = json.loads(text)
        payload["instruments"]["B"][1][0][0][1][0] = float("nan")
        bad = tmp_path / "nan_kraus.json"
        bad.write_text(json.dumps(payload))
        assert "NaN" in bad.read_text()
        assert main(["verify", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "instruments.B: kraus operator 0 of branch 1 has non-finite entries" in err
        assert "table" not in err

    def test_block_example_command(self, capsys):
        assert main(["block-example", "--theta", "0.785398", "--phi", "1.0472",
                     "--q", "0.2", "--r", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "max deviation" in out

    def test_block_example_bad_params_exit_code(self, capsys):
        assert main(["block-example", "--theta", "0.1", "--phi", "0.1",
                     "--q", "0.6", "--r", "0.1"]) == 3

    def test_search_command(self, capsys):
        assert main(["search", "--backend", "table", "--trials", "5", "--seed", "4"]) == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_ck_and_protocol_commands(self, scenarios_dir, capsys):
        path = str(scenarios_dir / "classical_four_state.json")
        assert main(["ck", path, "--pair", "0", "0"]) == 0
        assert "common knowledge = False" in capsys.readouterr().out
        assert main(["protocol", path, "--pair", "0", "0"]) == 0
        out = capsys.readouterr().out
        assert "final: alice 0.5 bob 0.5" in out

    def test_joint_echo(self, scenarios_dir, capsys):
        assert main(["joint", str(scenarios_dir / "table_uniform.json")]) == 0
        assert "joint (row-major)" in capsys.readouterr().out

    def test_violation_exit_code(self, scenarios_dir, monkeypatch, capsys):
        # no valid input can produce a violation, so force one through the
        # reporting path to pin the exit-code contract
        import agreelab.cli as cli

        real = cli.run_scenario

        def tampered(s, include_joint=False):
            import dataclasses

            return dataclasses.replace(real(s, include_joint), violation_count=1)

        monkeypatch.setattr(cli, "run_scenario", tampered)
        assert main(["verify", str(scenarios_dir / "table_uniform.json")]) == 4


GOLDEN_RECORDS = Path(__file__).resolve().parent / "golden" / "fixture_records.jsonl"
GOLDEN_JOINTS = Path(__file__).resolve().parent / "golden" / "fixture_joint_records.jsonl"


def assert_same_record(got, want, where="record"):
    """Equal JSON values: floats to a relative 1e-12, since BLAS builds may
    round the quantum and process tables differently; all else exactly."""
    if isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12), (where, got, want)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got, want)
        for n, (g, w) in enumerate(zip(got, want)):
            assert_same_record(g, w, f"{where}[{n}]")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (where, got, want)
        for key in want:
            assert_same_record(got[key], want[key], f"{where}.{key}")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def test_fixture_records_match_golden_file(scenarios_dir, capsys):
    """``verify scenarios/*.json --format records`` reproduces the
    committed records of every fixture."""
    paths = sorted(str(path) for path in scenarios_dir.glob("*.json"))
    assert main(["verify", *paths, "--format", "records"]) == 0
    got = capsys.readouterr().out.splitlines()
    want = GOLDEN_RECORDS.read_text().splitlines()
    assert len(got) == len(want)
    for n, (g, w) in enumerate(zip(got, want)):
        assert_same_record(json.loads(g), json.loads(w), f"line {n + 1}")


def test_fixture_joint_tables_match_golden_file_byte_for_byte(scenarios_dir, capsys):
    """``joint <file> --format records`` for each fixture, in sorted order,
    reproduces the committed tables byte for byte, so a change of arithmetic
    that moves any bit of a fixture's table shows here."""
    got = []
    for path in sorted(scenarios_dir.glob("*.json")):
        assert main(["joint", str(path), "--format", "records"]) == 0
        got.append(capsys.readouterr().out)
    assert "".join(got) == GOLDEN_JOINTS.read_text()
