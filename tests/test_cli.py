"""The --tol flag: one resolution rule for every subcommand.

The fixture table has two Alice outcomes whose posteriors differ by 1e-7,
so the default tolerance (1e-9) keeps them apart and --tol 1e-6 merges
them; each subcommand's output shows which tolerance it ran at. Every
backend builds its table at the tolerance the verdict runs at, and a
malformed scalar field in a scenario file is a validation error, as is an
integer field holding a bool or a fraction, a mixture component without
its order or weight, or a maximally mixed state wider than every
instrument. A tolerance above every outcome's mass
leaves no posterior pair to verify. ``ck`` and ``protocol`` refuse an
outcome pair outside the table's axes alike.
"""

import copy
import json

import pytest

import agreelab.cli as cli
from agreelab import parse_records
from agreelab.cli import main
from conftest import SCENARIOS

GAP = 1e-7


@pytest.fixture
def near_twins(tmp_path):
    # p(i, 0, k) = 0.5 * P(k | i): P(event | i=0) = 0.5, P(event | i=1) = 0.5 + GAP
    q1 = 0.5 + GAP
    payload = {
        "backend": "table",
        "sizes": [2, 1, 2],
        "p": [0.25, 0.25, 0.5 * q1, 0.5 * (1 - q1)],
        "event": [0],
    }
    path = tmp_path / "near_twins.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_joint_rejects_negative_tol(near_twins, capsys):
    assert main(["joint", near_twins, "--tol", "-1"]) == cli.EXIT_VALIDATION
    assert "tol" in capsys.readouterr().err
    assert main(["joint", near_twins, "--tol", "1e-6"]) == cli.EXIT_OK


def test_posteriors_honours_tol(near_twins, capsys):
    assert main(["posteriors", near_twins, "--format", "records"]) == cli.EXIT_OK
    apart = parse_records(capsys.readouterr().out)
    assert main(["posteriors", near_twins, "--format", "records", "--tol", "1e-6"]) == cli.EXIT_OK
    merged = parse_records(capsys.readouterr().out)
    assert len(apart.reports) == 2 and not any(r.ck_holds for r in apart.reports)
    assert len(merged.reports) == 1
    assert merged.reports[0].ck_holds and merged.reports[0].a_star == (0, 1)


def test_ck_honours_tol(near_twins, capsys):
    query = ["ck", near_twins, "--qa", "0.5", "--qb", str(0.5 + GAP / 2)]
    assert main(query) == cli.EXIT_OK
    assert "A*=[] " in capsys.readouterr().out
    assert main([*query, "--tol", "1e-6"]) == cli.EXIT_OK
    assert "A*=[0, 1] " in capsys.readouterr().out
    assert main([*query, "--tol", "inf"]) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_verify_rejects_bad_tol(scenarios_dir, tol, capsys):
    path = str(scenarios_dir / "quantum_block.json")
    assert main(["verify", path, "--tol", tol]) == cli.EXIT_VALIDATION
    assert "internal error" not in capsys.readouterr().err


def test_verify_rejects_bad_tolerance_in_file(near_twins, capsys):
    with open(near_twins) as f:
        payload = json.load(f)
    payload["tolerance"] = -1e-9
    with open(near_twins, "w") as f:
        json.dump(payload, f)
    assert main(["verify", near_twins]) == cli.EXIT_VALIDATION


def test_protocol_honours_tol(near_twins, capsys):
    assert main(["protocol", near_twins, "--pair", "0", "0"]) == cli.EXIT_OK
    assert "S_A=[0] " in capsys.readouterr().out
    assert main(["protocol", near_twins, "--pair", "0", "0", "--tol", "1e-6"]) == cli.EXIT_OK
    assert "S_A=[0, 1] " in capsys.readouterr().out
    assert main(["protocol", near_twins, "--pair", "0", "0", "--tol", "-1"]) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("command", ["ck", "protocol"])
@pytest.mark.parametrize(
    "pair, message",
    [
        (["9", "0"], "axis I index 9 outside range 0..3"),
        (["-1", "0"], "axis I index -1 outside range 0..3"),
        (["0", "4"], "axis J index 4 outside range 0..3"),
        (["0", "-1"], "axis J index -1 outside range 0..3"),
    ],
)
def test_pair_outside_axis_exits_3(scenarios_dir, capsys, command, pair, message):
    path = str(scenarios_dir / "quantum_block.json")
    assert main([command, path, "--pair", *pair]) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_search_passes_zero_tol_through(monkeypatch, capsys):
    seen = []
    real = cli.fuzz_search

    def spy(*args, **kwargs):
        seen.append(kwargs["tol"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fuzz_search", spy)
    argv = ["search", "--backend", "table", "--trials", "2"]
    assert main([*argv, "--tol", "0"]) == cli.EXIT_VALIDATION
    assert main([*argv, "--tol", "1e-6"]) == cli.EXIT_OK
    assert main([*argv, "--tol", "-1"]) == cli.EXIT_VALIDATION
    # zero reaches the fuzzer, which refuses it for float tables; a negative
    # tolerance is refused before
    assert seen == [0.0, 1e-6]


def test_main_builds_one_parser(monkeypatch, scenarios_dir, capsys):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    table = str(scenarios_dir / "table_uniform.json")
    assert main(["verify", table]) == cli.EXIT_OK
    assert main(["posteriors", table]) == cli.EXIT_OK
    assert main(["ck", table, "--pair", "0", "0"]) == cli.EXIT_OK
    assert main(["protocol", table, "--pair", "0", "0"]) == cli.EXIT_OK
    assert main(["search", "--backend", "table", "--trials", "2"]) == cli.EXIT_OK
    assert len(built) == 1


def test_reused_parser_after_argparse_error(scenarios_dir, capsys):
    valid = ["verify", str(scenarios_dir / "table_uniform.json"), "--format", "records"]
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as fresh_exit:
        main(["verify"])
    fresh_err = capsys.readouterr().err
    cli._parser.cache_clear()
    assert main(valid) == cli.EXIT_OK
    fresh_out = capsys.readouterr().out

    # the same parser now serves an error, then the valid call
    with pytest.raises(SystemExit) as reused_exit:
        main(["verify"])
    assert fresh_exit.value.code == reused_exit.value.code == 2
    assert capsys.readouterr().err == fresh_err
    assert main(valid) == cli.EXIT_OK
    assert capsys.readouterr().out == fresh_out


def test_reused_parser_sees_patched_handlers(monkeypatch, capsys):
    argv = ["search", "--backend", "table", "--trials", "2"]
    assert main(argv) == cli.EXIT_OK  # the parser exists before the patch
    calls = []
    real = cli.fuzz_search

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fuzz_search", spy)
    assert main(argv) == cli.EXIT_OK
    assert calls == [("table", 2)]


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _records(capsys, argv) -> list[dict]:
    assert main(argv) == cli.EXIT_OK
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


# Outcome 1 of axis I has mass 5e-10: a posterior at tol 1e-12, none at 1e-9.
FAINT_ROW_TABLE = {
    "id": "faint",
    "backend": "table",
    "sizes": [2, 2, 2],
    "p": [0.25, 0.25, 0.25, 0.2499999995, 0, 0, 2.5e-10, 2.5e-10],
    "event": [0],
}


def test_tol_reaches_the_table(tmp_path, capsys):
    flag = _write(tmp_path, "flag.json", FAINT_ROW_TABLE)
    in_file = _write(tmp_path, "file.json", dict(FAINT_ROW_TABLE, tolerance=1e-12))
    got = _records(capsys, ["verify", flag, "--tol", "1e-12", "--format", "records"])
    want = _records(capsys, ["verify", in_file, "--format", "records"])
    assert got == want
    assert got[0]["q_a"][1] == 0.5


def test_classical_table_is_built_at_the_file_tolerance(tmp_path, capsys):
    # states (0, 0, 0), (0, 1, 1) and (1, 1, 0) of cells (a, b, e); Alice's
    # cell 1 has mass 5e-10
    model = {
        "id": "faint",
        "backend": "classical",
        "num_states": 3,
        "prior": [0.4999999995, 0.5, 5e-10],
        "partition_a": [0, 0, 1],
        "partition_b": [0, 1, 1],
        "partition_e": [0, 1, 0],
        "event": [0],
        "tolerance": 1e-12,
    }
    table = {
        "id": "faint",
        "backend": "table",
        "sizes": [2, 2, 2],
        "p": [0.4999999995, 0, 0, 0.5, 0, 0, 5e-10, 0],
        "event": [0],
        "tolerance": 1e-12,
    }
    got = _records(capsys, ["verify", _write(tmp_path, "m.json", model), "--format", "records"])
    want = _records(capsys, ["verify", _write(tmp_path, "t.json", table), "--format", "records"])
    assert got[0].pop("backend") == "classical" and want[0].pop("backend") == "table"
    assert got == want


MINIMAL_TABLE = {"backend": "table", "sizes": [1, 1, 1], "p": [1.0], "event": [0]}
UNIFORM_TABLE = {"backend": "table", "sizes": [2, 2, 2], "p": [0.125] * 8, "event": [0]}
MINIMAL_CLASSICAL = {
    "backend": "classical",
    "num_states": 2,
    "prior": [0.5, 0.5],
    "partition_a": [0, 1],
    "partition_b": [0, 0],
    "partition_e": [0, 1],
    "event": [0],
}
BLOCK_PRESET = {
    "backend": "quantum",
    "preset": {"name": "block_rotation", "theta": 0.5, "phi": 0.7, "q": 0.2, "r": 0.3},
    "event": [0],
}
MIXED_QUBIT = {
    "backend": "quantum",
    "state": {"maximally_mixed": 2},
    "instruments": {
        lab: [[[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]] for lab in "ABE"
    },
    "event": [0],
}
SWITCH = json.loads((SCENARIOS / "process_switch.json").read_text())


@pytest.mark.parametrize(
    "base, key, value",
    [
        (MINIMAL_TABLE, "tolerance", "abc"),
        (MINIMAL_TABLE, "tolerance", None),
        (MINIMAL_TABLE, "seed", "x"),
        (MINIMAL_TABLE, "p", ["one"]),
        (MINIMAL_CLASSICAL, "num_states", "two"),
        (MINIMAL_TABLE, "event", ["zero"]),
        (BLOCK_PRESET, "preset", dict(BLOCK_PRESET["preset"], theta="wide")),
        (MIXED_QUBIT, "state", {"maximally_mixed": "x"}),
        (MIXED_QUBIT, "state", {"maximally_mixed": 0}),
        (MIXED_QUBIT, "state", {"maximally_mixed": 3}),
        (BLOCK_PRESET, "preset", dict(BLOCK_PRESET["preset"], state={"maximally_mixed": 5})),
        # integer fields are never truncated: each of these once ran as the
        # integer below it (K[0], K[1], sizes [2, 2, 2], ...)
        (UNIFORM_TABLE, "event", [0.7]),
        (UNIFORM_TABLE, "event", [True]),
        (UNIFORM_TABLE, "sizes", [2.5, 2, 2]),
        (MINIMAL_CLASSICAL, "num_states", 2.5),
        (MINIMAL_CLASSICAL, "partition_a", [0, 0.5]),
        (MINIMAL_CLASSICAL, "partition_b", [False, 0]),
        (MINIMAL_CLASSICAL, "event", [0.5]),
        (MIXED_QUBIT, "state", {"maximally_mixed": 2.5}),
        (SWITCH, "lab_dims", dict(SWITCH["lab_dims"], A=[2.5, 2])),
    ],
    ids=[
        "tolerance",
        "null-tolerance",
        "seed",
        "p",
        "num_states",
        "event",
        "theta",
        "mixed",
        "mixed-zero",
        "mixed-above-instruments",
        "preset-mixed-above-instruments",
        "event-fraction",
        "event-bool",
        "sizes-fraction",
        "num_states-fraction",
        "partition-fraction",
        "partition-bool",
        "classical-event-fraction",
        "mixed-fraction",
        "lab_dims-fraction",
    ],
)
def test_malformed_scalar_is_a_validation_error(tmp_path, capsys, base, key, value):
    # the well-formed file verifies, so the malformed field is what fails
    assert main(["verify", _write(tmp_path, "ok.json", base)]) == cli.EXIT_OK
    bad = _write(tmp_path, "bad.json", dict(base, **{key: value}))
    assert main(["verify", bad]) == cli.EXIT_VALIDATION
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, key, value, where",
    [
        (UNIFORM_TABLE, "event", [True], "event[0]"),
        (UNIFORM_TABLE, "sizes", [2, 2.5, 2], "sizes[1]"),
        (MINIMAL_CLASSICAL, "num_states", 2.5, "num_states"),
        (MIXED_QUBIT, "state", {"maximally_mixed": True}, "state.maximally_mixed"),
        (SWITCH, "lab_dims", dict(SWITCH["lab_dims"], E=[4, 1.5]), "lab_dims.E[1]"),
        # the seed once read 4.5 as 4 and true as 1
        (UNIFORM_TABLE, "seed", 4.5, "seed"),
        (UNIFORM_TABLE, "seed", True, "seed"),
    ],
    ids=["event", "sizes", "num_states", "mixed", "lab_dims", "seed-fraction", "seed-bool"],
)
def test_integer_field_error_names_the_field(tmp_path, capsys, base, key, value, where):
    bad = _write(tmp_path, "bad.json", dict(base, **{key: value}))
    assert main(["verify", bad]) == cli.EXIT_VALIDATION
    assert f"{where}: must be an integer" in capsys.readouterr().err


# true once read as tolerance 1.0, at which every posterior clusters
# together and every verdict is vacuous; "1e-9" was read as a number
@pytest.mark.parametrize("value", [True, "1e-9"], ids=["bool", "string"])
def test_tolerance_must_be_a_json_number(tmp_path, capsys, value):
    bad = _write(tmp_path, "bad.json", dict(UNIFORM_TABLE, tolerance=value))
    assert main(["verify", bad]) == cli.EXIT_VALIDATION
    assert "tolerance: must be a number" in capsys.readouterr().err


# Each of these once verified with exit 0: table entries were read with
# np.asarray(..., dtype=float), the preset angles and weights and a mixture
# weight with float(...), so a bool read as 1.0 or 0.0 and a numeric string
# as its number.
HALF_TABLE = {"backend": "table", "sizes": [1, 1, 2], "p": [0.5, 0.5], "event": [0]}


@pytest.mark.parametrize(
    "p, where",
    [
        ([True, False], "p[0]"),
        (["0.5", "0.5"], "p[0]"),
        ([0.5, "0.5"], "p[1]"),
        ([0.5, None], "p[1]"),
    ],
    ids=["bool", "string", "second-string", "null"],
)
def test_table_entries_must_be_json_numbers(tmp_path, capsys, p, where):
    bad = _write(tmp_path, "bad.json", dict(HALF_TABLE, p=p))
    assert main(["verify", bad]) == cli.EXIT_VALIDATION
    assert f"{where}: must be a number" in capsys.readouterr().err


def test_table_entries_keep_json_ints_and_locate_an_overflow(tmp_path, capsys):
    ints = dict(HALF_TABLE, sizes=[1, 1, 1], p=[1])
    assert main(["verify", _write(tmp_path, "ints.json", ints)]) == cli.EXIT_OK
    # a JSON int too large for a float once escaped as an internal error
    huge = dict(HALF_TABLE, p=[0.5, 10**400])
    assert main(["verify", _write(tmp_path, "huge.json", huge)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "p[1]: " in err and "internal error" not in err


@pytest.mark.parametrize("key", ["theta", "phi", "q", "r"])
@pytest.mark.parametrize("value", [True, "0.25"], ids=["bool", "string"])
def test_preset_parameters_must_be_json_numbers(tmp_path, capsys, key, value):
    preset = dict(BLOCK_PRESET["preset"], **{key: value})
    bad = _write(tmp_path, "bad.json", dict(BLOCK_PRESET, preset=preset))
    assert main(["verify", bad]) == cli.EXIT_VALIDATION
    assert f"preset.{key}: must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "string"])
def test_mixture_weight_must_be_a_json_number(scenarios_dir, tmp_path, capsys, value):
    payload = json.loads((scenarios_dir / "process_mixture.json").read_text())
    payload["construction"]["components"][1]["weight"] = value
    assert main(["verify", _write(tmp_path, "bad.json", payload)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "construction.components[1].weight: must be a number" in err


@pytest.mark.parametrize(
    "base, at, where",
    [
        (MIXED_QUBIT, [], "state"),
        (BLOCK_PRESET, ["preset"], "preset.state"),
        ("process_definite.json", ["construction"], "construction.state"),
    ],
    ids=["quantum", "preset", "construction"],
)
def test_oversize_maximally_mixed_is_refused_before_it_is_built(
    scenarios_dir, tmp_path, capsys, base, at, where
):
    # a d x d state is never built for a d no instrument can take; at
    # d = 2000 that matrix alone is 61 MiB
    if isinstance(base, str):
        payload = json.loads((scenarios_dir / base).read_text())
    else:
        payload = copy.deepcopy(base)
    block = payload
    for key in at:
        block = block[key]
    block["state"] = {"maximally_mixed": 2000}
    assert main(["verify", _write(tmp_path, "big.json", payload)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{where}.maximally_mixed: must be between 1 and" in err


@pytest.mark.parametrize("backend", ["table", "classical", "quantum", "process"])
def test_search_with_tol_above_most_masses_reports(backend, capsys):
    # some trials leave no posterior pair to sweep; the run still reports
    code = main(["search", "--backend", backend, "--trials", "20", "--tol", "0.6"])
    assert code != cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert "internal error" not in captured.err
    assert f"backend {backend}" in captured.out


@pytest.mark.parametrize("key", ["order", "weight"])
def test_mixture_component_without_a_key_is_located(scenarios_dir, tmp_path, capsys, key):
    payload = json.loads((scenarios_dir / "process_mixture.json").read_text())
    assert main(["verify", _write(tmp_path, "ok.json", payload)]) == cli.EXIT_OK
    del payload["construction"]["components"][1][key]
    assert main(["verify", _write(tmp_path, "bad.json", payload)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"construction.components[1].{key}: missing required key" in err
    assert "internal error" not in err


def test_tol_above_every_mass_sweeps_no_pair(scenarios_dir, capsys):
    # every outcome of the uniform table has mass 0.5 <= 0.6: no posterior
    # is attained on either axis, so there is no pair to verify
    path = str(scenarios_dir / "table_uniform.json")
    assert main(["verify", path, "--tol", "0.6", "--format", "records"]) == cli.EXIT_OK
    report = parse_records(capsys.readouterr().out)
    assert report.q_a == report.q_b == (None, None) and report.reports == ()


@pytest.mark.parametrize(
    "command", [["verify"], ["ck", "--pair", "0", "0"], ["protocol", "--pair", "0", "0"]]
)
def test_non_utf8_file_is_a_parse_error(tmp_path, capsys, command):
    # JSON text is UTF-8 (RFC 8259); a 0xff byte in a string is not
    path = tmp_path / "latin1.json"
    path.write_bytes(
        b'{"backend": "table", "id": "caf\xe9\xff", "sizes": [1, 1, 1], "p": [1.0], "event": [0]}'
    )
    assert main([command[0], str(path), *command[1:]]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert f"parse error: {path} is not UTF-8" in err and "internal error" not in err
