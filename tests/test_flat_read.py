"""The flat read of a compact explicit ``w``: it must give what the nested
parse gives, bit for bit, or the same exception with the same message."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agreelab import parse_scenario, scenario
from agreelab.process import embed_definite_order
from agreelab.randomgen import random_density, random_instrument
from agreelab.scenario import _complex_matrix, _read_flat_w, complex_matrix_to_json

ZEROS = ["0", "0.0", "-0.0", "0e0", "-0E-5", "0.000", "-0"]
NUMBERS = ZEROS + ["1", "-3", "1.0", "0.5", "2.5e-3", "-1E+2", "5e-324", "1e308", "-1e308"]
# leaves that are not JSON numbers, or overflow a float: both parses must
# treat them alike
ODD = ["true", "false", "null", '"0.5"', "NaN", "Infinity", "-Infinity", "1e400", "01", "+1",
       ".5", "1.", "", "1 2", "[1]", "-", "{}", "1e", "0x1", "1_0"]


def _instruments(d: int) -> dict:
    """Lab A reads a d-dimensional system in one branch of d Kraus rows
    <x|; labs B and E are trivial."""
    kraus = [[[[1.0, 0.0] if y == x else [0.0, 0.0] for y in range(d)]] for x in range(d)]
    trivial = [[[[[1.0, 0.0]]]]]
    return {"A": [kraus], "B": trivial, "E": trivial}


def _literal(tokens: list, style, draw) -> str:
    """A rows x cols matrix of [re, im] token pairs, written in ``style``:
    json.dumps's indent and separators, or random whitespace (None)."""
    if style is not None:
        indent, separators = style
        marked = [[[f"@{r}.{c}.{k}@" for k in range(2)] for c in range(len(tokens[0]))]
                  for r in range(len(tokens))]
        text = json.dumps(marked, indent=indent, separators=separators)
        for r, row in enumerate(tokens):
            for c, pair in enumerate(row):
                for k, token in enumerate(pair):
                    text = text.replace(f'"@{r}.{c}.{k}@"', token)
        return text
    ws = st.sampled_from(["", "", "", "", " ", " ", "\n", "  ", "\t", "\r\n"])

    def seq(items):
        return "[" + draw(ws) + ("," + draw(ws)).join(i + draw(ws) for i in items) + "]"

    return seq(seq(seq(pair) for pair in row) for row in tokens)


@st.composite
def documents(draw):
    """Process scenario text whose top-level ``w`` is written in many ways,
    beside decoys that the flat read must not mistake for it."""
    d = draw(st.integers(1, 6))
    rows, cols = d, d
    if draw(st.integers(0, 9)) == 0:
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    number = st.one_of(
        st.sampled_from(NUMBERS),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-10**20, 10**20).map(str),
    )
    if draw(st.booleans()) and rows == cols:
        # a valid W for these labs: a density matrix on A's input
        diagonal = st.sampled_from([repr(1 / d), f"{1 / d:e}", f"{1 / d!r}".upper()])
        tokens = [[[draw(diagonal) if r == c else draw(st.sampled_from(ZEROS)),
                    draw(st.sampled_from(ZEROS))] for c in range(cols)] for r in range(rows)]
    else:
        tokens = [[[draw(number), draw(number)] for _ in range(cols)] for _ in range(rows)]

    def slot():
        return draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)), draw(st.integers(0, 1))

    if draw(st.integers(0, 4)) == 0:
        r, c, k = slot()
        tokens[r][c][k] = draw(st.sampled_from(ODD))
    # a number moved out of its slot to beside a bracket: the count of
    # numbers still fits the shape, and so does the bracket skeleton
    stray = draw(st.integers(0, 4)) == 0
    if stray:
        r, c, k = slot()
        moved, tokens[r][c][k] = tokens[r][c][k], "@"
    style = draw(st.sampled_from([None, None, (None, None), (None, None), (None, (",", ":")),
                                  (0, None), (2, (",", ": "))]))
    literal = _literal(tokens, style, draw)
    if stray:
        at = literal.index("@")
        literal = literal.replace("@", "")
        if draw(st.booleans()):
            # just outside the slot's own pair
            i = literal.rindex("[", 0, at) if k == 0 else literal.index("]", at) + 1
        else:
            i = draw(st.sampled_from([i for i, ch in enumerate(literal) if ch in "[]"]))
            i += draw(st.integers(0, 1))
        literal = literal[:i] + moved + literal[i:]
    items = [
        ("backend", '"process"'),
        ("lab_dims", json.dumps({"A": [d, 1], "B": [1, 1], "E": [1, 1]})),
        ("instruments", json.dumps(_instruments(d))),
        ("event", "[0]"),
        ("w", literal),
    ]
    compact = [[["1.0", "0.0"]]]
    decoys = {
        "nested": ("construction", '{"w": ' + _literal(compact, None, draw) + "}"),
        "duplicate": ("w", _literal(compact, (None, None), draw)),
        "in-string": ("id", json.dumps('"w": [[[1.0, 0.0]]]')),
        "in-key": ('x\\"w', _literal(compact, (None, None), draw)),
    }
    if draw(st.integers(0, 2)) == 0:
        for name in draw(st.lists(st.sampled_from(sorted(decoys)), unique=True, max_size=2)):
            items.append(decoys[name])
    items = draw(st.permutations(items))
    colon = draw(st.sampled_from([": ", ":", " : ", ":\n"]))
    text = "{" + ", ".join(f'"{key}"{colon}{value}' for key, value in items) + "}"
    if draw(st.integers(0, 5)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def _outcome(text: str, flat: bool):
    """What ``parse_scenario`` makes of ``text``: the scenario's fields and
    W's bytes, or the exception's type and message. Entries near 1e308 are
    refused on either path before any check could overflow."""
    with mock.patch.object(scenario, "_read_flat_w", _read_flat_w if flat else lambda text: None):
        try:
            s = parse_scenario(text)
        except Exception as e:
            return type(e), str(e)
    w = s.source[0]
    return s.scenario_id, s.backend, s.event, s.tol, s.seed, w.lab_dims, w.matrix.tobytes()


def _matrix_outcome(data):
    try:
        return _complex_matrix(data, "w").tobytes()
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(documents())
@example('{"backend": "process", "w": [[[1.0, 0.0]]], "w": [[[1.0, 0.0]]]}')
@example('{"w": [[[1, 0]]]')
@example('{"w": [[[1, 0]]]5}')
@example('{"w": [[[1, 0]]], "x": -9007199254740993}')
@example('{"w": [[[1,2]5,[3,4]]]}')
@example('{"w": [[[1,]2,[3,4]]]}')
@example('{"w": [[[0.5,0.]0,[0,0]]]}')
@example('{"w": [[1[,2],[3,4]]]}')
def test_flat_read_matches_nested_parse(text):
    assert _outcome(text, flat=True) == _outcome(text, flat=False)
    payload = _read_flat_w(text)
    if payload is not None:
        nested = json.loads(text)
        assert _matrix_outcome(payload.pop("w")) == _matrix_outcome(nested.pop("w"))
        assert payload == nested


@pytest.fixture
def explicit_w_payload():
    """A 216 x 216 explicit W, the definite order A (3, 2) -> B (2, 3) ->
    E (3, 2), written as ``json.dumps`` writes it."""
    rng = np.random.default_rng(3)
    dims = {"A": (3, 2), "B": (2, 3), "E": (3, 2)}
    w = embed_definite_order(random_density(3, rng), ("A", "B", "E"), dims)
    instruments = {
        lab: [[complex_matrix_to_json(k) for k in branch] for branch in random_instrument(*d, rng).branches]
        for lab, d in dims.items()
    }
    return {
        "id": "explicit",
        "backend": "process",
        "lab_dims": {lab: list(d) for lab, d in dims.items()},
        "w": complex_matrix_to_json(w.matrix),
        "instruments": instruments,
        "event": [0],
    }


def test_compact_w_is_read_flat_and_indented_w_nested(explicit_w_payload):
    compact = json.dumps(explicit_w_payload)
    indented = json.dumps(explicit_w_payload, indent=2)
    assert _read_flat_w(compact) is not None
    assert _read_flat_w(json.dumps(explicit_w_payload, separators=(",", ":"))) is not None
    assert _read_flat_w(indented) is None
    got = _outcome(compact, flat=True)
    assert isinstance(got[-1], bytes)
    assert got == _outcome(indented, flat=True) == _outcome(compact, flat=False)


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace('"w": ', '"construction": {"w": ', 1)[:-1] + "}}",
        lambda text: text[:-1] + ', "w": [[[1.0, 0.0]]]}',
        lambda text: text.replace('"w": [[[', '"w": [[[true, 0.0], [', 1),
        lambda text: text.replace('"w": [[[', '"w": [[[NaN, 0.0], [', 1),
    ],
    ids=["nested", "duplicate", "bool-entry", "nan-entry"],
)
def test_other_w_is_left_to_the_nested_parse(explicit_w_payload, edit):
    text = edit(json.dumps(explicit_w_payload))
    assert _read_flat_w(text) is None
    assert _outcome(text, flat=True) == _outcome(text, flat=False)
