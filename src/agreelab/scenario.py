"""Scenario files: one JSON schema covering all four backends.

A scenario is a JSON object with a mandatory ``backend`` discriminator
("table", "classical", "quantum", or "process"), an ``event`` list of K
indices, optional ``id``, ``tolerance``, and ``seed``, and a
backend-specific payload. Complex matrices are nested lists of [re, im]
pairs; partitions are per-state cell-index lists; rational priors may be
written as "num/den" strings to select exact arithmetic. See the README
for the full schema and examples.
"""

from __future__ import annotations

import gc
import json
import math
import re
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from typing import Callable

import numpy as np

from .agreement import CKReport, verify_agreement
from .classical import ClassicalModel, embed_classical
from .errors import AgreeLabError, DimensionMismatch, ParseError, ValidationError
from .joint import (
    DEFAULT_TOL,
    Event,
    JointDistribution,
    OutcomeSpace,
    as_index,
    validate_joint,
)
from .matrices import MAX_ENTRY
from .process import (
    LABS,
    ProcessMatrix,
    check_dense_budget,
    embed_definite_order,
    mix_processes,
    process_joint,
)
from .quantum import (
    DensityMatrix,
    Instrument,
    QuantumScenario,
    block_rotation_scenario,
    sequential_joint,
)
from .randomgen import (
    random_classical_model,
    random_joint_table,
    random_process_setup,
    random_quantum_scenario,
)


def _require(payload: dict, key: str, where: str):
    if key not in payload:
        raise ValidationError("missing required key", f"{where}.{key}" if where else key)
    return payload[key]


def _integer(x, where: str) -> int:
    """An integer field, by the rule of :func:`joint.as_index`: a bool or a
    fractional number is refused, not truncated."""
    try:
        return as_index(x, where)
    except DimensionMismatch:
        raise ValidationError(f"must be an integer, got {x!r}", where) from None


def _number(x, where: str) -> float:
    """A real field: a JSON number; a bool or a numeric string is refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValidationError(f"must be a number, got {x!r}", where)
    try:
        return float(x)
    except OverflowError as e:
        raise ValidationError(str(e), where) from None


def _numbers(values: list, where: str) -> np.ndarray:
    """A list of real fields as a float array, in one conversion when every
    entry is a JSON number (the type of a bool is bool, not int); otherwise
    each entry goes through ``_number``, which names the first bad one."""
    if set(map(type, values)) <= {int, float}:
        try:
            return np.array(values, dtype=float)
        except OverflowError:
            pass
    return np.array([_number(x, f"{where}[{n}]") for n, x in enumerate(values)])


def _integers(values, where: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ValidationError("must be a list of integers", where)
    return tuple(_integer(x, f"{where}[{n}]") for n, x in enumerate(values))


@dataclass(frozen=True)
class _FlatMatrix:
    """A complex matrix read by :func:`_read_flat_w`: its JSON numbers in
    file order (re, im of each entry, row by row) and its shape."""

    values: list
    rows: int
    cols: int


def _complex_matrix(data, where: str) -> np.ndarray:
    """Nested rows of [re, im] pairs, or a :class:`_FlatMatrix`, as a complex
    matrix.

    The structure is checked first, then that every entry is a JSON number
    (not a bool, a string or null), so the values are read in one flat pass
    with no shape discovery; an integer too large for a float raises
    OverflowError, which the scenario parser reports against the backend.
    An empty matrix or row fails a type check, which then sees no list.

    A real or imaginary part above :data:`matrices.MAX_ENTRY` in magnitude,
    infinity included, is refused with the matrix's location; the bound says
    why no later check can overflow. NaN passes, to be refused as non-finite
    later.
    """
    if isinstance(data, _FlatMatrix):
        rows, cols, values = data.rows, data.cols, data.values
    else:
        if not (
            isinstance(data, list)
            and set(map(type, data)) == {list}
            and len(set(map(len, data))) == 1
            and set(map(type, chain.from_iterable(data))) == {list}
            and set(map(len, chain.from_iterable(data))) == {2}
        ):
            raise ValidationError(
                "complex matrices are a nonempty list of equal-length rows of [re, im] pairs",
                where,
            )
        rows, cols = len(data), len(data[0])
        values = list(chain.from_iterable(chain.from_iterable(data)))
        if not set(map(type, values)) <= {int, float}:
            for x in values:
                _number(x, where)
    arr = np.fromiter(values, float, count=rows * cols * 2).reshape(rows, cols, 2)
    if (np.abs(arr) > MAX_ENTRY).any():
        raise ValidationError(f"entries must be at most {MAX_ENTRY:g} in magnitude", where)
    return arr[..., 0] + 1j * arr[..., 1]


def complex_matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _prior_entry(x, where: str):
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"bad rational {x!r}: {e}", where) from None
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValidationError(f"prior entries are numbers or 'a/b' strings, got {x!r}", where)
    return Fraction(x) if isinstance(x, int) else float(x)


def _state(data, where: str, max_dim: int) -> DensityMatrix:
    """A state matrix, or ``{"maximally_mixed": d}`` with 1 <= d <= ``max_dim``,
    the largest input dimension of the scenario's instruments; d is checked
    before the d x d matrix is built."""
    if isinstance(data, dict) and "maximally_mixed" in data:
        d = _integer(data["maximally_mixed"], f"{where}.maximally_mixed")
        if not 1 <= d <= max_dim:
            raise ValidationError(
                f"must be between 1 and {max_dim}, the largest instrument input dimension; "
                f"got {d}",
                f"{where}.maximally_mixed",
            )
        return DensityMatrix.maximally_mixed(d)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    return DensityMatrix(_complex_matrix(data, where))


def _instrument(data, where: str) -> Instrument:
    if not isinstance(data, list) or not data:
        raise ValidationError("an instrument is a nonempty list of branches", where)
    branches = []
    for b, branch in enumerate(data):
        if not isinstance(branch, list) or not branch:
            raise ValidationError(
                "a branch is a nonempty list of Kraus matrices", f"{where}[{b}]"
            )
        branches.append(
            tuple(_complex_matrix(k, f"{where}[{b}][{m}]") for m, k in enumerate(branch))
        )
    try:
        return Instrument(tuple(branches))
    except AgreeLabError as e:
        raise ValidationError(str(e), where) from e


@dataclass(frozen=True)
class Scenario:
    """A parsed, validated scenario ready to run.

    ``source`` is what the backend's registry entry parsed: the raw table
    and its outcome space, a ``ClassicalModel``, a ``QuantumScenario``, or
    a process matrix with its three instruments.
    """

    scenario_id: str
    backend: str
    event: Event
    tol: float
    seed: int
    source: object

    def compute_joint(self) -> JointDistribution:
        """The joint table, built at the scenario's tolerance."""
        return BACKENDS[self.backend].joint(self.source, self.tol)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario JSON, locating errors by line or field.

    No table is built here: ``Scenario.compute_joint`` builds it, at the
    tolerance the verdict runs at.
    """
    # The decoded JSON is an acyclic tree, so a cyclic collection during the
    # parse frees nothing and only re-walks its lists (tens of thousands for
    # a large explicit W). The tree is freed by reference counting when
    # _parse returns, before the collector's state is restored.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text)
    finally:
        if enabled:
            gc.enable()


# The top-level "w" written compactly: its value opens with "[[[".
_COMPACT_W = re.compile(r'"w"\s*:\s*(?=\[\[\[)')
# JSON whitespace deleted and the bytes of JSON numbers marked as "0", so
# that a number beside a bracket is seen, and then deleted with the marks.
_MARK_NUMBERS = bytes.maketrans(b"123456789+-.eE", b"0" * 14)
_WHITESPACE = b" \t\n\r"


def _number_beside_bracket(marked: bytes) -> bool:
    """Whether a number mark in ``marked`` follows a ``]`` or precedes a
    ``[``: one vectorized pass, where two substring searches of a literal
    that is half marks would each take several times as long."""
    a = np.frombuffer(marked, np.uint8)
    number = a == ord("0")
    return bool(
        (number[1:] & (a[:-1] == ord("]"))).any() or (number[:-1] & (a[1:] == ord("["))).any()
    )


def _read_flat_w(text: str) -> dict | None:
    """The scenario object of ``text`` with its top-level ``"w"`` read as a
    :class:`_FlatMatrix`, or None to leave the whole text to ``json.loads``.

    The literal after ``"w":`` up to the first ``]]]`` is taken when its
    bytes, less number characters and whitespace, are exactly the brackets
    and commas of a rows x cols matrix of [re, im] pairs, and no number
    character follows a ``]`` or precedes a ``[``, so that every number
    character sits in a slot. Its numbers are then decoded in one
    ``json.loads`` of the literal without brackets: each slot must hold
    one JSON number, read by the same scanner and the same ``float`` as in
    the nested parse, so the bits are the same. The rest of
    the text is parsed with the literal replaced by an integer that occurs
    nowhere else in the text (JSON numbers have no escapes), which must
    come back as the top-level ``"w"``. Any other input returns None: an
    indented or nested ``"w"``, a duplicate one, an entry that is not a
    number, or any JSON error; the nested parse then reads it, and reports
    what is wrong, exactly as it always has.
    """
    m = _COMPACT_W.search(text) if isinstance(text, str) else None
    if m is None:
        return None
    start = m.end()
    end = text.find("]]]", start) + 3
    literal = text[start:end]
    if end < 3 or not literal.isascii():
        return None
    raw = literal.encode()
    marked = raw.translate(_MARK_NUMBERS, _WHITESPACE)
    if _number_beside_bracket(marked):
        return None
    skeleton = marked.translate(None, b"0")
    pairs = skeleton.count(b"[,]")
    cols = skeleton.count(b"[,]", 0, skeleton.find(b"]]") + 2)
    if cols == 0 or pairs % cols:
        return None
    rows = pairs // cols
    row = b"[" + b",".join([b"[,]"] * cols) + b"]"
    if skeleton != b"[" + b",".join([row] * rows) + b"]":
        return None
    head, tail = text[:start], text[end:]
    placeholder = "-9007199254740993"
    while placeholder in head or placeholder in tail:
        placeholder += "7"
    try:
        values = json.loads(b"[" + raw.translate(None, b"[]") + b"]")
        payload = json.loads(head + placeholder + tail)
    except (ValueError, RecursionError):
        return None
    if not (
        isinstance(payload, dict)
        and type(payload.get("w")) is int
        and payload["w"] == int(placeholder)
    ):
        return None
    payload["w"] = _FlatMatrix(values, rows, cols)
    return payload


def _parse(text: str) -> Scenario:
    payload = _read_flat_w(text)
    if payload is None:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(payload, dict):
        raise ParseError("scenario must be a JSON object")
    backend = _require(payload, "backend", "")
    if not (isinstance(backend, str) and backend in BACKENDS):
        raise ValidationError(
            f"unknown backend {backend!r}, expected one of {tuple(BACKENDS)}", "backend"
        )
    tol = _number(payload.get("tolerance", DEFAULT_TOL), "tolerance")
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"must be finite and positive, got {tol}", "tolerance")
    seed = _integer(payload.get("seed", 0), "seed")
    try:
        source, event = BACKENDS[backend].parse(payload)
    except (ValidationError, ParseError):
        raise
    except AgreeLabError as e:
        raise ValidationError(str(e), backend) from e
    except (TypeError, ValueError, OverflowError) as e:
        # a malformed scalar, such as a string where a number belongs
        raise ValidationError(str(e), backend) from None
    return Scenario(str(payload.get("id", "scenario")), backend, event, tol, seed, source)


def _event_from(payload: dict, space: OutcomeSpace) -> Event:
    members = _integers(_require(payload, "event", ""), "event")
    try:
        return Event(space, frozenset(members))
    except AgreeLabError as e:
        raise ValidationError(str(e), "event") from e


def _parse_table(payload: dict) -> tuple[tuple[np.ndarray, OutcomeSpace], Event]:
    sizes = _integers(_require(payload, "sizes", ""), "sizes")
    if len(sizes) != 3:
        raise ValidationError("sizes must be the three axis sizes [|I|, |J|, |K|]", "sizes")
    labels = payload.get("labels", {})
    if not isinstance(labels, dict):
        raise ValidationError("labels must map axis names to label lists", "labels")
    try:
        space = OutcomeSpace(
            *sizes,
            labels_i=tuple(labels["I"]) if "I" in labels else None,
            labels_j=tuple(labels["J"]) if "J" in labels else None,
            labels_k=tuple(labels["K"]) if "K" in labels else None,
        )
    except AgreeLabError as e:
        raise ValidationError(str(e), "labels") from e
    flat = _require(payload, "p", "")
    expected = space.size_i * space.size_j * space.size_k
    if not isinstance(flat, list) or len(flat) != expected:
        raise ValidationError(f"p must be a flat row-major list of {expected} reals", "p")
    table = _numbers(flat, "p").reshape(space.sizes)
    return (table, space), _event_from(payload, space)


def _parse_classical(payload: dict) -> tuple[ClassicalModel, Event]:
    n = _integer(_require(payload, "num_states", ""), "num_states")
    raw_prior = _require(payload, "prior", "")
    if not isinstance(raw_prior, list) or len(raw_prior) != n:
        raise ValidationError(f"prior must list {n} entries", "prior")
    prior = tuple(_prior_entry(x, f"prior[{w}]") for w, x in enumerate(raw_prior))
    if not all(isinstance(x, Fraction) for x in prior):
        prior = tuple(float(x) for x in prior)
    model = ClassicalModel(
        prior=prior,
        part_a=_integers(_require(payload, "partition_a", ""), "partition_a"),
        part_b=_integers(_require(payload, "partition_b", ""), "partition_b"),
        part_e=_integers(_require(payload, "partition_e", ""), "partition_e"),
        event_cells=frozenset(_integers(_require(payload, "event", ""), "event")),
    )
    return model, model.event


def _instruments(payload: dict) -> tuple[tuple[Instrument, Instrument, Instrument], OutcomeSpace]:
    """The instruments of labs A, B and E, and the outcome space of their branches."""
    raw = _require(payload, "instruments", "")
    instruments = tuple(
        _instrument(_require(raw, lab, "instruments"), f"instruments.{lab}") for lab in LABS
    )
    return instruments, OutcomeSpace(*(instr.n_branches for instr in instruments))


def _parse_quantum(payload: dict) -> tuple[QuantumScenario, Event]:
    if "preset" in payload:
        preset = payload["preset"]
        name = _require(preset, "name", "preset")
        if name != "block_rotation":
            raise ValidationError(f"unknown preset {name!r}", "preset.name")
        # the preset's instruments are four dimensional
        state = _state(preset["state"], "preset.state", 4) if "state" in preset else None
        theta, phi, q, r = (
            _number(_require(preset, key, "preset"), f"preset.{key}")
            for key in ("theta", "phi", "q", "r")
        )
        qs = block_rotation_scenario(theta, phi, q, r, state)
        if "event" in payload:
            qs = replace(qs, event=_event_from(payload, qs.space))
        return qs, qs.event
    instruments, space = _instruments(payload)
    max_dim = max(instr.dim_in for instr in instruments)
    state = _state(_require(payload, "state", ""), "state", max_dim)
    event = _event_from(payload, space)
    qs = QuantumScenario(state, *instruments, order=str(payload.get("order", "ABE")), event=event)
    return qs, event


def _parse_process(payload: dict) -> tuple[tuple[ProcessMatrix, tuple], Event]:
    instruments, space = _instruments(payload)
    if "w" in payload:
        raw_dims = _require(payload, "lab_dims", "")
        lab_dims = tuple(
            _integers(_require(raw_dims, lab, "lab_dims"), f"lab_dims.{lab}") for lab in LABS
        )
        if any(len(pair) != 2 for pair in lab_dims):
            raise ValidationError("expected [dim_in, dim_out] for each lab", "lab_dims")
        check_dense_budget(lab_dims)
        w = ProcessMatrix(_complex_matrix(payload["w"], "w"), lab_dims)
    elif "construction" in payload:
        cons = payload["construction"]
        kind = _require(cons, "kind", "construction")
        max_dim = max(instr.dim_in for instr in instruments)
        state = _state(_require(cons, "state", "construction"), "construction.state", max_dim)
        if kind == "definite_order":
            order = tuple(_require(cons, "order", "construction"))
            w = embed_definite_order(state, order)
        elif kind == "mixture":
            comps = _require(cons, "components", "construction")
            orders, weights = [], []
            for n, c in enumerate(comps):
                at = f"construction.components[{n}]"
                orders.append(tuple(_require(c, "order", at)))
                weights.append(_number(_require(c, "weight", at), f"{at}.weight"))
            w = mix_processes([embed_definite_order(state, o) for o in orders], weights)
        else:
            raise ValidationError(f"unknown construction kind {kind!r}", "construction.kind")
    else:
        raise ValidationError("process scenarios need 'w' or 'construction'", "process")
    return (w, instruments), _event_from(payload, space)


def _draw_table(rng: np.random.Generator, max_dim: int):
    p, event = random_joint_table(rng, max_size=max_dim, structured_zeros=rng.random() < 0.3)
    return (p.table, p.space), event


def _draw_classical(rng: np.random.Generator, max_dim: int):
    model = random_classical_model(rng, max_states=2 * max_dim, exact=False)
    return model, model.event


def _draw_quantum(rng: np.random.Generator, max_dim: int):
    qs = random_quantum_scenario(rng, max_dim=max_dim)
    return qs, qs.event


def _draw_process(rng: np.random.Generator, max_dim: int):
    w, instruments, event, _ = random_process_setup(rng, max_dim=max_dim)
    return (w, instruments), event


@dataclass(frozen=True)
class Backend:
    """One backend: how a scenario file's payload is read into a source and
    its event, how the fuzz draws a random one, and how a source becomes its
    joint table at the tolerance the verdict runs at."""

    parse: Callable[[dict], tuple[object, Event]]
    draw: Callable[[np.random.Generator, int], tuple[object, Event]]
    joint: Callable[[object, float], JointDistribution]


# Each joint builder looks its table function up in this module at call time,
# so a wrapper installed on this module's binding sees every table built.
BACKENDS: dict[str, Backend] = {
    "table": Backend(_parse_table, _draw_table, lambda src, tol: validate_joint(*src, tol)),
    "classical": Backend(
        _parse_classical, _draw_classical, lambda m, tol: embed_classical(m, tol)[0].to_float()
    ),
    "quantum": Backend(_parse_quantum, _draw_quantum, lambda qs, tol: sequential_joint(qs, tol)),
    "process": Backend(
        _parse_process, _draw_process, lambda src, tol: process_joint(src[0], *src[1], tol=tol)
    ),
}


@dataclass(frozen=True)
class RunReport:
    """Everything computed for one scenario.

    ``duration`` is informational only: it is excluded from equality and
    from the machine-readable record stream so identical runs emit
    identical bytes.
    """

    scenario_id: str
    backend: str
    sizes: tuple[int, int, int]
    event: tuple[int, ...]
    q_a: tuple[float | None, ...]
    q_b: tuple[float | None, ...]
    reports: tuple[CKReport, ...]
    violation_count: int
    singular_ok: bool
    joint: tuple[float, ...] | None = None
    duration: float = field(default=0.0, compare=False)


def run_scenario(s: Scenario, include_joint: bool = False) -> RunReport:
    """Compute the joint, sweep every attained posterior pair, and report."""
    start = time.perf_counter()
    joint = s.compute_joint()
    event = Event(joint.space, s.event.members)
    result = verify_agreement(joint, event, s.tol)
    q_a, q_b = (
        tuple([None if q is None else float(q) for q in posteriors])
        for posteriors in result.posteriors
    )
    return RunReport(
        scenario_id=s.scenario_id,
        backend=s.backend,
        sizes=joint.space.sizes,
        event=event.sorted_members,
        q_a=q_a,
        q_b=q_b,
        reports=tuple(result),
        violation_count=len(result.violating()),
        singular_ok=result.singular_ok,
        joint=tuple(float(x) for x in joint.flat()) if include_joint else None,
        duration=time.perf_counter() - start,
    )
