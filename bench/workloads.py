"""The benchmark's three workloads.

A workload turns a seed into rounds of verdicts. A verdict is one public
call (for sweep_dense, one fixed chain of calls) that ends in an answer the
benchmark checks. Every round of a workload has the same composition --
the same table sizes, the same process-matrix size strata, the same kinds
of scenario file -- and a run executes whole rounds, so runs at different
seeds measure the same mix of work on different inputs.

Importing this module imports agreelab; the benchmark times that import as
part of set-up.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from pathlib import Path
from typing import Callable

import numpy as np

from agreelab import agreement, cli, joint, randomgen, report, scenario, search
from agreelab.process import embed_definite_order, mix_processes
from agreelab.scenario import complex_matrix_to_json

NAMES = ("fuzz_process", "sweep_dense", "cli_scenarios")

# The acceptance fuzz runs both fuzzed backends at lab dimension up to 4.
MAX_DIM = 4


class CheckFailed(Exception):
    """A verdict returned an answer the benchmark knows to be wrong."""


@dataclass
class Verdict:
    bucket: str  # size class for the latency breakdown
    call: Callable[[], object]
    # raises CheckFailed on a wrong answer; returns the closures it swept
    check: Callable[[object], int]
    w_dim: int | None = None  # predicted process-matrix dimension


@dataclass
class Workload:
    # Latency percentile reported as verdict_tail_ms: the highest one with
    # at least ten samples beyond it at this workload's design size.
    tail_pct: float
    # Whole rounds always run; sweep_dense needs three to reach its tail.
    min_rounds: int
    next_round: Callable[[], list[Verdict]]
    digest: str = ""  # sha256 of the first round's inputs


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(name)])


def _trial_seeds(rng: np.random.Generator):
    while True:
        yield int(rng.integers(0, 2**63 - 1))


def _process_verdict(trial_seed: int, w_dim: int) -> Verdict:
    def call():
        return search.fuzz_search("process", trials=1, max_dim=MAX_DIM, seed=trial_seed)

    def check(summary) -> int:
        if summary.violation_count or summary.singular_failures:
            raise CheckFailed(
                f"process trial seed {trial_seed}: {summary.violation_count} violations, "
                f"{summary.singular_failures} singular failures"
            )
        if summary.closures_examined < 1:
            raise CheckFailed(f"process trial seed {trial_seed}: no closure examined")
        return summary.closures_examined

    return Verdict(f"W={w_dim}", call, check, w_dim)


def predict_process_trial(trial_seed: int) -> tuple[int, bool]:
    """(W dimension, is a mixture) of one process fuzz trial.

    Replays the first draws that search.random_process_setup makes from the
    trial's generator; the traced run compares the prediction with the W the
    library actually built.
    """
    rng = randomgen.trial_rng(trial_seed, 0)
    cap = MAX_DIM if rng.random() < 0.12 else min(3, MAX_DIM)
    if rng.random() < 0.6:
        c = [int(d) for d in rng.integers(2, cap + 1, size=4)]
        return c[0] * c[1] * c[1] * c[2] * c[2] * c[3], False
    d = int(rng.choice([2, 2, 3, 3, cap]))
    return d**6, True


def _process_stratum(dim: int, mixture: bool) -> str:
    if dim == 4**6 and mixture:
        return "mixture-d4"
    if dim > 1024:
        return "large"
    if dim == 3**6 and mixture:
        return "mixture-d3"
    return "small"


# Trials per round in each stratum, near their natural frequencies
# (0.8 %, 2.6 %, 23 %, 73 %). One two-order mixture at lab dimension 4 per
# round holds a 256 MB W and sets peak RSS; fixing the count per round keeps
# throughput and RSS from swinging with how many such trials a seed draws.
PROCESS_QUOTAS = {"mixture-d4": 1, "large": 3, "mixture-d3": 29, "small": 95}
PROCESS_QUOTAS_SMOKE = {"mixture-d3": 1, "small": 3}


def fuzz_process(seed: int, smoke: bool, work_dir: Path) -> Workload:
    """The acceptance fuzz over process matrices. Dense W construction and
    its contraction carry most of the time and all of the memory; agreement
    does under 5 % of the work."""
    seeds = _trial_seeds(_rng(seed, "fuzz_process"))
    quotas = PROCESS_QUOTAS_SMOKE if smoke else PROCESS_QUOTAS
    digest = hashlib.sha256()

    def next_round():
        need = dict(quotas)
        batch = []
        while any(need.values()):
            s = next(seeds)
            dim, mixture = predict_process_trial(s)
            stratum = _process_stratum(dim, mixture)
            if need.get(stratum, 0) > 0:
                need[stratum] -= 1
                batch.append((s, dim))
        digest.update(repr(batch).encode())
        return [_process_verdict(s, dim) for s, dim in batch]

    wl = Workload(90, 1, next_round)
    return _first_round(wl, digest)


# Tables per round by |I| = |J|. The median falls inside the n = 8 block and
# the 90th percentile inside the n = 24 block, so neither sits on a boundary
# between sizes; n = 40 and 32 take about 60 % of a round.
SWEEP_SIZES = {8: 20, 12: 6, 16: 3, 24: 3, 32: 1, 40: 1}
SWEEP_SIZES_SMOKE = {8: 2, 12: 1}
SWEEP_K = 3
# Distinct posteriors stay this far apart, far above the sweep's 1e-9
# tolerance, so the expected closure count is exact.
POSTERIOR_GAP = 1e-6


@dataclass(frozen=True)
class SweepTable:
    table: np.ndarray
    event: tuple[int, ...]
    const_rows: tuple[int, ...]
    const_cols: tuple[int, ...]
    q_const: float
    closures: int


def _block_sizes(total: int, parts: int, rng) -> list[int]:
    """``parts`` sizes of at least 2 summing to ``total``."""
    extra = rng.multinomial(total - 2 * parts, [1 / parts] * parts)
    return [2 + int(e) for e in extra]


def make_sweep_table(n: int, rng: np.random.Generator) -> SweepTable:
    """An n x n x 3 table of dense support blocks with distinct posteriors
    plus one constant-posterior block.

    The constant block is isolated except for a leak of about 1e-12 of its
    mass into another block, and its entries carry relative noise of 1e-12:
    common knowledge holds there only through posterior clustering and the
    certainty tolerance. Every other block is at least 2 x 2 with distinct
    posteriors, so it yields no common knowledge, and the sweep runs
    (n - c + 1)^2 closures for a constant block of size c.
    """
    c = max(2, n // 6)
    members = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    event = members[int(rng.integers(len(members)))]
    while True:
        rows = rng.permutation(n)
        cols = rng.permutation(n)
        sizes_i = [c] + _block_sizes(n - c, 3, rng)
        sizes_j = [c] + _block_sizes(n - c, 3, rng)
        t = np.zeros((n, n, SWEEP_K))
        r_const = rng.dirichlet(np.ones(SWEEP_K))
        lo_i = lo_j = 0
        blocks = []
        for b, (si, sj) in enumerate(zip(sizes_i, sizes_j)):
            bi = rows[lo_i : lo_i + si]
            bj = cols[lo_j : lo_j + sj]
            lo_i += si
            lo_j += sj
            mass = rng.exponential(1.0, size=(si, sj)) + 0.05
            if b == 0:
                noise = 1 + rng.uniform(-1e-12, 1e-12, size=(si, sj, SWEEP_K))
                cond = r_const * noise
            else:
                cond = rng.dirichlet(np.ones(SWEEP_K), size=(si, sj))
            t[np.ix_(bi, bj)] = mass[:, :, None] * cond
            blocks.append((bi, bj))
        const_i, const_j = blocks[0]
        leak_col = blocks[1][1][0]
        t[const_i[0], leak_col, 0] = 1e-12 * t[const_i[0]].sum()
        t /= t.sum()
        ev = list(event)
        m2 = t.sum(axis=2)
        q_rows = t[:, :, ev].sum(axis=(1, 2)) / m2.sum(axis=1)
        q_cols = t[:, :, ev].sum(axis=(0, 2)) / m2.sum(axis=0)
        q_const = float(r_const[ev].sum())
        ok = True
        for q, const in ((q_rows, const_i), (q_cols, const_j)):
            others = np.sort(np.delete(q, const))
            if np.any(np.diff(others) < POSTERIOR_GAP):
                ok = False
            if np.any(np.abs(others - q_const) < POSTERIOR_GAP):
                ok = False
        if ok:
            distinct = n - c + 1
            return SweepTable(
                t,
                event,
                tuple(sorted(int(x) for x in const_i)),
                tuple(sorted(int(x) for x in const_j)),
                q_const,
                distinct * distinct,
            )


def _sweep_verdict(spec: SweepTable) -> Verdict:
    n = spec.table.shape[0]
    space = joint.OutcomeSpace(n, n, SWEEP_K)
    event = joint.Event(space, frozenset(spec.event))

    def call():
        p = joint.validate_joint(spec.table, space)
        reports = agreement.verify_agreement(p, event)
        return reports, agreement.singular_disagreement_check(p, event)

    def check(result) -> int:
        reports, singular_ok = result
        if not singular_ok:
            raise CheckFailed(f"n={n}: singular disagreement reported")
        if agreement.violations(reports):
            raise CheckFailed(f"n={n}: agreement violation reported")
        if len(reports) != spec.closures:
            raise CheckFailed(f"n={n}: {len(reports)} closures, expected {spec.closures}")
        held = [r for r in reports if r.ck_holds]
        if len(held) != 1:
            raise CheckFailed(f"n={n}: common knowledge held {len(held)} times, expected once")
        r = held[0]
        if (r.a_star, r.b_star) != (spec.const_rows, spec.const_cols):
            raise CheckFailed(f"n={n}: fixed point {r.a_star} x {r.b_star} is not the constant block")
        if not (r.agrees and abs(r.q_a - spec.q_const) <= 1e-9):
            raise CheckFailed(f"n={n}: constant block posterior {r.q_a}, expected {spec.q_const}")
        return len(reports)

    return Verdict(f"n={n}", call, check)


def sweep_dense(seed: int, smoke: bool, work_dir: Path) -> Workload:
    """Tables built by the benchmark, no backend: validation, the closure
    sweep over about n^2 posterior pairs and the singular check are all of
    the work."""
    rng = _rng(seed, "sweep_dense")
    sizes = SWEEP_SIZES_SMOKE if smoke else SWEEP_SIZES
    digest = hashlib.sha256()

    def next_round():
        order = [n for n, reps in sizes.items() for _ in range(reps)]
        specs = [make_sweep_table(n, rng) for n in rng.permutation(order)]
        for spec in specs:
            digest.update(spec.table.tobytes())
        return [_sweep_verdict(spec) for spec in specs]

    wl = Workload(90, 1 if smoke else 3, next_round)
    return _first_round(wl, digest)


# ---------------------------------------------------------------- CLI files


def _instrument_json(instr) -> list:
    return [[complex_matrix_to_json(k) for k in branch] for branch in instr.branches]


def _table_file(rng) -> tuple[dict, np.ndarray]:
    p, event = randomgen.random_joint_table(rng, max_size=4, structured_zeros=rng.random() < 0.3)
    payload = {
        "backend": "table",
        "sizes": list(p.space.sizes),
        "p": [float(x) for x in p.table.reshape(-1)],
        "event": list(event.sorted_members),
    }
    return payload, np.asarray(p.table, dtype=float)


def _classical_file(rng) -> tuple[dict, np.ndarray]:
    model = randomgen.random_classical_model(rng, max_states=8, exact=True)
    sizes = (max(model.part_a) + 1, max(model.part_b) + 1, max(model.part_e) + 1)
    exact = np.full(sizes, Fraction(0), dtype=object)
    for w, prior in enumerate(model.prior):
        exact[model.part_a[w], model.part_b[w], model.part_e[w]] += prior
    payload = {
        "backend": "classical",
        "num_states": len(model.prior),
        "prior": [f"{x.numerator}/{x.denominator}" for x in model.prior],
        "partition_a": list(model.part_a),
        "partition_b": list(model.part_b),
        "partition_e": list(model.part_e),
        "event": sorted(model.event_cells),
    }
    return payload, exact.astype(float)


def _quantum_file(rng) -> dict:
    qs = randomgen.random_quantum_scenario(rng, max_dim=3)
    return {
        "backend": "quantum",
        "state": complex_matrix_to_json(qs.state.matrix),
        "instruments": {
            "A": _instrument_json(qs.instr_a),
            "B": _instrument_json(qs.instr_b),
            "E": _instrument_json(qs.instr_e),
        },
        "order": qs.order,
        "event": list(qs.event.sorted_members),
    }


def _preset_file(rng) -> dict:
    q = float(rng.uniform(0.05, 0.45))
    r = float(rng.uniform(0.02, 1 - 2 * q - 0.02))
    return {
        "backend": "quantum",
        "preset": {
            "name": "block_rotation",
            "theta": float(rng.uniform(0.1, np.pi - 0.1)),
            "phi": float(rng.uniform(0.1, np.pi - 0.1)),
            "q": q,
            "r": r,
        },
        "event": [0],
    }


def _process_instruments(lab_dims, rng) -> dict:
    return {
        lab: _instrument_json(randomgen.random_instrument(d_in, d_out, rng))
        for lab, (d_in, d_out) in zip("ABE", lab_dims)
    }


def _order(rng) -> list[str]:
    return [str(x) for x in rng.permutation(["A", "B", "E"])]


def _construction_file(rng, d: int, mixture: bool) -> dict:
    state = {"matrix": complex_matrix_to_json(randomgen.random_density(d, rng).matrix)}
    if mixture:
        first = _order(rng)
        second = _order(rng)
        while second == first:
            second = _order(rng)
        lam = float(rng.uniform(0.1, 0.9))
        construction = {
            "kind": "mixture",
            "state": state,
            "components": [
                {"order": first, "weight": lam},
                {"order": second, "weight": 1.0 - lam},
            ],
        }
    else:
        construction = {"kind": "definite_order", "order": _order(rng), "state": state}
    return {
        "backend": "process",
        "construction": construction,
        "instruments": _process_instruments(((d, d),) * 3, rng),
        "event": [0],
    }


def _explicit_w_file(rng, chain: tuple[int, int, int, int] | None, mixture_d: int | None) -> dict:
    """A process file carrying its W matrix; ``chain`` gives the wire
    dimensions of a definite order A -> B -> E, ``mixture_d`` a two-order
    mixture at that lab dimension."""
    if chain is not None:
        lab_dims = ((chain[0], chain[1]), (chain[1], chain[2]), (chain[2], chain[3]))
        rho = randomgen.random_density(chain[0], rng)
        w = embed_definite_order(rho, ("A", "B", "E"), lab_dims)
    else:
        lab_dims = ((mixture_d, mixture_d),) * 3
        rho = randomgen.random_density(mixture_d, rng)
        lam = float(rng.uniform(0.1, 0.9))
        w = mix_processes(
            [embed_definite_order(rho, ("A", "B", "E")), embed_definite_order(rho, ("B", "A", "E"))],
            [lam, 1.0 - lam],
        )
    return {
        "backend": "process",
        "lab_dims": {lab: list(dims) for lab, dims in zip("ABE", lab_dims)},
        "w": complex_matrix_to_json(w.matrix),
        "instruments": _process_instruments(lab_dims, rng),
        "event": [0],
    }


def _posteriors(table: np.ndarray, event, tol: float = joint.DEFAULT_TOL):
    """Posterior rows computed here, independently of the library."""
    ev = list(event)
    rows = []
    for axis in (0, 1):
        other = 1 - axis
        mass = table.sum(axis=(other, 2))
        hit = table[:, :, ev].sum(axis=(other, 2)) if ev else np.zeros_like(mass)
        rows.append([float(h / m) if m > tol else None for h, m in zip(hit, mass)])
    return rows


def _rows_match(got, want) -> bool:
    return len(got) == len(want) and all(
        (g is None and w is None) or (g is not None and w is not None and abs(g - w) <= 1e-12)
        for g, w in zip(got, want)
    )


@dataclass
class ScenarioFile:
    path: Path
    kind: str
    pair: tuple[int, int]
    expected_rows: list | None  # posterior rows known from the construction
    held: set | None = None  # (i, j) pairs certified by the latest verify


_CK_LINE = re.compile(r"pair \((\d+), (\d+)\): common knowledge = (True|False)")
_FINAL_LINE = re.compile(r"final: alice (\S+) bob (\S+)")


def _cli_call(argv: list[str]):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def _require_ok(result, what: str) -> str:
    code, out, err = result
    if code != 0:
        raise CheckFailed(f"{what}: exit code {code}: {err.strip()[:200]}")
    return out


def _cli_verdicts(f: ScenarioFile) -> list[Verdict]:
    path = str(f.path)
    i, j = f.pair
    pair = [str(i), str(j)]

    def check_verify(result) -> int:
        f.held = None
        out = _require_ok(result, f"verify {f.path.name}")
        rep = report.parse_records(out)
        if rep.violation_count or agreement.violations(rep.reports) or not rep.singular_ok:
            raise CheckFailed(f"verify {f.path.name}: violation or singular failure reported")
        if f.expected_rows is not None and not (
            _rows_match(rep.q_a, f.expected_rows[0]) and _rows_match(rep.q_b, f.expected_rows[1])
        ):
            raise CheckFailed(f"verify {f.path.name}: posterior rows differ from the table's")
        f.held = {
            (a, b) for r in rep.reports if r.ck_holds for a in r.a_star for b in r.b_star
        }
        return len(rep.reports)

    def check_ck(result) -> int:
        out = _require_ok(result, f"ck {f.path.name}")
        m = _CK_LINE.fullmatch(out.strip())
        if m is None or (int(m[1]), int(m[2])) != f.pair:
            raise CheckFailed(f"ck {f.path.name}: unexpected output {out[:200]!r}")
        if f.held is None:
            raise CheckFailed(f"ck {f.path.name}: no verified sweep to compare with")
        if (m[3] == "True") != (f.pair in f.held):
            raise CheckFailed(f"ck {f.path.name}: point query disagrees with the sweep")
        return 0

    def check_protocol(result) -> int:
        out = _require_ok(result, f"protocol {f.path.name}")
        lines = out.strip().splitlines()
        m = _FINAL_LINE.fullmatch(lines[-1]) if lines else None
        if m is None or not all(line.startswith("round ") for line in lines[:-1]) or len(lines) < 2:
            raise CheckFailed(f"protocol {f.path.name}: unexpected output {out[:200]!r}")
        if abs(float(m[1]) - float(m[2])) > 1e-8:
            raise CheckFailed(f"protocol {f.path.name}: final announcements {m[1]} != {m[2]}")
        return 0

    return [
        Verdict(f"verify:{f.kind}", _cli_call(["verify", path, "--format", "records"]), check_verify),
        Verdict(f"ck:{f.kind}", _cli_call(["ck", path, "--pair", *pair]), check_ck),
        Verdict(f"protocol:{f.kind}", _cli_call(["protocol", path, "--pair", *pair]), check_protocol),
    ]


def _pick_pair(text: str, rng) -> tuple[int, int]:
    """A random outcome pair with clearly positive mass."""
    m2 = np.asarray(scenario.parse_scenario(text).compute_joint().table, dtype=float).sum(axis=2)
    candidates = np.argwhere(m2 > 1e-3)
    i, j = candidates[int(rng.integers(len(candidates)))]
    return int(i), int(j)


SWITCH_FIXTURE = Path(__file__).resolve().parents[1] / "scenarios" / "process_switch.json"


def _scenario_files(rng, smoke: bool):
    """(kind, payload, posterior rows or None) for every generated file."""
    if smoke:
        yield ("table", *_table_file(rng))
        yield ("process-w", json.loads(SWITCH_FIXTURE.read_text()), None)
        return
    for _ in range(4):
        yield ("table", *_table_file(rng))
    for _ in range(4):
        yield ("classical", *_classical_file(rng))
    for _ in range(4):
        yield ("quantum", _quantum_file(rng), None)
    for _ in range(2):
        yield ("quantum-preset", _preset_file(rng), None)
    yield ("process-construction", _construction_file(rng, 2, mixture=False), None)
    yield ("process-construction", _construction_file(rng, 3, mixture=False), None)
    yield ("process-construction", _construction_file(rng, 3, mixture=True), None)
    yield ("process-w", _explicit_w_file(rng, None, 2), None)
    for _ in range(2):
        yield ("process-w", _explicit_w_file(rng, (3, 2, 3, 2), None), None)
    yield ("process-w", json.loads(SWITCH_FIXTURE.read_text()), None)


# Quantum fuzz requests per round, through `agreelab search`. They carry
# the acceptance fuzz's quantum path (random scenarios, the sequential
# joint) at a handful of trials each.
SEARCH_REQUESTS = 6
SEARCH_TRIALS = 8


def _search_verdict(trial_seed: int) -> Verdict:
    argv = ["search", "--backend", "quantum", "--trials", str(SEARCH_TRIALS)]
    argv += ["--max-dim", str(MAX_DIM), "--seed", str(trial_seed), "--format", "records"]

    def check(result) -> int:
        out = _require_ok(result, f"search seed {trial_seed}")
        record = json.loads(out)
        if (record["record"], record["backend"], record["trials"]) != (
            "search",
            "quantum",
            SEARCH_TRIALS,
        ):
            raise CheckFailed(f"search seed {trial_seed}: unexpected record {out[:200]!r}")
        if record["violations"] or record["singular_failures"]:
            raise CheckFailed(f"search seed {trial_seed}: violation or singular failure reported")
        if record["closures"] < SEARCH_TRIALS:
            raise CheckFailed(f"search seed {trial_seed}: {record['closures']} closures")
        return record["closures"]

    return Verdict("search:quantum", _cli_call(argv), check)


def cli_scenarios(seed: int, smoke: bool, work_dir: Path) -> Workload:
    """Scenario files of all four backends and quantum fuzz requests through
    in-process CLI calls: the only workload that parses files and emits
    reports, and the one that asks single-pair questions (ck, protocol)
    besides the full sweep."""
    rng = _rng(seed, "cli_scenarios")
    digest = hashlib.sha256()
    files = []
    for n, (kind, payload, table) in enumerate(_scenario_files(rng, smoke)):
        payload["id"] = f"{kind}-{n}"
        text = json.dumps(payload)
        digest.update(text.encode())
        path = work_dir / f"{n:02d}-{kind}.json"
        path.write_text(text)
        rows = _posteriors(table, payload["event"]) if table is not None else None
        files.append(ScenarioFile(path, kind, _pick_pair(text, rng), rows))

    seeds = _trial_seeds(rng)
    searches = 1 if smoke else SEARCH_REQUESTS

    def next_round():
        batch = [next(seeds) for _ in range(searches)]
        digest.update(repr(batch).encode())
        units = [_cli_verdicts(f) for f in files] + [[_search_verdict(s)] for s in batch]
        return [v for k in rng.permutation(len(units)) for v in units[k]]

    wl = Workload(95, 1, next_round)
    return _first_round(wl, digest)


def _first_round(wl: Workload, digest) -> Workload:
    """Build the first round during set-up and fix the inputs digest."""
    first = wl.next_round()
    wl.digest = digest.hexdigest()
    rounds = count()
    later = wl.next_round

    def next_round():
        return first if next(rounds) == 0 else later()

    wl.next_round = next_round
    return wl


BUILDERS = {
    "fuzz_process": fuzz_process,
    "sweep_dense": sweep_dense,
    "cli_scenarios": cli_scenarios,
}


def build(name: str, seed: int, smoke: bool, work_dir: Path) -> Workload:
    return BUILDERS[name](seed, smoke, work_dir)
