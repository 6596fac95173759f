"""Command-line interface.

Exit codes: 0 all good, 2 parse error, 3 validation error (including bad
parameters), 4 agreement-theorem violation (never expected for valid
inputs), 1 unexpected internal error.

:func:`main` parses with one parser per process, built by
:func:`build_parser` on the first call and reused after: building it costs
about as much as a small-table verdict. Reuse is safe because each
``parse_args`` call returns a new namespace, and the ``_cmd_*`` handlers
look up the library functions they call at call time.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .agreement import ck_closure, dynamic_protocol, is_common_knowledge
from .errors import AgreeLabError, ParseError, ValidationError
from .joint import DEFAULT_TOL, Event, axis_posteriors
from .quantum import block_rotation_scenario, closed_form_posteriors, sequential_joint
from .report import emit_report, emit_search_summary
from .scenario import BACKENDS, parse_scenario, run_scenario
from .search import fuzz_search

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_VIOLATION = 4


def _tol(override: float | None, default: float) -> float:
    """The tolerance a subcommand runs at: ``--tol`` when given, else
    ``default``. It must be finite and nonnegative; zero selects exact set
    logic, which only an exact table supports."""
    tol = default if override is None else override
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"must be finite and nonnegative, got {tol}", "tol")
    return tol


def _load_with_tol(path: str, override: float | None):
    """Load a scenario and set its tolerance. Every backend yields a float
    table, so zero is refused along with the values ``_tol`` refuses. The
    file is read as UTF-8, the encoding of JSON text (RFC 8259), whatever
    the locale."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8: {e}") from None
    s = parse_scenario(text)
    tol = _tol(override, s.tol)
    if tol == 0:
        raise ValidationError("must be positive: scenario tables are floats", "tol")
    return dataclasses.replace(s, tol=tol)


def _fmt(x) -> str:
    return f"{x:.12g}"


def _cmd_report(args) -> int:
    s = _load_with_tol(args.scenario, args.tol)
    report = run_scenario(s, include_joint=args.include_joint)
    print(emit_report(report, args.format), end="")
    return EXIT_OK


def _cmd_ck(args) -> int:
    s = _load_with_tol(args.scenario, args.tol)
    joint = s.compute_joint()
    event = Event(joint.space, s.event.members)
    if args.pair is not None:
        i, j = args.pair
        held = is_common_knowledge(joint, event, i, j, s.tol)
        print(f"pair ({i}, {j}): common knowledge = {held}")
        return EXIT_OK
    if args.qa is None or args.qb is None:
        print("ck needs either --pair I J or both --qa and --qb", file=sys.stderr)
        return EXIT_VALIDATION
    r = ck_closure(joint, event, args.qa, args.qb, s.tol)
    print(
        f"q_a={_fmt(r.q_a)} q_b={_fmt(r.q_b)} A*={list(r.a_star)} B*={list(r.b_star)} "
        f"steps={r.steps} mass_a={_fmt(r.mass_a)} mass_b={_fmt(r.mass_b)} "
        f"ck={r.ck_holds} agrees={r.agrees}"
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    worst = EXIT_OK
    for path in args.scenarios:
        report = run_scenario(_load_with_tol(path, args.tol))
        print(emit_report(report, args.format), end="")
        if report.violation_count > 0 or not report.singular_ok:
            worst = EXIT_VIOLATION
    return worst


def _cmd_protocol(args) -> int:
    s = _load_with_tol(args.scenario, args.tol)
    joint = s.compute_joint()
    event = Event(joint.space, s.event.members)
    t = dynamic_protocol(joint, event, args.pair[0], args.pair[1], tol=s.tol)
    for n, rnd in enumerate(t.rounds, start=1):
        print(
            f"round {n}: alice {_fmt(rnd.alice_announcement)} "
            f"bob {_fmt(rnd.bob_announcement)} "
            f"S_A={list(rnd.alice_consistent)} S_B={list(rnd.bob_consistent)}"
        )
    print(f"final: alice {_fmt(t.final_alice)} bob {_fmt(t.final_bob)}")
    return EXIT_OK


def _cmd_search(args) -> int:
    summary = fuzz_search(
        args.backend,
        args.trials,
        max_dim=args.max_dim,
        seed=args.seed,
        tol=_tol(args.tol, DEFAULT_TOL),
    )
    print(emit_search_summary(summary, args.format), end="")
    return EXIT_OK if summary.passed else EXIT_VIOLATION


def _cmd_block_example(args) -> int:
    scenario = block_rotation_scenario(args.theta, args.phi, args.q, args.r)
    joint = sequential_joint(scenario)
    qa_ref, qb_ref = closed_form_posteriors(args.theta, args.phi, args.q, args.r)
    qa, qb = (axis_posteriors(joint, scenario.event, axis) for axis in "IJ")
    print(f"{'outcome':>7} {'q_A pipeline':>16} {'q_A closed':>16} {'q_B pipeline':>16} {'q_B closed':>16}")
    for x in range(4):
        print(
            f"{x:>7} {_fmt(qa[x]):>16} {_fmt(qa_ref[x]):>16} "
            f"{_fmt(qb[x]):>16} {_fmt(qb_ref[x]):>16}"
        )
    worst = max(
        float(np.abs(np.array(qa) - qa_ref).max()),
        float(np.abs(np.array(qb) - qb_ref).max()),
    )
    print(f"max deviation: {_fmt(worst)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agreelab",
        description="Joint outcome tables, common-knowledge closures, and "
        "agreement verification over classical, quantum, and process backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario=True):
        if scenario:
            p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--format", choices=("table", "records"), default="table")

    p = sub.add_parser("joint", help="compute and print the joint table")
    add_common(p)
    p.set_defaults(func=_cmd_report, include_joint=True)

    p = sub.add_parser("posteriors", help="print posterior tables q_A, q_B")
    add_common(p)
    p.set_defaults(func=_cmd_report, include_joint=False)

    p = sub.add_parser("ck", help="run one closure, by posterior pair or outcome pair")
    add_common(p)
    p.add_argument("--qa", type=float, default=None)
    p.add_argument("--qb", type=float, default=None)
    p.add_argument("--pair", type=int, nargs=2, metavar=("I", "J"), default=None)
    p.set_defaults(func=_cmd_ck)

    p = sub.add_parser("verify", help="full agreement verification of scenario files")
    p.add_argument("scenarios", nargs="+", help="scenario JSON files")
    add_common(p, scenario=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("protocol", help="run the disclose-and-update protocol for a pair")
    add_common(p)
    p.add_argument("--pair", type=int, nargs=2, metavar=("I", "J"), required=True)
    p.set_defaults(func=_cmd_protocol)

    p = sub.add_parser("search", help="randomized search for theorem violations")
    p.add_argument("--backend", choices=BACKENDS, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-dim", type=int, default=4, dest="max_dim")
    p.add_argument("--seed", type=int, default=0)
    add_common(p, scenario=False)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "block-example",
        help="four-level block-rotation example: pipeline vs closed-form posteriors",
    )
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(func=_cmd_block_example)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, AgreeLabError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
