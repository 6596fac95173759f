"""Per-layer span tracing, installed from outside the library.

The tracer replaces public agreelab functions at the module bindings
through which other modules, or the benchmark itself, call them, so no
library code changes and calls a module makes to its own helpers stay
untraced. Every wrapped call records a span (layer, start, end, parent
span, verdict) and adds its self time -- its duration minus the time its
child spans cover -- to its layer. Spans are kept in memory, up to a cap,
and written out when the run ends; counts and self times cover every call.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path


def _count_sweep(tracer, args, result):
    tracer.counts["agreement.closures"] += len(result)
    tracer.counts["agreement.closure_steps"] += sum(r.steps for r in result)
    tracer.counts["agreement.closures_held"] += sum(1 for r in result if r.ck_holds)


def _count_protocol(tracer, args, result):
    tracer.counts["agreement.protocol_rounds"] += result.n_rounds


def _count_parse(tracer, args, result):
    tracer.counts["scenario.bytes_parsed"] += len(args[0].encode())


def _count_emit(tracer, args, result):
    tracer.counts["report.bytes"] += len(result.encode())


def _record_w_dim(tracer, args, result):
    tracer.w_dims.append(result[0].total_dim)


# (layer, defining module, attribute, modules whose binding is wrapped, counter)
# A binding is wrapped in the defining module only where the function is
# reached through that module's attribute: a call from the benchmark, a
# function-local import, or (search.random_process_setup) the module's own
# trial loop. ck_closure is wrapped only in cli, so the closures a sweep
# runs internally are not counted as point queries.
HOOKS = (
    ("cli.main", "cli", "main", ("cli",), None),
    ("search.fuzz", "search", "fuzz_search", ("search", "cli"), None),
    ("randomgen.scenario", "randomgen", "random_quantum_scenario", ("search",), None),
    ("search.process_setup", "search", "random_process_setup", ("search",), _record_w_dim),
    ("quantum.sequential_joint", "quantum", "sequential_joint", ("search", "scenario"), None),
    ("process.process_joint", "process", "process_joint", ("search", "scenario"), None),
    ("classical.embed", "classical", "embed_classical", ("scenario",), None),
    (
        "joint.validate",
        "joint",
        "validate_joint",
        ("joint", "quantum", "process", "classical", "randomgen", "scenario"),
        None,
    ),
    ("joint.posteriors", "joint", "posterior_alice", ("joint",), None),
    ("joint.posteriors", "joint", "posterior_bob", ("joint",), None),
    (
        "agreement.sweep",
        "agreement",
        "verify_agreement",
        ("agreement", "search", "scenario"),
        _count_sweep,
    ),
    (
        "agreement.singular",
        "agreement",
        "singular_disagreement_check",
        ("agreement", "search", "scenario"),
        None,
    ),
    ("agreement.point_query", "agreement", "is_common_knowledge", ("cli",), None),
    ("agreement.point_query", "agreement", "ck_closure", ("cli",), None),
    ("agreement.protocol", "agreement", "dynamic_protocol", ("cli",), _count_protocol),
    ("scenario.parse", "scenario", "parse_scenario", ("cli",), _count_parse),
    ("scenario.compute_joint", "scenario", "Scenario.compute_joint", ("scenario",), None),
    ("scenario.run", "scenario", "run_scenario", ("cli",), None),
    ("report.emit", "report", "emit_report", ("cli",), _count_emit),
)

LAYERS = tuple(dict.fromkeys(h[0] for h in HOOKS))

COUNTS = (
    "agreement.closures",
    "agreement.closure_steps",
    "agreement.closures_held",
    "agreement.protocol_rounds",
    "scenario.bytes_parsed",
    "report.bytes",
)

VERDICT_SPAN = "verdict"
# Spans kept for the trace file; counts and self times cover every call.
MAX_SPANS = 200_000


def _resolve(module, attr: str):
    """(object holding the attribute, attribute name) for 'f' or 'Class.f'."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span recorder for one traced pass; not thread-safe (closed loop)."""

    def __init__(self):
        self.names = [VERDICT_SPAN, *LAYERS]
        self._ids = {name: n for n, name in enumerate(self.names)}
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.counts = {name: 0 for name in COUNTS}
        self.w_dims: list[int] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._verdict = -1
        self._patched: list[tuple] = []

    def _enter(self, layer: int) -> None:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][2] if self._stack else -1
        # [layer, start, span id, parent id, time covered by children]
        self._stack.append([layer, time.perf_counter(), span_id, parent, 0.0])

    def _exit(self, ok: bool) -> None:
        end = time.perf_counter()
        layer, start, span_id, parent, child = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if not ok:
            self.errors[layer] += 1
        if self._stack:
            self._stack[-1][4] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, self._verdict, layer, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def verdict(self, verdict_id: int):
        """Root span around one verdict; library spans nest under it."""
        self._verdict = verdict_id
        self._enter(0)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._exit(ok)

    def _wrap(self, layer: int, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(layer)
            ok = False
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(self, args, result)
                ok = True
                return result
            finally:
                self._exit(ok)

        return traced

    def install(self) -> None:
        """Wrap every hooked binding; a binding the library no longer has is
        listed in ``missing`` and its layer reads zero."""
        for layer, owner_name, attr, binders, counter in HOOKS:
            owner_mod = importlib.import_module(f"agreelab.{owner_name}")
            try:
                holder, name = _resolve(owner_mod, attr)
                original = getattr(holder, name)
            except AttributeError:
                self.missing.append(f"{owner_name}.{attr}")
                continue
            wrapped = self._wrap(self._ids[layer], original, counter)
            for binder_name in binders:
                binder = importlib.import_module(f"agreelab.{binder_name}")
                try:
                    target, tname = _resolve(binder, attr)
                except AttributeError:
                    self.missing.append(f"{binder_name}.{attr}")
                    continue
                if getattr(target, tname, None) is not original:
                    self.missing.append(f"{binder_name}.{attr}")
                    continue
                setattr(target, tname, wrapped)
                self._patched.append((target, tname, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def layer_totals(self) -> dict[str, tuple[float, int, int]]:
        """layer -> (self seconds, calls, errors), the root span excluded."""
        return {
            name: (self.self_s[n], self.calls[n], self.errors[n])
            for n, name in enumerate(self.names)
            if name != VERDICT_SPAN
        }

    def write(self, path: Path) -> None:
        """Spans as JSON lines: a header, then [id, parent, verdict, layer, start, end]."""
        with open(path, "w") as out:
            header = {"layers": self.names, "kept": len(self.spans), "dropped": self.dropped}
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
