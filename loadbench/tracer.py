"""Spans and counts recorded around the program's public functions.

The tracer replaces each target (a module-level function, a method, or a
static method, named by module and attribute path) with a wrapper that
records ``(request, name, start, end, parent)``.  Nothing inside the program
changes: a target is wrapped where its caller resolves it, e.g.
``build_encoding`` as seen by ``repro.checkers.consistency``.

Spans live in memory and are written out once, by :meth:`Tracer.dump`.
Targets and stats fields that no longer exist are listed in ``missing``
(and the counts those fields feed in ``missing_counts``) so their layer
metrics read as missing rather than zero.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import re
import time
from collections import Counter

#: ``(span name, module, attribute path)``; attribute paths with a dot are
#: class attributes.  ``CALL_COUNTS`` are counted, not timed.
LIBRARY_TARGETS = [
    ("parse", "repro.api", "Spec.parse"),
    ("checkers", "repro.api", "check_consistency"),
    ("checkers", "repro.api", "_implies"),
    ("analysis.mus", "repro.api", "_diagnose"),
    ("analysis.repair", "repro.api", "minimal_repair"),
    ("encoding.build", "repro.checkers.consistency", "build_encoding"),
    ("encoding.build", "repro.analysis.diagnostics", "build_encoding"),
    ("encoding.build", "repro.analysis.repair", "build_encoding"),
    ("ilp.solve", "repro.checkers.consistency", "solve_conditional_system"),
    ("ilp.solve", "repro.analysis.diagnostics", "solve_conditional_system"),
    ("ilp.solve", "repro.analysis.repair", "solve_conditional_system"),
    ("witness.synth", "repro.checkers.consistency", "synthesize_witness"),
    ("witness.values", "repro.witness.synthesize", "assign_values"),
    ("verify.conforms", "repro.checkers.consistency", "conforms"),
    ("verify.violations", "repro.checkers.consistency", "violations"),
]
SERVICE_TARGETS = [
    ("service.handle", "repro.service.server", "CheckingServer.handle_request"),
    ("service.admit", "repro.service.registry", "SessionRegistry.session_for"),
    ("service.encode", "repro.service.protocol", "encode"),
    ("xmltree.parse", "repro.service.session", "parse_xml"),
    ("verify.conforms", "repro.service.session", "conforms"),
    ("verify.violations", "repro.service.session", "violations"),
] + [
    ("service.session", "repro.service.session", f"SpecSession.{op}")
    for op in ("check", "implies", "implies_batch", "diagnose", "repair", "validate", "describe")
]
CALL_COUNTS = [("xmltree.ext_calls", "repro.xmltree.model", "XMLTree.ext")]
CACHE_STATS = ("repro.encoding.combined", "encoding_cache_stats")

#: Solver counters read from the ``(result, stats)`` pair a solve returns.
SOLVE_FIELDS = (
    "dfs_nodes", "leaves_solved", "cuts_added", "cut_pool_hits",
    "propagation_visits", "bound_patch_solves", "assemblies",
    "exact_nodes", "exact_pivots", "lp_probe_decided",
)

_REQUEST_ID = re.compile(r'"id":\s*"?([^",}]+)')


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = {}
        self.missing: list[str] = []
        self.missing_counts: set[str] = set()
        self.request = None
        self._open = contextvars.ContextVar("loadbench_span", default=None)
        self._root: int | None = None
        self._cache_stats = None
        self._cache_before = None

    # -- requests ------------------------------------------------------------

    def begin_request(self, request_id) -> None:
        """Attribute what follows to ``request_id`` (closing the last one)."""
        self._close_request()
        self.request = str(request_id)
        self._root = None
        if self._cache_stats is not None:
            self._cache_before = self._cache_stats()

    def _close_request(self) -> None:
        if self.request is not None and self._cache_before is not None:
            after = self._cache_stats()
            bucket = self.counts.setdefault(self.request, Counter())
            for key in ("hits", "misses"):
                bucket[f"encoding.cache_{key}"] += after[key] - self._cache_before[key]
        self._cache_before = None

    def count(self, name: str, amount=1) -> None:
        self.counts.setdefault(str(self.request), Counter())[name] += amount

    # -- wrapping ------------------------------------------------------------

    def install(self, targets, call_counts=()) -> None:
        for name, module, path in targets:
            self._wrap(name, module, path, self._timed)
        for name, module, path in call_counts:
            self._wrap(name, module, path, self._counted)
        try:
            owner, attr = _resolve(*CACHE_STATS)
            self._cache_stats = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(".".join(CACHE_STATS))

    def _wrap(self, name, module, path, make) -> None:
        try:
            owner, attr = _resolve(module, path)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        static = isinstance(raw, staticmethod)
        func = raw.__func__ if static else raw
        wrapper = make(name, func)
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def _counted(self, name, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return func(*args, **kwargs)

        return wrapper

    def _timed(self, name, func):
        tracer = self
        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                if name == "service.handle" and len(args) > 1:
                    tracer.begin_request(_request_id(args[1]))
                index, token = tracer._enter(name)
                result = None
                try:
                    result = await func(*args, **kwargs)
                    return result
                finally:
                    tracer._exit(index, token, name, result)

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index, token = tracer._enter(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer._exit(index, token, name, result)

        return wrapper

    def _enter(self, name):
        parent = self._open.get()
        if parent is None:
            parent = self._root
        index = len(self.spans)
        self.spans.append([self.request, name, time.perf_counter(), None, parent])
        if self._root is None:
            self._root = index
        return index, self._open.set(index)

    def _exit(self, index, token, name, result) -> None:
        self.spans[index][3] = time.perf_counter()
        self._open.reset(token)
        if self._root == index:
            self._root = None
        if result is not None:
            self._read_result(name, result)

    def _read_result(self, name: str, result) -> None:
        if name == "ilp.solve":
            self.count("ilp.solves")
            for field in SOLVE_FIELDS:
                self._stat(result[1], "CondSolveStats", field, f"ilp.{field}")
        elif name == "witness.synth":
            self.count("witness.nodes", result.size())
        elif name == "analysis.mus":
            self._stat(result.stats, "DiagnosticsStats", "mus_probes", "analysis.mus_probes")
        elif name == "analysis.repair":
            self._stat(result.stats, "RepairStats", "probes", "analysis.repair_probes")
            self._stat(result.stats, "RepairStats", "cores", "analysis.repair_cores")

    def _stat(self, stats, owner: str, field: str, name: str) -> None:
        """Count ``stats.<field>`` as ``name``, or note the field missing."""
        value = getattr(stats, field, None)
        if value is not None:
            self.count(name, int(value))
        elif name not in self.missing_counts:
            self.missing_counts.add(name)
            self.missing.append(f"{owner}.{field}")

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        self._close_request()
        with open(path, "w") as out:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": {k: dict(v) for k, v in self.counts.items()},
                    "missing": self.missing,
                    "missing_counts": sorted(self.missing_counts),
                },
                out,
            )


def _request_id(line) -> str | None:
    match = _REQUEST_ID.search(line[:64] if isinstance(line, str) else "")
    return match.group(1) if match else None
