"""Per-layer metrics from a traced run's spans and counts.

A span's self time is its duration minus the time its direct children
cover.  One request runs at a time, so spans of one request nest in time
even when the server runs them on different threads; nesting is therefore
read from the intervals, not from the parent field.  Times and counts are
means per timed request; every ratio names its base.
"""

from __future__ import annotations

from collections import Counter

from tracer import CALL_COUNTS, CACHE_STATS, LIBRARY_TARGETS, SERVICE_TARGETS

#: metric -> span name whose summed self time it reports (ms per request).
SELF_TIMES = {
    "parse.ms": "parse",
    "encoding.build_ms": "encoding.build",
    "ilp.solve_ms": "ilp.solve",
    "witness.synth_ms": "witness.synth",
    "witness.values_ms": "witness.values",
    "verify.conforms_ms": "verify.conforms",
    "verify.violations_ms": "verify.violations",
    "analysis.mus_ms": "analysis.mus",
    "analysis.repair_ms": "analysis.repair",
    "checkers.self_ms": "checkers",
    "service.handle_ms": "service.handle",
    "service.session_ms": "service.session",
    "service.encode_ms": "service.encode",
    "service.admit_ms": "service.admit",
    "xmltree.parse_ms": "xmltree.parse",
}

#: metric -> (count name, span or counter it depends on); per request.
COUNTS = {
    "ilp.dfs_nodes": ("ilp.dfs_nodes", "ilp.solve"),
    "ilp.leaves_solved": ("ilp.leaves_solved", "ilp.solve"),
    "ilp.cuts_added": ("ilp.cuts_added", "ilp.solve"),
    "ilp.cut_pool_hits": ("ilp.cut_pool_hits", "ilp.solve"),
    "ilp.propagation_visits": ("ilp.propagation_visits", "ilp.solve"),
    "ilp.bound_patch_solves": ("ilp.bound_patch_solves", "ilp.solve"),
    "ilp.assemblies": ("ilp.assemblies", "ilp.solve"),
    "ilp.exact_nodes": ("ilp.exact_nodes", "ilp.solve"),
    "ilp.exact_pivots": ("ilp.exact_pivots", "ilp.solve"),
    "witness.nodes": ("witness.nodes", "witness.synth"),
    "xmltree.ext_calls": ("xmltree.ext_calls", "xmltree.ext_calls"),
    "analysis.mus_probes": ("analysis.mus_probes", "analysis.mus"),
    "analysis.repair_probes": ("analysis.repair_probes", "analysis.repair"),
    "analysis.repair_cores": ("analysis.repair_cores", "analysis.repair"),
}

#: Counts that must repeat exactly between two traced runs of one seed.
REPEATABLE = (
    "ilp.dfs_nodes",
    "ilp.exact_pivots",
    "analysis.repair_probes",
    "xmltree.ext_calls",
    "witness.nodes",
)


def proc_status(pid="self") -> dict:
    """``VmHWM`` (kB) and ``Threads`` from ``/proc/<pid>/status``."""
    out = {}
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "Threads"):
                out[key] = int(value.split()[0])
    return out


def _missing_spans(missing: list[str]) -> set[str]:
    names = set()
    for name, module, path in LIBRARY_TARGETS + SERVICE_TARGETS + CALL_COUNTS:
        if f"{module}.{path}" in missing:
            names.add(name)
    if ".".join(CACHE_STATS) in missing:
        names.add("encoding.cache")
    return names


def _self_times(spans: list) -> tuple[Counter, float, float]:
    """Self time per span name, time covered by top-level spans, and the
    total duration of ``service.handle`` spans, for one request."""
    ordered = sorted(spans, key=lambda s: (s[2], -s[3]))
    children_time = [0.0] * len(ordered)
    stack: list[int] = []
    covered = handle = 0.0
    for index, (_, name, start, end, _) in enumerate(ordered):
        while stack and ordered[stack[-1]][3] <= start:
            stack.pop()
        if stack:
            children_time[stack[-1]] += end - start
        else:
            covered += end - start
        if name == "service.handle":
            handle += end - start
        stack.append(index)
    selfs = Counter()
    for index, (_, name, start, end, _) in enumerate(ordered):
        selfs[name] += (end - start) - children_time[index]
    return selfs, covered, handle


def per_layer(result: dict, trace: dict, workload: str) -> dict:
    ids = result["ids"]
    wanted = set(ids)
    n = len(ids)
    by_request: dict[str, list] = {}
    for span in trace["spans"]:
        if span[0] in wanted and span[3] is not None:
            by_request.setdefault(span[0], []).append(span)
    selfs = Counter()
    unattributed = wire = 0.0
    for rid, latency in zip(ids, result["latencies"]):
        request_selfs, covered, handle = _self_times(by_request.get(rid, []))
        selfs.update(request_selfs)
        unattributed += latency - covered
        wire += latency - handle
    counts = Counter()
    for rid in ids:
        counts.update(trace["counts"].get(rid, {}))

    gone = _missing_spans(trace["missing"])
    metrics: dict = {}
    for metric, span in SELF_TIMES.items():
        metrics[metric] = (None if span in gone else 1000.0 * selfs[span] / n, "ms")
    for metric, (count, source) in COUNTS.items():
        absent = source in gone or count in trace["missing_counts"]
        metrics[metric] = (None if absent else counts[count] / n, "count")
    solves = counts["ilp.solves"]
    metrics["ilp.root_decided_ratio"] = (
        None if "ilp.solve" in gone or "ilp.lp_probe_decided" in trace["missing_counts"]
        else (counts["ilp.lp_probe_decided"] / solves if solves else 0.0),
        "ratio",
    )
    lookups = counts["encoding.cache_hits"] + counts["encoding.cache_misses"]
    metrics["encoding.cache_hit_ratio"] = (
        None if "encoding.cache" in gone
        else (counts["encoding.cache_hits"] / lookups if lookups else 0.0),
        "ratio",
    )
    if workload == "serve":
        before, after = result["stats_before"], result["stats_after"]

        def delta(key: str) -> int:
            return after.get(key, 0) - before.get(key, 0)

        asked = delta("session.requests")
        metrics["service.cache_hit_ratio"] = (
            delta("session.cache_hits") / asked if asked else 0.0, "ratio")
        metrics["service.evictions"] = (delta("registry.sessions_evicted") / n, "count")
        metrics["service.wire_ms"] = (1000.0 * wire / n, "ms")
    else:
        metrics["service.cache_hit_ratio"] = (0.0, "ratio")
        metrics["service.evictions"] = (0.0, "count")
        metrics["service.wire_ms"] = (0.0, "ms")
    metrics["unattributed_ms"] = (1000.0 * unattributed / n, "ms")
    return metrics


def repeat_problems(first: dict, second: dict, trace1: dict, trace2: dict) -> list[str]:
    """Counts that differ between two traced runs of one seed, by request."""
    problems = []
    for name in REPEATABLE:
        for rid in second["ids"]:
            a = trace1["counts"].get(rid, {}).get(name, 0)
            b = trace2["counts"].get(rid, {}).get(name, 0)
            if a != b:
                problems.append(
                    f"count {name} does not repeat: request {rid} gave {a} then {b}"
                )
                break
    if first["ids"][: len(second["ids"])] != second["ids"]:
        problems.append("count runs did not replay the same requests")
    return problems
