"""The repo benchmark: one closed-loop workload, checked answers, metrics.

Run from the root of a checkout::

    python3 loadbench/run.py --workload witness --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics: latency p50/p90, throughput,
ok rate, set-up time and peak RSS of the program process.  A run sets the
program up several times (``setup_s`` is the median); the last program
process then answers a fixed number of requests, about ``--seconds`` worth
on the reference host.  Every time is scaled to the reference host speed
by a calibration kernel timed around it (``calibrate.py``), because this
benchmark's host changes speed by up to 2x for stretches of seconds to
minutes; the raw times are printed in the context line.  ``peak_rss_mb``
is read after the last request, once the program's caches are full.

``--trace 1`` answers half as many requests untraced, then traced twice
over the same requests, and prints the per-layer metrics of the first
traced loop; it fails when a verdict differs between the untraced and
traced loops or a per-request count differs between the two traced loops.

The last line of stdout is the result object; the line before it carries
the run's context (sample counts, versions, request classes).

Workloads (see ``workloads.py``): ``witness`` and ``solver`` call
``repro.api`` inside one program process; ``serve`` drives one
``repro serve`` process over one TCP connection.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".loadbench_out"
PYTHON = sys.executable or "python3"
PROCESS_TIMEOUT = 60.0

SETUPS = 5
#: Requests per second of each workload on the host the benchmark was
#: written on; a run times ``rate * seconds`` requests, so it measures about
#: ``--seconds`` there.
NOMINAL_RPS = {"witness": 10, "solver": 11, "serve": 150}
#: At least this many timed requests: p90 then has at least ten samples
#: beyond it, and ``witness`` has filled the program's 128-entry encoding
#: cache and reached its steady peak RSS.
MIN_REQUESTS = 200


class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


# -- statistics -----------------------------------------------------------------


def _rank(n: int, q: float) -> int:
    """0-based index of the nearest-rank ``q`` quantile of ``n`` values."""
    return max(1, math.ceil(q * n)) - 1


def percentile(values: list[float], q: float) -> float:
    return sorted(values)[_rank(len(values), q)]


def class_at(latencies: list[float], classes: list[str], q: float) -> str:
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    return classes[order[_rank(len(order), q)]]


def request_count(workload: str, seconds: float) -> int:
    return max(MIN_REQUESTS, round(NOMINAL_RPS[workload] * seconds))


# -- program processes ----------------------------------------------------------


def _read_json_line(stream, what: str) -> dict:
    line = stream.readline()
    if not line:
        raise BenchError(f"{what}: the program process ended early")
    return json.loads(line)


def _finish(proc: subprocess.Popen) -> None:
    try:
        proc.wait(timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise BenchError("a program process did not stop in time") from None


def _kill(proc) -> None:
    """Stop a program process that is still running and wait for it."""
    if proc is not None and proc.poll() is None:
        proc.kill()
        proc.wait()


class InProcessRun:
    """One program process of ``witness``/``solver``: set-up, then the loop.

    The inputs are written to a file before the process starts and the
    answers read back after it ends, so the benchmark process stays idle
    while the program is timed.
    """

    def __init__(self, workload: str, seed: int, requests: list, trace_out: str = ""):
        self.trace_out = trace_out
        self.requests = requests
        OUT.mkdir(exist_ok=True)
        self.inputs = OUT / f"inputs-{workload}-{seed}.jsonl"
        self.answers = OUT / f"answers-{workload}-{seed}.jsonl"
        with open(self.inputs, "w") as out:
            warmup = workloads.warmup_for(workload, seed)
            out.write(json.dumps([r.payload for r in warmup]) + "\n")
            for request in requests:
                out.write(json.dumps(request.payload) + "\n")
        self.proc = None

    def setup(self) -> float:
        command = [
            PYTHON, str(HERE / "program.py"), "--src", str(SRC),
            "--inputs", str(self.inputs), "--answers", str(self.answers),
            "--trace-out", self.trace_out,
        ]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        _read_json_line(self.proc.stdout, "set-up")
        return time.perf_counter() - started

    def close(self) -> None:
        """End a process after its set-up, without a timed loop."""
        self.proc.stdin.close()
        _finish(self.proc)

    def stop(self) -> None:
        _kill(self.proc)

    def run(self) -> dict:
        self.proc.stdin.write("go\n")
        self.proc.stdin.close()
        done = _read_json_line(self.proc.stdout, "timed loop")
        _finish(self.proc)
        with open(self.answers) as answers:
            records = [json.loads(line) for line in answers]
        if len(records) != len(self.requests):
            raise BenchError(f"{len(records)} answers to {len(self.requests)} requests")
        return {
            "latencies": [r["latency"] for r in records],
            "ends": [r["end"] for r in records],
            "answers": [r["answer"] for r in records],
            "ids": [str(r["i"]) for r in records],
            "rss_kb": done["rss_kb"],
            "threads": done["threads"],
            "calibration": done["calibration"],
        }


class ServeRun:
    """One ``repro serve`` process and one line-protocol connection."""

    def __init__(self, workload: str, seed: int, count: int, trace_out: str = ""):
        self.trace_out = trace_out
        self.next_id = 0
        self.proc = self.sock = None
        plan = workloads.serve_plan(seed)
        self.warmup = plan.warmup
        self.requests = list(itertools.islice(plan.stream, count))

    def setup(self) -> float:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [PYTHON, str(HERE / "serve_boot.py"), str(SRC), self.trace_out, "--",
             "--port", "0"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, cwd=ROOT,
        )
        announce = self.proc.stdout.readline().split()
        if announce[:2] != ["listening", "on"]:
            raise BenchError(f"repro serve did not announce a port: {announce}")
        host, port = announce[2].rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=PROCESS_TIMEOUT)
        self.reader = self.sock.makefile("rb")
        self.fingerprints = {}
        self.warm_answers = []
        for request in self.warmup:
            answer = self._call(request.payload)
            if request.cls == "open":
                self.fingerprints[f"@{request.expect['opened']}"] = answer["fingerprint"]
            self.warm_answers.append((request, answer))
        return time.perf_counter() - started

    def _call(self, payload: dict) -> dict:
        self.next_id += 1
        body = dict(payload)
        if "session" in body:
            body["session"] = self.fingerprints[body["session"]]
        line = json.dumps({"id": self.next_id, **body}) + "\n"
        self.sock.sendall(line.encode())
        raw = self.reader.readline()
        if not raw:
            raise BenchError("repro serve dropped the connection")
        response = json.loads(raw)
        if response.get("id") != self.next_id:
            raise BenchError("repro serve answered out of order on one connection")
        if response.get("ok"):
            return response["result"]
        return {"error": response.get("error")}

    def _stats(self) -> dict:
        return self._call({"op": "stats"})["counters"]

    def close(self) -> None:
        """Shut the server down over the wire and wait for it to exit."""
        self._call({"op": "shutdown"})
        self.sock.close()
        self.sock = None
        _finish(self.proc)

    def stop(self) -> None:
        if self.sock is not None:
            self.sock.close()
        _kill(self.proc)

    def run(self) -> dict:
        before = self._stats()
        latencies, ends, answers, ids = [], [], [], []
        dropped = False
        started = time.perf_counter()
        sampler = calibrate.Sampler(started)
        for request in self.requests:
            begin = time.perf_counter()
            try:
                answer = self._call(request.payload)
            except (BenchError, OSError) as exc:
                # A dropped connection fails this request and ends the loop.
                answer, dropped = {"error": f"connection: {exc}"}, True
            end = time.perf_counter()
            latencies.append(end - begin)
            ends.append(end - started)
            answers.append(answer)
            ids.append(str(self.next_id))
            if dropped:
                break
            sampler.maybe()
        status = layers.proc_status(self.proc.pid)
        after = before
        if not dropped:
            after = self._stats()
            self.close()
        # Requests never sent after a dropped connection are failures too.
        missing = len(self.requests) - len(answers)
        return {
            "latencies": latencies, "ends": ends,
            "answers": answers + [{"error": "connection: not sent"}] * missing,
            "ids": ids, "rss_kb": status["VmHWM"], "threads": status["Threads"],
            "stats_before": before, "stats_after": after,
            "warm_answers": self.warm_answers, "calibration": sampler.samples,
        }


def measure(workload: str, seed: int, count: int, trace_out: str = "",
            setups: int = 1) -> dict:
    """Set the program up ``setups`` times in fresh processes; the last
    one then answers the seed's first ``count`` requests."""
    if workload == "serve":
        # Client and server share one core, so the calibration kernel the
        # client runs between requests times the core the server works on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        make = lambda: ServeRun(workload, seed, count, trace_out)  # noqa: E731
    else:
        requests = list(itertools.islice(workloads.stream_for(workload, seed), count))
        make = lambda: InProcessRun(workload, seed, requests, trace_out)  # noqa: E731
    setup_times, setup_slowdowns = [], []
    for number in range(setups):
        run = make()
        before = [calibrate.kernel() for _ in range(5)]
        try:
            setup_times.append(run.setup())
            setup_slowdowns.append(
                calibrate.slowdown(before + [calibrate.kernel() for _ in range(5)]))
            if number < setups - 1:
                run.close()
            else:
                result = run.run()
        finally:
            run.stop()
    result["requests"] = run.requests
    result["setup_times"] = setup_times
    result["setup_slowdowns"] = setup_slowdowns
    return result


# -- checking and metrics -------------------------------------------------------


def check(result: dict) -> list[tuple]:
    """Wrong answers as ``(timed request index or None, message)``."""
    failures = []
    for index, (request, answer) in enumerate(zip(result["requests"], result["answers"])):
        for reason in workloads.check_answer(request, answer)[:1]:
            failures.append((index, f"{index} {request.cls}: {reason}"))
    for request, answer in result.get("warm_answers", []):
        if request.cls != "open":
            for reason in workloads.check_answer(request, answer)[:1]:
                failures.append((None, f"warm-up {request.cls}: {reason}"))
    return failures


def timing(result: dict, wrong: set) -> dict:
    """Raw and reference-speed latencies (ms) and throughput of the timed
    loop.  Wall time leaves out the calibration kernel's own time."""
    ends, samples = result["ends"], result["calibration"]
    slow = calibrate.slowdowns(ends, samples)
    wall = scaled = 0.0
    kernel = iter(samples)
    pending = next(kernel, None)
    previous = 0.0
    for end, factor in zip(ends, slow):
        spent = end - previous
        while pending is not None and pending[0] < end:
            spent -= pending[1]
            pending = next(kernel, None)
        wall += spent
        scaled += spent / factor
        previous = end
    raw = [1000.0 * x for x in result["latencies"]]
    ok = sum(1 for index in range(len(raw)) if index not in wrong)
    return {
        "raw": raw,
        "scaled": [x / factor for x, factor in zip(raw, slow)],
        "slowdowns": slow,
        "raw_rps": ok / wall,
        "rps": ok / scaled,
    }


def end_to_end(result: dict, times: dict, wrong: set) -> dict:
    """Times at the reference host speed over all timed requests."""
    attempted = len(result["answers"])
    setups = [t / s for t, s in zip(result["setup_times"], result["setup_slowdowns"])]
    return {
        "latency_p50_ms": (statistics.median(times["scaled"]), "ms"),
        "latency_p90_ms": (percentile(times["scaled"], 0.9), "ms"),
        "throughput_rps": (times["rps"], "1/s"),
        "ok_rate": ((attempted - len(wrong)) / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["rss_kb"] / 1024.0, "MB"),
    }


def context(result: dict, times: dict, workload: str) -> dict:
    latencies, scaled = times["raw"], times["scaled"]
    classes = [r.cls for r in result["requests"]]
    by_class: dict[str, list[float]] = {}
    for cls, latency in zip(classes, scaled):
        by_class.setdefault(cls, []).append(latency)
    p90 = percentile(scaled, 0.9)
    return {
        "workload": workload,
        "samples": len(scaled),
        "samples_above_p90": sum(1 for x in scaled if x > p90),
        "p50_class": class_at(scaled, classes, 0.5),
        "p90_class": class_at(scaled, classes, 0.9),
        "class_share": {c: round(len(v) / len(scaled), 3) for c, v in sorted(by_class.items())},
        "class_p50_ms": {c: round(statistics.median(v), 3) for c, v in sorted(by_class.items())},
        "raw_p50_ms": round(statistics.median(latencies), 3),
        "raw_p90_ms": round(percentile(latencies, 0.9), 3),
        "raw_rps": round(times["raw_rps"], 3),
        "slowdown_quartiles": [round(q, 3) for q in statistics.quantiles(times["slowdowns"], n=4)],
        "setup_times_s": [round(t, 4) for t in result["setup_times"]],
        "setup_slowdowns": [round(s, 4) for s in result["setup_slowdowns"]],
        "program_threads": result["threads"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))


# -- modes ----------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float) -> int:
    result = measure(workload, seed, request_count(workload, seconds), setups=SETUPS)
    failures = check(result)
    wrong = {index for index, _ in failures if index is not None}
    for _, message in failures[:10]:
        print(f"wrong answer: {message}", file=sys.stderr)
    times = timing(result, wrong)
    print(json.dumps({"context": context(result, times, workload)}))
    emit(not failures, len(result["answers"]), len(wrong), end_to_end(result, times, wrong))
    return 0


def run_traced(workload: str, seed: int, seconds: float) -> int:
    """Half a run untraced, then traced twice over the same requests."""
    OUT.mkdir(exist_ok=True)
    count = request_count(workload, seconds / 2)
    plain = measure(workload, seed, count)
    paths = [str(OUT / f"spans-{workload}-{seed}-{n}.json") for n in (1, 2)]
    first = measure(workload, seed, count, trace_out=paths[0])
    second = measure(workload, seed, count, trace_out=paths[1])
    traces = [json.loads(Path(p).read_text()) for p in paths]

    wrong = check(first)
    problems = [f"wrong answer (traced): {message}" for _, message in wrong]
    for index in range(count):
        if workloads.verdict(plain["answers"][index]) != workloads.verdict(first["answers"][index]):
            problems.append(f"verdict of request {index} differs between untraced and traced runs")
            break
    problems += layers.repeat_problems(first, second, traces[0], traces[1])

    metrics = layers.per_layer(first, traces[0], workload)
    bad = {i for i, _ in wrong if i is not None}
    traced, untraced = timing(first, bad), timing(plain, set())
    overhead = statistics.median(traced["scaled"]) - statistics.median(untraced["scaled"])
    metrics["trace.overhead_p50_ms"] = (overhead, "ms")
    missing = sorted(set(traces[0]["missing"]))
    info = {"untraced_samples": len(plain["latencies"]), "missing_targets": missing,
            **context(first, traced, workload)}
    print(json.dumps({"context": info}))
    for name in missing:
        print(f"missing wrap target: {name}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    emit(not problems, len(first["answers"]), len(bad), metrics)
    return 1 if any(p.startswith("count ") for p in problems) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC}/repro is missing; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    # The caller and one program process: both can be busy at once while
    # the caller encodes a request or reads an answer.
    needed = 2
    if needed > (os.cpu_count() or 1):
        print(f"refusing to start {needed} busy processes on {os.cpu_count()} cores",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            return run_traced(args.workload, args.seed, args.seconds)
        return run_untraced(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
