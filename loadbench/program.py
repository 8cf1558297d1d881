"""The program process of the in-process workloads (``witness``, ``solver``).

It imports ``repro`` from the checkout's ``src``, answers the warm-up
requests, and then runs the closed loop: one request at a time through
``repro.api``.  The benchmark process builds every input beforehand and
checks every answer afterwards, so neither is done while this process is
being timed.

Inputs (``--inputs``, JSON lines): the list of warm-up payloads, then one
timed payload per line.  Outputs: ``{"ready": true}`` on stdout after
set-up; one ``{"i", "latency", "end", "answer"}`` line per timed request in
``--answers`` (``end`` is seconds since the timed loop started); and
``{"done": true, "rss_kb", "threads", "calibration"}`` on stdout at the
end, where ``rss_kb`` is ``VmHWM`` after the last timed request and
``calibration`` lists ``[loop time, kernel seconds]`` of the calibration
kernel samples taken between requests (see ``calibrate.py``).  The timed loop
starts on the stdin line ``go``; end of input instead stops the process
after set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import Sampler  # noqa: E402
from layers import proc_status  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--answers", required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from repro import api
    from repro.checkers.config import CheckerConfig
    from repro.xmltree.serialize import tree_to_string

    tracer = None
    if args.trace_out:
        from tracer import CALL_COUNTS, LIBRARY_TARGETS, Tracer

        tracer = Tracer()
        tracer.install(LIBRARY_TARGETS, CALL_COUNTS)

    def answer(payload: dict) -> dict:
        try:
            spec = api.Spec.parse(payload["dtd"], payload.get("constraints", ""))
            config = payload.get("config")
            config = CheckerConfig(**config) if config else None
            op = payload["op"]
            if op == "check":
                result = api.check(spec, config=config)
                witness = result.witness
                return {
                    "consistent": result.consistent,
                    "witness": tree_to_string(witness) if witness is not None else None,
                }
            if op == "implies":
                return {"implied": api.implies(spec, payload["phi"], config=config).implied}
            if op == "diagnose":
                report = api.diagnose(spec, config=config)
                return {"consistent": report.consistent, "mus": [str(c) for c in report.mus]}
            if op == "repair":
                fix = api.repair(spec, config=config)
                return {
                    "found": fix.found,
                    "cost": fix.cost,
                    "verified": fix.verified,
                    "actions": [action.as_dict() for action in fix.actions],
                }
            raise ValueError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 - a failed request is an answer
            return {"error": f"{type(exc).__name__}: {exc}"}

    with open(args.inputs) as inputs:
        for payload in json.loads(inputs.readline()):
            answer(payload)
        gc.collect()
        gc.freeze()
        emit({"ready": True})
        if sys.stdin.readline().strip() != "go":
            return 0
        timed = [json.loads(line) for line in inputs]

    with open(args.answers, "w") as out:
        started = time.perf_counter()
        sampler = Sampler(started)
        for index, payload in enumerate(timed):
            if tracer is not None:
                tracer.begin_request(index)
            begin = time.perf_counter()
            result = answer(payload)
            end = time.perf_counter()
            out.write(json.dumps({
                "i": index, "latency": end - begin, "end": end - started, "answer": result,
            }))
            out.write("\n")
            sampler.maybe()
    status = proc_status()
    if tracer is not None:
        tracer.dump(args.trace_out)
    emit({
        "done": True, "rss_kb": status["VmHWM"], "threads": status["Threads"],
        "calibration": sampler.samples,
    })
    return 0


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
