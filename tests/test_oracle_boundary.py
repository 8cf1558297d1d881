"""The product / reference-oracle boundary.

The reference engines (:mod:`repro.oracles`, the rebuild-per-subset
analysis engines) are called by tests and benchmarks only: no product
module imports :mod:`repro.oracles`, and no config field, public keyword,
wire field or CLI flag selects a reference path.
"""

import asyncio
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import api
from repro.analysis import diagnostics, repair
from repro.checkers.config import CheckerConfig
from repro.dtd.serializer import dtd_to_string
from repro.ilp.condsys import solve_conditional_system
from repro.service import protocol
from repro.service.registry import SessionRegistry
from repro.service.server import CheckingServer
from repro.service.session import SpecSession
from repro.workloads.examples import teachers_dtd_d1

SIGMA1 = (
    "teacher.name -> teacher\n"
    "subject.taught_by -> subject\n"
    "subject.taught_by => teacher.name"
)
KEYS = "teacher.name -> teacher\nsubject.taught_by -> subject"


def test_product_imports_do_not_load_the_oracles():
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = (
        "import sys, repro, repro.cli, repro.service.server, "
        "repro.service.http, repro.service.fleet; "
        "print('repro.oracles' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_reference_knobs_are_gone():
    assert "incremental" not in CheckerConfig.__dataclass_fields__
    assert "incremental" not in inspect.signature(solve_conditional_system).parameters
    for fn in (
        api.diagnose,
        api.mus,
        api.repair,
        diagnostics.mus,
        diagnostics.redundant_constraints,
        diagnostics.diagnose,
        repair.minimal_repair,
    ):
        assert "toggled" not in inspect.signature(fn).parameters, fn.__qualname__
    for method in (SpecSession.diagnose, SpecSession.repair):
        assert "rebuild" not in inspect.signature(method).parameters
    assert "rebuild" not in inspect.getsource(protocol.perform)


def _answer_lines(requests):
    """Encoded response lines from one fresh server, in request order."""
    server = CheckingServer(SessionRegistry())

    async def run():
        return [
            protocol.encode(await server.handle_request(json.dumps(request)))
            for request in requests
        ]

    try:
        return asyncio.run(run())
    finally:
        server.close()


def test_wire_incremental_override_is_a_structured_error():
    request = {
        "id": 1, "op": "check", "dtd": dtd_to_string(teachers_dtd_d1()),
        "constraints": KEYS, "config": {"incremental": False},
    }
    (line,) = _answer_lines([request])
    response = json.loads(line)
    assert response["ok"] is False
    assert response["error"]["type"] == "ReproError"
    assert "unknown config override(s): incremental" in response["error"]["message"]


@pytest.mark.parametrize("constraints", [SIGMA1, KEYS])
def test_diagnose_rebuild_field_changes_no_byte(constraints):
    plain = {
        "id": 7, "op": "diagnose", "dtd": dtd_to_string(teachers_dtd_d1()),
        "constraints": constraints,
    }
    flagged = {**plain, "rebuild": True}
    # Fresh servers (both answers computed), then one server (shared cache).
    assert _answer_lines([flagged]) == _answer_lines([plain])
    first, second = _answer_lines([flagged, plain])
    assert first == second
    assert json.loads(first)["result"]["stats"]["method"] == "toggled"
