"""Launch ``repro serve`` from the checkout's ``src``, optionally traced.

``python3 serve_boot.py SRC TRACE_OUT -- SERVE_ARGS...`` runs the
program's own CLI entry point with ``serve SERVE_ARGS``.  With a non-empty
``TRACE_OUT`` the tracer is installed first and its spans are written there
once the server has shut down.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    src, trace_out, sep, *serve_args = argv
    if sep != "--":
        raise SystemExit("usage: serve_boot.py SRC TRACE_OUT -- SERVE_ARGS...")
    sys.path.insert(0, src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    tracer = None
    if trace_out:
        from tracer import CALL_COUNTS, LIBRARY_TARGETS, SERVICE_TARGETS, Tracer

        tracer = Tracer()
        tracer.install(LIBRARY_TARGETS + SERVICE_TARGETS, CALL_COUNTS)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
