"""Traced ``repro serve``: the same ``run_server``, with spans on request.

Serves a snapshot exactly as ``repro serve --snapshot S --port P
--reload-token T`` does.  On SIGUSR1 it installs the benchmark's spans
(:mod:`tracing`) around the request path and the decode stack and touches
``--trace-ack``; when SIGTERM stops the server it writes the span aggregates
to ``--trace-out``.

    python3 perfbench/launcher.py --trace-out OUT.json --trace-ack ACK \\
        --snapshot world.ftcs --port 0 --reload-token TOKEN
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

import tracing
import world  # noqa: F401  (puts the repository's src/ on sys.path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--reload-token", required=True)
    parser.add_argument("--trace-out", required=True, type=Path)
    parser.add_argument("--trace-ack", required=True, type=Path)
    args = parser.parse_args(argv)

    from repro.api import Oracle
    from repro.pool.prewarm import hot_keys_path
    from repro.server.server import run_server

    oracle = Oracle.load(args.snapshot)
    recorder = tracing.Recorder()
    patches = tracing.Patches()

    def start_tracing(signum, frame) -> None:
        tracing.install_decode_stack(recorder, patches, type(oracle))
        tracing.install_server(recorder, patches, type(oracle))
        args.trace_ack.touch()

    signal.signal(signal.SIGUSR1, start_tracing)

    def announce(event: dict) -> None:
        event["snapshot"] = args.snapshot
        print(json.dumps(event), flush=True)

    code = run_server(oracle, host="127.0.0.1", port=args.port,
                      max_sessions=32, announce=announce,
                      hot_keys_file=hot_keys_path(args.snapshot),
                      snapshot_path=args.snapshot,
                      reload_token=args.reload_token)
    patches.undo()
    args.trace_out.write_text(json.dumps(recorder.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
