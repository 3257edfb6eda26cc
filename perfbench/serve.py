"""The serving side of the benchmark: a ``repro serve`` process and its clients.

:class:`Server` starts ``repro serve`` (or, for a traced run, the
benchmark's own launcher, which serves through the same ``run_server``) on
an ephemeral port, waits for its ``serving`` line, and stops it with SIGTERM,
checking the exit code.  The load generators are closed loops over
``repro.api`` remote oracles, one connection per thread.
"""

from __future__ import annotations

import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep

import world
from world import BenchmarkError

#: Zipf exponent of the warm readers' choice among the pre-warmed fault sets.
ZIPF_EXPONENT = 1.1

#: Seconds a server may take to announce readiness or to exit on SIGTERM.
SERVER_TIMEOUT_S = 60.0


class Server:
    """One serving process on an ephemeral localhost port."""

    def __init__(self, snapshot: Path, token: str, workdir: Path,
                 traced: bool):
        self.trace_out = workdir / "server-trace.json"
        self.trace_ack = workdir / "server-trace.on"
        if traced:
            command = [sys.executable, str(Path(__file__).with_name("launcher.py")),
                       "--trace-out", str(self.trace_out),
                       "--trace-ack", str(self.trace_ack)]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        command += ["--snapshot", str(snapshot), "--port", "0",
                    "--reload-token", token]
        self._log = open(workdir / "server.log", "wb")
        started = perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log,
            env=world.clean_environment(), cwd=str(world.ROOT))
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        try:
            event = self._next_event("serving")
        except BenchmarkError:
            self.stop()
            raise
        self.ready_s = perf_counter() - started
        self.port = int(event["port"])

    def _read_stdout(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next_event(self, name: str) -> dict:
        deadline = perf_counter() + SERVER_TIMEOUT_S
        while perf_counter() < deadline:
            try:
                line = self._lines.get(timeout=0.5)
            except queue.Empty:
                continue
            if line is None:
                break
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if event.get("event") == name:
                return event
        raise BenchmarkError("server did not report %r (exit code %s)"
                             % (name, self.process.poll()))

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (VmHWM), in MB."""
        status = Path("/proc/%d/status" % self.process.pid).read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
        raise BenchmarkError("VmHWM missing from /proc status")

    def start_tracing(self) -> None:
        """Ask the traced launcher to install its spans; wait for the ack."""
        self.process.send_signal(signal.SIGUSR1)
        deadline = perf_counter() + SERVER_TIMEOUT_S
        while not self.trace_ack.exists():
            if perf_counter() > deadline or self.process.poll() is not None:
                raise BenchmarkError("launcher did not start tracing")
            sleep(0.01)

    def stop(self) -> int:
        """SIGTERM, wait, and return the exit code (kill on timeout)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            code = -signal.SIGKILL
        self._reader.join(timeout=5)
        self._log.close()
        return code


def connect(port: int):
    from repro.api import Oracle

    return Oracle.connect("127.0.0.1", port, timeout=120.0)


class Tally:
    """What one load-generator thread saw."""

    def __init__(self):
        self.latencies: list[float] = []
        self.spans: list[tuple] = []
        self.pairs = 0
        self.attempted = 0
        self.wrong = 0
        self.errors = 0


def warm_reader(oracle, hot_sets: list, batches: list, truth: list,
                seed: int, done: threading.Event, tally: Tally) -> None:
    """Closed loop of Zipf-skewed ``connected_many`` reads on warm sets,
    until ``done`` is set.

    ``truth[k][b]`` holds the expected answers of fault set ``k`` on pair
    batch ``b``.
    """
    from repro.api import OracleError

    rng = random.Random(seed)
    weights = [1.0 / rank ** ZIPF_EXPONENT
               for rank in range(1, len(hot_sets) + 1)]
    indices = range(len(hot_sets))
    while not done.is_set():
        k = rng.choices(indices, weights)[0]
        b = rng.randrange(len(batches))
        tally.attempted += 1
        start = perf_counter()
        try:
            answers = oracle.connected_many(batches[b], hot_sets[k])
        except OracleError:
            tally.errors += 1
            continue
        end = perf_counter()
        tally.latencies.append(end - start)
        tally.spans.append((start, end))
        tally.pairs += len(answers)
        if answers != truth[k][b]:
            tally.wrong += 1


def cold_writer(oracle, cold_items, seconds: float, tally: Tally,
                reload_at: float, reload, reloads: list,
                done: threading.Event) -> None:
    """Closed loop of ``connected_many`` on never-seen fault sets, with one
    reload; sets ``done`` when it ends.

    ``cold_items`` yields ``(faults, pairs, expected)`` triples, ``expected``
    being the true answers; it is shared between phases so no set is ever
    sent twice.  Between the first two requests that straddle ``reload_at``
    seconds into the loop it calls ``reload()``, which returns the
    ``(start, end)`` of the reload, and appends that to ``reloads``; the
    reload counts as one attempt.
    """
    from repro.api import OracleError

    started = perf_counter()
    deadline = started + seconds
    reloaded = False
    try:
        for faults, pairs, expected in cold_items:
            now = perf_counter()
            if now >= deadline:
                return
            if not reloaded and now - started >= reload_at:
                reloaded = True
                tally.attempted += 1
                try:
                    reloads.append(reload())
                except OracleError:
                    tally.errors += 1
            tally.attempted += 1
            start = perf_counter()
            try:
                answers = oracle.connected_many(pairs, faults)
            except OracleError:
                tally.errors += 1
                continue
            end = perf_counter()
            tally.latencies.append(end - start)
            tally.spans.append((start, end))
            tally.pairs += len(answers)
            if answers != expected:
                tally.wrong += 1
    finally:
        done.set()


def run_threads(targets: list) -> None:
    """Run each ``(function, args)`` on its own thread; re-raise failures."""
    failures: list = []

    def guarded(function, args):
        try:
            function(*args)
        except BaseException as error:  # surfaced below, on the caller
            failures.append(error)

    threads = [threading.Thread(target=guarded, args=target)
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def rewrite_identical(path: Path, data: bytes) -> None:
    """Replace ``path`` atomically with a byte-identical copy of itself."""
    temporary = path.with_name(path.name + ".rewrite")
    temporary.write_bytes(data)
    os.replace(temporary, path)
