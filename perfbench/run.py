#!/usr/bin/env python3
"""The repository's benchmark: one world, two workloads, every answer checked.

    python3 perfbench/run.py --workload cold-decode --seed 1 --seconds 45 --trace 0

The world (:mod:`world`) is built from the seed: an Erdos-Renyi graph with
n=300, density 2.5, labeled for f=4 with the deterministic near-linear scheme
on the default backend.  Set-up runs edge list -> build -> save -> v2 rewrite
five times (in a child process) and loads the snapshot five times;
churn-serve then starts a server and pre-warms 16 fault sets.

Workloads, all closed loops from one load-generator process:

``cold-decode``
    In-process ``Oracle.load`` of the v2 snapshot.  Every request is
    ``connected_many`` of 50 pairs on a never-seen tree-biased fault set.
    Its latencies are reported scaled to a reference host speed
    (``REFERENCE_NOMINAL_S``).
``churn-serve``
    A ``repro serve`` process.  Connection A sends Zipf-skewed reads over the
    16 pre-warmed fault sets; connection B sends never-seen fault sets and,
    once, at 60 % of the run, an authenticated ``reload`` of a
    byte-identical rewrite of the snapshot.  A's reads that end before the
    reload are the timed ones.

Every answer is compared with breadth-first search on G - F.  With
``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the run measures half the seconds untraced and half with spans
around the public entry points of every layer (:mod:`tracing`), and the last
line carries the per-layer metrics.  The lines before it give every metric
with its unit, latency quantiles with sample counts, and a host fingerprint.
See README.md for the metric definitions and the prediction table.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import os
import platform
import secrets
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from world import BenchmarkError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

HOT_SETS = 16
PAIR_BATCHES = 64
#: Never-seen fault sets made ready, with their ground truth, before timing.
COLD_PREPARED = {"cold-decode": 200, "churn-serve": 50}
#: When connection B reloads the snapshot, as a fraction of the measured
#: seconds.  Each pass holds exactly one reload.  churn-serve's end-to-end
#: latencies are those of connection A's reads that end before it starts, so
#: the traffic they see is the same however long the reload takes; the pass
#: lasts until the reload is done.
RELOAD_AT = 0.6

#: cold-decode's yardstick of host speed.  A cold request is pure
#: computation, and the speed of a shared host's cores drifts by a third
#: over minutes, so cold-decode times this many rounds of a fixed
#: pure-Python loop on its own thread before every request, and reports its
#: latencies scaled to a host on which the loop takes REFERENCE_NOMINAL_S
#: (about its median on the 2-vCPU Xeon the benchmark was written on).  The
#: latencies as timed are printed, and the per-layer client.cold_p50_ms is
#: unscaled.
REFERENCE_ROUNDS = 150_000
REFERENCE_NOMINAL_S = 0.015

#: The requests ``p50_ms`` and ``tail_ms`` time, per workload.
TIMED = {"cold-decode": "cold (scaled to the reference host speed)",
         "churn-serve": "connection A warm (before the reload)"}

#: ``tail_ms`` is this quantile.  A run holds a few dozen cold sessions, so
#: p75 is the highest quantile with a dozen samples beyond it; p90, p95 and
#: p99 are printed with their sample counts.
TAIL_QUANTILE = 0.75


# ----------------------------------------------------------------- helpers

def reference_s() -> float:
    """Seconds the host-speed yardstick loop takes now."""
    start = perf_counter()
    total = 0
    for value in range(REFERENCE_ROUNDS):
        total += value * value
    return perf_counter() - start


@functools.cache
def declared(section: str) -> tuple:
    """``(name, unit)`` of every metric in ``section`` (``end_to_end`` or
    ``per_layer``) of BENCHMARK.json, in its order."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return tuple((metric["name"], metric["unit"]) for metric in metrics)


def quantile(values: list, q: float) -> float:
    """Linear-interpolated quantile (``q=0.5`` is the median)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def describe(latencies: list) -> str:
    """Sample count and quantiles of request latencies, for the report."""
    return "n=%d p50/p75/p90/p95/p99/max %s ms" % (len(latencies), "/".join(
        "%.1f" % (1000 * quantile(latencies, q))
        for q in (0.5, 0.75, 0.9, 0.95, 0.99, 1.0)))


def throughput(tally) -> float:
    """Pairs answered per second between the first request's start and the
    last one's end."""
    if not tally.spans:
        return 0.0
    return tally.pairs / (max(end for _, end in tally.spans)
                          - min(start for start, _ in tally.spans))


def settle() -> None:
    """Collect, then freeze the set-up's objects out of the cyclic GC, so the
    benchmark's own inputs never lengthen the collections a request pays."""
    gc.collect()
    gc.freeze()


def peak_rss_self_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    try:
        found = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                               cwd=str(ROOT), capture_output=True, text=True,
                               timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = found.stdout.split()
    if found.returncode != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


# ------------------------------------------------------------------ set-up

class World:
    """The seed's graph, its v2 snapshot, and the set-up measurements."""

    def __init__(self, seed: int, workdir: Path, trace: bool):
        import world
        from repro.api import Oracle

        self.seed = seed
        self.graph = world.write_edge_list(seed, workdir / "world.edges")
        self.snapshot = workdir / "world.ftcs"
        command = [sys.executable, str(HERE / "world.py"),
                   "--edges", str(workdir / "world.edges"),
                   "--out", str(self.snapshot)] + \
            (["--trace"] if trace else [])
        built = subprocess.run(command, capture_output=True, text=True,
                               env=world.clean_environment(), cwd=str(ROOT),
                               timeout=600)
        if built.returncode != 0:
            raise BenchmarkError("world builder failed:\n"
                                 + built.stderr[-2000:])
        self.built = json.loads(built.stdout.splitlines()[-1])
        self.load_s: list = []
        self.oracle = None
        for _ in range(world.SETUP_REPEATS):
            if self.oracle is not None:
                self.oracle.close()
            start = perf_counter()
            self.oracle = Oracle.load(str(self.snapshot))
            self.load_s.append(perf_counter() - start)
        #: edge list -> build -> save -> v2 rewrite, one entry per repeat.
        self.chain_s = [sum(run["times"].values())
                        for run in self.built["runs"]]
        self.snapshot_mb = self.snapshot.stat().st_size / 1e6

    def pools(self, prepare: int) -> tuple:
        """The pre-warm sets with their truth on every pair batch, and the
        source of never-seen sets (``prepare`` of them ready before timing)."""
        import world

        batches = world.pair_batches(self.graph, self.seed, PAIR_BATCHES)
        source = world.FaultSource(self.graph, self.seed, batches)
        hot = [faults for faults, _, _ in source.take(HOT_SETS)]
        hot_truth = []
        for faults in hot:
            component = world.components(self.graph, faults)
            hot_truth.append([world.expected_answers(component, pairs)
                              for pairs in batches])
        source.prepare(prepare)
        return hot, hot_truth, source, batches

    def fingerprint(self) -> dict:
        level = self.oracle.outdetect
        level = getattr(level, "level_schemes", [level])[0]
        try:
            import numpy
            numpy_version = numpy.__version__
        except ImportError:
            numpy_version = None
        return {"cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy_version,
                "bulk_ops": type(level.bulk).__name__,
                "field_width": self.oracle.codec.field.width,
                "snapshot_version": self.built["snapshot"]["to_version"],
                "seed": self.seed,
                "git_commit": git_commit()}


# --------------------------------------------------------------- workloads

class Outcome:
    """Counts of one run, the lines it prints, and the metrics it reports."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.errors = 0
        self.impure: list[str] = []
        self.e2e: dict = {}
        self.layers: dict = {}
        self.notes: list[str] = []

    def add(self, *tallies) -> None:
        for tally in tallies:
            self.attempted += tally.attempted
            self.wrong += tally.wrong
            self.errors += tally.errors


def measure_cold(oracle, items, seconds: float, tally, used: list,
                 reference: list) -> tuple:
    """Closed loop of in-process cold ``connected_many`` over ``items``
    (``(faults, pairs, expected)`` triples), appending each one sent to
    ``used`` and, before it, the time of the yardstick loop to
    ``reference``.

    Returns ``(hits, evictions)``: how many requests did not build a new
    session, and how many sessions the cache evicted meanwhile.
    """
    from repro.api import OracleError

    info = oracle.session_cache_info()
    evicted = info["evictions"]
    built = info["size"] + evicted
    hits = 0
    deadline = perf_counter() + seconds
    for item in items:
        if perf_counter() >= deadline:
            break
        faults, pairs, expected = item
        used.append(item)
        reference.append(reference_s())
        tally.attempted += 1
        start = perf_counter()
        try:
            answers = oracle.connected_many(pairs, faults)
        except (KeyError, ValueError, OracleError):
            tally.errors += 1
            continue
        end = perf_counter()
        tally.latencies.append(end - start)
        tally.spans.append((start, end))
        tally.pairs += len(answers)
        info = oracle.session_cache_info()
        now_built = info["size"] + info["evictions"]
        if now_built != built + 1:
            hits += 1
        built = now_built
        if answers != expected:
            tally.wrong += 1
    return hits, info["evictions"] - evicted


def cold_decode(world_: World, seconds: float, trace: bool) -> Outcome:
    import serve
    import tracing
    from repro.api import Oracle

    outcome = Outcome()
    _, _, source, _ = world_.pools(COLD_PREPARED["cold-decode"])
    tally = serve.Tally()
    used: list = []
    reference: list = []
    settle()
    hits, _ = measure_cold(world_.oracle, source, seconds, tally, used,
                           reference)
    outcome.add(tally)
    if hits:
        outcome.impure.append("%d cold-decode requests hit the session cache"
                              % hits)
    scale = REFERENCE_NOMINAL_S / median(reference)
    outcome.e2e = {
        "setup_s": median(c + l for c, l in zip(world_.chain_s,
                                                world_.load_s)),
        "p50_ms": 1000 * median(tally.latencies) * scale,
        "tail_ms": 1000 * quantile(tally.latencies, TAIL_QUANTILE) * scale,
        "peak_rss_mb": peak_rss_self_mb(),
        "snapshot_mb": world_.snapshot_mb,
    }
    outcome.notes.append("cold requests as timed: %s"
                         % describe(tally.latencies))
    outcome.notes.append("yardstick loop: n=%d median %.2f ms; latencies "
                         "scaled by %.4f" % (len(reference),
                                             1000 * median(reference), scale))
    if not trace:
        return outcome
    # The traced pass replays the same fault sets on a fresh oracle, so each
    # request is cold again and pairs with its untraced twin.
    oracle = Oracle.load(str(world_.snapshot))
    recorder, patches = tracing.Recorder(), tracing.Patches()
    tracing.install_decode_stack(recorder, patches, type(oracle))
    traced = serve.Tally()
    try:
        hits, evictions = measure_cold(oracle, itertools.chain(used, source),
                                       seconds, traced, [], [])
    finally:
        patches.undo()
        oracle.close()
    outcome.add(traced)
    if hits:
        outcome.impure.append("%d traced cold-decode requests hit the "
                              "session cache" % hits)
    outcome.notes.append("traced cold requests: %s"
                         % describe(traced.latencies))
    dump = recorder.dump()
    covered = sum(entry["self_s"] for name, entry in dump["spans"].items()
                  if name.split(".")[0] in ("session", "outdetect", "coding",
                                            "gf2"))
    paired = [t / u for t, u in zip(traced.latencies, tally.latencies)]
    outcome.layers = layer_metrics(world_, dump)
    outcome.layers.update({
        "session_cache.hit_rate": hits / max(1, len(traced.latencies)),
        "session_cache.evictions": evictions,
        "client.cold_p50_ms": 1000 * median(traced.latencies),
        "client.pairs_per_s": throughput(traced),
        "trace.overhead_pct": 100 * (median(paired) - 1),
        "trace.coverage_pct": 100 * covered
        / max(1e-9, sum(traced.latencies)),
    })
    return outcome


def churn_serve(world_: World, seconds: float, trace: bool) -> Outcome:
    import serve

    outcome = Outcome()
    hot, hot_truth, source, batches = world_.pools(
        COLD_PREPARED["churn-serve"])
    snapshot_bytes = world_.snapshot.read_bytes()
    token = secrets.token_hex(16)
    server = serve.Server(world_.snapshot, token, world_.snapshot.parent,
                          traced=trace)
    connections: list = []

    def reload() -> tuple:
        serve.rewrite_identical(world_.snapshot, snapshot_bytes)
        start = perf_counter()
        connections[1].reload(token)
        return start, perf_counter()

    def phase() -> tuple:
        """One measured stretch of the workload's traffic."""
        before = connections[0].server_stats()["server"]
        reads, writer = serve.Tally(), serve.Tally()
        reloads: list = []
        done = threading.Event()
        serve.run_threads([
            (serve.warm_reader, (connections[0], hot, batches, hot_truth,
                                 world_.seed * 2 + 1, done, reads)),
            (serve.cold_writer, (connections[1], source, seconds, writer,
                                 RELOAD_AT * seconds, reload, reloads,
                                 done))])
        after = connections[0].server_stats()["server"]
        outcome.add(reads, writer)
        return reads, writer, reloads, before, after

    try:
        connections.extend(serve.connect(server.port) for _ in range(2))
        prewarm = []
        for faults in hot:
            start = perf_counter()
            connections[0].batch_session(faults)
            prewarm.append(perf_counter() - start)
        setup_s = median(world_.chain_s) + server.ready_s + sum(prewarm)
        settle()
        reads, writer, reloads, before, after = phase()
        untraced = reads, writer, reloads
        if trace:
            # A reload leaves only the hottest sets re-warmed: warm all 16
            # again so the traced pass starts where the untraced one did.
            for faults in hot:
                connections[0].batch_session(faults)
            server.start_tracing()
            reads, writer, reloads, before, after = phase()
        peak = server.peak_rss_mb()
    finally:
        for connection in connections:
            connection.close()
        code = server.stop()
    if code != 0:
        raise BenchmarkError("server exited with code %s" % code)

    outcome.notes.append("pre-warm builds: %s" % describe(prewarm))
    passes = [("", untraced)] + ([("traced ", (reads, writer, reloads))]
                                 if trace else [])
    for label, (pass_reads, pass_writer, pass_reloads) in passes:
        outcome.notes.append("%swarm reads: %s; %d end before the reload"
                             % (label, describe(pass_reads.latencies),
                                len(before_reload(pass_reads, pass_reloads))))
        outcome.notes.append(
            "%sconnection B: %s; reloads %s ms; %d reads overlap one"
            % (label, describe(pass_writer.latencies),
               [round(1000 * (end - start)) for start, end in pass_reloads],
               len(overlapping_reload(pass_reads, pass_reloads))))
    # The reload and what follows it are left out: the stall is
    # swap.stall_ms and client.reload_ms.
    untraced_steady = before_reload(untraced[0], untraced[2])
    outcome.e2e = {
        "setup_s": setup_s,
        "p50_ms": 1000 * median(untraced_steady),
        "tail_ms": 1000 * quantile(untraced_steady, TAIL_QUANTILE),
        "peak_rss_mb": peak,
        "snapshot_mb": world_.snapshot_mb,
    }
    if not trace:
        return outcome
    stalled = overlapping_reload(reads, reloads)
    dump = json.loads(server.trace_out.read_text())
    spans = dump["spans"]
    dispatch = after.get("latency_by_op", {}).get("connected_many", {})
    sessions = {key: delta(before, after, key)
                for key in ("hits", "misses", "coalesced")}
    manager = spans.get("server.session_manager", {})
    answer = spans.get("query.answer", {}).get("busy_s", 0.0)
    build = spans.get("server.oracle_session", {}).get("busy_s", 0.0)
    client_p50 = 1000 * median(reads.latencies)
    outcome.layers = layer_metrics(world_, dump)
    outcome.layers.update({
        "session_cache.hit_rate": (sessions["hits"] + sessions["coalesced"])
        / max(1, sum(sessions.values())),
        # A reload restarts the cache's counters with the new oracle.
        "session_cache.evictions": max(0, after["session_cache"]["evictions"]
                                       - before["session_cache"]["evictions"]),
        "server.dispatch.p50_ms": dispatch.get("p50_ms", 0.0),
        "server.dispatch.p99_ms": dispatch.get("p99_ms", 0.0),
        "server.wire.p50_ms": client_p50 - dispatch.get("p50_ms", 0.0),
        "server.parse.self_s": spans.get("server.parse", {}).get("self_s", 0.0),
        "server.encode.self_s":
            spans.get("server.encode", {}).get("self_s", 0.0),
        "server.session_manager.busy_s": manager.get("busy_s", 0.0),
        "server.oracle_answer.busy_s": answer,
        "server.session_build.busy_s": build,
        "server.executor_wait_ms": 1000 * (manager.get("busy_s", 0.0) - answer
                                           - build)
        / max(1, manager.get("calls", 0)),
        "server.sessions.hits": sessions["hits"],
        "server.sessions.misses": sessions["misses"],
        "server.sessions.coalesced": sessions["coalesced"],
        "swap.stall_ms": 1000 * max(stalled, default=0.0),
        "client.cold_p50_ms": 1000 * median(writer.latencies),
        "client.reload_ms": 1000 * median(end - start
                                          for start, end in reloads),
        "client.pairs_per_s": throughput(reads),
        "trace.overhead_pct": 100 * (
            median(before_reload(reads, reloads))
            / max(1e-9, median(untraced_steady)) - 1),
        # Share of the client-observed time of every connected_many (both
        # connections) that the server spent inside its session manager.
        "trace.coverage_pct": 100 * manager.get("busy_s", 0.0)
        / max(1e-9, sum(reads.latencies) + sum(writer.latencies)),
    })
    return outcome


def before_reload(reads, reloads: list) -> list:
    """Latencies of the reads that ended before the reload started."""
    cutoff = min((start for start, _ in reloads), default=float("inf"))
    return [end - start for start, end in reads.spans if end <= cutoff]


def overlapping_reload(reads, reloads: list) -> list:
    """Latencies of the reads that overlap the reload."""
    return [end - start for start, end in reads.spans
            if any(start < r_end and end > r_start
                   for r_start, r_end in reloads)]


def delta(before: dict, after: dict, key: str) -> int:
    return after["sessions"][key] - before["sessions"][key]


def layer_metrics(world_: World, dump: dict) -> dict:
    """The per-layer metrics every workload's traced run reports alike."""
    built = world_.built
    runs = built["runs"]
    spans, counts = dump["spans"], dump["counts"]
    build_spans = built.get("trace", {}).get("spans", {})

    def span(name, field="self_s", source=spans):
        return source.get(name, {}).get(field, 0)

    sessions = span("session.build", "calls")
    sequences = span("coding.berlekamp_massey_many", "items")
    # A layer the workload does not use reports 0.
    layers = dict.fromkeys((name for name, _ in declared("per_layer")), 0)
    layers.update({
        "build.%s_s" % stage: median(run["stage_seconds"][stage]
                                     for run in runs)
        for stage in ("spanning", "hierarchy", "outdetect", "assembly")})
    layers.update({
        "build.peak_mb": median(max(run["stage_peak_bytes"].values(),
                                    default=0) for run in runs) / 1e6,
        "snapshot.save_s": median(run["times"]["save_s"]
                                  + run["times"]["upgrade_s"] for run in runs),
        "snapshot.load_s": median(world_.load_s),
        "label.max_vertex_bits": built["max_vertex_label_bits"],
        "label.max_edge_bits": built["max_edge_label_bits"],
        "session.build.count": sessions,
        "session.build.busy_s": span("session.build", "busy_s"),
        "session.merge.self_s": span("session.build"),
        "session.fragments.mean":
            counts.get("session.fragments", 0) / max(1, sessions),
        "query.answer.busy_s": span("query.answer"),
        "outdetect.decode_many.calls": span("outdetect.decode_many", "calls"),
        "outdetect.decode_many.labels": span("outdetect.decode_many", "items"),
        "outdetect.decode_many.self_s": span("outdetect.decode_many"),
        "outdetect.combine.self_s": span("outdetect.combine"),
        "coding.berlekamp_massey_many.calls":
            span("coding.berlekamp_massey_many", "calls"),
        "coding.berlekamp_massey_many.sequences": sequences,
        "coding.berlekamp_massey_many.self_s":
            span("coding.berlekamp_massey_many"),
        "coding.find_roots_many.calls": span("coding.find_roots_many", "calls"),
        "coding.find_roots_many.polys": span("coding.find_roots_many", "items"),
        "coding.find_roots_many.self_s": span("coding.find_roots_many"),
        "coding.syndrome_of_many.calls":
            span("coding.syndrome_of_many", "calls"),
        "coding.syndrome_of_many.self_s": span("coding.syndrome_of_many"),
        "coding.decode_yield":
            counts.get("outdetect.decoded", 0) / max(1, sequences),
        "swap.load_s": span("swap.load", "busy_s"),
        "swap.rewarm_s": span("swap.rewarm", "busy_s"),
        "swap.rewarmed_sessions": span("swap.rewarm", "items"),
    })
    fields = {"calls": "calls", "elements": "items", "self_s": "self_s"}
    for metric in (name for name, _ in declared("per_layer")
                   if name.startswith("gf2.")):
        prefix, stat = metric.rsplit(".", 1)
        source = build_spans if prefix.startswith("gf2.build.") else spans
        layers[metric] = span(prefix, fields[stat], source)
    return layers


WORKLOADS = {
    "cold-decode": cold_decode,
    "churn-serve": churn_serve,
}


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print("error: %s holds no repro sources (src/repro); run the benchmark "
              "from the root of a checkout" % ROOT, file=sys.stderr)
        return 2
    import world

    for name in world.OVERRIDE_VARS:
        os.environ.pop(name, None)
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        world_ = World(args.seed, workdir, bool(args.trace))
        # A traced run measures two passes (untraced, then traced) of half
        # the seconds each, so it lasts as long as an untraced run.
        outcome = WORKLOADS[args.workload](
            world_, args.seconds / 2 if args.trace else args.seconds,
            bool(args.trace))
        fingerprint = world_.fingerprint()
        world_.oracle.close()
        undeclared = set(outcome.layers) - {name for name, _
                                            in declared("per_layer")}
        if undeclared:
            raise BenchmarkError("per-layer metrics missing from "
                                 "BENCHMARK.json: %s" % sorted(undeclared))
    except BenchmarkError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    report(args, outcome, fingerprint)
    return 0


def report(args, outcome: Outcome, fingerprint: dict) -> None:
    failed = outcome.wrong + outcome.errors
    error_rate = failed / max(1, outcome.attempted)
    print("fingerprint %s" % json.dumps(fingerprint, sort_keys=True))
    print("workload %s seed %d seconds %g trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for note in outcome.notes:
        print("  %s" % note)
    kind = TIMED[args.workload]
    meaning = {"p50_ms": "p50 of %s requests" % kind,
               "tail_ms": "p%g of %s requests" % (100 * TAIL_QUANTILE, kind)}
    for name, unit in declared("end_to_end"):
        print("  e2e %-12s %14.4f %s  %s" % (name, outcome.e2e[name], unit,
                                             meaning.get(name, "")))
    print("  e2e %-12s %14.4f fraction  %d wrong, %d typed errors, "
          "%d attempted" % ("error_rate", error_rate, outcome.wrong,
                            outcome.errors, outcome.attempted))
    for problem in outcome.impure:
        print("  PURITY VIOLATION: %s" % problem)
    if args.trace:
        outcome.layers["client.error_rate"] = error_rate
        for name, unit in declared("per_layer"):
            print("  layer %-44s %14.6g %s" % (name, outcome.layers[name],
                                               unit))
        metrics = {name: {"value": outcome.layers[name], "unit": unit}
                   for name, unit in declared("per_layer")}
    else:
        metrics = {name: {"value": outcome.e2e[name], "unit": unit}
                   for name, unit in declared("end_to_end")}
    print(json.dumps({"correct": failed == 0 and not outcome.impure,
                      "attempted": outcome.attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
