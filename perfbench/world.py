"""The benchmark's world: one graph, its snapshot, and the inputs sent to it.

The world is an Erdos-Renyi graph (n=300, density 2.5) labeled for f=4
faults with the deterministic near-linear scheme on the default GF(2^w)
backend.  Everything here is a pure function of the seed, so one seed always
gives the same graph, fault sets, vertex pairs and ground truth.

Run as a script, this module is the set-up builder: it reads the edge list,
builds the labeling through ``repro.api``, saves the snapshot and rewrites
it in the version-2 (mmap) layout, several times over, and prints one JSON
object with every stage's time.  It runs in its own process so the serving
side's peak memory never includes a build.

    python3 perfbench/world.py --edges DIR/world.edges --out DIR/world.ftcs \\
        [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import deque
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

GRAPH_N = 300
GRAPH_DENSITY = 2.5
MAX_FAULTS = 4
VARIANT = "det-nearlinear"
PAIRS_PER_REQUEST = 50

#: How many times set-up builds the snapshot (and loads it); ``setup_s`` is
#: the median.
SETUP_REPEATS = 5

#: Environment overrides the benchmark never lets through: the world runs on
#: the default backend and the default build executor.
OVERRIDE_VARS = ("REPRO_GF2_BACKEND", "REPRO_BUILD_EXECUTOR")


class BenchmarkError(RuntimeError):
    """The run cannot produce a valid result."""


def clean_environment() -> dict:
    """``os.environ`` without backend/executor overrides, with ``src`` on
    ``PYTHONPATH`` -- the environment of every child process."""
    env = {key: value for key, value in os.environ.items()
           if key not in OVERRIDE_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def write_edge_list(seed: int, path: Path):
    """Generate the seed's graph, write it as an edge list and read it back.

    The returned graph is the one every later step sees: its vertex ids are
    the edge list's strings, exactly as ``repro`` builds and serves them.
    """
    from repro.graphs.graph import read_edge_list
    from repro.workloads import GraphFamily, make_graph

    graph = make_graph(GraphFamily.ERDOS_RENYI, GRAPH_N, seed=seed,
                       density=GRAPH_DENSITY)
    lines = ["%s %s" % edge for edge in sorted(graph.edges())]
    path.write_text("\n".join(lines) + "\n")
    return read_edge_list(path)


class FaultSource:
    """Endless pairwise-distinct tree-biased fault sets of ``MAX_FAULTS`` edges.

    A set drawn twice would be a session-cache hit, so every set is new.
    Each comes with its pair batch (set ``i`` gets ``batches[i mod len]``)
    and the true answers, computed when the set is drawn: by :meth:`prepare`
    during set-up, or in chunks between requests should a run outgrow it.
    """

    CHUNK = 256

    def __init__(self, graph, seed: int, batches: list):
        self.graph = graph
        self.seed = seed
        self.batches = batches
        self._seen: set = set()
        self._draws = 0
        self._issued = 0
        self._ready: deque = deque()

    def prepare(self, count: int) -> None:
        from repro.workloads import FaultModel, sample_fault_sets

        while len(self._ready) < count:
            drawn = sample_fault_sets(self.graph, self.CHUNK, MAX_FAULTS,
                                      FaultModel.TREE_BIASED,
                                      seed=self.seed * 7919 + self._draws)
            self._draws += 1
            for faults in drawn:
                key = frozenset(frozenset(edge) for edge in faults)
                if key in self._seen:
                    continue
                self._seen.add(key)
                pairs = self.batches[self._issued % len(self.batches)]
                self._issued += 1
                truth = expected_answers(components(self.graph, faults), pairs)
                self._ready.append(([list(edge) for edge in faults], pairs,
                                    truth))

    def take(self, count: int) -> list:
        self.prepare(count)
        return [self._ready.popleft() for _ in range(count)]

    def __iter__(self):
        return self

    def __next__(self) -> tuple:
        if not self._ready:
            self.prepare(self.CHUNK)
        return self._ready.popleft()


def components(graph, faults) -> dict:
    """Ground truth: vertex -> component id of ``graph`` minus ``faults``,
    by breadth-first search."""
    removed = {(u, v) for u, v in faults} | {(v, u) for u, v in faults}
    component: dict = {}
    for source in graph.vertices():
        if source in component:
            continue
        component[source] = source
        queue = deque([source])
        while queue:
            vertex = queue.popleft()
            for neighbor in graph.neighbors(vertex):
                if neighbor not in component and \
                        (vertex, neighbor) not in removed:
                    component[neighbor] = source
                    queue.append(neighbor)
    return component


def pair_batches(graph, seed: int, count: int) -> list:
    """``count`` batches of ``PAIRS_PER_REQUEST`` random vertex pairs."""
    rng = random.Random(seed * 104729 + 17)
    vertices = sorted(graph.vertices())
    return [[[rng.choice(vertices), rng.choice(vertices)]
             for _ in range(PAIRS_PER_REQUEST)] for _ in range(count)]


def expected_answers(component: dict, pairs) -> list:
    return [component[s] == component[t] for s, t in pairs]


# ------------------------------------------------------------------ builder

def build_once(edges: Path, out: Path, scratch: Path) -> dict:
    """edge list -> build -> save -> v2 rewrite, each stage timed."""
    from repro.api import Oracle, upgrade_snapshot
    from repro.graphs.graph import read_edge_list

    times = {}
    start = perf_counter()
    graph = read_edge_list(edges)
    times["read_s"] = perf_counter() - start
    start = perf_counter()
    oracle = Oracle.build(graph, max_faults=MAX_FAULTS, variant=VARIANT)
    times["build_s"] = perf_counter() - start
    start = perf_counter()
    oracle.save(scratch)
    times["save_s"] = perf_counter() - start
    start = perf_counter()
    summary = upgrade_snapshot(scratch, out)
    times["upgrade_s"] = perf_counter() - start
    scratch.unlink()
    return {"times": times, "oracle": oracle, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true",
                        help="add one traced build for the gf2.build spans")
    args = parser.parse_args(argv)
    scratch = args.out.with_name(args.out.name + ".v1")
    runs = []
    for _ in range(SETUP_REPEATS):
        run = build_once(args.edges, args.out, scratch)
        oracle = run.pop("oracle")
        report = oracle.build_report.to_dict()
        run["stage_seconds"] = report["stage_seconds"]
        run["stage_peak_bytes"] = report["stage_peak_bytes"]
        runs.append(run)
    labels = oracle.label_size_stats()
    result = {"runs": runs,
              "snapshot": run["summary"],
              "max_vertex_label_bits": labels["max_vertex_label_bits"],
              "max_edge_label_bits": labels["max_edge_label_bits"]}
    if args.trace:
        import tracing

        recorder = tracing.Recorder(phase="build")
        patches = tracing.Patches()
        tracing.install_decode_stack(recorder, patches)
        build_once(args.edges, args.out, scratch)
        patches.undo()
        result["trace"] = recorder.dump()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
