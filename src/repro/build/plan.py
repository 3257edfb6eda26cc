"""The staged construction plan behind every labeling build.

:class:`BuildPlan` decomposes what used to be a monolithic
``FTCLabeling.__init__`` into four explicit stages:

``spanning``
    Root a spanning tree and build the transformed instance (G', T', sigma,
    ancestry labels, edge identifiers) — Section 5, steps 1 and 4.
``hierarchy``
    Build the sparsification hierarchy (deterministic or randomized); the
    Dory--Parter sketch baselines have none.
``outdetect``
    Build every per-level outdetect label matrix: one
    :class:`~repro.outdetect.rs_threshold.RSThresholdOutdetect` per
    hierarchy level, or the single
    :class:`~repro.outdetect.sketch.SketchOutdetect` of the sketch variants.
``assembly``
    Ancestry labels and the tree-edge scheme (subtree XOR sums) — the
    sequential wrap-up that consumes the outdetect labels.

:meth:`BuildPlan.run` returns a :class:`BuildResult` carrying the built
pieces plus a :class:`BuildReport` (per-stage wall time and peak memory,
level counts).  Peak memory comes from
:class:`repro.obs.memory.PeakMemoryMeter`: exact per-stage peaks when the
caller has ``tracemalloc`` tracing enabled, else the process RSS high-water
mark (monotone across stages — under the RSS probe a later stage's peak is
at least every earlier stage's).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Hashable, Optional

from repro.obs.memory import PeakMemoryMeter
from repro.core.config import FTCConfig, SchemeVariant
from repro.core.transform import TransformedInstance, build_transformed_instance
from repro.core.tree_scheme import TreeEdgeLabeling
from repro.graphs.graph import Graph
from repro.hierarchy.base import EdgeHierarchy
from repro.hierarchy.config import HierarchyConfig
from repro.hierarchy.deterministic import build_deterministic_hierarchy
from repro.hierarchy.randomized import build_randomized_hierarchy
from repro.outdetect.base import OutdetectScheme
from repro.outdetect.layered import LayeredOutdetect
from repro.outdetect.rs_threshold import RSThresholdOutdetect
from repro.outdetect.sketch import SketchOutdetect

Vertex = Hashable

#: The incremental-build seam (:mod:`repro.delta`): called per layered-RS
#: level with ``(level_index, threshold, edge_ids, vertices, field)``; a
#: non-``None`` return is adopted as that level's complete label matrix.
LevelReuseHook = Callable[[int, int, dict, list, object], Optional[list]]

#: Stage names, in execution order (the keys of ``BuildReport.stage_seconds``).
STAGES = ("spanning", "hierarchy", "outdetect", "assembly")


@dataclass(frozen=True)
class BuildReport:
    """What one build did and how long each stage took.

    ``level_count`` counts the outdetect levels (one for the sketch
    variants).

    ``stage_peak_bytes`` maps each stage to its peak-memory reading (bytes),
    measured by the probe named in ``memory_probe`` (``"tracemalloc"``,
    ``"rss"``, or ``"unavailable"`` — empty dict in the last case).  The RSS
    probe reads the process high-water mark, so its per-stage values are
    monotone non-decreasing rather than independent peaks.
    """

    level_count: int
    stage_seconds: dict = dataclass_field(default_factory=dict)
    total_seconds: float = 0.0
    stage_peak_bytes: dict = dataclass_field(default_factory=dict)
    memory_probe: str = "unavailable"
    #: Levels whose label matrix came from a ``level_reuse`` hook instead of
    #: being built from their edges (the incremental path of
    #: :mod:`repro.delta`).
    reused_level_count: int = 0

    def to_dict(self) -> dict:
        """A JSON-ready view (what the CLI prints under ``build_report``)."""
        return {
            "level_count": self.level_count,
            "stage_seconds": dict(self.stage_seconds),
            "total_seconds": self.total_seconds,
            "stage_peak_bytes": dict(self.stage_peak_bytes),
            "memory_probe": self.memory_probe,
            "reused_level_count": self.reused_level_count,
        }


@dataclass
class BuildResult:
    """Everything :class:`~repro.core.ftc.FTCLabeling` needs, plus the report."""

    instance: TransformedInstance
    hierarchy: EdgeHierarchy | None
    outdetect: OutdetectScheme
    tree_labeling: TreeEdgeLabeling
    report: BuildReport


class BuildPlan:
    """Staged construction of one labeling for one ``(graph, config)``.

    The plan validates its inputs eagerly (same errors the old constructor
    raised), then :meth:`run` executes the stages in order on the calling
    thread.  Plans are single-use descriptions — build twice by creating two
    plans.
    """

    def __init__(self, graph: Graph, config: FTCConfig, root: Vertex | None = None):
        if not isinstance(config, FTCConfig):
            raise TypeError("config must be an FTCConfig, got %r"
                            % type(config).__name__)
        if graph.num_vertices() < 1:
            raise ValueError("the input graph must have at least one vertex")
        if not graph.is_connected():
            raise ValueError("the input graph must be connected "
                             "(run one labeling per connected component)")
        self.graph = graph
        self.config = config
        self.root = root

    # ------------------------------------------------------------------ stages

    def run(self, level_reuse: LevelReuseHook | None = None) -> BuildResult:
        """Execute all four stages and return the result + report.

        ``level_reuse`` is the incremental-build seam (:mod:`repro.delta`):
        called once per layered-RS level with ``(level_index, threshold,
        edge_ids, vertices, field)``, it may return a complete label matrix
        for that level — which is adopted verbatim, skipping the level's
        construction — or ``None`` to build the level from scratch.  Sketch
        variants ignore the hook (their single level is global).  An adopted
        matrix must equal what building the level from its edges would
        produce, which callers guarantee by patching a base matrix with the
        XOR contributions of the changed edges only (Proposition 2: a vertex
        label is the XOR of its incident edges' parity-check rows).
        """
        stage_seconds: dict[str, float] = {}
        stage_peak: dict[str, int] = {}
        meter = PeakMemoryMeter()
        start = time.perf_counter()

        stage_start = time.perf_counter()
        meter.start_phase()
        instance = build_transformed_instance(
            self.graph, root=self.root, edge_id_mode=self.config.edge_id_mode)
        _record_peak(stage_peak, "spanning", meter)
        stage_seconds["spanning"] = time.perf_counter() - stage_start

        stage_start = time.perf_counter()
        meter.start_phase()
        hierarchy = self._build_hierarchy(instance)
        _record_peak(stage_peak, "hierarchy", meter)
        stage_seconds["hierarchy"] = time.perf_counter() - stage_start

        stage_start = time.perf_counter()
        meter.start_phase()
        outdetect, level_count, reused_levels = \
            self._build_outdetect(instance, hierarchy, level_reuse)
        _record_peak(stage_peak, "outdetect", meter)
        stage_seconds["outdetect"] = time.perf_counter() - stage_start

        stage_start = time.perf_counter()
        meter.start_phase()
        tree_labeling = TreeEdgeLabeling(instance, outdetect)
        _record_peak(stage_peak, "assembly", meter)
        stage_seconds["assembly"] = time.perf_counter() - stage_start

        report = BuildReport(
            level_count=level_count,
            stage_seconds=stage_seconds,
            total_seconds=time.perf_counter() - start,
            stage_peak_bytes=stage_peak,
            memory_probe=meter.probe,
            reused_level_count=reused_levels,
        )
        return BuildResult(instance=instance, hierarchy=hierarchy,
                           outdetect=outdetect, tree_labeling=tree_labeling,
                           report=report)

    def _build_hierarchy(self, instance: TransformedInstance) -> EdgeHierarchy | None:
        """Stage 2: the sparsification hierarchy (``None`` for sketch variants)."""
        config = self.config
        if not config.variant.uses_hierarchy:
            return None
        hierarchy_config = HierarchyConfig(
            max_faults=config.max_faults,
            rule=config.threshold_rule,
            net_algorithm=config.net_algorithm,
            random_seed=config.random_seed,
        )
        if config.variant is SchemeVariant.RANDOMIZED_FULL:
            return build_randomized_hierarchy(instance.non_tree_edges, hierarchy_config)
        return build_deterministic_hierarchy(
            instance.non_tree_edges, instance.tour, hierarchy_config)

    def _build_outdetect(self, instance: TransformedInstance,
                         hierarchy: EdgeHierarchy | None,
                         level_reuse: LevelReuseHook | None = None) -> tuple:
        """Stage 3: build every outdetect level.

        Returns ``(scheme, level_count, reused_level_count)``.  A level whose
        matrix the ``level_reuse`` hook supplies is adopted as is; every
        other level is built directly from its edges.
        """
        config = self.config
        vertices = list(instance.auxiliary.tree_prime.vertices())
        if hierarchy is None:
            scheme = SketchOutdetect(
                vertices, instance.edge_ids,
                repetitions=config.effective_sketch_repetitions(),
                seed=config.random_seed)
            return scheme, 1, 0
        field = instance.codec.field
        levels: list[tuple[int, dict]]
        if not hierarchy.levels:
            # A tree has no non-tree edges; a single trivial level keeps the
            # layered machinery uniform.
            levels = [(1, {})]
        else:
            levels = [(threshold,
                       {edge: instance.edge_ids[edge] for edge in level_edges})
                      for level_edges, threshold in zip(hierarchy.levels,
                                                        hierarchy.thresholds)]
        level_schemes: list[RSThresholdOutdetect] = []
        reused = 0
        for level_index, (threshold, edge_ids) in enumerate(levels):
            matrix = None if level_reuse is None else level_reuse(
                level_index, threshold, edge_ids, vertices, field)
            if matrix is None:
                level_schemes.append(RSThresholdOutdetect(
                    field, threshold, vertices, edge_ids,
                    adaptive=config.adaptive_decoding))
            else:
                reused += 1
                level_schemes.append(RSThresholdOutdetect.from_label_matrix(
                    field, threshold, vertices, edge_ids, matrix,
                    adaptive=config.adaptive_decoding))
        return LayeredOutdetect(level_schemes), len(levels), reused


def _record_peak(stage_peak: dict, stage: str, meter: PeakMemoryMeter) -> None:
    """File one stage's peak-memory reading, skipping unavailable probes."""
    peak = meter.end_phase()
    if peak is not None:
        stage_peak[stage] = peak


__all__ = ["STAGES", "BuildPlan", "BuildReport", "BuildResult",
           "LevelReuseHook"]
