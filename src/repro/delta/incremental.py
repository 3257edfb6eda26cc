"""Incremental rebuilds: patch a base labeling instead of starting over.

The outdetect labels are XOR sums of per-edge parity rows, so a level whose
structural parameters survive a graph edit (same threshold, same field, same
vertex set) can be patched: XOR out the rows of the removed edges, XOR in the
rows of the added ones, and the result is *exactly* the matrix a from-scratch
build would produce — XOR associativity is the byte-identity guarantee.

What can break that locality is the spanning-tree-derived structure: edge
identifiers come from the ancestry labeling of the rooted spanning tree
(:mod:`repro.core.transform`), so an edit that changes the tree (or the
identifier codec's width) re-identifies *every* edge and the "patch" would be
larger than the rebuild.  :func:`incremental_labeling` therefore decides per
level: patch when the changed-edge set is small, let the plan build the level
from its edges when it is not — either way the resulting labeling
(and its snapshot) is byte-identical to a from-scratch build, only the work
differs.  ``build_report.reused_level_count`` says which path each level took.

Sketch variants (randomized, single global level) are never patched; they run
the normal plan.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.build.plan import BuildPlan, BuildResult
from repro.core.config import FTCConfig
from repro.core.ftc import FTCLabeling
from repro.graphs.graph import Graph, _vertex_key, canonical_edge

#: A level is patched only when the changed-edge set is this much smaller
#: than the level's full edge set — past that, scratch construction is both
#: simpler and cheaper (patching touches two rows per changed edge; a scratch
#: build touches two rows per level edge).
REUSE_MAX_CHANGED_FRACTION = 0.5


def plan_edge_diff(base_graph: Graph, target_graph: Graph) -> dict:
    """The canonical edge/vertex diff between two graphs (a summary dict).

    Deterministically ordered (the library's vertex sort order), so reports
    and tests see stable lists.
    """
    base_edges = set(base_graph.edges())
    target_edges = set(target_graph.edges())
    base_vertices = set(base_graph.vertices())
    target_vertices = set(target_graph.vertices())
    edge_key = lambda e: (_vertex_key(e[0]), _vertex_key(e[1]))  # noqa: E731
    return {
        "added_edges": sorted(target_edges - base_edges, key=edge_key),
        "removed_edges": sorted(base_edges - target_edges, key=edge_key),
        "added_vertices": sorted(target_vertices - base_vertices,
                                 key=_vertex_key),
        "removed_vertices": sorted(base_vertices - target_vertices,
                                   key=_vertex_key),
    }


def apply_edge_diff(base_graph: Graph, add_edges: Iterable = (),
                    remove_edges: Iterable = ()) -> Graph:
    """The target graph of an edge-list diff (copy, remove, add).

    Raises :class:`KeyError` when a removed edge is not present, mirroring
    :meth:`~repro.graphs.graph.Graph.remove_edge`.
    """
    graph = base_graph.copy()
    for u, v in remove_edges:
        graph.remove_edge(u, v)
    for u, v in add_edges:
        graph.add_edge(u, v)
    return graph


def incremental_labeling(base: FTCLabeling, graph: Graph | None = None, *,
                         add_edges: Iterable = (),
                         remove_edges: Iterable = ()) -> FTCLabeling:
    """Build the labeling of an edited graph, reusing the base where possible.

    ``graph`` is the full target graph; alternatively pass the edit itself
    (``add_edges`` / ``remove_edges`` against ``base.graph``).  The returned
    labeling — and therefore its ``FTCS`` snapshot — is byte-identical to
    ``FTCLabeling(graph, base.config)`` built from scratch; per-level
    construction is skipped wherever the base level's matrix can be patched
    (``build_report.reused_level_count`` reports how often that happened).
    """
    if graph is None:
        graph = apply_edge_diff(base.graph, add_edges, remove_edges)
    elif list(add_edges) or list(remove_edges):
        raise ValueError("pass either a target graph or an edge diff, not both")
    config: FTCConfig = base.config
    plan = BuildPlan(graph, config)
    result: BuildResult = plan.run(level_reuse=_level_reuse_hook(base))
    return FTCLabeling.from_build_result(graph, config, result)


def _level_reuse_hook(base: FTCLabeling) -> Any:
    """The :data:`~repro.build.plan.LevelReuseHook` patching ``base``'s levels."""
    base_levels = getattr(base.outdetect, "level_schemes", None)

    def reuse(level_index: int, threshold: int, edge_ids: dict,
              vertices: list, field: Any) -> list | None:
        if base_levels is None or level_index >= len(base_levels):
            return None
        scheme = base_levels[level_index]
        if scheme.threshold != threshold:
            return None
        if scheme.field.width != getattr(field, "width", None) or \
                scheme.field.modulus != getattr(field, "modulus", None):
            return None
        base_labels = scheme._labels
        base_ids = scheme.edge_ids
        delta_items: list = []
        for edge, identifier in edge_ids.items():
            base_id = base_ids.get(edge)
            if base_id is None:
                delta_items.append((edge, identifier))
            elif base_id != identifier:
                # XOR symmetry: one row cancels the stale identifier, the
                # other installs the new one.
                delta_items.append((edge, base_id))
                delta_items.append((edge, identifier))
        for edge, base_id in base_ids.items():
            if edge not in edge_ids:
                delta_items.append((edge, base_id))
        zero_row = [0] * (2 * threshold)
        if not delta_items:
            return [list(base_labels.get(vertex, zero_row))
                    for vertex in vertices]
        if len(delta_items) > REUSE_MAX_CHANGED_FRACTION * len(edge_ids):
            return None  # locality broke; scratch construction is cheaper
        # A graph edit renames the subdivision leaves of the changed edges,
        # so the level's vertex set drifts with the edit: a vertex new to
        # this level starts from the zero row (all its incident level edges
        # are delta additions), and removals may reference base-only
        # vertices — the delta matrix is computed over the union and
        # truncated back to the target rows.
        extended = list(vertices)
        known = set(vertices)
        for (u, v), _ in delta_items:
            for endpoint in (u, v):
                if endpoint not in known:
                    known.add(endpoint)
                    extended.append(endpoint)
        delta_rows = scheme.label_matrix(extended, delta_items)
        patched = []
        for vertex, delta_row in zip(vertices, delta_rows):
            row = list(base_labels.get(vertex, zero_row))
            scheme.bulk.xor_accumulate(row, [delta_row])
            patched.append(row)
        return patched

    return reuse


__all__ = [
    "REUSE_MAX_CHANGED_FRACTION",
    "apply_edge_diff",
    "incremental_labeling",
    "plan_edge_diff",
]
