"""End-to-end tests of the f-FTC labeling schemes against BFS ground truth."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (FTCConfig, FTCLabeling, FTConnectivityOracle, SchemeVariant)
from repro.graphs import Graph
from repro.hierarchy.config import ThresholdRule


def random_connected_graph(n, m, seed):
    nx_graph = nx.gnm_random_graph(n, m, seed=seed)
    if not nx.is_connected(nx_graph):
        nx_graph = nx.connected_watts_strogatz_graph(n, 4, 0.3, seed=seed)
    return Graph.from_networkx(nx_graph)


def audit(labeling, graph, num_queries, max_faults, seed, use_fast_engine=True):
    rng = random.Random(seed)
    edges = sorted(graph.edges())
    vertices = sorted(graph.vertices())
    mismatches = []
    for _ in range(num_queries):
        fault_count = rng.randint(0, max_faults)
        faults = rng.sample(edges, min(fault_count, len(edges)))
        s, t = rng.sample(vertices, 2)
        expected = graph.connected(s, t, removed=faults)
        answer = labeling.connected(s, t, faults, use_fast_engine=use_fast_engine)
        if answer != expected:
            mismatches.append((s, t, faults, expected, answer))
    return mismatches


# ----------------------------------------------------------------- construction

def test_config_validation():
    with pytest.raises(ValueError):
        FTCConfig(max_faults=0)


def test_rejects_disconnected_graph():
    graph = Graph([(0, 1)], vertices=[0, 1, 2])
    with pytest.raises(ValueError):
        FTCLabeling(graph, FTCConfig(max_faults=1))


def test_rejects_query_with_too_many_faults():
    graph = random_connected_graph(10, 20, seed=1)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=1))
    edges = sorted(graph.edges())[:2]
    with pytest.raises(ValueError):
        labeling.connected(0, 1, edges)


def test_unknown_vertex_and_edge_raise():
    graph = random_connected_graph(10, 20, seed=2)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=1))
    with pytest.raises(KeyError):
        labeling.vertex_label(99)
    with pytest.raises(KeyError):
        labeling.edge_label(0, 99)


def test_label_size_stats_shape():
    graph = random_connected_graph(15, 35, seed=3)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    stats = labeling.label_size_stats()
    assert stats["n"] == 15
    assert stats["max_vertex_label_bits"] > 0
    assert stats["max_edge_label_bits"] >= stats["max_vertex_label_bits"]
    assert stats["hierarchy"]["depth"] >= 1
    assert stats["construction_seconds"] >= 0


def test_tree_input_has_trivial_hierarchy():
    nx_tree = nx.random_labeled_tree(12, seed=4)
    graph = Graph.from_networkx(nx_tree)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    # A tree has no non-tree edges; every fault genuinely disconnects.
    edges = sorted(graph.edges())
    for edge in edges[:5]:
        u, v = edge
        assert labeling.connected(u, v, [edge]) is False
        assert labeling.connected(u, v, []) is True


# ----------------------------------------------------------- exhaustive (small)

def test_exhaustive_small_graph_all_fault_pairs():
    """Full query support: every (s, t, F) with |F| <= 2 on a small graph."""
    graph = random_connected_graph(8, 14, seed=5)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    decoder = labeling.decoder()
    edges = sorted(graph.edges())
    vertices = sorted(graph.vertices())
    fault_sets = [()] + [(e,) for e in edges] + list(itertools.combinations(edges, 2))
    for faults in fault_sets:
        fault_labels = [labeling.edge_label(u, v) for u, v in faults]
        for s, t in itertools.combinations(vertices, 2):
            expected = graph.connected(s, t, removed=faults)
            answer = decoder.connected(labeling.vertex_label(s), labeling.vertex_label(t),
                                       fault_labels)
            assert answer == expected, (s, t, faults)


# --------------------------------------------------------------- variant sweeps

@pytest.mark.parametrize("variant", [SchemeVariant.DETERMINISTIC_NEARLINEAR,
                                     SchemeVariant.DETERMINISTIC_POLY,
                                     SchemeVariant.RANDOMIZED_FULL])
def test_hierarchy_variants_agree_with_ground_truth(variant):
    graph = random_connected_graph(18, 40, seed=6)
    config = FTCConfig(max_faults=3, variant=variant)
    labeling = FTCLabeling(graph, config)
    assert audit(labeling, graph, num_queries=60, max_faults=3, seed=7) == []


@pytest.mark.parametrize("rule", [ThresholdRule.PAPER, ThresholdRule.PRACTICAL])
def test_threshold_rules_agree_with_ground_truth(rule):
    graph = random_connected_graph(20, 50, seed=8)
    config = FTCConfig(max_faults=2, threshold_rule=rule)
    labeling = FTCLabeling(graph, config)
    assert audit(labeling, graph, num_queries=60, max_faults=2, seed=9) == []


def test_sketch_full_variant_mostly_correct():
    graph = random_connected_graph(16, 36, seed=10)
    config = FTCConfig(max_faults=2, variant=SchemeVariant.SKETCH_FULL, random_seed=3)
    labeling = FTCLabeling(graph, config)
    mismatches = audit(labeling, graph, num_queries=60, max_faults=2, seed=11)
    # The sketch scheme is randomized; with full-support repetitions errors
    # should be absent or extremely rare on an instance of this size.
    assert len(mismatches) <= 1


def test_basic_and_fast_engines_agree():
    graph = random_connected_graph(20, 45, seed=12)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=3))
    rng = random.Random(13)
    edges = sorted(graph.edges())
    vertices = sorted(graph.vertices())
    for _ in range(40):
        faults = rng.sample(edges, 3)
        s, t = rng.sample(vertices, 2)
        fast = labeling.connected(s, t, faults, use_fast_engine=True)
        basic = labeling.connected(s, t, faults, use_fast_engine=False)
        assert fast == basic == graph.connected(s, t, removed=faults)


def test_compact_and_full_edge_ids_agree():
    graph = random_connected_graph(14, 30, seed=14)
    for mode in ("compact", "full"):
        labeling = FTCLabeling(graph, FTCConfig(max_faults=2, edge_id_mode=mode))
        assert audit(labeling, graph, num_queries=40, max_faults=2, seed=15) == []


# ---------------------------------------------------------------------- oracle

def test_oracle_audit_perfect_for_deterministic():
    graph = random_connected_graph(15, 34, seed=16)
    oracle = FTConnectivityOracle(graph, max_faults=2)
    rng = random.Random(17)
    edges = sorted(graph.edges())
    vertices = sorted(graph.vertices())
    queries = []
    for _ in range(50):
        faults = rng.sample(edges, rng.randint(0, 2))
        s, t = rng.sample(vertices, 2)
        queries.append((s, t, faults))
    report = oracle.audit(queries)
    assert report["disagree"] == 0
    assert report["failures"] == 0
    assert report["accuracy"] == 1.0
    assert oracle.queries_answered == 50


def test_oracle_config_mismatch_rejected():
    graph = random_connected_graph(10, 20, seed=18)
    with pytest.raises(TypeError):
        FTConnectivityOracle(graph, max_faults=2, config=FTCConfig(max_faults=3))


def test_oracle_audit_surfaces_programming_errors():
    """``audit`` counts only benign ``QueryFailure`` as a failure; genuine
    defects (KeyError, TypeError, ...) must propagate to the caller."""
    from repro.core.query import QueryFailure

    graph = random_connected_graph(10, 20, seed=19)
    oracle = FTConnectivityOracle(graph, max_faults=2)
    vertices = sorted(graph.vertices())
    queries = [(vertices[0], vertices[1], [])]

    oracle.connected = lambda s, t, faults=(): (_ for _ in ()).throw(KeyError("bug"))
    with pytest.raises(KeyError):
        oracle.audit(queries)

    oracle.connected = lambda s, t, faults=(): (_ for _ in ()).throw(QueryFailure("whp miss"))
    report = oracle.audit(queries)
    assert report["failures"] == 1
    assert report["disagree"] == 0


# --------------------------------------------------------------- property tests

@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_ftc_property_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(8, 16)
    m = rng.randint(n, min(2 * n, n * (n - 1) // 2))
    graph = random_connected_graph(n, m, seed=seed)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    assert audit(labeling, graph, num_queries=25, max_faults=2, seed=seed + 1) == []


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_ftc_property_fault_on_bridge(seed):
    """Faults on tree/bridge edges (the hard case: disconnections must be found)."""
    rng = random.Random(seed)
    # A path with a few extra chords: most edges are bridges.
    n = rng.randint(8, 14)
    nx_graph = nx.path_graph(n)
    for _ in range(rng.randint(1, 3)):
        u, v = rng.sample(range(n), 2)
        if u != v:
            nx_graph.add_edge(u, v)
    graph = Graph.from_networkx(nx_graph)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    assert audit(labeling, graph, num_queries=25, max_faults=2, seed=seed + 2) == []
