"""The one build path (:mod:`repro.build`).

Label construction runs as one staged serial plan, so nothing else in the
suite would notice a change to construction that alters label bytes.  The
golden digests below pin the SHA-256 of ``to_snapshot_bytes()`` — every
vertex label, edge label and outdetect parameter — for every
:class:`~repro.core.config.SchemeVariant` on two small fixed graphs; they
must hold on every GF(2^w) backend, with or without numpy.  Also covered:
the staged :class:`~repro.build.plan.BuildReport`, the
:func:`~repro.build.build_labeling` facade, the entry points that refuse
the removed ``jobs=`` / ``--jobs`` construction options, the one parallel
path left (process-pool session construction), and the XOR-partition
property the incremental rebuild of :mod:`repro.delta` patches levels by.
"""

import hashlib
import json

import pytest

from repro.api import Oracle
from repro.build import STAGES, BuildPlan, BuildReport, build_labeling
from repro.core.config import FTCConfig, SchemeVariant
from repro.core.ftc import FTCLabeling
from repro.workloads import GraphFamily, make_graph

#: ``(family, n, max_faults)`` of the two golden graphs (graph seed 7).
GOLDEN_GRAPHS = {
    "er": (GraphFamily.ERDOS_RENYI, 120, 3),
    "grid": (GraphFamily.GRID, 64, 2),
}

#: SHA-256 of ``FTCLabeling(graph, FTCConfig(max_faults, variant))
#: .to_snapshot_bytes()``, computed with the sharded build this serial path
#: replaced.
GOLDEN_DIGESTS = {
    ("er", "det-nearlinear"):
        "f38c1eb9af99136576bfe01b3f3e7b9019ddabc82ba31842ebdb078e32f332c9",
    ("er", "det-poly"):
        "e2e863aa4d1f493e4b3140daa0f2014b6000f26f6b97a93fa618ee0c97baffc4",
    ("er", "rand-full"):
        "58a39e6b3af5eeedd1338b60d2cd95121e3576cb840e6cf6084ea42d359c52f0",
    ("er", "sketch-whp"):
        "6a9ed79ee16162e984e2b93cd7adbeb15f6c577f9797aee98fdfa5d9d784fed9",
    ("er", "sketch-full"):
        "d35bfe935c1f1d041e1894defb73b4ead4bd65a9cdf3cc8d57817189bd163493",
    ("grid", "det-nearlinear"):
        "2581a570b2f28d4630160cc07691e12106e768824ab253c8662cf4412ad1a614",
    ("grid", "det-poly"):
        "837b87b237f306333e77448b2252fca45972e047e7626fdfadd70a470ace3425",
    ("grid", "rand-full"):
        "b4df045de801fa7260a778a7f3999e35fc4d335c3d4e194c29ebadfc932ffc38",
    ("grid", "sketch-whp"):
        "c2a8121c66a3e12322fb0d8f7b17cd33f2f55bafda13f4cfe208a107b4c3a1e5",
    ("grid", "sketch-full"):
        "858b958b3bb1f6f071b98227ca46723545622168e26b4ad7a9045faee3c256cf",
}


@pytest.fixture(scope="module")
def graphs():
    return {"er": make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=5)}


@pytest.fixture(scope="module")
def golden_graphs():
    return {name: make_graph(family, n=n, seed=7)
            for name, (family, n, _) in GOLDEN_GRAPHS.items()}


# ---------------------------------------------------------- golden digests

@pytest.mark.parametrize("graph_name,variant", sorted(GOLDEN_DIGESTS),
                         ids=["%s-%s" % key for key in sorted(GOLDEN_DIGESTS)])
def test_golden_snapshot_digests(golden_graphs, graph_name, variant):
    config = FTCConfig(max_faults=GOLDEN_GRAPHS[graph_name][2],
                       variant=SchemeVariant(variant))
    data = FTCLabeling(golden_graphs[graph_name], config).to_snapshot_bytes()
    assert hashlib.sha256(data).hexdigest() == \
        GOLDEN_DIGESTS[(graph_name, variant)]


def test_golden_digests_cover_every_variant():
    for graph_name in GOLDEN_GRAPHS:
        assert {variant for name, variant in GOLDEN_DIGESTS
                if name == graph_name} == {v.value for v in SchemeVariant}


# ------------------------------------------------------------ build report

def test_build_report_shape(graphs):
    labeling = FTCLabeling(graphs["er"], FTCConfig(max_faults=2))
    report = labeling.build_report
    assert isinstance(report, BuildReport)
    assert tuple(report.stage_seconds) == STAGES
    assert all(seconds >= 0.0 for seconds in report.stage_seconds.values())
    assert report.total_seconds >= sum(report.stage_seconds.values()) * 0.5
    assert report.level_count >= 1
    assert report.reused_level_count == 0
    payload = report.to_dict()
    assert payload["level_count"] == report.level_count
    json.dumps(payload)  # must be JSON-ready for the CLI
    assert labeling.construction_seconds == report.total_seconds
    # Per-stage peak memory rides along (RSS probe on POSIX, else empty).
    assert report.memory_probe in ("tracemalloc", "rss", "unavailable")
    assert payload["memory_probe"] == report.memory_probe
    if report.memory_probe != "unavailable":
        assert tuple(report.stage_peak_bytes) == STAGES
        assert all(peak > 0 for peak in report.stage_peak_bytes.values())


def test_build_report_tracemalloc_peaks_and_bit_identity():
    """With tracemalloc on, the report's per-stage peaks are true per-phase
    readings — and instrumentation must not perturb the labels (bit-identity
    of the snapshot bytes with the probe on vs off)."""
    import tracemalloc

    graph = make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=5)
    config = FTCConfig(max_faults=2)
    plain = FTCLabeling(graph, config)
    assert plain.build_report.memory_probe in ("rss", "unavailable")
    tracemalloc.start()
    try:
        traced = FTCLabeling(graph, config)
    finally:
        tracemalloc.stop()
    report = traced.build_report
    assert report.memory_probe == "tracemalloc"
    assert tuple(report.stage_peak_bytes) == STAGES
    assert all(peak >= 0 for peak in report.stage_peak_bytes.values())
    assert traced.to_snapshot_bytes() == plain.to_snapshot_bytes()


# ---------------------------------------------------------------- facades

def test_build_labeling_facade(graphs):
    labeling = build_labeling(graphs["er"], max_faults=2)
    assert isinstance(labeling, FTCLabeling)
    reference = FTCLabeling(graphs["er"], FTCConfig(max_faults=2))
    assert labeling.to_snapshot_bytes() == reference.to_snapshot_bytes()
    with pytest.raises(TypeError):
        build_labeling(graphs["er"])  # neither config nor max_faults
    with pytest.raises(TypeError):
        build_labeling(graphs["er"], max_faults=2, jobs=2)


def test_parallel_answers_match_ground_truth(graphs):
    """The one parallel path left — process-pool session construction —
    answers like BFS on G - F."""
    graph = graphs["er"]
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    edges = sorted(graph.edges())
    fault_sets = [edges[:2], edges[2:4], edges[4:5]]
    vertices = sorted(graph.vertices())
    pairs = [(vertices[i], vertices[-1 - i]) for i in range(5)]
    labeling.build_sessions(fault_sets, jobs=2)
    for faults in fault_sets:
        expected = [graph.connected(s, t, removed=faults) for s, t in pairs]
        assert labeling.connected_many(pairs, faults) == expected


def test_oracle_build_with_jobs(graphs):
    """The removed construction options fail closed on every build facade."""
    graph = graphs["er"]
    with pytest.raises(TypeError):
        Oracle.build(graph, max_faults=2, jobs=2)
    with pytest.raises(TypeError):
        Oracle.build(graph, max_faults=2, executor="process:2")
    base = Oracle.build(graph, max_faults=2)
    with pytest.raises(TypeError):
        Oracle.build_delta(base, graph, jobs=2)


def test_open_oracle_uri_jobs(tmp_path, graphs):
    """``build:`` URIs take no options — refused up front, never looked up
    as a file named ``edges.txt?jobs=2``."""
    from repro.api import open_oracle

    edges = tmp_path / "edges.txt"
    edges.write_text("".join("%s %s\n" % edge for edge in sorted(graphs["er"].edges())))
    for query in ("jobs=2", "executor=serial"):
        with pytest.raises(ValueError, match="take no options"):
            open_oracle("build:%s?%s" % (edges, query), max_faults=2)
    with open_oracle("build:%s" % edges, max_faults=2) as oracle:
        assert oracle.build_report.level_count >= 1


def test_parse_build_query():
    """``build:`` URIs take no options: a query string is refused up front,
    and the old query parser is gone from the API."""
    import repro.api
    from repro.api import parse_oracle_uri

    assert not hasattr(repro.api, "parse_build_query")
    assert parse_oracle_uri("build:edges.txt") == ("build", "edges.txt")
    assert parse_oracle_uri("build:") == ("build", "")
    for with_options in ("build:edges.txt?jobs=4", "build:?executor=process:2",
                         "build:edges.txt?jobs=zero", "build:edges.txt?workers=4",
                         "build:edges.txt?"):
        with pytest.raises(ValueError, match="take no options"):
            parse_oracle_uri(with_options)


def test_open_oracle_rejects_jobs_on_constructed_transports():
    """The removed construction keywords are unknown on every transport."""
    from repro.api import open_oracle

    for uri in ("snapshot:whatever.ftcs", "tcp://127.0.0.1:1", "build:"):
        with pytest.raises(TypeError):
            open_oracle(uri, jobs=4)
        with pytest.raises(TypeError):
            open_oracle(uri, executor="process:2")


def test_cli_jobs_flag(tmp_path, graphs, capsys):
    """``--jobs`` belongs to ``batch-query`` (and ``serve``) only: the other
    build subcommands reject it as an unknown flag."""
    from repro.cli import main

    graph = graphs["er"]
    edges = tmp_path / "edges.txt"
    edges.write_text("".join("%s %s\n" % edge for edge in sorted(graph.edges())))
    for argv in (["stats", "--edges", str(edges)],
                 ["query", "--edges", str(edges), "--source", "0",
                  "--target", "1"],
                 ["audit", "--edges", str(edges)],
                 ["export-labels", "--edges", str(edges)]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err
    fault = "%s-%s" % sorted(graph.edges())[0]
    code = main(["batch-query", "--edges", str(edges), "--max-faults", "2",
                 "--jobs", "2", "--fault", fault, "--random-pairs", "5",
                 "--check", "--json"])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["ok"] and payload["result"]["ground_truth_mismatches"] == 0
    assert "--jobs 2 does not apply" in captured.err


def test_cli_bad_jobs_and_executor_are_clean_errors(tmp_path, capsys):
    """Flag mistakes print one error line and exit 2 — never a traceback."""
    from repro.cli import main

    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\nc a\n")
    assert main(["batch-query", "--edges", str(edges), "--max-faults", "1",
                 "--pair", "a-c", "--jobs", "0"]) == 2
    assert "at least 1" in capsys.readouterr().err
    assert main(["batch-query", "--oracle", "build:%s?executor=bogus" % edges,
                 "--max-faults", "1", "--pair", "a-c"]) == 2
    assert "take no options" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["save-labeling", "--edges", str(edges), "--max-faults", "1",
              "--jobs", "2", "--output", str(tmp_path / "x.ftcs")])
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.ftcs").exists()


def test_cli_uri_jobs_conflict_is_an_error(tmp_path, capsys):
    """``build:...?jobs=N`` is refused up front, never looked up as a path."""
    from repro.cli import main

    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\n")
    for argv in (["batch-query", "--oracle", "build:%s?jobs=4" % edges,
                  "--max-faults", "1", "--pair", "a-c"],
                 ["stats", "--oracle", "build:%s?jobs=4" % edges,
                  "--max-faults", "1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "take no options" in err and "does not exist" not in err


def test_cli_jobs_on_a_constructed_transport_notes_inapplicability(
        tmp_path, graphs, capsys):
    """--jobs without --faults-file must say it is doing nothing."""
    from repro.cli import main

    graph = graphs["er"]
    edges = tmp_path / "edges.txt"
    edges.write_text("".join("%s %s\n" % edge for edge in sorted(graph.edges())))
    snapshot = tmp_path / "x.ftcs"
    assert main(["save-labeling", "--edges", str(edges), "--max-faults", "2",
                 "--output", str(snapshot)]) == 0
    capsys.readouterr()
    fault = "%s-%s" % sorted(graph.edges())[0]
    assert main(["batch-query", "--snapshot", str(snapshot), "--jobs", "4",
                 "--fault", fault, "--random-pairs", "2", "--json"]) == 0
    captured = capsys.readouterr()
    assert "--jobs 4 does not apply" in captured.err


def test_cli_save_labeling_reports_the_build(tmp_path, graphs, capsys):
    from repro.cli import main

    graph = graphs["er"]
    edges = tmp_path / "edges.txt"
    edges.write_text("".join("%s %s\n" % edge for edge in sorted(graph.edges())))
    first = tmp_path / "first.ftcs"
    second = tmp_path / "second.ftcs"
    assert main(["save-labeling", "--edges", str(edges), "--max-faults", "2",
                 "--output", str(first)]) == 0
    report = json.loads(capsys.readouterr().out)["build_report"]
    assert tuple(report["stage_seconds"]) == STAGES
    assert report["level_count"] >= 1
    assert main(["save-labeling", "--edges", str(edges), "--max-faults", "2",
                 "--output", str(second)]) == 0
    capsys.readouterr()
    # The CLI-level determinism guarantee: same artifact bytes every time.
    assert first.read_bytes() == second.read_bytes()


def test_shard_partitions_merge_to_the_single_shot_matrix():
    """Any partition of a level's edges XORs back to the full label matrix
    (Proposition 2) — the property the ``level_reuse`` hook of
    :mod:`repro.delta` patches levels by."""
    from repro.gf2.field import GF2m
    from repro.outdetect.rs_threshold import RSThresholdOutdetect

    field = GF2m(8)
    vertices = [0, 1, 2, 3]
    items = [((0, 1), 3), ((1, 2), 5), ((2, 3), 7), ((0, 3), 11), ((1, 3), 13)]
    scheme = RSThresholdOutdetect(field, 2, vertices, dict(items))
    whole = scheme.label_matrix(vertices, items)
    assert whole == [list(scheme.label_of(vertex)) for vertex in vertices]
    for size in (1, 2, 3):
        merged = [[0] * 4 for _ in vertices]
        for start in range(0, len(items), size):
            part = scheme.label_matrix(vertices, items[start:start + size])
            for row, part_row in zip(merged, part):
                scheme.bulk.xor_accumulate(row, [part_row])
        assert merged == whole


def test_plan_validates_inputs(graphs):
    from repro.graphs.graph import Graph

    with pytest.raises(TypeError):
        BuildPlan(graphs["er"], config=None)
    disconnected = Graph([("a", "b"), ("c", "d")])
    with pytest.raises(ValueError):
        BuildPlan(disconnected, FTCConfig(max_faults=1))
