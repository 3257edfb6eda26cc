"""Tests for the pluggable bulk GF(2^w) backends.

The two backends (pure-Python table-driven, numpy bit-sliced) must produce
bit-identical results on every operation: the batched query pipeline relies on
labels being byte-for-byte reproducible regardless of which backend built
them.
"""

import os
import random

import pytest

from repro.gf2.bulk import (NUMPY_MAX_WIDTH, BackendUnavailable, NumpyBulkOps,
                            PyBulkOps, available_backends, get_bulk_ops,
                            numpy_available)
from repro.gf2.field import GF2m
from repro.gf2.irreducible import DEFAULT_IRREDUCIBLES
from repro.outdetect.rs_threshold import RSThresholdOutdetect
from repro.outdetect.sketch import SketchOutdetect
from test_gf2_field import reduction_inputs, reference_reduce

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

WIDTHS = [4, 8, 13, 20, 27, 32]


def _backends(field):
    backends = [PyBulkOps(field)]
    if numpy_available():
        # cutoff 0 forces the vectorized kernels even on tiny inputs
        backends.append(NumpyBulkOps(field, small_cutoff=0))
    return backends


@pytest.mark.parametrize("width", WIDTHS)
def test_mul_many_matches_scalar_field_ops(width):
    field = GF2m(width)
    rng = random.Random(width)
    elements = [rng.randrange(0, field.order) for _ in range(40)]
    others = [rng.randrange(0, field.order) for _ in range(40)]
    scalar = rng.randrange(1, field.order)
    expected_scaled = [field.mul(x, scalar) for x in elements]
    expected_pairwise = [field.mul(a, b) for a, b in zip(elements, others)]
    for backend in _backends(field):
        assert backend.mul_many(elements, scalar) == expected_scaled, backend.name
        assert backend.mul_many(elements, others) == expected_pairwise, backend.name
        assert backend.mul_many([], scalar) == []


@needs_numpy
@pytest.mark.parametrize("width", [width for width in sorted(DEFAULT_IRREDUCIBLES)
                                   if width <= NUMPY_MAX_WIDTH])
def test_numpy_fold_reduction_matches_bit_loop(width):
    """The vectorized fold agrees with the reference bit loop on every
    product degree a multiplication can produce (up to 2w-2)."""
    import numpy

    field = GF2m(width)
    values = [value for value in reduction_inputs(field, width)
              if value.bit_length() <= 2 * width - 1]
    reduced = NumpyBulkOps(field)._reduce(numpy.asarray(values, dtype=numpy.uint64))
    assert [int(x) for x in reduced] == \
        [reference_reduce(value, field.modulus) for value in values]


@pytest.mark.parametrize("width", WIDTHS)
def test_pow_range_is_consecutive_powers(width):
    field = GF2m(width)
    rng = random.Random(width + 1)
    base = rng.randrange(1, field.order)
    expected = [field.pow(base, exponent) for exponent in range(1, 11)]
    for backend in _backends(field):
        assert backend.pow_range(base, 10) == expected, backend.name
        assert backend.pow_range(base, 0) == []


@pytest.mark.parametrize("width", WIDTHS)
def test_pow_range_many_matches_single(width):
    field = GF2m(width)
    rng = random.Random(width + 2)
    bases = [rng.randrange(1, field.order) for _ in range(25)]
    for backend in _backends(field):
        rows = backend.pow_range_many(bases, 8)
        assert rows == [backend.pow_range(base, 8) for base in bases], backend.name
        with pytest.raises(ValueError):
            backend.pow_range_many(bases, -1)


def test_xor_accumulate_and_scatter_agree_across_backends():
    rng = random.Random(7)
    rows = [[rng.randrange(0, 1 << 60) for _ in range(5)] for _ in range(30)]
    indices = [rng.randrange(0, 6) for _ in range(30)]
    row_idx = [rng.randrange(0, 6) for _ in range(50)]
    col_idx = [rng.randrange(0, 5) for _ in range(50)]
    values = [rng.randrange(0, 1 << 60) for _ in range(50)]
    results = []
    for backend in _backends(None):
        target = [0] * 5
        backend.xor_accumulate(target, rows)
        matrix = backend.scatter_xor_rows(6, 5, indices, rows)
        cells = backend.scatter_xor(6, 5, row_idx, col_idx, values)
        results.append((target, matrix, cells))
    assert all(result == results[0] for result in results[1:])
    # Plain-Python reference for the accumulate.
    expected = [0] * 5
    for row in rows:
        expected = [a ^ b for a, b in zip(expected, row)]
    assert results[0][0] == expected


def test_xor_accumulate_rejects_length_mismatch():
    for backend in _backends(None):
        with pytest.raises(ValueError):
            backend.xor_accumulate([0, 0], [[1, 2, 3]])


def test_xor_only_backend_has_no_field_ops():
    backend = PyBulkOps(None)
    with pytest.raises(ValueError):
        backend.mul_many([1], 2)
    with pytest.raises(ValueError):
        backend.pow_range(1, 3)


def test_auto_selection_falls_back_for_wide_fields():
    wide = GF2m(40)
    assert get_bulk_ops(wide).name == "python"
    assert available_backends(wide) == ["python"]


@needs_numpy
def test_auto_selection_prefers_numpy_when_usable():
    field = GF2m(16)
    assert get_bulk_ops(field).name == "numpy"
    assert "numpy" in available_backends(field)
    # XOR-only selection honours the value-width bound.
    assert get_bulk_ops(None, max_bits=64).name == "numpy"
    assert get_bulk_ops(None, max_bits=70).name == "python"


@needs_numpy
def test_forced_numpy_raises_when_unusable():
    with pytest.raises(BackendUnavailable):
        get_bulk_ops(GF2m(40), backend="numpy")


def test_env_var_forces_python_backend(monkeypatch):
    monkeypatch.setenv("REPRO_GF2_BACKEND", "python")
    assert get_bulk_ops(GF2m(16)).name == "python"
    monkeypatch.setenv("REPRO_GF2_BACKEND", "bogus")
    with pytest.raises(ValueError):
        get_bulk_ops(GF2m(16))


@needs_numpy
def test_rs_scheme_labels_bit_identical_across_backends():
    field = GF2m(14)
    rng = random.Random(3)
    vertices = list(range(12))
    edge_ids = {}
    used = set()
    for _ in range(25):
        u, v = rng.sample(vertices, 2)
        edge = (min(u, v), max(u, v))
        if edge in used:
            continue
        used.add(edge)
        edge_ids[edge] = rng.randrange(1, field.order)
    py_scheme = RSThresholdOutdetect(field, 3, vertices, edge_ids,
                                     bulk=PyBulkOps(field))
    np_scheme = RSThresholdOutdetect(field, 3, vertices, edge_ids,
                                     bulk=NumpyBulkOps(field, small_cutoff=0))
    for vertex in vertices:
        assert py_scheme.label_of(vertex) == np_scheme.label_of(vertex)
    sample = [py_scheme.label_of(vertex) for vertex in vertices[:6]]
    assert py_scheme.combine_all(sample) == np_scheme.combine_all(sample)


@needs_numpy
def test_sketch_labels_bit_identical_across_backends():
    rng = random.Random(5)
    vertices = list(range(10))
    edge_ids = {}
    for _ in range(20):
        u, v = rng.sample(vertices, 2)
        edge = (min(u, v), max(u, v))
        edge_ids.setdefault(edge, rng.randrange(1, 1 << 16))
    py_scheme = SketchOutdetect(vertices, edge_ids, repetitions=4, seed=9,
                                bulk=PyBulkOps(None))
    np_scheme = SketchOutdetect(vertices, edge_ids, repetitions=4, seed=9,
                                bulk=NumpyBulkOps(None, small_cutoff=0))
    for vertex in vertices:
        assert py_scheme.label_of(vertex) == np_scheme.label_of(vertex)
    sample = [py_scheme.label_of(vertex) for vertex in vertices]
    assert py_scheme.combine_all(sample) == np_scheme.combine_all(sample)


def test_scheme_construction_respects_env_backend(monkeypatch):
    """The auto path must fall back cleanly when numpy is unavailable; forcing
    the python backend through the environment is an equivalent check that the
    whole construction pipeline works without numpy kernels."""
    field = GF2m(13)
    vertices = [0, 1, 2, 3]
    edge_ids = {(0, 1): 5, (1, 2): 9, (2, 3): 17, (0, 3): 33}
    baseline = RSThresholdOutdetect(field, 2, vertices, edge_ids)
    monkeypatch.setenv("REPRO_GF2_BACKEND", "python")
    forced = RSThresholdOutdetect(field, 2, vertices, edge_ids)
    assert forced.bulk.name == "python"
    for vertex in vertices:
        assert baseline.label_of(vertex) == forced.label_of(vertex)


@needs_numpy
def test_decode_is_pure_python_under_auto_backend(monkeypatch):
    """numpy builds labels, but every RS decoder -- behind a built oracle and
    behind a loaded snapshot -- runs on the pure-Python backend."""
    from repro.api import Oracle
    from repro.workloads import GraphFamily, make_graph

    monkeypatch.setenv("REPRO_GF2_BACKEND", "auto")
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=3, density=2.0)
    built = Oracle.build(graph, max_faults=2)
    loaded = Oracle.load(built.to_snapshot_bytes())
    built_levels = built.labeling.outdetect.level_schemes
    assert {level.bulk.name for level in built_levels} == {"numpy"}
    for levels in (built_levels, loaded.outdetect.level_schemes):
        assert {level._decoder.bulk.name for level in levels} == {"python"}
        assert {level._decoder._encoder.bulk.name for level in levels} == {"python"}
