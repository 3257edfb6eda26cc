"""Conformance tests for the batched decode primitives.

The whole point of the vectorized decode path is that it is a pure speed knob:
every batched primitive must return, element for element, exactly what the
scalar reference computes — across all :class:`~repro.gf2.bulk.BulkOps`
backends and field widths, on random inputs, including which failure each
entry would raise.  These assertions are hard (never advisory): the batch
session and the outdetect schemes route all decoding through these functions.
"""

from __future__ import annotations

import random

import pytest

from repro.coding.berlekamp_massey import berlekamp_massey, berlekamp_massey_many
from repro.coding.rootfind import find_roots, find_roots_many
from repro.coding.rs_decoder import DecodeFailure, SparseRecoveryDecoder
from repro.coding.syndrome import SyndromeEncoder
from repro.gf2.bulk import NumpyBulkOps, PyBulkOps, numpy_available
from repro.gf2.field import GF2m
from repro.gf2.poly import Gf2Poly

WIDTHS = [8, 12, 16]
THRESHOLD = 5


def _backends(field):
    backends = [PyBulkOps(field)]
    if numpy_available() and field.width <= 32:
        # small_cutoff=0 forces the numpy kernels even on tiny batches.
        backends.append(NumpyBulkOps(field, small_cutoff=0))
    return backends


def _cases(field):
    for bulk in _backends(field):
        yield field, bulk


def all_cases():
    for width in WIDTHS:
        field = GF2m(width)
        yield from _cases(field)


CASES = list(all_cases())
CASE_IDS = ["w%d-%s" % (field.width, bulk.name) for field, bulk in CASES]


def _random_supports(field, rng, count, max_size):
    return [rng.sample(range(1, field.order), rng.randrange(0, max_size + 1))
            for _ in range(count)]


@pytest.mark.parametrize("field,bulk", CASES, ids=CASE_IDS)
def test_syndrome_of_many_matches_scalar(field, bulk):
    rng = random.Random(field.width * 101 + len(bulk.name))
    encoder = SyndromeEncoder(field, THRESHOLD, bulk=bulk)
    supports = _random_supports(field, rng, 40, 2 * THRESHOLD)
    supports.append([])  # the empty support must round-trip to the zero syndrome
    batched = encoder.syndrome_of_many(supports)
    assert batched == [encoder.syndrome_of(support) for support in supports]
    assert encoder.syndrome_of_many([]) == []


@pytest.mark.parametrize("field,bulk", CASES, ids=CASE_IDS)
def test_berlekamp_massey_many_matches_scalar(field, bulk):
    rng = random.Random(field.width * 103 + len(bulk.name))
    sequences = [[rng.randrange(field.order) for _ in range(rng.randrange(0, 14))]
                 for _ in range(40)]
    sequences.append([])  # the empty sequence has the constant-1 locator
    batched = berlekamp_massey_many(field, sequences, bulk)
    for sequence, poly in zip(sequences, batched):
        assert poly.coeffs == berlekamp_massey(field, sequence).coeffs
    assert berlekamp_massey_many(field, [], bulk) == []


@pytest.mark.parametrize("field,bulk", CASES, ids=CASE_IDS)
def test_mixed_length_sequences_match_scalar(field, bulk):
    """Shorter sequences must stop advancing exactly where the scalar run does."""
    rng = random.Random(field.width * 107)
    sequences = [[rng.randrange(field.order) for _ in range(length)]
                 for length in (1, 3, 10, 2, 7, 10, 4)]
    batched = berlekamp_massey_many(field, sequences, bulk)
    for sequence, poly in zip(sequences, batched):
        assert poly.coeffs == berlekamp_massey(field, sequence).coeffs


@pytest.mark.parametrize("field,bulk", CASES, ids=CASE_IDS)
def test_root_finding_strategies_agree(field, bulk):
    rng = random.Random(field.width * 109 + len(bulk.name))
    polys = []
    for _ in range(15):
        # Products of random linear factors (all roots in the field) plus
        # random dense polynomials (roots mostly outside the field).
        support = rng.sample(range(1, field.order), rng.randrange(1, 6))
        poly = Gf2Poly.one(field)
        for element in support:
            poly = poly * Gf2Poly(field, [1, element])
        polys.append(poly)
        polys.append(Gf2Poly(field, [rng.randrange(field.order)
                                     for _ in range(rng.randrange(2, 6))]))
    polys = [poly for poly in polys if not poly.is_zero()]
    reference = [find_roots(poly) for poly in polys]
    assert find_roots_many(polys) == reference


@pytest.mark.parametrize("field,bulk", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("adaptive", [False, True])
def test_decode_many_matches_scalar_decoder(field, bulk, adaptive):
    """Per-entry results AND failure messages equal the scalar decoder's."""
    rng = random.Random(field.width * 113 + adaptive)
    encoder = SyndromeEncoder(field, THRESHOLD, bulk=bulk)
    batched_decoder = SparseRecoveryDecoder(field, THRESHOLD, bulk=bulk)
    scalar_decoder = SparseRecoveryDecoder(field, THRESHOLD)
    # Supports beyond the threshold make some syndromes undecodable, which
    # must surface as the same DecodeFailure message the scalar path raises.
    supports = _random_supports(field, rng, 40, THRESHOLD + 2)
    syndromes = encoder.syndrome_of_many(supports)
    entries = batched_decoder.decode_many_deferred(syndromes, adaptive=adaptive)
    failures = 0
    for support, syndrome, entry in zip(supports, syndromes, entries):
        try:
            expected = scalar_decoder.decode_adaptive(syndrome) if adaptive \
                else scalar_decoder.decode(syndrome)
        except DecodeFailure as error:
            failures += 1
            assert isinstance(entry, DecodeFailure)
            assert str(entry) == str(error)
        else:
            assert entry == expected
            if len(set(support)) <= THRESHOLD:
                assert entry == sorted(set(support))
    if failures:
        with pytest.raises(DecodeFailure):
            batched_decoder.decode_many(syndromes, adaptive=adaptive)
    else:
        assert batched_decoder.decode_many(syndromes, adaptive=adaptive) == entries


def test_decode_many_rejects_wrong_length():
    field = GF2m(8)
    decoder = SparseRecoveryDecoder(field, THRESHOLD)
    with pytest.raises(ValueError):
        decoder.decode_many_deferred([[0] * (2 * THRESHOLD - 1)])


@pytest.mark.parametrize("width", WIDTHS)
def test_backends_agree_on_decode_many(width):
    """Pure-Python and numpy backends produce bit-identical batched decodes."""
    if not numpy_available():
        pytest.skip("numpy backend not available")
    field = GF2m(width)
    rng = random.Random(width * 127)
    encoder = SyndromeEncoder(field, THRESHOLD, bulk=PyBulkOps(field))
    supports = _random_supports(field, rng, 25, THRESHOLD + 2)
    syndromes = encoder.syndrome_of_many(supports)
    results = []
    for bulk in _backends(field):
        decoder = SparseRecoveryDecoder(field, THRESHOLD, bulk=bulk)
        entries = decoder.decode_many_deferred(syndromes, adaptive=True)
        results.append([str(entry) if isinstance(entry, DecodeFailure) else entry
                        for entry in entries])
    assert all(result == results[0] for result in results[1:])


# ------------------------------------------------- bulk/scalar parity table

def test_parity_table_resolves_every_registered_pair():
    """Every (scalar, bulk) pair in the declarative registry imports and
    resolves to callables — the runtime half of the RPL005 lint rule: an
    entry that lints clean but no longer exists in the code fails here."""
    from repro.analysis.parity import PARITY_TABLE

    assert PARITY_TABLE, "the parity registry must never be empty"
    for pair in PARITY_TABLE:
        scalar, bulk = pair.resolve()
        assert callable(scalar) and callable(bulk), pair


def test_parity_table_matches_discovered_bulk_ops():
    """The registry and the AST agree exactly: every public ``*_many`` def in
    repro.coding / repro.outdetect is registered, and every registered
    ``*_many`` member is discovered — neither side can drift alone."""
    import ast as ast_module
    from pathlib import Path

    from repro.analysis.parity import registered_bulk_names

    import repro.coding
    import repro.outdetect

    discovered = set()
    for package in (repro.coding, repro.outdetect):
        for path in sorted(Path(package.__file__).parent.glob("*.py")):
            module_name = "%s.%s" % (package.__name__, path.stem) \
                if path.stem != "__init__" else package.__name__
            tree = ast_module.parse(path.read_text())
            for node in tree.body:
                scope = [(node.name, node)] if isinstance(
                    node, (ast_module.FunctionDef,
                           ast_module.AsyncFunctionDef)) else []
                if isinstance(node, ast_module.ClassDef):
                    scope = [("%s.%s" % (node.name, method.name), method)
                             for method in node.body
                             if isinstance(method, (ast_module.FunctionDef,
                                                    ast_module.AsyncFunctionDef))]
                for qualname, _ in scope:
                    terminal = qualname.rsplit(".", 1)[-1]
                    if terminal.endswith("_many") and \
                            not terminal.startswith("_"):
                        discovered.add((module_name, qualname))

    registered = {(pair.module, bulk_name)
                  for (pair_module, bulk_name), pair
                  in registered_bulk_names().items()
                  for pair_module in [pair.module]
                  if bulk_name.rsplit(".", 1)[-1].endswith("_many")}
    assert discovered == registered, \
        "unregistered: %s / stale: %s" % (sorted(discovered - registered),
                                          sorted(registered - discovered))


def test_parity_pairs_agree_on_a_shared_workload():
    """Spot-check through the registry itself: resolving the rootfind pair
    from the table and driving it produces scalar-identical answers."""
    from repro.analysis.parity import PARITY_TABLE

    pair = next(p for p in PARITY_TABLE
                if p.module == "repro.coding.rootfind" and p.bulk == "find_roots_many")
    scalar, bulk = pair.resolve()
    field = GF2m(8)
    rng = random.Random(11)
    polys = [Gf2Poly(field, [rng.randrange(field.order) for _ in range(3)] +
                     [1 + rng.randrange(field.order - 1)])
             for _ in range(6)]
    expected = [scalar(poly) for poly in polys]
    assert bulk(polys) == expected
