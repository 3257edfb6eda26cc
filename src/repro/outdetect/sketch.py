"""Randomized graph-sketch outdetect labeling (Ahn--Guha--McGregor style).

This is the randomized ingredient the Dory--Parter scheme builds on and the
baseline the paper derandomizes.  Every edge identifier is extended with a
deterministic fingerprint; for each sampling level ``j`` and repetition ``r``
the edge is placed into cell ``(r, j)`` iff a seeded hash of the identifier
has ``j`` trailing zero bits.  A vertex label is, per cell, the XOR of the
extended identifiers of its incident sampled edges.  XOR-ing over a vertex set
leaves only outgoing edges; a cell containing exactly one of them holds a
valid extended identifier (the fingerprint checks out), which happens with
constant probability per repetition at the sampling level matching the cut
size — hence ``O(log n)`` repetitions give success with high probability, and
``O(f log n)`` repetitions give the "full query support" variant of [DP21].
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterable, Mapping

from repro.gf2.bulk import BulkOps, get_bulk_ops
from repro.graphs.graph import Edge
from repro.outdetect.base import OutdetectDecodeError, OutdetectScheme

Vertex = Hashable
Label = tuple

_FINGERPRINT_BITS = 32


class SketchOutdetect(OutdetectScheme):
    """An L0-sampling sketch supporting single outgoing-edge detection.

    Parameters
    ----------
    vertices:
        All vertices of the (sub)graph.
    edge_ids:
        Mapping from canonical edges to distinct positive integers.
    num_levels:
        Number of geometric sampling levels (defaults to ``ceil(log2 m) + 2``).
    repetitions:
        Independent repetitions per level; ``O(log n)`` for whp-per-query
        correctness, ``O(f log n)`` for the full-query-support variant.
    seed:
        Seed of the (deterministic, hash-based) sampling and fingerprints —
        the scheme is randomized in the sense of the paper, with the random
        bits made explicit and reproducible.
    bulk:
        Bulk XOR backend (no field needed); auto-selected when omitted.  The
        numpy backend scatters every sampled cell contribution in one pass.
    """

    deterministic = False

    def __init__(self, vertices: Iterable[Vertex], edge_ids: Mapping[Edge, int],
                 num_levels: int | None = None, repetitions: int = 8, seed: int = 0,
                 bulk: BulkOps | None = None):
        self.edge_ids = dict(edge_ids)
        if num_levels is None:
            num_levels = max(len(self.edge_ids), 2).bit_length() + 1
        self.num_levels = max(num_levels, 1)
        self.repetitions = max(repetitions, 1)
        self.seed = seed
        self.id_bits = max((max(self.edge_ids.values()).bit_length()
                            if self.edge_ids else 1), 1)
        self._cells = self.num_levels * self.repetitions
        self.bulk = bulk if bulk is not None else get_bulk_ops(
            None, max_bits=self.id_bits + _FINGERPRINT_BITS)
        self._build_labels(list(vertices))

    @classmethod
    def decode_only(cls, num_levels: int, repetitions: int, seed: int,
                    id_bits: int, bulk: BulkOps | None = None) -> "SketchOutdetect":
        """A decode-side sketch rebuilt from parameters alone.

        The seeded hashes make decoding fully determined by
        ``(num_levels, repetitions, seed)``; ``id_bits`` is carried for size
        accounting and backend sizing.  No labels are built — ``label_of``
        raises ``KeyError`` for every vertex (snapshot rehydration answers
        queries from stored labels, see :mod:`repro.core.snapshot`).
        """
        if num_levels < 1 or repetitions < 1 or id_bits < 1:
            raise ValueError("invalid sketch geometry: %d levels, %d repetitions, "
                             "%d id bits (all must be >= 1)"
                             % (num_levels, repetitions, id_bits))
        scheme = cls.__new__(cls)
        scheme.edge_ids = {}
        scheme.num_levels = num_levels
        scheme.repetitions = repetitions
        scheme.seed = seed
        scheme.id_bits = id_bits
        scheme._cells = scheme.num_levels * scheme.repetitions
        scheme.bulk = bulk if bulk is not None else get_bulk_ops(
            None, max_bits=scheme.id_bits + _FINGERPRINT_BITS)
        scheme._labels = {}
        return scheme

    def _build_labels(self, vertices: list) -> None:
        """Accumulate all sampled cell contributions through the bulk backend."""
        vertex_index = {vertex: position for position, vertex in enumerate(vertices)}
        row_indices: list[int] = []
        col_indices: list[int] = []
        values: list[int] = []
        for (u, v), identifier in self.edge_ids.items():
            extended = self._extend(identifier)
            row_u = vertex_index[u]
            row_v = vertex_index[v]
            for cell in self._cells_of(identifier):
                row_indices.append(row_u)
                row_indices.append(row_v)
                col_indices.append(cell)
                col_indices.append(cell)
                values.append(extended)
                values.append(extended)
        matrix = self.bulk.scatter_xor(len(vertices), self._cells,
                                       row_indices, col_indices, values)
        self._labels: dict[Vertex, list[int]] = {
            vertex: row for vertex, row in zip(vertices, matrix)}

    # ----------------------------------------------------------------- hashing

    def _hash(self, identifier: int, repetition: int) -> int:
        digest = hashlib.blake2b(
            b"%d:%d:%d" % (self.seed, repetition, identifier), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def _fingerprint(self, identifier: int) -> int:
        digest = hashlib.blake2b(
            b"fp:%d:%d" % (self.seed, identifier), digest_size=4).digest()
        return int.from_bytes(digest, "big")

    def _extend(self, identifier: int) -> int:
        return (identifier << _FINGERPRINT_BITS) | self._fingerprint(identifier)

    def _cells_of(self, identifier: int) -> list[int]:
        cells = []
        for repetition in range(self.repetitions):
            hashed = self._hash(identifier, repetition)
            for level in range(self.num_levels):
                if level == 0 or hashed % (1 << level) == 0:
                    cells.append(repetition * self.num_levels + level)
        return cells

    # ------------------------------------------------------------ OutdetectScheme

    def label_of(self, vertex: Vertex) -> Label:
        return tuple(self._labels[vertex])

    def zero_label(self) -> Label:
        return tuple([0] * self._cells)

    def combine(self, first: Label, second: Label) -> Label:
        if len(first) != len(second):
            raise ValueError("sketch labels of different sizes cannot be combined")
        return tuple(a ^ b for a, b in zip(first, second))

    def combine_all(self, labels) -> Label:
        labels = list(labels)
        if not labels:
            return self.zero_label()
        total = list(labels[0])
        self.bulk.xor_accumulate(total, labels[1:])
        return tuple(total)

    def decode(self, label: Label) -> list[int]:
        if all(value == 0 for value in label):
            return []
        found: list[int] = []
        # Prefer sparser levels (higher level index) where a single survivor is likely.
        for level in range(self.num_levels - 1, -1, -1):
            for repetition in range(self.repetitions):
                value = label[repetition * self.num_levels + level]
                if value == 0:
                    continue
                identifier = value >> _FINGERPRINT_BITS
                fingerprint = value & ((1 << _FINGERPRINT_BITS) - 1)
                if identifier > 0 and self._fingerprint(identifier) == fingerprint:
                    if identifier not in found:
                        found.append(identifier)
            if found:
                return found
        raise OutdetectDecodeError(
            "sketch decoding failed: no cell holds a single valid edge identifier")

    def label_bit_size(self, label: Label) -> int:
        return len(label) * (self.id_bits + _FINGERPRINT_BITS)
