"""Bulk (vectorized) GF(2^w) arithmetic backends.

The label-construction hot path of the scheme is embarrassingly data-parallel:
every non-tree edge contributes the consecutive powers ``x_e, x_e^2, ...,
x_e^{2k}`` of its identifier (Proposition 2), and vertex labels are XOR
accumulations of those rows.  :class:`BulkOps` captures exactly that shape so
the outdetect layer can be written once and executed by interchangeable
backends:

``PyBulkOps``
    Pure Python, table-driven (a :class:`~repro.gf2.field.FixedMultiplier`
    window per call and the field's log/exp tables when present).  Always
    available, and the only backend syndrome decoding uses: a decode round
    multiplies a few elements per call, too few for numpy to pay off.

``NumpyBulkOps``
    Bit-sliced numpy implementation: carry-less products are assembled by
    XOR-ing shifted operand arrays one multiplier bit at a time and reduced
    by folding on the modulus tail (``GF2m.tail_shifts``), the same rule as
    the scalar field.  It serves label construction, where one call covers
    every edge of a level.  Requires ``numpy`` and a field width ``w <= 32``
    (so degree < 2w products fit in ``uint64``); :func:`get_bulk_ops` falls
    back to the pure-Python backend cleanly when either precondition fails.

Both backends compute the *exact same* field arithmetic, so their outputs are
bit-identical — the cross-check tests and ``bench_batch_queries.py`` assert
this.  Backend selection can be forced with the ``REPRO_GF2_BACKEND``
environment variable (``auto`` / ``python`` / ``numpy``).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

from repro.gf2.field import GF2m

try:  # numpy is an optional accelerator, never a hard dependency.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-absent CI job
    _np = None

#: Environment variable that forces a backend (``auto``, ``python``, ``numpy``).
BACKEND_ENV_VAR = "REPRO_GF2_BACKEND"

#: Widest field the uint64 bit-sliced kernels support (products have degree
#: ``< 2w``, so ``2w - 1 <= 63``).
NUMPY_MAX_WIDTH = 32


class BackendUnavailable(RuntimeError):
    """Raised when an explicitly requested backend cannot run here."""


class BulkOps(ABC):
    """Vectorized bulk operations over one GF(2^w) field.

    The XOR-only operations (:meth:`xor_accumulate`, :meth:`scatter_xor`,
    :meth:`scatter_xor_rows`) also work without a field (``field=None``),
    which is what the randomized sketch scheme uses — its cell values are
    fingerprint-extended integers, not field elements.
    """

    #: Short backend identifier (``"python"`` or ``"numpy"``).
    name: str = "abstract"

    def __init__(self, field: GF2m | None = None):
        self.field = field

    def _require_field(self) -> GF2m:
        if self.field is None:
            raise ValueError("this BulkOps instance was built without a field; "
                             "only XOR operations are available")
        return self.field

    # -------------------------------------------------------------- field ops

    @abstractmethod
    def mul_many(self, elements: Sequence[int], multiplier) -> list[int]:
        """Multiply many field elements at once.

        ``multiplier`` is either a single field element (every entry of
        ``elements`` is scaled by it) or a sequence of the same length as
        ``elements`` (element-wise products).
        """

    @abstractmethod
    def pow_range(self, base: int, count: int) -> list[int]:
        """Consecutive powers ``[base, base^2, ..., base^count]``.

        This is an edge's entire outdetect contribution computed in one shot.
        """

    @abstractmethod
    def pow_range_many(self, bases: Sequence[int], count: int) -> list[list[int]]:
        """``pow_range`` for many bases: returns one row of powers per base."""

    # --------------------------------------------------------------- xor ops

    @abstractmethod
    def xor_accumulate(self, target: list[int], rows: Iterable[Sequence[int]]) -> list[int]:
        """XOR every row of ``rows`` into ``target`` in place and return it."""

    @abstractmethod
    def scatter_xor_rows(self, num_rows: int, row_len: int,
                         indices: Sequence[int],
                         rows: Sequence[Sequence[int]]) -> list[list[int]]:
        """Build a ``num_rows x row_len`` zero matrix and XOR ``rows[i]`` into
        row ``indices[i]`` for every ``i`` (duplicate indices accumulate)."""

    @abstractmethod
    def scatter_xor(self, num_rows: int, row_len: int,
                    row_indices: Sequence[int], col_indices: Sequence[int],
                    values: Sequence[int]) -> list[list[int]]:
        """Build a zero matrix and XOR ``values[i]`` into cell
        ``(row_indices[i], col_indices[i])`` for every ``i``."""


class PyBulkOps(BulkOps):
    """Pure-Python, table-driven reference backend (always available)."""

    name = "python"

    def mul_many(self, elements: Sequence[int], multiplier) -> list[int]:
        field = self._require_field()
        if isinstance(multiplier, int):
            if not elements:
                return []
            window = field.multiplier(multiplier)
            return [window.mul(element) for element in elements]
        if len(multiplier) != len(elements):
            raise ValueError("mul_many got %d elements but %d multipliers"
                             % (len(elements), len(multiplier)))
        return [field.mul(a, b) for a, b in zip(elements, multiplier)]

    def pow_range(self, base: int, count: int) -> list[int]:
        field = self._require_field()
        if count < 0:
            raise ValueError("count must be non-negative, got %d" % count)
        if count == 0:
            return []
        window = field.multiplier(base)
        powers = [base]
        current = base
        for _ in range(count - 1):
            current = window.mul(current)
            powers.append(current)
        return powers

    def pow_range_many(self, bases: Sequence[int], count: int) -> list[list[int]]:
        return [self.pow_range(base, count) for base in bases]

    def xor_accumulate(self, target: list[int], rows: Iterable[Sequence[int]]) -> list[int]:
        length = len(target)
        for row in rows:
            if len(row) != length:
                raise ValueError("xor_accumulate row of length %d does not match "
                                 "target length %d" % (len(row), length))
            for index, value in enumerate(row):
                target[index] ^= value
        return target

    def scatter_xor_rows(self, num_rows: int, row_len: int,
                         indices: Sequence[int],
                         rows: Sequence[Sequence[int]]) -> list[list[int]]:
        matrix = [[0] * row_len for _ in range(num_rows)]
        for index, row in zip(indices, rows):
            target = matrix[index]
            for position, value in enumerate(row):
                target[position] ^= value
        return matrix

    def scatter_xor(self, num_rows: int, row_len: int,
                    row_indices: Sequence[int], col_indices: Sequence[int],
                    values: Sequence[int]) -> list[list[int]]:
        matrix = [[0] * row_len for _ in range(num_rows)]
        for row, col, value in zip(row_indices, col_indices, values):
            matrix[row][col] ^= value
        return matrix


class NumpyBulkOps(BulkOps):
    """Bit-sliced numpy backend (uint64 lanes, bit-identical to PyBulkOps).

    Inputs below ``small_cutoff`` total elements are delegated to the
    pure-Python path: array round-trips cost more than they save on tiny
    instances, and both paths compute the exact same field arithmetic.
    """

    name = "numpy"

    def __init__(self, field: GF2m | None = None, max_bits: int | None = None,
                 small_cutoff: int = 256):
        if _np is None:
            raise BackendUnavailable("numpy is not installed")
        if field is not None and field.width > NUMPY_MAX_WIDTH:
            raise BackendUnavailable(
                "field width %d exceeds the uint64 bit-sliced limit of %d"
                % (field.width, NUMPY_MAX_WIDTH))
        if max_bits is not None and max_bits > 64:
            raise BackendUnavailable(
                "values of %d bits do not fit the uint64 XOR kernels" % max_bits)
        super().__init__(field)
        self.small_cutoff = small_cutoff
        self._py = PyBulkOps(field)
        # Folds needed to bring a degree 2w-2 product below x^w: each one
        # lowers the degree bound by w - deg(tail).
        self._fold_passes = 0
        if field is not None:
            degree = 2 * field.width - 2
            while degree >= field.width:
                degree -= field.width - max(field.tail_shifts)
                self._fold_passes += 1

    # ------------------------------------------------------------ primitives

    def _mul_arrays(self, a, b):
        """Element-wise carry-less product + reduction of two uint64 arrays."""
        field = self.field
        width = field.width
        product = _np.zeros_like(a)
        for bit in range(width):
            mask = (b >> _np.uint64(bit)) & _np.uint64(1)
            product ^= (a << _np.uint64(bit)) * mask
        return self._reduce(product)

    def _scale_array(self, a, scalar: int):
        """Multiply a uint64 array by one fixed field element."""
        product = _np.zeros_like(a)
        remaining = scalar
        while remaining:
            low = remaining & -remaining
            product ^= a << _np.uint64(low.bit_length() - 1)
            remaining ^= low
        return self._reduce(product)

    def _reduce(self, product):
        """Vectorized reduction of degree < 2w polynomials mod the field poly.

        The same fold by the modulus tail as :meth:`GF2m._reduce`, run a
        fixed number of passes so every lane ends below ``x^w``.
        """
        field = self.field
        width = _np.uint64(field.width)
        mask = _np.uint64(field.order - 1)
        shifts = [_np.uint64(shift) for shift in field.tail_shifts]
        for _ in range(self._fold_passes):
            high = product >> width
            product = product & mask
            for shift in shifts:
                product ^= high << shift
        return product

    # -------------------------------------------------------------- field ops

    def mul_many(self, elements: Sequence[int], multiplier) -> list[int]:
        self._require_field()
        if not len(elements):
            return []
        if len(elements) < self.small_cutoff:
            return self._py.mul_many(elements, multiplier)
        a = _np.asarray(elements, dtype=_np.uint64)
        if isinstance(multiplier, int):
            if multiplier == 0:
                return [0] * len(elements)
            return [int(x) for x in self._scale_array(a, multiplier)]
        if len(multiplier) != len(elements):
            raise ValueError("mul_many got %d elements but %d multipliers"
                             % (len(elements), len(multiplier)))
        b = _np.asarray(multiplier, dtype=_np.uint64)
        return [int(x) for x in self._mul_arrays(a, b)]

    def pow_range(self, base: int, count: int) -> list[int]:
        # A single power chain is inherently sequential; the windowed
        # pure-Python multiplier is the faster kernel for it.
        return self._py.pow_range(base, count)

    def pow_range_many(self, bases: Sequence[int], count: int) -> list[list[int]]:
        self._require_field()
        if count < 0:
            raise ValueError("count must be non-negative, got %d" % count)
        if count == 0 or not len(bases):
            return [[] for _ in bases]
        if len(bases) * count < self.small_cutoff:
            return self._py.pow_range_many(bases, count)
        base_array = _np.asarray(bases, dtype=_np.uint64)
        columns = [base_array]
        current = base_array
        for _ in range(count - 1):
            current = self._mul_arrays(current, base_array)
            columns.append(current)
        matrix = _np.stack(columns, axis=1)
        return [[int(x) for x in row] for row in matrix]

    # --------------------------------------------------------------- xor ops

    def xor_accumulate(self, target: list[int], rows: Iterable[Sequence[int]]) -> list[int]:
        rows = list(rows)
        if not rows:
            return target
        length = len(target)
        if len(rows) * length < self.small_cutoff:
            return self._py.xor_accumulate(target, rows)
        for row in rows:
            if len(row) != length:
                raise ValueError("xor_accumulate row of length %d does not match "
                                 "target length %d" % (len(row), length))
        stacked = _np.asarray(rows, dtype=_np.uint64)
        combined = _np.bitwise_xor.reduce(stacked, axis=0)
        for index in range(length):
            target[index] ^= int(combined[index])
        return target

    def scatter_xor_rows(self, num_rows: int, row_len: int,
                         indices: Sequence[int],
                         rows: Sequence[Sequence[int]]) -> list[list[int]]:
        if len(indices) * row_len < self.small_cutoff:
            return self._py.scatter_xor_rows(num_rows, row_len, indices, rows)
        matrix = _np.zeros((num_rows, row_len), dtype=_np.uint64)
        if len(indices):
            index_array = _np.asarray(indices, dtype=_np.intp)
            row_array = _np.asarray(rows, dtype=_np.uint64)
            _np.bitwise_xor.at(matrix, index_array, row_array)
        return [[int(x) for x in row] for row in matrix]

    def scatter_xor(self, num_rows: int, row_len: int,
                    row_indices: Sequence[int], col_indices: Sequence[int],
                    values: Sequence[int]) -> list[list[int]]:
        if len(values) < self.small_cutoff:
            return self._py.scatter_xor(num_rows, row_len, row_indices,
                                        col_indices, values)
        matrix = _np.zeros((num_rows, row_len), dtype=_np.uint64)
        if len(values):
            rows = _np.asarray(row_indices, dtype=_np.intp)
            cols = _np.asarray(col_indices, dtype=_np.intp)
            vals = _np.asarray(values, dtype=_np.uint64)
            _np.bitwise_xor.at(matrix, (rows, cols), vals)
        return [[int(x) for x in row] for row in matrix]


def numpy_available() -> bool:
    """Whether the numpy backend can be constructed at all."""
    return _np is not None


def available_backends(field: GF2m | None = None, max_bits: int | None = None) -> list[str]:
    """Names of the backends usable for the given field / value width."""
    names = ["python"]
    try:
        NumpyBulkOps(field, max_bits=max_bits)
    except BackendUnavailable:
        return names
    names.append("numpy")
    return names


def get_bulk_ops(field: GF2m | None = None, backend: str | None = None,
                 max_bits: int | None = None) -> BulkOps:
    """Select a bulk backend for the given field.

    The choice serves label construction and XOR merges; syndrome decoding
    is pure Python whatever this returns.

    Parameters
    ----------
    field:
        The GF(2^w) field, or ``None`` for XOR-only use (sketch labels).
    backend:
        ``"auto"`` (default), ``"python"``, or ``"numpy"``.  When omitted the
        ``REPRO_GF2_BACKEND`` environment variable is consulted.  ``"auto"``
        prefers numpy and falls back to pure Python when numpy is missing or
        the field is too wide; forcing ``"numpy"`` raises
        :class:`BackendUnavailable` instead of falling back.
    max_bits:
        Upper bound on the bit length of XOR-ed values (used by the sketch
        scheme, whose fingerprint-extended identifiers are not field elements).
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR, "auto").strip().lower() or "auto"
    if backend == "python":
        return PyBulkOps(field)
    if backend == "numpy":
        return NumpyBulkOps(field, max_bits=max_bits)
    if backend != "auto":
        raise ValueError("unknown GF(2^w) bulk backend %r (expected auto/python/numpy)"
                         % (backend,))
    try:
        return NumpyBulkOps(field, max_bits=max_bits)
    except BackendUnavailable:
        return PyBulkOps(field)
