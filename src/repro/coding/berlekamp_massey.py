"""Berlekamp--Massey algorithm over GF(2^w).

Given the power-sum syndromes ``s_1, ..., s_{2k}`` of an unknown support
``{x_1, ..., x_t}`` with ``t <= k``, Berlekamp--Massey computes the minimal
linear-feedback shift register generating the sequence, which is the
error-locator polynomial

    Lambda(z) = prod_i (1 - x_i z) = 1 + lambda_1 z + ... + lambda_t z^t.

Its reciprocal roots are exactly the support elements; they are extracted by
the deterministic root finder in :mod:`repro.coding.rootfind`.

Two entry points: :func:`berlekamp_massey` runs one sequence (the scalar
reference), and :func:`berlekamp_massey_many` advances the *same* algorithm
across many sequences in lockstep, so the field multiplications of one step —
the discrepancy dot products and the connection-polynomial updates — across
all sequences become single :meth:`~repro.gf2.bulk.BulkOps.mul_many` calls.
Because XOR reassociation and the backends' element-wise products are exact,
the batched variant is bit-identical to running the scalar one per sequence
(hard-asserted by the conformance tests).
"""

from __future__ import annotations

from typing import Sequence

from repro.gf2.bulk import BulkOps, PyBulkOps
from repro.gf2.field import GF2m
from repro.gf2.poly import Gf2Poly


def berlekamp_massey(field: GF2m, syndromes: Sequence[int]) -> Gf2Poly:
    """Return the minimal connection polynomial of a syndrome sequence.

    Parameters
    ----------
    field:
        The field the syndromes live in.
    syndromes:
        The sequence ``s_1, ..., s_n`` (power sums, 1-indexed in the paper's
        notation; passed here as a plain 0-indexed list).

    Returns
    -------
    Gf2Poly
        The connection polynomial ``Lambda(z)`` with ``Lambda(0) = 1``.  Its
        degree equals the linear complexity of the sequence, i.e. the number
        of support elements when the syndromes come from a sparse support
        within the decoding radius.
    """
    # Coefficients of the current and previous connection polynomials.
    current = [1]
    previous = [1]
    length = 0              # current LFSR length
    shift = 1               # number of steps since `previous` was updated
    previous_discrepancy = 1

    for index, syndrome in enumerate(syndromes):
        # Compute the discrepancy: s_index + sum_{i=1..length} c_i * s_{index-i}.
        discrepancy = syndrome
        for i in range(1, length + 1):
            if i < len(current) and current[i] != 0 and index - i >= 0:
                discrepancy ^= field.mul(current[i], syndromes[index - i])
        if discrepancy == 0:
            shift += 1
            continue
        if 2 * length <= index:
            # The LFSR is too short; lengthen it.
            saved = list(current)
            current = _update(field, current, previous, discrepancy,
                              previous_discrepancy, shift)
            previous = saved
            previous_discrepancy = discrepancy
            length = index + 1 - length
            shift = 1
        else:
            current = _update(field, current, previous, discrepancy,
                              previous_discrepancy, shift)
            shift += 1

    return Gf2Poly(field, current)


def _update(field: GF2m, current: list[int], previous: list[int],
            discrepancy: int, previous_discrepancy: int, shift: int) -> list[int]:
    """Return ``current - (d/d_prev) * z^shift * previous`` as a coefficient list."""
    factor = field.mul(discrepancy, field.inv(previous_discrepancy))
    size = max(len(current), len(previous) + shift)
    updated = list(current) + [0] * (size - len(current))
    for index, coefficient in enumerate(previous):
        if coefficient == 0:
            continue
        updated[index + shift] ^= field.mul(factor, coefficient)
    return updated


def berlekamp_massey_many(field: GF2m, sequences: Sequence[Sequence[int]],
                          bulk: BulkOps | None = None) -> list[Gf2Poly]:
    """Run Berlekamp--Massey over many syndrome sequences in lockstep.

    All sequences advance through step ``j`` together: the per-sequence
    discrepancy terms ``c_i * s_{j-i}`` are gathered into one element-wise
    :meth:`~repro.gf2.bulk.BulkOps.mul_many`, and so are the
    connection-polynomial update products ``(d/d_prev) * p_i``.  Per-sequence
    control flow (LFSR lengthening, shift bookkeeping) is untouched, so the
    returned polynomials equal ``[berlekamp_massey(field, s) for s in
    sequences]`` bit for bit.

    Sequences may have different lengths; shorter ones simply stop advancing.
    """
    sequences = [list(sequence) for sequence in sequences]
    if not sequences:
        return []
    if bulk is None:
        bulk = PyBulkOps(field)
    count = len(sequences)
    current: list[list[int]] = [[1] for _ in range(count)]
    previous: list[list[int]] = [[1] for _ in range(count)]
    length = [0] * count
    shift = [1] * count
    previous_discrepancy = [1] * count

    for index in range(max(len(sequence) for sequence in sequences)):
        # Batched discrepancies: one flat element-wise product for the
        # c_i * s_{index-i} terms of every still-active sequence.
        factors_a: list[int] = []
        factors_b: list[int] = []
        owners: list[int] = []
        discrepancy = [0] * count
        for j, sequence in enumerate(sequences):
            if index >= len(sequence):
                continue
            discrepancy[j] = sequence[index]
            coefficients = current[j]
            for i in range(1, length[j] + 1):
                if i < len(coefficients) and coefficients[i] != 0 and index - i >= 0:
                    factors_a.append(coefficients[i])
                    factors_b.append(sequence[index - i])
                    owners.append(j)
        if factors_a:
            for j, product in zip(owners, bulk.mul_many(factors_a, factors_b)):
                discrepancy[j] ^= product
        # Batched updates: the factor * p_i products of every sequence whose
        # discrepancy is non-zero, scattered back into the padded polynomials.
        update_a: list[int] = []
        update_b: list[int] = []
        update_position: list[int] = []
        update_owner: list[int] = []
        for j, sequence in enumerate(sequences):
            if index >= len(sequence):
                continue
            if discrepancy[j] == 0:
                shift[j] += 1
                continue
            factor = field.mul(discrepancy[j], field.inv(previous_discrepancy[j]))
            old_previous = previous[j]
            size = max(len(current[j]), len(old_previous) + shift[j])
            updated = list(current[j]) + [0] * (size - len(current[j]))
            for i, coefficient in enumerate(old_previous):
                if coefficient == 0:
                    continue
                update_a.append(factor)
                update_b.append(coefficient)
                update_position.append(i + shift[j])
                update_owner.append(j)
            if 2 * length[j] <= index:
                previous[j] = list(current[j])
                previous_discrepancy[j] = discrepancy[j]
                length[j] = index + 1 - length[j]
                shift[j] = 1
            else:
                shift[j] += 1
            current[j] = updated
        if update_a:
            for j, position, product in zip(update_owner, update_position,
                                            bulk.mul_many(update_a, update_b)):
                current[j][position] ^= product

    return [Gf2Poly(field, coefficients) for coefficients in current]
