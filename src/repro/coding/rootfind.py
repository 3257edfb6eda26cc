"""Deterministic root finding for polynomials over GF(2^w).

The error-locator polynomial produced by Berlekamp--Massey has all its roots
in the field, but the field can be far too large (up to 2^64 elements) for a
Chien-style exhaustive search.  The classic randomized answer is
Cantor--Zassenhaus; since the whole point of the paper is determinism, we use
the deterministic alternative available in characteristic two:

1.  Restrict to roots lying in GF(2^w) by taking
    ``gcd(p(x), x^{2^w} - x)``, computed with ``w`` modular squarings.
2.  Split the resulting product of distinct linear factors using *trace*
    polynomials: for a GF(2)-basis ``beta_0, ..., beta_{w-1}`` of the field,
    ``T_j(x) = Tr(beta_j x) = sum_i (beta_j x)^{2^i}`` takes values in {0, 1}
    on field elements, and two distinct elements differ on at least one
    ``T_j`` (the trace bilinear form is non-degenerate).  Therefore
    ``gcd(p, T_j mod p)`` repeatedly splits ``p`` until every factor is
    linear.  No randomness is involved and the cost is
    ``O(w^2 * deg(p)^2)`` field operations.

There is no exhaustive (Chien) search beside it: enumerating the field only
fits widths far below the ones labels are built with, so
:func:`find_roots_many` runs the trace method per locator of a batched
decode round.
"""

from __future__ import annotations

from typing import Sequence

from repro.gf2.field import GF2m
from repro.gf2.poly import Gf2Poly


def find_roots(poly: Gf2Poly) -> list[int]:
    """Return all distinct roots of ``poly`` that lie in its field.

    The result is sorted (as integers) to keep the procedure fully
    deterministic and reproducible across runs.
    """
    field = poly.field
    if poly.is_zero():
        raise ValueError("the zero polynomial has every field element as a root")
    roots: list[int] = []
    poly = poly.monic()

    # Pull out roots at zero.
    while poly.degree > 0 and poly.coefficient(0) == 0:
        if 0 not in roots:
            roots.append(0)
        poly = poly.divmod(Gf2Poly.x(field))[0]

    if poly.degree <= 0:
        return sorted(roots)
    if poly.degree == 1:
        roots.append(_linear_root(poly))
        return sorted(roots)

    # Keep only the part of the polynomial whose roots lie in GF(2^w).
    x_poly = Gf2Poly.x(field)
    frobenius = x_poly % poly
    for _ in range(field.width):
        frobenius = frobenius.square_mod(poly)
    split_part = poly.gcd(frobenius + x_poly)
    if split_part.degree <= 0:
        return sorted(roots)
    if split_part.degree == 1:
        roots.append(_linear_root(split_part))
        return sorted(roots)

    # Frobenius powers of x modulo the split part: F_i = x^{2^i} mod split_part.
    frobenius_powers = [x_poly % split_part]
    for _ in range(1, field.width):
        frobenius_powers.append(frobenius_powers[-1].square_mod(split_part))

    pending = [split_part]
    for basis_index in range(field.width):
        if all(factor.degree <= 1 for factor in pending):
            break
        beta = 1 << basis_index
        refined: list[Gf2Poly] = []
        for factor in pending:
            if factor.degree <= 1:
                refined.append(factor)
                continue
            trace_poly = _trace_polynomial(field, frobenius_powers, beta, factor)
            pieces = _split_with_trace(factor, trace_poly)
            refined.extend(pieces)
        pending = refined

    for factor in pending:
        if factor.degree == 1:
            roots.append(_linear_root(factor))
        elif factor.degree > 1:
            # The basis sweep separates any two distinct field elements, so a
            # non-linear factor can only appear if the input polynomial was not
            # square-free over the field; its roots are still roots of the
            # original polynomial, recoverable by recursing on the factor's
            # distinct-root part.
            roots.extend(root for root in find_roots(factor) if root not in roots)
    return sorted(set(roots))


def _linear_root(poly: Gf2Poly) -> int:
    """Root of a degree-one polynomial ``c1 x + c0`` (characteristic two)."""
    field = poly.field
    return field.div(poly.coefficient(0), poly.coefficient(1))


def _trace_polynomial(field: GF2m, frobenius_powers: list[Gf2Poly],
                      beta: int, modulus: Gf2Poly) -> Gf2Poly:
    """Compute ``Tr(beta * x) mod modulus`` from precomputed Frobenius powers.

    ``Tr(beta x) = sum_i (beta x)^{2^i} = sum_i beta^{2^i} * x^{2^i}``, so the
    trace polynomial is a field-scalar combination of the Frobenius powers.
    """
    total = Gf2Poly.zero(field)
    beta_power = beta
    for frob in frobenius_powers:
        total = total + (frob % modulus).scale(beta_power)
        beta_power = field.mul(beta_power, beta_power)
    return total


def find_roots_many(polys: Sequence[Gf2Poly]) -> list[list[int]]:
    """Roots of many polynomials (one batched-decode round's locators)."""
    return [find_roots(poly) for poly in polys]


def _split_with_trace(factor: Gf2Poly, trace_poly: Gf2Poly) -> list[Gf2Poly]:
    """Split ``factor`` into the trace-0 and trace-1 parts if possible."""
    zero_part = factor.gcd(trace_poly)
    if 0 < zero_part.degree < factor.degree:
        cofactor = factor.divmod(zero_part)[0].monic()
        return [zero_part, cofactor]
    one_part = factor.gcd(trace_poly + Gf2Poly.one(factor.field))
    if 0 < one_part.degree < factor.degree:
        cofactor = factor.divmod(one_part)[0].monic()
        return [one_part, cofactor]
    return [factor]
