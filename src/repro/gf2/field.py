"""Arithmetic in GF(2^w).

Field elements are plain Python integers in ``[0, 2^w)`` interpreted as
polynomials over GF(2) modulo the field's irreducible polynomial.  Keeping
elements as raw integers (instead of wrapper objects) keeps the inner loops of
label construction and syndrome decoding reasonably fast in pure Python.

The class :class:`GF2m` bundles the word size, the irreducible polynomial, and
the arithmetic operations.  :class:`FixedMultiplier` provides a windowed
multiplication table for repeatedly multiplying by the same element, which is
the dominant operation when computing the consecutive powers
``x, x^2, ..., x^{2k}`` that make up an edge's outdetect contribution
(Proposition 2 of the paper).
"""

from __future__ import annotations

from repro.gf2.irreducible import find_irreducible


class GF2m:
    """The finite field GF(2^w) for a configurable word size ``w``.

    Parameters
    ----------
    width:
        The extension degree ``w``; the field has ``2^w`` elements.
    modulus:
        Optional irreducible polynomial (as an int with the leading bit set).
        When omitted a deterministic irreducible polynomial of the requested
        degree is selected.
    """

    __slots__ = ("width", "modulus", "order", "tail_shifts", "_mask", "_small_log",
                 "_small_exp")

    def __init__(self, width: int, modulus: int | None = None):
        if width < 1:
            raise ValueError("field width must be positive, got %d" % width)
        self.width = width
        self.modulus = modulus if modulus is not None else find_irreducible(width)
        if self.modulus.bit_length() - 1 != width:
            raise ValueError("modulus degree %d does not match width %d"
                             % (self.modulus.bit_length() - 1, width))
        self.order = 1 << width
        self._mask = self.order - 1
        #: Set-bit positions of the modulus tail ``modulus ^ 2^w``: since
        #: ``x^w == tail`` in the field, reduction folds the bits above ``w``
        #: back in as ``high << s`` for each ``s`` (``_reduce`` here and in
        #: ``NumpyBulkOps``).
        self.tail_shifts = tuple(shift for shift in range(width)
                                 if self.modulus >> shift & 1)
        self._small_log = None
        self._small_exp = None
        if width <= 12:
            self._build_tables()

    # ------------------------------------------------------------------ setup

    def _build_tables(self) -> None:
        """Build log/antilog tables for small fields (w <= 12).

        The tables give O(1) multiplication and inversion, which matters for
        the test suite where many small instances are exercised.
        """
        size = self.order
        exp_table = [0] * (2 * size)
        log_table = [0] * size
        value = 1
        generator = self._find_generator()
        for exponent in range(size - 1):
            exp_table[exponent] = value
            log_table[value] = exponent
            value = self._mul_nocache(value, generator)
        for exponent in range(size - 1, 2 * size):
            exp_table[exponent] = exp_table[exponent - (size - 1)]
        self._small_exp = exp_table
        self._small_log = log_table

    def _find_generator(self) -> int:
        """Find a multiplicative generator of the field (small fields only)."""
        group_order = self.order - 1
        factors = _distinct_prime_factors(group_order)
        for candidate in range(1, self.order):
            if all(self._pow_nocache(candidate, group_order // q) != 1 for q in factors):
                return candidate
        raise RuntimeError("no generator found; modulus is likely reducible")

    # ------------------------------------------------------------- arithmetic

    def add(self, a: int, b: int) -> int:
        """Field addition (== subtraction): bitwise XOR."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Field multiplication."""
        if a == 0 or b == 0:
            return 0
        if self._small_log is not None:
            return self._small_exp[self._small_log[a] + self._small_log[b]]
        return self._mul_nocache(a, b)

    def _mul_nocache(self, a: int, b: int) -> int:
        """Carry-less multiplication followed by reduction, no tables."""
        product = 0
        while b:
            low = b & -b
            product ^= a << (low.bit_length() - 1)
            b ^= low
        return self._reduce(product)

    def _reduce(self, value: int) -> int:
        """Reduce a polynomial of any degree modulo the field polynomial.

        Folds by the modulus tail: ``value = low + high * x^w`` becomes
        ``low + high * tail``, repeated until nothing is left above ``x^w``.
        Each pass lowers the degree by ``w - deg(tail)``, so a product of
        degree ``< 2w`` takes a few passes instead of one per excess bit.
        """
        width = self.width
        mask = self._mask
        shifts = self.tail_shifts
        high = value >> width
        while high:
            value &= mask
            for shift in shifts:
                value ^= high << shift
            high = value >> width
        return value

    def square(self, a: int) -> int:
        """Field squaring (the Frobenius map)."""
        return self.mul(a, a)

    def pow(self, base: int, exponent: int) -> int:
        """Field exponentiation by a non-negative integer exponent."""
        if self._small_log is not None and base != 0:
            if exponent == 0:
                return 1
            log_value = (self._small_log[base] * exponent) % (self.order - 1)
            return self._small_exp[log_value]
        return self._pow_nocache(base, exponent)

    def _pow_nocache(self, base: int, exponent: int) -> int:
        result = 1
        base = base & self._mask if base < self.order else self._reduce(base)
        while exponent:
            if exponent & 1:
                result = self._mul_nocache(result, base)
            base = self._mul_nocache(base, base)
            exponent >>= 1
        return result

    def inv(self, a: int) -> int:
        """Multiplicative inverse.  Raises ``ZeroDivisionError`` for zero."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse in GF(2^w)")
        if self._small_log is not None:
            return self._small_exp[(self.order - 1) - self._small_log[a]]
        # Extended Euclid over GF(2)[x], keeping u == g * a (mod modulus) and
        # v == h * a; u reaches 1 because the modulus is irreducible.
        u, v, g, h = self._reduce(a), self.modulus, 1, 0
        while u != 1:
            if u == 0:
                raise ZeroDivisionError("0x%x has no inverse modulo the reducible "
                                        "polynomial 0x%x" % (a, self.modulus))
            shift = u.bit_length() - v.bit_length()
            if shift < 0:
                u, v, g, h = v, u, h, g
                shift = -shift
            u ^= v << shift
            g ^= h << shift
        return g

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``."""
        return self.mul(a, self.inv(b))

    def trace(self, a: int) -> int:
        """Absolute trace Tr(a) = a + a^2 + a^4 + ... + a^(2^(w-1)), in {0, 1}."""
        total = 0
        current = a
        for _ in range(self.width):
            total ^= current
            current = self.mul(current, current)
        return total

    def multiplier(self, a: int) -> "FixedMultiplier":
        """Return a windowed multiplier for repeated multiplication by ``a``."""
        return FixedMultiplier(self, a)

    # ------------------------------------------------------------- conveniences

    def element(self, value: int) -> int:
        """Canonicalize an arbitrary integer into a field element."""
        if 0 <= value < self.order:
            return value
        return self._reduce(value)

    def contains(self, value: int) -> bool:
        """Return whether ``value`` is a canonical field element."""
        return 0 <= value < self.order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "GF2m(width=%d, modulus=0x%x)" % (self.width, self.modulus)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2m) and other.width == self.width and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash((self.width, self.modulus))


class FixedMultiplier:
    """Windowed multiplication by a fixed field element.

    Building the 16-entry window table costs a dozen XORs; each product
    costs ``w/4`` table lookups plus one reduction, which is several times
    faster than the generic bit-by-bit product when the same multiplicand is
    reused many times (e.g. computing all the powers of one edge ID).
    """

    __slots__ = ("field", "value", "_table")

    def __init__(self, field: GF2m, value: int):
        self.field = field
        self.value = value
        v1, v2, v4, v8 = value, value << 1, value << 2, value << 3
        v3, v12 = v1 ^ v2, v4 ^ v8
        self._table = [0, v1, v2, v3, v4, v4 ^ v1, v4 ^ v2, v4 ^ v3,
                       v8, v8 ^ v1, v8 ^ v2, v8 ^ v3, v12, v12 ^ v1, v12 ^ v2,
                       v12 ^ v3]

    def mul(self, other: int) -> int:
        """Return ``other * value`` in the field."""
        if other == 0 or self.value == 0:
            return 0
        table = self._table
        product = 0
        shift = 0
        while other:
            product ^= table[other & 0xF] << shift
            other >>= 4
            shift += 4
        return self.field._reduce(product)


def _distinct_prime_factors(value: int) -> list[int]:
    """Distinct prime factors of a positive integer."""
    factors = []
    candidate = 2
    remaining = value
    while candidate * candidate <= remaining:
        if remaining % candidate == 0:
            factors.append(candidate)
            while remaining % candidate == 0:
                remaining //= candidate
        candidate += 1
    if remaining > 1:
        factors.append(remaining)
    return factors
