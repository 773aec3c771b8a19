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

    __slots__ = ("width", "modulus", "order", "_mask", "_small_log", "_small_exp")

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
        """Find a multiplicative generator of the field (small fields only).

        The search starts at 1, which generates the one-element group of
        GF(2) and fails the test in every larger field.
        """
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
        """Reduce a polynomial of degree < 2w modulo the field polynomial."""
        width = self.width
        modulus = self.modulus
        while value.bit_length() > width:
            value ^= modulus << (value.bit_length() - 1 - width)
        return value

    def square(self, a: int) -> int:
        """Field squaring (the Frobenius map)."""
        return self.mul(a, a)

    def pow(self, base: int, exponent: int) -> int:
        """Field exponentiation by a non-negative integer exponent.

        A negative exponent raises ``ValueError`` on every width (use
        :meth:`inv`), and a base of ``2^w`` or more is reduced first, as in
        :meth:`inv`.
        """
        if exponent < 0:
            raise ValueError("exponent must be non-negative, got %d" % exponent)
        if self._small_log is not None:
            base = base & self._mask if base < self.order else self._reduce(base)
            if base != 0:
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
        """Multiplicative inverse.  Raises ``ZeroDivisionError`` for zero.

        Inputs of ``2^w`` and above are reduced first, so a multiple of the
        field polynomial is zero too.  Without tables the inverse comes from
        extended Euclid over GF(2)[x] (Hankerson, Menezes and Vanstone,
        *Guide to Elliptic Curve Cryptography*, Alg. 2.48): shifts and XORs
        only, where ``a^(2^w - 2)`` would take about ``2w`` multiplications.
        """
        a = a & self._mask if a < self.order else self._reduce(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse in GF(2^w)")
        if self._small_log is not None:
            return self._small_exp[(self.order - 1) - self._small_log[a]]
        # Invariants: g1 * a == u and g2 * a == v (mod the field polynomial).
        # The loop ends because gcd(a, modulus) == 1 for a non-zero a.
        u, v = a, self.modulus
        g1, g2 = 1, 0
        while u != 1:
            shift = u.bit_length() - v.bit_length()
            if shift < 0:
                u, v, g1, g2 = v, u, g2, g1
                shift = -shift
            u ^= v << shift
            g1 ^= g2 << shift
        return g1

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

    Building the window table costs 15 additions; each subsequent product
    costs ``w/4`` table lookups plus one reduction, which is several times
    faster than the generic bit-by-bit product when the same multiplicand is
    reused many times (e.g. computing all the powers of one edge ID).
    """

    _WINDOW = 4

    __slots__ = ("field", "value", "_table")

    def __init__(self, field: GF2m, value: int):
        self.field = field
        self.value = value
        table = [0] * (1 << self._WINDOW)
        for nibble in range(1, 1 << self._WINDOW):
            low = nibble & -nibble
            table[nibble] = table[nibble ^ low] ^ (value << (low.bit_length() - 1))
        self._table = table

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
