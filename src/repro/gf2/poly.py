"""Dense polynomials with coefficients in GF(2^w).

These polynomials are the workhorse of syndrome decoding: the error-locator
polynomial produced by Berlekamp--Massey lives here, and the deterministic
root-finding procedure (Frobenius map plus trace splitting) is expressed in
terms of modular polynomial arithmetic.

Polynomials are immutable value objects.  Coefficients are stored in a tuple
``coeffs`` with ``coeffs[i]`` the coefficient of ``x^i``; the zero polynomial
is the empty tuple.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.gf2.field import GF2m


class Gf2Poly:
    """A polynomial over a :class:`~repro.gf2.field.GF2m` field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF2m, coeffs: Iterable[int] = ()):
        self.field = field
        self.coeffs = _normalize(tuple(coeffs))

    # -------------------------------------------------------------- factories

    @classmethod
    def zero(cls, field: GF2m) -> "Gf2Poly":
        """The zero polynomial."""
        return cls(field, ())

    @classmethod
    def one(cls, field: GF2m) -> "Gf2Poly":
        """The constant polynomial 1."""
        return cls(field, (1,))

    @classmethod
    def x(cls, field: GF2m) -> "Gf2Poly":
        """The monomial x."""
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: GF2m, value: int) -> "Gf2Poly":
        """The constant polynomial ``value``."""
        return cls(field, (value,))

    @classmethod
    def monomial(cls, field: GF2m, degree: int, coefficient: int = 1) -> "Gf2Poly":
        """The monomial ``coefficient * x^degree``."""
        if coefficient == 0:
            return cls.zero(field)
        return cls(field, (0,) * degree + (coefficient,))

    @classmethod
    def from_roots(cls, field: GF2m, roots: Sequence[int]) -> "Gf2Poly":
        """The monic polynomial whose roots are exactly ``roots``."""
        result = cls.one(field)
        for root in roots:
            result = result * cls(field, (root, 1))
        return result

    # ------------------------------------------------------------- properties

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        """Whether this is the zero polynomial."""
        return not self.coeffs

    def is_one(self) -> bool:
        """Whether this is the constant polynomial 1."""
        return self.coeffs == (1,)

    def leading_coefficient(self) -> int:
        """The leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, index: int) -> int:
        """The coefficient of ``x^index`` (0 when out of range)."""
        if 0 <= index < len(self.coeffs):
            return self.coeffs[index]
        return 0

    # ------------------------------------------------------------- arithmetic

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        self._check_field(other)
        longer, shorter = (self.coeffs, other.coeffs)
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        summed = list(longer)
        for index, value in enumerate(shorter):
            summed[index] ^= value
        return Gf2Poly(self.field, summed)

    # In characteristic two subtraction and addition coincide.
    __sub__ = __add__

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        self._check_field(other)
        if self.is_zero() or other.is_zero():
            return Gf2Poly.zero(self.field)
        field = self.field
        product = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            mul = field.multiplier(a) if field.width > 12 else None
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                term = mul.mul(b) if mul is not None else field.mul(a, b)
                product[i + j] ^= term
        return Gf2Poly(field, product)

    def scale(self, scalar: int) -> "Gf2Poly":
        """Multiply every coefficient by a field scalar."""
        if scalar == 0:
            return Gf2Poly.zero(self.field)
        if scalar == 1:
            return self
        field = self.field
        return Gf2Poly(field, [field.mul(scalar, c) for c in self.coeffs])

    def shift(self, amount: int) -> "Gf2Poly":
        """Multiply by ``x^amount``."""
        if self.is_zero():
            return self
        return Gf2Poly(self.field, (0,) * amount + self.coeffs)

    def divmod(self, divisor: "Gf2Poly") -> tuple["Gf2Poly", "Gf2Poly"]:
        """Polynomial division with remainder."""
        self._check_field(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        remainder = list(self.coeffs)
        divisor_coeffs = divisor.coeffs
        divisor_degree = divisor.degree
        inv_lead = field.inv(divisor.leading_coefficient())
        quotient = [0] * max(len(remainder) - divisor_degree, 0)
        for shift in range(len(remainder) - divisor_degree - 1, -1, -1):
            coeff = remainder[shift + divisor_degree]
            if coeff == 0:
                continue
            factor = field.mul(coeff, inv_lead)
            quotient[shift] = factor
            mul = field.multiplier(factor) if field.width > 12 else None
            for index, dval in enumerate(divisor_coeffs):
                if dval == 0:
                    continue
                term = mul.mul(dval) if mul is not None else field.mul(factor, dval)
                remainder[shift + index] ^= term
        return Gf2Poly(field, quotient), Gf2Poly(field, remainder)

    def __mod__(self, divisor: "Gf2Poly") -> "Gf2Poly":
        return self.divmod(divisor)[1]

    def __floordiv__(self, divisor: "Gf2Poly") -> "Gf2Poly":
        return self.divmod(divisor)[0]

    def monic(self) -> "Gf2Poly":
        """Return the polynomial scaled so its leading coefficient is 1."""
        if self.is_zero():
            return self
        lead = self.leading_coefficient()
        if lead == 1:
            return self
        return self.scale(self.field.inv(lead))

    def gcd(self, other: "Gf2Poly") -> "Gf2Poly":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def pow_mod(self, exponent: int, modulus: "Gf2Poly") -> "Gf2Poly":
        """Compute ``self^exponent mod modulus``."""
        result = Gf2Poly.one(self.field)
        base = self % modulus
        while exponent:
            if exponent & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            exponent >>= 1
        return result

    def square_mod(self, modulus: "Gf2Poly") -> "Gf2Poly":
        """Compute ``self^2 mod modulus`` (used for Frobenius iteration).

        In characteristic two ``(sum a_i x^i)^2 = sum a_i^2 x^(2i)``: the
        cross terms cancel in pairs, so squaring takes ``deg + 1`` products.
        """
        field = self.field
        squared = [0] * (2 * len(self.coeffs))
        squared[::2] = [field.mul(a, a) for a in self.coeffs]
        return Gf2Poly(field, squared) % modulus

    def derivative(self) -> "Gf2Poly":
        """Formal derivative.  In characteristic two even-power terms vanish."""
        derived = []
        for index in range(1, len(self.coeffs)):
            if index % 2 == 1:
                derived.append(self.coeffs[index])
            else:
                derived.append(0)
        return Gf2Poly(self.field, derived)

    def evaluate(self, point: int) -> int:
        """Evaluate the polynomial at a field element (Horner's rule)."""
        field = self.field
        result = 0
        mul = field.multiplier(point) if field.width > 12 else None
        for coefficient in reversed(self.coeffs):
            if mul is not None:
                result = mul.mul(result) ^ coefficient
            else:
                result = field.mul(result, point) ^ coefficient
        return result

    # -------------------------------------------------------------- plumbing

    def _check_field(self, other: "Gf2Poly") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("polynomials belong to different fields")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Gf2Poly)
                and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_zero():
            return "Gf2Poly(0)"
        terms = ["%s*x^%d" % (hex(c), i) for i, c in enumerate(self.coeffs) if c]
        return "Gf2Poly(%s)" % " + ".join(terms)


def _normalize(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Strip trailing zero coefficients."""
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]
