"""Tests for polynomial arithmetic over GF(2^w)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.gf2 import GF2m, Gf2Poly


@pytest.fixture(scope="module")
def field():
    return GF2m(8)


def poly_from_ints(field, values):
    return Gf2Poly(field, values)


def test_zero_and_one(field):
    zero = Gf2Poly.zero(field)
    one = Gf2Poly.one(field)
    assert zero.is_zero()
    assert one.is_one()
    assert zero.degree == -1
    assert one.degree == 0


def test_addition_cancels(field):
    p = poly_from_ints(field, [1, 2, 3])
    assert (p + p).is_zero()


def test_multiplication_by_zero_and_one(field):
    p = poly_from_ints(field, [5, 7, 9])
    assert (p * Gf2Poly.zero(field)).is_zero()
    assert p * Gf2Poly.one(field) == p


def test_known_product(field):
    # (x + 1)(x + 1) = x^2 + 1 in characteristic two.
    p = poly_from_ints(field, [1, 1])
    assert p * p == poly_from_ints(field, [1, 0, 1])


def test_divmod_roundtrip(field):
    dividend = poly_from_ints(field, [3, 1, 4, 1, 5, 9, 2, 6])
    divisor = poly_from_ints(field, [2, 7, 1])
    quotient, remainder = dividend.divmod(divisor)
    assert remainder.degree < divisor.degree
    assert quotient * divisor + remainder == dividend


def test_division_by_zero_raises(field):
    with pytest.raises(ZeroDivisionError):
        poly_from_ints(field, [1, 2]).divmod(Gf2Poly.zero(field))


def test_gcd_of_products(field):
    a = Gf2Poly.from_roots(field, [3, 5])
    b = Gf2Poly.from_roots(field, [5, 7])
    gcd = a.gcd(b)
    assert gcd == Gf2Poly.from_roots(field, [5]).monic()


def test_from_roots_evaluates_to_zero(field):
    roots = [2, 9, 77, 200]
    poly = Gf2Poly.from_roots(field, roots)
    for root in roots:
        assert poly.evaluate(root) == 0
    assert poly.evaluate(1) != 0


def test_evaluate_horner_matches_naive(field):
    coeffs = [7, 0, 13, 5]
    poly = poly_from_ints(field, coeffs)
    point = 29
    expected = 0
    for exponent, coefficient in enumerate(coeffs):
        expected ^= field.mul(coefficient, field.pow(point, exponent))
    assert poly.evaluate(point) == expected


def test_pow_mod(field):
    modulus = Gf2Poly.from_roots(field, [1, 2, 3])
    base = Gf2Poly.x(field)
    direct = base
    for _ in range(9):
        direct = (direct * base) % modulus
    assert base.pow_mod(10, modulus) == direct


@pytest.mark.parametrize("width", [8, 13, 16, 22])
def test_square_mod_matches_the_generic_product(width):
    """Coefficient-wise squaring equals ``(p * p) % m`` on the log-table
    widths (8) and the ``FixedMultiplier`` ones (13, 16, 22)."""
    wide = GF2m(width)
    rng = random.Random(width)

    def random_poly(degree):
        if degree < 0:
            return Gf2Poly.zero(wide)
        return Gf2Poly(wide, [rng.randrange(wide.order) for _ in range(degree)]
                       + [rng.randrange(1, wide.order)])

    for degree in range(-1, 13):
        poly = random_poly(degree)
        for modulus_degree in range(1, 13):
            modulus = random_poly(modulus_degree)
            assert poly.square_mod(modulus) == (poly * poly) % modulus, \
                (degree, modulus_degree)


def test_derivative_characteristic_two(field):
    # d/dx (x^3 + x^2 + x + 1) = 3x^2 + 2x + 1 = x^2 + 1 in char 2.
    poly = poly_from_ints(field, [1, 1, 1, 1])
    assert poly.derivative() == poly_from_ints(field, [1, 0, 1])


def test_monic(field):
    poly = poly_from_ints(field, [4, 6, 8])
    monic = poly.monic()
    assert monic.leading_coefficient() == 1
    assert monic.scale(8) == poly


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=6),
       st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=6))
def test_multiplication_commutes(coeffs_a, coeffs_b):
    field = GF2m(8)
    a = Gf2Poly(field, coeffs_a)
    b = Gf2Poly(field, coeffs_b)
    assert a * b == b * a


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=2, max_size=8),
       st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=4))
def test_divmod_property(dividend_coeffs, divisor_coeffs):
    field = GF2m(8)
    dividend = Gf2Poly(field, dividend_coeffs)
    divisor = Gf2Poly(field, divisor_coeffs)
    if divisor.is_zero():
        return
    quotient, remainder = dividend.divmod(divisor)
    assert quotient * divisor + remainder == dividend
    assert remainder.degree < divisor.degree
