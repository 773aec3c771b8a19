"""Unit and property tests for GF(2^w) arithmetic."""

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.gf2 import GF2m, find_irreducible, is_irreducible


@pytest.fixture(scope="module")
def small_field():
    return GF2m(8)


@pytest.fixture(scope="module")
def large_field():
    return GF2m(32)


def test_known_irreducibles_are_irreducible():
    for width in (2, 3, 4, 8, 12, 16, 20, 32, 48, 64):
        poly = find_irreducible(width)
        assert poly.bit_length() - 1 == width
        assert is_irreducible(poly)


def test_reducible_polynomial_detected():
    # x^4 + x^2 = x^2(x^2 + 1) is reducible.
    assert not is_irreducible(0b10100)
    # (x + 1)^2 = x^2 + 1 is reducible.
    assert not is_irreducible(0b101)


def test_field_rejects_bad_width():
    with pytest.raises(ValueError):
        GF2m(0)


def test_add_is_xor(small_field):
    assert small_field.add(0b1010, 0b0110) == 0b1100


def test_mul_identity_and_zero(small_field):
    for value in range(small_field.order):
        assert small_field.mul(value, 1) == value
        assert small_field.mul(value, 0) == 0


def test_inverse_small_field_exhaustive(small_field):
    for value in range(1, small_field.order):
        inverse = small_field.inv(value)
        assert small_field.mul(value, inverse) == 1


def test_inverse_of_zero_raises(small_field):
    with pytest.raises(ZeroDivisionError):
        small_field.inv(0)


@pytest.mark.parametrize("width", [8, 22])
def test_inverse_reduces_non_canonical_input(width):
    field = GF2m(width)
    # The field polynomial itself, and its multiples, are zero in the field.
    for zero in (field.modulus, field.modulus << 3):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)
    for value in (1, 2, field.order - 1):
        assert field.inv(value ^ field.modulus) == field.inv(value)


@pytest.mark.parametrize("width", [13, 22, 32, 64])
def test_inverse_without_tables_matches_exponentiation(width):
    field = GF2m(width)
    rng = random.Random(width)
    values = [1, 2, field.order - 1] + [rng.randrange(1, field.order) for _ in range(200)]
    for value in values:
        inverse = field.inv(value)
        assert inverse == field._pow_nocache(value, field.order - 2)
        assert field.mul(value, inverse) == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_pow_matches_repeated_multiplication(small_field):
    for base in (1, 2, 7, 133, 200):
        accumulator = 1
        for exponent in range(10):
            assert small_field.pow(base, exponent) == accumulator
            accumulator = small_field.mul(accumulator, base)


@pytest.mark.parametrize("width", [8, 13, 22])
def test_pow_rejects_a_negative_exponent(width):
    # Untabled widths once looped forever on a negative exponent (-1 >> 1 is
    # -1), so the calls run in a child process under a timeout.
    script = textwrap.dedent("""
        import sys
        from repro.gf2 import GF2m
        field = GF2m(int(sys.argv[1]))
        for exponent in (-1, -2):
            try:
                field.pow(5, exponent)
            except ValueError:
                continue
            sys.exit("pow(5, %d) returned" % exponent)
    """)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", script, str(width)],
                            capture_output=True, text=True, env=env, timeout=30)
    assert result.returncode == 0, (result.returncode, result.stderr)


@pytest.mark.parametrize("width", [8, 13, 22])
def test_pow_reduces_a_non_canonical_base(width):
    field = GF2m(width)
    rng = random.Random(width)
    for value in [1, 2, field.order - 1] + [rng.randrange(1, field.order) for _ in range(20)]:
        for exponent in (0, 1, 2, 7, field.order + 3):
            expected = field.pow(value, exponent)
            assert field.pow(value ^ field.modulus, exponent) == expected
            assert field.pow(value ^ (field.modulus << 2), exponent) == expected
    # The field polynomial itself is zero in the field.
    assert field.pow(field.modulus, 3) == 0
    assert field.pow(field.modulus, 0) == 1


def test_large_field_inverse_and_pow(large_field):
    for value in (1, 2, 12345, 0xDEADBEEF % large_field.order, large_field.order - 1):
        inverse = large_field.inv(value)
        assert large_field.mul(value, inverse) == 1
    assert large_field.pow(3, 0) == 1
    assert large_field.mul(large_field.pow(3, 7), 3) == large_field.pow(3, 8)


def test_trace_is_additive(large_field):
    a, b = 0xABCDEF, 0x123456
    assert large_field.trace(a) in (0, 1)
    assert large_field.trace(a ^ b) == large_field.trace(a) ^ large_field.trace(b)


def test_fixed_multiplier_matches_generic(large_field):
    multiplier = large_field.multiplier(0xCAFEBABE % large_field.order)
    for value in (0, 1, 3, 0xFFFF, 0x12345678 % large_field.order):
        assert multiplier.mul(value) == large_field.mul(0xCAFEBABE % large_field.order, value)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(min_value=0, max_value=255),
       b=st.integers(min_value=0, max_value=255),
       c=st.integers(min_value=0, max_value=255))
def test_field_axioms_gf256(a, b, c):
    field = GF2m(8)
    # Commutativity and associativity of multiplication.
    assert field.mul(a, b) == field.mul(b, a)
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    # Distributivity over addition.
    assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)


@settings(max_examples=50, deadline=None)
@given(a=st.integers(min_value=1, max_value=(1 << 20) - 1),
       b=st.integers(min_value=1, max_value=(1 << 20) - 1))
def test_division_roundtrip_gf20(a, b):
    field = GF2m(20)
    quotient = field.div(a, b)
    assert field.mul(quotient, b) == a
