import pytest
from hypothesis import given
from hypothesis import strategies as st

from caloop.arith import ModInt, ModulusMismatch, Rat, alpha, beta

ints = st.integers(min_value=-10 ** 12, max_value=10 ** 12)


def test_alpha_values():
    assert alpha(0) == 0
    assert alpha(2) == 2
    assert alpha(-3) == -8
    assert alpha(3) == 8


def test_alpha_rejects_a_non_integer():
    with pytest.raises(ValueError, match="3 does not divide"):
        alpha(Rat(1, 2))


def test_beta_values():
    assert beta(0) == 0
    assert beta(1) == 0
    assert beta(-2) == 6


@given(ints)
def test_alpha_is_exact_division(n):
    assert 3 * alpha(n) == n ** 3 - n


@given(ints)
def test_alpha_beta_recurrences(n):
    assert alpha(n + 1) == alpha(n) + n * n + n
    assert beta(n + 1) == beta(n) + 2 * n


@given(ints)
def test_alpha_beta_negation(n):
    assert alpha(-n) == -alpha(n)
    assert beta(-n) == 2 * n * n - beta(n)


def test_rat_examples():
    assert Rat(1, 3) + Rat(2, 3) == 1
    assert Rat(2, 4) == Rat(1, 2)
    assert Rat(2, 4).numerator == 1 and Rat(2, 4).denominator == 2
    with pytest.raises(ZeroDivisionError):
        1 / Rat(0)


def test_rat_reduced_with_positive_denominator():
    r = Rat(6, -9)
    assert r.numerator == -2 and r.denominator == 3


@given(ints, ints)
def test_rat_embeds_int_arithmetic(a, b):
    assert Rat(a) + Rat(b) == Rat(a + b)
    assert Rat(a) * Rat(b) == Rat(a * b)
    assert -Rat(a) == Rat(-a)


def test_modint_examples():
    assert ModInt(3, 5) + ModInt(4, 5) == ModInt(2, 5)
    assert ModInt(2, 5) * ModInt(3, 5) == ModInt(1, 5)
    with pytest.raises(ModulusMismatch):
        ModInt(3, 5) + ModInt(1, 7)


def test_modint_normalizes_residue():
    assert ModInt(-1, 5).residue == 4
    assert ModInt(12, 5) == ModInt(2, 5)
    assert (-ModInt(2, 5)).residue == 3


def test_modint_rejects_bad_modulus():
    with pytest.raises(ValueError):
        ModInt(0, 0)
    with pytest.raises(ValueError):
        ModInt(1, -3)
