from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from caloop.arith import alpha, beta

ints = st.integers(min_value=-10 ** 12, max_value=10 ** 12)


def test_alpha_values():
    assert alpha(0) == 0
    assert alpha(2) == 2
    assert alpha(-3) == -8
    assert alpha(3) == 8


def test_alpha_rejects_a_non_integer():
    with pytest.raises(ValueError, match="3 does not divide"):
        alpha(Fraction(1, 2))


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

