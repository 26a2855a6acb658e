from fractions import Fraction

import pytest

from caloop.arith import alpha
from caloop.poly import (
    Polynomial,
    TermLimitExceeded,
    VariableTableMismatch,
    VarTable,
    set_term_limit,
)

from support import make_rng

XY = VarTable(("X", "Y"))


def _x():
    return Polynomial.var(XY, 0)


def _y():
    return Polynomial.var(XY, 1)


def test_difference_of_squares():
    x, y = _x(), _y()
    assert (x + y) * (x - y) == x * x - y * y


def test_substitute_examples():
    x, y = _x(), _y()
    assert (x * y + y).substitute({0: 0}) == y
    assert (x * y + y).substitute({0: y}) == y * y + y
    assert (x * x).substitute({0: x + 1}) == x * x + 2 * x + 1


def test_evaluate_examples():
    x = _x()
    p = x * x * x - x
    assert p.evaluate((4, 0)) == 60
    v = ((x * x * x - x) // 3).evaluate((2, 0))
    assert v == alpha(2) == 2
    assert isinstance(v, int)


# alpha(n) = (n^3 - n) / 3 and beta(n) = n^2 - n, written as the kernel
# mul_coords writes them, on polynomial arguments
def test_sym_alpha_expansion():
    x = _x()
    third = Fraction(1, 3)
    expected = Polynomial(XY, {(((0, 3),)): third, (((0, 1),)): -third})
    assert (x * x * x - x) // 3 == expected


def test_sym_beta_expansion():
    x, y = _x(), _y()
    s = x + y
    assert s * s - s == x * x + 2 * x * y + y * y - x - y


def test_floordiv_is_exact_rational_division():
    x, y = _x(), _y()
    p = x * y - 2 * x
    assert p // 3 == p * Fraction(1, 3)
    assert p // -2 == x * y * Fraction(-1, 2) + x
    assert (p * 6) // 3 == 2 * p
    with pytest.raises(ZeroDivisionError):
        p // 0
    with pytest.raises(TypeError):
        p // Fraction(1, 2)


def test_alpha_form_takes_alpha_values():
    rng = make_rng(41)
    x, y = _x(), _y()
    s = x + 2 * y
    a = (s * s * s - s) // 3
    for _ in range(200):
        point = (rng.randint(-50, 50), rng.randint(-50, 50))
        v = a.evaluate(point)
        assert v == alpha(point[0] + 2 * point[1])
        assert isinstance(v, int)


def test_zero_and_scalar_behaviour():
    x = _x()
    assert (x - x).is_zero()
    assert Polynomial.zero(XY).is_zero()
    assert Polynomial.const(XY, 0).is_zero()
    assert x * 0 == 0
    assert x + 0 == x
    assert 2 * x - x == x
    assert (x * 2).evaluate((3, 0)) == 6


def test_integral_fractions_normalize_to_int():
    x = _x()
    p = x * Fraction(1, 3) * 3
    assert p == x
    assert isinstance(next(iter(p.terms.values())), int)


def test_degree_and_str():
    x, y = _x(), _y()
    p = x * x * y - y + 5
    assert p.degree() == 3
    assert str(p) == "X^2*Y - Y + 5"
    assert str(Polynomial.zero(XY)) == "0"


def test_table_mismatch_raises():
    other = VarTable(("Z",))
    with pytest.raises(VariableTableMismatch):
        _x() + Polynomial.var(other, 0)


def test_term_limit():
    x, y = _x(), _y()
    big = (x + y) ** 6
    set_term_limit(5)
    try:
        with pytest.raises(TermLimitExceeded):
            big * big
    finally:
        set_term_limit(10_000_000)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        _x() ** -1


def test_evaluation_is_ring_homomorphism():
    rng = make_rng(40)

    def random_poly():
        p = Polynomial.zero(XY)
        for _ in range(rng.randint(1, 5)):
            mon = Polynomial.const(XY, rng.randint(-4, 4))
            for _ in range(rng.randint(0, 3)):
                mon = mon * Polynomial.var(XY, rng.randint(0, 1))
            p = p + mon
        return p

    for _ in range(300):
        p, q = random_poly(), random_poly()
        point = (rng.randint(-6, 6), rng.randint(-6, 6))
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (-p).evaluate(point) == -p.evaluate(point)


def test_ring_operations_agree_with_sympy():
    # sympy is a test-only oracle; the package never imports it
    sympy = pytest.importorskip("sympy")
    table = VarTable(("X", "Y", "Z"))
    syms = sympy.symbols("X Y Z")
    rng = make_rng(42)

    def random_poly():
        p = Polynomial.zero(table)
        for _ in range(rng.randint(0, 4)):
            mon = Polynomial.const(table, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3)):
                mon = mon * Polynomial.var(table, rng.randrange(3))
            p = p + mon
        return p

    def to_sympy(p):
        total = sympy.Integer(0)
        for mon, c in p.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for v, e in mon:
                term *= syms[v] ** e
            total += term
        return total

    def same(p, expr):
        return sympy.expand(to_sympy(p) - expr) == 0

    for _ in range(150):
        p, q = random_poly(), random_poly()
        sp, sq = to_sympy(p), to_sympy(q)
        assert same(p + q, sp + sq)
        assert same(p - q, sp - sq)
        assert same(p * q, sp * sq)
        k = rng.choice([-3, -2, -1, 1, 2, 3, 7])
        assert same(p // k, sp / k)
        v = rng.randrange(3)
        assert same(p.substitute({v: q}), sp.subs(syms[v], sq))
        point = tuple(rng.randint(-6, 6) for _ in range(3))
        value = sp.subs(dict(zip(syms, point)))
        assert p.evaluate(point) == Fraction(int(value.p), int(value.q))
