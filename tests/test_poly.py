import copy
import pickle
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caloop import poly
from caloop.arith import alpha
from caloop.poly import (
    MAX_DEGREE,
    DegreeLimitExceeded,
    Polynomial,
    TermLimitExceeded,
    VariableTableMismatch,
    VarTable,
    peak_stats,
    reset_stats,
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


def test_hash_agrees_with_equality():
    x = _x()
    five, half, zero = Polynomial.const(XY, 5), Polynomial.const(XY, Fraction(1, 2)), x - x
    for p, scalar in ((five, 5), (five, Fraction(5)), (half, Fraction(1, 2)),
                      (zero, 0), (Polynomial.zero(XY), Fraction(0))):
        assert p == scalar and hash(p) == hash(scalar)
    assert hash(x * 3 - x) == hash(2 * x)
    mixed = {five, 5, Fraction(5), half, Fraction(1, 2), zero, 0, x, x + 0, 2 * x}
    assert mixed == {5, Fraction(1, 2), 0, x, 2 * x}
    assert len(mixed) == 5


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
    x, z = _x(), Polynomial.var(VarTable(("Z",)), 0)
    for op in (lambda: x + z, lambda: x - z, lambda: x * z, lambda: x.__rsub__(z),
               lambda: z + x, lambda: z - x, lambda: z * x):
        with pytest.raises(VariableTableMismatch):
            op()


def test_an_equal_table_object_combines_like_the_same_one():
    # an equal but distinct table takes the checked route, not the identity
    # short-cut, and still combines; the result is on the left operand's table
    x, y = _x(), _y()
    twin = VarTable(("X", "Y"))
    y2 = Polynomial.var(twin, 1)
    assert twin is not XY and twin == XY
    for got, want in ((x + y2, x + y), (x - y2, x - y), ((x + 1) * y2, (x + 1) * y),
                      (x.__rsub__(y2), y - x), (y2 - x, y - x)):
        assert got == want and got._terms == want._terms and got.den == want.den
    assert (x + y2).table is XY and (y2 * x).table is twin


def test_other_operands_keep_their_meaning():
    x = _x()
    third = Fraction(1, 3)
    assert x + third == Polynomial(XY, {((0, 1),): 1, (): third})
    assert third - x == -(x - third) and x * third == x // 3
    for op in (lambda: x + 1.5, lambda: x - "1", lambda: x * 1.5, lambda: 1.5 - x):
        with pytest.raises(TypeError):
            op()


def test_a_coefficient_that_is_not_an_int_or_a_fraction_is_refused():
    # the constructor and const refuse a float as the operators do, and name it
    for build in (lambda c: Polynomial(XY, {((0, 1),): c}), lambda c: Polynomial.const(XY, c)):
        for c in (1.5, "1", None):
            with pytest.raises(TypeError, match=re.escape(f"coefficient {c!r}")):
                build(c)


def test_a_polynomial_takes_no_assignment():
    # table and den are read-only properties, terms a read-only view, and
    # the slots admit no other attribute
    p = _x() // 3
    for name, value in (("table", XY), ("den", 1), ("terms", {}), ("coeffs", {})):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    for name in ("table", "den", "terms"):
        with pytest.raises(AttributeError):
            delattr(p, name)
    with pytest.raises(TypeError):
        p.terms[((0, 1),)] = 1
    assert p.table is XY and p.den == 3 and p == Polynomial(XY, {((0, 1),): Fraction(1, 3)})


def test_term_limit(monkeypatch):
    x, y = _x(), _y()
    big = (x + y) ** 6
    monkeypatch.setattr(poly, "TERM_LIMIT", 5)
    with pytest.raises(TermLimitExceeded):
        big * big
    # every polynomial built is checked, sums and differences too
    for build in (lambda: big + x, lambda: big - x, lambda: x - big, lambda: -big):
        with pytest.raises(TermLimitExceeded):
            build()


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
        point = tuple(rng.randint(-6, 6) for _ in range(3))
        value = sp.subs(dict(zip(syms, point)))
        assert p.evaluate(point) == Fraction(int(value.p), int(value.q))


# -- packed monomials: the exponent fields and the degree field ------------


def test_product_past_the_degree_field_raises():
    x, y = _x(), _y()
    top = x ** MAX_DEGREE
    with pytest.raises(DegreeLimitExceeded):
        top * x
    with pytest.raises(DegreeLimitExceeded):
        (x ** 200 + 1) * (y ** 100 - x)
    # degree MAX_DEGREE itself is allowed, and x^a * x^b never spills into Y
    p = x ** 100 * x ** (MAX_DEGREE - 100)
    assert dict(p.terms) == {((0, MAX_DEGREE),): 1}
    assert p.degree() == MAX_DEGREE
    assert p.evaluate((2, 3)) == 2 ** MAX_DEGREE
    with pytest.raises(DegreeLimitExceeded):
        Polynomial(XY, {((0, MAX_DEGREE), (1, 1)): 1})


def test_largest_exponent_round_trips_through_terms():
    wide = VarTable(tuple(f"v{i}" for i in range(56)))
    for mon in [((0, MAX_DEGREE),), ((55, MAX_DEGREE),), ((0, 1), (55, MAX_DEGREE - 1))]:
        p = Polynomial(wide, {mon: Fraction(-7, 3)})
        assert dict(p.terms) == {mon: Fraction(-7, 3)}
        assert p.terms[mon] == Fraction(-7, 3)
        assert Polynomial(wide, p.terms) == p
        assert p.degree() == MAX_DEGREE


@pytest.mark.parametrize(
    "make",
    [
        lambda: Fraction(2, 3) * _x() * _x() * _y() - 5 * _y() + 1,
        lambda: Polynomial.zero(XY),
        lambda: Polynomial.const(XY, 7),
    ],
    ids=["rational", "zero", "constant"],
)
@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_round_trip(make, copier):
    p = make()
    q = copier(p)
    assert q == p and hash(q) == hash(p)
    assert q.degree() == p.degree() and q.table == p.table


def test_degree_is_exact_after_cancellation():
    x, y = _x(), _y()
    assert ((x ** 3 + y) - x ** 3).degree() == 1
    assert (x ** 3 - x ** 3).degree() == 0
    assert ((x + y) * (x - y) + y * y).degree() == 2
    assert ((x + y) - x).degree() == 1
    assert (x * y - y * x).degree() == 0
    assert (x * y + 1 - x * y).degree() == 0
    assert ((x * y + x) + (1 - x * y)).degree() == 1
    for p in ((x + y) - x, x * y - y * x, (x * y + x) - x * y):
        assert p.degree() == _key_degree(p)


def test_peak_stats_report_the_exact_peak():
    x, y = _x(), _y()
    reset_stats()
    p = (x * y + 1) * (x * x * y - 2)  # degree 5, 4 terms
    p - p
    assert peak_stats() == (5, 4)
    reset_stats()
    assert peak_stats() == (0, 0)


# -- differential test against a plain tuple-of-pairs reference -----------


def _ref_add(p, q):
    out = dict(p)
    for mon, c in q.items():
        out[mon] = out.get(mon, 0) + c
    return {mon: c for mon, c in out.items() if c}


def _ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            e = dict(m1)
            for v, k in m2:
                e[v] = e.get(v, 0) + k
            mon = tuple(sorted(e.items()))
            out[mon] = out.get(mon, 0) + c1 * c2
    return {mon: c for mon, c in out.items() if c}


def _ref_degree(p):
    return max((sum(e for _, e in mon) for mon in p), default=0)


def _key_degree(p):
    """The degree that a polynomial's largest packed key holds; 0 for zero."""
    return max(p._terms) >> (poly.BITS * len(p.table)) if p._terms else 0


def _peak_of(*polys):
    """peak_stats() recomputed from scratch over the polynomials built."""
    return max(_key_degree(p) for p in polys), max(len(p._terms) for p in polys)


def _ref_evaluate(p, point):
    total = 0
    for mon, c in p.items():
        for v, e in mon:
            c *= point[v] ** e
        total += c
    return total


@st.composite
def _monomial(draw, n, cap):
    # split a total degree of at most cap among up to 3 variables; an
    # exponent often takes all that is left, so fields reach the limit
    left = draw(st.one_of(st.just(cap), st.integers(0, cap)))
    exps = {}
    for v in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        if left == 0:
            break
        e = draw(st.one_of(st.just(left), st.integers(1, left)))
        exps[v] = e
        left -= e
    return tuple(sorted(exps.items()))


_COEFFS = st.one_of(
    st.integers(-5, 5), st.fractions(-5, 5, max_denominator=3)
).filter(lambda c: c != 0)


def _ref_polys(n, cap):
    return st.dictionaries(_monomial(n, cap), _COEFFS, max_size=4)


@st.composite
def _wide_case(draw):
    # tables of 1 to 56 variables (the catalog reaches 56); the two degree
    # caps sum to MAX_DEGREE or just past it, so products fill the degree
    # field and sometimes must be refused
    n = draw(st.integers(1, 56))
    cap = draw(st.integers(0, MAX_DEGREE))
    over = draw(st.integers(0, 1))
    p = draw(_ref_polys(n, cap))
    q = draw(_ref_polys(n, min(MAX_DEGREE, MAX_DEGREE - cap + over)))
    point = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    k = draw(st.sampled_from([-3, -2, -1, 1, 2, 3, 7]))
    return n, p, q, point, k


@settings(max_examples=300)
@given(_wide_case())
def test_packed_arithmetic_matches_tuple_reference(case):
    n, p, q, point, k = case
    table = VarTable(tuple(f"v{i}" for i in range(n)))
    reset_stats()
    P, Q = Polynomial(table, p), Polynomial(table, q)
    assert dict(P.terms) == p
    assert P.degree() == _ref_degree(p)
    assert P.evaluate(point) == _ref_evaluate(p, point)
    neg_q = {m: -c for m, c in q.items()}
    results = [
        (P + Q, _ref_add(p, q)),
        (P - Q, _ref_add(p, neg_q)),
        ((P + Q) - Q, p),  # Q's terms cancel
        (P - P, {}),
        (-P, {m: -c for m, c in p.items()}),
        (P * k, {m: c * k for m, c in p.items()}),
        (P // k, {m: c * Fraction(1, k) for m, c in p.items()}),
    ]
    if P.degree() + Q.degree() > MAX_DEGREE:
        with pytest.raises(DegreeLimitExceeded):
            P * Q
    else:
        pq = _ref_mul(p, q)
        results.append((P * Q, pq))
        assert (P * Q).evaluate(point) == _ref_evaluate(pq, point)
    assert peak_stats() == _peak_of(P, Q, *(r for r, _ in results))
    for result, ref in results:
        assert dict(result.terms) == ref
        assert result.degree() == _ref_degree(ref)
        assert result.degree() == _key_degree(result)


# -- integer numerators over one reduced denominator -----------------------


def _assert_reduced(p):
    """The representation invariant: den > 0, gcd(den, *numerators) == 1,
    and the zero polynomial has den == 1."""
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(c, int) and c for c in p._terms.values())
    assert gcd(p.den, *p._terms.values()) == 1
    assert p._terms or p.den == 1
    # terms decode to int when integral, else to a Fraction
    assert all(type(c) is int or c.denominator != 1 for c in p.terms.values())


def test_equal_polynomials_built_by_different_routes_are_identical():
    x, y = _x(), _y()
    routes = [
        ((x // 3) * 3, x),
        (x // 6 + x // 3, x // 2),
        ((x * 2) // 4, x // 2),
        (x // -2, -(x // 2)),
        ((x * y) // 3 - (x * y) // 3, Polynomial.zero(XY)),
        ((x + 1) // 3 * 6 - 2, 2 * x),
        (x * Fraction(5, 6) // 5 * 2, Polynomial(XY, {((0, 1),): Fraction(1, 3)})),
        (Fraction(2, 3) - x // 3, (2 - x) // 3),
    ]
    for p, q in routes:
        _assert_reduced(p)
        _assert_reduced(q)
        assert p == q and hash(p) == hash(q)
        assert p.den == q.den and p._terms == q._terms


def test_zero_and_scalar_short_cuts_leave_peak_stats_as_the_full_operation():
    x, y = _x(), _y()
    p = ((x + y + 1) ** 3) // 3  # 10 terms, degree 3
    zero = Polynomial.zero(XY)
    reset_stats()
    small = x * y
    before = peak_stats()
    # a zero operand builds nothing, so p's size is not recorded
    assert p * zero is zero and zero * p is zero
    assert p * 0 == 0 and 0 * p == 0
    assert p + zero is p and zero + p is p and p - zero is p and p + 0 is p
    assert peak_stats() == before == (small.degree(), len(small.terms)) == (2, 1)
    # an int factor builds the product only, as the full product does
    for k in (3, -6):
        reset_stats()
        scaled = p * k
        short = peak_stats()
        reset_stats()
        full = p * Polynomial.const(XY, k)
        assert full == scaled and peak_stats() == short
        _assert_reduced(scaled)


def _same(short, full):
    """``short`` is reduced and has the representation and degree of ``full``."""
    _assert_reduced(short)
    assert short._terms == full._terms and short.den == full.den
    assert short.degree() == full.degree() == _key_degree(short)


def _peak_after(build):
    reset_stats()
    result = build()
    return result, peak_stats()


def test_int_addend_short_cut_matches_the_constant_route():
    x, y = _x(), _y()
    five = Polynomial.const(XY, 5)
    operands = [
        x * y - 2 * x + 5,  # k = -5 cancels the constant term
        x * y // 3 + 2,  # den 3
        (x - 6) // 3,  # x/3 - 2: k = 2 cancels the constant term over den 3
        x,
        five,  # a constant
        Polynomial.zero(XY),
    ]
    for p in operands:
        for k in (-5, -1, 2, 7):
            for short_route, full_route in (
                (lambda: p + k, lambda: p + Polynomial.const(XY, k)),
                (lambda: k + p, lambda: Polynomial.const(XY, k) + p),
                (lambda: p - k, lambda: p - Polynomial.const(XY, k)),
            ):
                short, short_peak = _peak_after(short_route)
                full, full_peak = _peak_after(full_route)
                _same(short, full)
                if short._terms:
                    assert short_peak == full_peak
                else:
                    # the constant route also built k's constant, degree 0 and one term
                    assert short_peak == (0, 0) and full_peak == (0, 1)
    # the documented example: c - 5 for the constant c = 5
    assert _peak_after(lambda: five - 5)[1] == (0, 0)
    assert _peak_after(lambda: five - Polynomial.const(XY, 5))[1] == (0, 1)
    # an int 0 returns the polynomial itself
    p = operands[1]
    assert p + 0 is p and 0 + p is p and p - 0 is p


def test_one_term_factor_matches_the_reference_product():
    x, y = _x(), _y()
    one_term = [Fraction(2, 3) * x * y, -7 * y * y, Polynomial.const(XY, Fraction(-5, 4)), x]
    others = [x // 3 + 5 * y - 1, (x + y) ** 3 // 6, Fraction(3, 2) * x, x * y]
    for m in one_term:
        for p in others:
            ref = Polynomial(XY, _ref_mul(dict(m.terms), dict(p.terms)))
            for build in (lambda: m * p, lambda: p * m):
                result, peak = _peak_after(build)
                _same(result, ref)
                assert peak == (result.degree(), len(result._terms))


def test_cancelling_product_drops_its_zero_coefficients():
    x, y = _x(), _y()
    for a, b, ref in ((x + y, x - y, {((0, 2),): 1, ((1, 2),): -1}),
                      (x // 3 + y, x // 3 - y, {((0, 2),): Fraction(1, 9), ((1, 2),): -1}),
                      (x + 1, x * x - x + 1, {((0, 3),): 1, (): 1})):
        result, peak = _peak_after(lambda: a * b)
        _same(result, Polynomial(XY, ref))
        assert peak == (result.degree(), len(result._terms))


_OPERAND_KINDS = ("poly", "zero", "const", "int", "one-term")


@st.composite
def _rational_case(draw):
    # coefficients with denominators up to 12, so the two sides' common
    # denominators differ and their lcm is not their product; either side may
    # be the zero polynomial, a constant, one term or a plain int
    n = draw(st.integers(1, 6))
    coeffs = st.fractions(-20, 20, max_denominator=12).filter(lambda c: c != 0)
    sides = []
    for _ in range(2):
        kind = draw(st.sampled_from(_OPERAND_KINDS))
        if kind == "poly":
            ref = draw(st.dictionaries(_monomial(n, 6), coeffs, max_size=5))
        elif kind == "zero":
            ref = {}
        elif kind == "const":
            ref = {(): draw(coeffs)}
        elif kind == "one-term":
            ref = {draw(_monomial(n, 6)): draw(coeffs)}
        else:
            ref = {(): draw(st.integers(-6, 6))}
        sides.append((kind, ref))
    k = draw(st.integers(-9, 9).filter(lambda v: v != 0))
    point = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return n, sides, k, point


@settings(max_examples=300)
@given(_rational_case())
def test_rational_arithmetic_matches_fraction_reference(case):
    n, ((kind_p, p), (kind_q, q)), k, point = case
    table = VarTable(tuple(f"v{i}" for i in range(n)))

    def build(kind, ref):
        return ref.get((), 0) if kind == "int" else Polynomial(table, ref)

    reset_stats()
    P, Q = build(kind_p, p), build(kind_q, q)
    if kind_p == "int":
        if kind_q == "int":
            return
        P, Q, p, q = Q, P, q, p  # keep a Polynomial on the left of //
    neg_q = {m: -c for m, c in q.items()}
    results = (
        (P + Q, _ref_add(p, q)), (Q + P, _ref_add(p, q)),
        (P - Q, _ref_add(p, neg_q)), (Q - P, _ref_add(q, {m: -c for m, c in p.items()})),
        (P * Q, _ref_mul(p, q)), (Q * P, _ref_mul(p, q)),
        (P // k, {m: c / k for m, c in p.items()}),
        (P * k, {m: c * k for m, c in p.items()}),
        (-P, {m: -c for m, c in p.items()}),
    )
    built = [P, Q] + [r for r, _ in results]
    assert peak_stats() == _peak_of(*(b for b in built if isinstance(b, Polynomial)))
    for result, ref in results:
        _assert_reduced(result)
        assert dict(result.terms) == ref
        assert result.degree() == _ref_degree(ref)
        assert result.degree() == _key_degree(result)
        assert result.evaluate(point) == _ref_evaluate(ref, point)
        again = Polynomial(table, ref)
        assert result == again and hash(result) == hash(again)
