import pytest
from hypothesis import given
from hypothesis import strategies as st

from caloop.core import (
    IDENTITY,
    IDENTITY4,
    U1,
    U2,
    V1,
    V2,
    V3,
    V4,
    X,
    Y,
    Elem4,
    Elem8,
    basis,
    inv_coords,
    left_div_coords,
    mul4_coords,
    mul_coords,
    pow_coords,
    project_coords,
)

from support import ZERO8, PowCache, Unchecked, is_exact_elem8, make_rng, random_coords

coords8 = st.tuples(*[st.integers(min_value=-10 ** 9, max_value=10 ** 9)] * 8)


def test_generator_products():
    x, y = basis(1), basis(2)
    assert tuple(x * y) == (1, 1, 0, 0, 0, 0, 0, 0)
    assert tuple(Elem8((1, 1, 0, 0, 0, 0, 0, 0)) * x) == (2, 1, -1, 0, 0, 0, 0, 0)


def test_identity_element():
    assert tuple(IDENTITY) == ZERO8
    assert IDENTITY * basis(3) == basis(3)
    assert basis(5) * IDENTITY == basis(5)
    rng = make_rng(1)
    for _ in range(50):
        a = Elem8(random_coords(rng))
        assert a * IDENTITY == a


def test_commutativity_sampled():
    rng = make_rng(2)
    for _ in range(2000):
        a, b = random_coords(rng), random_coords(rng)
        assert mul_coords(a, b) == mul_coords(b, a)


def test_left_divide_examples():
    rng = make_rng(3)
    for _ in range(100):
        a = Elem8(random_coords(rng))
        assert a.left_divide(a) == IDENTITY
    c = Elem8(random_coords(rng))
    assert IDENTITY.left_divide(c) == c


@pytest.mark.parametrize("target", [tuple(range(1, 10)), (1, 2, 3)], ids=["9", "3"])
def test_left_divide_refuses_a_target_of_any_other_length(target):
    # the target is unpacked, as the product unpacks its factors
    with pytest.raises(ValueError):
        X.left_divide(target)
    with pytest.raises(ValueError):
        left_div_coords(X, target)


def test_left_divide_round_trip_sampled():
    rng = make_rng(4)
    for _ in range(2000):
        a, b = random_coords(rng), random_coords(rng)
        assert left_div_coords(a, mul_coords(a, b)) == b


@given(coords8, coords8)
def test_division_round_trip_large_coordinates(a, b):
    assert left_div_coords(a, mul_coords(a, b)) == b
    assert mul_coords(a, left_div_coords(a, b)) == b


def test_inverse_examples():
    assert tuple(basis(1).inverse()) == (-1, 0, 0, 0, 0, 0, 0, 0)
    assert IDENTITY.inverse() == IDENTITY
    rng = make_rng(5)
    for _ in range(500):
        a, b = Elem8(random_coords(rng)), Elem8(random_coords(rng))
        assert (a * b).inverse() == a.inverse() * b.inverse()
        assert a * a.inverse() == IDENTITY
        assert a.inverse() * a == IDENTITY


@pytest.mark.parametrize("span", [4, 10 ** 6, 10 ** 30])
def test_inverse_is_the_negation_and_the_left_division_of_one(span):
    rng = make_rng(15)
    for _ in range(1000):
        a = random_coords(rng, span)
        assert inv_coords(a) == left_div_coords(a, ZERO8) == tuple(-x for x in a)


def test_pow_examples():
    assert tuple(basis(1) ** 5) == (5, 0, 0, 0, 0, 0, 0, 0)
    rng = make_rng(6)
    a = Elem8(random_coords(rng))
    assert a ** 0 == IDENTITY
    assert a ** -1 == a.inverse()
    assert a ** 1 == a


def test_negative_powers_agree_with_repeated_division():
    rng = make_rng(13)
    for _ in range(20):
        a = random_coords(rng)
        acc = ZERO8
        for n in range(1, 7):
            acc = left_div_coords(a, acc)  # divide by a once more
            assert pow_coords(a, -n) == acc


@pytest.mark.parametrize("span", [4, 10 ** 6])
def test_closed_form_power_matches_iterated_products(span):
    rng = make_rng(14)
    for _ in range(15):
        a = random_coords(rng, span)
        powers = PowCache(a)
        for n in range(-70, 71):
            assert pow_coords(a, n) == powers.get(n)


def test_closed_form_divisions_are_exact_on_every_residue_class():
    # Each // 15 in pow_closed_form divides alpha(n) times an integer polynomial
    # in n, a1, a2, whose residue mod 15 depends only on n mod 45 and a1, a2
    # mod 15.  Matching the iterated power on one full period of residues
    # shows every division is exact, for all integer inputs.
    for a1 in range(15):
        for a2 in range(15):
            a = (a1, a2, 0, 0, 0, 0, 0, 0)
            powers = PowCache(a)
            for n in range(45):
                assert pow_coords(a, n) == powers.get(n)


def test_huge_exponents_cost_one_evaluation():
    a = (1, 1, 0, 0, 0, 0, 0, 0)
    n = 10 ** 100
    p = pow_coords(a, n)
    assert p[:2] == (n, n)
    assert p[2] == -(n ** 3 - n) // 3
    assert mul_coords(p, a) == pow_coords(a, n + 1)
    assert mul_coords(p, pow_coords(a, -n)) == ZERO8


def test_powers_refuse_a_non_integral_exponent():
    a = (1, 2, 3, 4, 5, 6, 7, 8)
    with pytest.raises(TypeError):
        pow_coords(a, 2.5)
    with pytest.raises(TypeError):
        Elem8(a) ** 2.0


def test_pow_addition_and_composition_laws():
    rng = make_rng(7)
    for _ in range(5):
        a = random_coords(rng)
        powers = {n: pow_coords(a, n) for n in range(-8, 9)}
        for i in range(-8, 9):
            for j in range(-8, 9):
                if -8 <= i + j <= 8:
                    assert mul_coords(powers[i], powers[j]) == powers[i + j]
                if -8 <= i * j <= 8:
                    assert pow_coords(powers[i], j) == powers[i * j]


def test_translations_injective_sampled():
    rng = make_rng(8)
    a = random_coords(rng)
    seen = {}
    for _ in range(500):
        b = random_coords(rng)
        prod = mul_coords(a, b)
        assert seen.setdefault(prod, b) == b
        assert left_div_coords(a, prod) == b


def test_mul4_examples():
    assert mul4_coords((1, 0, 0, 0), (0, 1, 0, 0)) == (1, 1, 0, 0)
    assert mul4_coords((1, 1, 0, 0), (1, 0, 0, 0)) == (2, 1, -1, 0)
    rng = make_rng(9)
    for _ in range(200):
        a = tuple(rng.randint(-5, 5) for _ in range(4))
        assert mul4_coords(a, (0, 0, 0, 0)) == a
        b = tuple(rng.randint(-5, 5) for _ in range(4))
        assert mul4_coords(a, b) == mul4_coords(b, a)


def test_projection_is_homomorphism():
    assert project_coords((2, 1, -1, 0, 7, 0, 0, 3)) == (2, 1, -1, 0)
    assert Elem8(ZERO8).project() == IDENTITY4
    rng = make_rng(10)
    for _ in range(2000):
        a, b = random_coords(rng), random_coords(rng)
        assert project_coords(mul_coords(a, b)) == mul4_coords(
            project_coords(a), project_coords(b)
        )


def test_projection_surjective_on_samples():
    rng = make_rng(11)
    for _ in range(100):
        four = tuple(rng.randint(-5, 5) for _ in range(4))
        assert project_coords(four + (0, 0, 0, 0)) == four


def test_elem_validation():
    for cls, coords, message in [
        (Elem8, (1, 2, 3), "Elem8 needs exactly 8 integers, got (1, 2, 3)"),
        (Elem8, [1.5] + [0] * 7, "Elem8 needs exactly 8 integers, got (1.5, 0, 0, 0, 0, 0, 0, 0)"),
        (Elem8, (True,) * 8, f"Elem8 needs exactly 8 integers, got {(True,) * 8!r}"),
        (Elem8, (1,) + (0,) * 6 + (False,),
         "Elem8 needs exactly 8 integers, got (1, 0, 0, 0, 0, 0, 0, False)"),
        (Elem4, (True, 0, 0, 0), "Elem4 needs exactly 4 integers, got (True, 0, 0, 0)"),
        (Elem4, iter((1, 2, 3, 4, 5)), "Elem4 needs exactly 4 integers, got (1, 2, 3, 4, 5)"),
    ]:
        with pytest.raises(ValueError) as info:
            cls(coords)
        assert str(info.value) == message
    with pytest.raises(ValueError):
        basis(9)
    with pytest.raises(ValueError):
        basis(0)


def test_elem_repr_and_coords():
    e8, e4 = Elem8(range(-3, 5)), Elem4([1, -2, 0, 7])
    assert repr(e8) == "Elem8(-3, -2, -1, 0, 1, 2, 3, 4)"
    assert repr(e4) == "Elem4(1, -2, 0, 7)"
    assert type(e8.coords) is tuple and e8.coords == (-3, -2, -1, 0, 1, 2, 3, 4)
    assert type(e4.coords) is tuple and e4.coords == (1, -2, 0, 7)


def test_basis_returns_the_shared_constants():
    for k, g in enumerate((X, Y, U1, U2, V1, V2, V3, V4), start=1):
        assert basis(k) is g
        assert g == tuple(1 if i == k - 1 else 0 for i in range(8))


def test_basis_reads_its_index_as_an_integer():
    # operator.index, as for powers: a float index is refused, even 2.0
    with pytest.raises(TypeError):
        basis(2.5)
    with pytest.raises(TypeError):
        basis(2.0)
    assert basis(True) is X


@pytest.mark.parametrize("span", [4, 10 ** 6, 2 ** 70])
def test_operators_return_exact_elements(span):
    rng = make_rng(16)
    for _ in range(200):
        a, b = Elem8(random_coords(rng, span)), Elem8(random_coords(rng, span))
        n = rng.randint(-span, span)
        results = (a * b, a ** n, ~a, a.inverse(), a.left_divide(b))
        assert all(map(is_exact_elem8, results))
        assert results == (
            mul_coords(a, b), pow_coords(a, n), inv_coords(a), inv_coords(a),
            left_div_coords(a, b),
        )
    assert is_exact_elem8(a ** True)


def test_operators_still_check_operands_that_are_not_elem8():
    e = Elem8((1, 2, 3, 4, 5, 6, 7, 8))
    floats = (1.0,) * 8
    for bad in (floats, Unchecked(floats), Unchecked((0.5,) + (0,) * 7)):
        with pytest.raises(ValueError):
            e * bad
        with pytest.raises(ValueError):
            e.left_divide(bad)
    with pytest.raises(ValueError):
        e * (1, 2, 3)
    loose = Unchecked(floats)
    for result in (lambda: loose * e, lambda: loose ** 2, lambda: ~loose,
                   loose.inverse, lambda: loose.left_divide(e)):
        with pytest.raises(ValueError):
            result()
    # bools in an operand are summed into ints before they reach the product,
    # so the checked result is an exact element, as it always was
    bools, ones = (True,) * 8, (1,) * 8
    assert is_exact_elem8(e * bools) and e * bools == e * ones
    assert is_exact_elem8(e.left_divide(bools)) and e.left_divide(bools) == e.left_divide(ones)


def test_elem_api_mirrors_coords_kernel():
    rng = make_rng(12)
    a, b = random_coords(rng), random_coords(rng)
    ea, eb = Elem8(a), Elem8(b)
    assert tuple(ea * eb) == mul_coords(a, b)
    assert tuple(~ea) == left_div_coords(a, ZERO8)
    assert ea.coords == a
    assert (Elem4(a[:4]) * Elem4(b[:4])).coords == mul4_coords(a[:4], b[:4])
