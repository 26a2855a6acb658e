import itertools

import pytest

from caloop.calculus import (
    NucleusKind,
    assoc_coords,
    associator,
    inner_l,
    inner_l_coords,
    is_member,
    witness_noncentral,
)
from caloop.core import (
    IDENTITY,
    Elem8,
    basis,
    inv_coords,
    left_div_coords,
    mul_coords,
    pow_coords,
)
from caloop.arith import alpha, beta

from support import (
    E, ZERO8, Unchecked, count_checks, is_exact_elem8, make_rng, mulmany, random_coords,
)

e = {i: basis(i) for i in range(1, 9)}


def test_free_relations():
    assert associator(e[1], e[1], e[2]) == e[3]
    assert associator(e[1], e[2], e[2]) == e[4]
    assert associator(e[1], e[1], e[3]) == e[5]
    assert associator(e[1], e[1], e[4]) == e[6]
    assert associator(e[2], e[2], e[3]) == e[7]
    assert associator(e[2], e[2], e[4]) == e[8]


def test_flexibility_sampled():
    rng = make_rng(20)
    for _ in range(1000):
        a, b = random_coords(rng), random_coords(rng)
        assert assoc_coords(a, b, a) == ZERO8


def test_reduction_equalities_on_generators():
    # the six compounded associators in generators collapse pairwise
    assert (
        assoc_coords(E[1], E[1], E[4])
        == assoc_coords(E[1], E[2], E[3])
        == assoc_coords(E[2], E[1], E[3])
    )
    assert (
        assoc_coords(E[1], E[2], E[4])
        == assoc_coords(E[2], E[1], E[4])
        == assoc_coords(E[2], E[2], E[3])
    )


def test_reversal_and_swap_expansion_sampled():
    rng = make_rng(21)
    for _ in range(500):
        a, b, c = (random_coords(rng) for _ in range(3))
        t = assoc_coords(a, b, c)
        assert t == inv_coords(assoc_coords(c, b, a))
        assert t == mul_coords(assoc_coords(a, c, b), assoc_coords(b, a, c))


def test_compounded_symmetries_sampled():
    rng = make_rng(22)
    for _ in range(200):
        a, b, c, d, f = (random_coords(rng) for _ in range(5))
        t = assoc_coords(a, b, c)
        assert inv_coords(assoc_coords(t, d, f)) == assoc_coords(f, d, t)
        assert assoc_coords(a, t, f) == mul_coords(
            assoc_coords(a, f, t), assoc_coords(t, a, f)
        )


def test_double_compounded_vanishing_sampled():
    rng = make_rng(23)
    for _ in range(200):
        a, b, c, d, f, g, h = (random_coords(rng) for _ in range(7))
        s = assoc_coords(b, c, d)
        t = assoc_coords(f, g, h)
        assert assoc_coords(a, s, t) == ZERO8
        assert assoc_coords(s, a, t) == ZERO8
        assert assoc_coords(s, t, a) == ZERO8


def test_product_expansions_sampled():
    rng = make_rng(24)
    for _ in range(200):
        a, b, c, d = (random_coords(rng) for _ in range(4))
        acd, bcd = assoc_coords(a, c, d), assoc_coords(b, c, d)
        assert assoc_coords(mul_coords(a, b), c, d) == mulmany([
            acd, bcd,
            assoc_coords(acd, a, b), assoc_coords(bcd, b, a),
            assoc_coords(acd, b, c), assoc_coords(bcd, a, c),
            assoc_coords(acd, b, d), assoc_coords(bcd, a, d),
        ])
        abc, abd = assoc_coords(a, b, c), assoc_coords(a, b, d)
        assert assoc_coords(a, b, mul_coords(c, d)) == mulmany([
            abc, abd,
            assoc_coords(abc, c, d), assoc_coords(abd, d, c),
            assoc_coords(abc, d, b), assoc_coords(abd, c, b),
            assoc_coords(abc, d, a), assoc_coords(abd, c, a),
        ])
        acd2 = assoc_coords(a, c, d)
        assert assoc_coords(a, mul_coords(b, c), d) == mulmany([
            abd, acd2,
            assoc_coords(abd, b, c), assoc_coords(acd2, c, b),
            assoc_coords(abd, c, a), assoc_coords(acd2, b, a),
            assoc_coords(abd, c, d), assoc_coords(acd2, b, d),
        ])


def test_power_formulas_sampled():
    rng = make_rng(25)
    for _ in range(60):
        a, b, c = (random_coords(rng) for _ in range(3))
        t = assoc_coords(a, b, c)
        for n in range(-6, 7):
            assert assoc_coords(pow_coords(a, n), b, c) == mulmany([
                pow_coords(t, n),
                pow_coords(assoc_coords(t, a, a), alpha(n)),
                pow_coords(assoc_coords(t, a, b), beta(n)),
                pow_coords(assoc_coords(t, a, c), beta(n)),
            ])
            assert assoc_coords(a, pow_coords(b, n), c) == mulmany([
                pow_coords(t, n),
                pow_coords(assoc_coords(t, b, b), alpha(n)),
                pow_coords(assoc_coords(t, b, a), beta(n)),
                pow_coords(assoc_coords(t, b, c), beta(n)),
            ])
            assert assoc_coords(a, b, pow_coords(c, n)) == mulmany([
                pow_coords(t, n),
                pow_coords(assoc_coords(t, c, c), alpha(n)),
                pow_coords(assoc_coords(t, c, a), beta(n)),
                pow_coords(assoc_coords(t, c, b), beta(n)),
            ])


def test_triple_power_formula_small_grid():
    rng = make_rng(26)
    for _ in range(5):
        a, b, c = (random_coords(rng) for _ in range(3))
        t = assoc_coords(a, b, c)
        comp = {
            (u, v): assoc_coords(t, u, v)
            for u in (a, b, c)
            for v in (a, b, c)
        }
        for i in range(-2, 3):
            for j in range(-2, 3):
                for k in range(-2, 3):
                    lhs = assoc_coords(pow_coords(a, i), pow_coords(b, j), pow_coords(c, k))
                    rhs = mulmany([
                        pow_coords(t, i * j * k),
                        pow_coords(comp[a, a], alpha(i) * j * k),
                        pow_coords(comp[a, b], beta(i) * j * j * k),
                        pow_coords(comp[a, c], beta(i) * j * k * k),
                        pow_coords(comp[b, a], i * beta(j) * k),
                        pow_coords(comp[b, b], i * alpha(j) * k),
                        pow_coords(comp[b, c], i * beta(j) * k * k),
                        pow_coords(comp[c, a], i * j * beta(k)),
                        pow_coords(comp[c, b], i * j * beta(k)),
                        pow_coords(comp[c, c], i * j * alpha(k)),
                    ])
                    assert lhs == rhs


def test_middle_nucleus_absorbs_associators_sampled():
    rng = make_rng(27)
    for _ in range(500):
        a, b = random_coords(rng), random_coords(rng)
        n = (0, 0) + tuple(rng.randint(-4, 4) for _ in range(6))
        assert assoc_coords(a, n, b) == ZERO8


def test_inner_l_fixes_identity_and_is_trivial_at_identity():
    rng = make_rng(28)
    for _ in range(200):
        a, b, c = (Elem8(random_coords(rng)) for _ in range(3))
        assert inner_l(a, b, IDENTITY) == IDENTITY
        assert inner_l(IDENTITY, b, c) == c


def test_inner_l_closed_form_sampled():
    rng = make_rng(29)
    for _ in range(500):
        a, b, c = (random_coords(rng) for _ in range(3))
        t = assoc_coords(a, b, c)
        closed = mul_coords(mul_coords(a, t), assoc_coords(mul_coords(b, c), a, t))
        assert inner_l_coords(b, c, a) == closed


def test_inner_l_hand_value():
    assert inner_l(e[1], e[1], e[2]) == Elem8((0, 1, -1, 0, 0, -2, 0, 0))


def test_central_associator_translation_shortcuts():
    # with (a, b, c) central, L_{b,a} shifts c by the inverse associator and
    # R_{b,c} shifts a by the associator; associator arguments from the
    # associator subloop make the associator compounded, hence central
    rng = make_rng(30)
    for _ in range(300):
        r, s, t, b, c = (random_coords(rng) for _ in range(5))
        a = assoc_coords(r, s, t)
        value = assoc_coords(a, b, c)
        assert inner_l_coords(b, a, c) == mul_coords(c, inv_coords(value))
        r_image = left_div_coords(mul_coords(b, c), mul_coords(mul_coords(a, b), c))
        assert r_image == mul_coords(a, value)


def test_is_member_examples():
    assert is_member(Elem8((0, 0, 5, -2, 1, 1, 1, 1)), NucleusKind.MIDDLE)
    assert not is_member(e[3], NucleusKind.CENTER)
    assert is_member(Elem8((0, 0, 0, 0, 9, 9, 9, 9)), NucleusKind.CENTER)
    assert is_member(Elem8((0, 0, 1, 0, 0, 0, 0, 0)), NucleusKind.ASSOCIATOR_SUBLOOP)
    assert not is_member(Elem8((1, 0, 0, 0, 0, 0, 0, 0)), NucleusKind.LEFT)
    assert not is_member(Elem8((0, 0, 0, 1, 0, 0, 0, 0)), NucleusKind.FULL)


def test_witness_for_members_is_none():
    assert witness_noncentral(NucleusKind.CENTER, Elem8((0, 0, 0, 0, 1, 0, 0, 0))) is None
    assert witness_noncentral(NucleusKind.MIDDLE, Elem8((0, 0, 3, 1, 0, 0, 0, 0))) is None


def test_witness_examples():
    w = witness_noncentral(NucleusKind.RIGHT, e[2])
    assert w is not None and w.value != IDENTITY
    assert associator(w.a, w.b, e[2]) == w.value

    w = witness_noncentral(NucleusKind.CENTER, e[3])
    assert w is not None and w.value != IDENTITY


def test_witness_found_for_every_sampled_non_member():
    rng = make_rng(31)
    kinds = list(NucleusKind)
    found = 0
    for _ in range(300):
        z = Elem8(random_coords(rng))
        for kind in kinds:
            w = witness_noncentral(kind, z)
            if is_member(z, kind):
                assert w is None
            else:
                found += 1
                assert w.value != IDENTITY
                recomputed = {
                    "left": associator(z, w.a, w.b),
                    "middle": associator(w.a, z, w.b),
                    "right": associator(w.a, w.b, z),
                }[w.slot]
                assert recomputed == w.value
    assert found > 0


# the search witness_noncentral makes, written out by slot name: the kinds'
# slots in order, then the generator pairs in order
_REFERENCE_SLOTS = {
    NucleusKind.LEFT: ("left",),
    NucleusKind.MIDDLE: ("middle",),
    NucleusKind.RIGHT: ("right",),
    NucleusKind.FULL: ("left", "middle", "right"),
    NucleusKind.CENTER: ("left", "middle", "right"),
    NucleusKind.ASSOCIATOR_SUBLOOP: ("middle",),
}
_REFERENCE_PAIRS = ((e[1], e[1]), (e[2], e[2]), (e[1], e[2]), (e[2], e[1]))


def _reference_witness(kind, z):
    zeros = 2 if kind in (NucleusKind.MIDDLE, NucleusKind.ASSOCIATOR_SUBLOOP) else 4
    if all(c == 0 for c in z[:zeros]):
        return None
    for slot in _REFERENCE_SLOTS[kind]:
        for a, b in _REFERENCE_PAIRS:
            value = {
                "left": associator(z, a, b),
                "middle": associator(a, z, b),
                "right": associator(a, b, z),
            }[slot]
            if value != IDENTITY:
                return (a, b, slot, value)
    raise AssertionError(f"the reference search found no witness for {z}")


def test_witness_matches_a_reference_search_on_members_and_non_members():
    rng = make_rng(32)
    members = {kind: 0 for kind in NucleusKind}
    for i in range(400):
        coords = random_coords(rng)
        # every third element has 2, and every other third 4, leading zeros
        zeros = (0, 2, 4)[i % 3]
        z = Elem8((0,) * zeros + coords[zeros:])
        for kind in NucleusKind:
            w = witness_noncentral(kind, z)
            expected = _reference_witness(kind, z)
            assert is_member(z, kind) == (expected is None)
            assert w == expected
            members[kind] += expected is None
    assert all(0 < n < 400 for n in members.values())


def test_center_coordinate_description_sampled():
    rng = make_rng(32)
    for _ in range(300):
        z = (0, 0, 0, 0) + tuple(rng.randint(-6, 6) for _ in range(4))
        a, b = random_coords(rng), random_coords(rng)
        assert inner_l_coords(a, b, z) == z


def _assoc_by_definition(a, b, c):
    """The t with (a*(b*c))*t = (a*b)*c, by left division."""
    return left_div_coords(mul_coords(a, mul_coords(b, c)), mul_coords(mul_coords(a, b), c))


def _inner_l_by_definition(a, b, c):
    """The z with (b*a)*z = b*(a*c), by left division."""
    return left_div_coords(mul_coords(b, a), mul_coords(b, mul_coords(a, c)))


@pytest.mark.parametrize("span", [4, 10 ** 6, 10 ** 30])
def test_closed_forms_match_the_defining_equations(span):
    rng = make_rng(33)
    for _ in range(1000):
        a, b, c = (random_coords(rng, span) for _ in range(3))
        assert assoc_coords(a, b, c) == _assoc_by_definition(a, b, c)
        assert inner_l_coords(a, b, c) == _inner_l_by_definition(a, b, c)


def test_closed_form_divisions_are_exact_on_every_residue_class():
    # Each // 3 in assoc_coords and inner_l_coords divides an integer
    # polynomial in a1, a2, b1, b2, c1, c2 only, so its residue mod 3 depends
    # only on those six mod 3.  Matching the defining equation on one full
    # period of residues shows every division is exact, for all integers.
    for a1, a2, b1, b2, c1, c2 in itertools.product(range(3), repeat=6):
        a = (a1, a2, 0, 0, 0, 0, 0, 0)
        b = (b1, b2, 0, 0, 0, 0, 0, 0)
        c = (c1, c2, 0, 0, 0, 0, 0, 0)
        assert assoc_coords(a, b, c) == _assoc_by_definition(a, b, c)
        assert inner_l_coords(a, b, c) == _inner_l_by_definition(a, b, c)


@pytest.mark.parametrize("span", [4, 10 ** 6, 2 ** 70])
def test_associator_and_inner_l_return_exact_elements(span):
    rng = make_rng(34)
    for _ in range(200):
        a, b, c = (Elem8(random_coords(rng, span)) for _ in range(3))
        t, z = associator(a, b, c), inner_l(a, b, c)
        assert is_exact_elem8(t) and t == assoc_coords(a, b, c)
        assert is_exact_elem8(z) and z == inner_l_coords(a, b, c)


def test_associator_and_inner_l_on_exact_elements_skip_the_check(monkeypatch):
    rng = make_rng(35)
    a, b, c = (Elem8(random_coords(rng)) for _ in range(3))
    checks = count_checks(monkeypatch)
    assert is_exact_elem8(associator(a, b, c)) and is_exact_elem8(inner_l(a, b, c))
    assert checks == []


@pytest.mark.parametrize("slot", range(3))
def test_associator_and_inner_l_check_once_for_a_plain_tuple(slot, monkeypatch):
    args = [e[1], e[2], e[3]]
    args[slot] = random_coords(make_rng(36))
    checks = count_checks(monkeypatch)
    assert is_exact_elem8(associator(*args)) and checks == [Elem8]
    assert is_exact_elem8(inner_l(*args)) and checks == [Elem8, Elem8]


@pytest.mark.parametrize("slot", range(3))
def test_associator_and_inner_l_still_check_operands_that_are_not_elem8(slot):
    floats = (1.0,) * 8
    for bad in (floats, Unchecked(floats), Unchecked((0.5,) + (0,) * 7)):
        args = [e[1], e[2], e[3]]
        args[slot] = bad
        with pytest.raises(ValueError):
            associator(*args)
        with pytest.raises(ValueError):
            inner_l(*args)
    # inner_l passes c1, c2 through unchanged, so bools there reach the
    # result and the check refuses them; elsewhere they are summed into ints
    bools = (True,) * 8
    args = [e[1], e[2], e[3]]
    args[slot] = bools
    assert is_exact_elem8(associator(*args))
    if slot == 2:
        with pytest.raises(ValueError):
            inner_l(*args)
    else:
        assert is_exact_elem8(inner_l(*args))
