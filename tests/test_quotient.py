import functools
import hashlib
import random
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from caloop.calculus import inner_l_coords
from caloop.core import left_div_coords, mul_coords
from caloop import quotient
from caloop.quotient import (
    ARRAY_CHUNK,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    LEVELS,
    MAX_SAMPLED_TRIALS,
    BudgetExceeded,
    QuotientLoop,
    _center,
    _central_set,
    _coset_representatives,
    _distinct_inner_maps,
    _intermediate_bound,
    _left_division,
    _read_table_bin,
    _read_table_csv,
    _residue,
    validate_table_file,
)

from support import PowCache, make_rng


def test_modulus_validation():
    with pytest.raises(ValueError):
        QuotientLoop(1)
    with pytest.raises(ValueError, match="divisible by 3"):
        QuotientLoop(3)
    with pytest.raises(ValueError, match="divisible by 3"):
        QuotientLoop(6)
    assert QuotientLoop(2).order == 256
    assert QuotientLoop(5).order == 390625


@pytest.mark.parametrize("modulus", [2.5, 2.0, 4.0])
def test_a_non_integral_modulus_is_a_type_error(modulus):
    # only an int names a quotient (Z/m)^8, integral float or not
    with pytest.raises(TypeError):
        QuotientLoop(modulus)


def test_alpha_obstruction_message_is_concrete():
    with pytest.raises(ValueError, match=r"maps 3 to 8"):
        QuotientLoop(3)


def test_reduction_is_homomorphism():
    rng = make_rng(70)
    for m in (2, 4, 5):
        q = QuotientLoop(m)
        for _ in range(300):
            a = tuple(rng.randint(-20, 20) for _ in range(8))
            b = tuple(rng.randint(-20, 20) for _ in range(8))
            assert q.reduce(mul_coords(a, b)) == q.mul(q.reduce(a), q.reduce(b))


def test_lift_independence():
    rng = make_rng(71)
    q = QuotientLoop(5)
    for _ in range(300):
        a = tuple(rng.randrange(5) for _ in range(8))
        b = tuple(rng.randrange(5) for _ in range(8))
        lifted_a = tuple(c + 5 * rng.randint(-3, 3) for c in a)
        lifted_b = tuple(c + 5 * rng.randint(-3, 3) for c in b)
        assert q.mul(lifted_a, lifted_b) == q.mul(a, b)


def test_division_and_powers():
    rng = make_rng(72)
    q = QuotientLoop(5)
    x = (1, 0, 0, 0, 0, 0, 0, 0)
    assert q.power(x, 5) == (0,) * 8
    for _ in range(200):
        a = tuple(rng.randrange(5) for _ in range(8))
        b = tuple(rng.randrange(5) for _ in range(8))
        assert q.left_divide(a, q.mul(a, b)) == b


def test_power_matches_reduced_iterated_products():
    rng = make_rng(73)
    q = QuotientLoop(5)
    for _ in range(40):
        a = tuple(rng.randrange(5) for _ in range(8))
        acc = (0,) * 8
        for n in range(8):
            assert q.power(a, n) == acc
            assert q.power(a, -n) == q.left_divide(acc, (0,) * 8)
            acc = q.mul(acc, a)


def test_power_at_a_huge_exponent():
    # a generates a cyclic subloop whose order divides the loop's order 5^8
    # (Lagrange's theorem holds in commutative automorphic loops), and 5^8
    # divides 10^30, so a^(10^30 + r) = a^r
    rng = make_rng(74)
    q = QuotientLoop(5)
    for _ in range(20):
        a = tuple(rng.randrange(5) for _ in range(8))
        powers = PowCache(a)
        for r in range(-3, 8):
            assert q.power(a, 10 ** 30 + r) == q.reduce(powers.get(r))


def test_power_refuses_a_non_integral_exponent():
    with pytest.raises(TypeError):
        QuotientLoop(5).power((1, 2, 3, 4, 0, 0, 0, 0), 2.5)


def test_power_refuses_array_coordinates_and_takes_numpy_integers_exactly():
    # the int64 bound does not cover pow_coords, whose intermediates at this
    # exponent pass int64, so an array coordinate is refused, not wrapped
    q = QuotientLoop(2)
    ones = tuple(np.ones(3, dtype=np.int64) for _ in range(8))
    with pytest.raises(TypeError):
        q.power(ones, 10 ** 6)
    assert q.power((1,) * 8, 10 ** 6) == (0,) * 8
    assert q.power(tuple(np.int64(1) for _ in range(8)), 10 ** 6) == (0,) * 8


def test_element_indexing_is_lexicographic():
    q = QuotientLoop(2)
    assert q.element_index((0,) * 8) == 0
    assert q.element_index((0, 0, 0, 0, 0, 0, 0, 1)) == 1
    assert q.element_index((1, 0, 0, 0, 0, 0, 0, 0)) == 128
    for i in (0, 1, 2, 37, 255):
        assert q.element_index(q.element_coords(i)) == i


@pytest.mark.parametrize("m", [2, 4, 5, 7, 8])
def test_residue_is_the_remainder(m):
    values = list(range(-130, 130)) + [-2 ** 63, 2 ** 63 - 1, -(10 ** 40) - 3, 10 ** 40 + 3]
    assert [_residue(v, m) for v in values] == [v % m for v in values]
    for width in (np.int8, np.int16, np.int32, np.int64):
        info = np.iinfo(width)
        a = np.array([info.min, info.min + 1, -m - 1, -m, -1, 0, 1, m - 1, m, m + 1, info.max - 1,
                      info.max, *range(-50, 50)], dtype=width)
        r = _residue(a, m)
        assert r.dtype == a.dtype
        assert np.array_equal(r, a % m)
        assert all(0 <= v < m for v in r.tolist())


def test_axioms_check_m2():
    report = QuotientLoop(2).exhaustive_check("axioms")
    assert report.passed
    assert report.checks["latin-rows"] and report.checks["latin-columns"]
    assert report.checks["commutative"]
    assert report.counts["products-checked"] == 65536
    assert report.counts["center-size"] == 16


def test_axioms_check_does_not_scan_inner_maps(monkeypatch):
    def refuse(*_):
        raise AssertionError("the axioms level must not build this")

    monkeypatch.setattr(quotient, "_distinct_inner_maps", refuse)
    monkeypatch.setattr(quotient, "_left_division", refuse)
    report = QuotientLoop(2).exhaustive_check("axioms")
    assert report.passed
    assert report.counts["center-size"] == 16
    assert report.counts["products-checked"] == 65536


def test_product_table_matches_scalar_products():
    # the table is built on int8 columns; every entry is the Python-int product
    q = QuotientLoop(2)
    assert q._width("product table", (mul_coords,)) is np.int8
    coords = [q.element_coords(i) for i in range(q.order)]
    reference = np.array(
        [[q.element_index(q.mul(a, b)) for b in coords] for a in coords]
    )
    assert np.array_equal(q.product_table(), reference)


def test_product_table_multiplies_only_the_coset_representatives(monkeypatch):
    # one array call on the 16 x 16 representatives (h, 0); the other
    # entries follow from coordinates 5-8 adding into the product (the
    # width bound runs the product once more, on scalars)
    shapes = []

    def spy(a, b):
        if isinstance(a[0], np.ndarray):
            shapes.append(np.broadcast_shapes(*(np.shape(v) for v in (*a, *b))))
        return mul_coords(a, b)

    monkeypatch.setattr(quotient, "mul_coords", spy)
    t = QuotientLoop(2).product_table()
    assert shapes == [(16, 16)]
    assert t.dtype == np.uint16 and t.shape == (256, 256) and t.flags.c_contiguous


def test_product_table_build_stays_within_its_memory_bound():
    # the uint8 index arrays over (h1, z1, h2, z2) hold 64 KiB each, and the
    # build traces about 0.32 MiB with the uint16 table; one order x order
    # intp temporary (512 KiB) would break the bound
    q = QuotientLoop(2)
    tracemalloc.start()
    try:
        q.product_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 << 16


class _SkewedLoop(QuotientLoop):
    """A product with an extra term in the last coordinate: not automorphic.

    Written on coordinate tuples, so it runs on ints and on arrays alike.
    """

    def mul(self, a, b):
        p = super().mul(a, b)
        return p[:7] + ((p[7] + a[0] * b[0] * b[2]) % self.modulus,)

    def inner_l(self, a, b, c):
        # the inner map from its defining equation, so the skew reaches it;
        # QuotientLoop.inner_l is the closed form of the unskewed loop.  The
        # division runs the kernel, since left_divide takes ints only: on
        # the sampled check's int32 columns at m = 5 it forms values up to
        # 112 648, which int32 holds
        return self.reduce(left_div_coords(self.mul(b, a), self.mul(b, self.mul(a, c))))


def _scalar_sampled_failures(q: QuotientLoop, trials: int, seed: int) -> int:
    """Reference for the sampled check: one trial at a time on int tuples,
    from the same 32 random words per trial."""
    rng = random.Random(seed)
    m = q.modulus
    bad = 0
    for _ in range(trials):
        draws = [w * m >> 32 for w in struct.unpack("<32I", rng.randbytes(128))]
        a, b, c, d = (tuple(draws[8 * k:8 * k + 8]) for k in range(4))
        lhs = q.inner_l(a, b, q.mul(c, d))
        rhs = q.mul(q.inner_l(a, b, c), q.inner_l(a, b, d))
        bad += lhs != rhs
    return bad


# 2 * ARRAY_CHUNK + 1 trials cross a chunk boundary at m = 5, whose int32
# columns fit 2 * ARRAY_CHUNK trials per chunk
@pytest.mark.parametrize("trials", [1, 150, ARRAY_CHUNK + 1, 2 * ARRAY_CHUNK + 1])
def test_sampled_failures_match_a_scalar_reference(trials):
    q = _SkewedLoop(5)
    bad = q._sampled_failures(trials, seed=11)
    assert bad == _scalar_sampled_failures(q, trials, seed=11)
    if trials > 1:
        assert 0 < bad < trials
    report = q.exhaustive_check("automorphic-sampled", trials=trials, seed=11)
    assert not report.passed and report.counts["quadruples-checked"] == trials


def test_sampled_check_rejects_nonpositive_trials():
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            QuotientLoop(5).exhaustive_check("automorphic-sampled", trials=trials)


def _peak_formed(fn, *tuples) -> int:
    """Largest |value| that fn forms from its integer arguments."""
    peak = [0]

    def traced(op):
        def run(self, other):
            value = Tracked(op(int(self), int(other)))
            peak[0] = max(peak[0], abs(value))
            return value
        return run

    class Tracked(int):
        __add__ = traced(int.__add__)
        __radd__ = traced(int.__radd__)
        __sub__ = traced(int.__sub__)
        __rsub__ = traced(int.__rsub__)
        __mul__ = traced(int.__mul__)
        __rmul__ = traced(int.__rmul__)
        __floordiv__ = traced(int.__floordiv__)

    fn(*(tuple(Tracked(c) for c in t) for t in tuples))
    return peak[0]


def test_intermediate_bound_covers_the_kernel():
    rng = make_rng(73)
    third = make_rng(75)  # the inner map's third argument
    for m in (2, 5, 11, 1000):
        worst = dict.fromkeys((mul_coords, left_div_coords, inner_l_coords), 0)
        for _ in range(100):
            # extreme coordinates come close to the bound
            a, b = (tuple(rng.choice((1 - m, m - 1, rng.randint(1 - m, m - 1)))
                          for _ in range(8)) for _ in range(2))
            c = tuple(third.choice((1 - m, m - 1, third.randint(1 - m, m - 1)))
                      for _ in range(8))
            for kernel, args in ((mul_coords, (a, b)), (left_div_coords, (a, b)),
                                 (inner_l_coords, (a, b, c))):
                worst[kernel] = max(worst[kernel], _peak_formed(kernel, *args))
        for kernel, peak in worst.items():
            assert 0 < peak <= _intermediate_bound(m, (kernel,))


_SAMPLED_KERNELS = (mul_coords, inner_l_coords)


def test_intermediate_bound_runs_a_wrapped_kernel_like_the_kernel():
    # a profiler or tracer may replace a kernel by a wrapper that takes
    # *args; the bound reads the arguments from the wrapped signature
    for kernel in (mul_coords, left_div_coords, inner_l_coords):
        wrapped = functools.wraps(kernel)(lambda *args, kernel=kernel: kernel(*args))
        assert _intermediate_bound(5, (wrapped,)) == _intermediate_bound(5, (kernel,))


def test_intermediate_bound_is_computed_once_per_modulus_and_kernels():
    _intermediate_bound.cache_clear()
    for _ in range(2):
        QuotientLoop(2).product_table()
    assert _intermediate_bound.cache_info().misses == 1


@pytest.mark.parametrize("m, kernels, width", [
    (2, (mul_coords,), np.int8),
    (2, (left_div_coords,), np.int16),
    (4, _SAMPLED_KERNELS, np.int16),
    (5, _SAMPLED_KERNELS, np.int32),
    (25, _SAMPLED_KERNELS, np.int32),
    (100, _SAMPLED_KERNELS, np.int64),
    (2999, _SAMPLED_KERNELS, np.int64),
], ids=["2-table", "2-left-division", "4-sampled", "5-sampled", "25-sampled",
        "100-sampled", "2999-sampled"])
def test_width_is_the_narrowest_that_holds_the_bound(m, kernels, width):
    assert QuotientLoop(m)._width("check", kernels) is width
    bound = _intermediate_bound(m, kernels)
    assert bound <= np.iinfo(width).max
    narrower = quotient._WIDTHS[:quotient._WIDTHS.index(width)]
    assert all(bound > np.iinfo(w).max for w in narrower)


class _RecordingLoop(QuotientLoop):
    """Keeps every call of mul and inner_l, with its arguments and result."""

    def __init__(self, modulus):
        super().__init__(modulus)
        self.calls = []

    def mul(self, a, b):
        out = super().mul(a, b)
        self.calls.append((QuotientLoop.mul, (a, b), out))
        return out

    def inner_l(self, a, b, c):
        out = super().inner_l(a, b, c)
        self.calls.append((QuotientLoop.inner_l, (a, b, c), out))
        return out


@pytest.mark.parametrize("m, width", [(4, np.int16), (5, np.int32), (2434, np.int64)])
def test_sampled_columns_are_exact_at_each_width(m, width):
    # every array value of the sampled check equals the Python-int kernel,
    # reduced mod m, on the same seeded draws
    trials = 300
    q, exact = _RecordingLoop(m), QuotientLoop(m)
    assert q._sampled_failures(trials, seed=13) == 0
    rng = random.Random(13)
    draws = [[w * m >> 32 for w in struct.unpack("<32I", rng.randbytes(128))]
             for _ in range(trials)]
    _, (a, b, c), _ = q.calls[2]  # inner_l(a, b, c), after mul(c, d) and inner_l(a, b, cd)
    assert [[int(v[i]) for e in (a, b, c) for v in e] for i in range(trials)] == \
        [d[:24] for d in draws]
    for method, args, out in q.calls:
        assert all(v.dtype == width for e in (*args, out) for v in e)
        for i in range(trials):
            ints = (tuple(int(v[i]) for v in e) for e in args)
            assert method(exact, *ints) == tuple(int(v[i]) for v in out)


def test_left_division_is_exact_in_the_division_table_and_on_ints():
    # at m = 2 left division forms values up to 142, so its kernel on int16
    # columns is exact, and it gives the division table
    q = QuotientLoop(2)
    assert q._width("left division", (left_div_coords,)) is np.int16
    cols = [c.astype(np.int16) for c in q.element_coords(np.arange(q.order))]
    quotients = q.reduce(left_div_coords([c[:, None] for c in cols], [c[None, :] for c in cols]))
    assert np.array_equal(q.element_index(quotients), q.left_division_table())
    # at m = 2999 the sampled kernels fit int64 but left division does not;
    # left_divide runs on ints, and takes a numpy integer exactly
    big = QuotientLoop(2999)
    a, c = (1,) * 8, (2,) * 8
    assert big.left_divide(a, c) == big.reduce(left_div_coords(a, c))
    assert big.left_divide(tuple(np.int64(v) for v in a), c) == big.left_divide(a, c)


@pytest.mark.parametrize("m", [2, 2999])
def test_left_divide_refuses_array_coordinates(m):
    # an array is refused, not wrapped: left division's values pass int64
    # from m = 2435
    bound = lambda n: _intermediate_bound(n, (left_div_coords,))
    assert bound(2434) <= quotient._INT64_MAX < bound(2435)
    q = QuotientLoop(m)
    ones = tuple(np.ones(3, dtype=np.int64) for _ in range(8))
    with pytest.raises(TypeError):
        q.left_divide(ones, (2,) * 8)
    with pytest.raises(TypeError):
        q.left_divide((2,) * 8, ones)


@pytest.mark.parametrize("m", [2, 5, 7])
def test_inner_l_is_the_reduced_defining_equation(m):
    # the closed form, reduced once, equals L_{a,b}(c) solved in the quotient
    # from its defining equation (b * a) * z = b * (a * c); on int64 arrays too
    q = QuotientLoop(m)
    rng = make_rng(74)
    triples = [tuple(tuple(rng.randrange(m) for _ in range(8)) for _ in range(3))
               for _ in range(300)]
    for a, b, c in triples:
        assert q.inner_l(a, b, c) == q.left_divide(q.mul(b, a), q.mul(b, q.mul(a, c)))
    a, b, c = (tuple(np.array(col, dtype=np.int64) for col in zip(*elems))
               for elems in zip(*triples))
    batch = np.array(q.inner_l(a, b, c)).T
    assert [tuple(int(v) for v in row) for row in batch] == [q.inner_l(*t) for t in triples]


def test_int64_guard_refuses_a_modulus_past_its_bound():
    bound = lambda m: _intermediate_bound(m, _SAMPLED_KERNELS)
    assert bound(2000) < bound(2999) < 2 ** 63 <= bound(3001)
    assert QuotientLoop(2000)._width("sampled check", _SAMPLED_KERNELS) is np.int64
    big = QuotientLoop(3001)
    with pytest.raises(BudgetExceeded, match="int64"):
        big._width("sampled check", _SAMPLED_KERNELS)
    with pytest.raises(BudgetExceeded, match="int64"):
        big._sampled_failures(1, seed=0)


def test_sampled_check_admits_every_modulus_up_to_2999(monkeypatch):
    # the guard bounds the two kernels the check runs, not left division,
    # so 2999 (the largest m <= 3000 coprime to 3) runs
    report = QuotientLoop(2999).exhaustive_check("automorphic-sampled", trials=150)
    assert report.passed and report.counts["quadruples-checked"] == 150

    def no_draws(*_):
        raise AssertionError("a trial was drawn past the int64 guard")

    monkeypatch.setattr(random.Random, "randbytes", no_draws)
    with pytest.raises(BudgetExceeded, match="int64"):
        QuotientLoop(3001).exhaustive_check("automorphic-sampled", trials=150)


def _loop_with_table(table: np.ndarray) -> QuotientLoop:
    """An m = 2 loop whose product table is ``table``, for the tests of
    ``exhaustive_check`` itself; the table routines take a table."""
    q = QuotientLoop(2)
    q._table = table.astype(np.uint16)
    return q


def _as_table(table) -> tuple:
    """(t, ti): ``table`` as the uint16 product table a loop builds, and
    ``t`` copied to intp."""
    t = np.asarray(table).astype(np.uint16)
    return t, t.astype(np.intp)


_IDX = np.arange(256)
_XOR = _IDX[:, None] ^ _IDX[None, :]  # the elementary abelian group (Z/2)^8
_M2 = QuotientLoop(2).product_table()
_RELABEL = np.random.default_rng(5).permutation(256)  # old index -> new index
_UNLABEL = np.argsort(_RELABEL)


def _tampered() -> np.ndarray:
    # the xor group with the intercalate on rows 1, 2 x columns 4, 7 and its
    # mirror image swapped: still a commutative Latin square with identity,
    # but no longer automorphic
    t = _XOR.copy()
    for r, c in ((1, 4), (1, 7), (2, 4), (2, 7)):
        t[r, c] = t[c, r] = t[r, c] ^ 3
    return t


def _reference_inner_maps(t: np.ndarray) -> set:
    """Row bytes of all 65 536 maps L_{a,b}, scanned a-major with no central
    shortcut: for one a, L_{a,b}(c) for every b and c by two flat gathers."""
    ldiv, order = _left_division(t), len(t)
    reference = set()
    for a in range(order):
        ta = t[a].astype(np.intp)  # [b] = a * b, and [c] = a * c
        mid = np.take(t, np.arange(0, order * order, order)[:, None] + ta)  # [b, c] = b * (a * c)
        perms = np.take(ldiv, (ta * order)[:, None] + mid)  # divide by a * b
        reference.update(row.tobytes() for row in perms)
    return reference


def _fixed_by_every_inner_map(t: np.ndarray) -> list:
    """Reference center: the c fixed by every one of the 65 536 maps L_{a,b}."""
    maps = np.frombuffer(b"".join(_reference_inner_maps(t)), dtype=np.uint16)
    fixed = (maps.reshape(-1, len(t)) == np.arange(len(t))).all(axis=0)
    return [int(i) for i in np.nonzero(fixed)[0]]


def test_full_check_on_a_group_sees_one_inner_map():
    report = _loop_with_table(_XOR).exhaustive_check("automorphic-full")
    assert report.passed
    assert report.counts["distinct-inner-maps"] == 1
    assert report.counts["quadruples-checked"] == 256 ** 4


def test_full_check_fails_on_a_tampered_table():
    t = _tampered()
    assert (t == t.T).all() and (t[0] == _IDX).all()
    assert (np.sort(t, axis=0) == _IDX[:, None]).all()
    assert (np.sort(t, axis=1) == _IDX[None, :]).all()
    q = _loop_with_table(t)
    report = q.exhaustive_check("automorphic-full")
    assert not report.passed
    assert not report.checks["automorphism-full"]
    assert report.counts["distinct-inner-maps"] == 132
    assert q.center_indices() == _fixed_by_every_inner_map(q.product_table()) == [0, 3]


@pytest.mark.parametrize(
    "table, central, maps",
    [
        pytest.param(_M2, 16, 43, id="m2"),
        pytest.param(_XOR, 256, 1, id="xor-group"),
        pytest.param(_tampered(), 2, 132, id="tampered"),
        # not commutative, so nothing is central and every pair is scanned
        pytest.param((_IDX[:, None] - _IDX[None, :]) % 256, 0, 128, id="difference-square"),
        pytest.param(_RELABEL[_M2[_UNLABEL][:, _UNLABEL]], 16, 43, id="relabelled-m2"),
    ],
)
def test_distinct_inner_maps_match_a_full_reference_scan(table, central, maps):
    # the scan over coset representatives of the central set finds exactly
    # the maps of all 65 536 pairs (a, b), on loops and on tables that are not
    t, ti = _as_table(table)
    central_set = _central_set(t, ti, _center(t))
    assert len(central_set) == central
    scanned = _distinct_inner_maps(ti, _left_division(t), _coset_representatives(t, central_set))
    assert len(scanned) == maps
    assert {row.tobytes() for row in scanned} == _reference_inner_maps(t)


@pytest.mark.parametrize(
    "table, passed, maps, central",
    [
        pytest.param(_M2, True, 43, list(range(16)), id="m2"),
        pytest.param(_tampered(), False, 132, [0, 3], id="tampered"),
    ],
)
def test_central_set_drops_every_candidate_that_is_not_central(table, passed, maps, central):
    # with every element handed in as a candidate, the commutation, row and
    # nucleus tests alone must cut the set back to the center; kept too
    # many, the scan would see too few representatives and too few maps
    t, ti = _as_table(table)
    kept = _central_set(t, ti, range(256))
    assert kept.tolist() == central
    reps = _coset_representatives(t, kept)
    scanned = _distinct_inner_maps(ti, _left_division(t), reps)
    assert len(scanned) == maps
    assert quotient.automorphic_law(t, ti, kept, reps, scanned)[0] is passed


def _times_xor(magma: np.ndarray) -> np.ndarray:
    """The product of a magma on 0..n-1, n dividing 256, with the xor group
    of order 256 // n; the pair (a, g) has index a * (256 // n) + g."""
    k = 256 // len(magma)
    xor = _IDX[:k, None] ^ _IDX[None, :k]
    return (magma[:, None, :, None] * k + xor[None, :, None, :]).reshape(256, 256)


# an order-4 magma whose element 2 commutes with every element and has a
# permutation for its row, found by a seeded search
_LEFT_LAW_ONLY = np.array([[0, 3, 1, 3], [1, 2, 0, 2], [1, 0, 3, 2], [0, 1, 2, 3]])


@pytest.mark.parametrize(
    "magma, z, failing",
    [
        # a left identity of the magma x * y = y: its row is the identity
        pytest.param(np.array([[0, 1], [0, 1]]), 1, {"commutes"}, id="right-projection"),
        # an absorbing element of a commutative monoid
        pytest.param(np.array([[0, 1], [1, 1]]), 1, {"row-permutes"}, id="absorbing"),
        pytest.param(_LEFT_LAW_ONLY, 2, {"middle", "right"}, id="left-law-only"),
        pytest.param(_LEFT_LAW_ONLY.T, 2, {"left", "middle"}, id="right-law-only"),
    ],
)
def test_central_set_refuses_a_candidate_that_fails_one_test(magma, z, failing):
    # each z fails just one of the four tests _central_set makes: that z
    # commutes, that its row permutes, and its two comparisons, which are
    # the left and the right law once z commutes; on a commutative table
    # either law gives the other, so only tables like the last two tell
    # whether each comparison is made
    t, ti = _as_table(_times_xor(magma))
    z *= 256 // len(magma)
    rz, cz = t[z], t[:, z]  # z * x and x * z
    holds = {
        "commutes": np.array_equal(rz, cz),
        "row-permutes": np.array_equal(np.sort(rz), _IDX),
        "left": np.array_equal(t[rz], rz[t]),  # (z * x) * y = z * (x * y)
        "middle": np.array_equal(t[cz], t[:, rz]),  # (x * z) * y = x * (z * y)
        "right": np.array_equal(t[:, cz], cz[t]),  # x * (y * z) = (x * y) * z
    }
    assert {name for name, ok in holds.items() if not ok} == failing
    assert _central_set(t, ti, [z]).tolist() == []


# a commutative loop of order 8 that is neither associative nor automorphic,
# and whose center is its identity alone, found by a seeded search
_LOOP8 = np.array([
    [0, 1, 2, 3, 4, 5, 6, 7], [1, 4, 0, 5, 3, 6, 7, 2], [2, 0, 4, 1, 5, 7, 3, 6],
    [3, 5, 1, 7, 6, 4, 2, 0], [4, 3, 5, 6, 7, 2, 0, 1], [5, 6, 7, 4, 2, 0, 1, 3],
    [6, 7, 3, 2, 0, 1, 5, 4], [7, 2, 6, 0, 1, 3, 4, 5],
])


def _reference_central_set(t: np.ndarray, candidates) -> list:
    """The candidates z that pass every test of ``_central_set``, each made
    on every pair (x, y): commuting, a permuting row and the three nuclei."""
    kept = []
    for z in candidates:
        rz, cz = t[z], t[:, z]  # z * x and x * z
        if (np.array_equal(rz, cz) and np.array_equal(np.sort(rz), _IDX)
                and np.array_equal(t[rz], rz[t])  # (z * x) * y = z * (x * y)
                and np.array_equal(t[cz], t[:, rz])  # (x * z) * y = x * (z * y)
                and np.array_equal(t[:, cz], cz[t])):  # x * (y * z) = (x * y) * z
            kept.append(z)
    return kept


def _law_holds(t: np.ndarray, p: np.ndarray) -> bool:
    """p(x * y) = p(x) * p(y) on every one of the 65 536 pairs (x, y)."""
    return np.array_equal(p[t], t[p][:, p])


@pytest.mark.parametrize(
    "table, central, holds",
    [
        pytest.param(_M2, 16, True, id="m2"),
        pytest.param(_XOR, 256, True, id="xor-group"),
        pytest.param(_tampered(), 2, False, id="tampered"),
        pytest.param((_IDX[:, None] - _IDX[None, :]) % 256, 0, False, id="difference-square"),
        pytest.param(_RELABEL[_M2[_UNLABEL][:, _UNLABEL]], 16, True, id="relabelled-m2"),
        pytest.param(_times_xor(np.array([[0, 1], [0, 1]])), 0, True, id="right-projection"),
        pytest.param(_times_xor(np.array([[0, 1], [1, 1]])), 128, True, id="absorbing"),
        pytest.param(_times_xor(_LEFT_LAW_ONLY), 0, False, id="left-law-only"),
        pytest.param(_times_xor(_LEFT_LAW_ONLY.T), 0, False, id="right-law-only"),
        pytest.param(_times_xor(_LOOP8), 32, False, id="loop8-times-xor"),
    ],
)
def test_reduced_law_and_central_set_match_an_exhaustive_reference(table, central, holds):
    t, ti = _as_table(table)
    kept = _central_set(t, ti, _center(t))
    assert kept.tolist() == _reference_central_set(t, _center(t))
    assert len(kept) == central
    # the closure keeps a candidate untested only when testing it would keep
    # it, whether the candidates are the center search's or every element
    assert _central_set(t, ti, range(256)).tolist() == _reference_central_set(t, range(256))
    reps = _coset_representatives(t, kept)
    maps = _distinct_inner_maps(ti, _left_division(t), reps)
    assert quotient.automorphic_law(t, ti, kept, reps, maps)[0] is holds
    assert all(_law_holds(t, p) for p in maps) is holds
    # each map on its own, and each with two images outside the central set
    # swapped, which keeps hypothesis (ii) and mostly breaks the law: once at
    # two representatives, which (c) compares, and once at two other
    # elements, which only (b) compares
    outside = ~np.isin(_IDX, kept)
    is_rep = np.isin(_IDX, reps)
    for p in maps:
        assert quotient.automorphic_law(t, ti, kept, reps, p[None])[0] is _law_holds(t, p)
        for at in (is_rep, ~is_rep):
            i = np.flatnonzero(at & outside[p])[:2]
            swapped = p.copy()
            swapped[i] = swapped[i[::-1]]
            assert (quotient.automorphic_law(t, ti, kept, reps, swapped[None])[0]
                    is _law_holds(t, swapped))


@pytest.mark.parametrize(
    "central, p",
    [
        # (i) fails: {1} is not a subgroup, and the x with x <= x * 1 are the
        # even elements, whose products by 1 are the odd ones only
        pytest.param([1], _IDX, id="not-covered"),
        # (ii) fails: an automorphism of the xor group that swaps the two
        # lowest bits moves 1 out of the subgroup {0, 1}
        pytest.param([0, 1], (_IDX & ~3) | ((_IDX & 1) << 1) | ((_IDX >> 1) & 1),
                     id="central-set-moved"),
    ],
)
def test_law_falls_back_to_every_pair_when_a_hypothesis_fails(central, p):
    t = _XOR.astype(np.uint16)
    ti = t.astype(np.intp)
    central = np.array(central, dtype=np.intp)
    reps = _coset_representatives(t, central)
    maps = p.astype(np.uint16)[None]
    assert quotient.automorphic_law(t, ti, central, reps, maps) == (True, 256 * 256)
    # on every pair a map that is no homomorphism is refused as well
    broken = maps.copy()
    broken[0, [2, 5]] = broken[0, [5, 2]]
    assert quotient.automorphic_law(t, ti, central, reps, broken) == (False, 256 * 256)


def test_law_pairs_are_counted_in_the_full_report():
    # at m = 2 each of the 43 maps is compared on 256 * 16 + 16 * 16 pairs;
    # with nothing central, every pair of every map is compared
    counts = QuotientLoop(2).exhaustive_check("automorphic-full").counts
    assert counts["law-pairs-checked"] == 43 * 4352 == 187136
    square = _loop_with_table((_IDX[:, None] - _IDX[None, :]) % 256)
    counts = square.exhaustive_check("automorphic-full").counts
    assert counts["central-elements"] == 0
    assert counts["law-pairs-checked"] == 128 * 256 * 256


@pytest.mark.parametrize(
    "table, central",
    [
        # C = {identity}: 256 + 65 536 pairs would be more than every pair
        pytest.param(_M2, [0], id="identity-only"),
        # C = every element, R = {identity}: 65 536 + 1 pairs
        pytest.param(_XOR, _IDX, id="xor-group"),
    ],
)
def test_law_never_compares_more_pairs_than_every_pair(table, central):
    t, ti = _as_table(table)
    central = np.asarray(central, dtype=np.intp)
    reps = _coset_representatives(t, central)
    maps = _distinct_inner_maps(ti, _left_division(t), reps)
    assert len(central) * 256 + len(reps) ** 2 > 256 * 256
    assert quotient.automorphic_law(t, ti, central, reps, maps) == (True, len(maps) * 256 * 256)


def _fill_freed_memory(byte: int) -> None:
    # a 2 MB block goes to mmap, and freeing it raises malloc's mmap
    # threshold, so the second comes from the heap and is freed back to it
    # with its bytes still set
    for _ in range(2):
        np.full(2 << 20, byte, dtype=np.uint8)


def test_division_table_does_not_depend_on_allocation_history():
    # rows 5 and 9 of the m = 2 table stop being permutations, so entries of
    # the division table that no b reaches must read the same whatever the
    # memory they are allocated in held before
    t = _M2.copy()
    t[5, 7] = t[5, 8]
    t[9, :4] = t[9, 4]

    def derived(byte):
        table, ti = _as_table(t)
        reps = _coset_representatives(table, _central_set(table, ti, _center(table)))
        _fill_freed_memory(byte)
        ldiv = _left_division(table)
        _fill_freed_memory(byte)
        return ldiv, _distinct_inner_maps(ti, _left_division(table), reps)

    ldiv, maps = derived(0xA5)
    again_ldiv, again_maps = derived(0x5A)
    assert np.array_equal(ldiv, again_ldiv)
    assert maps.shape == again_maps.shape and np.array_equal(maps, again_maps)


def test_central_set_tests_the_identity_and_four_generators_at_m2(monkeypatch):
    # every candidate at m = 2 is central; each tested one doubles the
    # closure, and the other 11 are found inside it with no gather
    sizes = []
    close = quotient._close

    def spy(t, members):
        close(t, members)
        sizes.append(int(members.sum()))

    monkeypatch.setattr(quotient, "_close", spy)
    t, ti = _as_table(_M2)
    assert _central_set(t, ti, _center(t)).tolist() == list(range(16))
    assert sizes == [1, 2, 4, 8, 16]


def test_full_check_stays_within_its_memory_bound():
    # a fresh check builds both uint16 tables, one intp copy of the table
    # (512 KiB) and uint16 gathers of 128 KiB for the central set, while the
    # law's arrays are order x 16 at most, which traces about 1.07 MiB; the
    # bound leaves room for numpy's own allocations but not for a second
    # intp copy of the table
    q = QuotientLoop(2)
    tracemalloc.start()
    try:
        report = q.exhaustive_check("automorphic-full")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 3 << 19


def test_axioms_check_stays_within_its_memory_bound():
    # a fresh check builds the uint16 table (128 KiB), and each block of a
    # that the center search tests holds at most order x order entries, so
    # the check traces about 0.57 MiB
    q = QuotientLoop(2)
    tracemalloc.start()
    try:
        report = q.exhaustive_check("axioms")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "table, expected",
    [
        pytest.param(_M2, list(range(16)), id="m2"),
        pytest.param(_XOR, list(range(256)), id="xor-group"),
        # a non-commutative Latin square: dividing by b * a instead of a * b
        # would find two fixed elements here
        pytest.param((_IDX[:, None] - _IDX[None, :]) % 256, [], id="difference-square"),
        # the m = 2 loop with its elements relabelled at random: the central
        # ones are no longer the lowest indices, so candidates fall at many a
        pytest.param(_RELABEL[_M2[_UNLABEL][:, _UNLABEL]],
                     sorted(int(i) for i in _RELABEL[:16]), id="relabelled-m2"),
    ],
)
def test_center_is_the_fixed_set_of_every_inner_map(table, expected):
    t, _ = _as_table(table)
    assert _center(t) == _fixed_by_every_inner_map(t) == expected


class _SliceSpy(np.ndarray):
    """A product table that records the rows of every slice taken of it,
    the blocks of a that ``_center`` tests at once."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.blocks.append(range(*key.indices(len(self))))
        return super().__getitem__(key)


def test_center_drops_a_candidate_inside_a_block_of_several_a():
    # on the tampered table the candidates fall one by one, so the blocks
    # grow from one a to several while non-central candidates still stand
    t = _tampered().astype(np.uint16)
    spy = t.view(_SliceSpy)
    spy.blocks = []
    center = _center(spy)
    assert center == _fixed_by_every_inner_map(t) == [0, 3]
    # every a is tested once, and the first block that holds an a with
    # (a * b) * c != b * (a * c) for some b is the block that drops c
    assert sorted(a for block in spy.blocks for a in block) == list(range(256))
    dropped_by = {}
    for c in range(256):
        failing = set(np.flatnonzero((t[t, c] != t[:, t[:, c]].T).any(axis=1)).tolist())
        dropped_by[c] = next((b for b in spy.blocks if failing & set(b)), None)
    assert [c for c, block in dropped_by.items() if block is None] == center
    assert any(len(block) > 1 for block in dropped_by.values() if block is not None)


def test_center_is_the_final_tail_block():
    q = QuotientLoop(2)
    center = q.center_indices()
    assert center == list(range(16))
    assert all(q.element_coords(i)[:4] == (0, 0, 0, 0) for i in center)


def test_quotient_has_nilpotency_class_three():
    q = QuotientLoop(2)
    e1 = q.element_coords(q.element_index((1, 0, 0, 0, 0, 0, 0, 0)))
    e3 = (0, 0, 1, 0, 0, 0, 0, 0)
    # u1's residue is moved by an inner mapping, so it is not central,
    # while the whole tail block 0^4 x (Z/2)^4 is central
    t = q.left_divide(q.mul(e1, q.mul(e1, e3)), q.mul(q.mul(e1, e1), e3))
    assert t == (0, 0, 0, 0, 1, 0, 0, 0)
    assert q.element_index(e3) not in q.center_indices()


def test_table_routines_run_on_the_quotient_by_the_center():
    # Q_2/Z, a table that no QuotientLoop builds: each element is labelled
    # by the least element of its coset of the center Z, and the 16 labels
    # are numbered 0..15 in index order
    t, _ = _as_table(_M2)
    label = t[:, _center(t)].min(axis=1)
    # the label of x * y depends on the labels of x and y alone
    assert np.array_equal(label[t], label[t[label][:, label]])
    reps = np.unique(label)
    qt, qti = _as_table(np.searchsorted(reps, label[t[np.ix_(reps, reps)]]))
    assert len(qt) == 16 and all(quotient._table_checks(qt).values())
    center = _center(qt)
    central = _central_set(qt, qti, center)
    assert center == central.tolist() == [0, 1, 2, 3]
    qreps = _coset_representatives(qt, central)
    maps = _distinct_inner_maps(qti, _left_division(qt), qreps)
    assert len(maps) == 10
    # the law compares 16 * 4 + 4 * 4 pairs per map, not 16 * 16
    assert quotient.automorphic_law(qt, qti, central, qreps, maps) == (True, 10 * 80)


def test_sampled_automorphic_checks():
    for m in (2, 4, 5):
        report = QuotientLoop(m).exhaustive_check("automorphic-sampled", trials=150)
        assert report.passed
        assert report.counts["quadruples-checked"] == 150


def test_sampled_check_is_budgeted_by_trials_not_modulus(monkeypatch):
    # the check costs O(trials) at any modulus the int64 guard admits
    for m in (7, 2434):
        report = QuotientLoop(m).exhaustive_check("automorphic-sampled", trials=150)
        assert report.passed and report.counts["quadruples-checked"] == 150

    def no_trials(*_):
        raise AssertionError("sampled trials ran past the budget")

    monkeypatch.setattr(QuotientLoop, "_sampled_failures", no_trials)
    with pytest.raises(BudgetExceeded, match=f"{MAX_SAMPLED_TRIALS} trials"):
        QuotientLoop(5).exhaustive_check("automorphic-sampled", trials=10 ** 11)


def test_budgets_enforced(monkeypatch):
    with pytest.raises(BudgetExceeded):
        QuotientLoop(4).exhaustive_check("axioms")
    with pytest.raises(BudgetExceeded):
        QuotientLoop(4).exhaustive_check("automorphic-full")
    with pytest.raises(BudgetExceeded):
        QuotientLoop(4).center_indices()
    with pytest.raises(BudgetExceeded):
        QuotientLoop(4).product_table()
    with pytest.raises(BudgetExceeded, match="int64"):
        QuotientLoop(3001).exhaustive_check("automorphic-sampled", trials=1)
    with pytest.raises(ValueError, match="unknown level"):
        QuotientLoop(2).exhaustive_check("everything")

    # the table levels are refused before any kernel work
    def no_kernel(*_):
        raise AssertionError("the kernel ran past the table budget")

    monkeypatch.setattr(quotient, "mul_coords", no_kernel)
    for level in ("axioms", "automorphic-full"):
        with pytest.raises(BudgetExceeded):
            QuotientLoop(4).exhaustive_check(level)


def test_check_options_stay_public_quotient_names():
    # they live in the numpy-free caloop.quotient_options, for the CLI parser
    assert LEVELS == ("axioms", "automorphic-sampled", "automorphic-full")
    assert (DEFAULT_TRIALS, DEFAULT_SEED) == (1000, 20260808)
    public = {"LEVELS", "DEFAULT_TRIALS", "DEFAULT_SEED", "BudgetExceeded"}
    assert public <= set(quotient.__all__)


def test_table_export_csv(tmp_path):
    path = tmp_path / "table.csv"
    QuotientLoop(2).export_table(str(path), "csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 257
    assert lines[0] == "caloop-table m=2 order=256 ordering=lex"
    assert lines[1] == ",".join(str(i) for i in range(256))
    report = validate_table_file(str(path))
    assert report.passed and report.symmetric and report.modulus == 2


def test_table_export_bin(tmp_path):
    path = tmp_path / "table.bin"
    QuotientLoop(2).export_table(str(path), "bin")
    data = path.read_bytes()
    assert data[:4] == b"CLT1"
    assert len(data) == 4 + 4 + 256 * 256 * 4
    report = validate_table_file(str(path))
    assert report.passed

    # the format is checked before any table work: m = 5 is past the table
    # budget, and at m = 2 the table would be built first
    for m in (2, 5):
        with pytest.raises(ValueError, match="unknown table format"):
            QuotientLoop(m).export_table(str(tmp_path / "t.x"), "xml")


@pytest.mark.parametrize(
    "fmt, size, sha256",
    [
        ("csv", 234024, "039d800ce712eebe9377a78dd18324d494efb698bd584391c1b1b8e3812c45fa"),
        ("bin", 262152, "f1aab7f022efab29b46804a7661dc4a6d117f7eefa23cb58dc7aa8d960a781cd"),
    ],
)
def test_table_export_bytes_are_pinned(tmp_path, fmt, size, sha256):
    path = tmp_path / f"table.{fmt}"
    QuotientLoop(2).export_table(str(path), fmt)
    data = path.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == sha256


def test_csv_export_matches_a_per_cell_writer(tmp_path):
    # the rows are joined from one gather of index texts each; a writer that
    # formats every cell on its own must give the same bytes
    q = QuotientLoop(2)
    path = tmp_path / "table.csv"
    q.export_table(str(path), "csv")
    lines = ["caloop-table m=2 order=256 ordering=lex"]
    lines += [",".join(str(v) for v in row) for row in q.product_table().tolist()]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")


def test_formats_agree(tmp_path):
    csv_path, bin_path = tmp_path / "t.csv", tmp_path / "t.bin"
    QuotientLoop(2).export_table(str(csv_path), "csv")
    QuotientLoop(2).export_table(str(bin_path), "bin")
    from caloop.quotient import _read_table_bin, _read_table_csv

    _, _, a = _read_table_csv(str(csv_path))
    _, _, b = _read_table_bin(str(bin_path))
    assert np.array_equal(a, b)


def test_validator_catches_tampering(tmp_path):
    path = tmp_path / "table.csv"
    QuotientLoop(2).export_table(str(path), "csv")
    lines = path.read_text().splitlines()
    row = lines[5].split(",")
    row[0], row[1] = row[1], row[0]  # rows stay permutations, columns break
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    report = validate_table_file(str(path))
    assert not report.latin
    assert not report.passed


def test_validator_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("something else\n")
    with pytest.raises(ValueError):
        validate_table_file(str(path))


@pytest.mark.parametrize(
    "header, message",
    [
        ("caloop-table n=2 order=256 ordering=lex", "no m= field"),
        ("caloop-table m=2 size=256 ordering=lex", "no order= field"),
        ("caloop-table m=2 order=256 lex", "'lex' is not key=value"),
        ("caloop-table m=two order=256 ordering=lex", "m='two' is not an integer"),
        ("caloop-table m=5 order=2 ordering=lex", "order=2 is not m\\^8 = 390625"),
        # refused unread: int() would raise Python's own 4300-digit error at
        # 5000 digits, and m ** 8 of a 1000-digit m has 8000 digits
        pytest.param(f"caloop-table m={'7' * 1000} order=1 ordering=lex",
                     "m= has 1000 characters", id="1000-digit-m"),
        pytest.param(f"caloop-table m={'7' * 5000} order=1 ordering=lex",
                     "m= has 5000 characters", id="5000-digit-m"),
        # a header line past 8192 bytes is refused before it is read in full
        pytest.param("x" * 100_000, "longer than the limit of 8192 bytes",
                     id="100kb-first-line"),
        pytest.param(f"caloop-table m=2 order=256 ordering={'x' * 100_000}",
                     "longer than the limit of 8192 bytes", id="100kb-ordering"),
        pytest.param(f"caloop-table m=2 order=256 {'x' * 100_000}",
                     "longer than the limit of 8192 bytes", id="100kb-field-not-key-value"),
        # under the line limit, an echoed value is abbreviated
        pytest.param(f"caloop-table m=2 order=256 ordering={'x' * 5000}",
                     "unknown element ordering 'xxx", id="5000-char-ordering"),
    ],
)
def test_validator_names_bad_header_field(tmp_path, header, message):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n0,1\n1,0\n")
    with pytest.raises(ValueError, match=message) as info:
        validate_table_file(str(path))
    assert str(path) in str(info.value)
    assert len(str(info.value)) < 300


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,1\n1,x\n", "line 3 has a cell that is not an integer"),
        ("0,1\n1,0,1\n", "line 3 has 3 cells where the first row has 2"),
        ("0,1\n1,\u00e90\n", "line 3 has the non-ASCII byte b'\\xc3'"),
        ("0,1\n1,1000000000000000000000000000000\n", "line 3 has a cell outside the int64 range"),
        # under the line limit, a row of more cells than the order is refused unconverted
        ("0," * 300 + "0\n", "line 2 has 301 cells, past the header's order=256"),
    ],
    ids=["non-integer-cell", "ragged-rows", "non-ascii-byte", "cell-past-int64", "wide-row"],
)
def test_validator_names_bad_csv_row(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("caloop-table m=2 order=256 ordering=lex\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        validate_table_file(str(path))
    assert str(path) in str(info.value)


def _per_line_reader(path: str):
    """The CSV reader before the bulk conversion, for a body under an m = 2
    header: each line is converted by int() as it is read."""
    order = 256
    limit = order * 21 + 1
    with open(path, "rb") as fh:
        fh.readline()
        rows = []
        for lineno, raw in enumerate(iter(lambda: fh.readline(limit + 1), b""), start=2):
            if len(raw) > limit:
                raise ValueError(f"{path}: line {lineno} is longer than the limit of {limit} bytes")
            cells = raw.count(b",") + 1
            if cells > order:
                raise ValueError(
                    f"{path}: line {lineno} has {cells} cells, past the header's order={order}"
                )
            line = quotient._csv_line(path, lineno, raw).strip()
            if not line:
                continue
            if len(rows) == order:
                raise ValueError(
                    f"{path}: line {lineno} is row {order + 1}, past the header's order={order}"
                )
            try:
                row = np.array(list(map(int, line.split(","))), dtype=np.int64)
            except ValueError:
                raise ValueError(f"{path}: line {lineno} has a cell that is not an integer") from None
            except OverflowError:
                raise ValueError(f"{path}: line {lineno} has a cell outside the int64 range") from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}: line {lineno} has {len(row)} cells where the first row has {len(rows[0])}"
                )
            rows.append(row)
    return 2, order, np.array(rows, dtype=np.int64)


def _read_outcome(reader, path: str):
    try:
        m, order, t = reader(path)
    except ValueError as exc:
        return str(exc)
    return m, order, t.dtype, t.shape, t.tolist()


@st.composite
def _csv_bodies(draw):
    """Lines of one width, or of that width and one more, among blank lines
    and CRLF ends; the cells are decimal ints (past int64 at times), or, in
    half the bodies, short texts too, over the characters a hostile cell
    may hold."""
    width = draw(st.integers(1, 4))
    cell = st.integers(0, 2 ** 64).map(str)
    if draw(st.booleans()):
        cell = st.one_of(cell, st.text("0123456789,+-_ \tx\u00e9", max_size=3))
    line = st.one_of(
        st.just(""),
        st.lists(cell, min_size=width, max_size=width + draw(st.integers(0, 1))).map(",".join),
    )
    lines = draw(st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n"])), max_size=6))
    return "".join(text + end for text, end in lines)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_bodies())
def test_csv_reader_matches_the_per_line_reader(tmp_path, body):
    # the same table, or the same error at the same line, as when every
    # line was converted by int() as it was read
    path = tmp_path / "body.csv"
    path.write_text("caloop-table m=2 order=256 ordering=lex\n" + body, encoding="utf-8", newline="")
    assert _read_outcome(_read_table_csv, str(path)) == _read_outcome(_per_line_reader, str(path))


@pytest.mark.parametrize(
    "body, message",
    [
        # a ragged line 3, then a bad cell on line 4
        ("0,1\n1,0,1\n1,x\n", "line 3 has 3 cells where the first row has 2"),
        # the same with only digits and commas, which the bulk call refuses
        ("0,1\n1,0,1\n1,\n", "line 3 has 3 cells where the first row has 2"),
        # a bad cell on line 3, then a fault the line loop finds on line 4
        ("0,1\n1,x\n1,\u00e9\n", "line 3 has a cell that is not an integer"),
        # more digits than int() reads, though they are all zeros
        ("0,1\n" + "0" * 4301 + ",1\n", "line 3 has a cell that is not an integer"),
    ],
    ids=["ragged-then-letter", "ragged-then-empty-cell", "letter-then-non-ascii",
         "4301-digit-zero"],
)
def test_csv_reader_names_the_first_of_two_faults(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("caloop-table m=2 order=256 ordering=lex\n" + body, encoding="utf-8")
    outcome = _read_outcome(_read_table_csv, str(path))
    assert outcome == _read_outcome(_per_line_reader, str(path))
    assert outcome == f"{path}: {message}"


def test_csv_validation_stays_within_its_memory_bound(tmp_path):
    # the body's lines (~230 KB), the int64 table (512 KiB) and a sorted
    # copy of it for the Latin checks trace about 1.13 MiB
    path = tmp_path / "table.csv"
    QuotientLoop(2).export_table(str(path), "csv")
    tracemalloc.start()
    try:
        report = validate_table_file(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 3 << 19


def test_bin_validation_checks_the_entries_as_read(tmp_path):
    # the file's bytes (256 KiB) and a sorted uint32 copy for the Latin checks
    # trace about 0.69 MiB; a widened int64 copy of the table would add 512 KiB
    path = tmp_path / "table.bin"
    QuotientLoop(2).export_table(str(path), "bin")
    assert _read_table_bin(str(path))[2].dtype == np.dtype("<u4")
    tracemalloc.start()
    try:
        report = validate_table_file(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 7 << 17
    # an entry past every index, near the top of uint32, is still compared exactly
    data = bytearray(path.read_bytes())
    data[8 + 4 * 300:8 + 4 * 301] = struct.pack("<I", 2 ** 32 - 1)
    path.write_bytes(bytes(data))
    report = validate_table_file(str(path))
    assert not report.latin and not report.symmetric and report.identity_row


def test_table_cache_reused():
    q = QuotientLoop(2)
    assert q.product_table() is q.product_table()


def test_validator_refuses_a_bin_file_shorter_than_its_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"CLT1\x02\x00")
    with pytest.raises(ValueError, match="6 bytes is shorter than the 8-byte header") as info:
        validate_table_file(str(path))
    assert str(path) in str(info.value)
    # a full header of m = 2^32 - 1 promises m^16 entries, a 512-bit count
    path.write_bytes(b"CLT1" + struct.pack("<I", 2 ** 32 - 1))
    with pytest.raises(ValueError, match="expected an int of 512 bits entries, found 0") as info:
        validate_table_file(str(path))
    assert str(path) in str(info.value)
    assert len(str(info.value)) < 300


def test_validator_refuses_a_mis_sized_bin_file_unread(tmp_path):
    # a sparse 64 MiB file under an m = 2 header, which promises 256 KiB of
    # entries: its size is refused before any of it is read
    path = tmp_path / "long.bin"
    with open(path, "wb") as fh:
        fh.write(b"CLT1" + struct.pack("<I", 2))
        fh.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="expected 65536 entries, found 16777214$") as info:
            validate_table_file(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(path) in str(info.value)
    assert peak < 1 << 20
    # a body that is not whole entries is named too
    with open(path, "r+b") as fh:
        fh.truncate(8 + 4 * 65536 + 3)
    with pytest.raises(ValueError, match="expected 65536 entries, found 65536 and 3 stray bytes"):
        validate_table_file(str(path))


def test_validator_refuses_a_wide_csv_row_before_converting_it(tmp_path):
    # 2 000 000 cells (a 4 MB line) under an m = 2 header, whose rows have
    # 256 cells of at most 20 characters: the line is refused at its length
    # limit, 256 * 21 + 1 bytes, before the rest of it is read
    path = tmp_path / "wide.csv"
    path.write_text("caloop-table m=2 order=256 ordering=lex\n" + "0," * 1_999_999 + "0\n")
    tracemalloc.start()
    try:
        message = "line 2 is longer than the limit of 5377 bytes$"
        with pytest.raises(ValueError, match=message) as info:
            validate_table_file(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(path) in str(info.value)
    assert peak < 1 << 20


def test_validator_refuses_a_long_single_cell_line_before_reading_it(tmp_path):
    # one 4 MB cell of digits after a valid first row: refused at the length
    # limit, not read in full and then refused by int()'s 4300-digit limit
    path = tmp_path / "long.csv"
    QuotientLoop(2).export_table(str(path), "csv")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ["7" * 4_000_000]) + "\n")
    tracemalloc.start()
    try:
        message = "line 3 is longer than the limit of 5377 bytes$"
        with pytest.raises(ValueError, match=message) as info:
            validate_table_file(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(path) in str(info.value)
    assert peak < 1 << 20


def test_validator_refuses_a_csv_file_at_its_first_extra_row(tmp_path):
    path = tmp_path / "long.csv"
    QuotientLoop(2).export_table(str(path), "csv")
    lines = path.read_text().splitlines()
    # a blank line is skipped; the garbage after the extra row is never read
    path.write_text("\n".join(lines + ["", lines[1], "not a row"]) + "\n")
    message = "line 259 is row 257, past the header's order=256$"
    with pytest.raises(ValueError, match=message) as info:
        validate_table_file(str(path))
    assert str(path) in str(info.value)
    # too few rows are refused by the shape check
    path.write_text("\n".join(lines[:-1]) + "\n")
    message = re.escape("table shape (255, 256) does not match order 256")
    with pytest.raises(ValueError, match=message):
        validate_table_file(str(path))


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_validator_refuses_a_header_past_the_table_budget_before_reading_entries(tmp_path, fmt):
    # m = 3 passes the order and size checks, but no QuotientLoop exports its table
    path = tmp_path / f"m3.{fmt}"
    order = 3 ** 8
    if fmt == "csv":
        path.write_text(f"caloop-table m=3 order={order} ordering=lex\nnot a row\n")
    else:
        with open(path, "wb") as fh:  # sparse: the 164 MiB body is never written
            fh.write(b"CLT1" + struct.pack("<I", 3))
            fh.truncate(8 + 4 * order * order)
    tracemalloc.start()
    try:
        message = re.escape(f"header order={order} is past the table budget of order <= 256")
        with pytest.raises(ValueError, match=message) as info:
            validate_table_file(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(path) in str(info.value)
    assert peak < 2 ** 20


def test_validator_refuses_a_bin_file_with_modulus_zero(tmp_path):
    path = tmp_path / "m0.bin"
    path.write_bytes(b"CLT1" + struct.pack("<I", 0))
    with pytest.raises(ValueError, match="m=0 is below 2") as info:
        validate_table_file(str(path))
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "name, data",
    [
        ("m1.csv", b"caloop-table m=1 order=1 ordering=lex\n0\n"),
        ("m1.bin", b"CLT1" + struct.pack("<I", 1) + struct.pack("<I", 0)),
    ],
    ids=["csv", "bin"],
)
def test_validator_refuses_modulus_one(tmp_path, name, data):
    # a one-element table is a Latin square, but QuotientLoop refuses m < 2
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(ValueError, match="m=1 is below 2") as info:
        validate_table_file(str(path))
    assert str(path) in str(info.value)
