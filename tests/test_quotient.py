import hashlib
import random
import re
import struct
import tracemalloc

import numpy as np
import pytest

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
    _intermediate_bound,
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


def test_element_indexing_is_lexicographic():
    q = QuotientLoop(2)
    assert q.element_index((0,) * 8) == 0
    assert q.element_index((0, 0, 0, 0, 0, 0, 0, 1)) == 1
    assert q.element_index((1, 0, 0, 0, 0, 0, 0, 0)) == 128
    for i in (0, 1, 2, 37, 255):
        assert q.element_index(q.element_coords(i)) == i


def test_axioms_check_m2():
    report = QuotientLoop(2).exhaustive_check("axioms")
    assert report.passed
    assert report.checks["latin-rows"] and report.checks["latin-columns"]
    assert report.checks["commutative"]
    assert report.counts["products-checked"] == 65536
    assert report.counts["center-size"] == 16


def test_axioms_check_does_not_scan_inner_maps(monkeypatch):
    def refuse(self):
        raise AssertionError("the axioms level must not build this")

    monkeypatch.setattr(QuotientLoop, "_distinct_inner_maps", refuse)
    monkeypatch.setattr(QuotientLoop, "left_division_table", refuse)
    report = QuotientLoop(2).exhaustive_check("axioms")
    assert report.passed
    assert report.counts["center-size"] == 16
    assert report.counts["products-checked"] == 65536


def test_product_table_matches_scalar_products():
    q = QuotientLoop(2)
    coords = [q.element_coords(i) for i in range(q.order)]
    reference = np.array(
        [[q.element_index(q.mul(a, b)) for b in coords] for a in coords]
    )
    assert np.array_equal(q.product_table(), reference)


class _SkewedLoop(QuotientLoop):
    """A product with an extra term in the last coordinate: not automorphic.

    Written on coordinate tuples, so it runs on ints and on arrays alike.
    """

    def mul(self, a, b):
        p = super().mul(a, b)
        return p[:7] + ((p[7] + a[0] * b[0] * b[2]) % self.modulus,)

    def inner_l(self, a, b, c):
        # the inner map from its defining equation, so the skew reaches it;
        # QuotientLoop.inner_l is the closed form of the unskewed loop
        return self.left_divide(self.mul(b, a), self.mul(b, self.mul(a, c)))


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


@pytest.mark.parametrize("trials", [1, 150, ARRAY_CHUNK + 1])
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
        bound = _intermediate_bound(m)
        worst = 0
        for _ in range(100):
            # extreme coordinates come close to the bound
            a, b = (tuple(rng.choice((1 - m, m - 1, rng.randint(1 - m, m - 1)))
                          for _ in range(8)) for _ in range(2))
            c = tuple(third.choice((1 - m, m - 1, third.randint(1 - m, m - 1)))
                      for _ in range(8))
            worst = max(worst, _peak_formed(mul_coords, a, b),
                        _peak_formed(left_div_coords, a, b),
                        _peak_formed(inner_l_coords, a, b, c))
        assert 0 < worst <= bound


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
    assert _intermediate_bound(2000) < 2 ** 63 <= _intermediate_bound(3001)
    QuotientLoop(2000)._require_int64("sampled check")
    big = QuotientLoop(3001)
    with pytest.raises(BudgetExceeded, match="int64"):
        big._require_int64("sampled check")
    with pytest.raises(BudgetExceeded, match="int64"):
        big._sampled_failures(1, seed=0)


def _loop_with_table(table: np.ndarray) -> QuotientLoop:
    q = QuotientLoop(2)
    q._table = table.astype(np.uint16)
    return q


def test_full_check_on_a_group_sees_one_inner_map():
    idx = np.arange(256)
    xor = idx[:, None] ^ idx[None, :]  # the elementary abelian group (Z/2)^8
    report = _loop_with_table(xor).exhaustive_check("automorphic-full")
    assert report.passed
    assert report.counts["distinct-inner-maps"] == 1
    assert report.counts["quadruples-checked"] == 256 ** 4


def test_full_check_fails_on_a_tampered_table():
    idx = np.arange(256)
    t = idx[:, None] ^ idx[None, :]
    # swap the intercalate on rows 1, 2 x columns 4, 7 and its mirror image:
    # still a commutative Latin square with identity, but no longer automorphic
    for r, c in ((1, 4), (1, 7), (2, 4), (2, 7)):
        t[r, c] = t[c, r] = t[r, c] ^ 3
    assert (t == t.T).all() and (t[0] == idx).all()
    assert (np.sort(t, axis=0) == idx[:, None]).all()
    assert (np.sort(t, axis=1) == idx[None, :]).all()
    q = _loop_with_table(t)
    report = q.exhaustive_check("automorphic-full")
    assert not report.passed
    assert not report.checks["automorphism-full"]
    assert report.counts["distinct-inner-maps"] == 132
    assert q.center_indices() == _fixed_by_every_inner_map(q) == [0, 3]


def _fixed_by_every_inner_map(q: QuotientLoop) -> list:
    """Reference center: the c fixed by every L_{a,b}, from the distinct
    maps, which the scan keeps by exact comparison of every map's bytes."""
    fixed = (q._distinct_inner_maps() == np.arange(q.order)).all(axis=0)
    return [int(i) for i in np.nonzero(fixed)[0]]


def test_distinct_inner_maps_match_an_a_major_reference_scan():
    # L_{a,b}(c) for one a and every b, c by two flat gathers, as a scan by a
    # computes it; the b-major scan must find the same set of permutations
    q = QuotientLoop(2)
    t, ldiv, order = q.product_table(), q.left_division_table(), q.order
    reference = set()
    for a in range(order):
        ta = t[a].astype(np.intp)  # [b] = a * b, and [c] = a * c
        mid = np.take(t, np.arange(0, order * order, order)[:, None] + ta)  # [b, c] = b * (a * c)
        perms = np.take(ldiv, (ta * order)[:, None] + mid)  # divide by a * b
        reference.update(row.tobytes() for row in perms)
    maps = q._distinct_inner_maps()
    assert len(maps) == len(reference) == 43
    assert {row.tobytes() for row in maps} == reference


def test_full_check_stays_within_its_memory_bound():
    # a fresh check builds both tables and scans the inner maps, which
    # traces about 1.65 MiB; the bound leaves room for numpy's own
    # allocations but not for two of the scan's 512 KiB index blocks at once
    q = QuotientLoop(2)
    tracemalloc.start()
    try:
        report = q.exhaustive_check("automorphic-full")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2 << 20


_IDX = np.arange(256)


@pytest.mark.parametrize(
    "loop, expected",
    [
        pytest.param(lambda: QuotientLoop(2), list(range(16)), id="m2"),
        pytest.param(lambda: _loop_with_table(_IDX[:, None] ^ _IDX[None, :]),
                     list(range(256)), id="xor-group"),
        # a non-commutative Latin square: dividing by b * a instead of a * b
        # would find two fixed elements here
        pytest.param(lambda: _loop_with_table((_IDX[:, None] - _IDX[None, :]) % 256),
                     [], id="difference-square"),
    ],
)
def test_center_is_the_fixed_set_of_every_inner_map(loop, expected):
    q = loop()
    assert q.center_indices() == _fixed_by_every_inner_map(q) == expected


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
    ],
    ids=["non-integer-cell", "ragged-rows", "non-ascii-byte", "cell-past-int64"],
)
def test_validator_names_bad_csv_row(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("caloop-table m=2 order=256 ordering=lex\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        validate_table_file(str(path))
    assert str(path) in str(info.value)


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
    # 256: the cells are counted, not converted to ints and an array
    path = tmp_path / "wide.csv"
    path.write_text("caloop-table m=2 order=256 ordering=lex\n" + "0," * 1_999_999 + "0\n")
    tracemalloc.start()
    try:
        message = "line 2 has 2000000 cells, past the header's order=256$"
        with pytest.raises(ValueError, match=message) as info:
            validate_table_file(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(path) in str(info.value)
    assert peak < 3 * path.stat().st_size  # converting the row took ~10 times its size


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
