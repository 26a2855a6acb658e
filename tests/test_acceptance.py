"""Acceptance suite: one test per criterion, exact tolerances, pinned counts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything here is exact arithmetic; a single counterexample
fails the criterion.
"""

import time

import numpy as np

from caloop import quotient
from caloop.arith import alpha, beta
from caloop.calculus import assoc_coords
from caloop.core import (
    Elem8, basis, inv_coords, left_div_coords, mul_coords, pow_closed_form, pow_coords,
)
from caloop.quotient import QuotientLoop
from caloop.symbolic import mutated_product_polys, verify_all, verify_identity
from caloop.words import evaluate, format_canonical, parse

import support
from support import GOLDEN_WORDS, SEED, ZERO8, PowCache, make_rng, mulmany

E = {i: tuple(basis(i)) for i in range(1, 9)}


def _report(n, text):
    print(f"ACCEPTANCE PASS criterion {n}: {text}")


def test_criterion_1_symbolic_automorphism_theorem():
    report = verify_identity("L-automorphism")
    assert report.passed, "inner mappings must be automorphisms, symbolically"
    assert report.variables == 32
    assert report.residual_term_counts == (0,) * 8
    assert report.millis < 10 * 60 * 1000
    _report(
        1,
        f"L-automorphism holds as a zero polynomial in 32 variables "
        f"(max degree {report.max_degree}, residual term counts "
        f"{list(report.residual_term_counts)}, {report.millis} ms)",
    )


def test_criterion_2_full_catalog_and_mutation():
    reports = verify_all()
    failed = [r.name for r in reports if not r.passed]
    assert not failed, f"catalog failures: {failed}"

    mutated = verify_all(product=mutated_product_polys)
    flipped = [r.name for r in mutated if not r.passed]
    assert flipped, "a perturbed coefficient must break at least one identity"
    _report(
        2,
        f"all {len(reports)} catalog identities pass exactly; perturbing one "
        f"coefficient breaks {len(flipped)} ({', '.join(flipped)})",
    )


def test_criterion_3_free_relation_table():
    relations = [
        ((1, 1, 2), 3),
        ((1, 2, 2), 4),
        ((1, 1, 3), 5),
        ((1, 1, 4), 6),
        ((2, 2, 3), 7),
        ((2, 2, 4), 8),
    ]
    for (i, j, k), target in relations:
        assert assoc_coords(E[i], E[j], E[k]) == E[target]
    _report(3, "all six generator associator relations hold exactly")


def _same(x, y) -> bool:
    """x == y coordinate by coordinate, on int tuples and int64 columns alike.

    Broadcasting matters: ``assoc_coords`` returns the int 0 in coordinates
    1-2, and ``np.array_equal(0, column)`` is False even for a zero column.
    """
    return all(np.all(u == v) for u, v in zip(x, y, strict=True))


def _check_power_laws(a, b, c, assoc) -> None:
    """The single-power laws (n in [-6, 6]) and the triple-power law (i, j, k
    in [-4, 4]) at (a, b, c), whose coordinates are ints or int64 columns;
    powers come from the ``PowCache`` recurrences, and the powers of a, b, c
    and t = (a, b, c) for n in [-6, 6] equal ``pow_coords`` in all eight
    coordinates."""
    t = assoc(a, b, c)
    base = {
        ("a", "a"): PowCache(assoc(t, a, a)),
        ("a", "b"): PowCache(assoc(t, a, b)),
        ("a", "c"): PowCache(assoc(t, a, c)),
        ("b", "a"): PowCache(assoc(t, b, a)),
        ("b", "b"): PowCache(assoc(t, b, b)),
        ("b", "c"): PowCache(assoc(t, b, c)),
        ("c", "a"): PowCache(assoc(t, c, a)),
        ("c", "b"): PowCache(assoc(t, c, b)),
        ("c", "c"): PowCache(assoc(t, c, c)),
    }
    pt = PowCache(t)
    pa, pb, pc = PowCache(a), PowCache(b), PowCache(c)

    for n in range(-6, 7):
        # the laws below compare only values that a wrong product can leave
        # alone; the iterated powers against the closed form catch it
        for p in (pa, pb, pc, pt):
            assert _same(p.get(n), pow_coords(p.base, n))
        an, bn = alpha(n), beta(n)
        assert _same(assoc(pa.get(n), b, c), mulmany(
            [pt.get(n), base["a", "a"].get(an),
             base["a", "b"].get(bn), base["a", "c"].get(bn)]
        ))
        assert _same(assoc(a, pb.get(n), c), mulmany(
            [pt.get(n), base["b", "b"].get(an),
             base["b", "a"].get(bn), base["b", "c"].get(bn)]
        ))
        assert _same(assoc(a, b, pc.get(n)), mulmany(
            [pt.get(n), base["c", "c"].get(an),
             base["c", "a"].get(bn), base["c", "b"].get(bn)]
        ))

    for i in range(-4, 5):
        ai, bi = alpha(i), beta(i)
        xi = pa.get(i)
        for j in range(-4, 5):
            aj, bj = alpha(j), beta(j)
            yj = pb.get(j)
            for k in range(-4, 5):
                ak, bk = alpha(k), beta(k)
                lhs = assoc(xi, yj, pc.get(k))
                rhs = mulmany([
                    pt.get(i * j * k),
                    base["a", "a"].get(ai * j * k),
                    base["a", "b"].get(bi * j * j * k),
                    base["a", "c"].get(bi * j * k * k),
                    base["b", "a"].get(i * bj * k),
                    base["b", "b"].get(i * aj * k),
                    base["b", "c"].get(i * bj * k * k),
                    base["c", "a"].get(i * j * bk),
                    base["c", "b"].get(i * j * bk),
                    base["c", "c"].get(i * j * ak),
                ])
                assert _same(lhs, rhs)


def test_criterion_4_numeric_power_suites(monkeypatch):
    rng = make_rng(1004)
    tuples = 1000
    start = time.perf_counter()
    drawn = [
        tuple(tuple(rng.randint(-4, 4) for _ in range(8)) for _ in range(3))
        for _ in range(tuples)
    ]
    # a few tuples on exact Python ints, the rest alongside them on int64
    # columns: one kernel call then covers all the tuples at once
    for a, b, c in drawn[:3]:
        _check_power_laws(a, b, c, assoc_coords)

    # every operand of a kernel call is a drawn tuple or the output of an
    # earlier call; the bases given to pow_coords are a, b, c and t, each an
    # operand of a recorded associator call.  If the kernel cannot overflow
    # int64 on operands within the largest |value| seen in each of the eight
    # coordinates, then the first call to overflow would have had exact
    # operands within those bounds: there is none, and every value is exact
    largest = [0] * 8

    def recorded(kernel):
        def run(*operands):
            for x in operands:
                for k, v in enumerate(x):
                    largest[k] = max(largest[k], int(np.abs(v).max()))
            return kernel(*operands)
        return run

    monkeypatch.setattr(support, "mul_coords", recorded(mul_coords))  # PowCache and mulmany
    a, b, c = (
        tuple(np.array(col, dtype=np.int64) for col in zip(*elems))
        for elems in zip(*drawn)
    )
    _check_power_laws(a, b, c, recorded(assoc_coords))
    peak = [0]
    bound = tuple(quotient._Magnitude(m, peak) for m in largest)
    mul_coords(bound, bound)
    assoc_coords(bound, bound, bound)
    for n in range(-6, 7):
        pow_closed_form(bound, n)
    assert peak[0] <= quotient._INT64_MAX, f"int64 columns could overflow: {peak[0]}"

    # the six compounded generator associators collapse to two values
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
    elapsed = time.perf_counter() - start
    _report(
        4,
        f"single-power laws (n in [-6,6]) and triple-power law (i,j,k in "
        f"[-4,4]) hold exactly over {tuples} random tuples, and the "
        f"compounded-associator reduction holds on the generators "
        f"({elapsed:.0f} s)",
    )


def test_criterion_5_quotient_m2_brute_force():
    loop = QuotientLoop(2)

    axioms = loop.exhaustive_check("axioms")
    assert axioms.passed
    assert axioms.counts["products-checked"] == 256 * 256

    full = loop.exhaustive_check("automorphic-full")
    assert full.passed
    assert full.counts["quadruples-checked"] == 256 ** 4
    assert full.counts["distinct-inner-maps"] == 43
    assert full.millis < 15 * 60 * 1000

    center = loop.center_indices()
    expected = sorted(
        loop.element_index((0, 0, 0, 0, c5, c6, c7, c8))
        for c5 in range(2) for c6 in range(2) for c7 in range(2) for c8 in range(2)
    )
    assert center == expected and len(center) == 16
    _report(
        5,
        f"order-256 quotient: Latin square + commutativity over 256^2 "
        f"products, full automorphism over 256^4 quadruples (43 distinct "
        f"inner maps) in {full.millis} ms, center is exactly the 16 tail residues",
    )


def test_criterion_6_division_round_trips_big_integers():
    rng = make_rng(1006)
    span = 10 ** 6
    for _ in range(10 ** 4):
        a = tuple(rng.randint(-span, span) for _ in range(8))
        b = tuple(rng.randint(-span, span) for _ in range(8))
        assert left_div_coords(a, mul_coords(a, b)) == b
        assert inv_coords(mul_coords(a, b)) == mul_coords(inv_coords(a), inv_coords(b))
    _report(
        6,
        "division round-trip and automorphic inverses exact on 10^4 pairs "
        "with coordinates up to 10^6",
    )


def test_criterion_7_parser_golden_suite():
    assert len(GOLDEN_WORDS) >= 30
    for text, coords, canonical in GOLDEN_WORDS:
        value = evaluate(parse(text))
        assert tuple(value) == coords, text
        if canonical is not None:
            assert format_canonical(value) == canonical, text
        # round-trip: format -> parse -> eval is the identity map
        assert evaluate(parse(format_canonical(value))) == value

    target = evaluate(parse("(x*y)*x"))
    assert tuple(target) == (2, 1, -1, 0, 0, 0, 0, 0)

    rng = make_rng(1007)
    for _ in range(1000):
        elem = Elem8(tuple(rng.randint(-30, 30) for _ in range(8)))
        assert evaluate(parse(format_canonical(elem))) == elem
    _report(
        7,
        f"{len(GOLDEN_WORDS)} golden expressions evaluate to their pinned "
        f"coordinates and the canonical form round-trips",
    )


def test_seed_is_documented():
    assert SEED == 20260808
    assert ZERO8 == (0,) * 8
