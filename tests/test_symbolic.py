import collections
import dataclasses
import gc
import itertools
import re
import tracemalloc
import weakref

import pytest

from caloop import poly, symbolic
from caloop.calculus import assoc_coords, inner_l_coords
from caloop.core import left_div_coords, mul_coords
from caloop.poly import Polynomial, VarTable
from caloop.symbolic import (
    SymLoopOps,
    catalog_names,
    describe_identity,
    mutated_product_polys,
    verify_all,
    verify_identity,
)
from caloop.words import Generator, _value, evaluate, parse, parse_with_warnings

from support import make_rng


def _product_expansion(lhs, x, y, big_x, big_y, p, q):
    """The law text of a product-expansion-* entry, its factors grouped from the left."""
    return (
        f"{lhs} = {big_x} * {big_y} * assoc({big_x}, {x}, {y}) * assoc({big_y}, {y}, {x}) * "
        f"assoc({big_x}, {y}, {p}) * assoc({big_y}, {x}, {p}) * "
        f"assoc({big_x}, {y}, {q}) * assoc({big_y}, {x}, {q})"
    )


# (name, summary) of every entry, in registration order, which is the
# order of `caloop verify --json`.  The summary of an equation is its law
# text, a loop word on each side of each '=', which is what the entry proves.
EXPECTED_CATALOG = (
    ("identity-element", "a * 1 = a; 1 * a = a"),
    ("commutativity", "a * b = b * a"),
    ("division-round-trip", "ldiv(a, a * b) = b; a * ldiv(a, b) = b"),
    ("aip", "inv(a * b) = inv(a) * inv(b)"),
    ("flexibility", "assoc(a, b, a) = 1"),
    ("reversal", "assoc(a, b, c) = inv(assoc(c, b, a))"),
    ("swap-expansion", "assoc(a, b, c) = assoc(a, c, b) * assoc(b, a, c)"),
    ("compounded-reversal", "inv(assoc(assoc(a, b, c), d, e)) = assoc(e, d, assoc(a, b, c))"),
    ("compounded-middle-expansion",
     "assoc(a, assoc(b, c, d), e) = assoc(a, e, assoc(b, c, d)) * assoc(assoc(b, c, d), a, e)"),
    ("double-compounded-middle-right", "assoc(a, assoc(b, c, d), assoc(e, f, g)) = 1"),
    ("double-compounded-left-right", "assoc(assoc(a, b, c), d, assoc(e, f, g)) = 1"),
    ("double-compounded-left-middle", "assoc(assoc(a, b, c), assoc(d, e, f), g) = 1"),
    ("inner-map-closed-form",
     "innL(b, c, a) = (a * assoc(a, b, c)) * assoc(b * c, a, assoc(a, b, c))"),
    ("product-expansion-left", _product_expansion(
        "assoc(a * b, c, d)", "a", "b", "assoc(a, c, d)", "assoc(b, c, d)", "c", "d")),
    ("product-expansion-right", _product_expansion(
        "assoc(a, b, c * d)", "c", "d", "assoc(a, b, c)", "assoc(a, b, d)", "a", "b")),
    ("product-expansion-middle", _product_expansion(
        "assoc(a, b * c, d)", "b", "c", "assoc(a, b, d)", "assoc(a, c, d)", "a", "d")),
    ("middle-nucleus-contains", "assoc(a, n, b) = 1"),
    ("middle-nucleus-pins", "(x, z, y) vanishes only if z has zero generator exponents"),
    ("compounded-central-left", "((a,b,c), d, e) lies in 0x0x0x0xZ^4"),
    ("compounded-central-middle", "(d, (a,b,c), e) lies in 0x0x0x0xZ^4"),
    ("compounded-central-right", "(d, e, (a,b,c)) lies in 0x0x0x0xZ^4"),
    ("center-contains", "innL(a, b, z) = z"),
    ("center-pins", "an element fixed by all inner mappings has zero first four coordinates"),
    ("projection-homomorphism",
     "truncation to 4 coordinates is a homomorphism onto the class-2 loop"),
    ("L-automorphism", "innL(a, b, c * d) = innL(a, b, c) * innL(a, b, d)"),
    ("power-zero", "a^0 = 1"),
    ("power-recurrence", "a^(n+1) = a^n * a for the closed-form power a^n"),
    ("power-negation", "a^-n = (a^-1)^n for the closed-form power a^n"),
    ("associator-formula",
     "the closed-form associator (a, b, c) solves (a * (b * c)) * t = (a * b) * c"),
    ("inner-map-formula", "the closed-form L_{a,b}(c) solves (b * a) * z = b * (a * c)"),
    ("inverse-negation", "a * inv(a) = 1"),
    ("central-coordinates",
     "coordinates 5-8 of the factors add into the product: a * b = a' * b' + "
     "(0,0,0,0,a5+b5,...,a8+b8), with a' = a, b' = b on coordinates 1-4 and 0 on 5-8"),
)

# the entries whose summary is the law text they prove; the others compare
# selected coordinates or need exponent arithmetic, and their summaries are prose
LAW_TEXTS = {
    name: summary for name, summary in EXPECTED_CATALOG
    if name not in {
        "middle-nucleus-pins", "compounded-central-left", "compounded-central-middle",
        "compounded-central-right", "center-pins", "projection-homomorphism",
        "power-recurrence", "power-negation", "associator-formula", "inner-map-formula",
        "central-coordinates",
    }
}
# leading coordinates pinned to 0 in the law texts' variables: n ranges over
# the middle nucleus, z over the center
PINNED = {"n": 2, "z": 4}


def _generic_pair():
    table = VarTable(tuple(f"a{i}" for i in range(1, 9)) + tuple(f"b{i}" for i in range(1, 9)))
    ops = SymLoopOps(table)
    a = tuple(Polynomial.var(table, i) for i in range(8))
    b = tuple(Polynomial.var(table, i) for i in range(8, 16))
    return ops, a, b


def _at(coords, point):
    """The exact value of each polynomial coordinate at an integer point."""
    return tuple(p.evaluate(point) for p in coords)


def test_catalog_is_complete():
    assert catalog_names() == [name for name, _ in EXPECTED_CATALOG]
    for name, summary in EXPECTED_CATALOG:
        assert describe_identity(name) == summary


@pytest.mark.parametrize("name", LAW_TEXTS)
def test_law_texts_hold_at_random_integer_elements(name):
    # Each law text, with an integer literal in place of each variable, is a
    # pair of loop words per equation that the integer evaluator must find
    # equal: a check of the texts against the shipped kernel that does not
    # run SymLoopOps.
    text = LAW_TEXTS[name]
    assert len(text.split(";")) == len(verify_identity(name).residual_blocks)
    variables = sorted(set(re.findall(r"\b[a-z]\b", text)))
    rng = make_rng(70 + list(LAW_TEXTS).index(name))
    for _ in range(20):
        values = {}
        for v in variables:
            coords = [0] * PINNED.get(v, 0)
            coords += [rng.randint(-5, 5) for _ in range(8 - len(coords))]
            values[v] = "elem[" + ",".join(map(str, coords)) + "]"
        instance = re.sub(r"\b[a-z]\b", lambda m: values[m.group()], text)
        for equation in instance.split(";"):
            lhs, rhs = equation.split("=")
            assert evaluate(parse(lhs)) == evaluate(parse(rhs)), (name, instance)


def test_full_catalog_passes():
    reports = verify_all()
    assert all(r.passed for r in reports)
    assert [r.name for r in reports] == catalog_names()
    for r in reports:
        assert r.residual_term_counts == (0,) * 8


# (max_degree, variables) of every entry in the shipped run: the largest
# total degree seen while expanding it, and the size of its variable table.
# The closed-form power has total degree 10 in (n, a): alpha(n) n^2 is
# degree 5 in n and multiplies a1^4 a2 in the v1 coordinate.
# inverse-negation multiplies a by its negation, on which the product forms
# nothing past degree 2.  The associator and inner map are the closed
# forms, which form no product: with a repeated argument (flexibility), a
# constant one (the *-pins entries) or one pinned to the middle nucleus or
# the center, they stay below the degree of the products that their
# defining equations multiply out.
EXPECTED_SIZES = {
    "identity-element": (3, 8),
    "commutativity": (5, 16),
    "division-round-trip": (5, 16),
    "aip": (5, 16),
    "flexibility": (4, 16),
    "reversal": (5, 24),
    "swap-expansion": (5, 24),
    "compounded-reversal": (5, 40),
    "compounded-middle-expansion": (5, 40),
    "double-compounded-middle-right": (5, 56),
    "double-compounded-left-right": (5, 56),
    "double-compounded-left-middle": (5, 56),
    "inner-map-closed-form": (5, 24),
    "product-expansion-left": (5, 32),
    "product-expansion-right": (5, 32),
    "product-expansion-middle": (5, 32),
    "middle-nucleus-contains": (4, 22),
    "middle-nucleus-pins": (3, 8),
    "compounded-central-left": (5, 40),
    "compounded-central-middle": (5, 40),
    "compounded-central-right": (5, 40),
    "center-contains": (3, 20),
    "center-pins": (3, 8),
    "projection-homomorphism": (5, 16),
    "L-automorphism": (5, 32),
    "power-zero": (3, 8),
    "power-recurrence": (10, 9),
    "power-negation": (10, 9),
    "associator-formula": (5, 24),
    "inner-map-formula": (5, 24),
    "inverse-negation": (2, 8),
    "central-coordinates": (5, 16),
}


def test_report_degrees_are_bounded():
    reports = verify_all()
    assert {r.name: (r.max_degree, r.variables) for r in reports} == EXPECTED_SIZES


def test_automorphism_report_shape():
    r = verify_identity("L-automorphism")
    assert r.passed and r.variables == 32
    doc = r.to_doc()
    assert set(doc) == {"name", "pass", "residual_term_counts", "max_degree", "millis"}
    assert doc["pass"] is True
    assert doc["residual_term_counts"] == [0] * 8


# the entries a doubled u1-correction in the v1 coordinate breaks, with the
# residual terms left in that coordinate; power-negation and
# inverse-negation hold because the mutated term vanishes on a * a^-1, and
# the closed-form associator and inner map, which do not run the product,
# no longer solve their defining equations in the mutated product
MUTATION_RESIDUALS = {
    "product-expansion-left": 11,
    "product-expansion-right": 11,
    "product-expansion-middle": 10,
    "center-pins": 1,
    "L-automorphism": 11,
    "power-recurrence": 4,
    "associator-formula": 8,
    "inner-map-formula": 10,
}
MUTATION_FLIPS = set(MUTATION_RESIDUALS)
# (max_degree, variables) of every entry in the mutated run, whose associator
# and inner map solve their defining equations by left division through the
# product, and so reach the degree of those products in every entry
MUTATION_SIZES = {
    **EXPECTED_SIZES,
    "flexibility": (5, 16),
    "middle-nucleus-contains": (5, 22),
    "middle-nucleus-pins": (4, 8),
    "center-contains": (5, 20),
    "center-pins": (4, 8),
}
# str() of each nonzero residual of the flipped entries, all in the v1 coordinate
MUTATION_RESIDUAL_TEXTS = {
    "product-expansion-left": [
        "a1^2*b1*c1*d2 + a1^2*b2*c1*d1 + 2*a1*a2*b1*c1*d1 + a1*b1^2*c1*d2 + 2*a1*b1*b2*c1*d1 + "
        "2*a1*b1*c1^2*d2 + 2*a1*b1*c1*c2*d1 + 2*a1*b1*c1*d1*d2 - a1*b2*c1*d1^2 + "
        "a2*b1^2*c1*d1 - a2*b1*c1*d1^2"
    ],
    "product-expansion-right": [
        "a1^2*b1*c1*d2 + a1^2*b1*c2*d1 - 2*a1*a2*b1*c1*d1 - 2*a1*b1*b2*c1*d1 - a1*b1*c1^2*d2 - "
        "2*a1*b1*c1*c2*d1 - 2*a1*b1*c1*d1*d2 - a1*b1*c2*d1^2 - 2*a2*b1^2*c1*d1 - "
        "a2*b1*c1^2*d1 - a2*b1*c1*d1^2"
    ],
    "product-expansion-middle": [
        "2*a1^2*b1*c1*d2 + a1^2*b1*c2*d1 + a1^2*b2*c1*d1 + a1*b1^2*c1*d2 + a1*b1*c1^2*d2 - "
        "a1*b1*c2*d1^2 - a1*b2*c1*d1^2 - a2*b1^2*c1*d1 - a2*b1*c1^2*d1 - 2*a2*b1*c1*d1^2"
    ],
    "center-pins": ["z3"],
    "L-automorphism": [
        "2*a1^2*b2*c1*d1 + 2*a1*a2*b1*c1*d1 - a1*b1^2*c1*d2 - a1*b1^2*c2*d1 + "
        "2*a1*b1*b2*c1*d1 + a1*b1*c1^2*d2 + 2*a1*b1*c1*c2*d1 + 2*a1*b1*c1*d1*d2 + "
        "a1*b1*c2*d1^2 + a1*b2*c1^2*d1 + a1*b2*c1*d1^2"
    ],
    "power-recurrence": [
        "-1/3*a1^4*a2*n^4 + 1/3*a1^4*a2*n^2 + a1^2*a3*n^2 + a1^2*a3*n"
    ],
    "associator-formula": [
        "-a1^2*a2*b1*c1 - a1^2*b1*b2*c1 - a1*a2*b1^2*c1 + a1*b1^2*c1*c2 + a1*b1*b2*c1^2 + "
        "a1*b1*c1^2*c2 - a1*b1*c3 + a3*b1*c1"
    ],
    "inner-map-formula": [
        "a1^2*b1*b2*c1 - a1^2*b2*c1^2 + a1*a2*b1^2*c1 - a1*a2*b1*c1^2 + a1*b1^2*b2*c1 + "
        "a1*b1^2*c1*c2 - a1*b1*b2*c1^2 - a1*b1*c1^2*c2 + a1*b1*c3 - a1*b3*c1"
    ],
}


def test_mutation_flips_at_least_one_identity():
    reports = verify_all(product=mutated_product_polys)
    failed = [r for r in reports if not r.passed]
    assert {r.name for r in failed} == MUTATION_FLIPS
    for r in failed:
        assert r.residual_term_counts == (0, 0, 0, 0, MUTATION_RESIDUALS[r.name], 0, 0, 0)
        nonzero = [p for block in r.residual_blocks for p in block if not p.is_zero()]
        assert [str(p) for p in nonzero] == MUTATION_RESIDUAL_TEXTS[r.name]
    assert {r.name: (r.max_degree, r.variables) for r in reports} == MUTATION_SIZES


def test_central_coordinates_has_teeth():
    # a product in which coordinates 5-8 of a factor do more than add into
    # the product's leaves the hand-written cross term as the residual
    def leaky(a, b):
        c = list(mul_coords(a, b))
        c[7] = c[7] + a[4] * b[0] + a[0] * b[4]
        return tuple(c)

    assert verify_identity("central-coordinates").residual_term_counts == (0,) * 8
    report = verify_identity("central-coordinates", product=leaky)
    assert not report.passed
    assert report.residual_term_counts == (0, 0, 0, 0, 0, 0, 0, 2)
    assert [str(p) for p in report.residual_blocks[0] if not p.is_zero()] == ["a1*b5 + a5*b1"]


def test_unknown_identity_rejected():
    with pytest.raises(ValueError, match="unknown identity"):
        verify_identity("no-such-law")


def test_law_texts_may_name_generators(monkeypatch):
    # x, y, u1 ... v4 expand as their constant basis elements
    monkeypatch.setattr(symbolic, "_CATALOG", dict(symbolic._CATALOG))
    symbolic._equation("probe-holds", "assoc(x, x, y) = u1", "")
    symbolic._equation("probe-fails", "assoc(x, y, y) = u1", "")
    assert verify_identity("probe-holds").passed
    report = verify_identity("probe-fails")
    assert not report.passed
    assert report.residual_term_counts == (0, 0, 1, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="unknown generator 'q'"):
        _value(Generator("q"), SymLoopOps(VarTable(())))
    with pytest.raises(ValueError, match="unknown identifier 'q'"):
        symbolic._equation("probe-unknown", "q * a = a", "a")


def test_memo_expands_a_repeated_subterm_once():
    # the walk keeps nothing; the kernel's memo serves the repeated (a * b),
    # a product of its leaves, so the outer product makes the second call
    calls = []

    def counting(a, b):
        calls.append(1)
        return mul_coords(a, b)

    ops, (a, b) = symbolic._make_context((("a", 0), ("b", 0)), counting)
    expr, _ = parse_with_warnings("(a * b) * (a * b)", ("a", "b"))
    square = _value(expr, ops)
    assert len(calls) == 2
    ab = mul_coords(a, b)
    assert square == mul_coords(ab, ab)


def test_law_variables_are_the_kernels_leaves():
    # a law's variable is the generic element of its name, the very tuple
    # the kernel's memo keys on; a generator name stays a constant
    ops, elems = symbolic._make_context((("a", 0), ("n", 2)), None)
    for name, elem in zip("an", elems):
        assert _value(parse_with_warnings(name, ("a", "n"))[0], ops) is elem
    assert _value(parse("x"), ops) == ops.constant(evaluate(parse("x")))


def test_catalog_run_makes_a_pinned_number_of_products(monkeypatch):
    # the work of one shipped and one mutated run, in product calls and in
    # Polynomial operations: a value that the kernel's memo no longer serves
    # shows as more calls, and a faster operation as no fewer operations
    calls = []
    operations = collections.Counter()

    def counting(fn):
        def product(a, b):
            calls.append(1)
            return fn(a, b)
        return product

    def counting_operator(symbol, fn):
        def counted(*args):
            operations[symbol] += 1
            return fn(*args)
        return counted

    # a reflected operator counts under its symbol too, and __rsub__ also runs __sub__
    for name, symbol in (("__mul__", "*"), ("__rmul__", "*"), ("__add__", "+"), ("__radd__", "+"),
                         ("__sub__", "-"), ("__rsub__", "-"), ("__floordiv__", "//")):
        monkeypatch.setattr(Polynomial, name, counting_operator(symbol, getattr(Polynomial, name)))
    with monkeypatch.context() as patch:
        patch.setattr(symbolic, "mul_coords", counting(mul_coords))  # bound by each kernel
        verify_all()
    assert len(calls) == 51
    assert operations == {"*": 4727, "+": 2127, "-": 2142, "//": 472}
    calls.clear()
    operations.clear()
    verify_all(counting(mutated_product_polys))
    assert len(calls) == 343
    assert operations == {"*": 8619, "+": 5939, "-": 6328, "//": 1408}


def _report_key(r):
    """Everything a report says but its time, residual texts included."""
    texts = [[str(p) for p in block] for block in r.residual_blocks]
    return r.name, r.passed, r.residual_term_counts, r.max_degree, r.variables, texts


@pytest.mark.parametrize("product", [None, mutated_product_polys], ids=["shipped", "mutated"])
def test_shared_kernel_changes_no_report(product):
    # verify_all() shares one kernel and its memo among the entries
    # of a layout; each report still equals the entry's run on its own
    shared = [_report_key(r) for r in verify_all(product)]
    alone = [_report_key(verify_identity(name, product)) for name in catalog_names()]
    assert shared == alone


def _counting_contexts(monkeypatch) -> list:
    """The (layout, integers) of every context built from now on."""
    built = []
    make = symbolic._make_context

    def counting(layout, product, integers=()):
        built.append((layout, integers))
        return make(layout, product, integers)

    monkeypatch.setattr(symbolic, "_make_context", counting)
    return built


@pytest.mark.parametrize("product", [None, mutated_product_polys], ids=["shipped", "mutated"])
def test_run_builds_one_context_per_group(product, monkeypatch):
    # the 32 entries fall into 10 (layout, integers) groups; each group's
    # context is built once, and is no longer set when the run is done
    built = _counting_contexts(monkeypatch)
    verify_all(product)
    assert len(built) == len(set(built)) == 10
    assert set(built) == {(e.layout, e.integers) for e in symbolic._CATALOG.values()}
    assert symbolic._RUN_CONTEXT.get() is None


def test_run_context_is_reset_when_an_entry_raises(monkeypatch):
    def broken(ops, *elems):
        assert symbolic._RUN_CONTEXT.get()[0] is ops  # the running group's kernel
        raise RuntimeError("broken builder")

    entry = symbolic._CATALOG["reversal"]
    monkeypatch.setitem(symbolic._CATALOG, "reversal", dataclasses.replace(entry, build=broken))
    with pytest.raises(RuntimeError, match="broken builder"):
        verify_all()
    assert symbolic._RUN_CONTEXT.get() is None


def test_identity_alone_builds_its_own_context(monkeypatch):
    built = _counting_contexts(monkeypatch)
    assert verify_identity("reversal").passed
    entry = symbolic._CATALOG["reversal"]
    assert built == [(entry.layout, entry.integers)]
    assert symbolic._RUN_CONTEXT.get() is None


def test_memo_hit_reads_the_peak_of_the_first_expansion(monkeypatch):
    # on kept operands, generic elements or products of them, the product,
    # the associator, the inner map and left division are each expanded
    # once: a repeat returns the first result and reads the peak of the
    # first expansion, which equals that of a kernel that keeps nothing.
    # Only a product is kept, so a product formed on an associator, inner
    # map or quotient is expanded each time.
    expanded = []
    for name in ("mul_coords", "assoc_coords", "inner_l_coords", "left_div_coords"):
        def counting(*args, _name=name, _fn=getattr(symbolic, name)):
            expanded.append(_name)
            return _fn(*args)

        monkeypatch.setattr(symbolic, name, counting)
    for product in (None, mutated_product_polys):
        ops, (a, b, c) = symbolic._make_context((("a", 0), ("b", 0), ("c", 0)), product)
        unkept = SymLoopOps(ops.table, product)
        for name, args in (("mul", (a, b)), ("associator", (a, b, c)),
                           ("inner_l", (a, b, c)), ("left_divide", (a, b))):
            poly.reset_stats()
            alone = getattr(unkept, name)(*args)
            peak = poly.peak_stats()
            poly.reset_stats()
            before = len(expanded)
            first = getattr(ops, name)(*args)
            assert len(expanded) > before, name
            assert first == alone and poly.peak_stats() == peak, name
            poly.reset_stats()
            before = len(expanded)
            assert getattr(ops, name)(*args) is first
            assert len(expanded) == before and poly.peak_stats() == peak, name
            ops.mul(a, first)
            ops.mul(a, first)
            assert expanded[before:] == ["mul_coords"] * (1 if name == "mul" else 2), name


@pytest.mark.parametrize("product", [None, mutated_product_polys], ids=["shipped", "mutated"])
def test_no_kernel_outlives_its_group(product, monkeypatch):
    # a kernel is in no reference cycle, so each group's context is freed
    # when the group ends, with the cyclic garbage collector off
    kernels = []
    make = symbolic._make_context

    def tracking(layout, product, integers=()):
        ops, elems = make(layout, product, integers)
        kernels.append(weakref.ref(ops))
        return ops, elems

    monkeypatch.setattr(symbolic, "_make_context", tracking)
    enabled = gc.isenabled()
    gc.disable()
    try:
        verify_all(product)
        alive = sum(kernel() is not None for kernel in kernels)
    finally:
        if enabled:
            gc.enable()
    assert len(kernels) == 10 and alive == 0


def test_catalog_run_stays_within_its_memory_bound():
    # one layout's context, with its memo, is alive at a time: the mutated
    # run traces about 1.2 MiB, where the 32-variable products that the
    # product-expansion-* entries and L-automorphism share dominate; a memo
    # kept for the whole run traced about 1.9 MiB, and one that also keeps
    # its quotients, associators and inner maps as operands about 1.8 MiB;
    # the shipped run, whose associators and inner maps form no product,
    # traces about 0.3 MiB
    for product in (None, mutated_product_polys):
        tracemalloc.start()
        try:
            reports = verify_all(product)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(not r.passed for r in reports) == (len(MUTATION_FLIPS) if product else 0)
        assert peak < 3 << 19, product


def test_reports_are_deterministic():
    key = lambda rs: [(r.name, r.passed, r.residual_term_counts, r.max_degree) for r in rs]
    assert key(verify_all()) == key(verify_all())


def test_generic_product_first_coordinate():
    ops, a, b = _generic_pair()
    m = ops.mul(a, b)
    assert m[0] == a[0] + b[0]
    assert m[1] == a[1] + b[1]


def test_symbolic_product_matches_integer_kernel():
    ops, a, b = _generic_pair()
    rng = make_rng(50)
    prod = ops.mul(a, b)
    quot = ops.left_divide(a, b)
    for _ in range(1000):
        pa = tuple(rng.randint(-6, 6) for _ in range(8))
        pb = tuple(rng.randint(-6, 6) for _ in range(8))
        point = pa + pb
        assert _at(prod, point) == mul_coords(pa, pb)
        assert _at(quot, point) == left_div_coords(pa, pb)


def test_product_divisions_are_exact_on_every_residue_class():
    # Each // 3 in mul_coords divides an integer polynomial in a1, a2, b1, b2
    # only, so its residue mod 3 depends only on those four mod 3.  The
    # polynomial product divides exactly, and a non-integer value evaluates
    # to a Fraction, which equals no int, so matching it on one full period
    # of residues shows that every integer floor is exact, for all integers.
    ops, a, b = _generic_pair()
    prod = ops.mul(a, b)
    for a1, a2, b1, b2 in itertools.product(range(3), repeat=4):
        pa = (a1, a2, 5, -7, 2, -3, 4, 1)
        pb = (b1, b2, -2, 3, -5, 7, 1, -4)
        assert _at(prod, pa + pb) == mul_coords(pa, pb)


def test_symbolic_division_round_trip_is_polynomial_identity():
    ops, a, b = _generic_pair()
    back = ops.left_divide(a, ops.mul(a, b))
    assert all(back[i] == b[i] for i in range(8))
    self_div = ops.left_divide(a, a)
    assert all(p.is_zero() for p in self_div)


def test_mutated_product_differs_from_reference():
    _, a, b = _generic_pair()
    normal = mul_coords(a, b)
    mutated = mutated_product_polys(a, b)
    assert normal[4] != mutated[4]
    assert normal[:4] == mutated[:4] and normal[5:] == mutated[5:]


def test_division_inverts_the_bound_product():
    # left_divide solves against the product SymLoopOps holds, so the
    # mutation run reaches division too
    reference, a, b = _generic_pair()
    ops = SymLoopOps(reference.table, mutated_product_polys)
    q = ops.left_divide(a, b)
    assert ops.mul(a, q) == b
    assert q != reference.left_divide(a, b)


def _generic_triple():
    table = VarTable(tuple(f"{p}{i}" for p in "abc" for i in range(1, 9)))
    a, b, c = (tuple(Polynomial.var(table, 8 * k + i) for i in range(8)) for k in range(3))
    return table, a, b, c


def test_shipped_kernel_returns_the_lifted_closed_forms():
    # built with product=None, the kernel's associator and inner map are the
    # closed forms, with their literal 0s as constant polynomials, and form
    # no product
    table, a, b, c = _generic_triple()
    ops = SymLoopOps(table)

    def no_product(x, y):
        raise AssertionError("formed a product")

    ops.product = no_product
    t, z = ops.associator(a, b, c), ops.inner_l(a, b, c)
    assert all(type(p) is Polynomial for p in t + z)
    assert t == assoc_coords(a, b, c) and z == inner_l_coords(a, b, c)
    assert t[:2] == (Polynomial.zero(table),) * 2


def test_a_callers_product_is_reached_by_the_associator_and_inner_map():
    table, a, b, c = _generic_triple()
    calls = []

    def counting(x, y):
        calls.append(1)
        return mul_coords(x, y)

    ops = SymLoopOps(table, counting)
    for name in ("associator", "inner_l"):
        calls.clear()
        getattr(ops, name)(a, b, c)
        assert calls, name


def test_division_through_the_shipped_product_equals_the_closed_forms(monkeypatch):
    # the shipped product passed explicitly takes the division path, which
    # solves the defining equations to the closed forms
    divisions = []

    def counting_division(a, c, mul):
        divisions.append(mul)
        return left_div_coords(a, c, mul)

    monkeypatch.setattr(symbolic, "left_div_coords", counting_division)
    table, a, b, c = _generic_triple()
    solved, closed = SymLoopOps(table, mul_coords), SymLoopOps(table)
    assert solved.associator(a, b, c) == closed.associator(a, b, c)
    assert solved.inner_l(a, b, c) == closed.inner_l(a, b, c)
    assert divisions == [mul_coords, mul_coords]
