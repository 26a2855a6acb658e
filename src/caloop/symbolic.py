"""Machine-checked identity catalog for the class-3 loop.

Every universally quantified law the library relies on is re-stated here as
a zero-polynomial claim: both sides of the law are expanded over fully
generic elements (8 fresh variables per element), subtracted
coordinate-wise, and the residuals are tested for structural zero.  A
passing entry is a proof of the law for all integer coordinates, because a
polynomial vanishing identically over the rationals vanishes at every
integer point.

The expansion runs the shipped kernel itself: :func:`caloop.core.mul_coords`,
:func:`caloop.core.left_div_coords`, :func:`caloop.core.mul4_coords` and
:func:`caloop.core.pow_closed_form` are called on tuples of
:class:`~caloop.poly.Polynomial` coordinates, so the catalog proves the code
that the integer, quotient and parser layers run, not a copy of it.  The
``power-*`` entries take the exponent n as one more variable; together they
prove that the closed-form power equals the iterated product for every
integer n.  The entries ``associator-formula``, ``inner-map-formula`` and
``inverse-negation`` prove the closed forms of
:func:`caloop.calculus.assoc_coords`, :func:`caloop.calculus.inner_l_coords`
and :func:`caloop.core.inv_coords` equal to their defining equations, which
:class:`SymLoopOps` solves by left division through its bound product.

``verify_all(product=mutated_product_polys)`` reruns the catalog with a
deliberately mis-coefficiented formula; at least one entry must then fail,
which guards the prover against vacuous passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import poly
from .calculus import assoc_coords, inner_l_coords
from .core import inv_coords, left_div_coords, mul4_coords, mul_coords, pow_closed_form
from .poly import Polynomial, VarTable

__all__ = [
    "SymElem8",
    "SymLoopOps",
    "IdentityReport",
    "mutated_product_polys",
    "catalog_names",
    "describe_identity",
    "verify_identity",
    "verify_all",
]

ProductFn = Callable[[Sequence[Polynomial], Sequence[Polynomial]], tuple]


@dataclass(frozen=True)
class SymElem8:
    """A loop element whose 8 exponent coordinates are polynomials."""

    coords: tuple  # 8 Polynomials over one shared table

    def evaluate(self, point: Sequence[int]) -> tuple:
        """Exact coordinates at an integer point; always integral."""
        out = []
        for p in self.coords:
            v = p.evaluate(point)
            if not isinstance(v, int):
                raise ValueError(f"non-integer coordinate {v} at {point}")
            out.append(v)
        return tuple(out)


def mutated_product_polys(a: Sequence[Polynomial], b: Sequence[Polynomial]) -> tuple:
    """The shipped product :func:`caloop.core.mul_coords` with one coefficient
    deliberately wrong.

    Doubles the u1-correction term feeding the v1 coordinate.  Used only to
    demonstrate that the catalog has teeth.
    """
    c = list(mul_coords(a, b))
    c[4] = c[4] - a[0] * b[0] * (a[2] + b[2])
    return tuple(c)


class SymLoopOps:
    """Loop operations on symbolic elements, bound to one product formula."""

    def __init__(self, table: VarTable, product: Optional[ProductFn] = None):
        self.table = table
        self.product = product or mul_coords

    def constant(self, coords: Sequence[int]) -> SymElem8:
        return SymElem8(tuple(Polynomial.const(self.table, c) for c in coords))

    @property
    def identity(self) -> SymElem8:
        return self.constant((0,) * 8)

    def mul(self, a: SymElem8, b: SymElem8) -> SymElem8:
        return SymElem8(self.product(a.coords, b.coords))

    def mul_many(self, first: SymElem8, *rest: SymElem8) -> SymElem8:
        acc = first
        for f in rest:
            acc = self.mul(acc, f)
        return acc

    def left_divide(self, a: SymElem8, c: SymElem8) -> SymElem8:
        """The unique b with a * b = c, by triangular back-substitution."""
        return SymElem8(left_div_coords(a.coords, c.coords, self.product))

    def inverse(self, a: SymElem8) -> SymElem8:
        return self.left_divide(a, self.identity)

    def power(self, a: SymElem8, n) -> SymElem8:
        """The closed-form power P(n; a); n is an int or a polynomial."""
        return SymElem8(pow_closed_form(a.coords, n))

    def associator(self, a: SymElem8, b: SymElem8, c: SymElem8) -> SymElem8:
        return self.left_divide(
            self.mul(a, self.mul(b, c)), self.mul(self.mul(a, b), c)
        )

    def inner_l(self, a: SymElem8, b: SymElem8, c: SymElem8) -> SymElem8:
        return self.left_divide(self.mul(b, a), self.mul(b, self.mul(a, c)))

    def difference(self, lhs: SymElem8, rhs: SymElem8) -> tuple:
        """Coordinate-wise residuals; all zero iff lhs = rhs as elements."""
        return tuple(lhs.coords[i] - rhs.coords[i] for i in range(8))


def _make_context(layout: Sequence, product: Optional[ProductFn], integers: Sequence = ()):
    """Build a variable table for the requested generic elements.

    `layout` is a sequence of (prefix, pinned) pairs; `pinned` leading
    coordinates are the constant 0 and the rest are fresh variables named
    prefix1..prefix8.  Each name in `integers` adds one more variable, an
    integer such as an exponent, returned after the elements.
    """
    names = []
    for prefix, pinned in layout:
        names.extend(f"{prefix}{i}" for i in range(pinned + 1, 9))
    table = VarTable(tuple(names) + tuple(integers))
    ops = SymLoopOps(table, product)
    elems = []
    k = 0
    for _, pinned in layout:
        coords = [Polynomial.zero(table)] * pinned
        for _ in range(8 - pinned):
            coords.append(Polynomial.var(table, k))
            k += 1
        elems.append(SymElem8(tuple(coords)))
    elems.extend(Polynomial.var(table, k + i) for i in range(len(integers)))
    return ops, elems


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one catalog entry.

    residual_blocks holds the raw residual polynomials (one 8-tuple per
    checked equation); residual_term_counts sums their term counts per
    coordinate, so an entry passes iff every count is zero.
    """

    name: str
    passed: bool
    residual_term_counts: tuple
    max_degree: int
    millis: int
    variables: int
    residual_blocks: tuple = ()

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "residual_term_counts": list(self.residual_term_counts),
            "max_degree": self.max_degree,
            "millis": self.millis,
        }


@dataclass(frozen=True)
class _Entry:
    name: str
    summary: str
    layout: tuple  # ((prefix, pinned_zero_coords), ...)
    build: Callable  # (ops, elems) -> list of residual 8-tuples
    integers: tuple = ()  # names of integer variables, passed after the elements


def _pad(table: VarTable, slots: dict) -> tuple:
    """An 8-tuple of residuals that is zero outside the given slots."""
    zero = Polynomial.zero(table)
    return tuple(slots.get(i, zero) for i in range(8))


def _build_identity_element(ops, elems):
    (a,) = elems
    one = ops.identity
    return [
        ops.difference(ops.mul(a, one), a),
        ops.difference(ops.mul(one, a), a),
    ]


def _build_commutativity(ops, elems):
    a, b = elems
    return [ops.difference(ops.mul(a, b), ops.mul(b, a))]


def _build_division_round_trip(ops, elems):
    a, b = elems
    return [
        ops.difference(ops.left_divide(a, ops.mul(a, b)), b),
        ops.difference(ops.mul(a, ops.left_divide(a, b)), b),
    ]


def _build_aip(ops, elems):
    a, b = elems
    return [
        ops.difference(
            ops.inverse(ops.mul(a, b)), ops.mul(ops.inverse(a), ops.inverse(b))
        )
    ]


def _build_flexibility(ops, elems):
    a, b = elems
    return [ops.difference(ops.associator(a, b, a), ops.identity)]


def _build_reversal(ops, elems):
    a, b, c = elems
    return [
        ops.difference(ops.associator(a, b, c), ops.inverse(ops.associator(c, b, a)))
    ]


def _build_swap_expansion(ops, elems):
    a, b, c = elems
    return [
        ops.difference(
            ops.associator(a, b, c),
            ops.mul(ops.associator(a, c, b), ops.associator(b, a, c)),
        )
    ]


def _build_compounded_reversal(ops, elems):
    a, b, c, d, e = elems
    t = ops.associator(a, b, c)
    return [
        ops.difference(ops.inverse(ops.associator(t, d, e)), ops.associator(e, d, t))
    ]


def _build_compounded_middle_expansion(ops, elems):
    a, b, c, d, e = elems
    w = ops.associator(b, c, d)
    return [
        ops.difference(
            ops.associator(a, w, e),
            ops.mul(ops.associator(a, e, w), ops.associator(w, a, e)),
        )
    ]


def _build_double_mr(ops, elems):
    a, b, c, d, e, f, g = elems
    return [
        ops.difference(
            ops.associator(a, ops.associator(b, c, d), ops.associator(e, f, g)),
            ops.identity,
        )
    ]


def _build_double_lr(ops, elems):
    a, b, c, d, e, f, g = elems
    return [
        ops.difference(
            ops.associator(ops.associator(a, b, c), d, ops.associator(e, f, g)),
            ops.identity,
        )
    ]


def _build_double_lm(ops, elems):
    a, b, c, d, e, f, g = elems
    return [
        ops.difference(
            ops.associator(ops.associator(a, b, c), ops.associator(d, e, f), g),
            ops.identity,
        )
    ]


def _build_inner_map_closed_form(ops, elems):
    a, b, c = elems
    t = ops.associator(a, b, c)
    rhs = ops.mul(ops.mul(a, t), ops.associator(ops.mul(b, c), a, t))
    return [ops.difference(ops.inner_l(b, c, a), rhs)]


def _build_product_expansion_left(ops, elems):
    a, b, c, d = elems
    acd = ops.associator(a, c, d)
    bcd = ops.associator(b, c, d)
    rhs = ops.mul_many(
        acd,
        bcd,
        ops.associator(acd, a, b),
        ops.associator(bcd, b, a),
        ops.associator(acd, b, c),
        ops.associator(bcd, a, c),
        ops.associator(acd, b, d),
        ops.associator(bcd, a, d),
    )
    return [ops.difference(ops.associator(ops.mul(a, b), c, d), rhs)]


def _build_product_expansion_right(ops, elems):
    a, b, c, d = elems
    abc = ops.associator(a, b, c)
    abd = ops.associator(a, b, d)
    rhs = ops.mul_many(
        abc,
        abd,
        ops.associator(abc, c, d),
        ops.associator(abd, d, c),
        ops.associator(abc, d, b),
        ops.associator(abd, c, b),
        ops.associator(abc, d, a),
        ops.associator(abd, c, a),
    )
    return [ops.difference(ops.associator(a, b, ops.mul(c, d)), rhs)]


def _build_product_expansion_middle(ops, elems):
    a, b, c, d = elems
    abd = ops.associator(a, b, d)
    acd = ops.associator(a, c, d)
    rhs = ops.mul_many(
        abd,
        acd,
        ops.associator(abd, b, c),
        ops.associator(acd, c, b),
        ops.associator(abd, c, a),
        ops.associator(acd, b, a),
        ops.associator(abd, c, d),
        ops.associator(acd, b, d),
    )
    return [ops.difference(ops.associator(a, ops.mul(b, c), d), rhs)]


def _build_middle_nucleus_contains(ops, elems):
    a, n, b = elems
    return [ops.difference(ops.associator(a, n, b), ops.identity)]


def _build_middle_nucleus_pins(ops, elems):
    (z,) = elems
    e1 = ops.constant((1, 0, 0, 0, 0, 0, 0, 0))
    e2 = ops.constant((0, 1, 0, 0, 0, 0, 0, 0))
    t = ops.associator(e1, z, e2)
    # (x, z, y) has x- and y-exponent 0 and u-exponents exactly (z1, z2), so
    # membership in {first two coordinates 0} is equivalent to vanishing.
    return [
        _pad(
            ops.table,
            {
                0: t.coords[0],
                1: t.coords[1],
                2: t.coords[2] - z.coords[0],
                3: t.coords[3] - z.coords[1],
            },
        )
    ]


def _central_part_residual(ops, w: SymElem8) -> tuple:
    # central iff the first four coordinates vanish (entries center-*)
    return _pad(ops.table, {i: w.coords[i] for i in range(4)})


def _build_compounded_central_left(ops, elems):
    a, b, c, d, e = elems
    return [_central_part_residual(ops, ops.associator(ops.associator(a, b, c), d, e))]


def _build_compounded_central_middle(ops, elems):
    a, b, c, d, e = elems
    return [_central_part_residual(ops, ops.associator(d, ops.associator(a, b, c), e))]


def _build_compounded_central_right(ops, elems):
    a, b, c, d, e = elems
    return [_central_part_residual(ops, ops.associator(d, e, ops.associator(a, b, c)))]


def _build_center_contains(ops, elems):
    a, b, z = elems
    return [ops.difference(ops.inner_l(a, b, z), z)]


def _build_center_pins(ops, elems):
    (z,) = elems
    e1 = ops.constant((1, 0, 0, 0, 0, 0, 0, 0))
    e2 = ops.constant((0, 1, 0, 0, 0, 0, 0, 0))
    # (x, x, z) has u1-exponent z2; (y, y, z) has u2-exponent -z1; and once
    # z1 = z2 = 0, (x, x, z) reduces to v1^z3 v2^z4.  An element fixed by
    # every inner mapping kills all three associators, forcing z1..z4 = 0;
    # with center-contains this pins the center to 0 x 0 x 0 x 0 x Z^4.
    txx = ops.associator(e1, e1, z)
    tyy = ops.associator(e2, e2, z)
    blocks = [
        _pad(ops.table, {2: txx.coords[2] - z.coords[1]}),
        _pad(ops.table, {3: tyy.coords[3] + z.coords[0]}),
    ]
    restricted = SymElem8(tuple(p.substitute({0: 0, 1: 0}) for p in txx.coords))
    expected = {4: z.coords[2], 5: z.coords[3]}
    blocks.append(
        tuple(
            restricted.coords[i] - expected.get(i, Polynomial.zero(ops.table))
            for i in range(8)
        )
    )
    return blocks


def _build_projection_homomorphism(ops, elems):
    a, b = elems
    m = ops.mul(a, b)
    f2 = mul4_coords(a.coords[:4], b.coords[:4])
    return [_pad(ops.table, {i: m.coords[i] - f2[i] for i in range(4)})]


def _build_l_automorphism(ops, elems):
    a, b, c, d = elems
    lhs = ops.inner_l(a, b, ops.mul(c, d))
    rhs = ops.mul(ops.inner_l(a, b, c), ops.inner_l(a, b, d))
    return [ops.difference(lhs, rhs)]


def _build_power_zero(ops, elems):
    (a,) = elems
    return [ops.difference(ops.power(a, 0), ops.identity)]


def _build_power_recurrence(ops, elems):
    a, n = elems
    return [ops.difference(ops.power(a, n + 1), ops.mul(ops.power(a, n), a))]


def _build_power_negation(ops, elems):
    a, n = elems
    return [ops.difference(ops.power(a, -n), ops.power(ops.inverse(a), n))]


def _build_associator_formula(ops, elems):
    a, b, c = elems
    closed = SymElem8(assoc_coords(a.coords, b.coords, c.coords))
    return [ops.difference(closed, ops.associator(a, b, c))]


def _build_inner_map_formula(ops, elems):
    a, b, c = elems
    closed = SymElem8(inner_l_coords(a.coords, b.coords, c.coords))
    return [ops.difference(closed, ops.inner_l(a, b, c))]


def _build_inverse_negation(ops, elems):
    (a,) = elems
    return [ops.difference(SymElem8(inv_coords(a.coords)), ops.inverse(a))]


def _g(*prefixes: str, pins: dict = {}) -> tuple:
    return tuple((p, pins.get(p, 0)) for p in prefixes)


_CATALOG = [
    _Entry(
        "identity-element",
        "a * 1 = a = 1 * a",
        _g("a"),
        _build_identity_element,
    ),
    _Entry("commutativity", "a * b = b * a", _g("a", "b"), _build_commutativity),
    _Entry(
        "division-round-trip",
        "a \\ (a * b) = b and a * (a \\ b) = b",
        _g("a", "b"),
        _build_division_round_trip,
    ),
    _Entry("aip", "(a * b)^-1 = a^-1 * b^-1", _g("a", "b"), _build_aip),
    _Entry("flexibility", "(a, b, a) = 1", _g("a", "b"), _build_flexibility),
    _Entry(
        "reversal",
        "(a, b, c) = (c, b, a)^-1",
        _g("a", "b", "c"),
        _build_reversal,
    ),
    _Entry(
        "swap-expansion",
        "(a, b, c) = (a, c, b) * (b, a, c)",
        _g("a", "b", "c"),
        _build_swap_expansion,
    ),
    _Entry(
        "compounded-reversal",
        "((a,b,c), d, e)^-1 = (e, d, (a,b,c))",
        _g("a", "b", "c", "d", "e"),
        _build_compounded_reversal,
    ),
    _Entry(
        "compounded-middle-expansion",
        "(a, (b,c,d), e) = (a, e, (b,c,d)) * ((b,c,d), a, e)",
        _g("a", "b", "c", "d", "e"),
        _build_compounded_middle_expansion,
    ),
    _Entry(
        "double-compounded-middle-right",
        "(a, (b,c,d), (e,f,g)) = 1",
        _g("a", "b", "c", "d", "e", "f", "g"),
        _build_double_mr,
    ),
    _Entry(
        "double-compounded-left-right",
        "((a,b,c), d, (e,f,g)) = 1",
        _g("a", "b", "c", "d", "e", "f", "g"),
        _build_double_lr,
    ),
    _Entry(
        "double-compounded-left-middle",
        "((a,b,c), (d,e,f), g) = 1",
        _g("a", "b", "c", "d", "e", "f", "g"),
        _build_double_lm,
    ),
    _Entry(
        "inner-map-closed-form",
        "L_{b,c}(a) = (a * (a,b,c)) * (bc, a, (a,b,c))",
        _g("a", "b", "c"),
        _build_inner_map_closed_form,
    ),
    _Entry(
        "product-expansion-left",
        "(ab, c, d) expands into associators and compounded corrections",
        _g("a", "b", "c", "d"),
        _build_product_expansion_left,
    ),
    _Entry(
        "product-expansion-right",
        "(a, b, cd) expands into associators and compounded corrections",
        _g("a", "b", "c", "d"),
        _build_product_expansion_right,
    ),
    _Entry(
        "product-expansion-middle",
        "(a, bc, d) expands into associators and compounded corrections",
        _g("a", "b", "c", "d"),
        _build_product_expansion_middle,
    ),
    _Entry(
        "middle-nucleus-contains",
        "(a, n, b) = 1 for every n with zero generator exponents",
        _g("a", "n", "b", pins={"n": 2}),
        _build_middle_nucleus_contains,
    ),
    _Entry(
        "middle-nucleus-pins",
        "(x, z, y) vanishes only if z has zero generator exponents",
        _g("z"),
        _build_middle_nucleus_pins,
    ),
    _Entry(
        "compounded-central-left",
        "((a,b,c), d, e) lies in 0x0x0x0xZ^4",
        _g("a", "b", "c", "d", "e"),
        _build_compounded_central_left,
    ),
    _Entry(
        "compounded-central-middle",
        "(d, (a,b,c), e) lies in 0x0x0x0xZ^4",
        _g("a", "b", "c", "d", "e"),
        _build_compounded_central_middle,
    ),
    _Entry(
        "compounded-central-right",
        "(d, e, (a,b,c)) lies in 0x0x0x0xZ^4",
        _g("a", "b", "c", "d", "e"),
        _build_compounded_central_right,
    ),
    _Entry(
        "center-contains",
        "every element of 0x0x0x0xZ^4 is fixed by every inner mapping",
        _g("a", "b", "z", pins={"z": 4}),
        _build_center_contains,
    ),
    _Entry(
        "center-pins",
        "an element fixed by all inner mappings has zero first four coordinates",
        _g("z"),
        _build_center_pins,
    ),
    _Entry(
        "projection-homomorphism",
        "truncation to 4 coordinates is a homomorphism onto the class-2 loop",
        _g("a", "b"),
        _build_projection_homomorphism,
    ),
    _Entry(
        "L-automorphism",
        "L_{a,b}(c * d) = L_{a,b}(c) * L_{a,b}(d)",
        _g("a", "b", "c", "d"),
        _build_l_automorphism,
    ),
    _Entry("power-zero", "a^0 = 1", _g("a"), _build_power_zero),
    _Entry(
        "power-recurrence",
        "a^(n+1) = a^n * a for the closed-form power a^n",
        _g("a"),
        _build_power_recurrence,
        integers=("n",),
    ),
    _Entry(
        "power-negation",
        "a^-n = (a^-1)^n for the closed-form power a^n",
        _g("a"),
        _build_power_negation,
        integers=("n",),
    ),
    _Entry(
        "associator-formula",
        "the closed-form associator (a, b, c) solves (a * (b * c)) * t = (a * b) * c",
        _g("a", "b", "c"),
        _build_associator_formula,
    ),
    _Entry(
        "inner-map-formula",
        "the closed-form L_{a,b}(c) solves (b * a) * z = b * (a * c)",
        _g("a", "b", "c"),
        _build_inner_map_formula,
    ),
    _Entry("inverse-negation", "-a = a \\ 1", _g("a"), _build_inverse_negation),
]

_BY_NAME = {entry.name: entry for entry in _CATALOG}


def catalog_names() -> list:
    return [entry.name for entry in _CATALOG]


def describe_identity(name: str) -> str:
    return _lookup(name).summary


def _lookup(name: str) -> _Entry:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(catalog_names())
        raise ValueError(f"unknown identity {name!r}; known identities: {known}") from None


def verify_identity(name: str, product: Optional[ProductFn] = None) -> IdentityReport:
    """Expand one named identity over generic elements and report residuals."""
    entry = _lookup(name)
    poly.reset_stats()
    start = time.perf_counter()
    ops, elems = _make_context(entry.layout, product, entry.integers)
    blocks = entry.build(ops, elems)
    millis = int((time.perf_counter() - start) * 1000)
    max_degree, _ = poly.peak_stats()
    counts = [0] * 8
    for block in blocks:
        for i, residual in enumerate(block):
            counts[i] += len(residual.terms)
    return IdentityReport(
        name=entry.name,
        passed=all(c == 0 for c in counts),
        residual_term_counts=tuple(counts),
        max_degree=max_degree,
        millis=millis,
        variables=len(ops.table),
        residual_blocks=tuple(tuple(block) for block in blocks),
    )


def verify_all(product: Optional[ProductFn] = None) -> list:
    """Run the whole catalog in registration order."""
    return [verify_identity(entry.name, product) for entry in _CATALOG]
