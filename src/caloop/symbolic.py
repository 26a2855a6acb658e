"""Machine-checked identity catalog for the class-3 loop.

Every universally quantified law the library relies on is re-stated here as
a zero-polynomial claim: both sides of the law are expanded over fully
generic elements (8 fresh variables per element), subtracted
coordinate-wise, and the residuals are tested for structural zero.  A
passing entry is a proof of the law for all integer coordinates, because a
polynomial vanishing identically over the rationals vanishes at every
integer point.

A generic element is a plain 8-tuple of :class:`~caloop.poly.Polynomial`
coordinates, and the expansion runs the shipped kernel itself on it:
:func:`caloop.core.mul_coords`, :func:`caloop.core.left_div_coords`,
:func:`caloop.core.mul4_coords` and :func:`caloop.core.pow_closed_form` are
called on those tuples, so the catalog proves the code that the integer,
quotient and parser layers run, not a copy of it.  A law that comes in a
left, middle and right form is written once, for a slot of the associator,
and registered once per slot.  The
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
    "SymLoopOps",
    "IdentityReport",
    "mutated_product_polys",
    "catalog_names",
    "describe_identity",
    "verify_identity",
    "verify_all",
]

ProductFn = Callable[[Sequence[Polynomial], Sequence[Polynomial]], tuple]


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
    """Loop operations on 8-tuples of polynomials, bound to one product formula."""

    def __init__(self, table: VarTable, product: Optional[ProductFn] = None):
        self.table = table
        self.product = product or mul_coords

    def constant(self, coords: Sequence[int]) -> tuple:
        return tuple(Polynomial.const(self.table, c) for c in coords)

    @property
    def identity(self) -> tuple:
        return self.constant((0,) * 8)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return self.product(a, b)

    def mul_many(self, first: tuple, *rest: tuple) -> tuple:
        acc = first
        for f in rest:
            acc = self.mul(acc, f)
        return acc

    def left_divide(self, a: tuple, c: tuple) -> tuple:
        """The unique b with a * b = c, by triangular back-substitution."""
        return left_div_coords(a, c, self.product)

    def inverse(self, a: tuple) -> tuple:
        return self.left_divide(a, self.identity)

    def power(self, a: tuple, n) -> tuple:
        """The closed-form power P(n; a); n is an int or a polynomial."""
        return pow_closed_form(a, n)

    def associator(self, a: tuple, b: tuple, c: tuple) -> tuple:
        return self.left_divide(
            self.mul(a, self.mul(b, c)), self.mul(self.mul(a, b), c)
        )

    def inner_l(self, a: tuple, b: tuple, c: tuple) -> tuple:
        return self.left_divide(self.mul(b, a), self.mul(b, self.mul(a, c)))

    def difference(self, lhs: tuple, rhs: tuple) -> tuple:
        """Coordinate-wise residuals; all zero iff lhs = rhs as elements."""
        return tuple(lhs[i] - rhs[i] for i in range(8))


def _make_context(layout: Sequence, product: Optional[ProductFn], integers: Sequence = ()):
    """Build a variable table for the requested generic elements.

    `layout` is a sequence of (prefix, pinned) pairs; `pinned` leading
    coordinates are the constant 0 and the rest are fresh variables named
    prefix1..prefix8.  Each element is an 8-tuple of polynomials.  Each name
    in `integers` adds one more variable, an integer such as an exponent,
    returned after the elements.
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
        elems.append(tuple(coords))
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


def _place(pair: Sequence, slot: int, w) -> tuple:
    """The three associator arguments with w in `slot` (0, 1 or 2) and the
    two of `pair` filling the other slots in order."""
    return (*pair[:slot], w, *pair[slot:])


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


def _double_compounded(slot: int) -> Callable:
    """The associator with the plain element w in `slot` and two associators
    in the other slots is 1; the variables are read in the written order."""

    def build(ops, elems):
        w = elems[3 * slot]
        rest = elems[:3 * slot] + elems[3 * slot + 1:]
        pair = (ops.associator(*rest[:3]), ops.associator(*rest[3:]))
        return [ops.difference(ops.associator(*_place(pair, slot, w)), ops.identity)]

    return build


def _build_inner_map_closed_form(ops, elems):
    a, b, c = elems
    t = ops.associator(a, b, c)
    rhs = ops.mul(ops.mul(a, t), ops.associator(ops.mul(b, c), a, t))
    return [ops.difference(ops.inner_l(b, c, a), rhs)]


def _product_expansion(slot: int) -> Callable:
    """The associator with the product x * y in `slot` and p, q in the other
    slots in order, expanded through X and Y, the associators with x and y in
    that slot:  X * Y * (X, x, y) * (Y, y, x) * (X, y, p) * (Y, x, p) *
    (X, y, q) * (Y, x, q), multiplied from the left."""

    def build(ops, elems):
        x, y = elems[slot:slot + 2]
        pair = elems[:slot] + elems[slot + 2:]
        p, q = pair
        ax = ops.associator(*_place(pair, slot, x))
        ay = ops.associator(*_place(pair, slot, y))
        rhs = ops.mul_many(
            ax,
            ay,
            ops.associator(ax, x, y),
            ops.associator(ay, y, x),
            ops.associator(ax, y, p),
            ops.associator(ay, x, p),
            ops.associator(ax, y, q),
            ops.associator(ay, x, q),
        )
        return [ops.difference(ops.associator(*_place(pair, slot, ops.mul(x, y))), rhs)]

    return build


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
    return [_pad(ops.table, {0: t[0], 1: t[1], 2: t[2] - z[0], 3: t[3] - z[1]})]


def _compounded_central(slot: int) -> Callable:
    """The associator with (a, b, c) in `slot` and d, e in the other slots
    in order is central: its first four coordinates vanish (entries center-*)."""

    def build(ops, elems):
        a, b, c, d, e = elems
        w = ops.associator(*_place((d, e), slot, ops.associator(a, b, c)))
        return [_pad(ops.table, {i: w[i] for i in range(4)})]

    return build


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
    zero = Polynomial.zero(ops.table)
    z0 = (zero, zero) + z[2:]  # z with z1 = z2 = 0
    return [
        _pad(ops.table, {2: txx[2] - z[1]}),
        _pad(ops.table, {3: tyy[3] + z[0]}),
        ops.difference(ops.associator(e1, e1, z0), _pad(ops.table, {4: z[2], 5: z[3]})),
    ]


def _build_projection_homomorphism(ops, elems):
    a, b = elems
    m = ops.mul(a, b)
    f2 = mul4_coords(a[:4], b[:4])
    return [_pad(ops.table, {i: m[i] - f2[i] for i in range(4)})]


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
    return [ops.difference(assoc_coords(a, b, c), ops.associator(a, b, c))]


def _build_inner_map_formula(ops, elems):
    a, b, c = elems
    return [ops.difference(inner_l_coords(a, b, c), ops.inner_l(a, b, c))]


def _build_inverse_negation(ops, elems):
    (a,) = elems
    return [ops.difference(inv_coords(a), ops.inverse(a))]


def _g(*prefixes: str, pins: Optional[dict] = None) -> tuple:
    pins = pins or {}
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
        _double_compounded(0),
    ),
    _Entry(
        "double-compounded-left-right",
        "((a,b,c), d, (e,f,g)) = 1",
        _g("a", "b", "c", "d", "e", "f", "g"),
        _double_compounded(1),
    ),
    _Entry(
        "double-compounded-left-middle",
        "((a,b,c), (d,e,f), g) = 1",
        _g("a", "b", "c", "d", "e", "f", "g"),
        _double_compounded(2),
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
        _product_expansion(0),
    ),
    _Entry(
        "product-expansion-right",
        "(a, b, cd) expands into associators and compounded corrections",
        _g("a", "b", "c", "d"),
        _product_expansion(2),
    ),
    _Entry(
        "product-expansion-middle",
        "(a, bc, d) expands into associators and compounded corrections",
        _g("a", "b", "c", "d"),
        _product_expansion(1),
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
        _compounded_central(0),
    ),
    _Entry(
        "compounded-central-middle",
        "(d, (a,b,c), e) lies in 0x0x0x0xZ^4",
        _g("a", "b", "c", "d", "e"),
        _compounded_central(1),
    ),
    _Entry(
        "compounded-central-right",
        "(d, e, (a,b,c)) lies in 0x0x0x0xZ^4",
        _g("a", "b", "c", "d", "e"),
        _compounded_central(2),
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
