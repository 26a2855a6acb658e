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
:func:`caloop.core.mul4_coords`, :func:`caloop.core.inv_coords` and
:func:`caloop.core.pow_closed_form` are called on those tuples, so the
catalog proves the code that the integer, quotient and parser layers run,
not a copy of it.  Each law is declared once, by the ``@_law`` decorator on
its builder; a law that comes in a left, middle and right form is written
once, for a slot of the associator, and registered once per slot.  The
``power-*`` entries take the exponent n as one more variable; together they
prove that the closed-form power equals the iterated product for every
integer n.  The entries ``associator-formula`` and ``inner-map-formula``
prove the closed forms of :func:`caloop.calculus.assoc_coords` and
:func:`caloop.calculus.inner_l_coords` equal to their defining equations,
which :class:`SymLoopOps` solves by left division through its bound
product.  The inverse laws (``aip``, ``reversal``, ``compounded-reversal``,
``power-negation``) are proved about the shipped inverse
:func:`caloop.core.inv_coords`, and ``inverse-negation`` states
a * (-a) = 1 with products only; with ``division-round-trip`` it shows
that -a = a \\ 1.

``verify_all(product=mutated_product_polys)`` reruns the catalog with a
deliberately mis-coefficiented formula; at least one entry must then fail,
which guards the prover against vacuous passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
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
    """Loop operations on 8-tuples of polynomials, bound to one product formula.

    Only the operations that run the product live here, so that the mutation
    run reaches them; the builders call the closed-form inverse and power of
    :mod:`caloop.core` directly.
    """

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

    def left_divide(self, a: tuple, c: tuple) -> tuple:
        """The unique b with a * b = c, by triangular back-substitution."""
        return left_div_coords(a, c, self.product)

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
    build: Callable  # (ops, *elements, *integers) -> list of residual 8-tuples
    integers: tuple = ()  # names of integer variables, passed after the elements


# every entry, in registration order, which is the order of `verify --json`
_CATALOG: dict = {}


def _law(name: str, summary: str, elements: str, pins: Optional[dict] = None,
         integers: str = "") -> Callable:
    """Register the decorated builder as the catalog entry `name`.

    `elements` names the generic elements, one space-separated prefix each,
    which the builder takes in that order after `ops`; `pins` maps a prefix
    to its number of leading coordinates pinned to 0.  Each name in
    `integers` is one more integer variable, passed after the elements.
    """
    pins = pins or {}
    layout = tuple((p, pins.get(p, 0)) for p in elements.split())

    def register(build: Callable) -> Callable:
        _CATALOG[name] = _Entry(name, summary, layout, build, tuple(integers.split()))
        return build

    return register


def _pad(table: VarTable, slots: dict) -> tuple:
    """An 8-tuple of residuals that is zero outside the given slots."""
    zero = Polynomial.zero(table)
    return tuple(slots.get(i, zero) for i in range(8))


def _place(pair: Sequence, slot: int, w) -> tuple:
    """The three associator arguments with w in `slot` (0, 1 or 2) and the
    two of `pair` filling the other slots in order."""
    return (*pair[:slot], w, *pair[slot:])


@_law("identity-element", "a * 1 = a = 1 * a", "a")
def _build_identity_element(ops, a):
    one = ops.identity
    return [
        ops.difference(ops.mul(a, one), a),
        ops.difference(ops.mul(one, a), a),
    ]


@_law("commutativity", "a * b = b * a", "a b")
def _build_commutativity(ops, a, b):
    return [ops.difference(ops.mul(a, b), ops.mul(b, a))]


@_law("division-round-trip", "a \\ (a * b) = b and a * (a \\ b) = b", "a b")
def _build_division_round_trip(ops, a, b):
    return [
        ops.difference(ops.left_divide(a, ops.mul(a, b)), b),
        ops.difference(ops.mul(a, ops.left_divide(a, b)), b),
    ]


@_law("aip", "(a * b)^-1 = a^-1 * b^-1", "a b")
def _build_aip(ops, a, b):
    return [ops.difference(inv_coords(ops.mul(a, b)), ops.mul(inv_coords(a), inv_coords(b)))]


@_law("flexibility", "(a, b, a) = 1", "a b")
def _build_flexibility(ops, a, b):
    return [ops.difference(ops.associator(a, b, a), ops.identity)]


@_law("reversal", "(a, b, c) = (c, b, a)^-1", "a b c")
def _build_reversal(ops, a, b, c):
    return [ops.difference(ops.associator(a, b, c), inv_coords(ops.associator(c, b, a)))]


@_law("swap-expansion", "(a, b, c) = (a, c, b) * (b, a, c)", "a b c")
def _build_swap_expansion(ops, a, b, c):
    return [
        ops.difference(
            ops.associator(a, b, c),
            ops.mul(ops.associator(a, c, b), ops.associator(b, a, c)),
        )
    ]


@_law("compounded-reversal", "((a,b,c), d, e)^-1 = (e, d, (a,b,c))", "a b c d e")
def _build_compounded_reversal(ops, a, b, c, d, e):
    t = ops.associator(a, b, c)
    return [ops.difference(inv_coords(ops.associator(t, d, e)), ops.associator(e, d, t))]


@_law("compounded-middle-expansion",
      "(a, (b,c,d), e) = (a, e, (b,c,d)) * ((b,c,d), a, e)", "a b c d e")
def _build_compounded_middle_expansion(ops, a, b, c, d, e):
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

    def build(ops, *elems):
        w = elems[3 * slot]
        rest = elems[:3 * slot] + elems[3 * slot + 1:]
        pair = (ops.associator(*rest[:3]), ops.associator(*rest[3:]))
        return [ops.difference(ops.associator(*_place(pair, slot, w)), ops.identity)]

    return build


_law("double-compounded-middle-right", "(a, (b,c,d), (e,f,g)) = 1",
     "a b c d e f g")(_double_compounded(0))
_law("double-compounded-left-right", "((a,b,c), d, (e,f,g)) = 1",
     "a b c d e f g")(_double_compounded(1))
_law("double-compounded-left-middle", "((a,b,c), (d,e,f), g) = 1",
     "a b c d e f g")(_double_compounded(2))


@_law("inner-map-closed-form", "L_{b,c}(a) = (a * (a,b,c)) * (bc, a, (a,b,c))", "a b c")
def _build_inner_map_closed_form(ops, a, b, c):
    t = ops.associator(a, b, c)
    rhs = ops.mul(ops.mul(a, t), ops.associator(ops.mul(b, c), a, t))
    return [ops.difference(ops.inner_l(b, c, a), rhs)]


def _product_expansion(slot: int) -> Callable:
    """The associator with the product x * y in `slot` and p, q in the other
    slots in order, expanded through X and Y, the associators with x and y in
    that slot:  X * Y * (X, x, y) * (Y, y, x) * (X, y, p) * (Y, x, p) *
    (X, y, q) * (Y, x, q), multiplied from the left."""

    def build(ops, *elems):
        x, y = elems[slot:slot + 2]
        pair = elems[:slot] + elems[slot + 2:]
        p, q = pair
        ax = ops.associator(*_place(pair, slot, x))
        ay = ops.associator(*_place(pair, slot, y))
        rhs = reduce(ops.mul, (
            ax,
            ay,
            ops.associator(ax, x, y),
            ops.associator(ay, y, x),
            ops.associator(ax, y, p),
            ops.associator(ay, x, p),
            ops.associator(ax, y, q),
            ops.associator(ay, x, q),
        ))
        return [ops.difference(ops.associator(*_place(pair, slot, ops.mul(x, y))), rhs)]

    return build


_law("product-expansion-left",
     "(ab, c, d) expands into associators and compounded corrections",
     "a b c d")(_product_expansion(0))
_law("product-expansion-right",
     "(a, b, cd) expands into associators and compounded corrections",
     "a b c d")(_product_expansion(2))
_law("product-expansion-middle",
     "(a, bc, d) expands into associators and compounded corrections",
     "a b c d")(_product_expansion(1))


@_law("middle-nucleus-contains", "(a, n, b) = 1 for every n with zero generator exponents",
      "a n b", pins={"n": 2})
def _build_middle_nucleus_contains(ops, a, n, b):
    return [ops.difference(ops.associator(a, n, b), ops.identity)]


@_law("middle-nucleus-pins", "(x, z, y) vanishes only if z has zero generator exponents", "z")
def _build_middle_nucleus_pins(ops, z):
    e1 = ops.constant((1, 0, 0, 0, 0, 0, 0, 0))
    e2 = ops.constant((0, 1, 0, 0, 0, 0, 0, 0))
    t = ops.associator(e1, z, e2)
    # (x, z, y) has x- and y-exponent 0 and u-exponents exactly (z1, z2), so
    # membership in {first two coordinates 0} is equivalent to vanishing.
    return [_pad(ops.table, {0: t[0], 1: t[1], 2: t[2] - z[0], 3: t[3] - z[1]})]


def _compounded_central(slot: int) -> Callable:
    """The associator with (a, b, c) in `slot` and d, e in the other slots
    in order is central: its first four coordinates vanish (entries center-*)."""

    def build(ops, a, b, c, d, e):
        w = ops.associator(*_place((d, e), slot, ops.associator(a, b, c)))
        return [_pad(ops.table, {i: w[i] for i in range(4)})]

    return build


_law("compounded-central-left", "((a,b,c), d, e) lies in 0x0x0x0xZ^4",
     "a b c d e")(_compounded_central(0))
_law("compounded-central-middle", "(d, (a,b,c), e) lies in 0x0x0x0xZ^4",
     "a b c d e")(_compounded_central(1))
_law("compounded-central-right", "(d, e, (a,b,c)) lies in 0x0x0x0xZ^4",
     "a b c d e")(_compounded_central(2))


@_law("center-contains", "every element of 0x0x0x0xZ^4 is fixed by every inner mapping",
      "a b z", pins={"z": 4})
def _build_center_contains(ops, a, b, z):
    return [ops.difference(ops.inner_l(a, b, z), z)]


@_law("center-pins", "an element fixed by all inner mappings has zero first four coordinates",
      "z")
def _build_center_pins(ops, z):
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


@_law("projection-homomorphism",
      "truncation to 4 coordinates is a homomorphism onto the class-2 loop", "a b")
def _build_projection_homomorphism(ops, a, b):
    m = ops.mul(a, b)
    f2 = mul4_coords(a[:4], b[:4])
    return [_pad(ops.table, {i: m[i] - f2[i] for i in range(4)})]


@_law("L-automorphism", "L_{a,b}(c * d) = L_{a,b}(c) * L_{a,b}(d)", "a b c d")
def _build_l_automorphism(ops, a, b, c, d):
    lhs = ops.inner_l(a, b, ops.mul(c, d))
    rhs = ops.mul(ops.inner_l(a, b, c), ops.inner_l(a, b, d))
    return [ops.difference(lhs, rhs)]


@_law("power-zero", "a^0 = 1", "a")
def _build_power_zero(ops, a):
    return [ops.difference(pow_closed_form(a, 0), ops.identity)]


@_law("power-recurrence", "a^(n+1) = a^n * a for the closed-form power a^n", "a",
      integers="n")
def _build_power_recurrence(ops, a, n):
    return [ops.difference(pow_closed_form(a, n + 1), ops.mul(pow_closed_form(a, n), a))]


@_law("power-negation", "a^-n = (a^-1)^n for the closed-form power a^n", "a", integers="n")
def _build_power_negation(ops, a, n):
    return [ops.difference(pow_closed_form(a, -n), pow_closed_form(inv_coords(a), n))]


@_law("associator-formula",
      "the closed-form associator (a, b, c) solves (a * (b * c)) * t = (a * b) * c", "a b c")
def _build_associator_formula(ops, a, b, c):
    return [ops.difference(assoc_coords(a, b, c), ops.associator(a, b, c))]


@_law("inner-map-formula", "the closed-form L_{a,b}(c) solves (b * a) * z = b * (a * c)",
      "a b c")
def _build_inner_map_formula(ops, a, b, c):
    return [ops.difference(inner_l_coords(a, b, c), ops.inner_l(a, b, c))]


@_law("inverse-negation", "a * (-a) = 1", "a")
def _build_inverse_negation(ops, a):
    return [ops.difference(ops.mul(a, inv_coords(a)), ops.identity)]


def catalog_names() -> list:
    return list(_CATALOG)


def describe_identity(name: str) -> str:
    return _lookup(name).summary


def _lookup(name: str) -> _Entry:
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(catalog_names())
        raise ValueError(f"unknown identity {name!r}; known identities: {known}") from None


def verify_identity(name: str, product: Optional[ProductFn] = None) -> IdentityReport:
    """Expand one named identity over generic elements and report residuals."""
    entry = _lookup(name)
    poly.reset_stats()
    start = time.perf_counter()
    ops, elems = _make_context(entry.layout, product, entry.integers)
    blocks = entry.build(ops, *elems)
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
    return [verify_identity(name, product) for name in _CATALOG]
