"""Machine-checked identity catalog for the class-3 loop.

Every universally quantified law the library relies on is re-stated here as
a zero-polynomial claim: both sides of the law are expanded over fully
generic elements (8 fresh variables per element), subtracted
coordinate-wise, and the residuals are tested for structural zero.  A
passing entry is a proof of the law for all integer coordinates, because a
polynomial vanishing identically over the rationals vanishes at every
integer point.

A generic element is a plain 8-tuple of :class:`~caloop.poly.Polynomial`
coordinates, and the expansion runs the shipped kernel itself on it (the
product, division, inverse and power of :mod:`caloop.core`), so the
catalog proves the code that the integer, quotient and parser layers run,
not a copy of it.

Each law is declared once.  An equation is one law text in the word
grammar of :mod:`caloop.words` over the law's variables, such as
``innL(a, b, c * d) = innL(a, b, c) * innL(a, b, d)``; it is both the
entry's summary and what is expanded.  A law text may also name the
generators ``x``, ``y``, ``u1`` ... ``v4``, which expand as constants.
Laws and loop words share one walker, ``caloop.words._value``, which keeps
no values: words run on the integer kernel, and laws on
:class:`SymLoopOps`, bound to one product, whose leaves are the law's
generic elements, looked up by name.  For the shipped product, ``assoc``
and ``innL`` are the closed forms :func:`caloop.calculus.assoc_coords` and
:func:`caloop.calculus.inner_l_coords`, so each law is proved about the
code that ships; for any other product, such as the mutation run's, they
solve their defining equations by left division through it, so that run
reaches products, ``ldiv``, ``assoc`` and ``innL`` alike.  The entries
that compare selected coordinates or need exponent arithmetic keep a
builder under ``@_law``.  The ``power-*`` entries take the exponent n as
one more variable; together they prove that the closed-form power equals
the iterated product for every integer n.  ``associator-formula`` and
``inner-map-formula`` state with products only that the closed forms
solve their defining equations, (a * (b * c)) * t = (a * b) * c and
(b * a) * z = b * (a * c); ``division-round-trip`` makes each solution
unique, and so the three entries license the closed forms as the shipped
product's ``assoc`` and ``innL``.  ``inverse-negation`` states
a * inv(a) = 1 with products only; with ``division-round-trip`` it shows
that inv(a) = ldiv(a, 1).
``central-coordinates`` proves that coordinates 5-8 of the factors only
add into the product's, the lemma that
:meth:`caloop.quotient.QuotientLoop.product_table` is built on.

One :func:`verify_all` run builds one kernel per variable table: the
entries of one layout run together, on one set of generic elements and one
:class:`SymLoopOps`, handed to each through one context variable and
dropped when they are done.  Its product, associator, inner map and left
division share one memo, keyed on the operation and the identity of the
operand tuples, for operands that are generic elements or earlier
memoized products (hash-consing, after Filliâtre & Conchon, *Type-safe
modular hash-consing*, ML Workshop 2006), so a value that several
entries, or one law's two sides, form is expanded once.  It is the
catalog's only memo.  Only products join the kept operands: a
product formed on an associator, inner map or quotient is expanded each
time, which holds the mutation run's traced peak near 1.2 MiB.  A memo
hit raises :func:`caloop.poly.peak_stats` by the peak of the first
expansion, so every report but its ``millis`` equals that of
:func:`verify_identity` on the entry alone.  The kernel is in no
reference cycle, so each group's kernel and memo are freed when the group
is done, without the cyclic garbage collector.

``verify_all(product=mutated_product_polys)`` reruns the catalog with a
deliberately mis-coefficiented formula; at least one entry must then fail,
which guards the prover against vacuous passes.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import poly
from .calculus import _SLOT_NAMES, _place, assoc_coords, inner_l_coords
from .core import inv_coords, left_div_coords, mul4_coords, mul_coords, pow_closed_form
from .poly import Polynomial, VarTable
from .words import _IntKernel, _value, parse_with_warnings

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


def _product(ops: "SymLoopOps", a: tuple, b: tuple) -> tuple:
    return ops.product(a, b)


def _left_divide(ops: "SymLoopOps", a: tuple, c: tuple) -> tuple:
    return left_div_coords(a, c, ops.product)


def _closed_associator(ops: "SymLoopOps", a: tuple, b: tuple, c: tuple) -> tuple:
    return ops._lift(assoc_coords(a, b, c))


def _closed_inner_l(ops: "SymLoopOps", a: tuple, b: tuple, c: tuple) -> tuple:
    return ops._lift(inner_l_coords(a, b, c))


def _divided_associator(ops: "SymLoopOps", a: tuple, b: tuple, c: tuple) -> tuple:
    """The t with (a * (b * c)) * t = (a * b) * c, by left division."""
    return ops.left_divide(ops.mul(a, ops.mul(b, c)), ops.mul(ops.mul(a, b), c))


def _divided_inner_l(ops: "SymLoopOps", a: tuple, b: tuple, c: tuple) -> tuple:
    """The z with (b * a) * z = b * (a * c), by left division."""
    return ops.left_divide(ops.mul(b, a), ops.mul(b, ops.mul(a, c)))


class SymLoopOps:
    """Loop operations on 8-tuples of polynomials, bound to one product formula.

    The kernel that laws are walked on: the product, left division, the
    associator and the inner map, and the walker's constants and bound.
    Built with ``product=None``, it binds the shipped
    :func:`caloop.core.mul_coords`, and its associator and inner map are
    the closed forms of :mod:`caloop.calculus`, which form no product.
    Bound to a caller's product, such as the mutation run's, it solves
    their defining equations by left division through that product, the
    only path that holds for a product with no proved closed form.
    Inverses and powers are the closed forms of :mod:`caloop.core`.
    """

    def __init__(self, table: VarTable, product: Optional[ProductFn] = None):
        self.table = table
        self.product = product or mul_coords
        # module functions, not bound methods, so that the kernel is in no
        # reference cycle; associator-formula and inner-map-formula prove
        # that the shipped product's closed forms solve the equations that
        # the division path solves for any other product
        closed = product is None
        self._associator = _closed_associator if closed else _divided_associator
        self._inner_l = _closed_inner_l if closed else _divided_inner_l
        # the generic elements by name, the leaves that laws name (see
        # _make_context)
        self._leaves: dict = {}
        # The tuples the memo may key on, by id: the generic elements and the
        # products of them.  Each stays alive here, so no id in a key is reused.
        self._kept: dict = {}
        # (operation, id of each operand) -> (result, poly peak stats of its expansion)
        self._results: dict = {}

    def constant(self, coords: Sequence[int]) -> tuple:
        return tuple(Polynomial.const(self.table, c) for c in coords)

    def generator(self, name: str) -> tuple:
        """The generic element `name`, or else the constant generator `name`."""
        leaf = self._leaves.get(name)
        return leaf if leaf is not None else self.constant(_IntKernel.generator(name))

    def bound(self, value: tuple) -> tuple:  # none: poly.TERM_LIMIT bounds the work
        return value

    def _memo(self, op: Callable, *args: tuple) -> tuple:
        """op(self, *args), expanded once per tuple of kept operands.

        A repeated call returns the first result and raises
        :func:`caloop.poly.peak_stats` by the peak its expansion reached,
        so the stats read as if it were expanded again.  A product joins
        the kept tuples; a quotient, associator or inner map does not, so
        its own products are formed afresh each time.  A call with any
        other operand is expanded each time.
        """
        kept = self._kept
        for x in args:
            if id(x) not in kept:
                return op(self, *args)
        key = (op, *map(id, args))
        hit = self._results.get(key)
        if hit is None:
            outer = poly.peak_stats()
            poly.reset_stats()
            value = op(self, *args)
            hit = self._results[key] = (value, poly.peak_stats())
            if op is _product:
                kept[id(value)] = value
            poly._raise_peaks(*outer)
        poly._raise_peaks(*hit[1])
        return hit[0]

    def mul(self, a: tuple, b: tuple) -> tuple:
        """The bound product."""
        return self._memo(_product, a, b)

    def left_divide(self, a: tuple, c: tuple) -> tuple:
        """The unique b with a * b = c, by triangular back-substitution."""
        return self._memo(_left_divide, a, c)

    def associator(self, a: tuple, b: tuple, c: tuple) -> tuple:
        """The t with (a * (b * c)) * t = (a * b) * c."""
        return self._memo(self._associator, a, b, c)

    def inner_l(self, a: tuple, b: tuple, c: tuple) -> tuple:
        """The z with (b * a) * z = b * (a * c)."""
        return self._memo(self._inner_l, a, b, c)

    def _lift(self, coords: tuple) -> tuple:
        """coords with each plain int, such as the closed-form associator's
        literal 0s in coordinates 1-2, as a constant polynomial."""
        table = self.table
        return tuple(
            p if isinstance(p, Polynomial) else Polynomial.const(table, p) for p in coords
        )

    def difference(self, lhs: tuple, rhs: tuple) -> tuple:
        """Coordinate-wise residuals; all zero iff lhs = rhs as elements."""
        return tuple(lhs[i] - rhs[i] for i in range(8))


def _make_context(layout: Sequence, product: Optional[ProductFn], integers: Sequence = ()):
    """Build a variable table for the requested generic elements.

    `layout` is a sequence of (prefix, pinned) pairs; `pinned` leading
    coordinates are the constant 0 and the rest are fresh variables named
    prefix1..prefix8.  Each element is an 8-tuple of polynomials, and the
    kernel's leaf `prefix`.  Each name in `integers` adds one more variable,
    an integer such as an exponent, returned after the elements.
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
    ops._leaves.update(zip((prefix for prefix, _ in layout), elems))
    ops._kept.update((id(e), e) for e in elems)
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


def _equation(name: str, law: str, elements: str, pins: Optional[dict] = None) -> None:
    """Register the law text `law` as the catalog entry `name`.

    `law` is one or more equations ``lhs = rhs``, separated by ';'.  Each
    side is a loop word of :mod:`caloop.words` over the variables that
    `elements` names, parsed once, here; an unparenthesized chain of
    factors groups from the left.  The text is both the entry's summary and
    what it proves.  `elements` and `pins` are as for :func:`_law`.
    """
    variables = elements.split()
    equations = []
    for equation in law.split(";"):
        lhs, rhs = equation.split("=")
        equations.append([parse_with_warnings(side, variables)[0] for side in (lhs, rhs)])

    def build(ops, *elems):  # the elements are ops's leaves
        return [ops.difference(_value(lhs, ops), _value(rhs, ops)) for lhs, rhs in equations]

    _law(name, law, elements, pins)(build)


def _product_expansion(slot: int) -> str:
    """The law that expands the associator with the product x * y in `slot`
    and p, q in the other slots, in order, through X and Y, the associators
    with x and y in that slot: X * Y * (X, x, y) * (Y, y, x) * (X, y, p) *
    (Y, x, p) * (X, y, q) * (Y, x, q), multiplied from the left."""
    x, y = "abcd"[slot:slot + 2]
    p, q = "abcd"[:slot] + "abcd"[slot + 2:]

    def at(w: str) -> str:
        return f"assoc({', '.join(_place((p, q), slot, w))})"

    big_x, big_y = at(x), at(y)
    factors = (
        big_x, big_y,
        f"assoc({big_x}, {x}, {y})", f"assoc({big_y}, {y}, {x})",
        f"assoc({big_x}, {y}, {p})", f"assoc({big_y}, {x}, {p})",
        f"assoc({big_x}, {y}, {q})", f"assoc({big_y}, {x}, {q})",
    )
    return f"{at(f'{x} * {y}')} = {' * '.join(factors)}"


_equation("identity-element", "a * 1 = a; 1 * a = a", "a")
_equation("commutativity", "a * b = b * a", "a b")
_equation("division-round-trip", "ldiv(a, a * b) = b; a * ldiv(a, b) = b", "a b")
_equation("aip", "inv(a * b) = inv(a) * inv(b)", "a b")
_equation("flexibility", "assoc(a, b, a) = 1", "a b")
_equation("reversal", "assoc(a, b, c) = inv(assoc(c, b, a))", "a b c")
_equation("swap-expansion", "assoc(a, b, c) = assoc(a, c, b) * assoc(b, a, c)", "a b c")
_equation("compounded-reversal",
          "inv(assoc(assoc(a, b, c), d, e)) = assoc(e, d, assoc(a, b, c))", "a b c d e")
_equation("compounded-middle-expansion",
          "assoc(a, assoc(b, c, d), e) = "
          "assoc(a, e, assoc(b, c, d)) * assoc(assoc(b, c, d), a, e)", "a b c d e")
_equation("double-compounded-middle-right",
          "assoc(a, assoc(b, c, d), assoc(e, f, g)) = 1", "a b c d e f g")
_equation("double-compounded-left-right",
          "assoc(assoc(a, b, c), d, assoc(e, f, g)) = 1", "a b c d e f g")
_equation("double-compounded-left-middle",
          "assoc(assoc(a, b, c), assoc(d, e, f), g) = 1", "a b c d e f g")
_equation("inner-map-closed-form",
          "innL(b, c, a) = (a * assoc(a, b, c)) * assoc(b * c, a, assoc(a, b, c))", "a b c")
for _slot in (0, 2, 1):  # left, right, middle: the catalog's order
    _equation(f"product-expansion-{_SLOT_NAMES[_slot]}", _product_expansion(_slot), "a b c d")
# n ranges over the middle nucleus, the elements with zero generator exponents
_equation("middle-nucleus-contains", "assoc(a, n, b) = 1", "a n b", pins={"n": 2})


@_law("middle-nucleus-pins", "(x, z, y) vanishes only if z has zero generator exponents", "z")
def _build_middle_nucleus_pins(ops, z):
    t = ops.associator(ops.generator("x"), z, ops.generator("y"))
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


for _slot in range(3):
    _law(f"compounded-central-{_SLOT_NAMES[_slot]}",
         f"({', '.join(_place(('d', 'e'), _slot, '(a,b,c)'))}) lies in 0x0x0x0xZ^4",
         "a b c d e")(_compounded_central(_slot))
# z ranges over 0x0x0x0xZ^4, which every inner mapping fixes
_equation("center-contains", "innL(a, b, z) = z", "a b z", pins={"z": 4})


@_law("center-pins", "an element fixed by all inner mappings has zero first four coordinates",
      "z")
def _build_center_pins(ops, z):
    x, y = ops.generator("x"), ops.generator("y")
    # (x, x, z) has u1-exponent z2; (y, y, z) has u2-exponent -z1; and once
    # z1 = z2 = 0, (x, x, z) reduces to v1^z3 v2^z4.  An element fixed by
    # every inner mapping kills all three associators, forcing z1..z4 = 0;
    # with center-contains this pins the center to 0 x 0 x 0 x 0 x Z^4.
    txx = ops.associator(x, x, z)
    tyy = ops.associator(y, y, z)
    zero = Polynomial.zero(ops.table)
    z0 = (zero, zero) + z[2:]  # z with z1 = z2 = 0
    return [
        _pad(ops.table, {2: txx[2] - z[1]}),
        _pad(ops.table, {3: tyy[3] + z[0]}),
        ops.difference(ops.associator(x, x, z0), _pad(ops.table, {4: z[2], 5: z[3]})),
    ]


@_law("projection-homomorphism",
      "truncation to 4 coordinates is a homomorphism onto the class-2 loop", "a b")
def _build_projection_homomorphism(ops, a, b):
    m = ops.mul(a, b)
    f2 = mul4_coords(a[:4], b[:4])
    return [_pad(ops.table, {i: m[i] - f2[i] for i in range(4)})]


_equation("L-automorphism",
          "innL(a, b, c * d) = innL(a, b, c) * innL(a, b, d)", "a b c d")
_equation("power-zero", "a^0 = 1", "a")


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
    t = assoc_coords(a, b, c)
    return [ops.difference(ops.mul(ops.mul(a, ops.mul(b, c)), t), ops.mul(ops.mul(a, b), c))]


@_law("inner-map-formula", "the closed-form L_{a,b}(c) solves (b * a) * z = b * (a * c)",
      "a b c")
def _build_inner_map_formula(ops, a, b, c):
    z = inner_l_coords(a, b, c)
    return [ops.difference(ops.mul(ops.mul(b, a), z), ops.mul(b, ops.mul(a, c)))]


_equation("inverse-negation", "a * inv(a) = 1", "a")


@_law("central-coordinates",
      "coordinates 5-8 of the factors add into the product: a * b = a' * b' + "
      "(0,0,0,0,a5+b5,...,a8+b8), with a' = a, b' = b on coordinates 1-4 and 0 on 5-8",
      "a b")
def _build_central_coordinates(ops, a, b):
    # with projection-homomorphism this states the loop as a central
    # extension of the class-2 loop by Z^4; the quotient's product table is
    # built on it
    zero = (Polynomial.zero(ops.table),) * 4
    ab, ab_bar = ops.mul(a, b), ops.mul(a[:4] + zero, b[:4] + zero)
    central = zero + tuple(a[i] + b[i] for i in range(4, 8))
    return [tuple(ab[i] - ab_bar[i] - central[i] for i in range(8))]


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


# The kernel and generic elements (ops, elems) that the running verify_all()
# shares among the entries of one group; None outside a run.
_RUN_CONTEXT: ContextVar = ContextVar("_RUN_CONTEXT", default=None)


def verify_identity(name: str, product: Optional[ProductFn] = None) -> IdentityReport:
    """Expand one named identity over generic elements and report residuals;
    in a :func:`verify_all` run, over those of the running group."""
    entry = _lookup(name)
    poly.reset_stats()
    start = time.perf_counter()
    ops, elems = _RUN_CONTEXT.get() or _make_context(entry.layout, product, entry.integers)
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
    """Run the whole catalog; the reports come in registration order.

    The entries run grouped by layout, and each group shares one context,
    built before its first entry and set as ``_RUN_CONTEXT``: a variable
    table, its generic elements and one :class:`SymLoopOps`, whose memo
    expands a value that several entries form once.  A group's
    context is dropped when the group ends, so at most one is alive.  Each
    report but its ``millis`` equals that of :func:`verify_identity` alone.
    """
    groups: dict = {}
    for name, entry in _CATALOG.items():
        groups.setdefault((entry.layout, entry.integers), []).append(name)
    reports = {}
    for (layout, integers), names in groups.items():
        token = _RUN_CONTEXT.set(_make_context(layout, product, integers))
        try:
            for name in names:
                reports[name] = verify_identity(name, product)
        finally:
            _RUN_CONTEXT.reset(token)
    return [reports[name] for name in _CATALOG]
