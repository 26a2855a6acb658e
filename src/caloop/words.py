"""Loop-word expressions: parsing, evaluation to canonical coordinates, printing.

Grammar (ASCII, whitespace insignificant)::

    expr   := unit ( ('*' | '.')? unit )*        products, left-associative
    unit   := atom ( '^' int )?                  power binds tighter than *
    atom   := 'x' | 'y' | 'u1' | 'u2' | 'v1' | 'v2' | 'v3' | 'v4' | '1'
            | 'elem' '[' int, ... x8 ']'
            | 'assoc' '(' expr ',' expr ',' expr ')'
            | 'innL'  '(' expr ',' expr ',' expr ')'
            | 'inv'   '(' expr ')'
            | 'pow'   '(' expr ',' int ')'
            | '(' expr ')'

Adjacent units multiply, and '.' is a synonym for '*', so the canonical
display form (e.g. ``(x^2 y . u1^-1)``) re-parses to the element it was
printed from.  The product is *not* associative; an unparenthesized chain
of three or more factors is legal but grouped to the left, and the parser
reports a warning for it (surfaced by the CLI).

Expressions deeper than ``MAX_DEPTH`` levels, in nesting or in the length
of a left-grouped chain, are refused with a :class:`ParseError`.  Powers
cost O(1) products whatever the exponent, so values can grow fast: each
product or power multiplies the bit length of a coordinate by up to about
five.  :func:`evaluate` therefore refuses, with a ``ValueError``, any value
with a coordinate longer than ``MAX_BITS`` bits.  :func:`check_bits` is that
check; the CLI's coordinate commands apply it to their inputs and results.

Associators use the named ``assoc(a, b, c)`` form rather than bare tuples
so parentheses stay unambiguous grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .calculus import associator, inner_l
from .core import IDENTITY, Elem8, basis

__all__ = [
    "Expr",
    "Generator",
    "Literal",
    "Product",
    "Power",
    "Inverse",
    "Assoc",
    "InnerL",
    "ParseError",
    "MAX_DEPTH",
    "MAX_BITS",
    "check_bits",
    "parse",
    "parse_with_warnings",
    "evaluate",
    "format_canonical",
]

_GENERATORS = {
    "x": basis(1),
    "y": basis(2),
    "u1": basis(3),
    "u2": basis(4),
    "v1": basis(5),
    "v2": basis(6),
    "v3": basis(7),
    "v4": basis(8),
}


@dataclass(frozen=True)
class Generator:
    name: str


@dataclass(frozen=True)
class Literal:
    coords: tuple


@dataclass(frozen=True)
class Product:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Inverse:
    arg: "Expr"


@dataclass(frozen=True)
class Assoc:
    a: "Expr"
    b: "Expr"
    c: "Expr"


@dataclass(frozen=True)
class InnerL:
    a: "Expr"
    b: "Expr"
    arg: "Expr"


Expr = Union[Generator, Literal, Product, Power, Inverse, Assoc, InnerL]


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


_PUNCT = set("*.^()[],")
# ASCII only: str.isdigit() also accepts digits such as '²' and '٣'
_DIGITS = set("0123456789")

# Deepest expression parse accepts, counting both the height of the tree
# (a left-grouped chain of n factors is n - 1 levels) and the nesting of
# parentheses, including those of calls.  It keeps the recursive parser and
# evaluate well inside the interpreter's default recursion limit of 1000
# frames: the parser spends at most 4 frames per open parenthesis.
MAX_DEPTH = 200

# Longest coordinate, in bits, of any value evaluate builds.  A coordinate
# this long prints in at most 4 215 decimal digits, under the interpreter's
# default limit of 4 300 digits for int-to-str conversion, so every value
# evaluate returns can be printed; and one node over such values costs at
# most tens of milliseconds (an associator of three, the costliest, ~60 ms
# on a 2-CPU x86_64 host), so evaluation time stays linear in the word's
# length.
MAX_BITS = 14_000
_BIT_LIMIT = 1 << MAX_BITS
_NEG_BIT_LIMIT = -_BIT_LIMIT  # negating a 14 000-bit int on every check costs ~0.3 us


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []  # (kind, value, position); positions are 1-based
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in _PUNCT:
                self.tokens.append((ch, ch, i + 1))
                i += 1
            elif ch == "-" or ch in _DIGITS:
                start = i
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
                body = text[start:i]
                if body == "-":
                    raise ParseError("dangling '-'", start + 1)
                try:
                    value = int(body)
                except ValueError:  # more digits than int() converts
                    raise ParseError(
                        f"integer of {len(body)} characters is too long", start + 1
                    ) from None
                self.tokens.append(("int", value, start + 1))
            elif ch.isalpha():
                start = i
                while i < n and (text[i].isalnum() or text[i] == "_"):
                    i += 1
                self.tokens.append(("name", text[start:i], start + 1))
            else:
                raise ParseError(f"unexpected character {ch!r}", i + 1)
        self.tokens.append(("end", None, n + 1))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


# A generator parses to a shared leaf of depth 0; nodes are immutable.
_GENERATOR_LEAVES = {name: (Generator(name), 0) for name in _GENERATORS}


def _too_deep(pos: int) -> ParseError:
    return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)


class _Parser:
    """Recursive descent over the token stream; LL(1) throughout.

    Each parsing method returns the expression with its depth, the height
    of its tree (a leaf has depth 0), so the depth limit is enforced as the
    tree is built.  The parser recurses once per open '(', so the nesting
    of parentheses is checked on the tokens before parsing starts.
    """

    def __init__(self, text: str):
        self.toks = _Tokenizer(text)
        self.warnings = []
        if len(self.toks.tokens) > MAX_DEPTH:  # fewer tokens cannot nest deeper
            self._check_nesting()

    def _check_nesting(self) -> None:
        open_groups = 0
        for kind, _, pos in self.toks.tokens:
            if kind == "(":
                open_groups += 1
                if open_groups > MAX_DEPTH:
                    raise _too_deep(pos)
            elif kind == ")":
                open_groups -= 1

    def parse(self) -> Expr:
        expr, _ = self._product()
        kind, value, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r} after expression", pos)
        return expr

    def _expect(self, kind: str):
        got_kind, value, pos = self.toks.next()
        if got_kind != kind:
            raise ParseError(f"expected {kind!r}, found {value!r}", pos)
        return value

    def _starts_unit(self, kind: str) -> bool:
        return kind in ("name", "int", "(")

    def _product(self) -> tuple:
        expr, depth = self._unit()
        factors = 1
        while True:
            kind, _, pos = self.toks.peek()
            if kind in ("*", "."):
                self.toks.next()
            elif not self._starts_unit(kind):
                break
            right, right_depth = self._unit()
            expr = Product(expr, right)
            # a left-grouped chain of n factors is n - 1 levels deep
            depth = (depth if depth > right_depth else right_depth) + 1
            if depth > MAX_DEPTH:
                raise _too_deep(pos)
            factors += 1
        if factors >= 3:
            self.warnings.append(
                f"nonassociative product: unparenthesized chain of {factors} "
                f"factors grouped from the left"
            )
        return expr, depth

    def _unit(self) -> tuple:
        unit = self._atom()
        kind, _, pos = self.toks.peek()
        if kind == "^":
            self.toks.next()
            n = self._int("exponent")
            atom, depth = unit
            if depth >= MAX_DEPTH:
                raise _too_deep(pos)
            return Power(atom, n), depth + 1
        return unit

    def _int(self, what: str) -> int:
        kind, value, pos = self.toks.next()
        if kind != "int":
            raise ParseError(f"expected integer {what}, found {value!r}", pos)
        return value

    def _atom(self) -> tuple:
        kind, value, pos = self.toks.next()
        if kind == "(":
            inner = self._product()
            self._expect(")")
            return inner
        if kind == "int":
            if value == 1:
                return Literal((0,) * 8), 0
            raise ParseError(f"unexpected integer literal {value}", pos)
        if kind == "name":
            if value in _GENERATOR_LEAVES:
                return _GENERATOR_LEAVES[value]
            if value == "elem":
                return self._literal(), 0
            if value == "assoc":
                (a, b, c), depth = self._args(3)
                node = Assoc(a, b, c)
            elif value == "innL":
                (a, b, c), depth = self._args(3)
                node = InnerL(a, b, c)
            elif value == "inv":
                (arg,), depth = self._args(1)
                node = Inverse(arg)
            elif value == "pow":
                self._expect("(")
                base, depth = self._product()
                self._expect(",")
                node = Power(base, self._int("exponent"))
                self._expect(")")
            else:
                raise ParseError(f"unknown identifier {value!r}", pos)
            if depth >= MAX_DEPTH:
                raise _too_deep(pos)
            return node, depth + 1
        raise ParseError(f"unexpected {value!r}", pos)

    def _args(self, count: int) -> tuple:
        """Parse '(' expr, ... ')' into (list of expressions, their greatest depth)."""
        self._expect("(")
        expr, depth = self._product()
        out = [expr]
        for _ in range(count - 1):
            self._expect(",")
            expr, d = self._product()
            out.append(expr)
            depth = depth if depth > d else d
        self._expect(")")
        return out, depth

    def _literal(self) -> Literal:
        self._expect("[")
        coords = [self._int("coordinate")]
        for _ in range(7):
            self._expect(",")
            coords.append(self._int("coordinate"))
        self._expect("]")
        return Literal(tuple(coords))


def parse_with_warnings(text: str):
    """Parse a loop word; returns (expression, grouping warnings)."""
    p = _Parser(text)
    expr = p.parse()
    return expr, p.warnings


def parse(text: str) -> Expr:
    return parse_with_warnings(text)[0]


def evaluate(expr: Expr) -> Elem8:
    """Evaluate an expression tree to canonical coordinates.

    Raises ``ValueError`` as soon as a subexpression's value has a
    coordinate longer than ``MAX_BITS`` bits.
    """
    if isinstance(expr, Generator):
        return _GENERATORS[expr.name]
    if isinstance(expr, Literal):
        value = Elem8(expr.coords)
    elif isinstance(expr, Product):
        value = evaluate(expr.left) * evaluate(expr.right)
    elif isinstance(expr, Power):
        value = evaluate(expr.base) ** expr.exponent
    elif isinstance(expr, Inverse):
        value = evaluate(expr.arg).inverse()
    elif isinstance(expr, Assoc):
        value = associator(evaluate(expr.a), evaluate(expr.b), evaluate(expr.c))
    elif isinstance(expr, InnerL):
        value = inner_l(evaluate(expr.a), evaluate(expr.b), evaluate(expr.arg))
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    return check_bits(value)


def check_bits(value: Elem8) -> Elem8:
    """Return ``value``, or raise ``ValueError`` naming the bound if a
    coordinate is longer than ``MAX_BITS`` bits."""
    if _NEG_BIT_LIMIT < min(value) and max(value) < _BIT_LIMIT:
        return value
    bits = max(abs(c).bit_length() for c in value)
    raise ValueError(
        f"value too large: a coordinate of {bits} bits passes the {MAX_BITS}-bit bound"
    )


def _factor(name: str, exp: int) -> Optional[str]:
    if exp == 0:
        return None
    if exp == 1:
        return name
    return f"{name}^{exp}"


def format_canonical(a: Elem8) -> str:
    """Canonical display form; re-parses and re-evaluates to the same element.

    The generator and u-factors form a parenthesized head with '.' between
    the two groups; central v-factors follow unparenthesized.  Factors with
    exponent 0 are omitted and the empty word prints as "1".
    """
    xy = [f for f in (_factor("x", a[0]), _factor("y", a[1])) if f]
    us = [f for f in (_factor("u1", a[2]), _factor("u2", a[3])) if f]
    vs = [
        f
        for f in (
            _factor("v1", a[4]),
            _factor("v2", a[5]),
            _factor("v3", a[6]),
            _factor("v4", a[7]),
        )
        if f
    ]
    if xy and us:
        head = " ".join(xy) + " . " + " ".join(us)
        head_count = len(xy) + len(us)
    else:
        head = " ".join(xy or us)
        head_count = len(xy) + len(us)
    if head_count >= 2:
        head = f"({head})"
    parts = ([head] if head else []) + vs
    if not parts:
        return "1"
    return " ".join(parts)
