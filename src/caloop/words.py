"""Loop-word expressions: parsing, evaluation to canonical coordinates, printing.

Grammar (ASCII, whitespace insignificant)::

    expr   := unit ( ('*' | '.')? unit )*        products, left-associative
    unit   := atom ( '^' int )?                  power binds tighter than *
    atom   := 'x' | 'y' | 'u1' | 'u2' | 'v1' | 'v2' | 'v3' | 'v4' | '1'
            | 'elem' '[' int, ... x8 ']'
            | 'assoc' '(' expr ',' expr ',' expr ')'
            | 'innL'  '(' expr ',' expr ',' expr ')'
            | 'ldiv'  '(' expr ',' expr ')'
            | 'inv'   '(' expr ')'
            | 'pow'   '(' expr ',' int ')'
            | '(' expr ')'

``ldiv(p, q)`` is the left division p \\ q, the unique b with p * b = q.
Adjacent units multiply, and '.' is a synonym for '*', so the canonical
display form (e.g. ``(x^2 y . u1^-1)``) re-parses to the element it was
printed from.  The product is *not* associative; an unparenthesized chain
of three or more factors is legal but grouped to the left, and the parser
reports a warning for it (surfaced by the CLI).

The text is lexed in one pass of one compiled regex, one token per match:
a name, an integer (ASCII digits, after an optional '-'), a punctuation
mark, or a whole well-formed ``elem[...]`` literal, which the parser takes
as one atom.  A malformed literal lexes as ordinary tokens, and the
grammar's literal rule reports what is wrong with it.  The whole text is
lexed before it is parsed, so a lexical error anywhere (a character outside
the grammar, a '-' with no digits, an integer with more significant digits
than ``int()`` converts) wins over the depth check, which wins over any
syntax error.  Positions are worked out only for the error raised.

Expressions deeper than ``MAX_DEPTH`` levels, in nesting or in the length
of a left-grouped chain, are refused with a :class:`ParseError`.  Powers
cost O(1) products whatever the exponent, so values can grow fast: each
product or power multiplies the bit length of a coordinate by up to about
five.  :func:`evaluate` therefore refuses, with a ``ValueError``, any value
with a coordinate longer than ``MAX_BITS`` bits.  :func:`check_bits` is that
check; the CLI's coordinate commands evaluate words over ``Literal`` leaves,
so it bounds their inputs and results too.
Evaluation runs on plain coordinate tuples and wraps only the root in an
:class:`Elem8`.

Associators use the named ``assoc(a, b, c)`` form rather than bare tuples
so parentheses stay unambiguous grouping.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Union

from .calculus import assoc_coords, inner_l_coords
from .calculus import associator, inner_l  # noqa: F401  (perfbench's tracer rebinds them here)
from .core import Elem8, basis, inv_coords, left_div_coords, mul_coords, pow_coords

__all__ = [
    "Expr",
    "Generator",
    "Literal",
    "Product",
    "Power",
    "Inverse",
    "Assoc",
    "InnerL",
    "LeftDiv",
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


@dataclass(frozen=True)
class LeftDiv:
    left: "Expr"
    right: "Expr"


Expr = Union[Generator, Literal, Product, Power, Inverse, Assoc, InnerL, LeftDiv]


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


# Deepest expression parse accepts, counting both the height of the tree
# (a left-grouped chain of n factors is n - 1 levels) and the nesting of
# parentheses, including those of calls.  It keeps the recursive parser and
# evaluate well inside the interpreter's default recursion limit of 1000
# frames: the parser spends 2 frames (_product, _atom) per open '(' of a
# group or of pow(), and 3 (with _args) per open '(' of assoc, innL, inv and
# ldiv, so at most 600; evaluate spends one frame per level of the tree.
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

# One token per match; whitespace (exactly the str.isspace characters) is
# skipped.  A well-formed literal is one token.  Integers are ASCII digits
# only: str.isdigit() also accepts digits such as '²' and '٣'.  A name runs
# over \w, which is str.isalnum() or '_'.  [^\W\d_] also lets a name start at
# a numeric character that is not a letter, such as '²', and \S takes any
# other single character, punctuation or not: _token_fault refuses both, so
# a name starts exactly at a str.isalpha() character.
_TOKEN = re.compile(
    r"[*.^()\[\],]"
    r"|elem\s*\[\s*-?[0-9]+\s*(?:,\s*-?[0-9]+\s*){7}\]"
    r"|[^\W\d_]\w*"
    r"|-?[0-9]+"
    r"|\S"
)
_END = ""  # the token after the last; no match is empty
_PUNCT = frozenset("*.^()[],")
_INT_START = frozenset("-0123456789")
# after a unit, these end a product rather than start its next factor
_ENDS_PRODUCT = frozenset(("^", ")", ",", "[", "]", _END))


def _to_int(tok: str) -> int:
    """int(tok) for an integer token; only its significant digits count
    against the interpreter's limit on the digits int() converts."""
    try:
        return int(tok)
    except ValueError:  # too many digits: retry on the significant ones
        value = int(tok.lstrip("-0") or "0")
        return -value if tok[0] == "-" else value


def _is_int(tok: str) -> bool:
    return tok[:1] in _INT_START and tok != "-"  # a '-' with no digits is alone


def _is_literal(tok: str) -> bool:
    return tok[-1:] == "]" and tok != "]"


def _shown(tok: str):
    """The token as error messages show it: an int, 'elem' for a literal, None at the end."""
    if tok == _END:
        return None
    if _is_int(tok):
        return _to_int(tok)
    if _is_literal(tok):
        return "elem"
    return tok


def _token_fault(tok: str):
    """(offset, message) of the lexical error in a token, or None if it has none."""
    first = tok[0]
    if first.isalpha():
        if _is_literal(tok):  # its integers lex as ordinary tokens after "elem"
            for m in _TOKEN.finditer(tok, 4):
                fault = _token_fault(m.group())
                if fault:
                    return m.start(), fault[1]
        return None
    if _is_int(tok):
        try:
            _to_int(tok)
        except ValueError:  # more significant digits than int() converts
            return 0, f"integer of {len(tok)} characters is too long"
        return None
    if first in _PUNCT:
        return None
    if first == "-":
        return 0, "dangling '-'"
    return 0, f"unexpected character {first!r}"


def _lexical_error(text: str, toks: list) -> Optional[ParseError]:
    """The first lexical error in text, or None.  Positions are 1-based."""
    if any(map(_token_fault, set(toks[:-1]))):  # all but _END
        for m in _TOKEN.finditer(text):
            fault = _token_fault(m.group())
            if fault:
                return ParseError(fault[1], m.start() + fault[0] + 1)
    return None


class _SyntaxError(Exception):
    """A syntax error at a token index; parse_with_warnings finds its position."""


# A generator parses to a shared leaf of depth 0; nodes are immutable.
_GENERATOR_LEAVES = {name: (Generator(name), 0) for name in _GENERATORS}
_ONE = (Literal((0,) * 8), 0)


def _too_deep(index: int) -> _SyntaxError:
    return _SyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", index)


class _Parser:
    """Recursive descent over the token list; LL(1) throughout.

    Each parsing method returns the expression with its depth, the height
    of its tree (a leaf has depth 0), so the depth limit is enforced as the
    tree is built.  The parser recurses once per open '(', so the nesting
    of parentheses is checked on the tokens before parsing starts.  Errors
    are raised as _SyntaxError(message, token index).
    """

    def __init__(self, toks: list, leaves: dict):
        self.toks = toks
        self.leaves = leaves
        self.i = 0
        self.warnings = []
        if toks.count("(") > MAX_DEPTH:  # fewer cannot nest deeper
            self._check_nesting()

    def _check_nesting(self) -> None:
        open_groups = 0
        for index, tok in enumerate(self.toks):
            if tok == "(":
                open_groups += 1
                if open_groups > MAX_DEPTH:
                    raise _too_deep(index)
            elif tok == ")":
                open_groups -= 1

    def parse(self) -> Expr:
        expr, _ = self._product()
        tok = self.toks[self.i]
        if tok != _END:
            raise _SyntaxError(f"unexpected {_shown(tok)!r} after expression", self.i)
        return expr

    def _expect(self, want: str) -> None:
        tok = self.toks[self.i]
        if tok != want:
            raise _SyntaxError(f"expected {want!r}, found {_shown(tok)!r}", self.i)
        self.i += 1

    def _product(self) -> tuple:
        toks = self.toks
        factors = 0
        index = self.i
        while True:
            unit, unit_depth = self._atom()
            if toks[self.i] == "^":  # power binds tighter than the product
                caret = self.i
                self.i += 1
                n = self._int("exponent")
                if unit_depth >= MAX_DEPTH:
                    raise _too_deep(caret)
                unit, unit_depth = Power(unit, n), unit_depth + 1
            if factors:
                expr = Product(expr, unit)
                # a left-grouped chain of n factors is n - 1 levels deep
                depth = (depth if depth > unit_depth else unit_depth) + 1
                if depth > MAX_DEPTH:
                    raise _too_deep(index)
            else:
                expr, depth = unit, unit_depth
            factors += 1
            index = self.i
            tok = toks[index]
            if tok == "*" or tok == ".":
                self.i = index + 1
            elif tok in _ENDS_PRODUCT:
                break
        if factors >= 3:
            self.warnings.append(
                f"nonassociative product: unparenthesized chain of {factors} "
                f"factors grouped from the left"
            )
        return expr, depth

    def _int(self, what: str) -> int:
        tok = self.toks[self.i]
        if not _is_int(tok):
            raise _SyntaxError(f"expected integer {what}, found {_shown(tok)!r}", self.i)
        self.i += 1
        return _to_int(tok)

    def _atom(self) -> tuple:
        index = self.i
        tok = self.toks[index]
        self.i += 1
        leaf = self.leaves.get(tok)
        if leaf is not None:
            return leaf
        if tok == "(":
            inner = self._product()
            self._expect(")")
            return inner
        if _is_literal(tok):  # str.strip() skips what \s does; int() skips less
            coords = tok[tok.index("[") + 1 : -1].split(",")
            return Literal(tuple(map(_to_int, map(str.strip, coords)))), 0
        if _is_int(tok):
            value = _to_int(tok)
            if value == 1:
                return _ONE
            raise _SyntaxError(f"unexpected integer literal {value}", index)
        if tok == "elem":  # a literal the literal token did not match
            return self._literal(), 0
        if tok == "assoc":
            (a, b, c), depth = self._args(3)
            node = Assoc(a, b, c)
        elif tok == "innL":
            (a, b, c), depth = self._args(3)
            node = InnerL(a, b, c)
        elif tok == "ldiv":
            (p, q), depth = self._args(2)
            node = LeftDiv(p, q)
        elif tok == "inv":
            (arg,), depth = self._args(1)
            node = Inverse(arg)
        elif tok == "pow":
            self._expect("(")
            base, depth = self._product()
            self._expect(",")
            node = Power(base, self._int("exponent"))
            self._expect(")")
        elif tok[:1].isalpha():
            raise _SyntaxError(f"unknown identifier {tok!r}", index)
        else:
            raise _SyntaxError(f"unexpected {_shown(tok)!r}", index)
        if depth >= MAX_DEPTH:
            raise _too_deep(index)
        return node, depth + 1

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


def parse_with_warnings(text: str, variables=()):
    """Parse a loop word; returns (expression, grouping warnings).

    Each name in ``variables`` parses as a :class:`Generator` leaf, a
    variable of a law, which :func:`evaluate` refuses as an unknown
    generator.  The whole text is lexed first, so a lexical error anywhere wins over the
    nesting check, which wins over any syntax error.  Positions are worked
    out only for the error raised.
    """
    toks = _TOKEN.findall(text)
    toks.append(_END)
    leaves = _GENERATOR_LEAVES
    if variables:
        leaves = {**leaves, **{name: (Generator(name), 0) for name in variables}}
    try:
        p = _Parser(toks, leaves)
        expr = p.parse()
    except ValueError:  # int() refused an integer too long to convert
        error = _lexical_error(text, toks)
        if error is None:  # not a lexical error after all: let it surface as is
            raise
        raise error from None
    except _SyntaxError as exc:
        message, index = exc.args
        error = _lexical_error(text, toks)
        if error is None:
            match = next(islice(_TOKEN.finditer(text), index, None), None)  # None at _END
            error = ParseError(message, match.start() + 1 if match else len(text) + 1)
        raise error from None
    return expr, p.warnings


def parse(text: str) -> Expr:
    return parse_with_warnings(text)[0]


def evaluate(expr: Expr) -> Elem8:
    """Evaluate an expression tree to canonical coordinates.

    Raises ``ValueError`` as soon as a subexpression's value has a
    coordinate longer than ``MAX_BITS`` bits.
    """
    return Elem8(_value(expr))


def _value(expr: Expr) -> tuple:
    """The coordinates of an expression, as a plain tuple, bounded at every node."""
    kind = type(expr)
    if kind is Product:
        value = mul_coords(_value(expr.left), _value(expr.right))
    elif kind is Generator:
        try:
            return _GENERATORS[expr.name]
        except KeyError:
            raise ValueError(f"unknown generator {expr.name!r}") from None
    elif kind is Power:
        value = pow_coords(_value(expr.base), expr.exponent)
    elif kind is Literal:
        value = Elem8(expr.coords)  # refuses anything but 8 ints
    elif kind is Inverse:
        value = inv_coords(_value(expr.arg))
    elif kind is Assoc:
        value = assoc_coords(_value(expr.a), _value(expr.b), _value(expr.c))
    elif kind is InnerL:
        value = inner_l_coords(_value(expr.a), _value(expr.b), _value(expr.arg))
    elif kind is LeftDiv:
        value = left_div_coords(_value(expr.left), _value(expr.right))
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    return check_bits(value)


def check_bits(value: tuple) -> tuple:
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
    # _GENERATORS names the coordinates in order; _factor gives None for exponent 0
    x, y, u1, u2, v1, v2, v3, v4 = map(_factor, _GENERATORS, a)
    xy = " ".join(filter(None, (x, y)))
    us = " ".join(filter(None, (u1, u2)))
    head = " . ".join(filter(None, (xy, us)))
    if " " in head:  # two or more factors
        head = f"({head})"
    return " ".join(filter(None, (head, v1, v2, v3, v4))) or "1"
