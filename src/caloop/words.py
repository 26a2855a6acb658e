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

The nodes are immutable named tuples, built one way: the parser calls
``tuple.__new__(node, fields)``, the whole body of their constructors.  A
node equals only a node of its own class with equal fields, never a plain
tuple, and hashes as the tuple of its fields.  A generator and '1' are
shared leaves, looked up in the product loop, and a literal's eight
coordinates are converted in one ``map(int, ...)``.

Expressions deeper than ``MAX_DEPTH`` levels, in nesting or in the length
of a left-grouped chain, are refused with a :class:`ParseError`.  Powers
cost O(1) products whatever the exponent, so values can grow fast: each
product or power multiplies the bit length of a coordinate by up to about
five.  :func:`evaluate` therefore refuses, with a ``ValueError``, any value
with a coordinate longer than ``MAX_BITS`` bits.  :func:`check_bits` is that
check; the CLI's coordinate commands evaluate words over ``Literal`` leaves,
so it bounds their inputs and results too.  Evaluation walks plain
coordinate tuples, checks each literal's coordinates without building an
:class:`Elem8`, and wraps only the root in one, unchecked; the identity
catalog of :mod:`caloop.symbolic` walks its laws with the same walker on a
polynomial kernel.

Associators use the named ``assoc(a, b, c)`` form rather than bare tuples
so parentheses stay unambiguous grouping.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NamedTuple, Optional, Union, get_args

from .calculus import assoc_coords, inner_l_coords
from .calculus import associator, inner_l  # noqa: F401  (perfbench's tracer rebinds them here)
from .core import _INT, Elem8, _elem8, basis
from .core import inv_coords, left_div_coords, mul_coords, pow_coords

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


class Generator(NamedTuple):
    name: str


class Literal(NamedTuple):
    coords: tuple


class Product(NamedTuple):
    left: "Expr"
    right: "Expr"


class Power(NamedTuple):
    base: "Expr"
    exponent: int


class Inverse(NamedTuple):
    arg: "Expr"


class Assoc(NamedTuple):
    a: "Expr"
    b: "Expr"
    c: "Expr"


class InnerL(NamedTuple):
    a: "Expr"
    b: "Expr"
    arg: "Expr"


class LeftDiv(NamedTuple):
    left: "Expr"
    right: "Expr"


Expr = Union[Generator, Literal, Product, Power, Inverse, Assoc, InnerL, LeftDiv]


def _eq(self, other) -> bool:
    """A node equals only a node of its own class with equal fields, never a plain tuple."""
    return type(self) is type(other) and tuple.__eq__(self, other)


def _ne(self, other) -> bool:
    return not _eq(self, other)


# set after the classes are made, so each keeps tuple's hash of its fields
for _node in get_args(Expr):
    _node.__eq__, _node.__ne__ = _eq, _ne


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


# Deepest expression parse accepts, counting both the height of the tree
# (a left-grouped chain of n factors is n - 1 levels) and the nesting of
# parentheses, including those of calls.  It keeps the recursive parser and
# evaluate well inside the interpreter's default recursion limit of 1000
# frames: the parser spends 2 frames (_product, _atom) per open '(' of a
# group and 3 (with _list) per open '(' of a call, pow() included, so at
# most 600; evaluate spends one frame per level of the tree.
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


def _shown(tok: str) -> str:
    """The token as an error message shows it: a repr, 'elem' for a literal, or end of input."""
    if tok == _END:
        return "end of input"
    if _is_int(tok):
        return repr(_to_int(tok))
    if _is_literal(tok):
        return "'elem'"
    return repr(tok)


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


# The parser builds a node as its constructor does, with the whole body of a
# named tuple's __new__: _new(Product, (left, right)).
_new = tuple.__new__


# A generator or '1' parses to a shared leaf of depth 0; nodes are immutable.
_ONE = (Literal((0,) * 8), 0)
_LEAVES = {**{name: (Generator(name), 0) for name in _GENERATORS}, "1": _ONE}


# Each call form: its node and the kinds of its arguments.  An expression
# parses as a product; any other kind is an integer, named as errors name it.
_EXPRESSION = "expression"
_CALLS = {
    "assoc": (Assoc, (_EXPRESSION,) * 3),
    "innL": (InnerL, (_EXPRESSION,) * 3),
    "ldiv": (LeftDiv, (_EXPRESSION,) * 2),
    "inv": (Inverse, (_EXPRESSION,)),
    "pow": (Power, (_EXPRESSION, "exponent")),
}


def _too_deep(index: int) -> _SyntaxError:
    return _SyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", index)


class _Parser:
    """Recursive descent over the token list; LL(1) throughout.

    Each parsing method returns the expression with its depth, the height
    of its tree (a leaf has depth 0), so the depth limit is enforced as the
    tree is built.  The parser recurses once per open '(', so the nesting
    of parentheses is checked on the tokens before parsing starts.  Errors
    are raised as _SyntaxError(message, token index).  One rule, :meth:`_list`,
    parses every call form in ``_CALLS`` and a malformed ``elem[...]``.
    """

    def __init__(self, toks: list, leaves: dict):
        self.toks = toks
        self.leaves = leaves
        self.i = 0
        self.warnings = []
        if toks.count("(") > MAX_DEPTH:  # fewer cannot nest deeper
            open_groups = 0
            for index, tok in enumerate(toks):
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
            raise _SyntaxError(f"unexpected {_shown(tok)} after expression", self.i)
        return expr

    def _expected(self, want: str) -> _SyntaxError:
        """The error for the current token, which is not ``want``."""
        return _SyntaxError(f"expected {want!r}, found {_shown(self.toks[self.i])}", self.i)

    def _product(self) -> tuple:
        toks = self.toks
        leaves = self.leaves
        factors = 0
        index = self.i
        while True:
            i = self.i
            leaf = leaves.get(toks[i])  # a generator or '1', with no _atom frame
            if leaf is None:
                unit, unit_depth = self._atom()
            else:
                unit, unit_depth = leaf
                self.i = i + 1
            if toks[self.i] == "^":  # power binds tighter than the product
                caret = self.i
                self.i += 1
                n = self._int("exponent")
                if unit_depth >= MAX_DEPTH:
                    raise _too_deep(caret)
                unit, unit_depth = _new(Power, (unit, n)), unit_depth + 1
            if factors:
                expr = _new(Product, (expr, unit))
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
            raise _SyntaxError(f"expected integer {what}, found {_shown(tok)}", self.i)
        self.i += 1
        return _to_int(tok)

    def _atom(self) -> tuple:
        """Any unit but a leaf, which :meth:`_product` looks up itself."""
        index = self.i
        tok = self.toks[index]
        self.i += 1
        if tok == "(":
            inner = self._product()
            if self.toks[self.i] != ")":
                raise self._expected(")")
            self.i += 1
            return inner
        if _is_literal(tok):
            parts = tok[tok.index("[") + 1 : -1].split(",")
            try:
                coords = tuple(map(int, parts))
            except ValueError:
                # int() skips less whitespace than \s (not '\x1c'-'\x1f'), which
                # str.strip() skips, and refuses more digits than its limit,
                # which _to_int counts only where significant
                coords = tuple(map(_to_int, map(str.strip, parts)))
            return _new(Literal, (coords,)), 0
        if _is_int(tok):
            value = _to_int(tok)
            if value == 1:
                return _ONE
            raise _SyntaxError(f"unexpected integer literal {value}", index)
        call = _CALLS.get(tok)
        if call is not None:
            node, kinds = call
            args, depth = self._list("(", kinds, ")")
            if depth >= MAX_DEPTH:
                raise _too_deep(index)
            return _new(node, args), depth + 1
        if tok == "elem":
            # a malformed literal: any text this rule accepts lexes as one
            # literal token, so _list raises, naming the literal's first fault
            self._list("[", ("coordinate",) * 8, "]")
        if tok[:1].isalpha():
            raise _SyntaxError(f"unknown identifier {tok!r}", index)
        raise _SyntaxError(f"unexpected {_shown(tok)}", index)

    def _list(self, open: str, kinds: tuple, close: str) -> tuple:
        """Parse open item, ... close, one item of each kind; returns (items, greatest depth)."""
        toks = self.toks
        items = []
        depth = 0
        want = open
        for kind in kinds:
            if toks[self.i] != want:
                raise self._expected(want)
            self.i += 1
            want = ","
            if kind == _EXPRESSION:
                item, d = self._product()
                depth = depth if depth > d else d
            else:
                item = self._int(kind)
            items.append(item)
        if toks[self.i] != close:
            raise self._expected(close)
        self.i += 1
        return items, depth


def parse_with_warnings(text: str, variables=()):
    """Parse a loop word; returns (expression, grouping warnings).

    Each name in ``variables`` parses as a :class:`Generator` leaf, a variable of a
    law, which :func:`evaluate` refuses as an unknown generator.  The whole text is
    lexed first, so a lexical error anywhere wins over the nesting check, which wins
    over any syntax error.  Positions are worked out only for the error raised.
    """
    toks = _TOKEN.findall(text)
    toks.append(_END)
    leaves = _LEAVES
    if variables:
        leaves = {**leaves, **{name: (Generator(name), 0) for name in variables}}
    try:
        p = _Parser(toks, leaves)
        expr = p.parse()
    except (_SyntaxError, ValueError) as exc:  # ValueError: int() refused a long integer
        error = _lexical_error(text, toks)
        if error is None:
            if not isinstance(exc, _SyntaxError):  # not a lexical error after all
                raise
            message, index = exc.args
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

    The root is wrapped with the unchecked ``_elem8``, because the check of
    ``Elem8(...)`` cannot fail on it, by the argument of the :class:`Elem8`
    docstring: every leaf the walker returns holds 8 exact ints (a generator
    is a basis element, and a literal passes :func:`_constant`), and every
    node applies a kernel function to such values, which returns 8 exact
    ints again.  A node that is not an expression raises ``TypeError``.
    """
    return _elem8(_value(expr, _IntKernel))


def _value(expr: Expr, kernel):
    """The value of an expression on ``kernel``, bounded at every node.

    The one walk over the node types, for loop words and the laws of
    :mod:`caloop.symbolic`.  ``kernel`` (:class:`_IntKernel` or a
    :class:`caloop.symbolic.SymLoopOps`) supplies the leaves (``generator``
    raises ``KeyError`` for an unknown name), the operations that differ
    between the two and the per-node ``bound``.
    """
    kind = type(expr)
    if kind is Product:
        value = kernel.mul(_value(expr.left, kernel), _value(expr.right, kernel))
    elif kind is Generator:
        try:
            return kernel.generator(expr.name)  # in bounds
        except KeyError:
            raise ValueError(f"unknown generator {expr.name!r}") from None
    elif kind is Power:
        value = pow_coords(_value(expr.base, kernel), expr.exponent)
    elif kind is Literal:
        value = kernel.constant(expr.coords)
    elif kind is Inverse:
        value = inv_coords(_value(expr.arg, kernel))
    elif kind is Assoc:
        value = kernel.associator(_value(expr.a, kernel), _value(expr.b, kernel),
                                  _value(expr.c, kernel))
    elif kind is InnerL:
        value = kernel.inner_l(_value(expr.a, kernel), _value(expr.b, kernel),
                               _value(expr.arg, kernel))
    elif kind is LeftDiv:
        value = kernel.left_divide(_value(expr.left, kernel), _value(expr.right, kernel))
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    return kernel.bound(value)


def check_bits(value: tuple) -> tuple:
    """Return ``value``, or raise ``ValueError`` naming the bound if a
    coordinate is longer than ``MAX_BITS`` bits."""
    if _NEG_BIT_LIMIT < min(value) and max(value) < _BIT_LIMIT:
        return value
    bits = max(abs(c).bit_length() for c in value)
    raise ValueError(
        f"value too large: a coordinate of {bits} bits passes the {MAX_BITS}-bit bound"
    )


def _constant(coords) -> tuple:
    """``coords`` itself when it is a plain 8-tuple of exact ints; otherwise
    ``Elem8(coords)``, which copies any other 8 exact ints and raises its
    ``ValueError`` for anything else."""
    if type(coords) is tuple and len(coords) == 8 and _INT.issuperset(map(type, coords)):
        return coords
    return Elem8(coords)


class _IntKernel:
    """:func:`evaluate`'s kernel: the integer kernel functions, which tracers can rebind."""

    mul = mul_coords
    left_divide = left_div_coords
    associator = assoc_coords
    inner_l = inner_l_coords
    constant = _constant  # refuses anything but 8 ints
    generator = _GENERATORS.__getitem__
    bound = check_bits


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
    exponent 0 are omitted and the empty word prints as "1".  Raises
    ``ValueError`` unless ``a`` has exactly 8 coordinates.
    """
    if len(a) != 8:  # map() below would stop at the eighth
        raise ValueError(f"expected 8 coordinates, got {len(a)}")
    # _GENERATORS names the coordinates in order; _factor gives None for exponent 0
    x, y, u1, u2, v1, v2, v3, v4 = map(_factor, _GENERATORS, a)
    xy = " ".join(filter(None, (x, y)))
    us = " ".join(filter(None, (u1, u2)))
    head = " . ".join(filter(None, (xy, us)))
    if " " in head:  # two or more factors
        head = f"({head})"
    return " ".join(filter(None, (head, v1, v2, v3, v4))) or "1"
