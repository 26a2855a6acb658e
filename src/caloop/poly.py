"""Sparse multivariate polynomials with exact rational coefficients.

Only what the identity prover needs to run the integer kernel of
:mod:`caloop.core` on polynomial coordinates: ring arithmetic, exact
division by an integer, structural zero testing and evaluation.  A
polynomial is a map from monomials to nonzero coefficients; the zero
polynomial is the empty map, so equality of the maps is equality of
polynomials.

Monomials are packed integers (Monagan & Pearce, *Sparse polynomial
division using a heap*, JSC 2011; Maple's ``sdmp``).  Over a table of n
variables a key has n + 1 fields of ``BITS`` bits.  The top field holds the
total degree; below it come the exponents of variable 0, 1, ..., n - 1, so
variable n - 1 sits in the lowest field::

    key = deg << (n * BITS) | e_0 << ((n - 1) * BITS) | ... | e_{n-1}

This layout gives three things:

* the product of two monomials is the sum of their keys, one integer ``+``;
* the largest key has the largest degree, so the degree of a polynomial is
  ``max(keys) >> (n * BITS)``; the ring operations mostly know it without
  that scan (a product's is d1 + d2), so each polynomial carries its
  degree, ``degree()`` is O(1), and the peak degree the prover reports
  stays exact;
* keys in decreasing order are graded lexicographic order, the display
  order of :meth:`Polynomial.__str__`.

Each field is one byte (``BITS = 8``), so ``key.to_bytes(n + 1, "big")``
lists the degree and then the exponents in variable order.

The guard: a field holds at most ``MAX_DEGREE = 2**BITS - 1``, and no
exponent exceeds the total degree.  So a product of degrees d and e cannot
carry out of any field when d + e <= MAX_DEGREE, and ``*`` refuses every
other product with :class:`DegreeLimitExceeded` before it adds a key.
Sizes are bounded too: no polynomial, and no product's term pairs, may
pass the module constant ``TERM_LIMIT`` (:class:`TermLimitExceeded`).

The packed keys are internal.  :attr:`Polynomial.terms` is a read-only
view in the documented form ``{((var, exp), ...): coeff}``, with the pairs
sorted by variable index and every exponent positive; the constructor takes
that form too.

Coefficients are ints over one common denominator, the layout of FLINT's
``fmpq_poly``: a polynomial stores int numerators on its packed keys and
one int ``den > 0``, and its value is ``sum(c * mon) / den``.  The
denominator is kept reduced, ``gcd(den, *numerators) == 1``, so the zero
polynomial has ``den == 1`` and equal polynomials have equal numerators and
denominators.  In the prover the denominators come only from the kernel's
``// 3`` and ``// 15``, and the ring operations run on ints:

* ``+`` and ``-`` scale the numerators by the lcm only when the two
  denominators differ;
* ``*`` multiplies numerators and denominators;
* ``// n`` multiplies ``den`` by ``|n|`` and moves the sign of n onto the
  numerators;
* whenever the result's ``den != 1``, one C-level ``math.gcd(den,
  *numerators)`` reduces it.

Short-cuts skip work the prover does often.  One catalog run and one
mutated-product run (the ``prove`` benchmark's pass) make 31 762 calls of
``+``, ``-``, ``*`` and ``//``; each call does little work on terms, so
its fixed cost counts:

* a Polynomial operand on the very table object of the other skips the
  table check (all 25 782 Polynomial operands of the pass);
* a product with a zero operand returns that operand, and a sum or
  difference with a zero operand returns the other one (negated for
  ``0 - p``), so no copy is built (11 446 calls);
* an ``int`` factor scales the numerators (1 529 products), and a nonzero
  ``int`` addend or subtrahend joins the constant term of a copy of the
  terms (1 879 calls), so neither builds a constant polynomial;
* a product drops zero coefficients only when one is there (64 of the
  6 308 products of two nonzero polynomials).

A short-cut builds only polynomials that the full operation builds too;
what it skips is a copy of an operand, or the constant
``Polynomial.const(table, k)`` of an int operand k, of degree 0 and one
term.  So :func:`peak_stats` reads as after the full operation whenever the
result is nonzero and the operands were built since the last
:func:`reset_stats`.  Otherwise it can read lower: ``c - 5``, with ``c``
the constant 5, reads (0, 0) on its own, where ``c - Polynomial.const(table,
5)`` reads (0, 1).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

__all__ = [
    "BITS",
    "MAX_DEGREE",
    "VarTable",
    "Polynomial",
    "VariableTableMismatch",
    "TermLimitExceeded",
    "DegreeLimitExceeded",
    "TERM_LIMIT",
    "reset_stats",
    "peak_stats",
]

Scalar = Union[int, Fraction]
Monomial = tuple  # ((var_index, exponent), ...) sorted, exponents > 0

# Width of one field of a packed monomial: one byte, so keys decode with
# int.to_bytes.  The prover's peak degree is 10.
BITS = 8
MAX_DEGREE = (1 << BITS) - 1


class VariableTableMismatch(ValueError):
    """Raised when combining polynomials over different variable tables."""


class TermLimitExceeded(RuntimeError):
    """Raised when an intermediate polynomial would exceed the term budget."""


class DegreeLimitExceeded(OverflowError):
    """Raised when a monomial's total degree would pass ``MAX_DEGREE``."""


# Most terms any intermediate polynomial may have; read at each check.
TERM_LIMIT = 10_000_000

# Peak sizes seen since the last reset; the identity prover reports these.
_peak_degree = 0
_peak_terms = 0


def reset_stats() -> None:
    global _peak_degree, _peak_terms
    _peak_degree = 0
    _peak_terms = 0


def peak_stats() -> tuple:
    """(max total degree, max term count) of any polynomial built since reset."""
    return _peak_degree, _peak_terms


def _raise_peaks(degree: int, terms: int) -> None:
    """Raise the peak stats to at least (degree, terms): what a caller that
    reuses a built result records in place of building it again."""
    global _peak_degree, _peak_terms
    _peak_degree = max(_peak_degree, degree)
    _peak_terms = max(_peak_terms, terms)


@dataclass(frozen=True)
class VarTable:
    """Ordered variable names shared by a family of polynomials."""

    names: tuple
    # bit offset of the degree field in a packed monomial over this table
    _degree_shift: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_degree_shift", BITS * len(self.names))

    def __len__(self) -> int:
        return len(self.names)


def _pack(table: VarTable, mon: Monomial) -> int:
    """The packed key of ``((var, exp), ...)``; repeated variables add up."""
    n = len(table.names)
    fields = [0] * (n + 1)
    for v, e in mon:
        if not 0 <= v < n:
            raise IndexError(f"variable index {v} out of range")
        if not (isinstance(e, int) and e > 0):
            raise ValueError(f"exponent {e!r} of variable {v} is not a positive int")
        fields[v + 1] += e
    degree = sum(fields)
    if degree > MAX_DEGREE:
        raise DegreeLimitExceeded(
            f"monomial of degree {degree} passes MAX_DEGREE = {MAX_DEGREE}, "
            f"the largest value of one {BITS}-bit field"
        )
    fields[0] = degree
    return int.from_bytes(bytes(fields), "big")


def _unpack(key: int, n: int) -> Monomial:
    """((var, exp), ...) of a packed key over a table of n variables."""
    return tuple((v, e) for v, e in enumerate(key.to_bytes(n + 1, "big")[1:]) if e)


def _top_degree(table: VarTable, terms: dict) -> int:
    """The degree of packed ``terms``, read from the largest key; 0 if empty."""
    return max(terms) >> table._degree_shift if terms else 0


def _new(table: VarTable, terms: dict, den: int, degree: int) -> "Polynomial":
    """A polynomial on packed terms with nonzero int numerators over a
    reduced denominator ``den > 0``, whose degree the caller knows.

    Checks the term budget and records the peak term count and degree.  No
    terms dict is changed once it is wrapped, so polynomials may share one.
    """
    global _peak_degree, _peak_terms
    n = len(terms)
    if n > TERM_LIMIT:
        raise TermLimitExceeded(
            f"polynomial with {n} terms exceeds the {TERM_LIMIT}-term budget"
        )
    if n > _peak_terms:
        _peak_terms = n
    if degree > _peak_degree:
        _peak_degree = degree
    p = object.__new__(Polynomial)
    _set_degree(p, degree)
    _set_table(p, table)
    _set_terms(p, terms)
    _set_den(p, den)
    return p


def _reduced(table: VarTable, terms: dict, den: int, degree: int) -> "Polynomial":
    """:func:`_new` after dividing numerators and ``den > 0`` by their gcd;
    an empty ``terms`` gets ``den == 1``, since ``gcd(den) == den``."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    return _new(table, terms, den, degree)


def _decode(c: int, den: int) -> Scalar:
    """The coefficient ``c / den`` as an int when integral, else a Fraction."""
    if den == 1:
        return c
    q = Fraction(c, den)
    return q.numerator if q.denominator == 1 else q


class _TermsView(Mapping):
    """Read-only ``{((var, exp), ...): coeff}`` view of packed terms."""

    __slots__ = ("_table", "_packed", "_den")

    def __init__(self, table: VarTable, packed: dict, den: int):
        self._table = table
        self._packed = packed
        self._den = den

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self):
        n = len(self._table.names)
        return (_unpack(key, n) for key in self._packed)

    def __getitem__(self, mon):
        try:
            key = _pack(self._table, mon)
        except (IndexError, ValueError, TypeError, DegreeLimitExceeded):
            raise KeyError(mon) from None
        # only the canonical form is a key: ((0, 1), (0, 1)) packs like ((0, 2),)
        if key not in self._packed or _unpack(key, len(self._table.names)) != mon:
            raise KeyError(mon)
        return _decode(self._packed[key], self._den)


class Polynomial:
    """Immutable sparse polynomial over a :class:`VarTable`.

    ``den`` is the common denominator of the coefficients (see the module
    docstring); the numerators on the packed keys are internal.
    """

    __slots__ = ("table", "_terms", "den", "_degree")

    def __new__(cls, table: VarTable, terms: Mapping[Monomial, Scalar]):
        """The polynomial ``sum(c * mon)`` over ``{mon: c}`` in the form of
        :attr:`terms`, with int or Fraction coefficients; zero coefficients
        are dropped."""
        packed: dict = {}
        for mon, c in terms.items():
            key = _pack(table, mon)
            packed[key] = packed.get(key, 0) + c
        # the lcm of reduced denominators is already coprime to the numerators
        den = lcm(*(c.denominator for c in packed.values()))
        packed = {k: c.numerator * (den // c.denominator) for k, c in packed.items() if c}
        return _new(table, packed, den, _top_degree(table, packed))

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __new__, from the decoded terms
        return Polynomial, (self.table, dict(self.terms))

    @property
    def terms(self) -> Mapping:
        """``{((var, exp), ...): coeff}``, decoded from the packed keys."""
        return _TermsView(self.table, self._terms, self.den)

    @classmethod
    def zero(cls, table: VarTable) -> "Polynomial":
        return _new(table, {}, 1, 0)

    @classmethod
    def const(cls, table: VarTable, value: Scalar) -> "Polynomial":
        num, den = value.numerator, value.denominator
        return _new(table, {0: num} if num else {}, den if num else 1, 0)

    @classmethod
    def var(cls, table: VarTable, index: int) -> "Polynomial":
        if not 0 <= index < len(table):
            raise IndexError(f"variable index {index} out of range")
        return _new(table, {_pack(table, ((index, 1),)): 1}, 1, 1)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        return self._degree

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.table, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.table == other.table and self.den == other.den
                and self._terms == other._terms)

    def __hash__(self):
        # a constant equals its scalar (see __eq__), so it hashes like it
        if self._degree == 0:
            return hash(Fraction(self._terms.get(0, 0), self.den))
        return hash((self.table, self.den, tuple(sorted(self._terms.items()))))

    def _check(self, other: "Polynomial") -> None:
        # polynomials of one computation share one table object
        if self.table is not other.table and self.table != other.table:
            raise VariableTableMismatch(
                f"operands use different variable tables: "
                f"{self.table.names} vs {other.table.names}"
            )

    def _coerce(self, value) -> "Polynomial":
        if isinstance(value, Polynomial):
            self._check(value)
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial.const(self.table, value)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations -------------------------------------------------
    #
    # Each result carries its degree.  A product has degree d1 + d2, since
    # the product of the two top homogeneous parts is not zero; a sum or
    # difference of unequal degrees has the larger one; negation, nonzero
    # scaling and ``// n`` keep it.  Only a sum or difference of equal
    # degrees reads it from its largest key, since the top terms can cancel.

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """``self + sign * other`` for two nonzero operands, sign = +-1."""
        d1, d2 = self.den, other.den
        den = d1 if d1 == d2 else lcm(d1, d2)
        big, small = self._terms, other._terms
        f_big, f_small = den // d1, sign * (den // d2)
        if len(big) < len(small):
            big, small, f_big, f_small = small, big, f_small, f_big
        terms = dict(big) if f_big == 1 else {m: c * f_big for m, c in big.items()}
        get = terms.get
        for m, c in small.items():
            s = get(m, 0) + c * f_small
            if s:
                terms[m] = s
            else:
                del terms[m]
        if self._degree == other._degree:  # the top terms may cancel
            degree = _top_degree(self.table, terms)
        else:
            degree = max(self._degree, other._degree)
        return _reduced(self.table, terms, den, degree)

    def _add_int(self, k: int) -> "Polynomial":
        """``self + k`` for a nonzero int k: k joins the constant term (key 0)
        of a copy of the terms, so the degree is unchanged.

        The result is already reduced: ``gcd(den, c + k * den) == gcd(den,
        c)``, and a constant term that cancels is a multiple of ``den``.
        """
        terms = dict(self._terms)
        c = terms.get(0, 0) + k * self.den
        if c:
            terms[0] = c
        else:
            del terms[0]
        return _new(self.table, terms, self.den, self._degree)

    # A Polynomial on this very table object is taken as it is; every other
    # operand goes through _coerce, which checks or converts it.

    def __add__(self, other) -> "Polynomial":
        if other.__class__ is not Polynomial or other.table is not self.table:
            if isinstance(other, int):
                return self._add_int(other) if other else self
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        if not self._terms:
            return self
        return _new(self.table, {m: -c for m, c in self._terms.items()}, self.den,
                    self._degree)

    def __sub__(self, other) -> "Polynomial":
        if other.__class__ is not Polynomial or other.table is not self.table:
            if isinstance(other, int):
                return self._add_int(-other) if other else self
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return -other
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def _scale(self, k: int) -> "Polynomial":
        """``k * self`` for an int k, without a constant polynomial."""
        if not self._terms:
            return self
        if not k:
            return Polynomial.zero(self.table)
        # gcd(k/g, den/g) == 1, so the result is already reduced
        g = gcd(k, self.den)
        if g != 1:
            k //= g
        return _new(self.table, {m: c * k for m, c in self._terms.items()}, self.den // g,
                    self._degree)

    def __mul__(self, other) -> "Polynomial":
        if other.__class__ is not Polynomial or other.table is not self.table:
            if isinstance(other, int):
                return self._scale(other)
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._terms, other._terms
        if not a:
            return self
        if not b:
            return other
        if len(a) * len(b) > TERM_LIMIT:
            raise TermLimitExceeded(
                f"product of {len(a)} x {len(b)} terms "
                f"exceeds the {TERM_LIMIT}-term budget"
            )
        degree = self._degree + other._degree
        if degree > MAX_DEGREE:
            raise DegreeLimitExceeded(
                f"product of degrees {self._degree} and {other._degree} passes "
                f"MAX_DEGREE = {MAX_DEGREE}, the largest value of one {BITS}-bit field"
            )
        terms: dict = {}
        get = terms.get
        b_items = b.items()
        for m1, c1 in a.items():
            for m2, c2 in b_items:
                m = m1 + m2
                terms[m] = get(m, 0) + c1 * c2
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        return _reduced(self.table, terms, self.den * other.den, degree)

    __rmul__ = __mul__

    def __floordiv__(self, n: int) -> "Polynomial":
        """Exact division by a nonzero integer: multiplication by 1/n.

        This is the kernel's ``// 3`` on polynomial coordinates.  There each
        dividend is divisible by 3 at every integer point, so the rational
        quotient takes the same integer values as the floor.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._terms:
            return self
        terms = self._terms if n > 0 else {m: -c for m, c in self._terms.items()}
        return _reduced(self.table, terms, self.den * abs(n), self._degree)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        acc = Polynomial.const(self.table, 1)
        for _ in range(n):
            acc = acc * self
        return acc

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point: Sequence[int]) -> Scalar:
        """Exact value at an integer point (one value per table variable)."""
        n = len(self.table)
        if len(point) != n:
            raise ValueError(f"need {n} values, got {len(point)}")
        total = 0
        for key, c in self._terms.items():
            for var, e in _unpack(key, n):
                c *= point[var] ** e
            total += c
        return _decode(total, self.den)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        n = len(self.table)
        parts = []
        # decreasing keys: graded lexicographic, highest degree first
        for key in sorted(self._terms, reverse=True):
            c = _decode(self._terms[key], self.den)
            factors = "*".join(
                f"{self.table.names[v]}^{e}" if e > 1 else self.table.names[v]
                for v, e in _unpack(key, n)
            )
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(factors)
            elif c == -1:
                parts.append(f"-{factors}")
            else:
                parts.append(f"{c}*{factors}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# Slot setters that bypass the immutability guard of Polynomial.__setattr__.
_set_table = Polynomial.table.__set__
_set_terms = Polynomial._terms.__set__
_set_den = Polynomial.den.__set__
_set_degree = Polynomial._degree.__set__
