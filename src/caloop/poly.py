"""Sparse multivariate polynomials with exact rational coefficients.

Only what the identity prover needs to run the integer kernel of
:mod:`caloop.core` on polynomial coordinates: ring arithmetic, exact
division by an integer, structural zero testing, substitution and
evaluation.  A polynomial is a map from monomials to nonzero coefficients;
the zero polynomial is the empty map, so equality of the maps is equality
of polynomials.

Monomials are packed integers (Monagan & Pearce, *Sparse polynomial
division using a heap*, JSC 2011; Maple's ``sdmp``).  Over a table of n
variables a key has n + 1 fields of ``BITS`` bits.  The top field holds the
total degree; below it come the exponents of variable 0, 1, ..., n - 1, so
variable n - 1 sits in the lowest field::

    key = deg << (n * BITS) | e_0 << ((n - 1) * BITS) | ... | e_{n-1}

This layout gives three things:

* the product of two monomials is the sum of their keys, one integer ``+``;
* the largest key has the largest degree, so the degree of a polynomial is
  ``max(keys) >> (n * BITS)``, computed in C, and the peak degree the
  prover reports stays exact at that cost;
* keys in decreasing order are graded lexicographic order, the display
  order of :meth:`Polynomial.__str__`.

Each field is one byte (``BITS = 8``), so ``key.to_bytes(n + 1, "big")``
lists the degree and then the exponents in variable order.

The guard: a field holds at most ``MAX_DEGREE = 2**BITS - 1``, and no
exponent exceeds the total degree.  So a product of degrees d and e cannot
carry out of any field when d + e <= MAX_DEGREE, and ``*`` refuses every
other product with :class:`DegreeLimitExceeded` before it adds a key.

The packed keys are internal.  :attr:`Polynomial.terms` is a read-only
view in the documented form ``{((var, exp), ...): coeff}``, with the pairs
sorted by variable index and every exponent positive; the constructor takes
that form too.

Coefficients are stored as ints when integral and ``Fraction`` otherwise
(the exponent map n -> (n^3 - n)/3 introduces thirds); mixed arithmetic and
equality between the two are exact, and int coefficients keep the common
case fast.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

__all__ = [
    "BITS",
    "MAX_DEGREE",
    "VarTable",
    "Polynomial",
    "VariableTableMismatch",
    "TermLimitExceeded",
    "DegreeLimitExceeded",
    "set_term_limit",
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


_term_limit = 10_000_000

# Peak sizes seen since the last reset; the identity prover reports these.
_peak_degree = 0
_peak_terms = 0


def set_term_limit(limit: int) -> None:
    """Set the global cap on term counts of intermediate polynomials."""
    global _term_limit
    _term_limit = limit


def reset_stats() -> None:
    global _peak_degree, _peak_terms
    _peak_degree = 0
    _peak_terms = 0


def peak_stats() -> tuple:
    """(max total degree, max term count) of any polynomial built since reset."""
    return _peak_degree, _peak_terms


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

    def index(self, name: str) -> int:
        return self.names.index(name)


def _norm_coeff(c: Scalar) -> Scalar:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


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


def _track(table: VarTable, terms: dict) -> int:
    """Check the term budget, record the peak term count and degree, and
    return the degree of ``terms`` (packed keys, nonzero coefficients)."""
    global _peak_degree, _peak_terms
    n = len(terms)
    if n > _term_limit:
        raise TermLimitExceeded(
            f"polynomial with {n} terms exceeds the {_term_limit}-term budget"
        )
    if n > _peak_terms:
        _peak_terms = n
    degree = max(terms) >> table._degree_shift if terms else 0
    if degree > _peak_degree:
        _peak_degree = degree
    return degree


def _new(table: VarTable, terms: dict) -> "Polynomial":
    """A polynomial on packed terms with nonzero coefficients."""
    p = object.__new__(Polynomial)
    _set_degree(p, _track(table, terms))
    _set_table(p, table)
    _set_terms(p, terms)
    return p


class _TermsView(Mapping):
    """Read-only ``{((var, exp), ...): coeff}`` view of packed terms."""

    __slots__ = ("_table", "_packed")

    def __init__(self, table: VarTable, packed: dict):
        self._table = table
        self._packed = packed

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
        return self._packed[key]


class Polynomial:
    """Immutable sparse polynomial over a :class:`VarTable`."""

    __slots__ = ("table", "_terms", "_degree")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, Scalar]):
        """The polynomial ``sum(c * mon)`` over ``{mon: c}`` in the form of
        :attr:`terms`; zero coefficients are dropped."""
        packed: dict = {}
        for mon, c in terms.items():
            key = _pack(table, mon)
            packed[key] = packed.get(key, 0) + c
        packed = {k: _norm_coeff(c) for k, c in packed.items() if c}
        _set_degree(self, _track(table, packed))
        _set_table(self, table)
        _set_terms(self, packed)

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> Mapping:
        """``{((var, exp), ...): coeff}``, decoded from the packed keys."""
        return _TermsView(self.table, self._terms)

    @classmethod
    def zero(cls, table: VarTable) -> "Polynomial":
        return _new(table, {})

    @classmethod
    def const(cls, table: VarTable, value: Scalar) -> "Polynomial":
        value = _norm_coeff(value)
        return _new(table, {0: value} if value != 0 else {})

    @classmethod
    def var(cls, table: VarTable, index: int) -> "Polynomial":
        if not 0 <= index < len(table):
            raise IndexError(f"variable index {index} out of range")
        return _new(table, {_pack(table, ((index, 1),)): 1})

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
        return self.table == other.table and self._terms == other._terms

    def __hash__(self):
        # a constant equals its scalar (see __eq__), so it hashes like it
        if self._degree == 0:
            return hash(self._terms.get(0, 0))
        return hash((self.table, tuple(sorted(self._terms.items()))))

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

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        terms = dict(big)
        for mon, c in small.items():
            s = terms.get(mon, 0) + c
            if s == 0:
                del terms[mon]
            else:
                terms[mon] = _norm_coeff(s)
        return _new(self.table, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _new(self.table, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) * len(b) > _term_limit:
            raise TermLimitExceeded(
                f"product of {len(a)} x {len(b)} terms "
                f"exceeds the {_term_limit}-term budget"
            )
        if self._degree + other._degree > MAX_DEGREE:
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
        return _new(self.table, {
            m: int(c) if c.__class__ is Fraction and c.denominator == 1 else c
            for m, c in terms.items() if c
        })

    __rmul__ = __mul__

    def __floordiv__(self, n: int) -> "Polynomial":
        """Exact division by a nonzero integer: multiplication by 1/n.

        This is the kernel's ``// 3`` on polynomial coordinates.  There it
        divides n^3 - n, which 3 divides at every integer point, so the
        rational quotient takes the same integer values as the floor.
        """
        if not isinstance(n, int):
            return NotImplemented
        return self * Fraction(1, n)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        acc = Polynomial.const(self.table, 1)
        for _ in range(n):
            acc = acc * self
        return acc

    # -- substitution / evaluation ----------------------------------------

    def substitute(self, assignment: Mapping[int, Union["Polynomial", Scalar]]) -> "Polynomial":
        """Replace the given variables (by index) with polynomials or scalars."""
        repl = {}
        for v, val in assignment.items():
            repl[v] = val if isinstance(val, Polynomial) else Polynomial.const(self.table, val)
            self._check(repl[v])
        n = len(self.table)
        acc = Polynomial.zero(self.table)
        for key, c in self._terms.items():
            term = Polynomial.const(self.table, c)
            for v, e in _unpack(key, n):
                if v in repl:
                    term = term * repl[v] ** e
                else:
                    term = term * Polynomial(self.table, {((v, e),): 1})
            acc = acc + term
        return acc

    def evaluate(self, point: Sequence[int]) -> Scalar:
        """Exact value at an integer point (one value per table variable)."""
        n = len(self.table)
        if len(point) != n:
            raise ValueError(f"need {n} values, got {len(point)}")
        total: Scalar = 0
        for key, c in self._terms.items():
            for var, e in _unpack(key, n):
                c *= point[var] ** e
            total += c
        return _norm_coeff(total)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        n = len(self.table)
        parts = []
        # decreasing keys: graded lexicographic, highest degree first
        for key in sorted(self._terms, reverse=True):
            c = self._terms[key]
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
_set_degree = Polynomial._degree.__set__
