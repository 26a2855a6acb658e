"""Sparse multivariate polynomials with exact rational coefficients.

Only what the identity prover needs to run the integer kernel of
:mod:`caloop.core` on polynomial coordinates: ring arithmetic, exact
division by an integer, structural zero testing, substitution and
evaluation.  A polynomial is a map from monomials to nonzero coefficients;
the zero polynomial is the empty map, so equality of the maps is equality
of polynomials.  Monomials are canonical tuples of (variable index,
positive exponent) pairs sorted by index.

Coefficients are stored as ints when integral and ``Fraction`` otherwise
(the exponent map n -> (n^3 - n)/3 introduces thirds); mixed arithmetic and
equality between the two are exact, and int coefficients keep the common
case fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "VarTable",
    "Polynomial",
    "VariableTableMismatch",
    "TermLimitExceeded",
    "set_term_limit",
    "reset_stats",
    "peak_stats",
]

Scalar = Union[int, Fraction]
Monomial = tuple  # ((var_index, exponent), ...) sorted, exponents > 0


class VariableTableMismatch(ValueError):
    """Raised when combining polynomials over different variable tables."""


class TermLimitExceeded(RuntimeError):
    """Raised when an intermediate polynomial would exceed the term budget."""


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

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


def _norm_coeff(c: Scalar) -> Scalar:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Polynomial:
    """Immutable sparse polynomial over a :class:`VarTable`."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, Scalar]):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", dict(terms))
        self._track()

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, table: VarTable) -> "Polynomial":
        return cls(table, {})

    @classmethod
    def const(cls, table: VarTable, value: Scalar) -> "Polynomial":
        value = _norm_coeff(value)
        return cls(table, {(): value} if value != 0 else {})

    @classmethod
    def var(cls, table: VarTable, index: int) -> "Polynomial":
        if not 0 <= index < len(table):
            raise IndexError(f"variable index {index} out of range")
        return cls(table, {((index, 1),): 1})

    def _track(self) -> None:
        global _peak_degree, _peak_terms
        n = len(self.terms)
        if n > _term_limit:
            raise TermLimitExceeded(
                f"polynomial with {n} terms exceeds the {_term_limit}-term budget"
            )
        if n > _peak_terms:
            _peak_terms = n
        d = self.degree()
        if d > _peak_degree:
            _peak_degree = d

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(e for _, e in mon) for mon in self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.table, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):  # pragma: no cover
        return hash((self.table, tuple(sorted(self.terms.items()))))

    def _check(self, other: "Polynomial") -> None:
        if self.table != other.table:
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
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            s = terms.get(mon, 0) + c
            if s == 0:
                terms.pop(mon, None)
            else:
                terms[mon] = _norm_coeff(s)
        return Polynomial(self.table, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.table, {m: -c for m, c in self.terms.items()})

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
        if len(self.terms) * len(other.terms) > _term_limit:
            raise TermLimitExceeded(
                f"product of {len(self.terms)} x {len(other.terms)} terms "
                f"exceeds the {_term_limit}-term budget"
            )
        terms: dict = {}
        for m1, c1 in self.terms.items():
            e1 = dict(m1)
            for m2, c2 in other.terms.items():
                e = dict(e1)
                for v, k in m2:
                    e[v] = e.get(v, 0) + k
                mon = tuple(sorted(e.items()))
                s = terms.get(mon, 0) + c1 * c2
                if s == 0:
                    terms.pop(mon, None)
                else:
                    terms[mon] = _norm_coeff(s)
        return Polynomial(self.table, terms)

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
        acc = Polynomial.zero(self.table)
        for mon, c in self.terms.items():
            term = Polynomial.const(self.table, c)
            for v, e in mon:
                if v in repl:
                    term = term * repl[v] ** e
                else:
                    term = term * Polynomial(self.table, {((v, e),): 1})
            acc = acc + term
        return acc

    def evaluate(self, point: Sequence[int]) -> Scalar:
        """Exact value at an integer point (one value per table variable)."""
        if len(point) != len(self.table):
            raise ValueError(f"need {len(self.table)} values, got {len(point)}")
        total: Scalar = 0
        for mon, c in self.terms.items():
            v = c
            for var, e in mon:
                v *= point[var] ** e
            total += v
        return _norm_coeff(total)

    # -- display -----------------------------------------------------------

    def _sorted_terms(self) -> list:
        # graded lexicographic, highest degree first
        def key(item):
            mon, _ = item
            exps = [0] * len(self.table)
            for v, e in mon:
                exps[v] = e
            return (-sum(e for _, e in mon), [-e for e in exps])

        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mon, c in self._sorted_terms():
            factors = "*".join(
                f"{self.table.names[v]}^{e}" if e > 1 else self.table.names[v]
                for v, e in mon
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

