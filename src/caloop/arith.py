"""Exact arithmetic kernel: the exponent maps alpha and beta, rationals, residues.

Every quantity in this package is an exact integer or rational; nothing is
ever rounded.  Python ints are already arbitrary precision, so the integer
"type" of the library is plain ``int``.  Rationals are ``fractions.Fraction``
(always reduced, positive denominator, structural equality).  ``ModInt`` is a
tiny residue type used by the finite quotient loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["alpha", "beta", "Rat", "ModInt", "ModulusMismatch"]

# Exact rational scalar; reduced form and positive denominator are guaranteed
# by the Fraction constructor, so == is both structural and semantic.
Rat = Fraction


def alpha(n: int) -> int:
    """Return (n^3 - n) / 3, which is an integer for every integer n."""
    m = n * n * n - n
    q, r = divmod(m, 3)
    if r:
        raise ValueError(f"3 does not divide {n}^3 - {n}: {n} is not an integer")
    return q


def beta(n: int) -> int:
    """Return n^2 - n."""
    return n * n - n


class ModulusMismatch(ValueError):
    """Raised when combining residues with different moduli."""


@dataclass(frozen=True)
class ModInt:
    """A residue in [0, m) under arithmetic mod m."""

    residue: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus <= 0:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def _check(self, other: "ModInt") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"cannot combine residues mod {self.modulus} and mod {other.modulus}"
            )

    def __add__(self, other: "ModInt") -> "ModInt":
        self._check(other)
        return ModInt(self.residue + other.residue, self.modulus)

    def __mul__(self, other: "ModInt") -> "ModInt":
        self._check(other)
        return ModInt(self.residue * other.residue, self.modulus)

    def __neg__(self) -> "ModInt":
        return ModInt(-self.residue, self.modulus)

    def __sub__(self, other: "ModInt") -> "ModInt":
        return self + (-other)

    def __repr__(self) -> str:
        return f"{self.residue} (mod {self.modulus})"
