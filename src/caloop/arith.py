"""Exact scalars: the exponent maps alpha and beta, and rationals.

Every quantity in this package is an exact integer or rational; nothing is
ever rounded.  Python ints are already arbitrary precision, so the integer
"type" of the library is plain ``int``.  Rationals are ``fractions.Fraction``
(always reduced, positive denominator, structural equality).  The finite
quotient loops need no residue type: they reduce the exact integer (or int64
array) results of the kernel mod m.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["alpha", "beta", "Rat"]

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
