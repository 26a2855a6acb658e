"""The exponent maps alpha and beta.

alpha(n) = (n^3 - n)/3 and beta(n) = n^2 - n are the exponents of the
paper's power formulas.  The kernel in :mod:`caloop.core` inlines them in
its ``+ - *`` and exact ``// 3``, so that one formula runs on ints,
polynomials and int64 arrays; these functions are their exact integer
form.  Every quantity in this package is an exact integer or rational;
nothing is ever rounded.
"""

from __future__ import annotations

__all__ = ["alpha", "beta"]


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
