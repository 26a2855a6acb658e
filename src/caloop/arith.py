"""The exponent maps alpha and beta, and :class:`Magnitude` bounds on the kernel.

alpha(n) = (n^3 - n)/3 and beta(n) = n^2 - n are the exponents of the
paper's power formulas.  The kernel in :mod:`caloop.core` inlines them in
its ``+ - *`` and exact ``// 3``, so that one formula runs on ints,
polynomials and int8-int64 arrays; these functions are their exact integer
form.  Every quantity in this package is an exact integer or rational;
nothing is ever rounded.
"""

from __future__ import annotations

__all__ = ["alpha", "beta", "Magnitude"]


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


class Magnitude:
    """An upper bound on |x|, carried through the kernel's + - * and exact // 3.

    |x + y| and |x - y| are at most |x| + |y|, |x * y| is |x| |y|, and an
    exact x // 3 is |x| / 3, so running the kernel on magnitudes bounds every
    value the same run forms on integers.  ``peak`` holds the largest bound.
    """

    __slots__ = ("bound", "peak")

    def __init__(self, bound: int, peak: list):
        self.bound = bound
        self.peak = peak
        if bound > peak[0]:
            peak[0] = bound

    def __add__(self, other) -> "Magnitude":
        return Magnitude(self.bound + _magnitude(other), self.peak)

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other) -> "Magnitude":
        return Magnitude(self.bound * _magnitude(other), self.peak)

    __rmul__ = __mul__

    def __floordiv__(self, other: int) -> "Magnitude":
        return Magnitude(-(-self.bound // abs(other)), self.peak)


def _magnitude(x) -> int:
    return x.bound if isinstance(x, Magnitude) else abs(x)
