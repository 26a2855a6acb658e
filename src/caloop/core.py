"""The free 2-generated commutative automorphic loops of nilpotency class 3 and 2.

Elements of the class-3 loop are 8-tuples of integers: the exponents
(a1..a8) in the unique canonical word

    (x^a1 y^a2 . u1^a3 u2^a4) v1^a5 v2^a6 v3^a7 v4^a8

over the free generators x, y, the associators u1 = (x,x,y), u2 = (x,y,y)
and the compounded associators v1 = (x,x,u1), v2 = (x,x,u2), v3 = (y,y,u1),
v4 = (y,y,u2).  Multiplication is an explicit polynomial map on exponents;
it is total, commutative, and has exact two-sided division.

The class-2 loop lives on 4-tuples (exponents of x, y, u1, u2) and is the
image of the class-3 loop under truncation to the first four coordinates.
Its product :func:`mul4_coords` is :func:`mul_coords` on zero-padded
4-tuples, cut to four coordinates, so the formula is written once.

The inverse of a is -a, coordinate by coordinate (:func:`inv_coords`); the
catalog entry ``inverse-negation`` proves a * (-a) = 1, and the catalog's
inverse laws (the automorphic inverse property, the associator reversals,
``power-negation``) are proved about this function.

Powers have a closed form: every coordinate of a^n is a polynomial in n of
degree at most 5, so :func:`pow_closed_form` evaluates one formula P(n; a)
in O(1) arithmetic operations instead of multiplying |n| times.
:func:`pow_coords` is that formula for an integer exponent: it refuses any
other n, which the formula alone would accept (a float n gives float
coordinates).

The `*_coords` functions are the raw kernel on plain tuples (hot paths use
them directly); :class:`Elem8` / :class:`Elem4` wrap them with operators.
The product, division and power use only + - * and exact // (by 3, and by
15 in the power), so the same code also runs on tuples of polynomials,
where the identity catalog in :mod:`caloop.symbolic` proves its laws
(including, with ``power-*`` entries and a polynomial exponent, that
P(n; a) is the iterated product), and on tuples of int8-int64 arrays, for
the finite quotients in :mod:`caloop.quotient`, each at the narrowest width
that holds every value the formula forms at the modulus.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Sequence

__all__ = [
    "Elem8",
    "Elem4",
    "IDENTITY",
    "IDENTITY4",
    "X",
    "Y",
    "U1",
    "U2",
    "V1",
    "V2",
    "V3",
    "V4",
    "basis",
    "mul_coords",
    "left_div_coords",
    "inv_coords",
    "pow_coords",
    "pow_closed_form",
    "mul4_coords",
    "project_coords",
]

Coords8 = tuple  # 8 ints
Coords4 = tuple  # 4 ints

_ZERO8 = (0, 0, 0, 0, 0, 0, 0, 0)
_ZERO4 = (0, 0, 0, 0)


def mul_coords(a: Sequence[int], b: Sequence[int]) -> Coords8:
    """Product of two canonical 8-tuples of exponents.

    The first two coordinates add; coordinates 3-8 add and pick up a
    correction polynomial in the earlier coordinates of both factors.
    The expression is symmetric in (a, b), so the loop is commutative.

    The corrections are written in the symmetric functions of the factors:
    s_i = a_i + b_i, p11 = a1 b1, p22 = a2 b2, q1 = s1^2, q2 = s2^2,
    t1 = p11 s2, t2 = p22 s1 and cross = a1 b2 + a2 b1, which takes 22
    multiplications.

    Each ``// 3`` is exact on integers.  Two dividends are t2 (q1 - 1) =
    p22 (s1^3 - s1) and t1 (q2 - 1) = p11 (s2^3 - s2), and 3 divides
    n^3 - n for every n.  The other two are t1 (q1 + p11 - 5) and its
    mirror image t2 (q2 + p22 - 5).  Either
    3 divides p11 = a1 b1, or a1 and b1 are both nonzero mod 3, so
    a1 = b1 or a1 = -b1 mod 3; then q1 + p11 - 5 is 1 + 1 - 5 or
    0 - 1 - 5 mod 3, which is 0 either way (likewise for a2, b2).
    """
    a1, a2, a3, a4, a5, a6, a7, a8 = a
    b1, b2, b3, b4, b5, b6, b7, b8 = b

    s1 = a1 + b1
    s2 = a2 + b2
    s3 = a3 + b3
    s4 = a4 + b4
    p11 = a1 * b1
    p22 = a2 * b2
    q1 = s1 * s1
    q2 = s2 * s2
    t1 = p11 * s2
    t2 = p22 * s1
    cross = a1 * b2 + a2 * b1

    return (
        s1,
        s2,
        s3 - t1,
        s4 + t2,
        a5 + b5 + t1 * (q1 + p11 - 5) // 3 - p11 * s3,
        a6 + b6 + p11 * (s1 * q2 - 2 * s2 - s4) - t2 * (q1 - 1) // 3 - s3 * cross,
        a7 + b7 - p22 * (q1 * s2 - 2 * s1 + s3) + t1 * (q2 - 1) // 3 - s4 * cross,
        a8 + b8 - t2 * (q2 + p22 - 5) // 3 - p22 * s4,
    )


def left_div_coords(
    a: Sequence[int], c: Sequence[int], mul: Callable = mul_coords
) -> Coords8:
    """The unique b with mul(a, b) == c.

    Closed-form back-substitution: coordinates 1-2 of the product are linear
    in b, coordinates 3-4 depend additionally only on b1, b2, and
    coordinates 5-8 only on b1..b4, so each block is solved by subtracting a
    product with the already-known block (no search involved).  ``mul`` is
    the product to invert; the identity catalog passes a deliberately wrong
    one in its mutation run.  The target is unpacked, as the product unpacks
    its factors, so a target of any length but 8 raises ``ValueError``.
    """
    c1, c2, c3, c4, c5, c6, c7, c8 = c
    b1 = c1 - a[0]
    b2 = c2 - a[1]
    t = mul(a, (b1, b2, 0, 0, 0, 0, 0, 0))
    b3 = c3 - t[2]
    b4 = c4 - t[3]
    t = mul(a, (b1, b2, b3, b4, 0, 0, 0, 0))
    return (b1, b2, b3, b4, c5 - t[4], c6 - t[5], c7 - t[6], c8 - t[7])


def inv_coords(a: Sequence[int]) -> Coords8:
    """Inverse element: the unique b with a * b = identity.

    It is the negation of every coordinate; the catalog entry
    ``inverse-negation`` proves a * (-a) = 1 with products only, and
    ``division-round-trip`` makes that b unique, so -a = a \\ 1.
    """
    a1, a2, a3, a4, a5, a6, a7, a8 = a
    return (-a1, -a2, -a3, -a4, -a5, -a6, -a7, -a8)


def pow_coords(a: Sequence[int], n: int) -> Coords8:
    """n-th power a^n for an integer n; TypeError for any other n.

    Evaluates :func:`pow_closed_form` after ``operator.index(n)``, the same
    check ``range(n)`` makes; ``a`` may hold ints or polynomials.
    """
    return pow_closed_form(a, operator.index(n))


def pow_closed_form(a: Sequence, n) -> tuple:
    """n-th power a^n in one closed form P(n; a); n is an int or a polynomial.

    Each coordinate of a^n is a polynomial in n of degree at most 5 (its
    sixth forward difference in n vanishes): coordinates 1-2 are n*a1 and
    n*a2, coordinates 3-4 add alpha(n) = (n^3 - n)/3 times a cubic in a1, a2,
    and coordinates 5-8 add a degree-5 part over the common denominator
    45 = 3 * 15.  Negative n needs no inverse.  The catalog entries
    ``power-zero``, ``power-recurrence`` and ``power-negation`` prove
    P(0; a) = 1, P(n+1; a) = P(n; a) * a and P(-n; a) = P(n; a^-1), so P is
    the iterated power a * a * ... * a for every integer n.

    Subterms shared between coordinates (a1^2 a2, a1 a2^2, their alpha
    multiples, 6n^2 + 1, 9n^2 + 4) are formed once: 38 multiplications.
    Each ``// 15`` is exact on integers: its dividend is alpha(n) times an
    integer polynomial whose a3, a4 terms are multiples of 15, so its
    residue mod 15 depends only on n mod 45 and a1, a2 mod 15, and every
    such class is divisible (checked by the tests).  The code uses only
    + - * and exact //, so it also runs on polynomials.
    """
    a1, a2, a3, a4, a5, a6, a7, a8 = a
    nn = n * n
    al = (nn * n - n) // 3  # alpha(n)
    p11, p22, p12 = a1 * a1, a2 * a2, a1 * a2
    p112, p122 = p12 * a1, p12 * a2  # a1^2 a2, a1 a2^2
    al11, al22, al12 = al * p11, al * p22, al * p12
    al112, al122 = al * p112, al * p122
    k6, k9 = 6 * nn + 1, 9 * nn + 4
    return (
        n * a1,
        n * a2,
        n * a3 - al112,
        n * a4 + al122,
        n * a5 - al11 * a3 + al112 * (p11 * k6 - 25) // 15,
        n * a6 - al11 * a4 + al12 * (p112 * k9 - 30 * (a1 + a3) + 5 * a2) // 15,
        n * a7 - al22 * a3 - al12 * (p122 * k9 + 5 * a1 + 30 * (a4 - a2)) // 15,
        n * a8 - al22 * a4 - al122 * (p22 * k6 - 25) // 15,
    )


def mul4_coords(a: Sequence[int], b: Sequence[int]) -> Coords4:
    """Product in the class-2 loop on 4-tuples of exponents.

    Coordinates 1-4 of :func:`mul_coords` on the zero-padded inputs.  The
    catalog entry ``projection-homomorphism`` proves that coordinates 1-4 of
    a product do not depend on coordinates 5-8, so this is the product of
    the image of truncation.
    """
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    return mul_coords((a1, a2, a3, a4, 0, 0, 0, 0), (b1, b2, b3, b4, 0, 0, 0, 0))[:4]


def project_coords(a: Sequence[int]) -> Coords4:
    """Truncation to the first four coordinates; a homomorphism onto the class-2 loop."""
    return (a[0], a[1], a[2], a[3])


# Coordinates must be exactly ``int``: ``bool`` subclasses ``int`` but is not a
# coordinate.  ``_INT.issuperset(map(type, coords))`` is also the cheapest form
# of the check, which runs on every product.
_INT = frozenset((int,))

# _new(cls, coords) stores coords unchecked: the operators build a result so
# when the check cannot fail (see Elem8), and caloop.words builds its nodes so.
_new = tuple.__new__


class _Element(tuple):
    """Exactly ``_LENGTH`` coordinates of type exactly ``int``, checked on construction."""

    __slots__ = ()
    _LENGTH: int

    def __new__(cls, coords: Iterable[int]):
        coords = tuple(coords)
        if len(coords) != cls._LENGTH or not _INT.issuperset(map(type, coords)):
            raise ValueError(f"{cls.__name__} needs exactly {cls._LENGTH} integers, got {coords!r}")
        return super().__new__(cls, coords)

    @property
    def coords(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{tuple(self)!r}"


class Elem8(_Element):
    """An element of the class-3 loop: 8 integer exponents in canonical form.

    Supports ``*`` (loop product), ``**`` (integer powers), ``~`` and
    :meth:`inverse`, and :meth:`left_divide`.  Instances are immutable and
    hashable; any 8-tuple of integers is a valid element.

    ``Elem8(coords)`` checks its input: exactly 8 coordinates, each of type
    exactly ``int``.  The operators, :func:`caloop.calculus.associator` and
    :func:`caloop.calculus.inner_l` skip that check, with one
    ``tuple.__new__(Elem8, coords)`` call, when every operand, ``self``
    included, has type exactly ``Elem8``, because it cannot fail:
    such an operand holds 8 exact ints (put there by the check or by this
    same argument), each kernel function returns an 8-tuple, and it applies
    only + - * and // to those ints and to int constants (and, for a power,
    to ``operator.index(n)``, an exact int even for an int subclass), which
    gives exact ints again.
    A result from any other operand (a plain tuple, whose coordinates may be
    floats or bools, or a subclass, which may store or iterate over anything)
    still goes through ``Elem8(...)``.  :func:`caloop.words.evaluate` skips
    it by the same argument, made on the leaves of the word it evaluates.
    """

    __slots__ = ()
    _LENGTH = 8

    def __mul__(self, other: "Elem8") -> "Elem8":
        if type(self) is Elem8 and type(other) is Elem8:
            return _new(Elem8, mul_coords(self, other))
        return Elem8(mul_coords(self, other))

    def __pow__(self, n: int) -> "Elem8":
        if type(self) is Elem8:
            return _new(Elem8, pow_coords(self, n))
        return Elem8(pow_coords(self, n))

    def __invert__(self) -> "Elem8":
        if type(self) is Elem8:
            return _new(Elem8, inv_coords(self))
        return Elem8(inv_coords(self))

    inverse = __invert__

    def left_divide(self, target: "Elem8") -> "Elem8":
        """Return the unique b with self * b == target."""
        if type(self) is Elem8 and type(target) is Elem8:
            return _new(Elem8, left_div_coords(self, target))
        return Elem8(left_div_coords(self, target))

    def project(self) -> "Elem4":
        return Elem4(project_coords(self))


class Elem4(_Element):
    """An element of the class-2 loop: 4 integer exponents x, y, u1, u2."""

    __slots__ = ()
    _LENGTH = 4

    def __mul__(self, other: "Elem4") -> "Elem4":
        return Elem4(mul4_coords(self, other))


IDENTITY = Elem8(_ZERO8)
IDENTITY4 = Elem4(_ZERO4)
_BASIS = tuple(Elem8(_ZERO8[:k] + (1,) + _ZERO8[k + 1:]) for k in range(8))
X, Y, U1, U2, V1, V2, V3, V4 = _BASIS


def basis(i: int) -> Elem8:
    """The i-th basis element (1-based): 1 in coordinate i, 0 elsewhere.

    ``i`` is read through ``operator.index``, so a float (even 2.0) is a
    TypeError; an index outside 1..8 is a ValueError.  The eight elements are
    built once: ``basis(1) is X``.
    """
    i = operator.index(i)
    if not 1 <= i <= 8:
        raise ValueError(f"basis index must be 1..8, got {i}")
    return _BASIS[i - 1]
