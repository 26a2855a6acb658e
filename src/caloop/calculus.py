"""Associator calculus: associators, inner mappings, nuclei and the center.

The associator (a, b, c) is the unique t with (a*b)*c = (a*(b*c))*t, and
the inner mapping L_{a,b} = L_a L_b L_{ba}^-1 sends c to the unique z with
(b*a)*z = b*(a*c).  Both are computed by one hand-factored polynomial
formula each (:func:`assoc_coords`, :func:`inner_l_coords`), in the
kernel's + - * and exact // 3, so the same code runs on ints, on
polynomials and on int8-int64 arrays.  Each formula is proved equal to its
defining equation, solved by exact left division through the loop product,
by the identity catalog in :mod:`caloop.symbolic` (entries
``associator-formula`` and ``inner-map-formula``), for all integer
coordinates.

Membership in the structural subloops uses the coordinate description

    associator subloop = middle nucleus = {a1 = a2 = 0}
    left/right/full nucleus = center    = {a1 = a2 = a3 = a4 = 0}

which the symbolic catalog verifies against the mapping-theoretic
definitions (entries ``middle-nucleus-*`` and ``center-*``).  Each kind's
row of ``_KINDS`` is its number of leading zero coordinates and its witness
slots (0 left, 1 middle, 2 right), which ``_place`` fills and
``_SLOT_NAMES`` names; the catalog builds its slot families with both.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Sequence

from .core import IDENTITY, X, Y, Elem8, _new
from .core import mul_coords  # noqa: F401  (perfbench's tracer rebinds calculus.mul_coords)

__all__ = [
    "associator",
    "inner_l",
    "NucleusKind",
    "is_member",
    "witness_noncentral",
    "Witness",
    "assoc_coords",
    "inner_l_coords",
]


def assoc_coords(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> tuple:
    """Raw-tuple associator (a, b, c), in closed form.

    It depends on a1..a4, b1, b2 and c1..c4 only, and its coordinates 1-2
    are 0.  With d = a1 c2 - a2 c1, coordinates 3-4 are b1 d and b2 d;
    coordinates 5-8 are terms linear in a3, a4, c3, c4, less one exact
    third of a polynomial of degree 5 in a1, a2, b1, b2, c1, c2.  Each
    ``// 3`` is exact: its dividend is d times an integer polynomial plus
    b_i (a1^3 c2 - a2 c1^3) or b_i (a1 c2^3 - a2^3 c1), which is 0 mod 3
    at every integer point (its residue depends only on the inputs mod 3;
    checked over one full period by the tests).
    """
    a1, a2, a3, a4, _, _, _, _ = a
    b1, b2, _, _, _, _, _, _ = b
    c1, c2, c3, c4, _, _, _, _ = c
    x = a1 * c2
    y = a2 * c1
    d = x - y
    e3 = a1 * c3 - a3 * c1
    f4 = a2 * c4 - a4 * c2
    m = a1 * c4 - a4 * c1 + a2 * c3 - a3 * c2
    g1 = a1 * a1 * x - c1 * c1 * y  # a1^3 c2 - a2 c1^3
    g2 = c2 * c2 * x - a2 * a2 * y  # a1 c2^3 - a2^3 c1
    s1 = a1 + c1
    s2 = a2 + c2
    p11 = 3 * a1 * c1
    p22 = 3 * a2 * c2
    return (
        0,
        0,
        b1 * d,
        b2 * d,
        b1 * e3 - b1 * ((b1 * (b1 + 3 * s1) + p11 - 5) * d + g1) // 3,
        b1 * m + b2 * e3
        - ((3 * b1 * (b1 * (s2 + b2) + s1 * (s2 + 2 * b2)) - 6 * b1 + b2 * (p11 - 1)) * d
           + b2 * g1) // 3,
        b2 * m + b1 * f4
        - ((3 * b2 * (b2 * (s1 + b1) + s2 * (s1 + 2 * b1)) - 6 * b2 + b1 * (p22 - 1)) * d
           + b1 * g2) // 3,
        b2 * f4 - b2 * ((b2 * (b2 + 3 * s2) + p22 - 5) * d + g2) // 3,
    )


def inner_l_coords(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> tuple:
    """Raw-tuple image of c under the inner mapping L_{a,b}, in closed form.

    It depends on a1, a2, b1..b4 and all of c, and fixes c1 and c2.  With
    w = b1 c2 - b2 c1, coordinates 3-4 are c3 - a1 w and c4 - a2 w;
    coordinates 5-8 add terms linear in b3, b4, c3, c4, and one exact
    third of a polynomial of degree 5 in a1, a2, b1, b2, c1, c2, which is 0
    mod 3 at every integer point for the same reason as in
    :func:`assoc_coords` (with b1^3 c2 - b2 c1^3 and b1 c2^3 - b2^3 c1).
    """
    a1, a2, _, _, _, _, _, _ = a
    b1, b2, b3, b4, _, _, _, _ = b
    c1, c2, c3, c4, c5, c6, c7, c8 = c
    u = b1 * c2
    v = b2 * c1
    w = u - v
    x3 = b1 * c3 - b3 * c1
    y4 = b2 * c4 - b4 * c2
    m = b1 * c4 - b4 * c1 + b2 * c3 - b3 * c2
    h1 = b1 * b1 * u - c1 * c1 * v  # b1^3 c2 - b2 c1^3
    h2 = c2 * c2 * u - b2 * b2 * v  # b1 c2^3 - b2^3 c1
    q = b1 * b2 + c1 * c2 - 2
    return (
        c1,
        c2,
        c3 - a1 * w,
        c4 - a2 * w,
        c5 - a1 * x3 + a1 * (h1 + (a1 * (a1 + 3 * b1) - 5) * w) // 3,
        c6 - a1 * m - a2 * x3
        + (a2 * h1 + (3 * a1 * (a1 * (a2 + b2) + 2 * a2 * b1 + q) - a2) * w) // 3,
        c7 - a2 * m - a1 * y4
        + (a1 * h2 + (3 * a2 * (a2 * (a1 + b1) + 2 * a1 * b2 + q) - a1) * w) // 3,
        c8 - a2 * y4 + a2 * (h2 + (a2 * (a2 + 3 * b2) - 5) * w) // 3,
    )


def associator(a: Elem8, b: Elem8, c: Elem8) -> Elem8:
    """The associator (a, b, c); unchecked when a, b, c are exactly Elem8 (see Elem8)."""
    if type(a) is Elem8 and type(b) is Elem8 and type(c) is Elem8:
        return _new(Elem8, assoc_coords(a, b, c))
    return Elem8(assoc_coords(a, b, c))


def inner_l(a: Elem8, b: Elem8, c: Elem8) -> Elem8:
    """Image of c under L_{a,b}; unchecked when a, b, c are exactly Elem8 (see Elem8)."""
    if type(a) is Elem8 and type(b) is Elem8 and type(c) is Elem8:
        return _new(Elem8, inner_l_coords(a, b, c))
    return Elem8(inner_l_coords(a, b, c))


class NucleusKind(enum.Enum):
    LEFT = "left"
    MIDDLE = "middle"
    RIGHT = "right"
    FULL = "full"
    CENTER = "center"
    ASSOCIATOR_SUBLOOP = "associator-subloop"


# kind -> (leading coordinates that are 0, slots whose associators witness a non-member)
_KINDS = {
    NucleusKind.LEFT: (4, (0,)),
    NucleusKind.MIDDLE: (2, (1,)),
    NucleusKind.RIGHT: (4, (2,)),
    NucleusKind.FULL: (4, (0, 1, 2)),
    NucleusKind.CENTER: (4, (0, 1, 2)),
    NucleusKind.ASSOCIATOR_SUBLOOP: (2, (1,)),
}
_SLOT_NAMES = ("left", "middle", "right")


def _place(pair: Sequence, slot: int, w) -> tuple:
    """The three associator arguments with w in `slot` (0, 1 or 2) and the
    two of `pair` filling the other slots in order."""
    return (*pair[:slot], w, *pair[slot:])


def is_member(z: Elem8, kind: NucleusKind) -> bool:
    """Coordinate test for membership in the named structural subloop."""
    return not any(z[:_KINDS[kind][0]])


class Witness(NamedTuple):
    """Concrete elements showing z is outside a nucleus: the associator with
    z placed in `slot` (a name in ``_SLOT_NAMES``) among (a, b) is not 1."""

    a: Elem8
    b: Elem8
    slot: str
    value: Elem8


# Pairs that provably detect every non-member: (x,x,.) sees the y-exponent
# and, once a1 = a2 = 0, the u-exponents; (y,y,.) sees the x-exponent;
# (x,.,y) pins both generator exponents for the middle nucleus.
_CANDIDATE_PAIRS = ((X, X), (Y, Y), (X, Y), (Y, X))


def witness_noncentral(kind: NucleusKind, z: Elem8) -> Optional[Witness]:
    """Return elements witnessing that z lies outside the given subloop.

    Returns None when z is a member.  For a non-member the witness always
    exists among associators with generator pairs.
    """
    if is_member(z, kind):
        return None
    for slot in _KINDS[kind][1]:
        for a, b in _CANDIDATE_PAIRS:
            value = associator(*_place((a, b), slot, z))
            if value != IDENTITY:
                return Witness(a, b, _SLOT_NAMES[slot], value)
    raise AssertionError(f"no witness found for {z!r} and {kind}")  # pragma: no cover
