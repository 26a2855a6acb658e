"""Shared helpers for the test suite: samplers, power caches, parser goldens."""

import collections
import operator
import random

from caloop import core
from caloop.core import Elem8, inv_coords, mul_coords

SEED = 20260808  # fixed seed for every randomized suite
DEFAULT_SPAN = 4  # random coordinates are drawn from [-DEFAULT_SPAN, DEFAULT_SPAN]


def make_rng(salt: int = 0) -> random.Random:
    return random.Random(SEED + salt)


def random_coords(rng: random.Random, span: int = DEFAULT_SPAN) -> tuple:
    return tuple(rng.randint(-span, span) for _ in range(8))


def mulmany(factors) -> tuple:
    acc = (0,) * 8
    for f in factors:
        acc = mul_coords(acc, f)
    return acc


class PowCache:
    """Shared iterated-multiplication powers of one element.

    Uses exactly the recurrences p^(n+1) = p^n * p and p^-(n+1) = p^-n * p^-1,
    so cached values are built from the product alone; criterion 4 checks
    them against the closed form pow_coords.
    """

    def __init__(self, base):
        self.base = tuple(base)
        self.inv = inv_coords(base)
        self._up = [(0,) * 8]
        self._down = [(0,) * 8]

    def get(self, n: int):
        if n >= 0:
            while len(self._up) <= n:
                self._up.append(mul_coords(self._up[-1], self.base))
            return self._up[n]
        n = -n
        while len(self._down) <= n:
            self._down.append(mul_coords(self._down[-1], self.inv))
        return self._down[n]


class Unchecked(Elem8):
    """An Elem8 subclass that stores its coordinates without the check."""

    def __new__(cls, coords):
        return tuple.__new__(cls, coords)


def is_exact_elem8(e) -> bool:
    """e is an Elem8, not a subclass, of 8 coordinates of type exactly int."""
    return type(e) is Elem8 and len(e) == 8 and all(type(c) is int for c in e)


class Counted:
    """An integer that tallies each + - * // it takes part in, in a shared Counter.

    The kernels use no other operator, so running one on Counted values
    counts its arithmetic at run time, the same on every Python version;
    any other operator raises ``TypeError``.
    """

    __slots__ = ("value", "tally")

    def __init__(self, value: int, tally: collections.Counter):
        self.value, self.tally = value, tally


def _counting(symbol, fn):
    def op(self, other):
        self.tally[symbol] += 1
        return Counted(fn(self.value, getattr(other, "value", other)), self.tally)
    return op


for _symbol, _fn, _names in (("+", operator.add, ("__add__", "__radd__")),
                             ("-", operator.sub, ("__sub__", "__rsub__")),
                             ("*", operator.mul, ("__mul__", "__rmul__")),
                             ("//", operator.floordiv, ("__floordiv__", "__rfloordiv__"))):
    setattr(Counted, _names[0], _counting(_symbol, _fn))
    setattr(Counted, _names[1], _counting(_symbol, lambda x, y, fn=_fn: fn(y, x)))


def count_operations(kernel, *args) -> dict:
    """The + - * // that ``kernel(*args)`` performs, each argument a tuple of
    ints or an int; the values it returns are checked against the int run."""
    tally = collections.Counter()
    wrapped = [Counted(x, tally) if isinstance(x, int) else tuple(Counted(c, tally) for c in x)
               for x in args]
    result = kernel(*wrapped)
    assert tuple(getattr(c, "value", c) for c in result) == kernel(*args)
    return dict(tally)


def count_checks(monkeypatch) -> list:
    """Patch the checking constructor of Elem8 and Elem4 to log each call."""
    calls = []
    check = core._Element.__new__

    def counted(cls, coords):
        calls.append(cls)
        return check(cls, coords)

    monkeypatch.setattr(core._Element, "__new__", staticmethod(counted))
    return calls


E = {i: tuple(1 if k == i - 1 else 0 for k in range(8)) for i in range(1, 9)}
ZERO8 = (0,) * 8

# Parser golden suite: expression, expected coordinates, and (where pinned)
# the canonical rendering of the value.  Every value is hand-evaluated from
# the defining equations or is a generator/literal.
GOLDEN_WORDS = [
    ("x", E[1], "x"),
    ("y", E[2], "y"),
    ("u1", E[3], "u1"),
    ("u2", E[4], "u2"),
    ("v1", E[5], "v1"),
    ("v2", E[6], "v2"),
    ("v3", E[7], "v3"),
    ("v4", E[8], "v4"),
    ("1", ZERO8, "1"),
    ("x*y", (1, 1, 0, 0, 0, 0, 0, 0), "(x y)"),
    ("y*x", (1, 1, 0, 0, 0, 0, 0, 0), "(x y)"),
    ("x*x", (2, 0, 0, 0, 0, 0, 0, 0), "x^2"),
    ("(x*y)*x", (2, 1, -1, 0, 0, 0, 0, 0), "(x^2 y . u1^-1)"),
    ("x*(y*x)", (2, 1, -1, 0, 0, 0, 0, 0), "(x^2 y . u1^-1)"),
    ("(x*x)*y", (2, 1, 0, 0, 0, 0, 0, 0), "(x^2 y)"),
    ("assoc(x,x,y)", E[3], "u1"),
    ("assoc(x,y,y)", E[4], "u2"),
    ("assoc(x,x,u1)", E[5], "v1"),
    ("assoc(x,x,u2)", E[6], "v2"),
    ("assoc(y,y,u1)", E[7], "v3"),
    ("assoc(y,y,u2)", E[8], "v4"),
    ("assoc(x,y,x)", ZERO8, "1"),
    ("assoc(y,x,y)", ZERO8, "1"),
    ("inv(x)", (-1, 0, 0, 0, 0, 0, 0, 0), "x^-1"),
    ("inv(x*y)", (-1, -1, 0, 0, 0, 0, 0, 0), "(x^-1 y^-1)"),
    ("inv(u1)", (0, 0, -1, 0, 0, 0, 0, 0), "u1^-1"),
    ("pow(x,5)", (5, 0, 0, 0, 0, 0, 0, 0), "x^5"),
    ("pow(y,-2)", (0, -2, 0, 0, 0, 0, 0, 0), "y^-2"),
    ("pow(x,0)", ZERO8, "1"),
    ("x^3", (3, 0, 0, 0, 0, 0, 0, 0), "x^3"),
    ("y^2", (0, 2, 0, 0, 0, 0, 0, 0), "y^2"),
    ("u1*u2", (0, 0, 1, 1, 0, 0, 0, 0), "(u1 u2)"),
    ("x*v1", (1, 0, 0, 0, 1, 0, 0, 0), "x v1"),
    ("elem[1,2,3,4,5,6,7,8]", (1, 2, 3, 4, 5, 6, 7, 8),
     "(x y^2 . u1^3 u2^4) v1^5 v2^6 v3^7 v4^8"),
    ("elem[0,0,0,0,-1,2,0,5]", (0, 0, 0, 0, -1, 2, 0, 5), "v1^-1 v2^2 v4^5"),
    ("innL(x,x,y)", (0, 1, -1, 0, 0, -2, 0, 0), None),
    ("innL(1,y,x)", E[1], "x"),
    ("innL(x,y,1)", ZERO8, "1"),
    ("pow(x*y,2)", (2, 2, -2, 2, 0, 2, -2, 0),
     "(x^2 y^2 . u1^-2 u2^2) v2^2 v3^-2"),
    ("(x*y)*(x*y)", (2, 2, -2, 2, 0, 2, -2, 0), None),
    ("assoc(elem[1,2,0,0,0,0,0,0], elem[0,0,3,0,0,0,0,0], elem[1,2,0,0,0,0,0,0])",
     ZERO8, "1"),
    ("x^2 y . u1^-1", (2, 1, -1, 0, 0, 0, 0, 0), None),
    ("ldiv(x, x*y)", E[2], "y"),
    ("ldiv(x*y, x*y)", ZERO8, "1"),
    ("ldiv(y, 1)", (0, -1, 0, 0, 0, 0, 0, 0), "y^-1"),
    ("ldiv(1, v2)", E[6], "v2"),
    ("ldiv(x, (x*y)*x)", (1, 1, 0, 0, 0, 0, 0, 0), "(x y)"),
    ("ldiv(x*y, u1)", (-1, -1, 1, 0, -1, -2, -1, 0), "(x^-1 y^-1 . u1) v1^-1 v2^-2 v3^-1"),
    ("ldiv(elem[1,2,3,4,5,6,7,8], 1)", (-1, -2, -3, -4, -5, -6, -7, -8),
     "(x^-1 y^-2 . u1^-3 u2^-4) v1^-5 v2^-6 v3^-7 v4^-8"),
]
