"""Finite quotient loops (Z/m)^8 with brute-force verification and table export.

Reducing the multiplication formula mod m is well defined exactly when
gcd(m, 3) = 1: the exponent map n -> (n^3 - n)/3 fails to be periodic mod 3
(it sends 3 -> 8 but 0 -> 0), so moduli divisible by 3 are rejected rather
than patched.

Element order in tables is lexicographic on coordinate tuples, fixed
forever, so exported artifacts are byte-reproducible.  The m = 2 quotient
(order 256) is small enough to check everything by enumeration, including
the full automorphism law over all 256^4 quadruples; that check runs on a
precomputed product table with numpy gathers.

The full check scans the inner mappings L_{a,b} on representatives of the
cosets of the center: on a loop, multiplying a or b by a central element
does not change L_{a,b} (:func:`_distinct_inner_maps` has the proof), so at
m = 2 the 16 central elements leave 16 representatives and 256 of the
65 536 pairs (a, b).  It keeps the distinct permutations among them (43 at
m = 2), and checks L(c * d) = L(c) * L(d) against each distinct map in
turn.  Whether that law holds depends only on the permutation L, not on the
pair (a, b) that produced it, and it holds for every pair (c, d) once it
holds for the pairs of coset representatives and the pairs with a central
factor (:func:`automorphic_law` has the proof): 4352 pairs at m = 2, not
65 536.  So the check still decides every one of the 256^4 quadruples
(a, b, c, d).  The center needs no scan: c is fixed by L_{a,b} exactly
when (a * b) * c = b * (a * c), which is tested on the product table
directly, a block of a at a time against the candidates c still standing,
the block as large as keeps its arrays to the table's size.  On a
commutative table whose rows are permutations, as the table checks
confirm, every such c commutes and lies in the three nuclei
(:func:`_central_set` has the proof), so the full check takes the center
as it is; on any other table it takes no central element and scans every
pair.

A CSV table file is read line by line under the same bounds whatever its
cells, and its cells are converted in one bulk call when they are only
digits and commas; any other body, or one the bulk call refuses, is
converted line by line, which names the line of the first fault.

The element arithmetic (``mul``, ``inner_l`` and the index maps) is written
once on coordinate tuples and runs unchanged on tuples of numpy integer
arrays, since the kernel formulas use only + - * and an exact // 3;
``left_divide`` and ``power`` take ints only.  ``inner_l`` is the closed
form :func:`caloop.calculus.inner_l_coords`, reduced mod m.  ``reduce``
and ``element_index`` take residues by one rule, :func:`_residue`: when m
is a power of two (m = 2, the table's modulus) a mask with m - 1, which
two's complement makes exact for negative values too, and otherwise %
(m = 5, say), so no integer division runs where a mask does.  Each array
path runs at the narrowest of int8/int16/int32/int64 that holds every
value its kernels form at the modulus (:meth:`QuotientLoop._width`, from
:func:`_intermediate_bound`), and is refused past int64: the product table
runs ``mul_coords`` (int8 at m = 2) on the m^4 x m^4 pairs of coset
representatives only, and the sampled check ``mul_coords`` and
``inner_l_coords``.  The table is built in one unchunked call: coordinates
5-8 of the factors only add into the product's
(:meth:`QuotientLoop.product_table` has the proof), so the m^8 x m^8
entries are indexed from m^8 products, at m = 2 in uint8 arrays of
64 KiB.  The sampled check draws its trials in chunks: each of its arrays
holds at most ARRAY_CHUNK int64s' worth of bytes, so a narrower width runs
more trials per call.  A loop caches its product table and nothing else.
"""

from __future__ import annotations

import functools
import inspect
import operator
import os
import random
import reprlib
import struct
import sys
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .arith import Magnitude
from .calculus import NucleusKind, inner_l_coords, is_member
from .core import left_div_coords, mul_coords, pow_coords
from .quotient_options import DEFAULT_SEED, DEFAULT_TRIALS, LEVELS

__all__ = [
    "QuotientLoop",
    "QuotientReport",
    "TableFileReport",
    "BudgetExceeded",
    "validate_table_file",
    "LEVELS",
    "MAX_TABLE_ORDER",
    "MAX_SAMPLED_TRIALS",
    "DEFAULT_TRIALS",
    "DEFAULT_SEED",
]

# order m^8 up to which full product tables (and order^2 / order^4 scans)
# are allowed; 256 means m = 2 only.
MAX_TABLE_ORDER = 256
# trials the sampled check may run: it costs ~2 us per trial at any modulus
# the int64 guard admits (2-CPU host), so the largest run takes ~2 s
MAX_SAMPLED_TRIALS = 10 ** 6
# int64s per array of one call of the sampled check, which bounds their
# memory at 16 KiB; a narrower width fits more trials in the same bytes.
# The product table is built in one call, not in chunks.
ARRAY_CHUNK = 2048


class BudgetExceeded(ValueError):
    """Raised when a requested enumeration is over the configured budget."""


# the widths an array path may run at, narrowest first
_WIDTHS = (np.int8, np.int16, np.int32, np.int64)


@functools.cache
def _intermediate_bound(m: int, kernels: tuple) -> int:
    """Largest |value| that the ``kernels`` can form on coordinates in (-m, m),
    including every intermediate and every constant.

    Computed by running each kernel on magnitudes m - 1, so it follows the
    formulas: it grows like m^5, the degree of the product polynomial.  Each
    constant of a formula enters a + or * with a magnitude of at least 1,
    and the divisor 3 is below the product's constant 5, so the bound holds
    the constants too.  Cached per m and tuple of kernel objects.
    """
    peak = [0]
    x = tuple(Magnitude(m - 1, peak) for _ in range(8))
    for kernel in kernels:
        # x for each argument without a default, so that left division runs
        # its own product
        params = inspect.signature(kernel).parameters.values()
        kernel(*(x for p in params if p.default is p.empty))
    return peak[0]


_INT64_MAX = 2 ** 63 - 1


def _residue(values, m: int):
    """``values % m`` for an int or a numpy integer array, in [0, m).

    When m is a power of two it masks with m - 1 instead, which needs no
    integer division: Python ints and numpy's fixed-width ints are both two's
    complement, so a negative value masks to its residue too.  The rule
    depends on m alone.
    """
    return values & (m - 1) if m & (m - 1) == 0 else values % m


def _size(n: int) -> str:
    """n in decimal if it fits in 64 bits, else its bit length, so that no
    message prints an unbounded int in full."""
    return str(n) if n.bit_length() <= 64 else f"an int of {n.bit_length()} bits"


class QuotientLoop:
    """The loop on (Z/m)^8 obtained by reducing the integer formula mod m."""

    def __init__(self, modulus: int):
        modulus = operator.index(modulus)  # TypeError for 2.0, 2.5 or "2"
        if modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {_size(modulus)}")
        if modulus % 3 == 0:
            raise ValueError(
                f"modulus {_size(modulus)} is divisible by 3: the exponent map "
                "n -> (n^3 - n)/3 is not periodic mod 3 (it maps 3 to 8 but 0 "
                "to 0, and 8 != 0 mod 3), so the multiplication formula does "
                "not descend to (Z/m)^8"
            )
        self.modulus = modulus
        self.order = modulus ** 8
        self._table: Optional[np.ndarray] = None

    # -- element arithmetic -------------------------------------------------
    #
    # Each method takes coordinate tuples of ints.  ``mul`` and ``inner_l``
    # also take broadcastable arrays of residues (one array per coordinate)
    # at the width _width gives for the kernels of the calling path;
    # ``left_divide`` and ``power`` take ints only: an array is a TypeError.

    def reduce(self, coords: Sequence[int]) -> tuple:
        m = self.modulus
        return tuple(_residue(c, m) for c in coords)

    def mul(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        """Product of residue tuples: lift, multiply exactly, reduce."""
        return self.reduce(mul_coords(a, b))

    def left_divide(self, a: Sequence[int], c: Sequence[int]) -> tuple:
        return self.reduce(left_div_coords(*(tuple(map(operator.index, e)) for e in (a, c))))

    def power(self, a: Sequence[int], n: int) -> tuple:
        # reduction mod m is a homomorphism, so it maps the closed-form power
        # a^n in Z^8 to the n-th power in the quotient; operator.index makes
        # a numpy integer an exact int and refuses an array (TypeError)
        return self.reduce(pow_coords(tuple(map(operator.index, a)), n))

    def inner_l(self, a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> tuple:
        # reduction mod m is a homomorphism, so it maps L_{a,b}(c) in Z^8 to
        # the inner mapping of the quotient
        return self.reduce(inner_l_coords(a, b, c))

    # -- indexing (lexicographic on coordinate tuples) -----------------------

    def element_index(self, coords: Sequence[int]) -> int:
        m = self.modulus
        idx = 0
        for c in coords:
            idx = idx * m + _residue(c, m)
        return idx

    def element_coords(self, index: int) -> tuple:
        m = self.modulus
        out = []
        for _ in range(8):
            index, c = divmod(index, m)
            out.append(c)
        return tuple(reversed(out))

    # -- tables ---------------------------------------------------------------

    def _width(self, what: str, kernels: Sequence) -> type:
        """Narrowest of int8/int16/int32/int64 that holds every value the
        ``kernels`` form at this modulus; past int64, ``what`` is refused.

        Array inputs are residues in [0, m), inside (-m, m), so every value
        formed is at most _intermediate_bound(m, kernels) in absolute value.
        """
        bound = _intermediate_bound(self.modulus, kernels)
        for width in _WIDTHS:
            if bound <= np.iinfo(width).max:
                return width
        raise BudgetExceeded(
            f"{what} runs on integer arrays of at most 64 bits, but its kernels "
            f"form values up to {_size(bound)} at m = {_size(self.modulus)}, "
            f"past the int64 maximum {_INT64_MAX}"
        )

    def product_table(self) -> np.ndarray:
        """order x order table of element indices; cached after first build.

        Built from the products of the m^4 representatives (h, 0) of the
        cosets of 0 x 0 x 0 x 0 x (Z/m)^4 alone, by this lemma, which the
        catalog entry ``central-coordinates`` proves for all integer
        coordinates.  Write a = (h, z), h its coordinates 1-4 and z its
        coordinates 5-8.  Then, coordinate by coordinate,
          (h1, z1) * (h2, z2) = (h1, 0) * (h2, 0) + (0, z1 + z2):
        coordinates 5-8 of a factor enter ``mul_coords`` only as a5 + b5,
        ..., a8 + b8.  Reduction mod m is a ring homomorphism, so the lemma
        holds on residues too.  Lex order makes the index of a the index of
        h times m^4 plus that of z, so the table, as an array over
        (h1, z1, h2, z2), is one ``element_index`` call broadcast from the
        residues of the representatives' product, with z1 + z2 added in
        coordinates 5-8.  At m = 2 that is 256 products, not 65 536.

        The product runs at the width of ``mul_coords`` (int8 at m = 2) on
        residues, which holds every value it forms.  Its residues are cast
        to the unsigned width of order - 1 (uint8 at m = 2).  That width
        holds a residue plus z1 + z2, at most 3 (m - 1) <= order - 1, and
        every idx * m + r that ``element_index`` forms, at most order - 1.
        The indices stay below order, which the table budget keeps within
        the table's uint16.
        """
        if self.order > MAX_TABLE_ORDER:
            raise BudgetExceeded(
                f"a product table of (Z/m)^8 has order m^8 = {_size(self.order)} "
                f"at m = {_size(self.modulus)}, past the budget of order <= "
                f"{MAX_TABLE_ORDER} (m = 2)"
            )
        if self._table is None:
            width = self._width("product table", (mul_coords,))
            m, order, cosets = self.modulus, self.order, self.modulus ** 4
            index = np.min_scalar_type(order - 1)
            reps = [c.astype(width) for c in self.element_coords(np.arange(0, order, cosets))]
            product = mul_coords([c[:, None] for c in reps], [c[None, :] for c in reps])
            r = [_residue(v, m).astype(index)[:, None, :, None] for v in product]  # [h1, h2]
            z = [c.astype(index) for c in self.element_coords(np.arange(cosets))[4:]]
            tail = (v + (c[None, :, None, None] + c[None, None, None, :]) for v, c in zip(r[4:], z))
            table = self.element_index(chain(r[:4], tail))  # [h1, z1, h2, z2]
            self._table = table.reshape(order, order).astype(np.uint16)
        return self._table

    def left_division_table(self) -> np.ndarray:
        """The product table's left division table (:func:`_left_division`)."""
        return _left_division(self.product_table())

    def center_indices(self) -> list:
        """The product table's center, in index order (:func:`_center`)."""
        return _center(self.product_table())

    # -- checks ---------------------------------------------------------------

    def exhaustive_check(
        self, level: str, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED
    ) -> "QuotientReport":
        """Run one check level; every budget is checked before any work (the
        table budget by ``product_table``, the table levels' first call)."""
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; choose from {LEVELS}")
        trials = operator.index(trials)  # TypeError for 2.5, as for the modulus
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {_size(trials)}")
        if level == "automorphic-sampled" and trials > MAX_SAMPLED_TRIALS:
            raise BudgetExceeded(
                f"sampled automorphism check is budgeted to "
                f"{MAX_SAMPLED_TRIALS} trials; {_size(trials)} requested"
            )
        start = time.perf_counter()
        report = QuotientReport(modulus=self.modulus, order=self.order, level=level)
        if level == "axioms":
            self._check_axioms(report)
        elif level == "automorphic-sampled":
            report.checks["automorphism-sampled"] = self._sampled_failures(trials, seed) == 0
            report.counts["quadruples-checked"] = trials
        else:
            self._check_automorphic_full(report)
        report.millis = int((time.perf_counter() - start) * 1000)
        return report

    def _check_axioms(self, report: "QuotientReport") -> None:
        report.checks.update(_table_checks(self.product_table()))
        center = self.center_indices()
        # every element's coordinates from one array call, as int tuples
        elements = zip(*(c.tolist() for c in self.element_coords(np.arange(self.order))))
        expected = [i for i, e in enumerate(elements) if is_member(e, NucleusKind.CENTER)]
        report.checks["center-matches-coordinate-description"] = center == expected
        report.counts["products-checked"] = self.order ** 2
        report.counts["center-size"] = len(center)

    def _sampled_failures(self, trials: int, seed: int) -> int:
        """Count random quadruples (a, b, c, d) with L_{a,b}(c d) != L_{a,b}(c) L_{a,b}(d).

        Each trial takes 32 little-endian 32-bit words from
        random.Random(seed).randbytes, the 8 coordinates of a, b, c, then d,
        and maps each word x to the residue (x * m) >> 32; the bias is at
        most m / 2^32.  The residues are cast to the width of ``mul_coords``
        and ``inner_l_coords`` at m (int32 at m = 5); a chunk of trials, with
        ARRAY_CHUNK int64s' bytes per array, is drawn in one call and run at once.
        """
        width = self._width("sampled automorphism check", (mul_coords, inner_l_coords))
        chunk = ARRAY_CHUNK * 8 // np.dtype(width).itemsize
        rng = random.Random(seed)
        m = np.uint64(self.modulus)
        bad = 0
        for start in range(0, trials, chunk):
            n = min(chunk, trials - start)
            # in place, and with no name kept for the random bytes, so that at
            # most one uint64 array of the chunk's words is alive at a time
            draws = np.frombuffer(rng.randbytes(4 * 32 * n), dtype="<u4").astype(np.uint64)
            draws *= m
            draws >>= np.uint64(32)
            draws = draws.astype(width)
            # draws[trial, element, coordinate] -> one array per (element, coordinate)
            a, b, c, d = (tuple(e) for e in draws.reshape(n, 4, 8).transpose(1, 2, 0))
            lhs = self.inner_l(a, b, self.mul(c, d))
            rhs = self.mul(self.inner_l(a, b, c), self.inner_l(a, b, d))
            bad += int((np.array(lhs) != np.array(rhs)).any(axis=0).sum())
        return bad

    def _check_automorphic_full(self, report: "QuotientReport") -> None:
        """L(c * d) = L(c) * L(d) for every distinct inner map L and every c
        and d: the maps of pairs of coset representatives of the central set
        (``_distinct_inner_maps``), each compared on the pairs that
        :func:`automorphic_law` shows to decide every pair."""
        t = self.product_table()
        ti = t.astype(np.intp)  # one index copy for every gather by the table
        central = _central_set(t, self.center_indices())
        reps = _coset_representatives(t, central)
        maps = _distinct_inner_maps(ti, self.left_division_table(), reps)
        holds, pairs = automorphic_law(t, ti, central, reps, maps)
        report.checks["automorphism-full"] = holds
        report.counts["quadruples-checked"] = self.order ** 4
        report.counts["distinct-inner-maps"] = len(maps)
        report.counts["central-elements"] = len(central)
        report.counts["inner-maps-computed"] = len(reps) ** 2
        report.counts["law-pairs-checked"] = pairs

    # -- export -----------------------------------------------------------------

    def export_table(self, path: str, fmt: str = "csv") -> None:
        """Write the Cayley table; CSV with a header line, or compact binary."""
        if fmt not in ("csv", "bin"):
            raise ValueError(f"unknown table format {fmt!r}; use 'csv' or 'bin'")
        t = self.product_table()
        if fmt == "csv":
            with open(path, "w", encoding="ascii") as fh:
                fh.write(
                    f"caloop-table m={self.modulus} order={self.order} ordering=lex\n"
                )
                # each index's text, made once; a row's cells are one gather
                names = np.array([str(i) for i in range(self.order)], dtype=object)
                for row in t:
                    fh.write(",".join(names[row].tolist()))
                    fh.write("\n")
        else:
            with open(path, "wb") as fh:
                fh.write(b"CLT1")
                fh.write(struct.pack("<I", self.modulus))
                fh.write(t.astype("<u4").tobytes())


def _center(t: np.ndarray) -> list:
    """Brute-force center of the product table ``t``, in index order.

    L_{a,b}(c) is the z with (a * b) * z = b * (a * c), so c is fixed by
    L_{a,b} exactly when (a * b) * c = b * (a * c).  This tests that equation
    for every a, b and c on the product table itself, with no division
    table and no inner-map scan.  On a table whose rows are permutations, as
    the division table of the inner-map scan assumes, left division by
    a * b is one-to-one, so the c that satisfy it are exactly the fixed
    points of L_{a,b}; both divide by the row a * b, not b * a, which keeps
    the two definitions equal on non-commutative tables too.

    Every c starts as a candidate, and each block of a tests every b
    against the candidates still standing only, so a c drops out in the
    block of its first failing a and every c is still decided by the same
    equation.  A block holds order // (candidates standing) rows of a, at
    least one, so its arrays hold at most order x order entries, the size
    of the table.  The blocks are taken in descending index order of a: the
    first coordinate is the most significant lex digit, and at m = 2 the
    first a, alone in its block, drops every non-central candidate, and the
    other 255 run in blocks of 16.
    """
    order = len(t)
    t_cols = np.ascontiguousarray(t.T)  # t_cols[y, x] = x * y
    standing = np.arange(order)
    rows = t_cols  # rows[j, x] = x * c for the j-th standing c
    end = order  # the a below end are still to be tested
    while end and len(standing):
        start = max(0, end - max(1, order // len(standing)))
        ta = t[start:end]  # ta[i, x] = a_i * x
        # [j, i, b]: (a_i * b) * c against b * (a_i * c), for each standing c
        held = (rows.take(ta, axis=1) == t_cols[ta[:, standing].T]).all(axis=(1, 2))
        if not held.all():
            standing, rows = standing[held], rows[held]
        end = start
    return [int(i) for i in standing]


def _left_division(t: np.ndarray) -> np.ndarray:
    """ldiv[a, t[a, b]] = b, the row-inverse of the product table ``t``.

    On a table whose rows are not all permutations, an entry that no b
    reaches is 0, not whatever the allocation held, so every result derived
    from the division table is the same in every process.
    """
    idx = np.arange(len(t), dtype=t.dtype)
    ldiv = np.zeros_like(t)
    ldiv[idx[:, None], t] = idx
    return ldiv


def _central_set(t: np.ndarray, center) -> np.ndarray:
    """The indices of ``center``, as found by :func:`_center` on the product
    table ``t``, as intp, when ``t`` is commutative and its rows are
    permutations; otherwise none.

    Every element c of that set is then central: it commutes with every
    element, lies in the three nuclei and has a permutation for its row and
    its column, by this lemma, which holds in any magma.  Write (C) for
    commutativity and (F) for (a * b) * c = b * (a * c) for every a and b,
    the equation ``_center`` tests.  Then, for every x and y,
      right:  (x * y) * c = (y * x) * c = x * (y * c)                (C, F);
      left:   (c * x) * y = y * (x * c) = (x * y) * c = c * (x * y)  (C, F, C);
      middle: (x * c) * y = (x * y) * c = x * (y * c) = x * (c * y)
                                                        (C and F, right, C).
    Row c is a permutation since every row is, and column c is row c by (C).
    Conversely, a central c satisfies (F): (a * b) * c = (b * a) * c =
    b * (a * c) by (C) and the right nucleus.  So on such a table the set is
    exactly the set of central elements, and nothing central is lost.  On
    any other table the set is empty, so the scan and the law run on every
    element and every pair.
    """
    checks = _table_checks(t)
    if not (checks["commutative"] and checks["latin-rows"]):
        center = []
    return np.array(center, dtype=np.intp)


def _coset_representatives(t: np.ndarray, central: np.ndarray) -> np.ndarray:
    """Sorted indices of the elements x of the product table ``t`` with
    x <= x * z for every z in ``central``.

    From any element, a right product by a central element that lowers the
    index leads on, step by step, to one of these, since indices cannot
    fall forever.  When ``central`` is a subgroup, as the center of a loop
    is, one step reaches a whole coset, so these are the least elements of
    its cosets.
    """
    return np.flatnonzero((t[:, central] >= np.arange(len(t))[:, None]).all(axis=1))


def _distinct_inner_maps(ti: np.ndarray, ldiv: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """k x order array of the distinct inner mappings L_{a,b} with a and b
    in ``reps``, given ``ti``, a product table copied to intp, and ``ldiv``,
    its left division table.

    L_{a,b}(c) is the y with (a * b) * y = b * (a * c).  The pairs of coset
    representatives give every distinct L_{a,b} of the table, by this
    lemma.  Let z commute with every element, lie in the three nuclei and
    have an injective column, as every element that ``_central_set``
    returns does (its docstring has the proof).  Then, by the middle
    nucleus, commuting and the right nucleus,
      (a * z) * b = a * (z * b) = a * (b * z) = (a * b) * z,
      b * ((a * z) * c) = b * ((a * c) * z) = (b * (a * c)) * z,
      ((a * b) * z) * y = (a * b) * (z * y) = ((a * b) * y) * z.
    So y = L_{a*z,b}(c) solves ((a * b) * y) * z = (b * (a * c)) * z, and
    cancelling z on the right gives (a * b) * y = b * (a * c), that is,
    L_{a*z,b} = L_{a,b}.  With b * z for b the same steps give
    L_{a,b*z} = L_{a,b}.  Each element reaches a representative by such
    products, so every L_{a,b} is the map of a pair of representatives.
    The division table solves for y, so rows are assumed to be
    permutations, as there.

    The scan takes one b at a time: row b of the table takes b * (a * c)
    for every representative a and every c in one gather with no index
    arithmetic, and the division is a second gather, from the raveled
    division table.  Row a divides by a * b, not b * a, which keeps
    non-commutative tables right.

    Rows are permutations of the element indices, in order of first
    appearance scanning b, then a.  That is the order a scan of every pair
    finds them in: a map's first pair is a pair of representatives, or a
    product by a central element would give a lower pair.  Duplicates are
    found by comparing the rows' bytes exactly: each b's block of maps is
    turned into one bytes buffer and sliced into rows.
    """
    order = len(ti)
    ta = ti[reps]  # [i, c] = a_i * c
    width = order * ldiv.itemsize
    rows = {}  # insertion-ordered set of each row's bytes
    for b in reps:
        mid = ti[b].take(ta)  # [i, c] = b * (a_i * c)
        mid += (ta[:, b] * order)[:, None]  # flat index of row a_i * b, column mid
        buf = ldiv.take(mid).tobytes()  # flat gather, [i, c] = L_{a_i,b}(c)
        for i in range(0, len(buf), width):
            rows[buf[i:i + width]] = None
    return np.frombuffer(b"".join(rows), dtype=ldiv.dtype).reshape(-1, order)


def automorphic_law(t: np.ndarray, ti: np.ndarray, central: np.ndarray,
                    reps: np.ndarray, maps: np.ndarray) -> tuple:
    """(holds, pairs): whether every row p of ``maps`` has
    p(x * y) = p(x) * p(y) for every x and y of the product table ``t``, and
    the pairs (x, y) compared, per map times the maps; ``ti`` is ``t``
    copied to intp, ``central`` a set that ``_central_set`` returned and
    ``reps`` the coset representatives of it.

    The pairs compared are u * z for every u and every z in C = ``central``,
    and r * s for every r and s in R = ``reps``, by this lemma.  Let every
    z in C commute with every element and lie in the three nuclei, as
    every element that ``_central_set`` returns does, and suppose that
    (i) every element is r * z for some r in R and z in C, and (ii) every
    map p sends C into C.  Then
    p(x * y) = p(x) * p(y) for all x and y exactly when
      (b) p(u * z) = p(u) * p(z) for every u and every z in C, and
      (c) p(r * s) = p(r) * p(s) for every r and s in R.
    The law gives (b) and (c) at once.  Conversely, for any a and b and z1,
    z2 in C, by the right nucleus, the middle nucleus, commuting and the
    right nucleus again,
      (a * z1) * (b * z2) = ((a * z1) * b) * z2 = (a * (z1 * b)) * z2
                          = (a * (b * z1)) * z2 = ((a * b) * z1) * z2.
    Write x = r * z1 and y = s * z2 by (i).  Then (b) twice and (c) give
      p(x * y) = p(((r * s) * z1) * z2) = (p(r * s) * p(z1)) * p(z2)
               = ((p(r) * p(s)) * p(z1)) * p(z2),
    and (b) and the regrouping above with p(z1) and p(z2), in C by (ii), give
      p(x) * p(y) = (p(r) * p(z1)) * (p(s) * p(z2))
                  = ((p(r) * p(s)) * p(z1)) * p(z2).
    Both hypotheses are checked on the table.  Where one fails, or where
    (b) and (c) together would compare at least as many pairs as there are
    (|C| * order + |R|^2 >= order^2, as with C = {identity}, or C every
    element), C is taken empty and R every element, so that (b) is empty and
    (c) compares every pair.  At m = 2 each map is compared on
    256 * 16 + 16 * 16 = 4352 pairs instead of 65 536.  The maps are taken
    one at a time, so no array holds more than order x |C| or |R| x |R|
    entries.
    """
    order = len(t)
    reduced = len(central) * order + len(reps) ** 2 < order * order
    if reduced:
        inside = np.zeros(order, dtype=bool)
        inside[central] = True
        covered = np.zeros(order, dtype=bool)
        covered[t[np.ix_(reps, central)]] = True  # (i)
        reduced = covered.all() and inside[maps[:, central]].all()  # (ii)
    if not reduced:
        central, reps = central[:0], np.arange(order)
    tc = ti[:, central]  # [u, j] = u * z_j
    tr = ti[np.ix_(reps, reps)]  # [i, j] = r_i * r_j
    holds = all(
        np.array_equal(p.take(tc), t.take(pc, axis=1).take(p, axis=0))  # (b)
        and np.array_equal(p.take(tr), t.take(pr, axis=0).take(pr, axis=1))  # (c)
        for p, pc, pr in zip(maps, maps[:, central], maps[:, reps])
    )
    return holds, len(maps) * (tc.size + tr.size)


def _table_checks(t: np.ndarray) -> dict:
    """Identity, commutativity and Latin-square checks of a product table,
    keyed by the names the axioms report uses.  The columns of a symmetric
    table are its rows, so only a non-symmetric table's are sorted."""
    idx = np.arange(len(t))
    commutative = bool((t == t.T).all())
    latin_rows = bool((np.sort(t, axis=1) == idx[None, :]).all())
    return {
        "identity-row": bool((t[0] == idx).all()),
        "identity-column": bool((t[:, 0] == idx).all()),
        "commutative": commutative,
        "latin-rows": latin_rows,
        "latin-columns": latin_rows if commutative
        else bool((np.sort(t, axis=0) == idx[:, None]).all()),
    }


@dataclass
class QuotientReport:
    """Outcome of a brute-force quotient check.

    ``millis`` is the wall time of the call that made the report.  A product
    table that an earlier call built on the same loop is reused and not timed
    again; nothing else is cached, so on a fresh loop it is the full cost of
    the check.
    """

    modulus: int
    order: int
    level: str
    checks: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    millis: int = 0

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_doc(self) -> dict:
        return {
            "modulus": self.modulus,
            "order": self.order,
            "level": self.level,
            "pass": self.passed,
            "checks": dict(self.checks),
            "counts": dict(self.counts),
            "millis": self.millis,
        }


@dataclass
class TableFileReport:
    """Result of validating an exported table file, using only the file."""

    modulus: int
    order: int
    latin: bool
    symmetric: bool
    identity_row: bool

    @property
    def passed(self) -> bool:
        return self.latin and self.symmetric and self.identity_row


# characters a CSV header int or table cell may have: any 64-bit int, so that
# m ** 8 stays small and int() never meets Python's 4300-digit limit
_HEADER_INT_CHARS = 20
# bytes the CSV header line may have, its newline included, so that a huge
# line is refused before it is read in full; a written header is under 100
# bytes, and a few-thousand-digit int field still reaches _header_int, which
# names its length
_HEADER_LINE_BYTES = 8192


def _header_int(path: str, fields: dict, key: str) -> int:
    if key not in fields:
        raise ValueError(f"{path}: table header has no {key}= field")
    text = fields[key]
    if len(text) > _HEADER_INT_CHARS:
        raise ValueError(
            f"{path}: header field {key}= has {len(text)} characters, past "
            f"the {_HEADER_INT_CHARS} of a 64-bit int"
        )
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}: header field {key}={text!r} is not an integer") from None


def _csv_line(path: str, lineno: int, raw: bytes) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: line {lineno} has the non-ASCII byte {raw[exc.start:exc.start + 1]!r}"
        ) from None


def _check_modulus(path: str, m: int, order: int) -> None:
    """Refuse, before any entry is read, a header whose table no QuotientLoop exports."""
    if m < 2:
        raise ValueError(f"{path}: header modulus m={m} is below 2; no quotient loop has it")
    if order > MAX_TABLE_ORDER:
        raise ValueError(
            f"{path}: header order={_size(order)} is past the table budget of order <= "
            f"{MAX_TABLE_ORDER} (m = 2); no quotient loop exports it"
        )


def _read_table_csv(path: str):
    with open(path, "rb") as fh:
        raw = fh.readline(_HEADER_LINE_BYTES + 1)
        if len(raw) > _HEADER_LINE_BYTES:
            raise ValueError(
                f"{path}: header line is longer than the limit of {_HEADER_LINE_BYTES} bytes"
            )
        header = _csv_line(path, 1, raw).strip().split()
        if len(header) != 4 or header[0] != "caloop-table":
            raise ValueError(f"{path}: not a caloop CSV table (header {reprlib.repr(header)})")
        fields = {}
        for part in header[1:]:
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"{path}: header field {reprlib.repr(part)} is not key=value")
            fields[key] = value
        m = _header_int(path, fields, "m")
        order = _header_int(path, fields, "order")
        if order != m ** 8:
            raise ValueError(
                f"{path}: header order={_size(order)} is not m^8 = {_size(m ** 8)}"
            )
        if fields.get("ordering") != "lex":
            raise ValueError(
                f"{path}: unknown element ordering {reprlib.repr(fields.get('ordering'))}"
            )
        _check_modulus(path, m, order)
        limit = order * (_HEADER_INT_CHARS + 1) + 1  # order cells, their commas, a CRLF
        linenos, lines = [], []  # each non-blank body line, stripped, and its number
        try:
            for lineno, raw in enumerate(iter(lambda: fh.readline(limit + 1), b""), start=2):
                if len(raw) > limit:  # a long line is refused before it is read in full
                    raise ValueError(
                        f"{path}: line {lineno} is longer than the limit of {limit} bytes"
                    )
                cells = raw.count(b",") + 1
                if cells > order:  # a wide row is refused before it is decoded or converted
                    raise ValueError(
                        f"{path}: line {lineno} has {cells} cells, past the header's order={order}"
                    )
                line = _csv_line(path, lineno, raw).strip()
                if not line:
                    continue
                if len(lines) == order:  # refuse a long file at its first extra row
                    raise ValueError(
                        f"{path}: line {lineno} is row {order + 1}, past the header's order={order}"
                    )
                linenos.append(lineno)
                lines.append(line)
        except ValueError:
            # a bad cell on an earlier line is the first fault: converting
            # the lines read so far names it
            _csv_cells(path, linenos, lines)
            raise
    return m, order, _csv_cells(path, linenos, lines)


def _csv_cells(path: str, linenos: list, lines: list) -> np.ndarray:
    """int64 table of the stripped CSV body ``lines``, numbered ``linenos``.

    A body of ASCII digits and commas alone, with no line longer than the
    digits int() may read, is converted in one ``np.loadtxt`` call, which
    reads such cells as int() does.  Any other body, or one that call
    refuses (a ragged row, an empty cell, a cell past int64), is converted
    line by line, which raises at the first bad line; so line numbers are
    worked out only for the error raised.
    """
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if (lines and not "".join(lines).encode("ascii").translate(None, b"0123456789,")
            and not 0 < digits < max(map(len, lines))):
        try:
            return np.loadtxt(lines, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pass
    rows = []
    for lineno, line in zip(linenos, lines):
        try:
            row = np.array(list(map(int, line.split(","))), dtype=np.int64)
        except ValueError:
            raise ValueError(f"{path}: line {lineno} has a cell that is not an integer") from None
        except OverflowError:
            raise ValueError(f"{path}: line {lineno} has a cell outside the int64 range") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(
                f"{path}: line {lineno} has {len(row)} cells where the first row has {len(rows[0])}"
            )
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def _read_table_bin(path: str):
    """(m, order, table) of a binary table file, whose magic b'CLT1' the
    caller has matched.  The file's size is checked against the header
    before any entry is read.  The table is the file's uint32 entries as
    read, a read-only view of its bytes; the checks need no wider copy."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise ValueError(f"{path}: {len(header)} bytes is shorter than the 8-byte header")
        (m,) = struct.unpack("<I", header[4:])
        order = m ** 8
        size = os.fstat(fh.fileno()).st_size - 8
        if size != 4 * order * order:
            raise ValueError(
                f"{path}: expected {_size(order * order)} entries, found {size // 4}"
                + (f" and {size % 4} stray bytes" if size % 4 else "")
            )
        _check_modulus(path, m, order)
        data = np.frombuffer(fh.read(size), dtype="<u4")
    return m, order, data.reshape(order, order)


def validate_table_file(path: str) -> TableFileReport:
    """Check a table file for the Latin-square and symmetry properties.

    The magic b'CLT1' marks a binary table; any other file is read as CSV.
    Reads only the file; does not consult the loop implementation.
    """
    with open(path, "rb") as fh:
        binary = fh.read(4) == b"CLT1"
    m, order, t = _read_table_bin(path) if binary else _read_table_csv(path)
    if t.shape != (order, order):
        raise ValueError(f"{path}: table shape {t.shape} does not match order {order}")
    checks = _table_checks(t)
    return TableFileReport(
        modulus=m,
        order=order,
        latin=checks["latin-rows"] and checks["latin-columns"],
        symmetric=checks["commutative"],
        identity_row=checks["identity-row"],
    )
