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

The full check scans all 65 536 inner mappings L_{a,b} once, one b at a
time, keeps the distinct permutations among them (43 at m = 2), and checks
L(c * d) = L(c) * L(d) for every pair (c, d) against each distinct map in
turn, so that no step holds more than a few order x order arrays.
Whether that law holds depends only on the permutation L, not on the pair
(a, b) that produced it, so the check still decides every one of the
256^4 quadruples (a, b, c, d).  The center needs no scan: c is fixed by
L_{a,b} exactly when (a * b) * c = b * (a * c), which is tested on the
product table directly for every a and b.

The element arithmetic (``mul``, ``left_divide``, ``inner_l``, and the
index maps) is written once on coordinate tuples and runs unchanged on
tuples of int64 numpy arrays, since the kernel formulas use only + - * and
an exact // 3; ``inner_l`` is the closed form
:func:`caloop.calculus.inner_l_coords`, reduced mod m.  The product table
and the sampled check make at most ARRAY_CHUNK kernel evaluations per array
call.  A loop caches its product table and nothing else.
Every array path first checks that no intermediate of the kernel can
overflow int64 at the modulus (:func:`_intermediate_bound`).
"""

from __future__ import annotations

import operator
import os
import random
import reprlib
import struct
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .calculus import inner_l_coords
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
# kernel evaluations per array call, which bounds their memory: the sampled
# check runs this many trials per call, and the product table this many
# products, ARRAY_CHUNK // order rows (8 at m = 2)
ARRAY_CHUNK = 2048


class BudgetExceeded(ValueError):
    """Raised when a requested enumeration is over the configured budget."""


class _Magnitude:
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

    def __add__(self, other) -> "_Magnitude":
        return _Magnitude(self.bound + _magnitude(other), self.peak)

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other) -> "_Magnitude":
        return _Magnitude(self.bound * _magnitude(other), self.peak)

    __rmul__ = __mul__

    def __floordiv__(self, other: int) -> "_Magnitude":
        return _Magnitude(-(-self.bound // abs(other)), self.peak)


def _magnitude(x) -> int:
    return x.bound if isinstance(x, _Magnitude) else abs(x)


def _intermediate_bound(m: int) -> int:
    """Largest |value| that ``mul_coords``, ``left_div_coords`` or
    ``inner_l_coords`` can form on coordinates in (-m, m), including every
    intermediate.

    Computed by running the kernel itself on magnitudes m - 1, so it follows
    the formulas: it grows like m^5, the degree of the product polynomial.
    """
    peak = [0]
    x = tuple(_Magnitude(m - 1, peak) for _ in range(8))
    mul_coords(x, x)
    left_div_coords(x, x)  # runs the product on its own, larger, intermediates
    inner_l_coords(x, x, x)
    return peak[0]


_INT64_MAX = 2 ** 63 - 1


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
    # Each method takes coordinate tuples of ints, or of broadcastable int64
    # arrays (one array per coordinate) after _require_int64.

    def reduce(self, coords: Sequence[int]) -> tuple:
        m = self.modulus
        return tuple(c % m for c in coords)

    def mul(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        """Product of residue tuples: lift, multiply exactly, reduce."""
        return self.reduce(mul_coords(a, b))

    def left_divide(self, a: Sequence[int], c: Sequence[int]) -> tuple:
        return self.reduce(left_div_coords(a, c))

    def power(self, a: Sequence[int], n: int) -> tuple:
        # reduction mod m is a homomorphism, so it maps the closed-form power
        # a^n in Z^8 to the n-th power in the quotient
        return self.reduce(pow_coords(a, n))

    def inner_l(self, a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> tuple:
        # reduction mod m is a homomorphism, so it maps L_{a,b}(c) in Z^8 to
        # the inner mapping of the quotient
        return self.reduce(inner_l_coords(a, b, c))

    # -- indexing (lexicographic on coordinate tuples) -----------------------

    def element_index(self, coords: Sequence[int]) -> int:
        idx = 0
        for c in coords:
            idx = idx * self.modulus + c % self.modulus
        return idx

    def element_coords(self, index: int) -> tuple:
        m = self.modulus
        out = []
        for _ in range(8):
            index, c = divmod(index, m)
            out.append(c)
        return tuple(reversed(out))

    # -- tables ---------------------------------------------------------------

    def _require_int64(self, what: str) -> None:
        """Refuse an int64 array path whose kernel intermediates could overflow.

        Array inputs are residues in [0, m), inside (-m, m), so every value
        formed is at most _intermediate_bound(m) in absolute value.
        """
        bound = _intermediate_bound(self.modulus)
        if bound > _INT64_MAX:
            raise BudgetExceeded(
                f"{what} runs on int64 arrays, but the product formula forms "
                f"values up to {_size(bound)} at m = {_size(self.modulus)}, past "
                f"the int64 maximum {_INT64_MAX}"
            )

    def product_table(self) -> np.ndarray:
        """order x order table of element indices; cached after first build.

        A broadcast product of a block of ARRAY_CHUNK // order elements with
        every element, block after block, so the product's int64
        intermediates stay the size of a block, not of the table.  The
        indices stay below order, which the table budget keeps within uint16.
        """
        if self.order > MAX_TABLE_ORDER:
            raise BudgetExceeded(
                f"a product table of (Z/m)^8 has order m^8 = {_size(self.order)} "
                f"at m = {_size(self.modulus)}, past the budget of order <= "
                f"{MAX_TABLE_ORDER} (m = 2)"
            )
        if self._table is None:
            self._require_int64("product table")
            order = self.order
            rows = ARRAY_CHUNK // order
            cols = self.element_coords(np.arange(order, dtype=np.int64))
            every = [c[None, :] for c in cols]
            table = np.empty((order, order), dtype=np.uint16)
            for start in range(0, order, rows):
                block = slice(start, start + rows)
                table[block] = self.element_index(mul_coords([c[block, None] for c in cols], every))
            self._table = table
        return self._table

    def left_division_table(self) -> np.ndarray:
        """ldiv[a, t[a, b]] = b, the row-inverse of the product table."""
        t = self.product_table()
        ldiv = np.empty_like(t)
        ldiv[np.arange(self.order)[:, None], t] = np.arange(self.order, dtype=t.dtype)[None, :]
        return ldiv

    def _distinct_inner_maps(self) -> np.ndarray:
        """k x order array of the distinct inner mappings L_{a,b}.

        L_{a,b}(c) is the z with (a * b) * z = b * (a * c).  The scan takes
        one b at a time.  The table is copied to intp once, so that row b of
        the table takes b * (a * c) for every a and c in one gather with no
        index arithmetic; the division is a second gather, from the raveled
        division table.  Row a divides by a * b, not b * a, which keeps
        non-commutative tables right.

        Rows are permutations of the element indices, in order of first
        appearance scanning b, then a.  Duplicates are found by comparing
        the rows' bytes exactly: each b's block of maps is turned into one
        bytes buffer and sliced into rows.
        """
        t = self.product_table()
        ldiv = self.left_division_table().ravel()
        ti = t.astype(np.intp)  # ti[a, c] = a * c
        order = self.order
        width = order * t.dtype.itemsize
        rows = {}  # insertion-ordered set of each row's bytes
        for b in range(order):
            mid = ti[b].take(ti)  # [a, c] = b * (a * c)
            mid += (ti[:, b] * order)[:, None]  # flat index of row a * b, column mid
            buf = ldiv.take(mid).tobytes()  # [a, c] = L_{a,b}(c)
            del mid  # release this b's index block before the next is built
            for i in range(0, len(buf), width):
                rows[buf[i:i + width]] = None
        return np.frombuffer(b"".join(rows), dtype=t.dtype).reshape(-1, order)

    def center_indices(self) -> list:
        """Brute-force center: elements fixed by every inner mapping L_{a,b}.

        L_{a,b}(c) is the z with (a * b) * z = b * (a * c), so c is fixed
        exactly when (a * b) * c = b * (a * c).  This tests that equation for
        every a, b and c on the product table itself, with no division table
        and no inner-map scan.  On a table whose rows are permutations, as
        the division table of the inner-map scan assumes, left division by
        a * b is one-to-one, so the c that satisfy it are exactly the fixed
        points of L_{a,b}; both divide by the row a * b, not b * a, which
        keeps the two definitions equal on non-commutative tables too.
        """
        t = self.product_table()
        t_cols = np.ascontiguousarray(t.T)  # t_cols[y, x] = x * y
        fixed = np.ones(self.order, dtype=bool)
        for ta in t:  # ta[x] = a * x, one a at a time
            lhs = t[ta]  # [b, c] = (a * b) * c
            rhs = t_cols[ta].T  # [b, c] = b * (a * c); a row gather, then a view
            fixed &= (lhs == rhs).all(axis=0)
        return [int(i) for i in np.nonzero(fixed)[0]]

    # -- checks ---------------------------------------------------------------

    def exhaustive_check(
        self, level: str, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED
    ) -> "QuotientReport":
        """Run one check level; every budget is checked before any work (the
        table budget by ``product_table``, the table levels' first call)."""
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; choose from {LEVELS}")
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
        expected = sorted(
            self.element_index((0, 0, 0, 0) + tail)
            for tail in np.ndindex(*(self.modulus,) * 4)
        )
        report.checks["center-matches-coordinate-description"] = center == expected
        report.counts["products-checked"] = self.order ** 2
        report.counts["center-size"] = len(center)

    def _sampled_failures(self, trials: int, seed: int) -> int:
        """Count random quadruples (a, b, c, d) with L_{a,b}(c d) != L_{a,b}(c) L_{a,b}(d).

        Each trial takes 32 little-endian 32-bit words from
        random.Random(seed).randbytes, the 8 coordinates of a, b, c, then d,
        and maps each word x to the residue (x * m) >> 32; the bias is at
        most m / 2^32.  A chunk of at most ARRAY_CHUNK trials is drawn in one
        call and evaluated at once.
        """
        self._require_int64("sampled automorphism check")
        rng = random.Random(seed)
        m = np.uint64(self.modulus)
        bad = 0
        for start in range(0, trials, ARRAY_CHUNK):
            n = min(ARRAY_CHUNK, trials - start)
            words = np.frombuffer(rng.randbytes(4 * 32 * n), dtype="<u4")
            draws = ((words.astype(np.uint64) * m) >> np.uint64(32)).astype(np.int64)
            # draws[trial, element, coordinate] -> one array per (element, coordinate)
            a, b, c, d = (tuple(e) for e in draws.reshape(n, 4, 8).transpose(1, 2, 0))
            lhs = self.inner_l(a, b, self.mul(c, d))
            rhs = self.mul(self.inner_l(a, b, c), self.inner_l(a, b, d))
            bad += int((np.array(lhs) != np.array(rhs)).any(axis=0).sum())
        return bad

    def _check_automorphic_full(self, report: "QuotientReport") -> None:
        t = self.product_table()
        maps = self._distinct_inner_maps()
        # L(c * d) = L(c) * L(d) for every c and d, one map at a time
        report.checks["automorphism-full"] = all(
            np.array_equal(p[t], t[p][:, p]) for p in maps
        )
        report.counts["quadruples-checked"] = self.order ** 4
        report.counts["distinct-inner-maps"] = len(maps)

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
                for row in t.tolist():
                    fh.write(",".join(map(str, row)))
                    fh.write("\n")
        else:
            with open(path, "wb") as fh:
                fh.write(b"CLT1")
                fh.write(struct.pack("<I", self.modulus))
                fh.write(t.astype("<u4").tobytes())


def _table_checks(t: np.ndarray) -> dict:
    """Identity, commutativity and Latin-square checks of a product table,
    keyed by the names the axioms report uses."""
    idx = np.arange(len(t))
    return {
        "identity-row": bool((t[0] == idx).all()),
        "identity-column": bool((t[:, 0] == idx).all()),
        "commutative": bool((t == t.T).all()),
        "latin-rows": bool((np.sort(t, axis=1) == idx[None, :]).all()),
        "latin-columns": bool((np.sort(t, axis=0) == idx[:, None]).all()),
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


# characters a CSV header int may have: enough for any 64-bit int, so that
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
        rows = []
        for lineno, raw in enumerate(fh, start=2):
            cells = raw.count(b",") + 1
            if cells > order:  # a wide row is refused before it is decoded or converted
                raise ValueError(
                    f"{path}: line {lineno} has {cells} cells, past the header's order={order}"
                )
            line = _csv_line(path, lineno, raw).strip()
            if not line:
                continue
            if len(rows) == order:  # refuse a long file at its first extra row
                raise ValueError(
                    f"{path}: line {lineno} is row {order + 1}, past the header's order={order}"
                )
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
    return m, order, np.array(rows, dtype=np.int64)


def _read_table_bin(path: str):
    """(m, order, table) of a binary table file, whose magic b'CLT1' the
    caller has matched.  The file's size is checked against the header
    before any entry is read."""
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
        data = np.frombuffer(fh.read(size), dtype="<u4")
    return m, order, data.reshape(order, order).astype(np.int64)


def validate_table_file(path: str) -> TableFileReport:
    """Check a table file for the Latin-square and symmetry properties.

    The magic b'CLT1' marks a binary table; any other file is read as CSV.
    Reads only the file; does not consult the loop implementation.
    """
    with open(path, "rb") as fh:
        binary = fh.read(4) == b"CLT1"
    m, order, t = _read_table_bin(path) if binary else _read_table_csv(path)
    if m < 2:
        raise ValueError(f"{path}: header modulus m={m} is below 2; no quotient loop has it")
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
