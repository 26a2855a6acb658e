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

The full check scans all 65 536 inner mappings L_{a,b} once, keeps the
distinct permutations among them (43 at m = 2), and checks
L(c * d) = L(c) * L(d) for every pair (c, d) against each distinct map.
Whether that law holds depends only on the permutation L, not on the pair
(a, b) that produced it, so the check still decides every one of the
256^4 quadruples (a, b, c, d).  The center is computed from the same set:
the elements fixed by every distinct inner mapping.
"""

from __future__ import annotations

import random
import struct
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import left_div_coords, mul_coords

__all__ = [
    "QuotientLoop",
    "QuotientReport",
    "TableFileReport",
    "BudgetExceeded",
    "make_quotient",
    "exhaustive_check",
    "export_table",
    "validate_table_file",
    "LEVELS",
    "MAX_TABLE_ORDER",
    "MAX_SAMPLED_MODULUS",
]

LEVELS = ("axioms", "automorphic-sampled", "automorphic-full")

# order m^8 up to which full product tables (and order^2 / order^4 scans)
# are allowed; 256 means m = 2 only.
MAX_TABLE_ORDER = 256
MAX_SAMPLED_MODULUS = 5


class BudgetExceeded(ValueError):
    """Raised when a requested enumeration is over the configured budget."""


def make_quotient(m: int) -> "QuotientLoop":
    """Validate m and return a handle for the quotient loop (Z/m)^8."""
    return QuotientLoop(m)


class QuotientLoop:
    """The loop on (Z/m)^8 obtained by reducing the integer formula mod m."""

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {modulus}")
        if modulus % 3 == 0:
            raise ValueError(
                f"modulus {modulus} is divisible by 3: the exponent map "
                "n -> (n^3 - n)/3 is not periodic mod 3 (it maps 3 to 8 but 0 "
                "to 0, and 8 != 0 mod 3), so the multiplication formula does "
                "not descend to (Z/m)^8"
            )
        self.modulus = modulus
        self.order = modulus ** 8
        self._table: Optional[np.ndarray] = None
        self._ldiv: Optional[np.ndarray] = None
        self._inner_maps: Optional[np.ndarray] = None

    # -- element arithmetic -------------------------------------------------

    def reduce(self, coords: Sequence[int]) -> tuple:
        m = self.modulus
        return tuple(c % m for c in coords)

    def mul(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        """Product of residue tuples: lift, multiply exactly, reduce."""
        return self.reduce(mul_coords(a, b))

    def left_divide(self, a: Sequence[int], c: Sequence[int]) -> tuple:
        return self.reduce(left_div_coords(a, c))

    def power(self, a: Sequence[int], n: int) -> tuple:
        acc = (0,) * 8
        base = tuple(a)
        if n < 0:
            base = self.left_divide(base, acc)
            n = -n
        for _ in range(n):
            acc = self.mul(acc, base)
        return acc

    def inner_l(self, a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> tuple:
        return self.left_divide(self.mul(b, a), self.mul(b, self.mul(a, c)))

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

    def _require_table_budget(self, what: str) -> None:
        if self.order > MAX_TABLE_ORDER:
            raise BudgetExceeded(
                f"{what} needs a full product table with {self.order}^2 = "
                f"{self.order ** 2} entries (m = {self.modulus}); the budget "
                f"allows order <= {MAX_TABLE_ORDER}"
            )

    def product_table(self) -> np.ndarray:
        """order x order table of element indices; cached after first build."""
        self._require_table_budget("product table")
        if self._table is None:
            m, order = self.modulus, self.order
            elems = [self.element_coords(i) for i in range(order)]
            table = np.empty((order, order), dtype=np.uint16)
            for i, a in enumerate(elems):
                table[i] = [self.element_index(self.mul(a, b)) for b in elems]
            self._table = table
        return self._table

    def left_division_table(self) -> np.ndarray:
        """ldiv[a, t[a, b]] = b, the row-inverse of the product table."""
        if self._ldiv is None:
            t = self.product_table()
            order = self.order
            ldiv = np.empty_like(t)
            ldiv[np.arange(order)[:, None], t] = np.arange(order, dtype=t.dtype)[None, :]
            self._ldiv = ldiv
        return self._ldiv

    def _inner_perms(self, a: int) -> np.ndarray:
        """perms[b, c] = index of L_{a,b}(c), for one fixed a, all b and c."""
        t = self.product_table()
        ldiv = self.left_division_table()
        mid = t[:, t[a]]  # mid[b, c] = b * (a * c)
        return ldiv[t[a][:, None], mid]  # divide by b * a (= a * b)

    def _distinct_inner_maps(self) -> np.ndarray:
        """k x order array of the distinct inner mappings L_{a,b}; cached.

        Rows are permutations of the element indices, in order of first
        appearance scanning a, then b.  Duplicates are found by comparing
        the rows' bytes exactly.
        """
        if self._inner_maps is None:
            order = self.order
            rows = dict.fromkeys(  # insertion-ordered set of each row's bytes
                row.tobytes() for a in range(order) for row in self._inner_perms(a)
            )
            dtype = self.product_table().dtype
            self._inner_maps = np.frombuffer(b"".join(rows), dtype=dtype).reshape(-1, order)
        return self._inner_maps

    def center_indices(self) -> list:
        """Brute-force center: elements fixed by every inner mapping L_{a,b}."""
        self._require_table_budget("center computation")
        maps = self._distinct_inner_maps()
        fixed = (maps == np.arange(self.order)[None, :]).all(axis=0)
        return [int(i) for i in np.nonzero(fixed)[0]]

    # -- checks ---------------------------------------------------------------

    def exhaustive_check(
        self, level: str, trials: int = 1000, seed: int = 20260808
    ) -> "QuotientReport":
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; choose from {LEVELS}")
        start = time.perf_counter()
        report = QuotientReport(modulus=self.modulus, order=self.order, level=level)
        if level == "axioms":
            self._check_axioms(report)
        elif level == "automorphic-sampled":
            if self.modulus > MAX_SAMPLED_MODULUS:
                raise BudgetExceeded(
                    f"sampled automorphism check is budgeted to m <= "
                    f"{MAX_SAMPLED_MODULUS}; m = {self.modulus} has order {self.order}"
                )
            self._check_automorphic_sampled(report, trials, seed)
        else:
            if self.order > MAX_TABLE_ORDER:
                raise BudgetExceeded(
                    f"full automorphism check enumerates order^4 = "
                    f"{self.order ** 4} quadruples; budget allows order <= "
                    f"{MAX_TABLE_ORDER} (m = 2)"
                )
            self._check_automorphic_full(report)
        report.millis = int((time.perf_counter() - start) * 1000)
        return report

    def _check_axioms(self, report: "QuotientReport") -> None:
        self._require_table_budget("axioms check")
        t = self.product_table()
        order = self.order
        idx = np.arange(order)
        report.checks["identity-row"] = bool((t[0] == idx).all())
        report.checks["identity-column"] = bool((t[:, 0] == idx).all())
        report.checks["commutative"] = bool((t == t.T).all())
        report.checks["latin-rows"] = bool((np.sort(t, axis=1) == idx[None, :]).all())
        report.checks["latin-columns"] = bool((np.sort(t, axis=0) == idx[:, None]).all())
        center = self.center_indices()
        expected = sorted(
            self.element_index((0, 0, 0, 0) + tail)
            for tail in np.ndindex(*(self.modulus,) * 4)
        )
        report.checks["center-matches-coordinate-description"] = center == expected
        report.counts["products-checked"] = order * order
        report.counts["center-size"] = len(center)

    def _check_automorphic_sampled(
        self, report: "QuotientReport", trials: int, seed: int
    ) -> None:
        rng = random.Random(seed)
        m = self.modulus
        bad = 0
        for _ in range(trials):
            a, b, c, d = (
                tuple(rng.randrange(m) for _ in range(8)) for _ in range(4)
            )
            lhs = self.inner_l(a, b, self.mul(c, d))
            rhs = self.mul(self.inner_l(a, b, c), self.inner_l(a, b, d))
            if lhs != rhs:
                bad += 1
        report.checks["automorphism-sampled"] = bad == 0
        report.counts["quadruples-checked"] = trials

    def _check_automorphic_full(self, report: "QuotientReport") -> None:
        t = self.product_table()
        order = self.order
        maps = self._distinct_inner_maps()
        ok = True
        # at most `order` maps per gather bounds memory at order^3 entries
        for start in range(0, len(maps), order):
            perms = maps[start:start + order]
            lhs = perms[:, t]  # L(c * d)
            rhs = t[perms[:, :, None], perms[:, None, :]]  # L(c) * L(d)
            if not np.array_equal(lhs, rhs):
                ok = False
                break
        report.checks["automorphism-full"] = ok
        report.counts["quadruples-checked"] = order ** 4
        report.counts["distinct-inner-maps"] = len(maps)

    # -- export -----------------------------------------------------------------

    def export_table(self, path: str, fmt: str = "csv") -> None:
        """Write the Cayley table; CSV with a header line, or compact binary."""
        t = self.product_table()
        if fmt == "csv":
            with open(path, "w", encoding="ascii") as fh:
                fh.write(
                    f"caloop-table m={self.modulus} order={self.order} ordering=lex\n"
                )
                for row in t:
                    fh.write(",".join(str(int(v)) for v in row))
                    fh.write("\n")
        elif fmt == "bin":
            with open(path, "wb") as fh:
                fh.write(b"CLT1")
                fh.write(struct.pack("<I", self.modulus))
                fh.write(t.astype("<u4").tobytes())
        else:
            raise ValueError(f"unknown table format {fmt!r}; use 'csv' or 'bin'")


@dataclass
class QuotientReport:
    """Outcome of a brute-force quotient check."""

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


def exhaustive_check(
    m: int, level: str, trials: int = 1000, seed: int = 20260808
) -> QuotientReport:
    return make_quotient(m).exhaustive_check(level, trials=trials, seed=seed)


def export_table(m: int, path: str, fmt: str = "csv") -> None:
    make_quotient(m).export_table(path, fmt)


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


def _header_int(path: str, fields: dict, key: str) -> int:
    if key not in fields:
        raise ValueError(f"{path}: table header has no {key}= field")
    try:
        return int(fields[key])
    except ValueError:
        raise ValueError(f"{path}: header field {key}={fields[key]!r} is not an integer") from None


def _read_table_csv(path: str):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split()
        if len(header) != 4 or header[0] != "caloop-table":
            raise ValueError(f"{path}: not a caloop CSV table (header {header!r})")
        fields = {}
        for part in header[1:]:
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"{path}: header field {part!r} is not key=value")
            fields[key] = value
        m = _header_int(path, fields, "m")
        order = _header_int(path, fields, "order")
        if order != m ** 8:
            raise ValueError(f"{path}: header order={order} is not m^8 = {m ** 8}")
        if fields.get("ordering") != "lex":
            raise ValueError(f"{path}: unknown element ordering {fields.get('ordering')!r}")
        rows = [[int(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    return m, order, np.array(rows, dtype=np.int64)


def _read_table_bin(path: str):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"CLT1":
            raise ValueError(f"{path}: bad magic {magic!r}, expected b'CLT1'")
        (m,) = struct.unpack("<I", fh.read(4))
        order = m ** 8
        data = np.frombuffer(fh.read(), dtype="<u4")
    if data.size != order * order:
        raise ValueError(f"{path}: expected {order * order} entries, found {data.size}")
    return m, order, data.reshape(order, order).astype(np.int64)


def validate_table_file(path: str, fmt: Optional[str] = None) -> TableFileReport:
    """Check a table file for the Latin-square and symmetry properties.

    Reads only the file; does not consult the loop implementation.
    """
    if fmt is None:
        with open(path, "rb") as fh:
            fmt = "bin" if fh.read(4) == b"CLT1" else "csv"
    m, order, t = _read_table_csv(path) if fmt == "csv" else _read_table_bin(path)
    if t.shape != (order, order):
        raise ValueError(f"{path}: table shape {t.shape} does not match order {order}")
    idx = np.arange(order)
    return TableFileReport(
        modulus=m,
        order=order,
        latin=bool(
            (np.sort(t, axis=1) == idx[None, :]).all()
            and (np.sort(t, axis=0) == idx[:, None]).all()
        ),
        symmetric=bool((t == t.T).all()),
        identity_row=bool((t[0] == idx).all()),
    )
