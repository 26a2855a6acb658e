"""
Finite quotients and brute force
================================

Reducing the coordinates mod m gives a finite commutative automorphic loop
of order m^8 whenever gcd(m, 3) = 1.  At m = 2 (order 256) everything can
be checked by sheer enumeration.
"""

import os
import tempfile

from caloop.quotient import QuotientLoop, validate_table_file

loop = QuotientLoop(2)
print(f"quotient mod 2: order {loop.order}")

# Axioms by enumeration: identity row/column, commutativity, and the Latin
# square property of the full 256 x 256 table.
report = loop.exhaustive_check("axioms")
for name, ok in report.checks.items():
    print(f"  {'pass' if ok else 'FAIL'}  {name}")
print(f"  ({report.counts['products-checked']} products, {report.millis} ms)")

# The brute-forced center: exactly the 16 residues whose first four
# coordinates vanish, matching the coordinate description of the center.
center = loop.center_indices()
print(f"\ncenter has {len(center)} elements:",
      [loop.element_coords(i) for i in center[:4]], "...")

# The residue of u1 is NOT central (the quotient keeps nilpotency class 3).
print("u1 residue central?", loop.element_index((0, 0, 1, 0, 0, 0, 0, 0)) in center)

# Moduli divisible by 3 cannot work; the library explains why.
try:
    QuotientLoop(3)
except ValueError as exc:
    print("\nmod 3 rejected:", exc)

# Sampled automorphism check at a larger modulus.
big = QuotientLoop(5)
sampled = big.exhaustive_check("automorphic-sampled", trials=500)
print(f"\nmod 5 (order {big.order}): sampled automorphism pass={sampled.passed} "
      f"over {sampled.counts['quadruples-checked']} quadruples")

# Cayley-table export; the validator re-reads the file from scratch.
with tempfile.NamedTemporaryFile(suffix=".csv", delete=False) as handle:
    path = handle.name
loop.export_table(path, "csv")
check = validate_table_file(path)
print(f"\nexported {path}: latin={check.latin}, symmetric={check.symmetric}, "
      f"identity row={check.identity_row}")
os.remove(path)

# The full automorphism law over all 256^4 quadruples (a, b, c, d).  The
# 65 536 pairs (a, b) give only a few distinct inner maps L_{a,b}; whether
# L(c * d) = L(c) * L(d) holds depends only on the map, so checking each
# distinct map against every (c, d) still decides all 4.3 billion cases.
# A report times only the work of its own call, and `loop` has cached its
# table and inner maps above, so a fresh loop shows the check's full cost.
full = QuotientLoop(2).exhaustive_check("automorphic-full")
print(f"\nautomorphic-full: pass={full.passed} over "
      f"{full.counts['quadruples-checked']} quadruples, "
      f"{full.counts['distinct-inner-maps']} distinct inner maps, {full.millis} ms")
