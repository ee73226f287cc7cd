"""Turning an impure distance-3 code into a zero-redundancy QDS code.

The [[6,1,3]] code below is impure: its first generator has Pauli weight
2, below the minimum distance.  With the standard generators a single X
error on qubit 4 produces a weight-1 syndrome, so one flipped measurement
is indistinguishable from a data error and the code cannot survive
unreliable syndrome extraction without extra measurements.

Swapping to an equivalent generator set fixes this with *no* extra
measurements: replace the light generator by the product of all five and
then multiply the light generator back into an even-sized subset of rows
until no single-symbol error has a weight-1 syndrome left.
"""

from qdscodes import (
    catalog,
    identity_qds,
    impure_zero_redundancy,
    is_impure,
    min_distance,
    syndrome,
)
from qdscodes.qds import single_symbol_errors

code = catalog("example-6-1-3")
d = min_distance(code)
print(f"catalog [[6,1,{d}]] code, impure: {is_impure(code, d)}")
for row in code.rows:
    print(f"  {row}  (weight {row.weight})")

print("\nsingle-symbol errors with weight-1 syndromes under these generators:")
for e in single_symbol_errors(6):
    s = syndrome(code.rows, e)
    if s.weight == 1:
        print(f"  error {e} -> syndrome {s}")

print(f"\nas a zero-redundancy QDS code this reaches distance "
      f"{identity_qds(code).distance} (needs 3)")

result = impure_zero_redundancy(code)
print(f"\nsearch: pivot {result.pivot}, even-weight string {result.modifier}, "
      f"{result.strings_examined} strings examined")
print("new generators:")
for row in result.rows:
    print(f"  {row}")

found = result.qds.base
print(f"\nverified: distance {min_distance(found)} base code, "
      f"QDS distance {result.qds.distance} with zero redundancy")

prime = catalog("example-6-1-3-prime")
print(f"matches the reference generator choice: {found.rows == prime.rows}")
