"""One extra measurement protects any distance-3 code against syndrome flips.

Measuring the product of all stabilizer generators appends a parity bit
to the syndrome: every data error then produces an even-weight extended
syndrome, leaving all weight-1 syndromes free to flag single measurement
errors.  This works verbatim for subsystem codes, whose gauge operators
are never measured, so fewer measurements need protecting.
"""

from qdscodes import augment_parity, catalog, extended_syndrome, qds_params
from qdscodes.qds import single_symbol_errors

for name in ("five-qubit", "steane", "shor", "example-6-1-3", "8-3-3", "bacon-shor"):
    base = catalog(name)
    qds = augment_parity(base)
    params = qds_params(qds)
    extra = qds.measured[-1]
    parities = {
        extended_syndrome(qds, e).weight % 2 for e in single_symbol_errors(base.n)
    }
    print(f"{name:<15} -> {params}   parity element {extra} "
          f"(weight {extra.weight}); data-error syndrome weights all even: {parities == {0}}")

# the perfect five-qubit code is the canonical customer: with no spare
# syndromes it cannot be a zero-redundancy QDS code, but one extra
# measurement suffices
from qdscodes import identity_qds

five = catalog("five-qubit")
print(f"\nfive-qubit without augmentation: QDS distance "
      f"{identity_qds(five).distance} (< 3, perfect codes have no room)")
print(f"five-qubit with the parity bit:  QDS distance "
      f"{augment_parity(five).distance}")
