"""Syndrome-error probability under repeated vs SM-coded measurements.

Reproduces the measurement-error comparison between the 9-qubit Shor
stabilizer code and the 9-qubit Bacon-Shor subsystem code.  Both are
protected either by 6-fold repeated extraction or by [12,2,8]
Cordaro-Wagner SM codes; every scheme performs 144 single-qubit
measurements in total, so the curves compare like against like.

The exact evaluator counts the decoder's failing patterns once per SM
part and evaluates them at every grid point, so the deep tail comes out
noise-free; a Monte Carlo pass at one point shows the two agree.  The Shor-with-SM scheme needs the import-only [18,6,8] SM
code for its Z part (set QDS_DATA_DIR); it is skipped when absent.

Writes: measurement_error_curves.csv
"""

import math

from qdscodes import build_scheme, pse_exact, pse_monte_carlo, sweep, write_sweep_csv
from qdscodes.errors import AvailabilityError

GRID = [round(-1.5 - 0.25 * i, 2) for i in range(27)]  # -1.5 .. -8.0

all_rows = []
for name in ("fig1-shor-6fold", "fig1-shor-sm", "fig1-bs-6fold", "fig1-bs-sm"):
    try:
        scheme = build_scheme(name)
    except AvailabilityError as exc:
        print(f"{name}: skipped ({exc})")
        continue
    rows = sweep(scheme, GRID, method="exact")
    all_rows.extend(rows)
    head = next(r for r in rows if r.log2_pm == -4.0)
    print(f"{name}: {scheme.total_measurements} measurements, "
          f"log2 p_se = {head.log2_pse:.4f} at log2 p_m = -4")

write_sweep_csv(all_rows, "measurement_error_curves.csv")
print(f"\nwrote {len(all_rows)} rows to measurement_error_curves.csv")

scheme = build_scheme("fig1-bs-sm")
exact = pse_exact(scheme, 2.0**-4)
mc = pse_monte_carlo(scheme, 2.0**-4, trials=200_000, seed=1)
print(f"\ncross-check at log2 p_m = -4: exact {exact.p_se:.6f}, "
      f"monte-carlo {mc.p_se:.6f} +- {mc.stderr:.6f}")

# at matched measurement budgets the subsystem code wins under SM coding
# but loses under repetition, because its four weight-6 generators flip
# more often than Shor's six weight-2 generators
bs_sm = math.log2(pse_exact(build_scheme("fig1-bs-sm"), 2.0**-4).p_se)
bs_rep = math.log2(pse_exact(build_scheme("fig1-bs-6fold"), 2.0**-4).p_se)
shor_rep = math.log2(pse_exact(build_scheme("fig1-shor-6fold"), 2.0**-4).p_se)
print(f"\nat log2 p_m = -4: bacon-shor SM {bs_sm:.3f} < bacon-shor 6-fold {bs_rep:.3f}; "
      f"shor 6-fold {shor_rep:.3f} beats bacon-shor 6-fold")
