"""Acceptance criteria, one test per criterion clause.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (run pytest
with -s to see them) and then asserts, so the suite doubles as a
checklist.  Criterion 3's low-p_m slope clause checks that the Bacon-Shor
SM curve falls as p_m^4 (4.0 +- 0.3), the exponent set by the 207
weight-4 = d/2 failing patterns of the [12,2,8] SM code.  The slope is
measured over log2 p_m in [-12, -10], where the curve has reached that
asymptote (3.976).  Over [-7, -5] the weight-5-and-up terms still count
and the true slope is 3.2436 (the reference data has 3.238), so no
correct evaluator reaches 4 there; tests/test_noise.py checks both
figures against an exact rational enumeration of all 2^12 patterns,
and holds pse_exact to it within 1e-9 bits down to log2 p_m = -24:
pse_exact sums failure probability and never forms 1 - success, so the
window is chosen for where the asymptote is reached, not for precision.
"""

import itertools
import math
import time

import pytest

from qdscodes.bounds import impure_bound, pure_only_families, qds_hamming_d3
from qdscodes.codes import catalog, is_impure, make_stabilizer, min_distance
from qdscodes.errors import AvailabilityError
from qdscodes.gf4 import F4Vector, pauli_string_parse
from qdscodes.noise import (
    build_scheme,
    p_err,
    pse_exact,
    pse_monte_carlo,
    split_rows_by_type,
    sweep,
)
from qdscodes.qds import (
    Conjugate,
    Permute,
    Scale,
    augment_parity,
    build_qds,
    extended_syndrome,
    identity_qds,
    impure_zero_redundancy,
    measured_elements,
    qds_min_distance,
    single_symbol_errors,
)
from qdscodes.smcodes import sm_catalog

import numpy as np


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ----------------------------------------------------------------------
# 1. Example 1 golden test
# ----------------------------------------------------------------------

def test_criterion_1_example_1_golden():
    start = time.perf_counter()
    g = catalog("example-6-1-3")
    ok = (g.n, g.k) == (6, 1) and min_distance(g) == 3 and is_impure(g, 3)
    g_prime = catalog("example-6-1-3-prime")
    ok = ok and qds_min_distance(identity_qds(g_prime)) == 3 and g_prime.rows[0].weight == 6
    result = impure_zero_redundancy(g)
    found = make_stabilizer(result.rows)
    ok = ok and qds_min_distance(identity_qds(found)) == 3
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report("1", ok, f"catalog G impure [[6,1,3]], G' = [[6,1,3:0]], search re-verified "
                    f"({elapsed * 1000:.0f} ms)")
    assert ok


# ----------------------------------------------------------------------
# 2. Fig. 1 repetition curves, exact model
# ----------------------------------------------------------------------

def test_criterion_2_repetition_points():
    start = time.perf_counter()
    points = [
        ("fig1-shor-6fold", -1.5, -0.001055, 0.02),
        ("fig1-shor-6fold", -4.0, -1.105477, 0.01),
        ("fig1-bs-6fold", -4.0, -0.702967, 0.01),
    ]
    deltas = []
    for name, log2_pm, target, tol in points:
        got = math.log2(pse_exact(build_scheme(name), 2.0**log2_pm).p_se)
        deltas.append((abs(got - target), tol))
    elapsed = time.perf_counter() - start
    ok = all(d <= tol for d, tol in deltas) and elapsed < 1.0
    report("2", ok, "deltas " + ", ".join(f"{d:.5f}<={tol}" for d, tol in deltas)
           + f" ({elapsed * 1000:.0f} ms)")
    assert ok


# ----------------------------------------------------------------------
# 3. Fig. 1 SM-curve calibration and slope
# ----------------------------------------------------------------------

BS_SM_TARGETS = {-2.0: -0.0353, -3.0: -0.1576, -4.0: -0.9508, -5.0: -2.9848}


def _bs_sm_deltas(decoder: str) -> list[float]:
    scheme = build_scheme("fig1-bs-sm", decoder=decoder)
    return [
        abs(math.log2(pse_exact(scheme, 2.0**lp).p_se) - target)
        for lp, target in BS_SM_TARGETS.items()
    ]


def test_criterion_3_decoder_calibration():
    results = {dec: _bs_sm_deltas(dec) for dec in ("coset-leader", "weighted-ml")}
    matching = [dec for dec, deltas in results.items() if max(deltas) <= 0.1]
    ok = len(matching) >= 1
    report("3 (calibration)", ok,
           f"matching decoders {matching}; max deltas "
           + ", ".join(f"{dec}={max(d):.5f}" for dec, d in results.items())
           + "; documented default: coset-leader")
    assert ok


def test_criterion_3_low_pm_slope():
    grid = [-12.0, -10.0, -7.0, -5.0]
    rows = sweep(build_scheme("fig1-bs-sm"), grid, method="exact")
    log2_pse = {row.log2_pm: row.log2_pse for row in rows}

    def slope(lo: float, hi: float) -> float:
        return (log2_pse[hi] - log2_pse[lo]) / (hi - lo)

    asymptotic = slope(-12.0, -10.0)
    transition = slope(-7.0, -5.0)
    ok = abs(asymptotic - 4.0) <= 0.3
    report("3 (slope)", ok,
           f"slope over log2_pm in [-12,-10] = {asymptotic:.4f}, required 4.0 +- 0.3 "
           f"(p_m^4: lowest failing weight of the [12,2,8] SM code is 4); "
           f"transition slope over [-7,-5] = {transition:.4f}")
    assert ok


# ----------------------------------------------------------------------
# 4. measurement accounting
# ----------------------------------------------------------------------

def test_criterion_4_measurement_accounting():
    totals = {name: build_scheme(name).total_measurements
              for name in ("fig1-shor-6fold", "fig1-bs-6fold", "fig1-bs-sm")}
    ok = all(t == 144 for t in totals.values())

    # fig1-shor-sm: X part is constructible (72 measurements); the Z part
    # needs the imported [18,6,8] whose weights are stated to sum to 72
    x_rows, z_rows = split_rows_by_type(catalog("shor").rows)
    x_total = sum(v.weight for v in measured_elements(x_rows, sm_catalog("cw-12-2-8")))
    try:
        shor_sm = build_scheme("fig1-shor-sm")
        ok = ok and shor_sm.total_measurements == 144
        shor_sm_note = f"built: {shor_sm.total_measurements}"
    except AvailabilityError:
        ok = ok and x_total == 72 and x_total + 72 == 144
        shor_sm_note = f"import absent: X part {x_total} + stated Z part 72 = 144"

    # fig2: Bacon-Shor schemes are constructible; Shor needs the [25,6,11]
    ok = ok and build_scheme("fig2-bs-204").total_measurements == 204
    ok = ok and build_scheme("fig2-bs-216").total_measurements == 216
    x_17 = sum(v.weight for v in measured_elements(x_rows, sm_catalog("cw-17-2-11")))
    x_18 = sum(v.weight for v in measured_elements(x_rows, sm_catalog("cw-18-2-12")))
    try:
        ok = ok and build_scheme("fig2-shor-204").total_measurements == 204
        ok = ok and build_scheme("fig2-shor-216").total_measurements == 216
        fig2_note = "fig2 shor schemes built from import"
    except AvailabilityError:
        ok = ok and x_17 + 102 == 204 and x_18 + 108 == 216
        fig2_note = f"import absent: X parts {x_17}/{x_18} + stated Z parts 102/108"

    report("4", ok, f"fig1 totals {totals}, shor-sm ({shor_sm_note}), "
                    f"bs fig2 204/216, {fig2_note}")
    assert ok


# ----------------------------------------------------------------------
# 5. parity-augmentation property suite
# ----------------------------------------------------------------------

def test_criterion_5_parity_augmentation_suite():
    names = ["five-qubit", "steane", "shor", "example-6-1-3", "example-6-1-3-prime",
             "8-3-3", "bacon-shor"]
    checked = []
    ok = True
    for name in names:
        base = catalog(name)
        if min_distance(base) != 3:
            continue
        qds = augment_parity(base)
        ok = ok and qds_min_distance(qds) >= 3
        ok = ok and all(
            extended_syndrome(qds, e).weight % 2 == 0 for e in single_symbol_errors(base.n)
        )
        checked.append(name)
    report("5", ok, f"parity augmentation on {checked}: distance >= 3 and even syndromes")
    assert ok and len(checked) == len(names)


# ----------------------------------------------------------------------
# 6. bounds
# ----------------------------------------------------------------------

def test_criterion_6_bound_verdicts():
    verdicts = {
        "d3(5,1)": qds_hamming_d3(5, 1) is False,
        "d3(6,1)": qds_hamming_d3(6, 1) is True,
        "d3(7,1)": qds_hamming_d3(7, 1) is True,
        "d3(8,3)": qds_hamming_d3(8, 3) is True,
        "impure(21,15)": impure_bound(21, 15) is False,
        "impure(22,15)": impure_bound(22, 15) is True,
    }
    fams = pure_only_families(3)
    verdicts["families(3)"] = (5, 1) in fams and (21, 15) in fams
    ok = all(verdicts.values())
    report("6", ok, ", ".join(k for k, v in verdicts.items() if v) or "none")
    assert ok


# ----------------------------------------------------------------------
# 7. oracle equivalences
# ----------------------------------------------------------------------

def test_criterion_7a_dual_characterization():
    from qdscodes.gf4 import BitVector, star_inner_product

    toys = [
        (("ZZ",), "identity-1"),
        (("ZZI", "IZZ"), "parity-2"),
        (("XXXX", "ZZZZ"), "parity-2"),
    ]
    ok = True
    for rows, sm_name in toys:
        base = make_stabilizer(pauli_string_parse(r) for r in rows)
        qds = build_qds(base, sm_catalog(sm_name))
        n, m, l = qds.n, qds.m, qds.l
        ghat = [(g, BitVector(m + l, 1 << i)) for i, g in enumerate(base.rows)]
        ghat += [
            (F4Vector.zero(n), BitVector(m + l, qds.sm.a_column(j) | (1 << (m + j))))
            for j in range(l)
        ]
        brute = set()
        for symbols in itertools.product(range(4), repeat=n):
            v = F4Vector.from_symbols(symbols)
            for tail in range(1 << (m + l)):
                if all(
                    star_inner_product((v, BitVector(m + l, tail)), row) == 0 for row in ghat
                ):
                    brute.add((symbols, tail))
        characterized = {
            (e.symbols(), extended_syndrome(qds, e).bits)
            for e in (F4Vector.from_symbols(s) for s in itertools.product(range(4), repeat=n))
        }
        ok = ok and brute == characterized
    report("7a", ok, f"dual characterization matches brute-force star-dual on {len(toys)} toys")
    assert ok


def test_criterion_7b_p_err_closed_form():
    worst = 0.0
    for w in range(1, 13):
        for p in np.linspace(0.0, 0.5, 50):
            closed = (1.0 - (1.0 - 2.0 * float(p)) ** w) / 2.0
            worst = max(worst, abs(p_err(w, float(p)) - closed))
    ok = worst <= 1e-12
    report("7b", ok, f"max |odd-sum - closed form| = {worst:.2e} for w <= 12")
    assert ok


def test_criterion_7c_monte_carlo_vs_exact():
    names = ["fig1-shor-6fold", "fig1-bs-6fold", "fig1-bs-sm"]
    try:
        build_scheme("fig1-shor-sm")
        names.append("fig1-shor-sm")
    except AvailabilityError:
        pass
    worst_sigma = 0.0
    for name in names:
        scheme = build_scheme(name)
        for log2_pm in (-2.0, -3.0, -4.0):
            exact = pse_exact(scheme, 2.0**log2_pm).p_se
            mc = pse_monte_carlo(scheme, 2.0**log2_pm, trials=10**6, seed=2024)
            sigma = abs(mc.p_se - exact) / max(mc.stderr, 1e-12)
            worst_sigma = max(worst_sigma, sigma)
    ok = worst_sigma <= 4.0
    report("7c", ok, f"max |mc - exact| = {worst_sigma:.2f} sigma over {names} at 10^6 trials")
    assert ok


def test_criterion_7d_equivalence_moves():
    rng = np.random.default_rng(100)
    current = catalog("example-6-1-3-prime").rows
    ok = True
    for _ in range(100):
        kind = rng.integers(0, 3)
        if kind == 0:
            move = Permute(tuple(rng.permutation(6).tolist()))
        elif kind == 1:
            move = Scale(int(rng.integers(0, 6)), int(rng.integers(2, 4)))
        else:
            move = Conjugate(int(rng.integers(0, 6)))
        from qdscodes.qds import equivalence_apply

        current = equivalence_apply(current, move)
        code = make_stabilizer(current)
        ok = ok and (code.n, code.k) == (6, 1) and qds_min_distance(identity_qds(code)) == 3
    report("7d", ok, "100 random equivalence moves all re-verify as [[6,1,3:0]]")
    assert ok


# ----------------------------------------------------------------------
# 8. desk-scale limits: the import pathway substitutes for unpublished data
# ----------------------------------------------------------------------

def test_criterion_8_import_pathway_substitution(tmp_path):
    gated = {}
    for name in ("fig1-shor-sm", "fig2-shor-204", "fig2-shor-216"):
        try:
            build_scheme(name, data_dir=tmp_path)
            gated[name] = "built"
        except AvailabilityError as exc:
            gated[name] = "gated"
            assert "grassl" in str(exc) and ".txt" in str(exc)
    # the pathway itself works: a valid file parses, a wrong one is rejected
    from qdscodes.errors import StructureError
    from qdscodes.smcodes import write_binary_code_file

    write_binary_code_file(sm_catalog("cw-18-2-12"), tmp_path / "grassl-18-6-8.txt")
    try:
        sm_catalog("grassl-18-6-8", tmp_path)
        validated = False
    except StructureError:
        validated = True
    ok = validated and all(v in ("built", "gated") for v in gated.values())
    report("8", ok, f"unpublished matrices handled via import gate: {gated}; "
                    "parameter validation active; fig2 totals asserted arithmetically in 4")
    assert ok
