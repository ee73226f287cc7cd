"""Measurement-error channel, exact evaluation, and Monte Carlo."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdscodes.errors import AvailabilityError, CapacityError, PreconditionError, StructureError
from qdscodes.codes import catalog
from qdscodes.gf4 import BitVector
from qdscodes.qds import measured_elements
from qdscodes.noise import (
    DECODERS,
    MeasurementScheme,
    RepetitionPart,
    SMPart,
    _shor_z_order_for_total,
    build_scheme,
    exact_is_feasible,
    p_err,
    pse_exact,
    pse_monte_carlo,
    repetition_scheme,
    sm_scheme,
    split_rows_by_type,
    sweep,
    sweep_csv,
)
from qdscodes.smcodes import (
    BinaryLinearCode,
    coset_leader_decode,
    parse_binary_code_text,
    sm_catalog,
    weighted_ml_decode,
)


def closed_form_p_err(w, p):
    return (1.0 - (1.0 - 2.0 * p) ** w) / 2.0


# ----------------------------------------------------------------------
# p_err
# ----------------------------------------------------------------------

def test_p_err_weight_one_is_pm():
    for p in (0.0, 0.1, 0.25, 0.5):
        assert p_err(1, p) == pytest.approx(p, abs=1e-15)


def test_p_err_examples():
    assert p_err(2, 0.25) == pytest.approx(0.375, abs=1e-15)
    assert p_err(6, 2.0**-4) == pytest.approx(closed_form_p_err(6, 2.0**-4), abs=1e-15)
    assert p_err(6, 2.0**-4) == pytest.approx(0.275602, abs=1e-6)


def test_p_err_matches_closed_form_grid():
    for w in range(1, 13):
        for p in np.linspace(0.0, 0.5, 50):
            assert abs(p_err(w, float(p)) - closed_form_p_err(w, float(p))) <= 1e-12


def test_p_err_validation():
    with pytest.raises(PreconditionError):
        p_err(0, 0.1)
    with pytest.raises(PreconditionError):
        p_err(3, 1.5)


# ----------------------------------------------------------------------
# measurement accounting
# ----------------------------------------------------------------------

def test_fig1_totals_are_144():
    for name in ("fig1-shor-6fold", "fig1-bs-6fold", "fig1-bs-sm"):
        assert build_scheme(name).total_measurements == 144


def test_fig1_shor_sm_needs_import():
    with pytest.raises(AvailabilityError, match="grassl-18-6-8"):
        build_scheme("fig1-shor-sm")


def test_fig2_bs_totals():
    assert build_scheme("fig2-bs-204").total_measurements == 204
    assert build_scheme("fig2-bs-216").total_measurements == 216


def test_fig2_shor_needs_import():
    with pytest.raises(AvailabilityError, match="grassl-25-6-11"):
        build_scheme("fig2-shor-204")


def test_fig1_shor_sm_with_offline_stand_in(shor_sm_data_dir):
    scheme = build_scheme("fig1-shor-sm", data_dir=shor_sm_data_dir)
    assert scheme.total_measurements == 144
    assert [p.total_measurements for p in scheme.parts] == [72, 72]


def test_shor_z_order_search_with_offline_stand_in(golay_18_6_8):
    _, z_rows = split_rows_by_type(catalog("shor").rows)

    def z_total(order):
        return sum(v.weight for v in measured_elements([z_rows[i] for i in order], golay_18_6_8))

    assert {z_total(order) for order in itertools.permutations(range(6))} == {72, 76}
    assert z_total(_shor_z_order_for_total(golay_18_6_8, z_rows, 76)) == 76
    with pytest.raises(StructureError):
        _shor_z_order_for_total(golay_18_6_8, z_rows, 74)


def test_fig2_x_part_totals_from_catalog():
    # the X parts are fully constructible: all measured elements weight 6
    shor = catalog("shor")
    x_rows, _ = split_rows_by_type(shor.rows)
    from qdscodes.qds import measured_elements

    for name, total in (("cw-17-2-11", 102), ("cw-18-2-12", 108)):
        elems = measured_elements(x_rows, sm_catalog(name))
        assert sum(v.weight for v in elems) == total


def test_repetition_part_q_values():
    scheme = repetition_scheme(catalog("shor"), 6)
    (part,) = scheme.parts
    assert sorted(part.weights) == [2, 2, 2, 2, 2, 2, 6, 6]
    assert part.total_measurements == 144


def test_split_rejects_mixed_rows():
    with pytest.raises(StructureError):
        split_rows_by_type(catalog("five-qubit").rows)


# ----------------------------------------------------------------------
# exact evaluation against the reference curves
# ----------------------------------------------------------------------

FIG1_REPETITION_POINTS = [
    ("fig1-shor-6fold", -1.5, -0.001055018, 0.02),
    ("fig1-shor-6fold", -4.0, -1.105477353, 0.01),
    ("fig1-bs-6fold", -4.0, -0.702966823, 0.01),
]


@pytest.mark.parametrize("name,log2_pm,target,tol", FIG1_REPETITION_POINTS)
def test_fig1_repetition_points(name, log2_pm, target, tol):
    result = pse_exact(build_scheme(name), 2.0**log2_pm)
    assert abs(math.log2(result.p_se) - target) <= tol


FIG1_BS_SM_POINTS = {-2: -0.035320388, -3: -0.157580157, -4: -0.950823805, -5: -2.984832884}


@pytest.mark.parametrize("decoder", ["coset-leader", "weighted-ml"])
def test_fig1_bs_sm_points_both_decoders(decoder):
    scheme = build_scheme("fig1-bs-sm", decoder=decoder)
    for log2_pm, target in FIG1_BS_SM_POINTS.items():
        result = pse_exact(scheme, 2.0**log2_pm)
        assert abs(math.log2(result.p_se) - target) <= 0.1


def test_pm_zero_gives_zero():
    scheme = build_scheme("fig1-bs-sm")
    assert pse_exact(scheme, 0.0).p_se == 0.0
    assert pse_monte_carlo(scheme, 0.0, trials=1000, seed=3).p_se == 0.0


def test_exact_monotone_in_pm():
    grid = [-8.0, -6.0, -4.0, -3.0, -2.0, -1.5]
    for name in ("fig1-shor-6fold", "fig1-bs-6fold", "fig1-bs-sm", "fig2-bs-204", "fig2-bs-216"):
        rows = sweep(build_scheme(name), grid, method="exact")
        values = [r.log2_pse for r in rows]
        assert values == sorted(values)


def test_repetition_exact_matches_exhaustive_enumeration():
    # independent oracle: enumerate every flip pattern of a tiny scheme
    part = RepetitionPart(weights=(1, 2), fold=2)
    scheme = MeasurementScheme("tiny", (part,))
    for p_m in (0.05, 0.2, 0.4):
        qs = [p_err(w, p_m) for w in part.weights]
        fail_mass = 0.0
        for flips in itertools.product((0, 1), repeat=4):
            prob = 1.0
            for idx, f in enumerate(flips):
                q = qs[idx // 2]
                prob *= q if f else 1.0 - q
            any_fail = False
            for b in range(2):
                ones = flips[2 * b] + flips[2 * b + 1]
                if ones >= 1:  # fold 2: one flip ties, two flips decode wrongly
                    any_fail = True
            if any_fail:
                fail_mass += prob
        assert pse_exact(scheme, p_m).p_se == pytest.approx(fail_mass, abs=1e-14)


def test_repetition_odd_fold_exhaustive():
    part = RepetitionPart(weights=(2,), fold=3)
    scheme = MeasurementScheme("tiny3", (part,))
    for p_m in (0.1, 0.3):
        q = p_err(2, p_m)
        fail_mass = sum(
            (q if f1 else 1 - q) * (q if f2 else 1 - q) * (q if f3 else 1 - q)
            for f1, f2, f3 in itertools.product((0, 1), repeat=3)
            if f1 + f2 + f3 >= 2
        )
        assert pse_exact(scheme, p_m).p_se == pytest.approx(fail_mass, abs=1e-14)


def test_coset_leader_failure_is_transmitted_word_independent():
    # conditional enumeration over every transmitted codeword of cw-12-2-8
    code = sm_catalog("cw-12-2-8")
    leader, _, mult = code.coset_table
    q = p_err(6, 2.0**-3)
    failures = []
    for sent in code.codewords():
        mass = 0.0
        for e in range(1 << 12):
            # decode(sent ^ e) recovers sent iff e is the unique minimum
            s = code.word_syndrome(sent ^ e)
            ok = mult[s] == 1 and (sent ^ e) ^ int(leader[s]) == sent
            if not ok:
                mass += q ** e.bit_count() * (1 - q) ** (12 - e.bit_count())
        failures.append(mass)
    assert all(f == pytest.approx(failures[0], abs=1e-12) for f in failures)


def _failing_weight_histogram(code) -> list[int]:
    """Count, per weight, the patterns coset-leader decoding fails on.

    Brute force over all 2^length words, ties counted as failures: e
    fails unless wt(e ^ c) > wt(e) for every nonzero codeword c.
    """
    span = {0}
    for row in code.rows:
        span |= {w ^ row for w in span}
    nonzero = span - {0}
    hist = [0] * (code.length + 1)
    for e in range(1 << code.length):
        w = e.bit_count()
        if any((e ^ c).bit_count() <= w for c in nonzero):
            hist[w] += 1
    return hist


def test_bs_sm_curve_matches_rational_failure_polynomial():
    # exact oracle in rationals: each of the two parts fails with
    # F = sum_w A_w q^w (1-q)^(12-w), q = p_err(6, p_m), so p_se = 1 - (1-F)^2
    scheme = build_scheme("fig1-bs-sm")
    assert all(
        part.code.name == "cw-12-2-8" and part.weights == (6,) * 12 for part in scheme.parts
    )
    hist = _failing_weight_histogram(sm_catalog("cw-12-2-8"))
    lowest = min(w for w, count in enumerate(hist) if count)
    # d/2 = 4 for d = 8: this is why p_se falls as p_m^4 at low p_m
    assert (lowest, hist[lowest]) == (4, 207)

    def log2_pse(log2_pm: int) -> float:
        p_m = Fraction(2) ** log2_pm
        q = (1 - (1 - 2 * p_m) ** 6) / 2
        fail = sum(count * q**w * (1 - q) ** (12 - w) for w, count in enumerate(hist))
        p_se = 1 - (1 - fail) ** 2
        return math.log2(p_se.numerator) - math.log2(p_se.denominator)

    for lp in (-5, -7, -10):
        assert math.log2(pse_exact(scheme, 2.0**lp).p_se) == pytest.approx(log2_pse(lp), abs=1e-6)
    # exact down to p_se ~ 2^-92: nothing cancels in 1 - success
    for lp in (-16, -20, -24):
        assert math.log2(pse_exact(scheme, 2.0**lp).p_se) == pytest.approx(log2_pse(lp), abs=1e-9)
    # [-7, -5] is the transition region, short of the p_m^4 asymptote
    assert round((log2_pse(-5) - log2_pse(-7)) / 2, 4) == 3.2436


def test_bs_6fold_matches_rational_majority_failures_at_tiny_pm():
    # each of the four weight-6 generators is read six times and decoded
    # by majority, ties failing: a bit fails with 3 or more of 6 flips
    scheme = build_scheme("fig1-bs-6fold")
    (part,) = scheme.parts
    assert (part.weights, part.fold) == ((6, 6, 6, 6), 6)
    p_m = Fraction(2) ** -20
    q = (1 - (1 - 2 * p_m) ** 6) / 2
    bit_fail = sum(math.comb(6, c) * q**c * (1 - q) ** (6 - c) for c in range(3, 7))
    p_se = 1 - (1 - bit_fail) ** 4
    oracle = math.log2(p_se.numerator) - math.log2(p_se.denominator)
    assert round(oracle, 3) == -45.923
    assert math.log2(pse_exact(scheme, 2.0**-20).p_se) == pytest.approx(oracle, abs=1e-9)


def test_sm_part_with_heterogeneous_weights_ml_vs_mc():
    # dual route: exact weighted-ML enumeration vs Monte Carlo sampling
    part = SMPart(code=sm_catalog("cw-12-2-8"), weights=(2, 6) * 6, decoder="weighted-ml")
    scheme = MeasurementScheme("hetero", (part,))
    exact = pse_exact(scheme, 2.0**-4).p_se
    mc = pse_monte_carlo(scheme, 2.0**-4, trials=200_000, seed=5)
    assert abs(mc.p_se - exact) <= 4 * mc.stderr


def test_sm_part_weight_count_mismatch():
    with pytest.raises(StructureError):
        SMPart(code=sm_catalog("cw-12-2-8"), weights=(6,) * 11)


@st.composite
def systematic_parts(draw):
    """A random systematic [n, k] code, n <= 10, with element weights from {2, 4, 6}."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 10))
    columns = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n - k, max_size=n - k))
    rows = tuple(
        (1 << i) | sum(((col >> i) & 1) << (k + j) for j, col in enumerate(columns))
        for i in range(k)
    )
    weights = tuple(draw(st.lists(st.sampled_from((2, 4, 6)), min_size=n, max_size=n)))
    return SMPart(BinaryLinearCode(n, rows), weights, draw(st.sampled_from(DECODERS)))


def _brute_force_failure(part: SMPart, p_m: float) -> float:
    """Classify all 2^n words with the public single-word decoders; a word
    is a success iff the decoder flags no tie and returns message 0."""
    code, n = part.code, part.code.length
    assert code.column_permutation == tuple(range(n))
    q = [p_err(w, p_m) for w in part.weights]
    failing = []
    for word in range(1 << n):
        received = BitVector(n, word)
        if part.decoder == "coset-leader":
            out = coset_leader_decode(code, received)
        else:
            out = weighted_ml_decode(code, received, q)
        if not (out.success and out.message.bits == 0):
            failing.append(math.prod(q[j] if (word >> j) & 1 else 1.0 - q[j] for j in range(n)))
    return math.fsum(failing)


@settings(max_examples=60, deadline=None)
@given(part=systematic_parts(), log2_pm=st.sampled_from((-1.5, -3.0, -6.0)))
def test_exact_enumerator_matches_brute_force_decoding(part, log2_pm):
    got = pse_exact(MeasurementScheme("random", (part,)), 2.0**log2_pm).p_se
    assert got == pytest.approx(_brute_force_failure(part, 2.0**log2_pm), rel=1e-12, abs=0.0)


def _high_rate_code(a_columns: list[int]) -> BinaryLinearCode:
    """Systematic [k + 2, k] code whose message bit i has parity column a_columns[i]."""
    rows = tuple((1 << i) | (col << len(a_columns)) for i, col in enumerate(a_columns))
    return BinaryLinearCode(len(a_columns) + 2, rows)


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("a_columns", [
    [0b01] * 8,  # coset 01 holds nine weight-1 patterns
    [0b01, 0b10, 0b10, 0b10, 0b11, 0b11, 0b11, 0b11],  # coset 01 holds exactly two
])
def test_high_rate_code_exact_and_monte_carlo(decoder, a_columns):
    # 256 codewords in 4 cosets: Monte Carlo looks the runner-up cost up
    # by syndrome
    part = SMPart(_high_rate_code(a_columns), (2, 4, 6, 2, 4, 6, 2, 4, 6, 2), decoder)
    scheme = MeasurementScheme("high-rate", (part,))
    exact = pse_exact(scheme, 2.0**-3).p_se
    assert exact == pytest.approx(_brute_force_failure(part, 2.0**-3), rel=1e-12, abs=0.0)
    trials = 1 << 16
    mc = pse_monte_carlo(scheme, 2.0**-3, trials, seed=9)
    assert abs(mc.p_se - exact) <= 5 * math.sqrt(exact * (1.0 - exact) / trials)


def _dim2_exact_failure(rows: tuple[int, int], q: float) -> float:
    """Weighted-ML failure of a dimension-2 code under one flip probability.

    With one likelihood class the zero word is decoded iff |e & c| < |c|/2
    for each nonzero codeword c.  The codewords r1, r2, r1 ^ r2 cover three
    column blocks, so the success mass is a triple sum over per-block flips.
    """
    r1, r2 = rows
    a, b, c = (r1 & ~r2).bit_count(), (r1 & r2).bit_count(), (r2 & ~r1).bit_count()

    def binom(size):
        return [math.comb(size, x) * q**x * (1.0 - q) ** (size - x) for x in range(size + 1)]

    pa, pb, pc = binom(a), binom(b), binom(c)
    ok = math.fsum(
        pa[x] * pb[y] * pc[z]
        for x in range(a + 1) for y in range(b + 1) for z in range(c + 1)
        if 2 * (x + y) < a + b and 2 * (y + z) < b + c and 2 * (x + z) < a + c
    )
    return 1.0 - ok


def test_weighted_ml_monte_carlo_on_a_35_bit_code():
    # longer than 32 bits: received words are packed into uint64
    rng = np.random.default_rng(35)
    r1, r2 = (int(v) for v in rng.integers(1, 1 << 35, size=2))
    assert r1 != r2
    code = BinaryLinearCode(35, (r1, r2), "random-35-2")
    scheme = MeasurementScheme(code.name, (SMPart(code, (4,) * 35, "weighted-ml"),))
    trials = 1 << 16
    exact = _dim2_exact_failure((r1, r2), p_err(4, 2.0**-4))
    mc = pse_monte_carlo(scheme, 2.0**-4, trials, seed=11)
    assert abs(mc.p_se - exact) <= 5 * math.sqrt(exact * (1.0 - exact) / trials)


def test_sm_part_longer_than_a_packed_word_is_refused():
    code = BinaryLinearCode(65, ((1 << 65) - 1,))
    with pytest.raises(CapacityError):
        SMPart(code, (2,) * 65)


def test_sm_part_of_too_high_dimension_is_refused():
    # a [40, 30] code would list 2^30 codewords
    code = BinaryLinearCode(40, tuple((1 << i) | (1 << 39) for i in range(30)))
    with pytest.raises(CapacityError):
        SMPart(code, (2,) * 40)


# ----------------------------------------------------------------------
# Monte Carlo behaviour
# ----------------------------------------------------------------------

def test_monte_carlo_matches_exact_on_fig1_schemes():
    for name in ("fig1-shor-6fold", "fig1-bs-6fold", "fig1-bs-sm"):
        scheme = build_scheme(name)
        for log2_pm in (-2.0, -3.0):
            exact = pse_exact(scheme, 2.0**log2_pm).p_se
            mc = pse_monte_carlo(scheme, 2.0**log2_pm, trials=100_000, seed=17)
            assert abs(mc.p_se - exact) <= 4 * max(mc.stderr, 1e-12)


def test_monte_carlo_deterministic_and_chunked():
    scheme = build_scheme("fig1-bs-sm")
    a = pse_monte_carlo(scheme, 2.0**-3, trials=30_000, seed=23, chunk_size=7_000)
    b = pse_monte_carlo(scheme, 2.0**-3, trials=30_000, seed=23, chunk_size=7_000)
    assert a.p_se == b.p_se
    assert a.trials == 30_000
    assert a.stderr == pytest.approx(math.sqrt(a.p_se * (1 - a.p_se) / 30_000))


# failures out of 20 000 trials at log2 p_m = -3, seed 7, chunk size 7 000,
# as recorded before the Monte Carlo decoder moved onto the coset kernel
PINNED_MC_FAILURES = [
    ("fig1-bs-sm", "coset-leader", 17914),
    ("fig1-bs-sm", "weighted-ml", 17914),
    ("fig1-bs-6fold", "coset-leader", 18533),
    ("fig2-bs-216", "coset-leader", 16897),
]


@pytest.mark.parametrize("name,decoder,failures", PINNED_MC_FAILURES)
def test_monte_carlo_failure_counts_are_pinned(name, decoder, failures):
    scheme = build_scheme(name, decoder=decoder)
    result = pse_monte_carlo(scheme, 2.0**-3, trials=20_000, seed=7, chunk_size=7_000)
    assert result.p_se * 20_000 == failures


def test_p_se_paths_build_no_coset_table(monkeypatch):
    def refuse(code):
        raise AssertionError(f"coset table built for {code.name or code.length}")

    monkeypatch.setattr(BinaryLinearCode, "coset_table", property(refuse))
    rng = np.random.default_rng(20)
    columns = rng.integers(1, 1 << 6, size=14)
    rows = ["".join("1" if j == i else "0" for j in range(6))
            + "".join(str((int(col) >> i) & 1) for col in columns) for i in range(6)]
    imported = sm_scheme(catalog("shor"), sm_catalog("cw-12-2-8"),
                         parse_binary_code_text("\n".join(rows), "import-20-6"), name="import-20-6")
    for scheme in (build_scheme("fig2-bs-216"), imported):
        rows_out = sweep(scheme, [-2.0, -6.0], method="exact")
        assert all(math.isfinite(r.log2_pse) for r in rows_out)
        assert 0.0 < pse_monte_carlo(scheme, 2.0**-2, trials=5_000, seed=1).p_se < 1.0


def test_weighted_ml_pm_zero_gives_zero():
    # p = 0 gives lambda = inf; zero flip counts must not turn 0 * inf into nan
    scheme = build_scheme("fig1-bs-sm", decoder="weighted-ml")
    assert pse_exact(scheme, 0.0).p_se == 0.0
    assert pse_monte_carlo(scheme, 0.0, trials=1000, seed=3).p_se == 0.0


def test_monte_carlo_validates_trials():
    with pytest.raises(PreconditionError):
        pse_monte_carlo(build_scheme("fig1-bs-sm"), 0.1, trials=0)


@pytest.mark.parametrize("name", ["fig1-bs-sm", "fig1-bs-6fold"])
@pytest.mark.parametrize("chunk_size", [0, -1])
def test_monte_carlo_validates_chunk_size(name, chunk_size):
    # with chunk_size 0 a repetition-only scheme's chunk loop never advances
    with pytest.raises(PreconditionError, match="chunk_size"):
        pse_monte_carlo(build_scheme(name), 0.1, trials=100, chunk_size=chunk_size)


@pytest.mark.parametrize("decoder", DECODERS)
def test_fig1_shor_sm_exact_and_monte_carlo_agree(shor_sm_data_dir, decoder):
    # the [18,6] Z part has more codewords than syndrome bits, so Monte
    # Carlo looks its runner-up costs up by syndrome
    scheme = build_scheme("fig1-shor-sm", data_dir=shor_sm_data_dir, decoder=decoder)
    trials = 10**5
    for log2_pm in (-2.0, -3.0, -4.0):
        exact = pse_exact(scheme, 2.0**log2_pm).p_se
        mc = pse_monte_carlo(scheme, 2.0**log2_pm, trials, seed=31)
        assert abs(mc.p_se - exact) <= 5 * math.sqrt(exact * (1.0 - exact) / trials)


def _random_part(n: int, k: int, seed: int, decoder: str) -> SMPart:
    """A seeded random systematic [n, k] part with element weights from {2, 4, 6}."""
    rng = np.random.default_rng(seed)
    columns = rng.integers(0, 1 << k, size=n - k)
    rows = tuple(
        (1 << i) | sum(((int(col) >> i) & 1) << (k + j) for j, col in enumerate(columns))
        for i in range(k)
    )
    weights = tuple(int(w) for w in rng.choice((2, 4, 6), size=n))
    return SMPart(BinaryLinearCode(n, rows, f"random-{n}-{k}"), weights, decoder)


@pytest.mark.parametrize("decoder", DECODERS)
def test_monte_carlo_syndrome_table_above_20_bits(decoder):
    part = _random_part(22, 6, seed=22, decoder=decoder)
    scheme = MeasurementScheme(part.code.name, (part,))
    trials = 1 << 16
    exact = pse_exact(scheme, 2.0**-3).p_se
    mc = pse_monte_carlo(scheme, 2.0**-3, trials, seed=13)
    assert abs(mc.p_se - exact) <= 5 * math.sqrt(exact * (1.0 - exact) / trials)
    if decoder == "coset-leader":
        assert "_unit_runner_up" in part.__dict__  # looked up, not scanned per word


# ----------------------------------------------------------------------
# sweeps and CSV
# ----------------------------------------------------------------------

def test_sweep_single_point():
    rows = sweep(build_scheme("fig1-shor-6fold"), [-4.0], method="exact")
    assert len(rows) == 1
    assert rows[0].log2_pse == pytest.approx(-1.105477, abs=0.01)
    assert rows[0].total_measurements == 144
    assert rows[0].method == "exact"


def test_sweep_auto_picks_exact_for_small_schemes():
    scheme = build_scheme("fig1-bs-sm")
    assert exact_is_feasible(scheme)
    rows = sweep(scheme, [-3.0], method="auto")
    assert rows[0].method == "exact"


def test_sweep_auto_picks_exact_up_to_the_enumeration_cap():
    # one cap, HARD_EXACT_BITS = 25, decides auto's choice
    exact_rows = sweep(MeasurementScheme("r22", (_random_part(22, 6, 22, "coset-leader"),)),
                       [-3.0], method="auto")
    assert exact_rows[0].method == "exact"
    assert exact_rows[0].trials == 0
    mc_rows = sweep(MeasurementScheme("r26", (_random_part(26, 6, 26, "coset-leader"),)),
                    [-3.0], method="auto", trials=1000)
    assert mc_rows[0].method == "monte-carlo"
    assert mc_rows[0].trials == 1000


def test_sweep_csv_schema():
    rows = sweep(build_scheme("fig1-bs-sm"), [-2.0, -3.0], method="exact")
    text = sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "log2_pm,log2_pse,stderr,trials,total_measurements,scheme,method"
    assert len(lines) == 3
    assert lines[1].startswith("-2,")
    assert ",144,fig1-bs-sm,exact" in lines[1]


def test_sweep_csv_log2_pse_reads_back_exactly():
    # at log2 p_m = -20, 10 significant digits would give -60.96672501
    rows = sweep(build_scheme("fig1-bs-sm"), [-20.0], method="exact")
    lines = sweep_csv(rows).strip().split("\n")[1:]
    assert [float(line.split(",")[1]) for line in lines] == [r.log2_pse for r in rows]
    assert rows[0].log2_pse == pytest.approx(-60.96672501, abs=1e-8)


def test_sweep_zero_pse_renders_negative_infinity():
    rows = sweep(build_scheme("fig1-shor-6fold"), [-math.inf], method="exact")
    assert rows[0].log2_pse == -math.inf
    assert "-inf" in sweep_csv(rows)


def test_sweep_rejects_empty_grid_and_bad_method():
    scheme = build_scheme("fig1-shor-6fold")
    with pytest.raises(PreconditionError):
        sweep(scheme, [])
    with pytest.raises(PreconditionError):
        sweep(scheme, [-2.0], method="fancy")


def test_low_pm_slope_of_bs_sm_curve():
    # the asymptotic p_m^4 scaling of the distance-8 SM protection is
    # reached deep in the tail; the window [-10, -8] shows it
    rows = sweep(build_scheme("fig1-bs-sm"), [-10.0, -8.0], method="exact")
    slope = (rows[1].log2_pse - rows[0].log2_pse) / 2.0
    assert slope == pytest.approx(3.905, abs=0.01)


def test_unknown_scheme_name():
    with pytest.raises(PreconditionError):
        build_scheme("fig3-mystery")
