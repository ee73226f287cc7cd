"""Measurement-error channel, exact evaluation, and Monte Carlo."""

import collections
import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qdscodes.errors import AvailabilityError, CapacityError, PreconditionError, StructureError
from qdscodes.codes import catalog
from qdscodes.gf4 import BitVector
from qdscodes.qds import measured_elements
from qdscodes import cli, montecarlo, noise
from qdscodes.montecarlo import (
    GUIDE_BUCKETS,
    _chunk_rng,
    _draws,
    _Positions,
    _Sampler,
    _sm_decoder,
    _syndromes,
)
from qdscodes.noise import (
    DECODERS,
    DEFAULT_CHUNK_SIZE,
    TILE_WORDS,
    MeasurementScheme,
    RepetitionPart,
    SMPart,
    _coset_minima,
    _failing_patterns,
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
    likelihood_classes,
    parse_binary_code_text,
    pattern_cost,
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


# the curves grid, log2 p_m = -1.5 ... -8 in steps of 0.1, plus the ends
PINNED_PMS = [2.0 ** round(-1.5 - 0.1 * i, 12) for i in range(66)] + [
    0.0, 2.0**-1074, 2.0**-60, 0.5, 1.0]


def test_p_err_and_majority_failure_are_their_literal_formulas_bit_for_bit():
    # exact evaluation's values, and so its CSVs, rest on these bits: Python
    # scalar ** (numpy's power differs in the last bit on some hosts) and the
    # builtin sum, which this Python may or may not compensate
    for w in range(1, 13):
        qs = [p_err(w, p) for p in PINNED_PMS]
        assert qs == [sum(math.comb(w, j) * p**j * (1.0 - p) ** (w - j)
                          for j in range(1, w + 1, 2)) for p in PINNED_PMS]
        for fold in range(1, 13):
            majority = range((fold + 1) // 2, fold + 1)
            assert [noise._majority_bit_failure(q, fold) for q in qs] == [
                math.fsum(math.comb(fold, c) * q**c * (1.0 - q) ** (fold - c) for c in majority)
                for q in qs]
    # the grid path takes each weight's column at once, with the same bits
    part = RepetitionPart(weights=(3, 1, 3, 6), fold=5)
    assert noise._failure_probabilities(part, PINNED_PMS) == [
        [noise._majority_bit_failure(p_err(w, p), 5) for w in part.weights] for p in PINNED_PMS]


def test_p_err_validation():
    with pytest.raises(PreconditionError):
        p_err(0, 0.1)
    with pytest.raises(PreconditionError):
        p_err(3, 1.5)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: SMPart(code=sm_catalog("parity-3"), weights=(1,) * 4, decoder="bogus"),
                 "decoder must be one of", id="decoder"),
    pytest.param(lambda: repetition_scheme(catalog("steane"), fold=0), "fold must be >= 1",
                 id="fold"),
])
def test_scheme_parts_refuse_bad_options(build, message):
    with pytest.raises(PreconditionError, match=message):
        build()


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


FIGURE_SCHEMES = ["fig1-shor-6fold", "fig1-shor-sm", "fig1-bs-6fold", "fig1-bs-sm",
                  "fig2-shor-204", "fig2-shor-216", "fig2-bs-204", "fig2-bs-216"]
README = Path(__file__).resolve().parents[1] / "README.md"


def test_unknown_scheme_lists_the_figure_schemes_in_order(capsys):
    assert list(noise.SCHEMES) == FIGURE_SCHEMES
    with pytest.raises(PreconditionError) as raised:
        build_scheme("fig9")
    assert str(raised.value) == f"unknown scheme 'fig9'; known: {', '.join(FIGURE_SCHEMES)}"
    assert cli.main(["simulate", "--scheme", "fig9", "--pm-log2=-3"]) == 3
    assert capsys.readouterr().err.strip() == f"error: {raised.value}"


def test_readme_names_every_scheme_in_order():
    sentence = README.read_text().split("\nSimulation schemes: ", 1)[1].split(".", 1)[0]
    assert re.findall(r"`([^`]+)`", sentence) == list(noise.SCHEMES)


@pytest.mark.parametrize("decoder", DECODERS)
def test_a_listed_z_total_orders_the_shor_z_rows(monkeypatch, shor_sm_data_dir, golay_18_6_8,
                                                 decoder):
    monkeypatch.setitem(noise.SCHEMES, "fig2-shor-204",
                        ("shor", "cw-12-2-8", "grassl-18-6-8", 76))
    x, z = build_scheme("fig2-shor-204", data_dir=shor_sm_data_dir, decoder=decoder).parts
    _, z_rows = split_rows_by_type(catalog("shor").rows)
    order = _shor_z_order_for_total(golay_18_6_8, z_rows, 76)
    ordered = measured_elements([z_rows[i] for i in order], golay_18_6_8)
    assert z.weights == tuple(v.weight for v in ordered)
    assert z.code.rows == golay_18_6_8.rows and z.decoder == decoder
    assert z.total_measurements == 76
    # the catalog order totals 72, so the rows were reordered
    fig1_x, fig1_z = build_scheme("fig1-shor-sm", data_dir=shor_sm_data_dir, decoder=decoder).parts
    assert fig1_z.total_measurements == 72
    assert x == fig1_x and x.code == sm_catalog("cw-12-2-8")


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


def test_sm_scheme_refuses_a_column_that_measures_the_identity():
    # [I_6 | 0]: the seventh measured element is the empty product of Z rows
    sm_z = parse_binary_code_text("\n".join("0" * i + "1" + "0" * (6 - i) for i in range(6)))
    with pytest.raises(StructureError, match="measured element 6 has weight 0"):
        sm_scheme(catalog("shor"), sm_catalog("cw-12-2-8"), sm_z)


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


@settings(max_examples=40, deadline=None)
@given(part=systematic_parts())
def test_one_row_blocks_and_small_tiles_count_what_one_tile_counts(part):
    # with TILE_WORDS at 8 or 2, these n <= 10 parts walk their cosets in
    # one-row blocks (several-row ones at 8 when there are few cosets) and
    # across tile boundaries; the walk is forced where cells would be smaller
    for decoder in DECODERS:
        part = SMPart(part.code, part.weights, decoder)
        for p_m in (0.0, 2.0**-3, 1.0):
            costs, class_q = part._pricing(p_m)
            failing = _failing_patterns(part, costs).tolist()
            runner_up = montecarlo._runner_up_by_syndrome(part, costs).tolist()
            brute = _brute_force_failure(part, p_m)
            for tile in (8, 2):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(noise, "TILE_WORDS", tile)
                    patch.setattr(noise, "_exact_domain",
                                  lambda part, costs: (1 << part.code.length, None))
                    walked = _failing_patterns(part, costs)
                    assert walked.tolist() == failing
                    assert montecarlo._runner_up_by_syndrome(part, costs).tolist() == runner_up
                    priced = noise._failure_sums(walked, costs, [class_q])[0]
                    assert priced == pytest.approx(brute, rel=1e-12, abs=0.0)


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
    # 256 codewords in 4 cosets: coset-leader Monte Carlo reads the decision
    # table, weighted ML (three classes) looks the runner-up cost up by syndrome
    part = SMPart(_high_rate_code(a_columns), (2, 4, 6, 2, 4, 6, 2, 4, 6, 2), decoder)
    scheme = MeasurementScheme("high-rate", (part,))
    exact = pse_exact(scheme, 2.0**-3).p_se
    assert exact == pytest.approx(_brute_force_failure(part, 2.0**-3), rel=1e-12, abs=0.0)
    trials = 1 << 16
    mc = pse_monte_carlo(scheme, 2.0**-3, trials, seed=9)
    assert abs(mc.p_se - exact) <= 5 * math.sqrt(exact * (1.0 - exact) / trials)


@pytest.mark.parametrize("decoder", DECODERS)
def test_both_patterns_of_a_tied_coset_minimum_fail(decoder):
    # coset 01 holds exactly two weight-1 patterns, bits 0 and 8.  They are
    # the only weight-2 elements, so they alone have count vector (1, 0),
    # and at this p_m they tie as the coset's minimum under both decoders.
    code = _high_rate_code([0b01, 0b10, 0b10, 0b10, 0b11, 0b11, 0b11, 0b11])
    part = SMPart(code, (2, 4, 4, 4, 4, 4, 4, 4, 2, 4), decoder)
    costs, _ = part._pricing(2.0**-6)
    assert (costs is part._unit_costs) == (decoder == "coset-leader")
    (key,) = costs.key(np.array([1 << 0], dtype=np.uint64))
    assert key == costs.key(np.array([1 << 8], dtype=np.uint64))[0]
    assert _failing_patterns(part, costs)[key] == 2


# failing-pattern histograms of minimum-weight decoding under Bacon-Shor
# weights (every element of weight 6), by flip count
UNIT_FAILURES = {
    "cw-12-2-8": [0, 0, 0, 0, 207, 792, 924, 792, 495, 220, 66, 12, 1],
    "cw-17-2-11": [0, 0, 0, 0, 0, 0, 1846, 11198, 24310, 24310, 19448, 12376, 6188, 2380, 680,
                   136, 17, 1],
    "cw-18-2-12": [0, 0, 0, 0, 0, 0, 2769, 18324, 43758, 48620, 43758, 31824, 18564, 8568, 3060,
                   816, 153, 18, 1],
}


@pytest.mark.parametrize("name", UNIT_FAILURES)
def test_unit_failure_histograms_are_pinned(name):
    code = sm_catalog(name)
    assert SMPart(code, (6,) * code.length)._unit_failures.tolist() == UNIT_FAILURES[name]


def test_three_class_unit_failure_histogram_is_pinned():
    part = _shor_z_part(_random_part(20, 6, 20, "coset-leader").code)
    costs = part._unit_costs
    assert [part.weights[j] for j in costs.first] == [2, 6, 4]
    assert costs.sizes == [9, 5, 6]
    vectors = np.array(costs.count_vectors())
    failing = part._unit_failures

    def by(counts):
        return [int(failing[counts == c].sum()) for c in range(counts.max() + 1)]
    assert by(vectors[:, 0]) == [1655, 16568, 70408, 169512, 257338, 257997, 172032, 73728,
                                 18432, 2048]
    assert by(vectors[:, 1]) == [30151, 159515, 325898, 327546, 163840, 32768]
    assert by(vectors[:, 2]) == [15050, 94506, 242777, 326975, 245722, 98304, 16384]
    assert by(vectors.sum(axis=1)) == [0, 0, 6, 140, 1793, 11751, 37944, 77488, 125970, 167960,
                                       184756, 167960, 125970, 77520, 38760, 15504, 4845, 1140,
                                       190, 20, 1]


@pytest.mark.parametrize("name", ["fig1-bs-sm", "fig2-bs-204", "fig2-bs-216"])
@pytest.mark.parametrize("decoder", DECODERS)
def test_sm_scheme_shares_equal_parts(name, decoder):
    x, z = build_scheme(name, decoder=decoder).parts
    assert x is z


def test_sm_scheme_keeps_unequal_parts_apart():
    scheme = sm_scheme(catalog("shor"), sm_catalog("cw-12-2-8"),
                       _random_part(20, 6, 20, "coset-leader").code)
    x, z = scheme.parts
    assert x is not z and x != z


def test_pse_exact_evaluates_each_distinct_part_once_per_sweep(monkeypatch):
    calls, tables = [], []
    original, original_sums = noise._failure_probabilities, noise._failure_sums

    def counting(part, p_ms):
        calls.append((id(part), tuple(p_ms)))
        return original(part, p_ms)

    def counting_sums(failing, costs, class_q):
        tables.append(len(class_q))
        return original_sums(failing, costs, class_q)

    monkeypatch.setattr(noise, "_failure_probabilities", counting)
    monkeypatch.setattr(noise, "_failure_sums", counting_sums)
    shared = build_scheme("fig2-bs-216")
    unequal = sm_scheme(catalog("shor"), sm_catalog("cw-12-2-8"),
                        _random_part(20, 6, 20, "coset-leader").code)
    for scheme in (shared, unequal):
        calls.clear()
        tables.clear()
        sweep(scheme, [-3.0, -4.0], method="exact")
        distinct = list(dict.fromkeys(id(part) for part in scheme.parts))
        assert calls == [(key, (2.0**-3, 2.0**-4)) for key in distinct]
        # one probability table per part prices both unit-cost points
        assert tables == [2] * len(distinct)
    # the shared part counts once per unit: as two equal part objects would
    x = shared.parts[0]
    apart = MeasurementScheme("apart", (x, SMPart(x.code, x.weights, x.decoder)))
    assert pse_exact(apart, 2.0**-4) == pse_exact(shared, 2.0**-4)


def test_sweep_calls_pse_exact_once_with_the_whole_grid(monkeypatch):
    # bench/tracing.py times exact evaluation by wrapping noise.pse_exact
    calls = []
    original = noise.pse_exact

    def counting(scheme, p_m):
        calls.append(list(p_m))
        return original(scheme, p_m)

    monkeypatch.setattr(noise, "pse_exact", counting)
    grid = [-2.0, -3.0, -4.0]
    rows = sweep(build_scheme("fig1-bs-sm"), grid, method="exact")
    assert calls == [[2.0**lp for lp in grid]]
    assert len(rows) == 3


def _per_point_sm_failure(part: SMPart, p_m: float) -> float:
    """Reference: one point alone, priced by one outer product of per-class
    pattern probabilities and one fsum."""
    costs, class_q = part._pricing(p_m)
    failing = part._unit_failures if costs is part._unit_costs else _failing_patterns(part, costs)
    per_class = []
    for q, n in zip(class_q, costs.sizes):
        flips = np.arange(n + 1)
        per_class.append(q**flips * (1.0 - q) ** (n - flips))
    probs = per_class[0]
    for v in per_class[1:]:
        probs = np.multiply.outer(v, probs).ravel()
    return min(1.0, math.fsum((failing * probs)[failing > 0].tolist()))


def _per_point_pse(scheme: MeasurementScheme, p_m: float) -> float:
    failures = []
    for part in scheme.parts:
        if isinstance(part, RepetitionPart):
            failures += [noise._majority_bit_failure(p_err(w, p_m), part.fold)
                         for w in part.weights]
        else:
            failures.append(_per_point_sm_failure(part, p_m))
    if any(f >= 1.0 for f in failures):
        return 1.0
    return max(0.0, -math.expm1(math.fsum(math.log1p(-f) for f in failures)))


# log2 p_m = -1e-17 rounds p_m to 1.0, as 0 does; -inf is p_m = 0
EDGE_LOG2_PM = [-math.inf, 0.0, -1e-17, -60.0]
CURVE_LOG2_PM = [round(-1.5 - 0.1 * i, 12) for i in range(66)] + EDGE_LOG2_PM


def _assert_grid_matches_per_point(scheme: MeasurementScheme, grid: list[float]):
    p_ms = [2.0**lp for lp in grid]
    results = pse_exact(scheme, p_ms)
    assert [r.p_se for r in results] == [_per_point_pse(scheme, p_m) for p_m in p_ms]
    assert all(r.method == "exact" and r.trials == 0 for r in results)


@pytest.mark.parametrize("name, decoder", [
    ("fig1-bs-sm", "coset-leader"), ("fig1-bs-sm", "weighted-ml"),
    ("fig1-shor-6fold", "coset-leader"), ("fig1-bs-6fold", "coset-leader"),
    ("fig2-bs-204", "coset-leader"), ("fig2-bs-204", "weighted-ml"),
    ("fig2-bs-216", "coset-leader"), ("fig2-bs-216", "weighted-ml"),
])
def test_grid_evaluation_equals_the_per_point_formula(name, decoder):
    _assert_grid_matches_per_point(build_scheme(name, decoder=decoder), CURVE_LOG2_PM)


@pytest.mark.parametrize("decoder, grid", [
    # 420 count vectors: a tile holds 39 points, so 400 points take 11 tiles
    ("coset-leader", [-1.0 - 0.05 * i for i in range(396)] + EDGE_LOG2_PM),
    # three likelihood classes: weighted ML recounts at each point
    ("weighted-ml", [-1.5, -3.0, -5.0] + EDGE_LOG2_PM),
])
def test_grid_evaluation_of_a_three_class_part(decoder, grid):
    z = _shor_z_part(_random_part(20, 6, 20, "coset-leader").code)
    part = SMPart(z.code, z.weights, decoder)
    assert len(part._unit_costs.count_vectors()) == 420
    unit = part._pricing(2.0**-3)[0] is part._unit_costs
    assert unit == (decoder == "coset-leader")
    _assert_grid_matches_per_point(MeasurementScheme("three-class", (part,)), grid)


def _class_masks(labels) -> list[int]:
    """Positions grouped by equal label, classes in first-seen order."""
    masks: dict = {}
    for j, label in enumerate(labels):
        masks[label] = masks.get(label, 0) | 1 << j
    return list(masks.values())


@pytest.mark.parametrize("p_m", [0.0, 2.0**-1074, 2.0**-60, 2.0**-3, 0.5, 1.0])
def test_pricing_matches_per_position_likelihood_classes(p_m):
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(2, 13))
        weights = tuple(int(w) for w in rng.integers(1, 8, size=n))
        code = BinaryLinearCode(n, ((1 << n) - 1,))
        q = [p_err(w, p_m) for w in weights]
        lams, labels = likelihood_classes(q)
        for decoder in DECODERS:
            part = SMPart(code, weights, decoder)
            costs, class_q = part._pricing(p_m)
            shared = decoder == "coset-leader" or (len(lams) == 1 and 0.0 < lams[0] < math.inf)
            assert (costs is part._unit_costs) == shared
            if not shared:
                assert costs.lams.tolist() == lams.tolist()
                assert [int(mask) for mask in costs.masks] == _class_masks(labels)
            assert class_q == [q[j] for j in costs.first]
            for mask, class_p in zip(costs.masks, class_q):
                assert {q[j] for j in range(n) if int(mask) >> j & 1} == {class_p}
            if p_m == 1.0:
                # odd weights flip for certain, even weights never
                assert class_q == [float(weights[j] % 2) for j in costs.first]


def test_likelihood_classes_sees_one_value_per_distinct_weight(monkeypatch):
    # the decoder's classes are found among the weights, not the positions
    sizes = []
    original = noise.likelihood_classes

    def counting(flip_probs):
        sizes.append(len(flip_probs))
        return original(flip_probs)

    monkeypatch.setattr(noise, "likelihood_classes", counting)
    z = _shor_z_part(_random_part(20, 6, 20, "coset-leader").code)
    three_class = MeasurementScheme("three-class", (SMPart(z.code, z.weights, "weighted-ml"),))
    grid = [round(-1.5 - 0.1 * i, 12) for i in range(66)]
    for scheme in (build_scheme("fig2-bs-216", decoder="weighted-ml"), three_class):
        sizes.clear()
        sweep(scheme, grid, method="exact")
        (part,) = set(scheme.parts)
        assert len(sizes) == len(grid)
        assert max(sizes) <= len(set(part.weights)) < part.code.length


def test_pse_exact_returns_one_result_per_grid_point():
    scheme = build_scheme("fig1-bs-sm")
    single = pse_exact(scheme, 2.0**-4)
    assert single == pse_exact(scheme, np.float64(2.0**-4))
    assert pse_exact(scheme, (2.0**-4,)) == [single]
    assert pse_exact(scheme, [2.0**-3, 2.0**-4])[1] == single
    assert pse_exact(scheme, []) == []


def _dim2_exact_failure(rows: tuple[int, int], q: float) -> float:
    """Weighted-ML failure of a dimension-2 code under one flip probability.

    With one likelihood class the zero word is decoded iff |e & c| < |c|/2
    for each nonzero codeword c.  The codewords r1, r2, r1 ^ r2 cover three
    column blocks, so the failure mass is a triple sum over per-block
    flips, summed over the failing counts themselves: 1 - (success mass)
    would cancel at small q.
    """
    r1, r2 = rows
    a, b, c = (r1 & ~r2).bit_count(), (r1 & r2).bit_count(), (r2 & ~r1).bit_count()

    def binom(size):
        return [math.comb(size, x) * q**x * (1.0 - q) ** (size - x) for x in range(size + 1)]

    pa, pb, pc = binom(a), binom(b), binom(c)
    return math.fsum(
        pa[x] * pb[y] * pc[z]
        for x in range(a + 1) for y in range(b + 1) for z in range(c + 1)
        if not (2 * (x + y) < a + b and 2 * (y + z) < b + c and 2 * (x + z) < a + c)
    )


def _random_35_bit_part() -> SMPart:
    rng = np.random.default_rng(35)
    rows = tuple(int(v) for v in rng.integers(1, 1 << 35, size=2))
    return SMPart(BinaryLinearCode(35, rows, "random-35-2"), (4,) * 35, "weighted-ml")


def _columns_part() -> SMPart:
    """A [30,2] part whose generator columns 01, 10 and 11 cover 6, 10 and
    14 positions, all of weight 6: three cells of 1,155 count vectors,
    drawn one per cell."""
    columns = [1] * 6 + [2] * 10 + [3] * 14
    rows = tuple(sum(((c >> i) & 1) << j for j, c in enumerate(columns)) for i in range(2))
    return SMPart(BinaryLinearCode(30, rows, "columns-30-2"), (6,) * 30)


def _three_class_cw_12_2_8() -> SMPart:
    """Weighted ML on cw-12-2-8 with element weight 1, 2 or 3 by generator
    column: three likelihood classes, each one cell, so 125 count vectors."""
    code = sm_catalog("cw-12-2-8")
    columns = [tuple((row >> j) & 1 for row in code.systematic_rows) for j in range(12)]
    rank = {column: r for r, column in enumerate(dict.fromkeys(columns))}
    part = SMPart(code, tuple(1 + rank[column] for column in columns), "weighted-ml")
    assert len(likelihood_classes([p_err(w, 2.0**-3) for w in (1, 2, 3)])[0]) == 3
    assert noise._cells(part, part._unit_costs)[0].tolist() == [4, 4, 4]
    return part


def test_weighted_ml_monte_carlo_on_a_35_bit_code():
    # longer than 32 bits: received words are packed into uint64
    part = _random_35_bit_part()
    r1, r2 = part.code.rows
    assert r1 != r2
    scheme = MeasurementScheme(part.code.name, (part,))
    trials = 1 << 16
    exact = _dim2_exact_failure((r1, r2), p_err(4, 2.0**-4))
    assert pse_exact(scheme, 2.0**-4).p_se == pytest.approx(exact, rel=1e-13, abs=0.0)
    mc = pse_monte_carlo(scheme, 2.0**-4, trials, seed=11)
    assert abs(mc.p_se - exact) <= 5 * math.sqrt(exact * (1.0 - exact) / trials)


@pytest.mark.parametrize("log2_pm", [-3.0, -8.0, -30.0])
def test_exact_p_se_of_a_35_bit_code_from_its_cells(log2_pm):
    # 2^35 patterns are beyond the walk; 5,760 cell count vectors are not
    part = _random_35_bit_part()
    assert noise._exact_domain(part, part._unit_costs)[1] is not None
    scheme = MeasurementScheme(part.code.name, (part,))
    expected = _dim2_exact_failure(part.code.rows, p_err(4, 2.0**log2_pm))
    assert pse_exact(scheme, 2.0**log2_pm).p_se == pytest.approx(expected, rel=1e-13, abs=0.0)
    (row,) = sweep(scheme, [log2_pm], method="auto")
    assert (row.method, row.trials) == ("exact", 0)


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

def _repetition_failures(part: RepetitionPart, p_m: float):
    """Majority failures read from one uniform array per distinct weight,
    one point at a time: each bit decodes with probability s = F(t - 1), the
    Binomial(fold, q) lower tail below the majority threshold t, so a
    weight's k bits all decode iff its uniform u < s^k."""
    decoded = range((part.fold + 1) // 2)
    thresholds = [noise._majority_bit_failure(p_err(w, p_m), part.fold, decoded) ** k
                  for w, k in collections.Counter(part.weights).items()]

    def failed(uniforms: np.ndarray) -> np.ndarray:
        assert len(uniforms) == len(thresholds)
        out = np.zeros(uniforms.shape[-1], dtype=bool)
        for u, threshold in zip(uniforms, thresholds):
            out |= u >= threshold
        return out
    return failed


def _product_cdf(cells: list[tuple[int, float]]) -> np.ndarray:
    """F(0), ..., F(V - 2) over the V count vectors of independent cells
    of (n bits, flip probability q), cell 0 fastest: each vector's
    probability is the product over its cells of C(n, c) q^c (1 - q)^(n - c),
    and the vectors' probabilities are summed one at a time, in order."""
    pmfs = [noise._binomials(n) * noise._pattern_probabilities(q, n) for n, q in cells]
    vectors = itertools.product(*[range(n + 1) for n, _ in reversed(cells)])  # cell 0 fastest
    probs = [functools.reduce(lambda acc, p: p * acc, [pmf[c] for pmf, c in zip(pmfs, v[::-1])])
             for v in vectors]
    return np.array(list(itertools.accumulate(probs))[:-1])


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The number of CDF values at most each uniform, each value compared
    with every uniform: no _Positions, so oracles check the readers' lookup."""
    counts = np.zeros(len(u), dtype=np.intp)
    for value in cdf.tolist():
        counts += value <= u
    return counts


def _sm_word_sampler(part: SMPart, p_m: float):
    """Draw one chunk of received words from the part's sampler blocks, a
    count and a position array per block, in order; a block's flip count
    is read by _inverse_cdf."""
    class_q = [p_err(part.weights[j], p_m) for j in part._unit_costs.first]
    blocks = montecarlo._sampler_blocks(part)

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        uniforms = rng.random((2 * len(blocks), size))
        words = np.zeros(size, dtype=np.uint64)
        for (k, table), u, v in zip(blocks, uniforms[0::2], uniforms[1::2]):
            n = len(table).bit_length() - 1
            runs, starts = montecarlo._block_runs(n)
            counts = _inverse_cdf(_product_cdf([(n, class_q[k])]), u)
            start = starts.take(counts)
            words |= table.take(montecarlo._table_index(v, runs.take(counts), start, start, {}))
        return words
    return sample


def _cell_positions(part: SMPart) -> list[np.ndarray]:
    """The bit positions of each unit-cost cell of the part, in _cells order:
    the positions of one weight class covered by one set of systematic rows."""
    sizes, classes, columns = noise._cells(part, part._unit_costs)
    rows, masks = part.code.systematic_rows, [int(m) for m in part._unit_costs.masks]
    cell = {j: (next(k for k, m in enumerate(masks) if (m >> j) & 1),
                sum(((row >> j) & 1) << i for i, row in enumerate(rows)))
            for j in range(part.code.length)}
    cells = [np.array([j for j in cell if cell[j] == (k, column)], dtype=np.uint64)
             for k, column in zip(classes.tolist(), columns.tolist())]
    assert [len(positions) for positions in cells] == sizes.tolist()
    return cells


def _cell_word_sampler(part: SMPart, p_m: float):
    """Draw one chunk of received words from one count array per digit of
    the part's cells (the runs of cells montecarlo._sampler_cells gives),
    in order: a digit's count vector, cell 0 fastest, is read by
    _inverse_cdf from the product of its cells' distributions, and the
    flips fall on random positions inside each cell, drawn from a stream
    of their own."""
    class_q = [p_err(part.weights[j], p_m) for j in part._unit_costs.first]
    _, digits = montecarlo._sampler_cells(part)
    cells = iter(_cell_positions(part))
    digits = [[(next(cells), class_q[k]) for k, _ in digit] for digit in digits]
    assert next(cells, None) is None
    anywhere = np.random.default_rng(0)

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        uniforms, words = rng.random((len(digits), size)), np.zeros(size, dtype=np.uint64)
        for digit, u in zip(digits, uniforms):
            vector = _inverse_cdf(_product_cdf([(len(at), q) for at, q in digit]), u)
            for positions, _ in digit:
                vector, counts = np.divmod(vector, len(positions) + 1)
                # each trial flips the positions of its `counts` lowest random ranks
                ranks = anywhere.random((size, len(positions))).argsort(axis=1).argsort(axis=1)
                bits = np.where(ranks < counts[:, None], np.uint64(1) << positions, np.uint64(0))
                words |= np.bitwise_or.reduce(bits, axis=1)
        return words
    return sample


def _on_cells(monkeypatch, *parts: SMPart) -> None:
    """Make Monte Carlo draw one flip count per cell of each of the parts,
    whatever montecarlo._sampler_cells would choose."""
    forced, choose = {id(part) for part in parts}, montecarlo._sampler_cells

    def per_cell(part):
        if id(part) not in forced:
            return choose(part)
        cells = noise._cells(part, part._unit_costs)
        return cells, [((k, n),) for k, n in zip(cells[1].tolist(), cells[0].tolist())]
    monkeypatch.setattr(montecarlo, "_sampler_cells", per_cell)


@pytest.fixture
def built(monkeypatch) -> dict[str, list[SMPart]]:
    """The parts Monte Carlo builds state for, one entry per build: sampler
    blocks ("blocks") and runner-up tables under any cost rule
    ("runner-up").  No part keeps either, so the builds are counted."""
    builds = {"blocks": [], "runner-up": []}
    blocks, runner_up = montecarlo._sampler_blocks, montecarlo._runner_up_by_syndrome

    def building_blocks(part):
        builds["blocks"].append(part)
        return blocks(part)

    def building_runner_up(part, costs):
        builds["runner-up"].append(part)
        return runner_up(part, costs)

    monkeypatch.setattr(montecarlo, "_sampler_blocks", building_blocks)
    monkeypatch.setattr(montecarlo, "_runner_up_by_syndrome", building_runner_up)
    return builds


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
# as drawn by the flip-count samplers (a uniform per repetition weight,
# inverse-CDF count vectors per digit of cells, or counts and table
# positions per block)
PINNED_MC_FAILURES = [
    ("fig1-bs-sm", "coset-leader", 17969),
    ("fig1-bs-sm", "weighted-ml", 17969),
    ("fig1-bs-6fold", "coset-leader", 18559),
    ("fig1-shor-6fold", "coset-leader", 17515),
    ("fig2-bs-216", "coset-leader", 16862),
]


@pytest.mark.parametrize("name,decoder,failures", PINNED_MC_FAILURES)
def test_monte_carlo_failure_counts_are_pinned(name, decoder, failures):
    scheme = build_scheme(name, decoder=decoder)
    result = pse_monte_carlo(scheme, 2.0**-3, trials=20_000, seed=7, chunk_size=7_000)
    assert result.p_se * 20_000 == failures
    exact = pse_exact(scheme, 2.0**-3).p_se
    assert abs(failures - 20_000 * exact) <= 5 * math.sqrt(20_000 * exact * (1.0 - exact))


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
def test_monte_carlo_validates_seed(name):
    with pytest.raises(PreconditionError, match="seed"):
        pse_monte_carlo(build_scheme(name), 0.1, trials=100, seed=-1)


@pytest.mark.parametrize("name", ["fig1-bs-sm", "fig1-bs-6fold"])
@pytest.mark.parametrize("chunk_size", [0, -1])
def test_monte_carlo_validates_chunk_size(name, chunk_size):
    # with chunk_size 0 a repetition-only scheme's chunk loop never advances
    with pytest.raises(PreconditionError, match="chunk_size"):
        pse_monte_carlo(build_scheme(name), 0.1, trials=100, chunk_size=chunk_size)


@pytest.mark.parametrize("decoder", DECODERS)
def test_fig1_shor_sm_exact_and_monte_carlo_agree(shor_sm_data_dir, decoder):
    # the [18,6] Z part has more codewords than syndrome bits: coset-leader
    # Monte Carlo reads its decision table, and weighted ML, whose elements
    # fall in several likelihood classes, looks its runner-up costs up by syndrome
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
def test_monte_carlo_syndrome_table_above_20_bits(built, decoder):
    part = _random_part(22, 6, seed=22, decoder=decoder)
    scheme = MeasurementScheme(part.code.name, (part,))
    trials = 1 << 16
    exact = pse_exact(scheme, 2.0**-3).p_se
    mc = pse_monte_carlo(scheme, 2.0**-3, trials, seed=13)
    assert abs(mc.p_se - exact) <= 5 * math.sqrt(exact * (1.0 - exact) / trials)
    # 2^16 words repay a table of the 2^16 cosets under either decoder's rule
    assert built["runner-up"] == [part]


def _shor_z_part(sm: BinaryLinearCode) -> SMPart:
    """The Shor code's Z part under the SM code sm."""
    return sm_scheme(catalog("shor"), sm_catalog("cw-12-2-8"), sm).parts[1]


def _cell_pairs(part: SMPart, found) -> int:
    """Cell count vectors times codewords: what the cell domain enumerates."""
    return math.prod((found[0] + 1).tolist()) << part.code.dim


# (n, k, several weight classes) of the seeded parts whose cell counts are
# checked against the coset walk
CELL_CASES = [(20, 1, False), (20, 1, True), (20, 2, False), (20, 2, True), (20, 3, False),
              (16, 3, True), (9, 3, True)]


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("n, k, several", CELL_CASES)
def test_cell_domain_counts_the_failures_the_coset_walk_counts(n, k, several, decoder):
    part = _random_part(n, k, seed=100 * n + 10 * k + several, decoder=decoder)
    if not several:
        part = SMPart(part.code, (4,) * n, decoder)
    assert (len(set(part.weights)) > 1) == several
    for p_m in (0.0, 2.0**-3, 1.0):
        costs, _ = part._pricing(p_m)
        found = noise._cells(part, costs)
        assert found[0].sum() == n
        walked = np.zeros(costs.vectors, dtype=np.int64)
        for base in noise._coset_bases(part.code):  # each coset's unique minimum, if any
            low, second, words = _coset_minima(base, part._codewords, costs)
            np.add.at(walked, costs.key(words[low < second]), 1)
        counted = np.zeros_like(walked)
        for keys, patterns in noise._cell_successes(part, costs, found):
            np.add.at(counted, keys, patterns)
        assert counted.tolist() == walked.tolist()
        failing = _failing_patterns(part, costs)
        assert failing.dtype == np.int64
        patterns = [np.array([math.comb(size, c) for c in range(size + 1)]) for size in costs.sizes]
        assert (failing + walked).tolist() == costs.outer(patterns).tolist()
    if (n, k, several) == (20, 2, True):  # count vectors in several tiles
        assert _cell_pairs(part, noise._cells(part, part._unit_costs)) > 4 * TILE_WORDS


def test_exact_enumerates_the_smaller_domain():
    for name, pairs in (("cw-12-2-8", 125 * 4), ("cw-17-2-11", 294 * 4), ("cw-18-2-12", 343 * 4)):
        code = sm_catalog(name)
        part = SMPart(code, (6,) * code.length)
        entries, found = noise._exact_domain(part, part._unit_costs)
        assert found is not None and entries == pairs < 1 << code.length
    # the imported [20, 6] of the Shor Z part has 3 classes and up to 64 columns
    part = _shor_z_part(_random_part(20, 6, 20, "coset-leader").code)
    entries, found = noise._exact_domain(part, part._unit_costs)
    assert found is None and entries == 1 << 20
    assert _cell_pairs(part, noise._cells(part, part._unit_costs)) > 1 << 23


def test_exact_p_se_of_a_64_bit_dimension_2_code():
    rng = np.random.default_rng(64)
    rows = tuple(int(hi) << 32 | int(lo) for hi, lo in rng.integers(1, 1 << 32, size=(2, 2)))
    part = SMPart(BinaryLinearCode(64, rows, "random-64-2"), (2,) * 64)
    scheme = MeasurementScheme(part.code.name, (part,))
    assert exact_is_feasible(scheme)
    # failing patterns per flip count, in integers, from the four column blocks
    r1, r2 = rows
    a, b, c = (r1 & ~r2).bit_count(), (r1 & r2).bit_count(), (r2 & ~r1).bit_count()
    failing = [0] * 65
    for x, y, z, u in itertools.product(range(a + 1), range(b + 1), range(c + 1),
                                        range(64 - a - b - c + 1)):
        if not (2 * (x + y) < a + b and 2 * (y + z) < b + c and 2 * (x + z) < a + c):
            failing[x + y + z + u] += (math.comb(a, x) * math.comb(b, y) * math.comb(c, z)
                                       * math.comb(64 - a - b - c, u))
    assert part._unit_failures.tolist() == failing
    for log2_pm in (-3.0, -12.0):
        expected = _dim2_exact_failure(rows, p_err(2, 2.0**log2_pm))
        assert pse_exact(scheme, 2.0**log2_pm).p_se == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_exact_refuses_a_part_whose_domains_both_exceed_the_cap():
    scheme = MeasurementScheme("r26", (_random_part(26, 6, 26, "coset-leader"),))
    assert not exact_is_feasible(scheme)
    with pytest.raises(CapacityError, match="cap"):
        pse_exact(scheme, 2.0**-3)


def test_choosing_the_exact_domain_of_a_dimension_20_part_stays_small():
    # 2^20 codewords: the cell domain must be sized without laying codewords
    # over cells, and the walk, which this part takes, runs in tiles
    part = SMPart(BinaryLinearCode(20, tuple(1 << i for i in range(20)), "identity-20"), (4,) * 20)
    scheme = MeasurementScheme(part.code.name, (part,))
    tracemalloc.start()
    try:
        assert exact_is_feasible(scheme)
        assert noise._exact_domain(part, part._unit_costs) == (1 << 20, None)
        feasible_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        expected = -math.expm1(20 * math.log1p(-p_err(4, 2.0**-3)))  # any flip fails
        assert pse_exact(scheme, 2.0**-3).p_se == pytest.approx(expected)
        exact_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feasible_peak < 1 << 20 and exact_peak < 4 << 20


@pytest.mark.parametrize("seed", range(6))
def test_cost_table_is_pattern_cost_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    sizes = [int(n) for n in rng.integers(1, 6, size=5)]
    lams = rng.normal(scale=4.0, size=5)
    # lambda = 0 at p = 1/2, +inf at p = 0, -inf at p = 1, negative above 1/2
    lams[rng.choice(5, size=3, replace=False)] = rng.permutation([0.0, math.inf, -math.inf])
    costs = noise._Costs([k for k, n in enumerate(sizes) for _ in range(n)], lams)
    assert costs.sizes == sizes
    expected = [pattern_cost(c, sizes, lams.tolist()) for c in costs.count_vectors().tolist()]
    assert costs.table.tobytes() == np.array(expected).tobytes()
    assert np.isinf(costs.table).any() and np.isfinite(costs.table).any()


@pytest.mark.parametrize("code", [
    sm_catalog("cw-12-2-8"),
    sm_catalog("cw-18-2-12"),
    _random_part(16, 2, 16, "coset-leader").code,
    _random_part(20, 6, 20, "coset-leader").code,
    _random_35_bit_part().code,
])
def test_systematic_syndromes_match_the_parity_checks(code):
    part = SMPart(code, (2,) * code.length)
    words = np.random.default_rng(code.length).integers(
        0, 1 << code.length, size=2000, dtype=np.uint64)
    assert _syndromes(part, words).tolist() == [code.word_syndrome(int(w)) for w in words]


def _table_cases() -> dict[str, SMPart]:
    shor_z = _shor_z_part(_random_part(20, 6, 20, "coset-leader").code)
    assert len(set(shor_z.weights)) > 1
    return {
        "cw-18-2-12": SMPart(sm_catalog("cw-18-2-12"), (6,) * 18),  # one class, two blocks
        "shor-z-20-6": shor_z,
        "random-16-2": _random_part(16, 2, 16, "coset-leader"),
    }


def _block_words(part: SMPart) -> tuple[np.ndarray, np.ndarray, int]:
    """Every word of the part, assembled from its sampler blocks' tables,
    with the key of its flip-count vector over the blocks (block 0 least
    significant) and the number of such vectors."""
    index = np.arange(1 << part.code.length)
    words, key, stride = np.zeros(len(index), dtype=np.uint64), np.zeros_like(index), 1
    for _, table in montecarlo._sampler_blocks(part):
        bits = len(table).bit_length() - 1
        block_words = table[index & (len(table) - 1)]
        words |= block_words
        key += np.bitwise_count(block_words).astype(np.intp) * stride
        index >>= bits
        stride *= bits + 1
    return words, key, stride


def _scanned_failures(part: SMPart, words: np.ndarray) -> np.ndarray:
    """Minimum-weight decoding's failures, each word's coset scanned."""
    costs = part._unit_costs
    return ~(costs(words) < _coset_minima(words, part._codewords, costs, word=False)[1])


@pytest.mark.parametrize("case", ["cw-18-2-12", "shor-z-20-6", "random-16-2"])
def test_decision_table_matches_per_word_decoding(built, case):
    # the unit-cost runner-up table, built for a run of at least as many
    # words as the part has cosets, and the scan below that decide every
    # word as scanning its coset does
    part = _table_cases()[case]
    words, _, _ = _block_words(part)
    assert np.bitwise_count(np.bitwise_or.reduce(words)) == part.code.length
    cosets = 1 << part.code.redundancy
    scanned = _sm_decoder(part, part._unit_costs, cosets - 1)(words)
    assert built["runner-up"] == []
    looked_up = _sm_decoder(part, part._unit_costs, cosets)(words)
    assert built["runner-up"] == [part]
    assert np.array_equal(scanned, _scanned_failures(part, words))
    assert np.array_equal(looked_up, scanned)


def _straddled_part() -> SMPart:
    """A seeded random [20,6] part whose weight-4 class is split into two
    blocks around the weight-2 class at positions 5 and 15."""
    code = _random_part(20, 6, 20, "coset-leader").code
    part = SMPart(code, tuple(2 if j in (5, 15) else 4 for j in range(20)))
    assert [(k, len(table)) for k, table in montecarlo._sampler_blocks(part)] == [
        (0, 512), (0, 512), (1, 4)]
    return part


def _unjoinable_part() -> SMPart:
    """A seeded random [20,4] part with 20 distinct element weights: one
    block per position, so 2^20 joint positions even at one point, more than
    a joint table holds."""
    code = _random_part(20, 4, 20, "coset-leader").code
    part = SMPart(code, tuple(range(2, 22)))
    assert 2 ** len(montecarlo._sampler_blocks(part)) > montecarlo.JOINT_TABLE_ENTRIES
    return part


def _one_block_part(weight: int = 4, decoder: str = "coset-leader") -> SMPart:
    """A seeded random [16,4] part of one weight class: one 16-bit sampler
    block, and 13,824 cell count vectors, too many for one joint digit."""
    part = SMPart(_random_part(16, 4, 16, decoder).code, (weight,) * 16, decoder)
    assert len(montecarlo._sampler_blocks(part)) == 1 and montecarlo._sampler_cells(part) is None
    return part


# runner-up tables a 50,000-trial call builds: the one-block [16,4] part
# has 2^16 words against 2^12 cosets, the [20,6] parts 2^14 cosets, and
# the [20,4] part 2^16, so its words are scanned
THROUGH_THE_TABLE = {"one-block-16-4": 1, "shor-z-20-6": 1, "straddled-20-6": 1,
                     "unjoinable-20-4": 0}


@pytest.mark.parametrize("scheme", [
    MeasurementScheme("one-block-16-4", (_one_block_part(),) * 2),
    MeasurementScheme("shor-z-20-6", (_table_cases()["shor-z-20-6"],)),
    MeasurementScheme("straddled-20-6", (_straddled_part(),)),
    MeasurementScheme("unjoinable-20-4", (_unjoinable_part(),)),
])
def test_monte_carlo_through_the_table_equals_word_decoding(built, scheme):
    # the same draws, assembled into words and decoded by scanning each
    # word's coset, fail exactly where Monte Carlo's reader says, whether
    # it reads a runner-up table or scans each coset
    trials, chunk_size, seed, p_m = 50_000, 20_000, 5, 2.0**-3
    expected = 0
    for chunk_index, start in enumerate(range(0, trials, chunk_size)):
        size = min(chunk_size, trials - start)
        rng = _chunk_rng(seed, chunk_index)
        failed = np.zeros(size, dtype=bool)
        for part in scheme.parts:
            assert part._pricing(p_m)[0] is part._unit_costs
            failed |= _scanned_failures(part, _sm_word_sampler(part, p_m)(rng, size))
        expected += int(failed.sum())
    got = pse_monte_carlo(scheme, p_m, trials, seed, chunk_size).p_se * trials
    # at most one table per part object, the two parts of one-block-16-4 being one
    tables = THROUGH_THE_TABLE[scheme.name]
    assert [id(p) for p in built["runner-up"]] == [id(scheme.parts[0])] * tables
    assert got == expected


def test_one_block_part_under_a_negative_likelihood_weight_equals_word_decoding():
    # at p_m = 3/4 weight-1 bits flip with probability 3/4, so weighted ML
    # prefers more flips, a rule other than the unit costs: the one-block
    # reader decides it from its table words, some counts partly failing
    _equals_word_decoding_at_three_quarters(_one_block_part(1, "weighted-ml"))


def test_joint_digit_under_a_negative_likelihood_weight_equals_word_decoding():
    # the same rule on cw-12-2-8, whose cells form one joint digit: the
    # cell reader decides it from the decode flags of its count vectors
    part = SMPart(sm_catalog("cw-12-2-8"), (1,) * 12, "weighted-ml")
    assert len(_Sampler(part).digits) == 1
    _equals_word_decoding_at_three_quarters(part)


def _equals_word_decoding_at_three_quarters(part: SMPart) -> None:
    scheme = MeasurementScheme("weight-1", (part,))
    p_m, trials, seed, chunk_size = 0.75, 50_000, 5, 20_000
    assert part._pricing(p_m)[0] is not part._unit_costs
    got = pse_monte_carlo(scheme, p_m, trials, seed, chunk_size).p_se * trials
    assert 0 < got < trials
    assert got == _whole_chunk_failures(scheme, p_m, trials, seed, chunk_size)


def test_monte_carlo_sweep_builds_each_decision_table_once(monkeypatch):
    # minimum-weight decoding's runner-up table, built once for the one
    # group of points, which share the unit costs
    built = []
    original = montecarlo._runner_up_by_syndrome

    def counting(part, costs):
        built.append(part)
        return original(part, costs)

    monkeypatch.setattr(montecarlo, "_runner_up_by_syndrome", counting)
    scheme = MeasurementScheme("one-block-16-4", (_one_block_part(),) * 2)
    rows = sweep(scheme, [-3.0, -4.0, -5.0], method="mc", trials=5_000, seed=2)
    assert len(rows) == 3
    # the two parts are one object, so one build serves both
    assert [id(part) for part in built] == list(dict.fromkeys(id(part) for part in scheme.parts))


def test_a_short_run_on_a_25_bit_part_builds_no_runner_up_table(built):
    # 1,000 words do not repay a table of the [25,6] part's 2^19 cosets, so
    # each word's coset is scanned; the count is the scan's of the same draws
    part = _random_part(25, 6, 25, "coset-leader")
    assert len(_Sampler(part).blocks) > 1
    scheme = MeasurementScheme(part.code.name, (part,))
    p_m, trials, seed = 2.0**-3, 1_000, 25
    got = pse_monte_carlo(scheme, p_m, trials, seed).p_se * trials
    assert built["runner-up"] == []
    words = _sm_word_sampler(part, p_m)(_chunk_rng(seed, 0), trials)
    assert got == int(_scanned_failures(part, words).sum())
    assert 0 < got < trials


def test_a_group_builds_one_table_for_a_rule_its_points_repay_together(built):
    # four points share the unit costs: at 2^12 trials each they decode
    # 2^14 words under that rule, as many as the [20,6] part has cosets, so
    # the group builds one table and counts its 2^14 one-byte costs
    part = _random_part(20, 6, 20, "coset-leader")
    sampler, p_ms = _Sampler(part), [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]
    costs = [part._pricing(p_m)[0] for p_m in p_ms]
    assert all(rule is part._unit_costs for rule in costs) and len(sampler.blocks) > 1
    dtype = np.dtype(np.uint8)
    _, below = montecarlo._sm_reader(sampler, p_ms, costs, (1 << 12) - 1, {}, dtype)
    assert built["runner-up"] == []
    _, held = montecarlo._sm_reader(sampler, p_ms, costs, 1 << 12, {}, dtype)
    assert built["runner-up"] == [part]
    assert held - below == 1 << part.code.redundancy


def _three_class_part() -> SMPart:
    """Weighted ML on the Shor code's Z part under a seeded random [20,6]
    SM code: three element weights, so three likelihood classes, and
    2^14 cosets."""
    shor_z = _table_cases()["shor-z-20-6"]
    part = SMPart(shor_z.code, shor_z.weights, "weighted-ml")
    assert len(likelihood_classes([p_err(w, 2.0**-3) for w in part.weights])[0]) == 3
    return part


def _grid_cases() -> dict[str, MeasurementScheme]:
    cases = {f"{name}/{decoder}": build_scheme(name, decoder=decoder) for name, decoder in [
        ("fig1-bs-sm", "coset-leader"), ("fig1-bs-sm", "weighted-ml"),
        ("fig1-shor-6fold", "coset-leader"), ("fig1-bs-6fold", "coset-leader"),
        ("fig2-bs-216", "coset-leader")]}
    cases["35-bit"] = MeasurementScheme("35-bit", (_random_35_bit_part(),))
    cases["three-class"] = MeasurementScheme("three-class", (_three_class_part(),))
    return cases


@pytest.mark.parametrize("case", list(_grid_cases()))
def test_monte_carlo_grid_equals_per_point_calls(case):
    scheme = _grid_cases()[case]
    # 2^14 trials reach the three-class part's 2^14 cosets, so its points
    # decode through per-syndrome tables
    grid, trials = [2.0**-3, 2.0**-4, 0.0, 2.0**-2, 1.0], 1 << 14
    got = pse_monte_carlo(scheme, grid, trials, seed=19, chunk_size=10_000)
    assert isinstance(got, list)
    assert got == [pse_monte_carlo(scheme, p_m, trials, seed=19, chunk_size=10_000)
                   for p_m in grid]
    # nothing flips at p_m = 0; at p_m = 1 the odd weights flip for certain
    if exact_is_feasible(scheme):
        assert [got[2].p_se, got[4].p_se] == [pse_exact(scheme, p).p_se for p in (0.0, 1.0)]
    else:
        (part,) = scheme.parts
        assert set(part.weights) == {4} and got[2].p_se == got[4].p_se == 0.0


def _whole_chunk_failures(
    scheme: MeasurementScheme, p_m: float, trials: int, seed: int, chunk_size: int
) -> int:
    """Failures counted from each chunk's stream drawn whole, part after
    part, as one array per repetition weight and received words per SM
    part, drawn from its cells' counts or from its blocks."""
    failures = 0
    samplers = {id(part): _Sampler(part) for part in scheme.parts if isinstance(part, SMPart)}
    draw = {key: (_cell_word_sampler if sampler.cells is not None
                  else _sm_word_sampler)(sampler.part, p_m) for key, sampler in samplers.items()}
    for chunk_index, start in enumerate(range(0, trials, chunk_size)):
        size = min(chunk_size, trials - start)
        rng = _chunk_rng(seed, chunk_index)
        failed = np.zeros(size, dtype=bool)
        for part in scheme.parts:
            if isinstance(part, RepetitionPart):
                uniforms = rng.random((len(set(part.weights)), size))
                failed |= _repetition_failures(part, p_m)(uniforms)
            else:
                costs, _ = part._pricing(p_m)
                failed |= _sm_decoder(part, costs)(draw[id(part)](rng, size))
        failures += int(failed.sum())
    return failures


@pytest.mark.parametrize("trials", [TILE_WORDS - 1, TILE_WORDS, TILE_WORDS + 1])
@pytest.mark.parametrize("chunk_size", [TILE_WORDS // 3 + 1, TILE_WORDS + 5, DEFAULT_CHUNK_SIZE])
def test_monte_carlo_tiles_read_each_chunk_stream_in_order(trials, chunk_size):
    schemes = [build_scheme("fig1-shor-6fold"), build_scheme("fig2-bs-216"),
               build_scheme("fig1-bs-sm")]
    for scheme in schemes:
        got = pse_monte_carlo(scheme, [2.0**-3, 2.0**-5], trials, seed=3, chunk_size=chunk_size)
        for p_m, result in zip([2.0**-3, 2.0**-5], got):
            assert result.p_se * trials == _whole_chunk_failures(scheme, p_m, trials, 3, chunk_size)


# uniform arrays each chunk draws per part: a repetition part one per
# distinct weight, a part sampling cells one per digit, a part sampling
# blocks two per block; any change moves every seeded result of the scheme.
# The SM parts of fig1-bs-sm (cw-12-2-8, 125 count vectors) and fig2
# (cw-17-2-11 and cw-18-2-12, 294 and 343) draw all their cells as one digit
DRAWS_PER_CHUNK = {
    "fig1-bs-6fold": [1],
    "fig1-shor-6fold": [2],
    "fig1-bs-sm": [1, 1],
    "fig2-bs-204": [1, 1],
    "fig2-bs-216": [1, 1],
}


@pytest.mark.parametrize("name", list(DRAWS_PER_CHUNK))
def test_uniform_arrays_drawn_per_chunk_by_each_offline_scheme(name):
    scheme = build_scheme(name)
    assert [_draws(_Sampler(part) if isinstance(part, SMPart) else part)
            for part in scheme.parts] == DRAWS_PER_CHUNK[name]
    for part in scheme.parts:
        if isinstance(part, SMPart):
            sizes = noise._cells(part, part._unit_costs)[0]
            _, (digit,) = montecarlo._sampler_cells(part)
            assert [n for _, n in digit] == sizes.tolist()
            assert montecarlo.MASK_POINTS * (math.prod((sizes + 1).tolist()) - 1) + 1 <= (
                montecarlo.JOINT_TABLE_ENTRIES)


def _cell_cases() -> dict[str, MeasurementScheme]:
    cases = {f"fig2-bs-216/{decoder}": build_scheme("fig2-bs-216", decoder=decoder)
             for decoder in DECODERS}
    # these three are made to draw a count per cell: the first two draw one
    # joint digit of their cells unless made to, the third blocks
    code = sm_catalog("cw-12-2-8")
    for weights, decoder in [((6,) * 12, "coset-leader"), ((2, 6) * 6, "weighted-ml"),
                             ((1, 2, 3) * 4, "weighted-ml")]:
        name = f"cw-12-2-8/{''.join(map(str, weights[:3]))}"
        cases[name] = MeasurementScheme(name, (SMPart(code, weights, decoder),))
    cases["35-bit"] = MeasurementScheme("35-bit", (_random_35_bit_part(),))
    cases["columns-30-2"] = MeasurementScheme("columns-30-2", (_columns_part(),))
    # one joint digit each, as drawn unforced
    cases.update({f"fig1-bs-sm/{decoder}": build_scheme("fig1-bs-sm", decoder=decoder)
                  for decoder in DECODERS})
    cases["cw-12-2-8/262/joint"] = MeasurementScheme(
        "cw-12-2-8/262/joint", (SMPart(code, (2, 6) * 6, "weighted-ml"),))
    cases["three-class-cw-12-2-8"] = MeasurementScheme(
        "three-class-cw-12-2-8", (_three_class_cw_12_2_8(),))
    return cases


@pytest.mark.parametrize("case", list(_cell_cases()))
def test_cell_counts_decide_wherever_the_flips_fall_in_each_cell(monkeypatch, built, case):
    # the same count draws, turned into words with the flips at random
    # positions inside each cell and decoded, fail exactly where the cell
    # reader says; (1, 2, 3) * 4 has three likelihood classes under weighted ML
    scheme = _cell_cases()[case]
    if case.startswith("cw-12-2-8/") and not case.endswith("/joint"):
        _on_cells(monkeypatch, *scheme.parts)
    grid, trials, chunk_size, seed = [2.0**-2, 2.0**-3, 2.0**-5], 50_000, 20_000, 5
    got = pse_monte_carlo(scheme, grid, trials, seed, chunk_size)
    assert built == {"blocks": [], "runner-up": []}
    for p_m, result in zip(grid, got):
        assert 0.0 < result.p_se < 1.0
        assert result.p_se == _whole_chunk_failures(scheme, p_m, trials, seed, chunk_size) / trials
    if case.startswith("cw-12-2-8/123"):
        assert len(likelihood_classes([p_err(w, 2.0**-3) for w in (1, 2, 3)])[0]) == 3


@st.composite
def _joint_parts(draw) -> SMPart:
    """Random systematic parts of at most 16 bits and dimension 4, element
    weights from 1..6, either decoder, with at most 1,024 count vectors
    over their unit-cost cells."""
    n = draw(st.integers(2, 16))
    k = draw(st.integers(1, min(4, n - 1)))
    columns = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n - k, max_size=n - k))
    rows = tuple((1 << i) | sum(((c >> i) & 1) << (k + j) for j, c in enumerate(columns))
                 for i in range(k))
    palette = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    part = SMPart(BinaryLinearCode(n, rows, f"random-{n}-{k}"), tuple(weights),
                  draw(st.sampled_from(DECODERS)))
    assume(math.prod((noise._cells(part, part._unit_costs)[0] + 1).tolist()) <= 1024)
    return part


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(part=_joint_parts(), seed=st.integers(0, 2**32 - 1))
@example(part=SMPart(_random_part(16, 2, 16, "coset-leader").code, (4,) * 16), seed=1)  # 576
@example(part=SMPart(sm_catalog("cw-12-2-8"), (2, 6) * 6, "weighted-ml"), seed=2)  # 576
def test_a_part_of_few_count_vectors_draws_one_array_and_counts_as_words_decode(part, seed):
    # one uniform per trial picks the whole count vector; words with the
    # flips at random positions inside each cell, decoded, fail alike
    sampler = _Sampler(part)
    assert sampler.cells is not None and sampler.blocks == []
    assert _draws(sampler) == 1
    scheme = MeasurementScheme(part.code.name, (part,))
    grid, trials, chunk_size = [2.0**-2, 2.0**-4], 3_000, 1_000
    for p_m, result in zip(grid, pse_monte_carlo(scheme, grid, trials, seed, chunk_size)):
        assert result.p_se == _whole_chunk_failures(scheme, p_m, trials, seed, chunk_size) / trials


@pytest.mark.parametrize("decoder", DECODERS)
def test_fig2_bs_216_monte_carlo_walks_no_coset_and_decodes_no_word(monkeypatch, built, decoder):
    scheme, grid, trials = build_scheme("fig2-bs-216", decoder=decoder), [2.0**-3, 2.0**-5], 1 << 16
    exact = pse_exact(scheme, grid)

    def refuse(*args, **kwargs):
        raise AssertionError("a part that samples cells walked a coset or decoded a word")

    # the walk and the runner-up tables, and decoding
    monkeypatch.setattr(noise, "_coset_minima", refuse)
    monkeypatch.setattr(montecarlo, "_sm_decoder", refuse)
    for mc, reference in zip(pse_monte_carlo(scheme, grid, trials, seed=9), exact):
        p = reference.p_se
        assert abs(mc.p_se - p) <= 5 * math.sqrt(p * (1.0 - p) / trials)
    assert built == {"blocks": [], "runner-up": []}


# the (scheme, decoder) pairs of the benchmark's montecarlo workload
BENCHMARK_MC_OPS = [("fig1-bs-sm", "coset-leader"), ("fig1-bs-sm", "weighted-ml"),
                    ("fig1-shor-6fold", "coset-leader"), ("fig1-bs-6fold", "coset-leader"),
                    ("fig2-bs-216", "coset-leader")]


@pytest.mark.parametrize("name, decoder", BENCHMARK_MC_OPS)
def test_benchmark_monte_carlo_schemes_assemble_no_word(monkeypatch, name, decoder):
    # the benchmark's Monte Carlo sweeps read tables only, fig1-bs-sm and
    # fig2-bs-216 their one joint digit's: moving one of them onto
    # assembled words fails here
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} assembled a word")

    monkeypatch.setattr(montecarlo, "_words", refuse)
    scheme = build_scheme(name, decoder=decoder)
    got = pse_monte_carlo(scheme, [2.0**-3, 2.0**-4, 2.0**-5], 1 << 14, seed=1)
    assert all(0.0 < result.p_se < 1.0 for result in got)
    for part in scheme.parts:
        if isinstance(part, SMPart):
            assert len(_Sampler(part).digits) == 1 and _Sampler(part).cells is not None


@pytest.mark.parametrize("p_m", [0.0, 1.0])
def test_cell_parts_equal_exact_at_certain_flips(monkeypatch, p_m):
    # at p_m = 1 the weight-1 bits all flip, a tie of the three cells of
    # cw-18-2-12; under weighted ML odd weights flip for certain and even never
    schemes = [build_scheme("fig2-bs-216", decoder=d) for d in DECODERS] + [build_scheme("fig2-bs-204")]
    code = sm_catalog("cw-18-2-12")
    parts = {"35-bit": _random_35_bit_part(), "weight-1": SMPart(code, (1,) * 18),
             "odd-even": SMPart(code, (1, 2) * 9, "weighted-ml")}
    _on_cells(monkeypatch, parts["odd-even"])
    schemes += [MeasurementScheme(name, (part,)) for name, part in parts.items()]
    for scheme in schemes:
        assert all(montecarlo._sampler_cells(part) is not None for part in scheme.parts)
        exact = pse_exact(scheme, p_m).p_se
        assert exact in (0.0, 1.0)
        assert pse_monte_carlo(scheme, p_m, trials=5_000, seed=3).p_se == exact, scheme.name
    assert pse_exact(schemes[-2], 1.0).p_se == 1.0


WIDE_GRIDS = {
    "66": [2.0 ** (-1.5 - 0.1 * i) for i in range(66)],
    "100": [2.0 ** (-1.0 - 0.1 * i) for i in range(100)],
}


@pytest.mark.parametrize("grid", list(WIDE_GRIDS))
@pytest.mark.parametrize("name", ["fig1-bs-sm", "fig2-bs-204", "fig1-shor-6fold"])
def test_monte_carlo_wide_grid_equals_per_point_calls(monkeypatch, name, grid):
    # more points than one 64-bit mask holds: the points are judged in groups
    # that all read one draw of each chunk
    scheme, p_ms, trials, chunk_size = build_scheme(name), WIDE_GRIDS[grid], 3_000, 1_250
    drawn = []
    chunk_rng = montecarlo._chunk_rng
    monkeypatch.setattr(montecarlo, "_chunk_rng",
                        lambda seed, c: drawn.append(c) or chunk_rng(seed, c))
    got = pse_monte_carlo(scheme, p_ms, trials, seed=29, chunk_size=chunk_size)
    assert drawn == [0, 1, 2]
    assert got == [pse_monte_carlo(scheme, p_m, trials, seed=29, chunk_size=chunk_size)
                   for p_m in p_ms]


@pytest.mark.parametrize("name", ["fig1-bs-sm", "fig2-bs-204", "fig1-shor-6fold"])
def test_monte_carlo_groups_taking_their_own_passes_count_alike(monkeypatch, name):
    # with no room for tables every group takes its own pass over the chunks;
    # with no room for a joint table an SM part judges one point per group,
    # while a repetition part keeps all the points in one group
    scheme, p_ms = build_scheme(name), WIDE_GRIDS["66"][::5]
    expected = pse_monte_carlo(scheme, p_ms, 5_000, seed=31)
    # each part keeps the draws it takes with room for a joint table
    chosen = {id(part): montecarlo._sampler_cells(part) for part in scheme.parts
              if isinstance(part, SMPart)}
    monkeypatch.setattr(montecarlo, "_sampler_cells", lambda part: chosen[id(part)])
    monkeypatch.setattr(montecarlo, "PASS_BYTES", 1)
    monkeypatch.setattr(montecarlo, "JOINT_TABLE_ENTRIES", 1)
    drawn = []
    chunk_rng = montecarlo._chunk_rng
    monkeypatch.setattr(montecarlo, "_chunk_rng",
                        lambda seed, c: drawn.append(c) or chunk_rng(seed, c))
    assert pse_monte_carlo(scheme, p_ms, 5_000, seed=31) == expected
    assert len(drawn) == (1 if name == "fig1-shor-6fold" else len(p_ms))


def _bucket_edges(*ks: int) -> list[float]:
    return [k / GUIDE_BUCKETS for k in ks]


def _cdf_sets():
    value = st.one_of(
        st.floats(0.0, 1.0),
        st.integers(0, GUIDE_BUCKETS).map(lambda k: k / GUIDE_BUCKETS),  # bucket edges
        st.floats(1.0 - 1e-12, 1.0),  # a cluster just below 1
    )
    return st.lists(st.lists(value, max_size=16).map(sorted), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(cdfs=_cdf_sets(), seed=st.integers(0, 2**32 - 1))
@example(cdfs=[_bucket_edges(0, 1, 2, 4095), _bucket_edges(1, 7)], seed=0)
@example(cdfs=[[0.25, 0.5, 0.75], [0.25, 0.5, 0.75], [0.5]], seed=1)  # duplicates across points
@example(cdfs=[[1 - 1e-12, 1 - 5e-13, 1 - 1e-16], [1 - 2e-12, 1 - 1e-16]], seed=2)
@example(cdfs=[[0.3, 1.0, 1.0], [1.0], []], seed=3)  # values of 1 never count
@example(cdfs=[[0.0, 0.0, 0.1], [0.0]], seed=4)  # certain flips
@example(cdfs=[[k / 2**16 for k in range(0, 2**16, 61)], [0.5]], seed=5)  # a 2^16-bucket guide
def test_guide_table_positions_give_every_points_inverse_cdf_count(cdfs, seed):
    thresholds = [np.array(cdf, dtype=float) for cdf in cdfs]
    positions = _Positions(thresholds)
    # about 64 buckets per merged value, a power of two within 2^12..2^16
    merged = len({t for cdf in cdfs for t in cdf if t < 1.0})
    least = 1 << (64 * merged - 1).bit_length()
    assert positions.buckets == min(max(GUIDE_BUCKETS, least), 1 << 16)
    assert np.iinfo(positions.counts.dtype).max >= max(map(len, cdfs))
    values = np.concatenate(thresholds + [np.array(_bucket_edges(0, 1, 2047, 4095))])
    near = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, 1.0)])
    u = np.concatenate([near, np.random.default_rng(seed).random(5_000)])
    u = u[(u >= 0.0) & (u < 1.0)]
    located = positions.locate(u, np.empty(len(u), dtype=np.intp), {})
    for i, t in enumerate(thresholds):
        brute = np.count_nonzero(t[:, None] <= u, axis=0)
        assert np.array_equal(positions.counts[i].take(located), brute)


def _verdict_cases() -> dict[str, SMPart]:
    code = sm_catalog("cw-12-2-8")
    return {
        "cw-12-2-8": SMPart(code, (6,) * 12),  # one block
        "cw-17-2-11": SMPart(sm_catalog("cw-17-2-11"), (6,) * 17),  # two blocks
        "cw-18-2-12": SMPart(sm_catalog("cw-18-2-12"), (6,) * 18),
        "two-class": SMPart(code, (2, 4) * 6),  # one block per class
    }


@pytest.mark.parametrize("case", list(_verdict_cases()))
def test_verdicts_say_whether_none_all_or_some_patterns_of_a_count_vector_fail(case):
    # per flip-count vector over the sampler blocks: 0 when every word
    # decodes, 2 when every one fails, 1 when it depends on the positions,
    # from the unit runner-up table and from scanning each word's coset
    part = _verdict_cases()[case]
    words, key, vectors = _block_words(part)
    totals = np.bincount(key, minlength=vectors)
    verdicts = []
    decided = _sm_decoder(part, part._unit_costs)(words)
    for failing in (decided, _scanned_failures(part, words)):
        fails = np.bincount(key, weights=failing, minlength=vectors)
        verdicts.append(np.where(fails == 0, 0, np.where(fails == totals, 2, 1)).tolist())
    assert verdicts[0] == verdicts[1]
    if case == "cw-12-2-8":
        # one block: counts 0-3 always decode, 4 depends on the positions,
        # 5-12 always fail
        assert len(montecarlo._sampler_blocks(part)) == 1
        assert verdicts[0] == [0] * 4 + [1] + [2] * 8


def test_unit_runner_up_table_builds_within_its_cosets_and_tiles():
    part = _random_part(22, 6, seed=22, decoder="coset-leader")
    assert len(_Sampler(part).blocks) > 1
    tracemalloc.start()
    try:
        # 2^16 one-byte costs, walked a tile of cosets at a time
        table = montecarlo._runner_up_by_syndrome(part, part._unit_costs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 1 << 16
    # the table, its tiles before they are joined, and one tile's walk: a
    # few arrays of TILE_WORDS uint64 words (measured: 673,096 bytes)
    assert peak <= 2 * table.nbytes + 5 * TILE_WORDS * 8


def test_unit_costs_build_no_cost_table():
    # minimum-weight costs are popcounts; a per-count-vector table costs a
    # Python loop over every count vector
    part = SMPart(sm_catalog("cw-12-2-8"), (2, 4) * 6)
    part._unit_failures
    assert "table" not in part._unit_costs.__dict__
    montecarlo._runner_up_by_syndrome(part, part._unit_costs)
    assert "table" not in part._unit_costs.__dict__


def test_monte_carlo_sweep_calls_pse_monte_carlo_once(monkeypatch):
    calls = []
    original = noise.pse_monte_carlo

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(noise, "pse_monte_carlo", counting)
    rows = sweep(build_scheme("fig1-bs-6fold"), [-3.0, -4.0, -5.0], method="mc", trials=2_000)
    assert len(rows) == 3 and len(calls) == 1
    assert list(calls[0][1]) == [2.0**-3, 2.0**-4, 2.0**-5]


@pytest.mark.parametrize("bad", [1.5, -0.25, math.nan, math.inf])
def test_monte_carlo_checks_every_p_m_before_any_draw(monkeypatch, bad):
    drawn = []
    monkeypatch.setattr(montecarlo, "_chunk_rng", lambda *args: drawn.append(args))
    for name in ("fig1-bs-sm", "fig1-bs-6fold"):
        with pytest.raises(PreconditionError, match=r"outside \[0, 1\]"):
            pse_monte_carlo(build_scheme(name), [2.0**-3, bad], trials=100)
    assert drawn == []


@pytest.mark.parametrize("decoder", DECODERS)
def test_an_empty_grid_gives_no_results_and_draws_nothing(monkeypatch, shor_sm_data_dir,
                                                          decoder):
    drawn = []
    monkeypatch.setattr(montecarlo, "_chunk_rng", lambda *args: drawn.append(args))
    for name in noise.SCHEMES:
        if name.startswith("fig2-shor"):  # needs the import-only [25,6,11] code
            continue
        scheme = build_scheme(name, data_dir=shor_sm_data_dir, decoder=decoder)
        assert pse_monte_carlo(scheme, [], trials=100) == []
        assert pse_exact(scheme, []) == []
        with pytest.raises(PreconditionError, match="empty p_m grid"):
            sweep(scheme, [], method="mc", trials=100)
    assert drawn == []


def test_monte_carlo_float_p_m_gives_one_result():
    result = pse_monte_carlo(build_scheme("fig1-bs-6fold"), 2.0**-3, trials=1_000, seed=4)
    assert isinstance(result, noise.SimResult)
    assert [result] == pse_monte_carlo(build_scheme("fig1-bs-6fold"), [2.0**-3], 1_000, seed=4)


def test_per_syndrome_table_is_built_only_when_it_pays(monkeypatch):
    part = _three_class_part()
    scheme = MeasurementScheme("three-class", (part,))
    cosets = 1 << part.code.redundancy
    costs, _ = part._pricing(2.0**-3)
    assert costs is not part._unit_costs
    words = _sm_word_sampler(part, 2.0**-3)(np.random.default_rng(8), 5_000)
    scanned = _sm_decoder(part, costs, cosets - 1)(words)
    looked_up = _sm_decoder(part, costs, cosets)(words)
    assert 0 < scanned.sum() < len(words)
    assert np.array_equal(scanned, looked_up)

    built, passes = [], []
    runner_up, count_failures = montecarlo._runner_up_by_syndrome, montecarlo._count_failures
    monkeypatch.setattr(montecarlo, "_runner_up_by_syndrome",
                        lambda *args: built.append(args) or runner_up(*args))
    monkeypatch.setattr(montecarlo, "_count_failures",
                        lambda scheme, p_ms, *args: passes.append(p_ms)
                        or count_failures(scheme, p_ms, *args))
    grid = [2.0**-3, 2.0**-4]
    below = pse_monte_carlo(scheme, grid, cosets - 1, seed=6)
    assert built == [] and passes == [grid]
    at = pse_monte_carlo(scheme, grid, cosets, seed=6)
    # one table per point, and the whole grid counted in one call
    assert len(built) == len(grid) and passes[1:] == [grid]
    assert all(0.0 < r.p_se < 1.0 for r in below + at)


def _recorded_passes(monkeypatch) -> tuple[list[list[range]], list[list[int]]]:
    """Record each pass over the chunks: its groups of points, and the bytes
    of the per-syndrome tables built for it (_count_failures builds a pass's
    readers just before the pass runs)."""
    passes, tables, pending = [], [], []
    runner_up, judge_chunks = montecarlo._runner_up_by_syndrome, montecarlo._judge_chunks

    def building(part, costs):
        table = runner_up(part, costs)
        pending.append(table.nbytes)
        return table

    def judging(draws, passing, *args):
        passes.append([points for points, _ in passing])
        tables.append(pending[:])
        pending.clear()
        return judge_chunks(draws, passing, *args)

    monkeypatch.setattr(montecarlo, "_runner_up_by_syndrome", building)
    monkeypatch.setattr(montecarlo, "_judge_chunks", judging)
    return passes, tables


def test_per_syndrome_tables_share_one_draw_of_each_chunk(monkeypatch):
    scheme = MeasurementScheme("three-class", (_three_class_part(),))
    p_ms, trials, chunk_size = WIDE_GRIDS["66"][::5], 1 << 14, 5_000
    drawn = []
    chunk_rng = montecarlo._chunk_rng
    monkeypatch.setattr(montecarlo, "_chunk_rng",
                        lambda seed, c: drawn.append(c) or chunk_rng(seed, c))
    got = pse_monte_carlo(scheme, p_ms, trials, seed=37, chunk_size=chunk_size)
    assert drawn == [0, 1, 2, 3]
    assert got == [pse_monte_carlo(scheme, p_m, trials, seed=37, chunk_size=chunk_size)
                   for p_m in p_ms]


def test_per_syndrome_tables_with_no_room_take_a_pass_each(monkeypatch):
    scheme = MeasurementScheme("three-class", (_three_class_part(),))
    p_ms, trials = WIDE_GRIDS["66"][::15], 1 << 14
    expected = pse_monte_carlo(scheme, p_ms, trials, seed=41)
    monkeypatch.setattr(montecarlo, "PASS_BYTES", 1)
    passes, tables = _recorded_passes(monkeypatch)
    assert pse_monte_carlo(scheme, p_ms, trials, seed=41) == expected
    assert passes == [[range(i, i + 1)] for i in range(len(p_ms))]
    assert tables == [[8 << scheme.parts[0].code.redundancy]] * len(p_ms)


def test_a_pass_holds_at_most_pass_bytes_of_decoder_tables_plus_one_group(monkeypatch):
    part = _three_class_part()
    scheme = MeasurementScheme("three-class", (part,))
    p_ms, trials = WIDE_GRIDS["66"][::5], 1 << 14
    expected = pse_monte_carlo(scheme, p_ms, trials, seed=43)
    table = montecarlo._syndrome_table_bytes(part.code, part._pricing(p_ms[0])[0], trials)
    assert table == 8 << part.code.redundancy
    # room for three tables per group; a group's other tables (about 100 KB
    # of count positions) leave room to start a second group in a pass
    budget = 39 * table // 10
    monkeypatch.setattr(montecarlo, "PASS_BYTES", budget)
    passes, tables = _recorded_passes(monkeypatch)
    assert pse_monte_carlo(scheme, p_ms, trials, seed=43) == expected
    groups = [points for pass_groups in passes for points in pass_groups]
    assert [len(points) for points in groups] == [3, 3, 3, 3, 2]
    assert len(passes) > 1 and any(len(pass_groups) > 1 for pass_groups in passes)
    assert all(size == table for held in tables for size in held)
    for groups, held in zip(passes, tables):
        assert len(held) == sum(len(points) for points in groups)
        assert sum(held) <= budget + max(len(points) for points in groups) * table


@pytest.mark.parametrize("decoder", DECODERS)
def test_fig1_shor_sm_monte_carlo_sweep_equals_per_point_calls(shor_sm_data_dir, decoder):
    scheme = build_scheme("fig1-shor-sm", data_dir=shor_sm_data_dir, decoder=decoder)
    grid, trials = [-2.0, -3.0, -4.5, -6.0], 1 << 12
    (z_part,) = {id(part): part for part in scheme.parts[1:]}.values()
    # 2^12 trials reach the [18,6] Z part's 2^12 cosets: each point's words
    # alone repay a per-syndrome table, under weighted ML a float one per point
    rules = [z_part._pricing(2.0**lp)[0] for lp in grid]
    assert all(montecarlo._syndrome_table_bytes(z_part.code, rule, trials) for rule in rules)
    assert all(rule is not z_part._unit_costs for rule in rules) == (decoder == "weighted-ml")
    rows = sweep(scheme, grid, method="mc", trials=trials, seed=47)
    expected = [pse_monte_carlo(scheme, 2.0**lp, trials, seed=47) for lp in grid]
    assert [(row.log2_pse, row.stderr) for row in rows] == [
        (math.log2(r.p_se) if r.p_se > 0 else -math.inf, r.stderr) for r in expected]


def _certain_codeword_code() -> BinaryLinearCode:
    """[6, 2] code whose codeword 0b000011 lies on bits 0 and 1 only."""
    return BinaryLinearCode(6, (0b111101, 0b111110), "certain-codeword")


def _likelihood_failure(part: SMPart, p_m: float) -> float:
    """p_se from pattern probabilities alone: a word succeeds iff it is the
    strictly most likely member of its coset."""
    n = part.code.length
    q = [p_err(w, p_m) for w in part.weights]
    prob = [math.prod(q[j] if (word >> j) & 1 else 1.0 - q[j] for j in range(n))
            for word in range(1 << n)]
    codewords = [c for c in part.code.codewords() if c]
    return math.fsum(prob[word] for word in range(1 << n)
                     if not all(prob[word] > prob[word ^ c] for c in codewords))


@pytest.mark.parametrize("code", [sm_catalog("cw-12-2-8"), _certain_codeword_code()],
                         ids=lambda code: code.name)
def test_weighted_ml_at_certain_flips_with_odd_and_even_weights(code):
    # at p_m = 1 odd weights flip for certain (lambda = -inf) and even
    # weights never (lambda = +inf); no pattern cost may be nan
    part = SMPart(code, (1, 2) * (code.length // 2), "weighted-ml")
    scheme = MeasurementScheme(code.name, (part,))
    assert _likelihood_failure(part, 1.0) == 0.0
    assert pse_exact(scheme, 1.0).p_se == 0.0
    assert pse_monte_carlo(scheme, 1.0, trials=1_000, seed=3).p_se == 0.0


def _monte_carlo_path(part, p_m: float, trials: int) -> str:
    """How Monte Carlo judges the part at p_m for a run of trials words."""
    if isinstance(part, RepetitionPart):
        return "repetition"
    layout = montecarlo._sampler_cells(part)
    if layout is not None:
        return "joint" if len(layout[1]) == 1 else "cells"
    if len(montecarlo._sampler_blocks(part)) == 1:
        return "one-block"
    costs = part._pricing(p_m)[0]
    if not montecarlo._syndrome_table_bytes(part.code, costs, trials):
        return "coset-scan"
    return "unit-table" if costs is part._unit_costs else "weighted-ml-tables"


def _calibration_paths() -> dict[str, tuple[list[MeasurementScheme], int]]:
    """Per Monte Carlo path, the schemes that take it and the trials per point."""
    three_class = MeasurementScheme("random-16-4", (_random_part(16, 4, 16, "weighted-ml"),))
    shor_z = MeasurementScheme("shor-z-20-6", (_table_cases()["shor-z-20-6"],))
    return {
        "repetition": ([build_scheme("fig1-shor-6fold"), build_scheme("fig1-bs-6fold")], 1 << 16),
        "joint": ([build_scheme("fig1-bs-sm"), build_scheme("fig2-bs-204"),
                   build_scheme("fig2-bs-216"),
                   MeasurementScheme("three-class", (_three_class_cw_12_2_8(),))], 1 << 16),
        "cells": ([MeasurementScheme("35-bit", (_random_35_bit_part(),)),
                   MeasurementScheme("columns-30-2", (_columns_part(),))], 1 << 16),
        "one-block": ([MeasurementScheme("one-block-16-4", (_one_block_part(),))], 1 << 16),
        "unit-table": ([shor_z], 1 << 15),
        "weighted-ml-tables": ([three_class], 1 << 14),  # 2^12 cosets: a table per point
        "coset-scan": ([three_class], (1 << 12) - 1),  # fewer words than cosets: scanned
    }


CALIBRATION_GRID = [-2.0 - 0.2 * i for i in range(31)]  # log2 p_m


def _mean_square_band(n: int, z: float = 3.719) -> tuple[float, float]:
    """The one-sided 1e-4 tails (z sigmas) of chi^2_n / n, the mean of n
    squared standard normals, by the Wilson-Hilferty approximation."""
    spread = 2.0 / (9.0 * n)
    return tuple((1.0 - spread + sign * z * math.sqrt(spread)) ** 3 for sign in (-1, 1))


@pytest.mark.parametrize("path", list(_calibration_paths()))
def test_monte_carlo_counts_are_calibrated_against_exact_on_every_path(path):
    # a small relative bias at every point passes each point's 5-sigma check
    # but not a pooled one: z = (failures - trials p) / sqrt(trials p (1 - p))
    # over the points that expect at least 20 failures.  For a correct
    # sampler |sum z| / sqrt(N) > 4 has probability 6.3e-5, and a mean z^2
    # outside _mean_square_band 2e-4; each point has its own seed, as the
    # points of one grid call read the same draws
    schemes, trials = _calibration_paths()[path]
    z = []
    for number, scheme in enumerate(schemes):
        p_ms = [2.0**lp for lp in CALIBRATION_GRID]
        for i, (p_m, exact) in enumerate(zip(p_ms, pse_exact(scheme, p_ms))):
            p = exact.p_se
            if trials * p < 20:
                continue
            assert {_monte_carlo_path(part, p_m, trials) for part in scheme.parts} == {path}
            seed = 1 + i + number * len(p_ms)
            failures = pse_monte_carlo(scheme, p_m, trials, seed=seed).p_se * trials
            z.append((failures - trials * p) / math.sqrt(trials * p * (1.0 - p)))
    assert len(z) >= 15
    pooled, mean_square = sum(z) / math.sqrt(len(z)), sum(x * x for x in z) / len(z)
    low, high = _mean_square_band(len(z))
    assert abs(pooled) <= 4.0 and low <= mean_square <= high, (len(z), pooled, mean_square)


# ----------------------------------------------------------------------
# sweeps and CSV
# ----------------------------------------------------------------------

def test_sweep_single_point():
    rows = sweep(build_scheme("fig1-shor-6fold"), [-4.0], method="exact")
    assert len(rows) == 1
    assert rows[0].log2_pse == pytest.approx(-1.105477, abs=0.01)
    assert rows[0].total_measurements == 144
    assert rows[0].method == "exact"


@pytest.mark.parametrize("bad, p_m", [(1.0, "2.0"), (2000.0, "inf"), (math.nan, "nan")])
def test_sweep_checks_every_point_before_evaluating_any(monkeypatch, bad, p_m):
    evaluated = []
    monkeypatch.setattr(noise, "pse_exact", lambda *args: evaluated.append(args))
    with pytest.raises(PreconditionError, match=rf"p_m={p_m} outside \[0, 1\]"):
        sweep(build_scheme("fig1-shor-6fold"), [-4.0, bad], method="exact")
    assert evaluated == []


def test_sweep_accepts_a_log2_p_m_that_rounds_to_one():
    assert 2.0**1e-17 == 1.0
    rows = sweep(build_scheme("fig1-shor-6fold"), [1e-17, -math.inf], method="exact")
    assert [r.log2_pm for r in rows] == [1e-17, -math.inf]


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


# ----------------------------------------------------------------------
# the flip-count samplers against the per-bit iid oracle
# ----------------------------------------------------------------------

def _iid_failures(scheme: MeasurementScheme, p_m: float, trials: int, seed: int) -> int:
    """Failures counted as Monte Carlo once drew them: one float per SM bit,
    compared with its flip probability and packed into uint64 words, then
    decoded by the same kernel as pse_monte_carlo."""
    parts = []
    for part in scheme.parts:
        q = [p_err(w, p_m) for w in part.weights]
        parts.append((q, _sm_decoder(part, part._pricing(p_m)[0])))
    failures = 0
    for chunk_index, start in enumerate(range(0, trials, DEFAULT_CHUNK_SIZE)):
        size = min(DEFAULT_CHUNK_SIZE, trials - start)
        rng = _chunk_rng(seed, chunk_index)
        failed = np.zeros(size, dtype=bool)
        for q, decode in parts:
            padded = np.zeros((size, 64), dtype=bool)
            np.less(rng.random((size, len(q))), q, out=padded[:, :len(q)])
            words = np.packbits(padded, bitorder="little").view("<u8").astype(np.uint64)
            failed |= decode(words)
        failures += int(failed.sum())
    return failures


def _oracle_case(case: str) -> MeasurementScheme:
    if case.startswith("fig1-bs-sm"):
        return build_scheme("fig1-bs-sm", decoder=case.removeprefix("fig1-bs-sm/"))
    if case == "hetero":
        part = SMPart(sm_catalog("cw-12-2-8"), (2, 6) * 6, "weighted-ml")
    elif case == "shor-z-22":
        # the Shor code's Z part under a seeded random [22,6] SM code
        sm = _random_part(22, 6, 20, "coset-leader").code
        part = sm_scheme(catalog("shor"), sm_catalog("cw-12-2-8"), sm).parts[1]
        assert len(set(part.weights)) == 3
    else:
        part = _random_35_bit_part()
        assert [k for k, _ in montecarlo._sampler_blocks(part)] == [0, 0, 0]  # one class, 3 blocks
    return MeasurementScheme(case, (part,))


@pytest.mark.parametrize(
    "case", ["fig1-bs-sm/coset-leader", "fig1-bs-sm/weighted-ml", "hetero", "shor-z-22", "35-bit"]
)
def test_flip_count_sampler_agrees_with_iid_oracle(monkeypatch, case):
    scheme = _oracle_case(case)
    trials, p_m = 1 << 16, 2.0**-4
    readers = []
    for name in ("_cell_reader", "_sm_reader"):
        monkeypatch.setattr(montecarlo, name, lambda *args, read=getattr(montecarlo, name):
                            readers.append(args) or read(*args))
    old = _iid_failures(scheme, p_m, trials, seed=42)
    # the oracle decodes each word; it never builds a reader or its tables
    assert readers == []
    new = pse_monte_carlo(scheme, p_m, trials, seed=41).p_se * trials
    assert len(readers) == 1
    pooled = (new + old) / (2 * trials)
    assert 0.0 < pooled < 1.0
    assert abs(new - old) <= 5 * math.sqrt(2 * trials * pooled * (1.0 - pooled))


def _merge_sparse_tails(observed: np.ndarray, expected: np.ndarray, least: float = 5.0):
    """Fold end bins expecting fewer than `least` counts into their neighbours."""
    observed, expected = list(observed), list(expected)
    for end in (-1, 0):
        while len(expected) > 1 and expected[end] < least:
            spill_o, spill_e = observed.pop(end), expected.pop(end)
            observed[end] += spill_o
            expected[end] += spill_e
    return np.array(observed), np.array(expected)


def test_flip_counts_and_positions_of_a_class_split_over_two_blocks():
    # 20 weight-4 bits interleaved with 4 weight-2 bits: the weight-4 class
    # is drawn as two blocks of 10
    code = BinaryLinearCode(24, ((1 << 24) - 1,), "repetition-24")
    part = SMPart(code, (4, 4, 4, 4, 4, 2) * 4)
    assert [(k, len(table)) for k, table in montecarlo._sampler_blocks(part)] == [
        (0, 1 << 10)] * 2 + [(1, 16)]
    q = [p_err(w, 2.0**-3) for w in part.weights]
    size = 1 << 17
    words = _sm_word_sampler(part, 2.0**-3)(np.random.default_rng(6), size)

    mask = sum(1 << j for j, w in enumerate(part.weights) if w == 4)
    counts = np.bincount(np.bitwise_count(words & np.uint64(mask)), minlength=21)
    pmf = np.array([math.comb(20, c) * q[0] ** c * (1.0 - q[0]) ** (20 - c) for c in range(21)])
    observed, expected = _merge_sparse_tails(counts, size * pmf)
    assert np.all(np.abs(observed - expected) <= 5 * np.sqrt(expected * (1.0 - expected / size)))

    for j, qj in enumerate(q):
        hits = int(np.count_nonzero(words & np.uint64(1 << j)))
        assert abs(hits - size * qj) <= 5 * math.sqrt(size * qj * (1.0 - qj))


def _all_flip_schemes() -> list[MeasurementScheme]:
    # weight-1 elements flip with probability p_m, so p_m = 1 flips every bit
    return [
        MeasurementScheme("cw-weight-1", (SMPart(sm_catalog("cw-12-2-8"), (1,) * 12),)),
        MeasurementScheme("repetition-weight-1", (RepetitionPart((1, 2), 3),)),
    ]


@pytest.mark.parametrize("p_m", [0.0, 1.0])
def test_monte_carlo_equals_exact_at_certain_flips(p_m):
    schemes = [build_scheme("fig1-bs-sm", decoder=d) for d in DECODERS]
    schemes += [build_scheme(name) for name in ("fig1-bs-6fold", "fig1-shor-6fold")]
    for scheme in schemes + _all_flip_schemes():
        exact = pse_exact(scheme, p_m).p_se
        assert exact in (0.0, 1.0)
        assert pse_monte_carlo(scheme, p_m, trials=5_000, seed=3).p_se == exact, scheme.name


def test_all_flips_draw_the_all_ones_word():
    part = _all_flip_schemes()[0].parts[0]
    assert p_err(1, 1.0) == 1.0
    words = _sm_word_sampler(part, 1.0)(np.random.default_rng(0), 1000)
    assert np.all(words == np.uint64((1 << 12) - 1))
