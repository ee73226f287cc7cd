"""Exact-arithmetic bound checkers and parameter families."""

import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdscodes import bounds
from qdscodes.bounds import (
    MAX_CHECK_DISTANCE,
    MAX_FAMILY_EXPONENT,
    MAX_SUMMED_LENGTH,
    CodeParams,
    ceil_log2,
    conjectured_bound,
    impure_bound,
    pure_only_families,
    qds_hamming,
    qds_hamming_d3,
    quantum_hamming,
    region_table,
)
from qdscodes.errors import CapacityError, PreconditionError


def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 63, 64, 65, 505)] == [0, 1, 2, 2, 6, 6, 7, 9]
    with pytest.raises(PreconditionError):
        ceil_log2(0)


def test_qds_hamming_examples():
    assert qds_hamming(CodeParams(7, 1, d=3)) is True  # 28 <= 64
    assert qds_hamming(CodeParams(5, 1, d=3)) is False  # 20 > 16
    assert qds_hamming(CodeParams(9, 1, d=1)) is True  # t = 0: 1 <= 2^m
    with pytest.raises(PreconditionError):
        qds_hamming(CodeParams(9, 1, d=4))


def test_qds_hamming_d3_reduction():
    # the general sum at d=3, l=0 equals the closed inequality 4n-k+1 <= 2^(n-k)
    for n in range(3, 40):
        for k in range(1, n):
            assert qds_hamming_d3(n, k) == (4 * n - k + 1 <= 2 ** (n - k))


def test_bound_verdicts_equal_their_power_forms():
    for n in range(-3, 120):
        for k in range(-5, 4 * n + 8):
            assert quantum_hamming(n, k) == (2 ** (n - k) >= 3 * n + 1)
            assert impure_bound(n, k) == (4 * n - k + 1 <= 2 ** (n - k))
            assert conjectured_bound(n, k) == (3 * (n - 2) + 1 <= 2 ** ((n - 1) - k))


def test_bound_verdicts_do_not_build_two_to_the_redundancy():
    # 2^(10^7 - 1) alone would take 1.25 MB
    n = 10**7
    tracemalloc.start()
    try:
        verdicts = [quantum_hamming(n, 1), impure_bound(n, 1), conjectured_bound(n, 1),
                    qds_hamming(CodeParams(n, 1))]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts == [True] * 4
    assert peak < 64 * 1024


def _hamming_sum(n: int, m: int, t: int, measured: int) -> int:
    """The QDS Hamming sum, every term formed, zero ones included."""
    return sum(comb(n, i) * 3**i * sum(comb(measured, j) for j in range(t - i + 1))
               for i in range(t + 1))


@pytest.mark.parametrize("n", [3, 8, 20, 45])
def test_qds_hamming_verdicts_equal_the_full_sum(n):
    # skipping the zero terms (i > n or j > m + l) and summing each
    # syndrome prefix once decide as the full sum does, on both sides of 2^m
    for k in range(1, n):
        for d in (1, 3, 5, 9, 2 * n + 5):
            for l in (0, 1, 7, 3 * n):
                params = CodeParams(n, k, d, l)
                total = _hamming_sum(n, params.m, params.t, params.m + l)
                assert qds_hamming(params) == (total <= 2**params.m), (n, k, d, l)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 80), data=st.data())
def test_qds_hamming_verdicts_settled_by_bounds_equal_the_full_sum(n, data):
    # the upper bound (t + 1) (3n + m + l)^t and the lower bound C(n, t) 3^t
    # decide only where the full sum decides alike
    k = data.draw(st.integers(1, n - 1))
    d = data.draw(st.integers(0, 30)) * 2 + 1
    l = data.draw(st.integers(0, 60))
    params = CodeParams(n, k, d, l)
    total = _hamming_sum(n, params.m, params.t, params.m + l)
    assert comb(n, params.t) * 3**params.t <= total
    assert total <= (params.t + 1) * (3 * n + params.m + l) ** params.t
    assert qds_hamming(params) == (total <= 2**params.m)


def test_qds_hamming_of_a_100_digit_length_is_settled_by_a_bound():
    # neither verdict forms the 1,000-term sum of 100-digit binomials
    assert qds_hamming(CodeParams(10**100, 1, 2001)) is True  # (t + 1) (3n + m)^t <= 2^m
    assert qds_hamming(CodeParams(10**100, 10**100 - 10, 3)) is False  # 3n > 2^10


def _integer_form(params: CodeParams) -> bool | None:
    """The verdict of the bounds C(n, t) 3^t <= S <= (t + 1) (3n + m + l)^t
    with both formed as integers, or None where neither settles it."""
    n, m, t = params.n, params.m, params.t
    if bounds._at_most_power_of_two((t + 1) * (3 * n + m + params.l) ** t, m):
        return True
    if not bounds._at_most_power_of_two(comb(n, t) * 3**t, m):
        return False
    return None


@pytest.mark.parametrize("n", [3, 8, 11, 16, 20, 45, 200, 3000, 10**6, 10**30])
def test_qds_hamming_verdicts_equal_the_integer_bounds(n):
    # bit lengths settle a verdict before either bound is formed, only where
    # the integer bounds settle it alike (at n = 11 and 16, k = 2, without
    # the - 1 in the lower bit length they would not); every verdict equals
    # the integer bounds' where they settle, else the full sum
    ks = {1, 2, n // 3, n // 2, n - 200, n - 40, n - 12, n - 5, n - 2, n - 1}
    ds = (1, 3, 5, 7, 9, 21, 41) + ((2 * n + 5,) if n <= 45 else ())
    for k in sorted(ks & set(range(1, min(n, 10**6)))) + [k for k in ks if 10**6 <= k < n]:
        for d in ds:
            for l in (0, 1, 7, 3 * n):
                params = CodeParams(n, k, d, l)
                expected = _integer_form(params)
                settled = bounds._settled_by_bit_lengths(n, params.m, params.t, params.m + l)
                assert settled in (None, expected), (n, k, d, l)
                if expected is None:
                    expected = _hamming_sum(n, params.m, params.t, params.m + l) <= 2**params.m
                assert qds_hamming(params) is expected, (n, k, d, l)


@pytest.mark.parametrize("k, verdict", [(1, True), (-100, False)])
def test_qds_hamming_at_the_digit_limit_forms_neither_bound(monkeypatch, k, verdict):
    # n = 10^4299 has 4,300 digits; at d = 2001 the upper bound would have
    # 14 million bits (2.2 s to form) and C(n, t) took 6.4 s
    n = 10**4299
    monkeypatch.setattr(bounds, "comb", None)
    tracemalloc.start()
    try:
        assert qds_hamming(CodeParams(n, k % n, MAX_CHECK_DISTANCE)) is verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_qds_hamming_sums_only_up_to_the_length_cap():
    # at t = 1 neither bound settles 3n <= 2^m < 2 (3n + m + l): n near
    # 10^12 with m = 42, and n = 10^13 with m = 45
    n = MAX_SUMMED_LENGTH - 100
    assert qds_hamming(CodeParams(n, n - 42, 3)) == (1 + 42 + 3 * n <= 2**42)
    n = 10 * MAX_SUMMED_LENGTH
    assert 3 * n <= 2**45 < 2 * (3 * n + 45)
    with pytest.raises(CapacityError, match="Hamming-sum cap"):
        qds_hamming(CodeParams(n, n - 45, 3))


def test_qds_hamming_takes_d_up_to_the_cap():
    assert qds_hamming(CodeParams(20_000, 1, MAX_CHECK_DISTANCE)) is True
    assert qds_hamming(CodeParams(10, 3, MAX_CHECK_DISTANCE)) is False
    with pytest.raises(CapacityError, match="Hamming-check cap"):
        qds_hamming(CodeParams(10, 3, MAX_CHECK_DISTANCE + 2))


def test_qds_hamming_d3_verdicts():
    assert qds_hamming_d3(5, 1) is False  # 20 > 16
    assert qds_hamming_d3(6, 1) is True  # 24 <= 32
    assert qds_hamming_d3(7, 1) is True
    assert qds_hamming_d3(8, 3) is True  # 30 <= 32


def test_qds_hamming_with_redundancy():
    # adding measurements enlarges the left side while 2^m is fixed
    assert qds_hamming(CodeParams(5, 1, d=3, l=0)) is False
    assert qds_hamming(CodeParams(7, 1, d=3, l=1)) is True  # 29 <= 64
    base = CodeParams(10, 2, d=3, l=0)
    widened = CodeParams(10, 2, d=3, l=5)
    assert qds_hamming(base) and qds_hamming(widened)


def test_quantum_hamming_examples():
    assert quantum_hamming(9, 1) is True  # 2^8 >= 28
    assert quantum_hamming(21, 15) is True  # equality: 2^6 = 64 = 3*21+1
    assert quantum_hamming(21, 16) is False
    assert quantum_hamming(5, 1) is True  # the perfect code sits at equality


def test_impure_bound_examples():
    assert impure_bound(22, 15) is True  # 74 <= 128
    assert impure_bound(21, 15) is False  # 70 > 64
    assert impure_bound(19, 12) is True  # 65 <= 128
    assert impure_bound(9, 1) is True  # Shor code is impure


def test_conjectured_bound_examples():
    assert conjectured_bound(22, 15) is True  # 61 <= 64
    assert conjectured_bound(20, 14) is False  # 55 > 32
    assert conjectured_bound(9, 1) is True  # 22 <= 128


def test_impure_bound_agrees_with_general_sum_up_to_512():
    for n in range(3, 513):
        for k in range(1, n):
            assert impure_bound(n, k) == qds_hamming_d3(n, k)


def test_conjectured_bound_at_least_as_strict():
    # conjecture satisfied implies the impure bound satisfied, n >= 6
    for n in range(6, 160):
        for k in range(1, n):
            if conjectured_bound(n, k):
                assert impure_bound(n, k)


def test_pure_only_families_small():
    fams = pure_only_families(3)
    assert (5, 1) in fams
    assert (21, 15) in fams
    assert (168, 159) in fams  # 8*f_3 = 168, ceil(log2(505)) = 9
    assert fams == sorted(set(fams))
    with pytest.raises(PreconditionError):
        pure_only_families(1)


def test_pure_only_families_stop_at_the_cap():
    fams = pure_only_families(MAX_FAMILY_EXPONENT)
    assert len(fams) == 25_877
    f_cap = (4**MAX_FAMILY_EXPONENT - 1) // 3
    assert fams[-1][0] == 8 * f_cap
    with pytest.raises(CapacityError, match="family cap"):
        pure_only_families(MAX_FAMILY_EXPONENT + 1)


def test_pure_only_family_members():
    # a = 4 contributes f_4 = 85 -> (85, 77); a = 7 admits ell = 4
    fams = pure_only_families(7)
    assert (85, 77) in fams
    f7 = (4**7 - 1) // 3
    assert (f7, f7 - 14) in fams
    assert (f7 - 4, (f7 - 4) - 14) in fams


def test_pure_only_families_satisfy_hamming_but_violate_impure():
    for n, k in pure_only_families(7):
        assert quantum_hamming(n, k)
        assert not impure_bound(n, k)


def test_region_table_envelopes():
    rows = {r.n: r for r in region_table((5, 26))}
    assert (rows[19].singleton_k, rows[19].hamming_k) == (15, 13)
    assert rows[19].impure_k == 13
    assert rows[19].conjecture_k == 12  # matches the optimal (19,12) point
    assert rows[26].hamming_k == 19  # matches the optimal (26,19) point
    assert rows[26].impure_k == 19
    assert rows[26].conjecture_k == 18
    assert rows[5].hamming_k == 1
    # envelope ordering: singleton >= hamming >= impure >= conjecture here
    for r in rows.values():
        assert r.singleton_k >= r.hamming_k >= r.impure_k >= r.conjecture_k


def test_region_table_reads_zero_where_no_k_fits():
    rows = region_table((1, 5))
    assert [(r.n, r.singleton_k, r.hamming_k, r.impure_k, r.conjecture_k) for r in rows] == [
        (1, 0, 0, 0, 0), (2, 0, 0, 0, 0), (3, 0, 0, 0, 0), (4, 0, 0, 0, 0), (5, 1, 1, 0, 0)
    ]
    # the bare conjectured formula admits k = 1 at n = 2; the column also needs the impure bound
    assert conjectured_bound(2, 1) and not impure_bound(2, 1)


@pytest.mark.parametrize("n_range", [(26, 19), (0, 0), (0, 5), (-3, 2), (2, 1)])
def test_region_table_refuses_an_empty_or_non_positive_range(n_range):
    with pytest.raises(PreconditionError, match="1 <= n1 <= n2"):
        region_table(n_range)


def test_code_params_validation():
    with pytest.raises(PreconditionError):
        CodeParams(5, 5)
    with pytest.raises(PreconditionError):
        CodeParams(5, 1, d=0)
    p = CodeParams(12, 5, d=5, l=2)
    assert (p.m, p.t) == (7, 2)
