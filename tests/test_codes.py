"""Stabilizer/subsystem code objects, distances, purity, and the catalog."""

import itertools
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdscodes import codes
from qdscodes.codes import (
    MAX_N,
    MAX_SEARCH_WEIGHT,
    MAX_SPAN_EXPONENT,
    AdditiveCode,
    StabilizerCode,
    SubsystemCode,
    bacon_shor,
    catalog,
    catalog_names,
    is_impure,
    make_stabilizer,
    make_subsystem,
    min_distance,
    parse_code_text,
    read_code_file,
    _word_table,
    write_code_file,
)
from qdscodes.errors import (
    CapacityError,
    CommutationError,
    CatalogError,
    DimensionError,
    ParseError,
    QDSError,
    RankError,
)
from qdscodes.f2 import Basis, null_space
from qdscodes.gf4 import F4Vector, pauli_string_parse, syndrome, trace_inner_product
from qdscodes.qds import (
    augment_parity, build_qds, extended_syndrome, identity_qds, qds_min_distance,
)
from qdscodes.smcodes import BinaryLinearCode, parse_binary_code_text

STABILIZER_PARAMS = {
    # name -> (n, k, d, impure)
    "five-qubit": (5, 1, 3, False),
    "steane": (7, 1, 3, False),
    "shor": (9, 1, 3, True),
    "example-6-1-3": (6, 1, 3, True),
    "example-6-1-3-prime": (6, 1, 3, True),
    "8-3-3": (8, 3, 3, False),
}


def errors_of_weight(n: int, weight: int):
    """All F4 vectors of the given Pauli weight, support then symbols in
    lexicographic order."""
    if weight == 0:
        yield F4Vector.zero(n)
        return
    for support in itertools.combinations(range(n), weight):
        for values in itertools.product((1, 2, 3), repeat=weight):
            x = z = 0
            for coord, v in zip(support, values):
                x |= (v & 1) << coord
                z |= (v >> 1) << coord
            yield F4Vector(n, x, z)


def brute_force_distance(code, max_weight=3):
    """Direct enumeration oracle: no early exit, membership by span listing.
    None when no vector of weight <= max_weight qualifies."""
    excluded = {v.symbols() for v in code.gauge.span()}
    found = []
    for w in range(1, max_weight + 1):
        for e in errors_of_weight(code.n, w):
            if all(trace_inner_product(g, e) == 0 for g in code.rows):
                if e.symbols() not in excluded:
                    found.append(w)
    return min(found, default=None)


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------

def test_make_stabilizer_rejects_anticommuting_rows():
    with pytest.raises(CommutationError):
        make_stabilizer([pauli_string_parse("X"), pauli_string_parse("Z")])


def test_make_stabilizer_rejects_dependent_rows():
    v = pauli_string_parse("XZY")
    with pytest.raises(RankError):
        make_stabilizer([v, v])


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: AdditiveCode(2, (F4Vector.zero(2), F4Vector(3, 1, 0))), RankError,
                 "unequal lengths", id="unequal-rows"),
    pytest.param(lambda: AdditiveCode.from_rows([]), RankError, "at least one", id="no-rows"),
    pytest.param(lambda: make_stabilizer([]), RankError, "at least one", id="no-generators"),
    pytest.param(lambda: next(AdditiveCode.from_rows(
        F4Vector.single(MAX_SPAN_EXPONENT + 1, i, 1) for i in range(MAX_SPAN_EXPONENT + 1)
    ).span()), CapacityError, "exceeds the enumeration cap", id="span-cap"),
])
def test_input_checks_raise_their_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_additive_code_membership():
    rows = [pauli_string_parse(s) for s in ("XXI", "IXX")]
    code = AdditiveCode.from_rows(rows)
    assert code.member(pauli_string_parse("XIX"))
    assert not code.member(pauli_string_parse("ZII"))
    assert code.member(F4Vector.zero(3))


@pytest.mark.parametrize("name", sorted(STABILIZER_PARAMS))
def test_catalog_stabilizer_parameters(name):
    n, k, d, impure = STABILIZER_PARAMS[name]
    code = catalog(name)
    assert isinstance(code, StabilizerCode)
    assert (code.n, code.k, code.m) == (n, k, n - k)
    assert min_distance(code) == d
    assert is_impure(code, d) == impure


@pytest.mark.parametrize("name", sorted(STABILIZER_PARAMS))
def test_catalog_rows_pairwise_commute(name):
    rows = catalog(name).rows
    for gi, gj in itertools.combinations(rows, 2):
        assert trace_inner_product(gi, gj) == 0


@pytest.mark.parametrize("name", sorted(STABILIZER_PARAMS))
def test_span_members_have_zero_syndrome(name):
    code = catalog(name)
    for v in code.stabilizer.span():
        assert syndrome(code.rows, v).bits == 0


# vectors per kernel block: one support per block, a few, several, and the
# default, so that searches also stop inside a later block of a weight
BLOCK_SIZES = (1, 27, 100, codes.BLOCK_VECTORS)


def catalog_and_reversed():
    """(label, code) for each catalog code and for it with its coordinates
    reversed, which moves the first weight-3 logical error of Steane and of
    the two [[6,1,3]] codes past support {0, 1, 2}."""
    for name in catalog_names():
        code = catalog(name)
        rows = [r.permute(range(code.n - 1, -1, -1)) for r in code.gauge.rows]
        build = make_stabilizer if isinstance(code, StabilizerCode) else make_subsystem
        yield name, code
        yield f"{name} reversed", build(rows)


def test_catalog_distances_match_brute_force_oracle():
    for name, code in catalog_and_reversed():
        expected = brute_force_distance(code)
        qds_codes = (identity_qds(code), augment_parity(code))
        # every error of weight 4 or more costs at least 4
        qds_expected = [min(t for t in _direct_qds_totals(q, 3).values() if t is not None)
                        for q in qds_codes]
        assert expected == 3 and max(qds_expected) <= 4
        for block in BLOCK_SIZES:
            with patch.object(codes, "BLOCK_VECTORS", block):
                assert min_distance(code) == expected, (name, block)
                assert [qds_min_distance(q) for q in qds_codes] == qds_expected, (name, block)


def test_a_search_stops_at_the_block_of_its_first_hit(monkeypatch):
    # with one support per block, min_distance forms every support of
    # weights 1 and 2, then those of weight 3 up to the first that carries
    # a logical error (in errors_of_weight's order), and no further
    weight_blocks, seen = codes._weight_blocks, []

    def recorded(table, top):
        for w, words in weight_blocks(table, top):
            seen.append(w)
            yield w, words

    monkeypatch.setattr(codes, "BLOCK_VECTORS", 1)
    monkeypatch.setattr(codes, "_weight_blocks", recorded)
    supports = set()
    for name, code in catalog_and_reversed():
        seen[:] = []
        gauge = {v.symbols() for v in code.gauge.span()}
        first = next(e for e in errors_of_weight(code.n, 3)
                     if not syndrome(code.rows, e).bits and e.symbols() not in gauge)
        support = [i for i in range(code.n) if first.symbol(i)]
        index = list(itertools.combinations(range(code.n), 3)).index(tuple(support))
        assert min_distance(code) == 3
        assert seen == [1] * code.n + [2] * math.comb(code.n, 2) + [3] * (index + 1), name
        supports.add(index)
    # some search stops past the first block of weight 3
    assert max(supports) > 0


@pytest.mark.parametrize("n", [1, 2, 9, 16, 25])
def test_support_arrays_are_read_only_and_in_combinations_order(n):
    for w in range(1, min(MAX_SEARCH_WEIGHT, n) + 1):
        supports = codes._supports(n, w)
        assert supports is codes._supports(n, w)
        assert supports.dtype == np.intp and supports.shape == (math.comb(n, w), w)
        assert supports.tolist() == [list(c) for c in itertools.combinations(range(n), w)]
        assert not supports.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            supports[0, 0] = 1


def test_catalog_unknown_name():
    with pytest.raises(CatalogError):
        catalog("no-such-code")
    assert {"shor", "bacon-shor", "steane", "five-qubit", "example-6-1-3", "8-3-3"} <= set(
        catalog_names()
    )


# every catalog code's rows in order: the stabilizer presentation, then a
# subsystem code's gauge generators
CATALOG_ROWS = {
    "8-3-3": "XXXXXXXX ZZZZZZZZ IXIXYZYZ IXZYIXZY IYXZXZIY",
    "bacon-shor": "XXIXXIXXI IXXIXXIXX ZZZZZZIII IIIZZZZZZ"
                  " GAUGE XXIIIIIII IXXIIIIII IIIXXIIII IIIIXXIII IIIIIIXXI IIIIIIIXX"
                  " ZIIZIIIII IIIZIIZII IZIIZIIII IIIIZIIZI IIZIIZIII IIIIIZIIZ",
    "example-6-1-3": "IIIZIZ YIZXXY ZXIIXZ IZXXXX ZZZIZI",
    "example-6-1-3-prime": "YXXZYZ YIZXXY ZXIIXZ IZXYXY ZZZZZZ",
    "five-qubit": "XZZXI IXZZX XIXZZ ZXIXZ",
    "shor": "XXXXXXIII IIIXXXXXX ZZIIIIIII IZZIIIIII IIIZZIIII IIIIZZIII IIIIIIZZI IIIIIIIZZ",
    "steane": "IIIXXXX IXXIIXX XIXIXIX IIIZZZZ IZZIIZZ ZIZIZIZ",
}


def test_catalog_rows_are_pinned():
    assert set(CATALOG_ROWS) == set(catalog_names())
    for name, text in CATALOG_ROWS.items():
        code = catalog(name)
        rows = [str(r) for r in code.rows]
        if not isinstance(code, StabilizerCode):
            rows += ["GAUGE"] + [str(r) for r in code.gauge.rows]
        assert rows == text.split(), name


def test_shor_generator_order_and_weights():
    shor = catalog("shor")
    assert [str(r) for r in shor.rows[:2]] == ["XXXXXXIII", "IIIXXXXXX"]
    assert [r.weight for r in shor.rows] == [6, 6, 2, 2, 2, 2, 2, 2]


def test_example_code_g1_weight_2():
    code = catalog("example-6-1-3")
    assert code.rows[0].weight == 2


# ----------------------------------------------------------------------
# subsystem codes
# ----------------------------------------------------------------------

def test_bacon_shor_parameters():
    bs = catalog("bacon-shor")
    assert isinstance(bs, SubsystemCode) and not isinstance(bs, StabilizerCode)
    assert (bs.n, bs.k, bs.r, bs.m) == (9, 1, 4, 8)
    assert len(bs.gauge.rows) == 12
    assert all(g.weight == 2 for g in bs.gauge.rows)
    assert [s.weight for s in bs.rows] == [6, 6, 6, 6]
    assert min_distance(bs) == 3


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_bacon_shor_generator(m):
    bs = bacon_shor(m)
    assert (bs.n, bs.k, bs.r) == (m * m, 1, (m - 1) ** 2)
    assert [s.weight for s in bs.rows] == [2 * m] * (2 * (m - 1))
    assert [g.weight for g in bs.gauge.rows] == [2] * (2 * m * (m - 1))
    if m * m <= MAX_N:
        assert min_distance(bs) == m


@pytest.mark.parametrize("m", range(2, 8))
def test_bacon_shor_stabilizer_row_order(m):
    # the fig1-bs/fig2-bs measurement totals depend on this order: X on
    # columns (c, c+1) for each c, then Z on rows (r, r+1) for each r
    def rows_where(pauli, keep):
        return pauli_string_parse(
            "".join(pauli if keep(q // m, q % m) else "I" for q in range(m * m))
        )

    expected = [rows_where("X", lambda row, col: col in (c, c + 1)) for c in range(m - 1)]
    expected += [rows_where("Z", lambda row, col: row in (r, r + 1)) for r in range(m - 1)]
    assert list(bacon_shor(m).rows) == expected


def test_bacon_shor_stabilizer_is_center_of_gauge():
    bs = catalog("bacon-shor")
    for s in bs.rows:
        for g in bs.gauge.rows:
            assert trace_inner_product(s, g) == 0
        assert bs.gauge.member(s)  # S <= G <= centralizer(S)


def test_subsystem_center_matches_brute_force_intersection():
    # D intersect D-perp by exhaustive enumeration, for the Bacon-Shor code
    bs = catalog("bacon-shor")
    gauge_span = {v.symbols() for v in bs.gauge.span()}
    center = set()
    for symbols in gauge_span:
        v = F4Vector.from_symbols(symbols)
        if all(trace_inner_product(v, g) == 0 for g in bs.gauge.rows):
            center.add(symbols)
    assert center == {v.symbols() for v in bs.stabilizer.span()}


def test_subsystem_center_brute_force_small():
    # n = 3 toy with a non-abelian gauge group (XII and ZZI anticommute)
    gauge = [pauli_string_parse(s) for s in ("XII", "XXI", "ZZI")]
    sub = make_subsystem(gauge)
    dual_members = {
        v.symbols()
        for v in (F4Vector.from_symbols(s) for s in itertools.product(range(4), repeat=3))
        if all(trace_inner_product(v, g) == 0 for g in gauge)
    }
    span_members = {v.symbols() for v in sub.gauge.span()}
    expected = dual_members & span_members
    assert expected == {v.symbols() for v in sub.stabilizer.span()}
    assert (sub.m, sub.r, sub.k) == (2, 1, 1)


def test_subsystem_abelian_gauge_group_means_r_zero():
    gauge = [pauli_string_parse(s) for s in ("XXI", "ZZI", "IIX")]
    sub = make_subsystem(gauge)
    assert (sub.m, sub.r, sub.k) == (3, 0, 0)
    assert {v.symbols() for v in sub.stabilizer.span()} == {
        v.symbols() for v in sub.gauge.span()
    }


def test_subsystem_with_r_zero_equals_stabilizer_code():
    # a stabilizer code is the subsystem code whose gauge group is its
    # stabilizer: given rows, in order, with r = 0, however it is built
    given_codes = [(catalog(name), CATALOG_ROWS[name].split()) for name in STABILIZER_PARAMS]
    reversed_steane = CATALOG_ROWS["steane"].split()[::-1]
    given_codes.append((parse_code_text("\n".join(reversed_steane)), reversed_steane))
    prime = CATALOG_ROWS["example-6-1-3-prime"].split()
    rotated = prime[2:] + prime[:2]
    given_codes.append((make_stabilizer(map(pauli_string_parse, rotated)), rotated))
    for code, given_rows in given_codes:
        assert isinstance(code, SubsystemCode)
        assert code.stabilizer is code.gauge
        assert code.r == 0 and code.m == len(given_rows) == code.n - code.k
        assert [str(r) for r in code.rows] == given_rows
        sub = SubsystemCode(code.gauge)
        assert (sub.r, sub.k, sub.m) == (0, code.k, code.m)
        assert {v.symbols() for v in sub.stabilizer.span()} == {
            v.symbols() for v in code.stabilizer.span()
        }
        assert min_distance(sub) == min_distance(code)


# ----------------------------------------------------------------------
# minimum distance behaviour
# ----------------------------------------------------------------------

def test_min_distance_dispatch():
    assert min_distance(catalog("steane")) == 3
    assert min_distance(catalog("bacon-shor")) == 3


def test_distance_invariant_under_equivalence_moves():
    rng = np.random.default_rng(17)
    code = catalog("example-6-1-3")
    d = min_distance(code)
    rows = list(code.rows)
    # coordinate permutation
    perm = rng.permutation(6).tolist()
    permuted = make_stabilizer([r.permute(perm) for r in rows])
    assert min_distance(permuted) == d
    # per-coordinate scaling and conjugation
    scaled = make_stabilizer([r.scale_at(2, 2) for r in rows])
    assert min_distance(scaled) == d
    conjugated = make_stabilizer([r.conjugate_at(4) for r in rows])
    assert min_distance(conjugated) == d


def test_is_impure_matches_direct_span_scan():
    for name, (_, _, d, impure) in STABILIZER_PARAMS.items():
        code = catalog(name)
        direct = any(0 < v.weight < d for v in code.stabilizer.span())
        assert direct == impure == is_impure(code, d)


# ----------------------------------------------------------------------
# the packed-word distance kernel against brute force
# ----------------------------------------------------------------------

@st.composite
def small_codes(draw):
    """A random stabilizer or subsystem code on n <= 7 qubits with up to
    `size` generators: seeded random vectors are kept while independent
    (and, for stabilizer codes, commuting) until there are `size` of them."""
    n = draw(st.integers(2, 7))
    subsystem = draw(st.booleans())
    size = n + draw(st.integers(-2, n - 1 if subsystem else 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, basis = [], Basis()
    for x, z in rng.integers(0, 1 << n, size=(32 * n, 2)).tolist():
        v = F4Vector(n, x, z)
        commutes = all(trace_inner_product(v, r) == 0 for r in rows)
        if len(rows) < size and (subsystem or commutes) and basis.add(v.bit_expansion()):
            rows.append(v)
    assume(rows)
    return make_subsystem(rows) if subsystem else make_stabilizer(rows)


@settings(max_examples=40, deadline=None)
@given(code=small_codes(), block=st.sampled_from(BLOCK_SIZES))
def test_min_distance_matches_brute_force_on_random_codes(code, block):
    expected = brute_force_distance(code, max_weight=code.n)
    with patch.object(codes, "BLOCK_VECTORS", block):
        if expected is None:  # with k = 0 every error of zero syndrome lies in the gauge group
            assert code.k == 0
            with pytest.raises(DimensionError, match=r"no logical qubit \(k = 0\)"):
                min_distance(code)
        else:
            assert min_distance(code) == expected


def _direct_qds_totals(qds, max_weight):
    """min over e outside the excluded span of weight(e) +
    weight(extended_syndrome(e)), for each weight 1..max_weight."""
    excluded = qds.base.gauge
    members = {v.symbols() for v in excluded.span()}
    return {
        w: min((w + extended_syndrome(qds, e).weight for e in errors_of_weight(qds.n, w)
                if e.symbols() not in members), default=None)
        for w in range(1, max_weight + 1)
    }


@settings(max_examples=30, deadline=None)
@given(code=small_codes(), data=st.data(), block=st.sampled_from(BLOCK_SIZES))
def test_qds_min_distance_matches_direct_enumeration_on_random_codes(code, data, block):
    m = len(code.rows)
    assume(m >= 1)
    columns = data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=4))
    rows = [(1 << i) | sum(((col >> i) & 1) << (m + j) for j, col in enumerate(columns))
            for i in range(m)]
    qds = build_qds(code, BinaryLinearCode(m + len(columns), tuple(rows)))
    totals = _direct_qds_totals(qds, code.n)
    expected = min(t for t in totals.values() if t is not None)
    top = min(MAX_SEARCH_WEIGHT, code.n)
    searched = min((t for w, t in totals.items() if w <= top and t is not None), default=None)
    with patch.object(codes, "BLOCK_VECTORS", block):
        if searched is None or (top < code.n and searched > top + 1):
            with pytest.raises(CapacityError, match="no minimum settled"):
                qds_min_distance(qds)
        else:
            assert qds_min_distance(qds) == expected


def word_table_by_bits(rows, excluded):
    """The reference for `_word_table`: each word assembled bit by bit from
    the lines, as Python integers, then packed into uint64 limbs."""
    n = excluded.n
    checks = null_space([r.bit_expansion() for r in excluded.rows], 2 * n)
    lines = checks + [r.z | (r.x << n) for r in rows]
    unit = [sum(((line >> b) & 1) << i for i, line in enumerate(lines)) for b in range(2 * n)]
    member = (1 << len(checks)) - 1
    words = [word for x, z in zip(unit[:n], unit[n:]) for word in (x, z, x ^ z)]
    words += [member, ((1 << len(lines)) - 1) ^ member]
    width = max(1, -(-len(lines) // 64))
    packed = b"".join(word.to_bytes(8 * width, "little") for word in words)
    limbs = np.frombuffer(packed, dtype="<u8").reshape(-1, width)
    return limbs[:-2].reshape(n, 3, width), limbs[-2, :, None], limbs[-1, :, None]


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert (g.dtype, g.shape) == (e.dtype, e.shape)
        assert np.array_equal(g, e)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), dim=st.integers(0, 80), size=st.integers(0, 24),
       seed=st.integers(0, 2**32 - 1))
def test_word_table_matches_bitwise_assembly(n, dim, size, seed):
    # up to 2n - dim + size = 104 lines, so words take one or two limbs
    rng = np.random.default_rng(seed)
    excluded, basis = [], Basis()
    for x, z in rng.integers(0, 1 << n, size=(dim, 2)).tolist():
        v = F4Vector(n, x, z)
        if basis.add(v.bit_expansion()):
            excluded.append(v)
    rows = [F4Vector(n, x, z) for x, z in rng.integers(0, 1 << n, size=(size, 2)).tolist()]
    code = AdditiveCode(n, tuple(excluded))
    assert_same_arrays(_word_table(rows, code), word_table_by_bits(rows, code))


def test_word_table_matches_bitwise_assembly_on_the_catalog_and_a_wide_chain():
    for name in catalog_names():
        code = catalog(name)
        assert_same_arrays(_word_table(code.rows, code.gauge),
                           word_table_by_bits(code.rows, code.gauge))
    # is_impure's membership-only words on 50 qubits: 70 bits in two limbs
    z_chain = make_stabilizer(F4Vector(50, 0, 3 << j) for j in range(19, 49))
    table = _word_table((), z_chain.stabilizer)
    assert table[0].shape == (50, 3, 2)
    assert_same_arrays(table, word_table_by_bits((), z_chain.stabilizer))


def test_min_distance_refuses_a_code_without_logical_qubits(monkeypatch):
    bell = make_stabilizer([pauli_string_parse("XX"), pauli_string_parse("ZZ")])
    gauge = make_subsystem([pauli_string_parse(s) for s in ("XXI", "ZZI", "IIX")])
    # refused by name, before any search
    monkeypatch.setattr(codes, "min_weight_outside", None)
    for code in (bell, gauge):
        assert code.k == 0
        with pytest.raises(DimensionError, match=r"no logical qubit \(k = 0\)"):
            min_distance(code)


def _low_weight_member(code, d):
    """The reference for is_impure: a weight-ordered scan with basis tests."""
    basis = code.stabilizer.basis()
    return any(
        basis.contains(e.bit_expansion()) for w in range(1, d) for e in errors_of_weight(code.n, w)
    )


@pytest.mark.parametrize("d", [2, 3])
def test_is_impure_above_the_span_cap_matches_basis_scan(d):
    # XX chain: dim 24 > MAX_SPAN_EXPONENT on n = 25 > MAX_N, so the kernel's
    # membership words answer; ZZ chain on 50 qubits: 70 membership bits, two limbs
    x_chain = make_stabilizer(F4Vector(25, 3 << j, 0) for j in range(24))
    z_chain = make_stabilizer(F4Vector(50, 0, 3 << j) for j in range(19, 49))
    assert x_chain.m > MAX_SPAN_EXPONENT and 2 * z_chain.n - z_chain.m > 64
    for code in (x_chain, z_chain):
        assert is_impure(code, d) == _low_weight_member(code, d) == (d == 3)


def test_is_impure_beyond_the_search_cap_keeps_its_memory_per_block():
    # 23 disjoint ZZZZ blocks on 92 qubits: the first weight-4 support is a
    # stabilizer element, so the search stops in its first weight-4 block;
    # the C(92, 4) supports of that weight alone would take 87 MB
    blocks = make_stabilizer(F4Vector(92, 0, 15 << 4 * j) for j in range(23))
    cached = codes._supports.cache_info().currsize
    tracemalloc.start()
    try:
        assert is_impure(blocks, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert codes._supports.cache_info().currsize == cached


# ----------------------------------------------------------------------
# file round trips
# ----------------------------------------------------------------------

def test_stabilizer_file_roundtrip(tmp_path):
    code = catalog("example-6-1-3")
    path = tmp_path / "example.txt"
    write_code_file(code, path, comment="example code")
    loaded = read_code_file(path)
    assert isinstance(loaded, StabilizerCode)
    assert loaded.rows == code.rows


def test_subsystem_file_roundtrip(tmp_path):
    code = catalog("bacon-shor")
    path = tmp_path / "bs.txt"
    write_code_file(code, path)
    loaded = read_code_file(path)
    assert isinstance(loaded, SubsystemCode) and not isinstance(loaded, StabilizerCode)
    assert loaded.gauge.rows == code.gauge.rows
    assert {v.symbols() for v in loaded.stabilizer.span()} == {
        v.symbols() for v in code.stabilizer.span()
    }


def test_parse_comments_and_blank_lines():
    text = "# header\n\nXZZXI\nIXZZX  # trailing comment\nXIXZZ\nZXIXZ\n"
    code = parse_code_text(text)
    assert code.rows == catalog("five-qubit").rows


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_code_text("XX\nXQ\n")
    with pytest.raises(ParseError):
        parse_code_text("# only comments\n")
    with pytest.raises(ParseError, match="GAUGE"):
        parse_code_text("XX\nGAUGE\nZZ\n")
    with pytest.raises(ParseError, match="line 3: duplicate GAUGE header"):
        parse_code_text("GAUGE\nXX\nGAUGE\nZZ\n")


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(st.text(), st.text(alphabet="IXYZ01ixyz \t#\nGAUGE")))
def test_parsers_raise_only_package_errors(text):
    for parse in (parse_code_text, parse_binary_code_text):
        try:
            parse(text)
        except QDSError:
            pass
