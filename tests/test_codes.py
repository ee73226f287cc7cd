"""Stabilizer/subsystem code objects, distances, purity, and the catalog."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdscodes.codes import (
    AdditiveCode,
    StabilizerCode,
    SubsystemCode,
    catalog,
    catalog_names,
    errors_of_weight,
    is_impure,
    make_stabilizer,
    make_subsystem,
    min_distance,
    parse_code_text,
    read_code_file,
    write_code_file,
)
from qdscodes.errors import (
    CommutationError,
    CatalogError,
    ParseError,
    QDSError,
    RankError,
    StructureError,
)
from qdscodes.gf4 import F4Vector, pauli_string_parse, syndrome, trace_inner_product
from qdscodes.smcodes import parse_binary_code_text

STABILIZER_PARAMS = {
    # name -> (n, k, d, impure)
    "five-qubit": (5, 1, 3, False),
    "steane": (7, 1, 3, False),
    "shor": (9, 1, 3, True),
    "example-6-1-3": (6, 1, 3, True),
    "example-6-1-3-prime": (6, 1, 3, True),
    "8-3-3": (8, 3, 3, False),
}


def brute_force_distance(code, max_weight=3):
    """Direct enumeration oracle: no early exit, membership by span listing."""
    if isinstance(code, SubsystemCode):
        excluded = {v.symbols() for v in code.gauge.span()}
    else:
        excluded = {v.symbols() for v in code.code.span()}
    found = []
    for w in range(1, max_weight + 1):
        for e in errors_of_weight(code.n, w):
            if all(trace_inner_product(g, e) == 0 for g in code.rows):
                if e.symbols() not in excluded:
                    found.append(w)
    return min(found)


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
    for v in code.code.span():
        assert syndrome(code.rows, v).bits == 0


def test_catalog_distances_match_brute_force_oracle():
    for name in ("five-qubit", "example-6-1-3", "steane", "shor"):
        code = catalog(name)
        assert brute_force_distance(code) == min_distance(code)
    bs = catalog("bacon-shor")
    assert brute_force_distance(bs) == min_distance(bs) == 3


def test_catalog_unknown_name():
    with pytest.raises(CatalogError):
        catalog("no-such-code")
    assert {"shor", "bacon-shor", "steane", "five-qubit", "example-6-1-3", "8-3-3"} <= set(
        catalog_names()
    )


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
    assert isinstance(bs, SubsystemCode)
    assert (bs.n, bs.k, bs.r, bs.m) == (9, 1, 4, 8)
    assert len(bs.gauge.rows) == 12
    assert all(g.weight == 2 for g in bs.gauge.rows)
    assert [s.weight for s in bs.rows] == [6, 6, 6, 6]
    assert min_distance(bs) == 3


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
    five = catalog("five-qubit")
    sub = make_subsystem(five.rows)
    assert (sub.r, sub.k, sub.m) == (0, five.k, five.m)
    assert {v.symbols() for v in sub.stabilizer.span()} == {
        v.symbols() for v in five.code.span()
    }
    assert min_distance(sub) == min_distance(five)


def test_make_subsystem_rejects_bad_stabilizer_presentation():
    bs_gauge = catalog("bacon-shor").gauge.rows
    with pytest.raises(StructureError):
        make_subsystem(bs_gauge, [pauli_string_parse("XXXXXXIII")])


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
        direct = any(0 < v.weight < d for v in code.code.span())
        assert direct == impure == is_impure(code, d)


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
    assert isinstance(loaded, SubsystemCode)
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


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(st.text(), st.text(alphabet="IXYZ01ixyz \t#\nGAUGE")))
def test_parsers_raise_only_package_errors(text):
    for parse in (parse_code_text, parse_binary_code_text):
        try:
            parse(text)
        except QDSError:
            pass
