"""QDS assembly, extended syndromes, distances, and the constructions."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdscodes import codes
from qdscodes.bounds import impure_bound, qds_hamming_d3
from qdscodes.codes import (
    SubsystemCode,
    catalog,
    make_stabilizer,
    min_distance,
)
from qdscodes.errors import (
    CapacityError,
    ConstructionFailureError,
    DimensionError,
    ParseError,
    PreconditionError,
)
from qdscodes.f2 import Basis
from qdscodes.gf4 import (
    BitVector,
    F4Vector,
    pauli_string_parse,
    star_inner_product,
    syndrome,
    trace_inner_product,
)
from qdscodes.qds import (
    Conjugate,
    Permute,
    QDSCode,
    Scale,
    augment_parity,
    build_qds,
    equivalence_apply,
    extended_syndrome,
    identity_qds,
    impure_zero_redundancy,
    qds_min_distance,
    qds_params,
    single_symbol_errors,
)
from qdscodes.smcodes import BinaryLinearCode, sm_catalog

DISTANCE_3_CATALOG = ["five-qubit", "steane", "shor", "example-6-1-3", "8-3-3", "bacon-shor"]


def random_error(rng, n):
    return F4Vector.from_symbols(rng.integers(0, 4, size=n).tolist())


# ----------------------------------------------------------------------
# assembly and extended syndromes
# ----------------------------------------------------------------------

def test_identity_sm_measures_exactly_the_rows():
    code = catalog("steane")
    qds = identity_qds(code)
    assert qds.measured == code.rows
    assert qds.l == 0


def test_shor_x_part_with_cw_code_all_weight_6():
    shor = catalog("shor")
    x_part = make_stabilizer(shor.rows[:2])
    qds = build_qds(x_part, sm_catalog("cw-12-2-8"))
    assert len(qds.measured) == 12
    assert qds.weights == (6,) * 12


def test_build_rejects_dimension_mismatch():
    with pytest.raises(DimensionError):
        build_qds(catalog("steane"), sm_catalog("cw-12-2-8"))


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: extended_syndrome(identity_qds(catalog("steane")), F4Vector.zero(6)),
                 DimensionError, "error length 6 != code length 7", id="error-length"),
    pytest.param(lambda: equivalence_apply([F4Vector.zero(2)], Conjugate(5)), DimensionError,
                 r"coordinate 5 outside \[0, 2\)", id="coordinate"),
    pytest.param(lambda: Scale(0, 1), ParseError, "got 1", id="scale-factor"),
])
def test_input_checks_raise_their_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_extended_syndrome_zero_error():
    qds = augment_parity(catalog("five-qubit"))
    assert extended_syndrome(qds, F4Vector.zero(5)).weight == 0


@pytest.mark.parametrize("name", ["five-qubit", "example-6-1-3", "bacon-shor"])
def test_extended_syndrome_vanishes_on_span(name):
    base = catalog(name)
    qds = augment_parity(base)
    members = base.gauge.span() if name == "bacon-shor" else base.code.span()
    for v in members:
        assert extended_syndrome(qds, v).weight == 0


def random_sm_code(m: int, redundancy: int, seed: int) -> BinaryLinearCode:
    """A seeded random systematic [m + redundancy, m] SM code."""
    columns = np.random.default_rng(seed).integers(0, 1 << m, size=redundancy).tolist()
    rows = tuple((1 << i) | sum(((col >> i) & 1) << (m + j) for j, col in enumerate(columns))
                 for i in range(m))
    return BinaryLinearCode(m + redundancy, rows)


def test_extended_syndrome_tail_consistency():
    rng = np.random.default_rng(41)
    for name, sm in (("steane", sm_catalog("parity-6")),
                     ("steane", random_sm_code(6, 9, seed=1)),
                     ("shor", random_sm_code(8, 5, seed=2)),
                     ("bacon-shor", random_sm_code(4, 7, seed=3))):
        base = catalog(name)
        m = len(base.rows)
        qds = build_qds(base, sm)
        # every measured element is a stabilizer element
        stabilizer = base.stabilizer if isinstance(base, SubsystemCode) else base.code
        assert all(stabilizer.member(b) for b in qds.measured)
        # bits beyond m are the A-combinations of the first m bits
        for _ in range(50):
            e = random_error(rng, base.n)
            ext = extended_syndrome(qds, e)
            s = syndrome(base.rows, e)
            assert ext.to_tuple()[:m] == s.to_tuple()
            for j in range(qds.l):
                expected = bin(sm.a_column(j) & s.bits).count("1") & 1
                assert ext.bit(m + j) == expected


# ----------------------------------------------------------------------
# dual characterization oracle (toy codes, n <= 4)
# ----------------------------------------------------------------------

def brute_force_star_dual(qds: QDSCode) -> set:
    """All hybrid vectors star-orthogonal to every row of the joint
    generator matrix [G_C I_m 0; 0 A I_l]."""
    n, m, l = qds.n, qds.m, qds.l
    ghat = []
    for i, g in enumerate(qds.base.rows):
        ghat.append((g, BitVector(m + l, 1 << i)))
    for j in range(l):
        tail = qds.sm.a_column(j) | (1 << (m + j))
        ghat.append((F4Vector.zero(n), BitVector(m + l, tail)))
    dual = set()
    for symbols in itertools.product(range(4), repeat=n):
        v = F4Vector.from_symbols(symbols)
        for tail_bits in range(1 << (m + l)):
            tail = BitVector(m + l, tail_bits)
            if all(star_inner_product((v, tail), row) == 0 for row in ghat):
                dual.add((symbols, tail_bits))
    return dual


def characterized_dual(qds: QDSCode) -> set:
    return {
        (e.symbols(), extended_syndrome(qds, e).bits)
        for e in (
            F4Vector.from_symbols(s) for s in itertools.product(range(4), repeat=qds.n)
        )
    }


@pytest.mark.parametrize(
    "rows,sm_name",
    [
        (("ZZ",), "identity-1"),
        (("ZZI", "IZZ"), "parity-2"),
        (("XXXX", "ZZZZ"), "parity-2"),
    ],
)
def test_dual_characterization_on_toy_codes(rows, sm_name):
    base = make_stabilizer(pauli_string_parse(r) for r in rows)
    qds = build_qds(base, sm_catalog(sm_name))
    assert brute_force_star_dual(qds) == characterized_dual(qds)


# ----------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------

def test_example_g_prime_is_qds_distance_3():
    assert qds_min_distance(identity_qds(catalog("example-6-1-3-prime"))) == 3


def test_example_g_original_rows_fail():
    # the standard generator choice leaves a weight-1 syndrome: distance 2
    assert qds_min_distance(identity_qds(catalog("example-6-1-3"))) == 2


def test_five_qubit_identity_sm_distance_below_3():
    # perfect code: no syndromes are free for measurement errors
    assert qds_min_distance(identity_qds(catalog("five-qubit"))) < 3


def test_five_qubit_parity_augmented_distance_3():
    assert qds_min_distance(augment_parity(catalog("five-qubit"))) == 3


def test_qds_distance_upper_bounded_by_base_distance():
    for name in DISTANCE_3_CATALOG:
        assert qds_min_distance(identity_qds(catalog(name))) <= 3


def test_distance_searches_share_the_length_cap():
    bs25 = codes.bacon_shor(5)
    assert bs25.n == 25
    with pytest.raises(CapacityError, match=r"n=25 exceeds the enumeration cap n<=16"):
        min_distance(bs25)
    with pytest.raises(CapacityError, match=r"n=25 exceeds the enumeration cap n<=16"):
        qds_min_distance(identity_qds(bs25))
    chain17 = make_stabilizer(F4Vector(17, 0, 3 << j) for j in range(16))
    with pytest.raises(CapacityError, match=r"n=17 exceeds the enumeration cap n<=16"):
        min_distance(chain17)
    with pytest.raises(CapacityError, match=r"n=17 exceeds the enumeration cap n<=16"):
        qds_min_distance(identity_qds(chain17))


@pytest.mark.parametrize("name", ["steane", "bacon-shor"])
def test_qds_distance_with_an_sm_code_longer_than_64_bits(name):
    # [m + 64, m]: the first 56 redundant columns name generators 0..m-2 in
    # turn and the last 8 name generator m-1, so behind the membership bits
    # generator m-1's redundant bits lie wholly in the second uint64 limb; every
    # nonzero syndrome costs at least 9 flips, so the weight-3 logicals (total 3)
    # win.  bacon-shor's search excludes its gauge group.
    base = catalog(name)
    m = len(base.rows)
    owner = [j % (m - 1) for j in range(56)] + [m - 1] * 8
    rows = tuple((1 << i) | sum(1 << (m + j) for j in range(64) if owner[j] == i) for i in range(m))
    qds = build_qds(base, BinaryLinearCode(m + 64, rows))
    excluded = base.gauge if isinstance(base, SubsystemCode) else base.code
    members = {v.symbols() for v in excluded.span()}
    # weight-w errors total at least w, so weights <= 3 settle a minimum of 3
    errors = (
        F4Vector.from_symbols([dict(zip(support, values)).get(j, 0) for j in range(base.n)])
        for w in (1, 2, 3)
        for support in itertools.combinations(range(base.n), w)
        for values in itertools.product((1, 2, 3), repeat=w)
    )
    direct = min(
        e.weight + extended_syndrome(qds, e).weight for e in errors if e.symbols() not in members
    )
    assert qds_min_distance(qds) == direct == 3


def test_distance_searches_keep_no_per_syndrome_table(monkeypatch):
    # an XX chain on 25 qubits has m = 24 syndrome bits and a weight-1 logical X;
    # a table over all 2^24 syndromes would take tens of MB
    monkeypatch.setattr(codes, "MAX_N", 25)
    chain = make_stabilizer(F4Vector(25, 3 << j, 0) for j in range(24))
    for search in (min_distance, lambda code: qds_min_distance(identity_qds(code))):
        tracemalloc.start()
        try:
            assert search(chain) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


# ----------------------------------------------------------------------
# parity augmentation of distance-3 codes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", DISTANCE_3_CATALOG)
def test_parity_augmentation_distance_and_even_syndromes(name):
    base = catalog(name)
    qds = augment_parity(base)
    assert qds.l == 1
    assert qds_min_distance(qds) >= 3
    # the extra measured element is the product of all generators
    total = base.rows[0]
    for row in base.rows[1:]:
        total = total + row
    assert qds.measured[-1] == total
    for e in single_symbol_errors(base.n):
        assert extended_syndrome(qds, e).weight % 2 == 0


def test_parity_augmentation_params():
    assert str(qds_params(augment_parity(catalog("five-qubit")))) == "[[5,1,3:1]]"
    assert str(qds_params(augment_parity(catalog("bacon-shor")))) == "[[9,1,4,3:1]]"
    assert str(qds_params(augment_parity(catalog("steane")))) == "[[7,1,3:1]]"


def test_parity_augmentation_requires_distance_3():
    code_422 = make_stabilizer([pauli_string_parse("XXXX"), pauli_string_parse("ZZZZ")])
    with pytest.raises(PreconditionError):
        augment_parity(code_422)


# ----------------------------------------------------------------------
# impure zero-redundancy generator search
# ----------------------------------------------------------------------

def test_reference_witness_reproduces_g_prime():
    g = catalog("example-6-1-3")
    total = g.rows[0]
    for row in g.rows[1:]:
        total = total + row
    reference_rows = (total, g.rows[1], g.rows[2], g.rows[3] + g.rows[0], g.rows[4] + g.rows[0])
    assert reference_rows == catalog("example-6-1-3-prime").rows
    assert qds_min_distance(identity_qds(make_stabilizer(reference_rows))) == 3


def test_search_on_example_code_finds_reference_witness():
    result = impure_zero_redundancy(catalog("example-6-1-3"))
    assert result.pivot == catalog("example-6-1-3").rows[0]
    assert result.modifier.to_tuple() == (0, 0, 0, 1, 1)  # add g1 to rows 4 and 5
    assert result.rows == catalog("example-6-1-3-prime").rows
    verified = make_stabilizer(result.rows)
    assert qds_min_distance(identity_qds(verified)) == 3


def test_search_on_shor_code():
    result = impure_zero_redundancy(catalog("shor"))
    code = make_stabilizer(result.rows)
    assert (code.n, code.k) == (9, 1)
    assert qds_min_distance(identity_qds(code)) == 3


def test_search_rejects_pure_codes():
    for name in ("five-qubit", "steane", "8-3-3"):
        with pytest.raises(PreconditionError, match="pure"):
            impure_zero_redundancy(catalog(name))


def test_search_weight_1_pivot_case():
    # five-qubit code extended by an unentangled qubit stabilized by Z:
    # an impure [[6,1,3]] with a weight-1 stabilizer element and m = 5
    rows = [pauli_string_parse(s + "I") for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
    rows.append(pauli_string_parse("IIIIIZ"))
    base = make_stabilizer(rows)
    result = impure_zero_redundancy(base)
    assert result.pivot.weight == 1
    assert qds_min_distance(identity_qds(make_stabilizer(result.rows))) == 3


def test_search_reports_a_defect_when_an_accepted_string_misses_distance_3(monkeypatch):
    # the weight-1 test fixes the QDS distance at 3, so the first string that
    # passes it is returned or, if its distance search disagrees, is a defect
    searches = []

    def wrong(code):
        searches.append(code)
        return 2

    monkeypatch.setattr("qdscodes.qds.qds_min_distance", wrong)
    with pytest.raises(ConstructionFailureError, match="pivot IIIZIZ with string 00011"):
        impure_zero_redundancy(catalog("example-6-1-3"))
    assert len(searches) == 1


def test_search_examines_linearly_many_strings():
    for name in ("example-6-1-3", "shor"):
        result = impure_zero_redundancy(catalog(name))
        m = catalog(name).m
        assert result.strings_examined <= 2 * m + 2


def test_search_output_preserves_span_and_rank():
    base = catalog("example-6-1-3")
    result = impure_zero_redundancy(base)
    for row in result.rows:
        assert base.code.member(row)
    assert make_stabilizer(result.rows).m == base.m


def test_search_tries_other_completions_when_the_input_rows_fail():
    # an impure [[6,1,3]] code whose one pivot, IZIIIZ, completed by the input
    # rows, fails under all 16 even strings; another completion succeeds
    rows = [pauli_string_parse(s) for s in ("IZIIIZ", "ZXXXIY", "YYIZXX", "XZYZII", "XYIXZY")]
    base = make_stabilizer(rows)
    result = impure_zero_redundancy(base)
    assert str(result.pivot) == "IZIIIZ"
    assert result.pivots_tried > 1 and result.strings_examined > 16
    assert str(qds_params(identity_qds(make_stabilizer(result.rows)))) == "[[6,1,3:0]]"
    assert all(base.code.member(row) for row in result.rows)


# (n, k) where random codes with a ZZ row reach d = 3 within a few hundred draws
IMPURE_PARAMS = [(6, 1), (7, 1), (8, 1), (9, 1), (9, 2), (10, 1), (10, 2),
                 (11, 1), (11, 2), (11, 3), (12, 1), (12, 2), (12, 3)]


def random_impure_code(n, k, seed, draws=3000):
    """A random [[n,k,3]] code with a ZZ generator (so impure), or None: seeded
    random commuting, independent rows are added to ZZ until there are n - k,
    and the first draw whose distance is 3 is kept."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        i, j = rng.choice(n, 2, replace=False).tolist()
        rows = [F4Vector(n, 0, (1 << i) | (1 << j))]
        basis = Basis([rows[0].bit_expansion()])
        while len(rows) < n - k:
            v = F4Vector(n, *rng.integers(0, 1 << n, size=2).tolist())
            if all(trace_inner_product(v, r) == 0 for r in rows) and basis.add(v.bit_expansion()):
                rows.append(v)
        code = make_stabilizer(rows)
        if min_distance(code) == 3:
            return code
    return None


@settings(max_examples=25, deadline=None)
@given(params=st.sampled_from(IMPURE_PARAMS), seed=st.integers(0, 2**32 - 1))
@example(params=(6, 1), seed=5)  # the input rows fail there; see the test above
def test_impure_construction_on_random_codes(params, seed):
    n, k = params
    base = random_impure_code(n, k, seed)
    assume(base is not None)
    assert codes.is_impure(base, 3)
    result = impure_zero_redundancy(base)
    found = make_stabilizer(result.rows)
    assert str(qds_params(identity_qds(found))) == f"[[{n},{k},3:0]]"
    assert all(base.code.member(row) for row in result.rows)
    assert found.m == base.m
    assert impure_bound(n, k) and qds_hamming_d3(n, k)


# ----------------------------------------------------------------------
# local equivalence moves
# ----------------------------------------------------------------------

def test_identity_permutation_is_noop():
    rows = catalog("example-6-1-3-prime").rows
    assert equivalence_apply(rows, Permute(tuple(range(6)))) == rows


def test_scaling_three_times_is_identity():
    rows = catalog("example-6-1-3-prime").rows
    once = equivalence_apply(rows, Scale(2, 2))
    thrice = equivalence_apply(equivalence_apply(once, Scale(2, 2)), Scale(2, 2))
    assert thrice == rows


def test_conjugation_preserves_qds_property():
    rows = catalog("example-6-1-3-prime").rows
    for coord in range(6):
        moved = equivalence_apply(rows, Conjugate(coord))
        assert qds_min_distance(identity_qds(make_stabilizer(moved))) == 3


def test_moves_preserve_single_error_syndrome_multiset():
    rng = np.random.default_rng(43)
    rows = catalog("example-6-1-3-prime").rows
    errors = single_symbol_errors(6)

    def syndrome_multiset(rs):
        return sorted(syndrome(rs, e).bits for e in errors)

    reference = syndrome_multiset(rows)
    current = rows
    for _ in range(30):
        kind = rng.integers(0, 3)
        if kind == 0:
            move = Permute(tuple(rng.permutation(6).tolist()))
        elif kind == 1:
            move = Scale(int(rng.integers(0, 6)), int(rng.integers(2, 4)))
        else:
            move = Conjugate(int(rng.integers(0, 6)))
        current = equivalence_apply(current, move)
        assert syndrome_multiset(current) == reference


def test_random_move_chain_preserves_qds_verification():
    rng = np.random.default_rng(47)
    current = catalog("example-6-1-3-prime").rows
    for _ in range(100):
        kind = rng.integers(0, 3)
        if kind == 0:
            move = Permute(tuple(rng.permutation(6).tolist()))
        elif kind == 1:
            move = Scale(int(rng.integers(0, 6)), int(rng.integers(2, 4)))
        else:
            move = Conjugate(int(rng.integers(0, 6)))
        current = equivalence_apply(current, move)
        code = make_stabilizer(current)
        assert (code.n, code.k) == (6, 1)
        assert qds_min_distance(identity_qds(code)) == 3
