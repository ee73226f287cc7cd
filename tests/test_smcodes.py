"""Binary SM codes: systematic forms, encoders, and the three decoders."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdscodes import f2
from qdscodes.errors import (
    AvailabilityError,
    CapacityError,
    CatalogError,
    DimensionError,
    ParseError,
    RankError,
    StructureError,
)
from qdscodes.gf4 import BitVector
from qdscodes.smcodes import (
    MAX_GENERATED_SIZE,
    BinaryLinearCode,
    coset_leader_decode,
    likelihood_classes,
    majority_decode,
    parse_binary_code_text,
    pattern_cost,
    read_binary_code_file,
    sm_catalog,
    systematize,
    weighted_ml_decode,
    write_binary_code_file,
)


def bv(*bits):
    return BitVector.from_bits(bits)


def row_span_sets(code):
    return {w for w in code.codewords()}


# ----------------------------------------------------------------------
# systematize / encode
# ----------------------------------------------------------------------

def test_systematize_parity_code_gives_all_ones_column():
    code = sm_catalog("parity-4")
    m = code.dim
    for i, row in enumerate(code.systematic_rows):
        assert row & ((1 << m) - 1) == 1 << i  # identity block
        assert row >> m == 1  # parity column
    assert code.column_permutation == tuple(range(5))


def test_systematize_identity_is_trivial():
    code = sm_catalog("identity-4")
    assert code.systematic_rows == code.rows
    assert code.column_permutation == (0, 1, 2, 3)


def test_systematize_random_full_rank_preserves_row_span():
    rng = np.random.default_rng(23)
    while True:
        bits = rng.integers(0, 2, size=(6, 18))
        rows = [sum(int(b) << i for i, b in enumerate(r)) for r in bits]
        if f2.rank(rows) == 6:
            break
    sys_rows, perm = systematize(rows, 18)
    assert sorted(perm) == list(range(18))
    for i, row in enumerate(sys_rows):
        assert row & 0b111111 == 1 << i
    # un-permute and compare spans
    unpermuted = []
    for row in sys_rows:
        orig = 0
        for pos, col in enumerate(perm):
            orig |= ((row >> pos) & 1) << col
        unpermuted.append(orig)
    assert set(row_span_sets(BinaryLinearCode(18, tuple(unpermuted)))) == set(
        row_span_sets(BinaryLinearCode(18, tuple(rows)))
    )


def test_systematize_rejects_rank_deficiency():
    with pytest.raises(RankError):
        systematize([0b11, 0b11], 2)


def test_encode_zero_and_parity():
    parity3 = sm_catalog("parity-3")
    assert parity3.encode(bv(0, 0, 0)).bits == 0
    assert parity3.encode(bv(1, 0, 1)).to_tuple() == (1, 0, 1, 0)
    assert parity3.encode(bv(1, 1, 0)).to_tuple() == (1, 1, 0, 0)
    assert parity3.encode(bv(1, 0, 0)).to_tuple() == (1, 0, 0, 1)


def test_encode_cordaro_wagner_weight_8():
    cw = sm_catalog("cw-12-2-8")
    word = cw.encode(bv(1, 0))
    assert word.weight == 8
    assert word.to_tuple()[:2] == (1, 0)
    with pytest.raises(DimensionError):
        cw.encode(bv(1, 0, 1))


# ----------------------------------------------------------------------
# catalog parameters
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,length,dim,dist,weights",
    [
        ("cw-12-2-8", 12, 2, 8, [8, 8, 8]),
        ("cw-17-2-11", 17, 2, 11, [11, 11, 12]),
        ("cw-18-2-12", 18, 2, 12, [12, 12, 12]),
        ("parity-5", 6, 5, 2, None),
        ("repetition-6", 6, 1, 6, [6]),
        ("identity-3", 3, 3, 1, None),
    ],
)
def test_catalog_parameters(name, length, dim, dist, weights):
    code = sm_catalog(name)
    assert (code.length, code.dim) == (length, dim)
    assert code.minimum_distance() == dist
    if weights is not None:
        assert sorted(w.bit_count() for w in code.codewords() if w) == weights


@pytest.mark.parametrize("kind, extra", [("identity", 0), ("parity", 1), ("repetition", 0)])
def test_generated_sizes_stop_at_the_cap(kind, extra):
    assert sm_catalog(f"{kind}-{MAX_GENERATED_SIZE}").length == MAX_GENERATED_SIZE + extra
    with pytest.raises(CapacityError, match=f"cap of {MAX_GENERATED_SIZE}"):
        sm_catalog(f"{kind}-{MAX_GENERATED_SIZE + 1}")


def test_catalog_unknown_and_import_only():
    with pytest.raises(CatalogError) as info:
        sm_catalog("cw-13-3-7")
    assert isinstance(info.value, KeyError)
    assert str(info.value).startswith("unknown SM code 'cw-13-3-7'; known: ")
    with pytest.raises(AvailabilityError, match="grassl-18-6-8"):
        sm_catalog("grassl-18-6-8", directory=None)


# ----------------------------------------------------------------------
# majority decoding
# ----------------------------------------------------------------------

def test_majority_identical_copies():
    word = bv(1, 0, 1)
    out = majority_decode([word] * 6)
    assert out.message == word and out.success


def test_majority_tie_is_failure():
    blocks = [bv(1), bv(1), bv(1), bv(0), bv(0), bv(0)]
    out = majority_decode(blocks)
    assert not out.success


def test_majority_wrong_bit_decoded():
    blocks = [bv(1)] * 4 + [bv(0)] * 2  # 4-of-6 flips relative to the true 0
    out = majority_decode(blocks)
    assert out.success  # no tie: the decoder commits...
    assert out.message == bv(1)  # ...to the wrong bit


def test_majority_failure_probability_matches_binomial_sums():
    # per-bit failure under iid flips q: P[Bin >= ceil((l+1)/2)] + P[Bin = l/2] (even l)
    rng = np.random.default_rng(29)
    for fold in (2, 3, 4, 5, 6, 7):
        for q in (0.05, 0.2, 0.45):
            expected = sum(
                math.comb(fold, c) * q**c * (1 - q) ** (fold - c)
                for c in range(math.ceil((fold + 1) / 2), fold + 1)
            )
            if fold % 2 == 0:
                expected += math.comb(fold, fold // 2) * q ** (fold // 2) * (1 - q) ** (fold // 2)
            # exhaustive check over all flip patterns of one bit
            total = 0.0
            for pattern in range(1 << fold):
                ones = pattern.bit_count()
                out = majority_decode([bv(int(pattern >> i) & 1) for i in range(fold)])
                if not out.success or out.message.bits != 0:
                    total += q**ones * (1 - q) ** (fold - ones)
            assert total == pytest.approx(expected, abs=1e-12)


# ----------------------------------------------------------------------
# coset-leader decoding
# ----------------------------------------------------------------------

def test_coset_leader_identity_on_codewords():
    cw = sm_catalog("cw-12-2-8")
    for msg in ([0, 0], [0, 1], [1, 0], [1, 1]):
        out = coset_leader_decode(cw, cw.encode(BitVector.from_bits(msg)))
        assert out.message.to_tuple() == tuple(msg) and out.success


@pytest.mark.parametrize("name", ["cw-12-2-8", "cw-17-2-11", "cw-18-2-12"])
def test_coset_leader_corrects_up_to_half_distance(name):
    code = sm_catalog(name)
    t = (code.minimum_distance() - 1) // 2
    patterns = [e for e in range(1 << code.length) if e.bit_count() <= t]
    for msg in ([0, 0], [1, 0], [0, 1], [1, 1]):
        sent = code.encode(BitVector.from_bits(msg))
        for e in patterns:
            out = coset_leader_decode(code, BitVector(code.length, sent.bits ^ e))
            assert out.success and out.message.to_tuple() == tuple(msg)


def test_coset_leader_weight4_inside_codeword_support_fails():
    cw = sm_catalog("cw-12-2-8")
    support = [i for i in range(12) if (cw.systematic_rows[0] >> i) & 1]
    e = sum(1 << i for i in support[:4])
    out = coset_leader_decode(cw, BitVector(12, e))
    assert not out.success  # tied coset: e and e ^ c1 both have weight 4


def test_coset_leader_table_weight_distribution():
    # frozen from exhaustive coset enumeration of the [12,2,8] code
    cw = sm_catalog("cw-12-2-8")
    leader, minwt, mult = cw.coset_table
    dist = np.bincount(np.bitwise_count(leader))
    assert dist.tolist() == [1, 12, 66, 220, 391, 280, 54]
    uniq = np.bincount(np.bitwise_count(leader[mult == 1]), minlength=7)
    assert uniq.tolist() == [1, 12, 66, 220, 288, 0, 0]
    assert np.array_equal(minwt, np.bitwise_count(leader))


def test_coset_leader_capacity_limit():
    big = BinaryLinearCode(26, (sum(1 << i for i in range(26)),))
    with pytest.raises(CapacityError):
        coset_leader_decode(big, BitVector(26, 0))


# ----------------------------------------------------------------------
# weighted ML decoding
# ----------------------------------------------------------------------

@st.composite
def systematic_codes(draw):
    """A random systematic [n, k] code with n <= 9."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 9))
    columns = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n - k, max_size=n - k))
    rows = tuple(
        (1 << i) | sum(((col >> i) & 1) << (k + j) for j, col in enumerate(columns))
        for i in range(k)
    )
    return BinaryLinearCode(n, rows)


@settings(max_examples=100, deadline=None)
@given(code=systematic_codes(),
       p=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
@example(code=sm_catalog("cw-12-2-8"), p=0.1)
@example(code=BinaryLinearCode(2, (1,)), p=5e-324)  # (1 - p) / p overflows
def test_weighted_ml_agrees_with_coset_leader_on_unique_cosets(code, p):
    # uniform flips make weighted ML minimum-weight decoding, ties included
    n = code.length
    _, _, mult = code.coset_table
    probs = [p] * n
    for word in range(1 << n):
        received = BitVector(n, word)
        cl = coset_leader_decode(code, received)
        ml = weighted_ml_decode(code, received, probs)
        if mult[code.word_syndrome(word)] == 1:
            assert cl.success and ml.success and cl.message == ml.message
        else:
            assert not cl.success and not ml.success


def test_weighted_ml_identity_on_codewords():
    cw = sm_catalog("cw-12-2-8")
    probs = [0.3] * 12
    for msg in ([0, 0], [1, 1]):
        out = weighted_ml_decode(cw, cw.encode(BitVector.from_bits(msg)), probs)
        assert out.success and out.message.to_tuple() == tuple(msg)


def test_weighted_ml_prefers_flipping_unreliable_bits():
    # one very noisy position: ML blames it rather than three reliable ones
    cw = sm_catalog("cw-12-2-8")
    probs = [0.4] + [0.01] * 11
    c1 = cw.systematic_rows[0]
    # received = c1 with its bit-0 cleared: either bit 0 flipped (likely)
    # or the other 7 support bits of c1 flipped (absurd)
    received = BitVector(12, c1 ^ 1)
    out = weighted_ml_decode(cw, received, probs)
    assert out.success and out.message.to_tuple() == (1, 0)
    # with the noisy position made reliable the same word still decodes the
    # same way (7 flips remain worse than 1), and the likelihoods differ
    out2 = weighted_ml_decode(cw, received, [0.01] * 12)
    assert out2.message.to_tuple() == (1, 0)


def test_weighted_ml_certain_flips_make_no_false_tie():
    # codeword 0b000011 lies on the two certain flips: the received word
    # 0b000011 is explained only by flipping both, every other coset member
    # leaves a certain flip unflipped and has probability zero
    code = BinaryLinearCode(6, (0b111101, 0b111110))
    probs = [1.0, 1.0, 0.1, 0.1, 0.1, 0.1]
    out = weighted_ml_decode(code, BitVector(6, 0b000011), probs)
    assert out.success and out.message.bits == 0
    assert pattern_cost((1, 4), (2, 4), likelihood_classes(probs)[0]) == math.inf


def test_pattern_cost_of_impossible_patterns_is_infinite():
    lam = [math.inf, -math.inf, 2.0]
    sizes = (3, 2, 4)
    assert pattern_cost((0, 2, 1), sizes, lam) == 2.0
    assert pattern_cost((1, 2, 1), sizes, lam) == math.inf  # flips a never-flip bit
    assert pattern_cost((0, 1, 1), sizes, lam) == math.inf  # misses a certain flip
    assert pattern_cost((0, 2, 0), sizes, lam) == 0.0


def test_weighted_ml_hamming_minimization_with_uniform_probs():
    cw = sm_catalog("cw-12-2-8")
    rng = np.random.default_rng(31)
    codewords = cw.codewords()
    for _ in range(200):
        word = int(rng.integers(0, 1 << 12))
        out = weighted_ml_decode(cw, BitVector(12, word), [0.2] * 12)
        decoded = next(c for c in codewords if c & 0b11 == out.message.bits)
        best = min((word ^ c).bit_count() for c in codewords)
        assert (word ^ decoded).bit_count() == best


def test_weighted_ml_rejects_bad_probabilities():
    cw = sm_catalog("cw-12-2-8")
    from qdscodes.errors import PreconditionError

    with pytest.raises(PreconditionError):
        weighted_ml_decode(cw, BitVector(12, 0), [1.5] * 12)
    with pytest.raises(DimensionError):
        weighted_ml_decode(cw, BitVector(12, 0), [0.1] * 11)


# ----------------------------------------------------------------------
# files and imports
# ----------------------------------------------------------------------

def test_binary_file_roundtrip(tmp_path):
    cw = sm_catalog("cw-17-2-11")
    path = tmp_path / "cw.txt"
    write_binary_code_file(cw, path, comment="cordaro-wagner")
    loaded = read_binary_code_file(path)
    assert loaded.rows == cw.rows and loaded.length == cw.length


def test_binary_parse_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_binary_code_text("1010\n10x0\n")
    with pytest.raises(ParseError):
        parse_binary_code_text("# nothing\n")


def test_import_pathway(tmp_path, monkeypatch):
    # a toy file exercising the QDS_DATA_DIR resolution and validation
    target = tmp_path / "grassl-18-6-8.txt"
    monkeypatch.setenv("QDS_DATA_DIR", str(tmp_path))
    with pytest.raises(AvailabilityError):
        sm_catalog("grassl-18-6-8")  # file not there yet
    target.write_text("\n".join("1" * 18 for _ in range(1)) + "\n")
    with pytest.raises(StructureError):  # wrong dimensions
        sm_catalog("grassl-18-6-8")
    # wrong distance: [18,6] but not distance 8
    rows = []
    for i in range(6):
        bits = ["0"] * 18
        bits[i] = "1"
        rows.append("".join(bits))
    target.write_text("\n".join(rows) + "\n")
    with pytest.raises(StructureError, match="distance"):
        sm_catalog("grassl-18-6-8")


def test_import_error_names_expected_location(tmp_path):
    with pytest.raises(AvailabilityError, match="grassl-25-6-11.txt"):
        sm_catalog("grassl-25-6-11", directory=tmp_path)
    with pytest.raises(StructureError, match=r"\[25,6\]"):
        write_binary_code_file(sm_catalog("cw-18-2-12"), tmp_path / "grassl-25-6-11.txt")
        sm_catalog("grassl-25-6-11", directory=tmp_path)
