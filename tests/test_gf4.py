"""Field arithmetic, inner products, and the Pauli correspondence."""

import numpy as np
import pytest

from qdscodes import gf4
from qdscodes.errors import DimensionError, ParseError
from qdscodes.gf4 import (
    OMEGA,
    OMEGA2,
    BitVector,
    F4Vector,
    f2_rank,
    f4_add,
    f4_conj,
    f4_mul,
    f4_trace,
    pauli_string_parse,
    pauli_string_render,
    star_inner_product,
    syndrome,
    trace_inner_product,
)

W, W2 = OMEGA, OMEGA2


def trace_inner_product_oracle(u, v):
    """Field-arithmetic definition, independent of the packed implementation."""
    acc = 0
    for a, b in zip(u.symbols(), v.symbols()):
        acc = f4_add(acc, f4_mul(a, f4_conj(b)))
    return f4_trace(acc)


def random_vector(rng, n):
    return F4Vector.from_symbols(rng.integers(0, 4, size=n).tolist())


# ----------------------------------------------------------------------
# element arithmetic
# ----------------------------------------------------------------------

def test_omega_square_is_omega_plus_one():
    assert f4_mul(W, W) == f4_add(W, 1) == W2


def test_multiplication_table_field_axioms():
    elems = range(4)
    for a in elems:
        assert f4_mul(a, 1) == a
        assert f4_mul(a, 0) == 0
        for b in elems:
            assert f4_mul(a, b) == f4_mul(b, a)
            for c in elems:
                assert f4_mul(a, f4_mul(b, c)) == f4_mul(f4_mul(a, b), c)
                assert f4_mul(a, f4_add(b, c)) == f4_add(f4_mul(a, b), f4_mul(a, c))
    # nonzero elements form a group of order 3: a^3 = 1
    for a in (1, W, W2):
        assert f4_mul(a, f4_mul(a, a)) == 1
        assert any(f4_mul(a, b) == 1 for b in (1, W, W2))


def test_conjugation_fixes_01_and_swaps_omegas():
    assert [f4_conj(v) for v in range(4)] == [0, 1, W2, W]
    for a in range(4):
        for b in range(4):
            assert f4_conj(f4_mul(a, b)) == f4_mul(f4_conj(a), f4_conj(b))


def test_trace_values():
    assert [f4_trace(v) for v in range(4)] == [0, 0, 1, 1]
    for v in range(4):
        assert f4_trace(v) == f4_add(v, f4_mul(v, v))  # Tr(v) = v + v^2


# ----------------------------------------------------------------------
# vectors
# ----------------------------------------------------------------------

def test_vector_roundtrip_and_weight():
    v = F4Vector.from_symbols([0, 1, W, W2])
    assert v.symbols() == (0, 1, W, W2)
    assert v.weight == 3
    assert F4Vector.zero(5).weight == 0


def test_single_places_symbol():
    v = F4Vector.single(6, 3, 1)
    assert v.symbols() == (0, 0, 0, 1, 0, 0)
    with pytest.raises(DimensionError):
        F4Vector.single(6, 6, 1)


def test_scale_matches_per_symbol_multiplication():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = random_vector(rng, 9)
        for lam in (1, W, W2):
            scaled = v.scale(lam)
            assert scaled.symbols() == tuple(f4_mul(lam, s) for s in v.symbols())
    # scaling by omega three times is the identity
    v = random_vector(rng, 9)
    assert v.scale(W).scale(W).scale(W) == v


def test_conjugate_matches_per_symbol_conjugation():
    rng = np.random.default_rng(8)
    v = random_vector(rng, 11)
    assert v.conjugate().symbols() == tuple(f4_conj(s) for s in v.symbols())
    assert v.conjugate().conjugate() == v


def test_addition_is_symbolwise():
    rng = np.random.default_rng(9)
    u, v = random_vector(rng, 8), random_vector(rng, 8)
    assert (u + v).symbols() == tuple(f4_add(a, b) for a, b in zip(u.symbols(), v.symbols()))
    with pytest.raises(DimensionError):
        u + F4Vector.zero(7)


def test_weight_properties():
    rng = np.random.default_rng(10)
    for _ in range(100):
        u, v = random_vector(rng, 10), random_vector(rng, 10)
        assert (u + v).weight <= u.weight + v.weight
        for lam in (1, W, W2):
            assert u.scale(lam).weight == u.weight


# ----------------------------------------------------------------------
# trace inner product
# ----------------------------------------------------------------------

def test_trace_inner_product_single_qubit_examples():
    X, Z = F4Vector.from_symbols([1]), F4Vector.from_symbols([W])
    assert trace_inner_product(X, Z) == 1  # X vs Z anticommute
    assert trace_inner_product(Z, Z) == 0
    XX = F4Vector.from_symbols([1, 1])
    ZZ = F4Vector.from_symbols([W, W])
    assert trace_inner_product(XX, ZZ) == 0  # two anticommuting coordinates cancel


def test_trace_inner_product_against_field_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        u, v = random_vector(rng, n), random_vector(rng, n)
        assert trace_inner_product(u, v) == trace_inner_product_oracle(u, v)


def test_trace_inner_product_symmetric_bilinear():
    rng = np.random.default_rng(12)
    for _ in range(100):
        u, v, w = (random_vector(rng, 7) for _ in range(3))
        assert trace_inner_product(u, v) == trace_inner_product(v, u)
        assert trace_inner_product(u + w, v) == trace_inner_product(u, v) ^ trace_inner_product(w, v)


def test_trace_inner_product_local_equivalence_invariance():
    # scaling or conjugating the same coordinate of both arguments preserves u*v
    rng = np.random.default_rng(13)
    for _ in range(100):
        u, v = random_vector(rng, 6), random_vector(rng, 6)
        coord = int(rng.integers(0, 6))
        base = trace_inner_product(u, v)
        for lam in (W, W2):
            assert trace_inner_product(u.scale_at(coord, lam), v.scale_at(coord, lam)) == base
        assert trace_inner_product(u.conjugate_at(coord), v.conjugate_at(coord)) == base


def test_trace_inner_product_length_mismatch():
    with pytest.raises(DimensionError):
        trace_inner_product(F4Vector.zero(3), F4Vector.zero(4))


# ----------------------------------------------------------------------
# star inner product
# ----------------------------------------------------------------------

def test_star_reduces_to_trace_on_empty_tail():
    rng = np.random.default_rng(14)
    empty = BitVector.zero(0)
    for _ in range(50):
        u, v = random_vector(rng, 5), random_vector(rng, 5)
        assert star_inner_product((u, empty), (v, empty)) == trace_inner_product(u, v)


def test_star_binary_tail_dot_product():
    zero = F4Vector.zero(4)
    u = (zero, BitVector(2, 0b01))
    v = (zero, BitVector(2, 0b11))
    assert star_inner_product(u, v) == 1


def test_star_mixed_example():
    # anticommuting F4 part (1) plus tail dot (1) = 0
    u = (F4Vector.from_symbols([1]), BitVector(1, 1))
    v = (F4Vector.from_symbols([W]), BitVector(1, 1))
    assert star_inner_product(u, v) == 0


def test_star_shape_mismatch():
    with pytest.raises(DimensionError):
        star_inner_product(
            (F4Vector.zero(2), BitVector.zero(1)),
            (F4Vector.zero(2), BitVector.zero(2)),
        )


# ----------------------------------------------------------------------
# syndrome and rank
# ----------------------------------------------------------------------

EXAMPLE_G = [
    "IIIZIZ",
    "YIZXXY",
    "ZXIIXZ",
    "IZXXXX",
    "ZZZIZI",
]


def example_rows():
    return [pauli_string_parse(s) for s in EXAMPLE_G]


def test_syndrome_of_zero_error():
    rows = example_rows()
    assert syndrome(rows, F4Vector.zero(6)).weight == 0


def test_syndrome_example1_single_x_on_coordinate_4():
    # the X error on the 4th coordinate (1-indexed) anticommutes with g_1
    rows = example_rows()
    e = F4Vector.single(6, 3, 1)
    s = syndrome(rows, e)
    assert s.bit(0) == 1
    assert s.weight == 1  # the lone weight-1 syndrome among single-symbol errors


def test_syndrome_length_and_mismatch():
    rows = example_rows()
    assert syndrome(rows, F4Vector.zero(6)).n == 5
    with pytest.raises(DimensionError):
        syndrome(rows, F4Vector.zero(5))


def test_f2_rank_examples():
    assert f2_rank([]) == 0
    assert f2_rank(example_rows()) == 5
    v = pauli_string_parse("XZY")
    assert f2_rank([v, v]) == 1


def test_f2_rank_bounds_and_row_xor_invariance():
    rng = np.random.default_rng(15)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        rows = [random_vector(rng, n) for _ in range(int(rng.integers(1, 7)))]
        r = f2_rank(rows)
        assert r <= min(len(rows), 2 * n)
        if len(rows) >= 2:
            i, j = rng.choice(len(rows), size=2, replace=False)
            xored = list(rows)
            xored[int(i)] = rows[int(i)] + rows[int(j)]
            assert f2_rank(xored) == r


# ----------------------------------------------------------------------
# Pauli strings
# ----------------------------------------------------------------------

def test_parse_examples():
    assert pauli_string_parse("IIII") == F4Vector.zero(4)
    assert pauli_string_parse("XZ").symbols() == (1, W)
    assert pauli_string_parse("IXZY").symbols() == (0, 1, W, W2)


def test_render_roundtrip():
    assert pauli_string_render(pauli_string_parse("XZYI")) == "XZYI"
    rng = np.random.default_rng(16)
    for _ in range(50):
        v = random_vector(rng, int(rng.integers(1, 14)))
        assert pauli_string_parse(pauli_string_render(v)) == v


def test_parse_rejects_unknown_characters():
    with pytest.raises(ParseError):
        pauli_string_parse("XZQ")


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: BitVector(2, 0b100), DimensionError, "exceed length 2", id="bits"),
    pytest.param(lambda: F4Vector(2, 0b100, 0), DimensionError, "exceeds length 2",
                 id="support"),
    pytest.param(lambda: F4Vector.zero(2).permute([0, 0]), DimensionError,
                 "not a permutation", id="permutation"),
    pytest.param(lambda: F4Vector.from_symbols([0, 4]), ParseError, "symbol 4", id="symbol"),
    pytest.param(lambda: F4Vector.zero(2).scale(0), ParseError, "scalar 0", id="scalar"),
])
def test_input_checks_raise_their_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_bitvector_basics():
    b = BitVector(4, 0b1101)
    assert b.weight == 3
    assert b.to_tuple() == (1, 0, 1, 1)
    assert (b ^ BitVector(4, 0b1011)).to_tuple() == (0, 1, 1, 0)
    assert str(b) == "1011"
    with pytest.raises(DimensionError):
        b ^ BitVector.zero(3)
