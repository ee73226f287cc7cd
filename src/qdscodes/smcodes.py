"""Binary linear syndrome-measurement (SM) codes and their decoders.

An [m+l, m] SM code dictates which stabilizer elements are measured.  The
decoders recover the m-bit syndrome from the noisy m+l measurement word:

* majority vote over repeated extraction blocks,
* coset-leader (minimum-weight) decoding from a cached syndrome table,
* weighted maximum likelihood over all 2^m codewords.

A decode that hits an exact tie (an even majority split, a coset with
several minimum-weight vectors, several equally likely codewords) is
declared a failure via ``DecodeOutcome.success``: the decoder still emits
the deterministic lexicographic choice, but it cannot guarantee the
transmitted word, and syndrome-error probabilities count such decodes as
errors.  This rule is what reproduces the reference measurement-error
curves; see the calibration test in the acceptance suite.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import f2
from .errors import (
    AvailabilityError,
    CapacityError,
    DimensionError,
    CatalogError,
    ParseError,
    PreconditionError,
    RankError,
    StructureError,
)
from .gf4 import BitVector

MAX_TABLE_LENGTH = 25
MAX_CODEWORD_DIM = 20
# m of a generated identity-<m>, parity-<m> or repetition-<m>, whose rows are built as m lists
MAX_GENERATED_SIZE = 64

DATA_DIR_ENV = "QDS_DATA_DIR"


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of decoding one received word.

    success is False when the decoder declared the decode ambiguous
    (exact tie); the message then still carries the lexicographically
    smallest choice, but it is counted as a decoding failure.
    """

    message: BitVector
    success: bool


@dataclass(frozen=True)
class BinaryLinearCode:
    """An [length, dim] binary linear code given by generator rows.

    Rows are bit-packed ints (bit i = column i).  A systematic view
    [I_m | A] is computed once; the stored column permutation maps
    systematic positions back to original columns so encode/decode agree.
    Decoding happens in systematic column order.
    """

    length: int
    rows: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if any(r >> self.length for r in self.rows):
            raise DimensionError("generator row exceeds declared length")
        if f2.rank(self.rows) != len(self.rows):
            raise RankError("generator matrix is rank deficient")

    @classmethod
    def from_bit_rows(cls, bit_rows: Iterable[Sequence[int]], name: str = "") -> "BinaryLinearCode":
        rows = []
        length = None
        for r in bit_rows:
            bits = list(r)
            if length is None:
                length = len(bits)
            elif len(bits) != length:
                raise DimensionError("generator rows have unequal lengths")
            rows.append(sum(b << i for i, b in enumerate(bits)))
        if length is None:
            raise RankError("need at least one generator row")
        return cls(length, tuple(rows), name)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def redundancy(self) -> int:
        return self.length - self.dim

    @cached_property
    def _systematic(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return systematize(self.rows, self.length)

    @property
    def systematic_rows(self) -> tuple[int, ...]:
        """Generator rows in systematic column order, [I_m | A]."""
        return self._systematic[0]

    @property
    def column_permutation(self) -> tuple[int, ...]:
        """Systematic position -> original column.  Encoding and decoding
        work in systematic order, so this is how a caller maps their words
        back to the generator's columns."""
        return self._systematic[1]

    def a_column(self, j: int) -> int:
        """Message-bit mask of redundant position j: bit i set iff row i of A
        has a 1 in column j."""
        mask = 0
        for i, row in enumerate(self.systematic_rows):
            mask |= ((row >> (self.dim + j)) & 1) << i
        return mask

    def encode(self, message: BitVector) -> BitVector:
        """s @ G in systematic order; the first dim bits equal the message."""
        if message.n != self.dim:
            raise DimensionError(f"message length {message.n} != dimension {self.dim}")
        word = 0
        for i, row in enumerate(self.systematic_rows):
            if message.bit(i):
                word ^= row
        return BitVector(self.length, word)

    @cached_property
    def parity_checks(self) -> tuple[int, ...]:
        """Rows of H = [A^T | I_l] in systematic column order."""
        m, l = self.dim, self.redundancy
        checks = []
        for j in range(l):
            checks.append(self.a_column(j) | (1 << (m + j)))
        return tuple(checks)

    def word_syndrome(self, word: int) -> int:
        s = 0
        for j, h in enumerate(self.parity_checks):
            s |= f2.parity(word & h) << j
        return s

    @cached_property
    def coset_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(leader, min_weight, multiplicity) arrays indexed by syndrome.

        The leader is the lexicographically smallest minimum-weight vector
        of the coset (coordinate 0 read first); multiplicity counts the
        minimum-weight vectors, so multiplicity > 1 marks ambiguous cosets.
        """
        n, l = self.length, self.redundancy
        if n > MAX_TABLE_LENGTH:
            raise CapacityError(f"coset table for length {n} exceeds the {MAX_TABLE_LENGTH}-bit cap")
        words = np.arange(1 << n, dtype=np.uint32)
        weights = np.bitwise_count(words)
        synd = np.zeros(1 << n, dtype=np.uint32)
        for j, h in enumerate(self.parity_checks):
            synd |= (np.bitwise_count(words & np.uint32(h)) & 1).astype(np.uint32) << np.uint32(j)
        lexkey = np.zeros(1 << n, dtype=np.uint32)
        for i in range(n):
            lexkey |= ((words >> np.uint32(i)) & 1) << np.uint32(n - 1 - i)
        order = np.lexsort((lexkey, weights, synd))
        sorted_synd = synd[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = sorted_synd[1:] != sorted_synd[:-1]
        starts = np.flatnonzero(first)
        leader = np.zeros(1 << l, dtype=np.uint32)
        min_weight = np.zeros(1 << l, dtype=np.uint32)
        leader[sorted_synd[starts]] = words[order[starts]]
        min_weight[sorted_synd[starts]] = weights[order[starts]]
        multiplicity = np.zeros(1 << l, dtype=np.uint32)
        is_min = weights == min_weight[synd]
        np.add.at(multiplicity, synd[is_min], 1)
        return leader, min_weight, multiplicity

    def codewords(self) -> list[int]:
        """All 2^dim codewords in systematic column order."""
        if self.dim > MAX_CODEWORD_DIM:
            raise CapacityError(
                f"listing 2^{self.dim} codewords exceeds the dimension cap {MAX_CODEWORD_DIM}"
            )
        words = [0]
        for row in self.systematic_rows:
            words += [w ^ row for w in words]
        return words

    def minimum_distance(self) -> int:
        return min(w.bit_count() for w in self.codewords() if w)


def systematize(rows: Sequence[int], length: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bring a full-rank generator matrix to [I_m | A] form.

    Returns (systematic rows, column permutation); permutation entry p
    means systematic position p reads original column permutation[p].
    """
    m = len(rows)
    reduced, pivots = f2.row_reduce(list(rows), length)
    if len(reduced) != m:
        raise RankError("generator matrix is rank deficient")
    perm = list(pivots) + [c for c in range(length) if c not in set(pivots)]
    out_rows = []
    for row in reduced:
        packed = 0
        for new_pos, old_col in enumerate(perm):
            packed |= ((row >> old_col) & 1) << new_pos
        out_rows.append(packed)
    # row order must follow pivot order so the identity block is I_m
    return tuple(out_rows), tuple(perm)


def majority_decode(received_blocks: Sequence[BitVector]) -> DecodeOutcome:
    """Per-bit majority over repeated syndrome extraction blocks.

    An exact tie (even block count) is declared a decoding failure for
    that bit; the emitted bit is then 0.
    """
    if not received_blocks:
        raise DimensionError("need at least one received block")
    m = received_blocks[0].n
    if any(b.n != m for b in received_blocks):
        raise DimensionError("received blocks have unequal lengths")
    fold = len(received_blocks)
    bits = 0
    tied = False
    for i in range(m):
        ones = sum(b.bit(i) for b in received_blocks)
        if 2 * ones == fold:
            tied = True
        elif 2 * ones > fold:
            bits |= 1 << i
    return DecodeOutcome(BitVector(m, bits), success=not tied)


def coset_leader_decode(code: BinaryLinearCode, received: BitVector) -> DecodeOutcome:
    """Subtract the cached minimum-weight coset representative.

    Ties inside the coset are broken toward the lexicographically smallest
    error pattern, and the decode is declared a failure.
    """
    if received.n != code.length:
        raise DimensionError(f"received length {received.n} != code length {code.length}")
    leader, _, multiplicity = code.coset_table
    s = code.word_syndrome(received.bits)
    corrected = received.bits ^ int(leader[s])
    message = BitVector(code.dim, corrected & ((1 << code.dim) - 1))
    return DecodeOutcome(message, success=int(multiplicity[s]) == 1)


def likelihood_classes(flip_probs: Sequence[float]) -> tuple[np.ndarray, list[int]]:
    """Group positions by identical flip probability.

    Returns (per-class log-likelihood-ratio weights, per-position class
    index).  Exact tie detection compares per-class flip counts, which is
    order-independent, instead of accumulated floats.
    """
    lam: list[float] = []
    classes: list[int] = []
    seen: dict[float, int] = {}
    for p in flip_probs:
        if not 0.0 <= p <= 1.0:
            raise PreconditionError(f"flip probability {p} outside [0, 1]")
        if p not in seen:
            seen[p] = len(lam)
            if p == 0.0:
                lam.append(math.inf)
            elif p == 1.0:
                lam.append(-math.inf)
            else:
                # (1 - p) / p overflows to inf for subnormal p; this form stays finite
                lam.append(math.log1p(-p) - math.log(p))
        classes.append(seen[p])
    return np.array(lam), classes


def pattern_cost(counts: Sequence[int], sizes: Sequence[int], lam: Sequence[float]) -> float:
    """Weighted-ML cost of an error pattern with counts[k] flips among the
    sizes[k] positions of likelihood class k (weight lam[k]).

    A pattern of probability zero, one that flips a bit that never flips
    (lam = +inf) or leaves a certain flip unflipped (lam = -inf), costs
    +inf.  Any other pattern costs sum counts[k] * lam[k] over the finite
    classes, zero counts skipped: the certain flips it shares with every
    other such pattern add nothing, so -inf never meets +inf.
    """
    cost = 0.0
    for c, n, l in zip(counts, sizes, lam):
        if (l == math.inf and c) or (l == -math.inf and c < n):
            return math.inf
        if c and math.isfinite(l):
            cost += c * l
    return cost


def weighted_ml_decode(
    code: BinaryLinearCode, received: BitVector, flip_probs: Sequence[float]
) -> DecodeOutcome:
    """Choose the codeword maximizing prod p_i^{e_i} (1-p_i)^{1-e_i}.

    Enumerates all 2^m codewords; a likelihood tie is resolved toward the
    lexicographically smallest codeword and declared a failure.
    """
    if received.n != code.length:
        raise DimensionError(f"received length {received.n} != code length {code.length}")
    if len(flip_probs) != code.length:
        raise DimensionError("flip_probs length does not match the code length")
    lam, classes = likelihood_classes(flip_probs)
    nclass = len(lam)
    sizes = [classes.count(k) for k in range(nclass)]

    def counts_of(word: int) -> tuple[int, ...]:
        out = [0] * nclass
        for i in range(code.length):
            if (word >> i) & 1:
                out[classes[i]] += 1
        return tuple(out)

    best_cost = None
    best_counts = None
    best_word = None
    tied = False
    for c in sorted(code.codewords(), key=lambda w: f2.bit_reversed(w, code.length)):
        counts = counts_of(received.bits ^ c)
        cost = pattern_cost(counts, sizes, lam)
        if best_cost is None or cost < best_cost:
            best_cost, best_counts, best_word, tied = cost, counts, c, False
        elif counts == best_counts or cost == best_cost:
            tied = True
    message = BitVector(code.dim, best_word & ((1 << code.dim) - 1))
    return DecodeOutcome(message, success=not tied)


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def _block_row(blocks: Sequence[int], active: Sequence[int]) -> list[int]:
    bits: list[int] = []
    for b, size in enumerate(blocks):
        bits.extend([1 if b in active else 0] * size)
    return bits


def _cordaro_wagner(blocks: Sequence[int], name: str) -> BinaryLinearCode:
    """Two-dimensional code from three support blocks: rows A+B and B+C."""
    return BinaryLinearCode.from_bit_rows(
        [_block_row(blocks, (0, 1)), _block_row(blocks, (1, 2))], name
    )


def _parity(m: int) -> BinaryLinearCode:
    rows = [[1 if j == i else 0 for j in range(m)] + [1] for i in range(m)]
    return BinaryLinearCode.from_bit_rows(rows, f"parity-{m}")


def _repetition(l: int) -> BinaryLinearCode:
    return BinaryLinearCode.from_bit_rows([[1] * l], f"repetition-{l}")


def _identity(m: int) -> BinaryLinearCode:
    return BinaryLinearCode.from_bit_rows(
        [[1 if j == i else 0 for j in range(m)] for i in range(m)], f"identity-{m}"
    )


# family -> (builder of the code <family>-<size>, the size's symbol in the family's name)
GENERATED_FAMILIES = {
    "parity": (_parity, "m"),
    "repetition": (_repetition, "l"),
    "identity": (_identity, "m"),
}
GENERATED_NAMES = tuple(f"{family}-<{size}>" for family, (_, size) in GENERATED_FAMILIES.items())

# name -> support-block sizes of the bundled Cordaro-Wagner [n, 2] codes
CORDARO_WAGNER_BLOCKS = {
    "cw-12-2-8": (4, 4, 4),
    "cw-17-2-11": (6, 6, 5),
    "cw-18-2-12": (6, 6, 6),
}

IMPORTED_PARAMS = {
    # name -> (length, dim, declared minimum distance)
    "grassl-18-6-8": (18, 6, 8),
    "grassl-25-6-11": (25, 6, 11),
}


def data_dir(override: str | Path | None = None) -> Path | None:
    if override is not None:
        return Path(override)
    env = os.environ.get(DATA_DIR_ENV)
    return Path(env) if env else None


def _load_imported(name: str, directory: str | Path | None) -> BinaryLinearCode:
    length, dim, dist = IMPORTED_PARAMS[name]
    base = data_dir(directory)
    path = (base / f"{name}.txt") if base else None
    if path is None or not path.exists():
        where = path if path is not None else f"${DATA_DIR_ENV}/{name}.txt"
        raise AvailabilityError(
            f"SM code {name!r} is import-only: place a [{length},{dim},{dist}] "
            f"generator matrix at {where} (one 0/1 row per line)"
        )
    code = read_binary_code_file(path, name=name)
    if (code.length, code.dim) != (length, dim):
        raise StructureError(
            f"{path}: expected a [{length},{dim}] generator matrix, "
            f"got [{code.length},{code.dim}]"
        )
    if (found := code.minimum_distance()) != dist:
        raise StructureError(f"{path}: minimum distance {found} != {dist}")
    return code


def sm_catalog(name: str, directory: str | Path | None = None) -> BinaryLinearCode:
    """Bundled SM codes, plus import-only entries resolved from QDS_DATA_DIR."""
    if name in IMPORTED_PARAMS:
        return _load_imported(name, directory)
    if name in CORDARO_WAGNER_BLOCKS:
        return _cordaro_wagner(CORDARO_WAGNER_BLOCKS[name], name)
    kind, _, arg = name.partition("-")
    if kind in GENERATED_FAMILIES and arg.isdigit():
        size = int(arg)
        if size < 1:
            raise CatalogError(f"size in {name!r} must be positive")
        if size > MAX_GENERATED_SIZE:
            raise CapacityError(f"size in {name!r} exceeds the cap of {MAX_GENERATED_SIZE}")
        return GENERATED_FAMILIES[kind][0](size)
    raise CatalogError(f"unknown SM code {name!r}; known: {', '.join(sm_catalog_names())}")


def sm_catalog_names() -> tuple[str, ...]:
    return tuple(CORDARO_WAGNER_BLOCKS) + GENERATED_NAMES + tuple(sorted(IMPORTED_PARAMS))


# ----------------------------------------------------------------------
# file format: one 0/1 row per line, '#' comments
# ----------------------------------------------------------------------

def parse_binary_code_text(text: str, name: str = "") -> BinaryLinearCode:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if set(line) - {"0", "1"}:
            raise ParseError(f"line {lineno}: expected a row of 0/1 characters, got {line!r}")
        rows.append([int(c) for c in line])
    if not rows:
        raise ParseError("no generator rows found")
    return BinaryLinearCode.from_bit_rows(rows, name)


def read_binary_code_file(path: str | Path, name: str = "") -> BinaryLinearCode:
    return parse_binary_code_text(Path(path).read_text(), name or Path(path).stem)


def binary_code_file_text(code: BinaryLinearCode, comment: str | None = None) -> str:
    lines = [f"# {comment}"] if comment else []
    for row in code.rows:
        lines.append("".join(str((row >> i) & 1) for i in range(code.length)))
    return "\n".join(lines) + "\n"


def write_binary_code_file(code: BinaryLinearCode, path: str | Path,
                           comment: str | None = None) -> None:
    Path(path).write_text(binary_code_file_text(code, comment))
