"""Subsystem codes over additive F4 codes, stabilizer codes among them.

Every code is a subsystem code, given by its gauge group D; its
stabilizer is C = D intersect D-perp.  A stabilizer code is one given by
commuting generators: its gauge group is its stabilizer, so r = 0.

Minimum distances and purity are computed by exhaustive enumeration at
desk scale: one kernel forms the error vectors of each weight as XORs of
packed per-position words in numpy blocks and scores each block from its
own span-membership and syndrome bits, so working memory is per block
(caps: n <= MAX_N = 16, search weight <= MAX_SEARCH_WEIGHT = 5).  Up to
MAX_N the blocks slice one read-only array of supports per (n, w), kept
for the process and built when a search first reaches weight w: 0.25 MB
for every weight up to 5 at n = 16, 2.6 MB at n = 25 (were MAX_N 25).
Beyond MAX_N only
`is_impure` runs the kernel, at any n and weight, so it builds each
block's supports on its own.  A code's membership checks
(`AdditiveCode.checks`) are derived once, so the base and QDS distance
searches of one code share them.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import f2, gf4
from .errors import (
    CapacityError, CatalogError, CommutationError, DimensionError, ParseError, RankError,
)
from .gf4 import F4Vector, f2_rank, pauli_string_parse

MAX_N = 16
MAX_SEARCH_WEIGHT = 5
MAX_SPAN_EXPONENT = 22
# vectors formed per numpy block of a weight search
BLOCK_VECTORS = 1 << 12


@dataclass(frozen=True)
class AdditiveCode:
    """F2-linear span of independent F4 generator rows."""

    n: int
    rows: tuple[F4Vector, ...]

    def __post_init__(self):
        if any(r.n != self.n for r in self.rows):
            raise RankError("generator rows have unequal lengths")
        if f2_rank(self.rows) != len(self.rows):
            raise RankError("generator rows are dependent over F2")

    @classmethod
    def from_rows(cls, rows: Iterable[F4Vector]) -> "AdditiveCode":
        rows = tuple(rows)
        if not rows:
            raise RankError("need at least one generator row")
        return cls(rows[0].n, rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> f2.Basis:
        return f2.Basis(r.bit_expansion() for r in self.rows)

    @cached_property
    def checks(self) -> tuple[int, ...]:
        """A basis of the 2n-bit vectors orthogonal to every row's bit
        expansion: v lies in the span iff its dot product with each is 0.
        Derived once, so every distance search of one code shares it."""
        return tuple(f2.null_space([r.bit_expansion() for r in self.rows], 2 * self.n))

    def member(self, v: F4Vector) -> bool:
        """v is in the span iff appending it does not raise the rank."""
        return self.basis().contains(v.bit_expansion())

    def span(self) -> Iterator[F4Vector]:
        """All 2^dim span elements, by Gray-code accumulation."""
        if self.dim > MAX_SPAN_EXPONENT:
            raise CapacityError(f"span of 2^{self.dim} elements exceeds the enumeration cap")
        current = F4Vector.zero(self.n)
        yield current
        for i in range(1, 1 << self.dim):
            current = current + self.rows[(i & -i).bit_length() - 1]
            yield current


@dataclass(frozen=True)
class SubsystemCode:
    """A subsystem code, given by its gauge code D; every code is one.

    Its stabilizer C = D intersect D-perp is derived from D, so no parity
    or commutation check is needed: D/C carries a nondegenerate
    alternating form, so its dimension 2r is even, and each row of C
    commutes with all of D by definition.
    """

    gauge: AdditiveCode

    @cached_property
    def stabilizer(self) -> AdditiveCode:
        """C, derived once on first use."""
        return AdditiveCode(self.n, _gram_null_combinations(self.gauge.rows))

    @property
    def n(self) -> int:
        return self.gauge.n

    @property
    def m(self) -> int:
        return (self.gauge.dim + self.stabilizer.dim) // 2

    @property
    def r(self) -> int:
        return (self.gauge.dim - self.stabilizer.dim) // 2

    @property
    def k(self) -> int:
        return self.n - self.m

    @property
    def rows(self) -> tuple[F4Vector, ...]:
        """The measured generators: a basis of the stabilizer C."""
        return self.stabilizer.rows


@dataclass(frozen=True)
class StabilizerCode(SubsystemCode):
    """An [[n, k]] stabilizer code: the subsystem code given by m = n - k
    commuting generators, whose gauge group is its stabilizer (r = 0).
    Its rows are the generators as given, in their order."""

    @property
    def stabilizer(self) -> AdditiveCode:
        return self.gauge


def make_stabilizer(rows: Iterable[F4Vector]) -> StabilizerCode:
    """Validate rows as independent, mutually commuting generators."""
    rows = tuple(rows)
    code = AdditiveCode.from_rows(rows)
    for i, entry in enumerate(gf4.commutation_matrix(rows)):
        if later := entry >> (i + 1):  # the first pair (i, j > i) that anticommutes
            j = i + (later & -later).bit_length()
            raise CommutationError(f"generators {rows[i]} and {rows[j]} anticommute")
    return StabilizerCode(code)


def _gram_null_combinations(rows: Sequence[F4Vector]) -> tuple[F4Vector, ...]:
    """Basis of {v in span(rows) : v orthogonal to every row}.

    Solves c . Gram = 0 for the F2 Gram matrix of the trace form, the
    rows' commutation matrix, so no explicit dual basis is needed.
    """
    gram = gf4.commutation_matrix(rows)
    return tuple(gf4.combination(rows, c) for c in f2.null_space(gram, len(rows)))


def make_subsystem(gauge_rows: Iterable[F4Vector]) -> SubsystemCode:
    """Build a subsystem code from its gauge generators."""
    return SubsystemCode(AdditiveCode.from_rows(gauge_rows))


def _word_table(rows: Sequence[F4Vector], excluded: AdditiveCode) -> tuple[np.ndarray, ...]:
    """(table, membership mask, syndrome mask) of packed per-position words.

    Entry [j, v - 1] of the (n, 3, width) table is the word of symbol v at
    position j, as `width` little-endian uint64 limbs.  Its membership
    field holds the parities against `excluded.checks`, so an XOR of
    words has that field 0 iff the vector lies in span(excluded); its
    syndrome field holds the syndrome against `rows`.  Each mask is a
    (width, 1) column that broadcasts over `_weight_blocks`' output.
    """
    n = excluded.n
    checks = excluded.checks
    # bit i of a word is the parity of the error's bit expansion with lines[i];
    # a row's syndrome bit pairs the error's X part with the row's Z part
    lines = [*checks, *(r.z | (r.x << n) for r in rows)]
    width = max(1, -(-len(lines) // 64))
    # bits[i, b] is bit b of lines[i]; row b of its transpose, padded to
    # 64 * width bits, is the word of bit b of the expansion, and two more
    # rows are the membership and syndrome masks
    size = -(-2 * n // 8)
    raw = np.frombuffer(b"".join(line.to_bytes(size, "little") for line in lines), np.uint8)
    bits = np.unpackbits(raw.reshape(len(lines), size), axis=1, bitorder="little")
    padded = np.zeros((2 * n + 2, 64 * width), np.uint8)
    padded[: 2 * n, : len(lines)] = bits[:, : 2 * n].T
    padded[2 * n, : len(checks)] = 1
    padded[2 * n + 1, len(checks) : len(lines)] = 1
    unit = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    x, z = unit[:n], unit[n : 2 * n]
    return np.stack((x, z, x ^ z), axis=1), unit[-2, :, None], unit[-1, :, None]


@functools.cache
def _supports(n: int, w: int) -> np.ndarray:
    """The C(n, w) supports of weight w on n positions, in
    itertools.combinations order, as a (C(n, w), w) array; shared, so
    read-only.  Built on the first search that reaches weight w."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), w))
    supports = np.fromiter(flat, np.intp, math.comb(n, w) * w).reshape(-1, w)
    supports.flags.writeable = False
    return supports


def _support_blocks(n: int, w: int, size: int) -> Iterator[np.ndarray]:
    """The supports of weight w on n positions in itertools.combinations
    order, `size` at a time.  Up to MAX_N, the lengths a distance search
    takes, they slice `_supports`; beyond it, where only `is_impure`
    reaches and C(n, w) is unbounded, each block is built on its own."""
    if n <= MAX_N:
        supports = _supports(n, w)
        for start in range(0, len(supports), size):
            yield supports[start : start + size]
        return
    combinations = itertools.combinations(range(n), w)
    while chunk := list(itertools.islice(combinations, size)):
        yield np.array(chunk, dtype=np.intp)


def _weight_blocks(table: np.ndarray, top: int) -> Iterator[tuple[int, np.ndarray]]:
    """(w, words) for w = 1..top: the XOR of table entries over every vector
    of weight w, at most BLOCK_VECTORS vectors per block, as a (width,
    count) array: one row per limb, one column per vector."""
    n, _, width = table.shape
    for w in range(1, top + 1):
        for supports in _support_blocks(n, w, max(1, BLOCK_VECTORS // 3**w)):
            picked = table[supports]
            words = picked[:, 0]
            for i in range(1, w):
                words = (words[:, :, None] ^ picked[:, i, None]).reshape(len(picked), -1, width)
            yield w, words.reshape(-1, width).T


def min_weight_outside(
    excluded: AdditiveCode, rows: Sequence[F4Vector], count_syndrome: bool
) -> int:
    """min over e outside span(excluded) of weight(e) + the cost of e's
    syndrome against rows: its weight if `count_syndrome`, else 0 for the
    zero syndrome and infinite for any other.

    Each vector is the XOR of one packed word per nonzero position
    (`_word_table`: span-membership bits, then syndrome bits), so the
    vectors of each weight are formed in numpy blocks of at most
    BLOCK_VECTORS words, and each block is scored from its own bits.
    Weights are searched in increasing order with the running minimum as
    cutoff, and the search stops at the first block holding a vector of
    zero cost outside the span.  A minimum that vectors beyond the search
    weight could still undercut is refused, not returned.
    """
    n = excluded.n
    if n > MAX_N:
        raise CapacityError(f"n={n} exceeds the enumeration cap n<={MAX_N}")
    top = min(MAX_SEARCH_WEIGHT, n)
    table, member, syndrome = _word_table(rows, excluded)
    best = math.inf
    for w, words in _weight_blocks(table, top):
        if w >= best:
            break
        outside = (words & member).any(axis=0)
        if not count_syndrome:
            # only a zero syndrome has a cost, 0, so the first hit is the minimum
            if (outside & ~(words & syndrome).any(axis=0)).any():
                return w
            continue
        costs = np.bitwise_count(words & syndrome).sum(axis=0)[outside]
        if costs.size and (cost := int(costs.min())) < best - w:
            best = w + cost
            if cost == 0:
                return w
    if best == math.inf or (top < n and best > top + 1):
        raise CapacityError(
            f"no minimum settled by vectors of weight <= {top} (search cap {MAX_SEARCH_WEIGHT})"
        )
    return best


def min_distance(code: SubsystemCode) -> int:
    """min weight of e with zero syndrome outside the gauge group (the
    stabilizer, for a stabilizer code).  With k = 0 every such e lies in
    the gauge group, so the code is refused before any search."""
    if code.k == 0:
        raise DimensionError("the code encodes no logical qubit (k = 0), so it has no distance")
    return min_weight_outside(code.gauge, code.rows, count_syndrome=False)


def is_impure(code: SubsystemCode, d: int) -> bool:
    """True iff some nonzero stabilizer span element has weight below d."""
    stabilizer = code.stabilizer
    if stabilizer.dim <= MAX_SPAN_EXPONENT:
        return any(v.weight < d for v in stabilizer.span() if v.weight > 0)
    # with no rows, a word is its membership field
    table = _word_table((), stabilizer)[0]
    return any(not words.any(axis=0).all() for _, words in _weight_blocks(table, d - 1))


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

_EXAMPLE_6_1_3 = ("IIIZIZ", "YIZXXY", "ZXIIXZ", "IZXXXX", "ZZZIZI")
_EXAMPLE_6_1_3_PRIME = ("YXXZYZ", "YIZXXY", "ZXIIXZ", "IZXYXY", "ZZZZZZ")

_FIVE_QUBIT = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")

_STEANE = ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")

# Generator order is fixed, because the choice matters for SM-code
# accounting: noise.build_scheme reorders the Z rows for a listed total.
_SHOR = (
    "XXXXXXIII",
    "IIIXXXXXX",
    "ZZIIIIIII",
    "IZZIIIIII",
    "IIIZZIIII",
    "IIIIZZIII",
    "IIIIIIZZI",
    "IIIIIIIZZ",
)

_GOTTESMAN_8_3_3 = ("XXXXXXXX", "ZZZZZZZZ", "IXIXYZYZ", "IXZYIXZY", "IYXZXZIY")


def bacon_shor(m: int) -> SubsystemCode:
    """The m x m Bacon-Shor code, qubit m*r + c at row r, column c.

    Gauge generators: XX on horizontal neighbours, then ZZ on vertical
    neighbours.  The derived stabilizer rows, weight 2m, are X on adjacent
    column pairs (products of the XX gauges), then Z on adjacent row pairs.
    """
    n = m * m
    gauge = [F4Vector(n, 3 << (m * r + c), 0) for r in range(m) for c in range(m - 1)]
    gauge += [F4Vector(n, 0, (1 | 1 << m) << (m * r + c)) for c in range(m) for r in range(m - 1)]
    return make_subsystem(gauge)


def _stab(strings: Sequence[str]) -> StabilizerCode:
    return make_stabilizer(pauli_string_parse(s) for s in strings)


_CATALOG = {
    "example-6-1-3": lambda: _stab(_EXAMPLE_6_1_3),
    "example-6-1-3-prime": lambda: _stab(_EXAMPLE_6_1_3_PRIME),
    "five-qubit": lambda: _stab(_FIVE_QUBIT),
    "steane": lambda: _stab(_STEANE),
    "shor": lambda: _stab(_SHOR),
    "8-3-3": lambda: _stab(_GOTTESMAN_8_3_3),
    "bacon-shor": lambda: bacon_shor(3),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def catalog(name: str) -> SubsystemCode:
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise CatalogError(f"unknown code {name!r}; known: {', '.join(catalog_names())}") from None
    return builder()


# ----------------------------------------------------------------------
# file format: one Pauli row per line, '#' comments, optional GAUGE section
# ----------------------------------------------------------------------

def parse_code_text(text: str) -> SubsystemCode:
    stab_lines: list[F4Vector] = []
    gauge_lines: list[F4Vector] = []
    target = stab_lines
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.upper() == "GAUGE":
            if target is gauge_lines:
                raise ParseError(f"line {lineno}: duplicate GAUGE header")
            target = gauge_lines
            continue
        try:
            target.append(pauli_string_parse(line))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if gauge_lines:
        if stab_lines:
            raise ParseError("rows before the GAUGE header are not allowed in subsystem files")
        return make_subsystem(gauge_lines)
    if not stab_lines:
        raise ParseError("no generator rows found")
    return make_stabilizer(stab_lines)


def read_code_file(path: str | Path) -> SubsystemCode:
    return parse_code_text(Path(path).read_text())


def code_file_text(code: SubsystemCode, comment: str | None = None) -> str:
    lines = [f"# {comment}"] if comment else []
    if not isinstance(code, StabilizerCode):
        lines.append("GAUGE")
    lines.extend(str(r) for r in code.gauge.rows)
    return "\n".join(lines) + "\n"


def write_code_file(code: SubsystemCode, path: str | Path, comment: str | None = None) -> None:
    Path(path).write_text(code_file_text(code, comment))
