"""Syndrome-measurement-error channel and p_se evaluation.

Noise model: gates are perfect and the only faults are independent
bit-flips on single-qubit measurement outcomes, each with probability
p_m.  A stabilizer element of Pauli weight w is read out through w
single-qubit measurements, so its syndrome bit flips with probability

    p_err(w, p_m) = sum over odd j of C(w, j) p_m^j (1 - p_m)^(w - j).

Because no data errors occur, the true syndrome is the all-zero word;
p_se is the probability that the recovered syndrome differs from it.  A
scheme is split into independently decoded parts (one per generator
type); the scheme fails when any part fails, and a part fails when its
decoder returns the wrong word or declares a tie.

Exact evaluation never forms 1 - success.  Bits of one weight flip alike,
so an SM part prices each p_m point per weight class (SMPart._pricing).
The failing patterns of each cost rule are counted once, as a histogram
over per-class flip counts, in whichever domain is smaller: the 2^n
patterns, in one pass that keeps each coset's lowest two costs and
lowest-cost word, or the flip-count vectors of the part's cells (the
positions sharing one generator column and one class), each against its
2^k codeword images; either fits 2^HARD_EXACT_BITS entries.  A
repetition bit fails with a sum of binomial terms.  The points of one
rule are priced in one table: a row of
per-class pattern probabilities per point, TILE_WORDS entries at a time,
each row summed against the histogram by one fsum.  The unit failure
probabilities f_i combine as p_se = -expm1(sum log1p(-f_i)), so a tiny
p_se keeps its precision.

Monte Carlo draws flip counts, not one float per flip.  A repetition
part draws one uniform u per weight: each of its k bits decodes with
probability s = F(t - 1), the Binomial(fold, q) lower-tail CDF below the
majority threshold t, so the weight fails iff u >= s^k.  An SM part with
q = p_err(w, p_m) per weight class draws either its cells or its blocks.
A cell (_cells under the unit costs: the positions of one class under
one generator column) takes one uniform, its flip count c by inverse CDF
of Binomial(n_cell, q).  A codeword flips a cell wholly or not at all,
so whether a pattern decodes depends only on its count vector over the
cells, under every cost rule, and no position is drawn.  A part samples
cells when they need no more uniforms than its blocks and their count
vectors fit a joint table (SMPart._sampler_cells).  Otherwise its weight
classes are split into near-equal blocks of at most SAMPLER_BLOCK_BITS
bits; per block a first uniform gives the flip count, and a second picks
one of the C(N, c) words with c flips from a table of the block's words
sorted by popcount.  A drawn word fails iff it is not the unique
minimum-cost member of its coset (_sm_decoder): each coset's runner-up
cost is looked up by syndrome, under the unit costs from the table the
part keeps (SMPart._unit_runner_up).

Monte Carlo runs are reproducible bit-for-bit: trials are partitioned
into chunks of fixed size, and chunk c draws from
numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=(c,))),
i.e. PCG64 seeded through numpy's documented SeedSequence hash.  Within
a chunk the parts draw in scheme order (_draws): a repetition part one
array of uniforms per distinct weight, an SM part one count array per
cell, or a count array then a position array per block, blocks in class
order.  The arrays do not depend on p_m, so every point of a sweep reads
the same chunk streams, and a grid call draws them once per pass: one
pass serves every point whose tables, decoders' per-syndrome tables
included, fit PASS_BYTES.  A pass walks
each chunk in tiles of at most TILE_WORDS trials; a float64 takes one
64-bit draw, so a tile's slice of array a is drawn from the chunk's start
state moved by PCG64.advance to draw a * size + (tile offset).

Each tile is judged once for a group of up to MASK_POINTS points: every
part turns it into one integer mask per trial, bit i set when the trial
fails at point i, and the scheme fails where any part does.  A count
uniform is placed once among the CDF values of all the group's points,
by a guide table of GUIDE_BUCKETS buckets (_Positions), and each point
reads its count at that position.  An SM part is judged in one of three
ways.  A part that samples cells reads each point's decode flag per
count vector (_cell_decodes, the kernel exact evaluation counts with) at
every joint position of its cells, so one table lookup judges a trial
for all points.  A part of one block decodes the block's table words
once per cost rule and keeps, per flip count, whether all, none or some
of its words fail; only a count whose words partly fail reads the
position uniform.  A part of several blocks assembles each point's
words and decodes them.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .codes import StabilizerCode, SubsystemCode, catalog, make_stabilizer
from .errors import CapacityError, PreconditionError, StructureError
from .gf4 import F4Vector
from .qds import measured_elements
from .smcodes import BinaryLinearCode, likelihood_classes, sm_catalog

HARD_EXACT_BITS = 25  # exact p_se enumerates at most 2^25 patterns or cell pairs
MAX_SM_LENGTH = 64  # received words are packed into uint64
DEFAULT_CHUNK_SIZE = 1 << 16  # Monte Carlo trials per chunk, each chunk its own RNG stream
TILE_WORDS = 1 << 14  # entries per working array of the coset walks and the exact table
SAMPLER_BLOCK_BITS = 16  # longest run of one class's bits a sampler table enumerates
MASK_POINTS = 64  # grid points judged together by Monte Carlo, one bit each of a uint64 mask
GUIDE_BUCKETS = 1 << 12  # guide-table buckets that place a uniform among merged thresholds
JOINT_TABLE_ENTRIES = 1 << 16  # joint positions of a point-mask table over cells or a block
PASS_BYTES = 1 << 25  # point-judging tables one Monte Carlo pass over the chunks builds

COSET_LEADER = "coset-leader"
WEIGHTED_ML = "weighted-ml"
DECODERS = (COSET_LEADER, WEIGHTED_ML)


def p_err(w: int, p_m: float) -> float:
    """Probability that the syndrome bit of a weight-w element flips."""
    if w < 1:
        raise PreconditionError(f"element weight must be positive, got {w}")
    if not 0.0 <= p_m <= 1.0:
        raise PreconditionError(f"p_m={p_m} outside [0, 1]")
    return sum(
        math.comb(w, j) * p_m**j * (1.0 - p_m) ** (w - j) for j in range(1, w + 1, 2)
    )


def _check_p_ms(p_ms: Sequence[float]) -> None:
    for p_m in p_ms:
        if not 0.0 <= p_m <= 1.0:
            raise PreconditionError(f"p_m={p_m} outside [0, 1]")


@dataclass(frozen=True)
class RepetitionPart:
    """Each syndrome bit protected by its own fold-times repetition code,
    decoded by per-bit majority with even ties declared failures."""

    weights: tuple[int, ...]
    fold: int

    @property
    def total_measurements(self) -> int:
        return self.fold * sum(self.weights)


class _Costs:
    """A decoder's cost of a word, which depends on the word only through
    its per-class flip counts.

    Bit positions are grouped by equal label, classes in first-seen order.
    A word's key reads its count vector (c_0, c_1, ...) as a mixed-radix
    number with class 0 least significant, so keys index the cost table
    and histograms over count vectors.  Without lams the cost is the flip
    count (minimum-weight decoding), a popcount with no table; with lams it
    is smcodes.pattern_cost.
    """

    def __init__(self, labels: Sequence, lams: np.ndarray | None = None):
        index: dict = {}
        masks: list[int] = []
        self.first: list[int] = []
        for j, label in enumerate(labels):
            if label not in index:
                index[label] = len(masks)
                masks.append(0)
                self.first.append(j)
            masks[index[label]] |= 1 << j
        self.masks = [np.uint64(m) for m in masks]
        self.sizes = [m.bit_count() for m in masks]
        self.strides = [math.prod(n + 1 for n in self.sizes[:k]) for k in range(len(masks))]
        self.vectors = math.prod(n + 1 for n in self.sizes)
        self.lams = lams
        # small integers: comparisons run on uint8, and MAX_SM_LENGTH < 255
        self.dtype = np.dtype(np.uint8 if lams is None else float)
        self.ceiling = np.iinfo(np.uint8).max if lams is None else math.inf
        # keys are summed in the narrowest type that holds them
        self.key_type = np.uint16 if self.vectors <= 1 << 16 else np.intp

    @cached_property
    def table(self) -> np.ndarray:
        """Each count vector's cost under lams, in key order, built on first
        use: smcodes.pattern_cost, which weighted_ml_decode forms, so ties
        are decided alike.  The finite classes are summed left to right as
        that loop sums them (a zero count adds +-0.0, which moves no sum),
        and a vector the +-inf rules price at +inf is masked."""
        cost = np.zeros(self.vectors)
        never = np.zeros(self.vectors, dtype=bool)
        for counts, n, lam in zip(self.count_vectors().T, self.sizes, self.lams.tolist()):
            if math.isfinite(lam):
                cost += counts * lam
            else:
                never |= counts > 0 if lam > 0 else counts < n
        cost[never] = math.inf
        return cost

    def key(self, words: np.ndarray) -> np.ndarray:
        key = None
        for mask, stride in zip(self.masks, self.strides):
            counts = np.bitwise_count(words & mask)
            key = counts if key is None else key + counts * self.key_type(stride)
        return key

    def __call__(self, words: np.ndarray) -> np.ndarray:
        if self.lams is None:
            return np.bitwise_count(words)
        return self.table.take(self.key(words))

    def count_vectors(self) -> np.ndarray:
        """Every per-class count vector, one row per key, in key order
        (uint8: a class holds at most MAX_SM_LENGTH bits)."""
        keys, vectors = np.arange(self.vectors), np.empty((len(self.sizes), self.vectors), np.uint8)
        for row, n in zip(vectors, self.sizes):
            keys, row[:] = np.divmod(keys, n + 1)
        return vectors.T

    @staticmethod
    def outer(per_class: Sequence[np.ndarray]) -> np.ndarray:
        """prod_k per_class[k][..., c_k] for every count vector, in key order
        along the last axis; leading axes broadcast."""
        return functools.reduce(
            lambda acc, v: (v[..., :, None] * acc[..., None, :]).reshape(*v.shape[:-1], -1),
            per_class[1:],
            per_class[0],
        )


@functools.cache
def _binomials(n: int) -> np.ndarray:
    """C(n, c) for c = 0..n, exact in int64 (C(64, 32) < 2^61); read-only."""
    row = np.array([math.comb(n, c) for c in range(n + 1)], dtype=np.int64)
    row.flags.writeable = False
    return row


@dataclass(frozen=True)
class SMPart:
    """A block of measured elements protected by one SM code.

    weights[j] is the Pauli weight of measured element j in systematic
    order, so bit j flips with probability p_err(weights[j], p_m).  What
    does not depend on p_m is built on first use and kept on this part:
    the failing-pattern histogram of minimum-weight decoding (exact
    evaluation, counted over cells or cosets, whichever is smaller:
    _exact_domain) and what Monte Carlo samples, the cells
    (_sampler_cells) or else the blocks: the sampler's per-block word
    tables, and each coset's runner-up cost under minimum-weight decoding
    (2^(n - k) bytes), which decodes the drawn words (_sm_decoder).
    """

    code: BinaryLinearCode
    weights: tuple[int, ...]
    decoder: str = COSET_LEADER

    def __post_init__(self):
        if self.code.length > MAX_SM_LENGTH:
            raise CapacityError(
                f"SM code length {self.code.length} exceeds the {MAX_SM_LENGTH}-bit word cap"
            )
        self._codewords  # every codeword is listed, so codewords() caps the dimension
        if len(self.weights) != self.code.length:
            raise StructureError("one weight per measured element is required")
        for j, w in enumerate(self.weights):
            if w < 1:
                raise StructureError(
                    f"measured element {j} has weight {w}: an all-zero SM column measures "
                    "the identity"
                )
        if self.decoder not in DECODERS:
            raise PreconditionError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")

    @property
    def total_measurements(self) -> int:
        return sum(self.weights)

    @cached_property
    def _codewords(self) -> np.ndarray:
        return np.array(self.code.codewords(), dtype=np.uint64)

    @cached_property
    def _unit_costs(self) -> _Costs:
        """Minimum-weight decoding, with the weight classes as classes."""
        return _Costs(self.weights)

    @cached_property
    def _unit_failures(self) -> np.ndarray:
        return _failing_patterns(self, self._unit_costs)

    @cached_property
    def _sampler_cells(self) -> Cells | None:
        """The unit-cost cells (_cells) when Monte Carlo draws one flip
        count per cell, else None and it draws the sampler blocks: cells are
        drawn when they need no more uniforms than the blocks, one per cell
        against two per block, and their count vectors at one point fit a
        joint table, prod (n_cell + 1) <= JOINT_TABLE_ENTRIES."""
        cells = _cells(self, self._unit_costs)
        blocks = sum(-(-n // SAMPLER_BLOCK_BITS) for n in self._unit_costs.sizes)
        fits = math.prod((cells[0] + 1).tolist()) <= JOINT_TABLE_ENTRIES
        return cells if fits and len(cells[0]) <= 2 * blocks else None

    @cached_property
    def _sampler_blocks(self) -> list[tuple[int, np.ndarray]]:
        """Each weight class split into near-equal blocks of at most
        SAMPLER_BLOCK_BITS bits, as (class index, table): the table holds
        the block's 2^N words on their bit positions, sorted by popcount,
        so the words with c flips are the C(N, c) entries after the first
        sum_{j<c} C(N, j)."""
        blocks = []
        for k, mask in enumerate(self._unit_costs.masks):
            positions = [j for j in range(self.code.length) if (int(mask) >> j) & 1]
            count = -(-len(positions) // SAMPLER_BLOCK_BITS)
            for block in np.array_split(np.array(positions, dtype=np.uint64), count):
                local = np.arange(1 << len(block), dtype=np.uint64)
                local = local[np.argsort(np.bitwise_count(local), kind="stable")]
                table = np.zeros_like(local)
                for i, position in enumerate(block):
                    table |= ((local >> np.uint64(i)) & np.uint64(1)) << position
                blocks.append((k, table))
        return blocks

    @cached_property
    def _unit_runner_up(self) -> np.ndarray:
        """Each coset's runner-up cost under the unit costs, by syndrome, by
        which Monte Carlo decodes minimum-weight decoding's words whatever
        the trials (_sm_decoder); built for at most 2^HARD_EXACT_BITS
        patterns."""
        return _runner_up_by_syndrome(self, self._unit_costs)

    def _pricing(self, p_m: float) -> tuple[_Costs, list[float]]:
        """The cost rule the decoder minimizes at p_m, and the flip
        probability of each of its classes.

        p_err runs once per weight, and the likelihood classes are found
        among the distinct weights, in first-seen order.  Weighted ML with
        one likelihood class and 0 < lambda < inf makes every comparison
        minimum-weight decoding makes, so it shares the unit costs (and
        their cached histogram); otherwise its costs are summed as
        weighted_ml_decode sums them, so exact ties are decided identically.
        """
        q = {w: p_err(w, p_m) for w in dict.fromkeys(self.weights)}
        costs = self._unit_costs
        if self.decoder == WEIGHTED_ML:
            lams, labels = likelihood_classes(list(q.values()))
            if not (len(lams) == 1 and 0.0 < lams[0] < math.inf):
                label = dict(zip(q, labels))
                costs = _Costs([label[w] for w in self.weights], lams)
        return costs, [q[self.weights[j]] for j in costs.first]


Part = RepetitionPart | SMPart


@dataclass(frozen=True)
class MeasurementScheme:
    name: str
    parts: tuple[Part, ...]

    @property
    def total_measurements(self) -> int:
        return sum(p.total_measurements for p in self.parts)


@dataclass(frozen=True)
class SimResult:
    p_se: float
    stderr: float
    trials: int
    method: str
    seed: int | None = None


# ----------------------------------------------------------------------
# exact evaluation
# ----------------------------------------------------------------------

def _majority_bit_failure(q: float, fold: int, counts: range | None = None) -> float:
    """P[Binomial(fold, q) in counts] by one fsum; by default counts are
    (fold + 1) // 2 ... fold, a wrong or tied majority for one bit under iid
    flips q."""
    if counts is None:
        counts = range((fold + 1) // 2, fold + 1)
    return math.fsum(math.comb(fold, c) * q**c * (1.0 - q) ** (fold - c) for c in counts)


def _coset_bases(code: BinaryLinearCode) -> Iterator[np.ndarray]:
    """The words (0, s) for every syndrome s, TILE_WORDS at a time.

    In systematic order (0, s) has syndrome s, so the cosets (0, s) ^ C
    partition F2^n and come out in syndrome order.
    """
    cosets = 1 << code.redundancy
    for start in range(0, cosets, TILE_WORDS):
        syndromes = np.arange(start, min(start + TILE_WORDS, cosets), dtype=np.uint64)
        yield syndromes << np.uint64(code.dim)


def _lowest_two(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]):
    """Merge two (lowest, second-lowest[, word of lowest]) tuples, counted
    with multiplicity; on a tie either word is kept, as neither is unique."""
    (low_a, second_a, *word_a), (low_b, second_b, *word_b) = a, b
    merged = (
        np.minimum(low_a, low_b),
        np.minimum(np.minimum(second_a, second_b), np.maximum(low_a, low_b)),
    )
    if word_a:
        merged += (np.where(low_b < low_a, word_b[0], word_a[0]),)
    return merged


def _coset_minima(base: np.ndarray, codewords: np.ndarray, costs: _Costs, word: bool = True):
    """(lowest, runner_up, lowest_word) over each coset base ^ C, costs
    counted with multiplicity; without word, (lowest, runner_up).

    A word is the unique minimum-cost member of its coset, the condition
    under which both decoders return it as the error pattern, iff it is
    lowest_word and lowest < runner_up.  Blocks of at most TILE_WORDS words
    (or one row) have a power-of-two row count, so each is reduced by
    merging its halves, in O(log rows) array operations.
    """
    ceiling = np.full(len(base), costs.ceiling, dtype=costs.dtype)
    minima = (ceiling, ceiling, base) if word else (ceiling, ceiling)
    rows = 1 << max(0, (TILE_WORDS // len(base)).bit_length() - 1)
    for start in range(0, len(codewords), rows):
        members = base ^ codewords[start:start + rows, None]
        cost = costs(members)
        block = (cost, np.full_like(cost, costs.ceiling), members)[:len(minima)]
        while len(block[0]) > 1:
            half = len(block[0]) // 2
            block = _lowest_two(tuple(x[:half] for x in block), tuple(x[half:] for x in block))
        minima = _lowest_two(minima, tuple(x[0] for x in block))
    return minima


def _runner_up_by_syndrome(part: SMPart, costs: _Costs) -> np.ndarray:
    return np.concatenate([_coset_minima(base, part._codewords, costs, word=False)[1]
                           for base in _coset_bases(part.code)])


Cells = tuple[np.ndarray, np.ndarray, np.ndarray]  # each cell's size, class and column


def _cells(part: SMPart, costs: _Costs) -> Cells:
    """The part's cells under the cost rule costs, the positions sharing one
    class and one generator column: each cell's size, class and column (bit
    i set iff systematic row i covers the cell).  A codeword flips a cell
    wholly or not at all, so whether a pattern decodes to zero depends only
    on its flip count in each cell."""
    cells = [(int(mask), k, 0) for k, mask in enumerate(costs.masks)]  # (positions, class, column)
    for i, row in enumerate(part.code.systematic_rows):
        cells = [(half, k, column | bit) for mask, k, column in cells
                 for half, bit in ((mask & row, 1 << i), (mask & ~row, 0)) if half]
    positions, classes, columns = zip(*cells)
    return np.array([m.bit_count() for m in positions]), np.array(classes), np.array(columns)


def _exact_domain(part: SMPart, costs: _Costs) -> tuple[int, Cells | None]:
    """How many entries exact evaluation enumerates for the part under the
    cost rule costs, and the cells when it enumerates them: the smaller of
    the V 2^k pairs of cell count vector and codeword (V = prod (n_cell + 1))
    and the 2^n patterns of the coset walk, the walk on a tie."""
    cells = _cells(part, costs)
    pairs = math.prod((cells[0] + 1).tolist()) << part.code.dim
    return (pairs, cells) if pairs < 1 << part.code.length else (1 << part.code.length, None)


def _boxes(radices: Sequence[int], limit: int) -> Iterator[tuple[slice, ...]]:
    """Boxes of at most limit mixed-radix vectors (or one) that tile all of
    them: one slice per digit, the leading digits whole as far as they fit."""
    slices, inner = [], 1
    for radix in radices:
        width = max(1, min(radix, limit // inner))
        slices.append([slice(lo, min(lo + width, radix)) for lo in range(0, radix, width)])
        inner *= width
    return itertools.product(*slices)


def _cell_decodes(part: SMPart, costs: _Costs, cells: Cells
                  ) -> Iterator[tuple[tuple[slice, ...], np.ndarray, np.ndarray]]:
    """Whether each cell count vector decodes to zero under the cost rule
    costs, whose classes the cells' classes index, at most TILE_WORDS pairs
    of count vector and codeword at a time: per box of count vectors (a
    slice of counts per cell), the cost key of each vector and whether it
    decodes, cell 0 fastest.

    Codeword m maps count e_j to n_j - e_j on every cell j it flips, so the
    key of each image is a sum of per-cell terms, laid out over the box one
    cell at a time.  The counts decode iff their cost is below the ceiling
    and every image's, the unique-minimum test of _coset_minima.
    """
    sizes, classes, columns = cells
    codewords, counts = np.arange(1 << part.code.dim), np.arange(sizes.max() + 1)
    flipped = np.bitwise_count(columns[:, None] & codewords)[:, :, None] & 1
    # terms[j, m, e]: the class key of e flips in cell j, after codeword m
    terms = np.where(flipped, (sizes[:, None] - counts)[:, None], counts)
    terms *= np.array(costs.strides)[classes, None, None]
    table = costs.table if costs.lams is not None else functools.reduce(  # flip counts by key
        np.add.outer, [np.arange(n + 1) for n in costs.sizes[::-1]]).ravel()
    for box in _boxes((sizes + 1).tolist(), max(1, TILE_WORDS >> part.code.dim)):
        keys = terms[0, :, box[0]]
        for j in range(1, len(box)):
            keys = (terms[j, :, box[j], None] + keys[:, None]).reshape(len(codewords), -1)
        cost = table.take(keys)
        yield box, keys[0], cost[0] < cost[1:].min(axis=0, initial=costs.ceiling)


def _cell_successes(part: SMPart, costs: _Costs, cells: Cells
                    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(cost key, number of patterns) of the cell count vectors that decode
    to zero (_cell_decodes); counts e_j stand for prod C(n_j, e_j) patterns."""
    binomials = [_binomials(n) for n in cells[0].tolist()]
    for box, keys, decodes in _cell_decodes(part, costs, cells):
        patterns = _Costs.outer([row[counts] for row, counts in zip(binomials, box)])
        yield keys[decodes], patterns[decodes]


def _failing_patterns(part: SMPart, costs: _Costs) -> np.ndarray:
    """Per cost key, the number of patterns the decoder fails on: all
    patterns minus those that decode to zero, counted over the smaller
    domain (_exact_domain), which must fit 2^HARD_EXACT_BITS entries, and
    binned a tile at a time in int64: each coset's unique minimum-cost
    member, where it has one (_coset_minima), or the cell count vectors
    that decode (_cell_successes), each with its number of patterns."""
    entries, cells = _exact_domain(part, costs)
    if entries > 1 << HARD_EXACT_BITS:
        raise CapacityError(f"exact enumeration over {entries} patterns or cell pairs exceeds "
                            f"the 2^{HARD_EXACT_BITS} cap")
    totals = costs.outer([_binomials(n) for n in costs.sizes])
    success = np.zeros_like(totals)
    if cells is None:
        for base in _coset_bases(part.code):
            low, second, words = _coset_minima(base, part._codewords, costs)
            success += np.bincount(costs.key(words[low < second]), minlength=len(totals))
    else:
        for keys, patterns in _cell_successes(part, costs, cells):
            np.add.at(success, keys, patterns)
    return totals - success


def _pattern_probabilities(q: float | np.ndarray, n: int) -> np.ndarray:
    """q^c (1 - q)^(n - c): one given pattern of c flips among n bits, along
    the last axis; q is a float or a column of them."""
    flips = np.arange(n + 1)
    return q**flips * (1.0 - q) ** (n - flips)


def _failure_sums(
    failing: np.ndarray, costs: _Costs, class_q: Sequence[Sequence[float]]
) -> list[float]:
    """For each row of per-class flip probabilities, the sum over count
    vectors c of failing[c] * prod_k q_k^c_k (1 - q_k)^(N_k - c_k).

    The (points x count vectors) table is built TILE_WORDS entries at a
    time, and each row is summed by one fsum over the nonzero counts.  A
    row holds the products one point alone would form, in the same order,
    so its sum does not depend on the other points.
    """
    nonzero = failing > 0
    counts = failing[nonzero]
    q = np.array(class_q, dtype=float)
    rows = max(1, TILE_WORDS // len(failing))
    sums = []
    for start in range(0, len(q), rows):
        tile = q[start:start + rows]
        probs = costs.outer([_pattern_probabilities(tile[:, k, None], n)
                             for k, n in enumerate(costs.sizes)])
        sums += [min(1.0, math.fsum(row)) for row in (probs[:, nonzero] * counts).tolist()]
    return sums


def _failure_probabilities(part: Part, p_ms: Sequence[float]) -> list[list[float]]:
    """At each p_m, the failure probability of each independently decoded
    unit of the part: the SM part itself, or each bit of a repetition part.

    An SM part's points are grouped by the cost rule their decoder
    minimizes, and each rule's failing-pattern histogram prices its points
    in one table.  Only the unit costs keep their histogram on the part.
    """
    if isinstance(part, SMPart):
        rules: dict[_Costs, list[tuple[int, list[float]]]] = {}
        for i, p_m in enumerate(p_ms):
            costs, class_q = part._pricing(p_m)
            rules.setdefault(costs, []).append((i, class_q))
        failures = [[0.0] for _ in p_ms]
        for costs, points in rules.items():
            failing = (part._unit_failures if costs is part._unit_costs
                       else _failing_patterns(part, costs))
            for (i, _), f in zip(points, _failure_sums(failing, costs, [q for _, q in points])):
                failures[i] = [f]
        return failures
    per_point = []
    for p_m in p_ms:
        per_weight = {w: _majority_bit_failure(p_err(w, p_m), part.fold) for w in set(part.weights)}
        per_point.append([per_weight[w] for w in part.weights])
    return per_point


def pse_exact(
    scheme: MeasurementScheme, p_m: float | Sequence[float]
) -> SimResult | list[SimResult]:
    """Exact p_se = 1 - prod(1 - f) over the independently decoded units.

    Taken as -expm1(sum log1p(-f)), so a small p_se keeps full relative
    precision instead of cancelling in 1 - prod(success).  A float p_m
    gives one result; a sequence gives one per point, in order, and each
    part is evaluated once over the whole grid.  A part object listed
    twice (equal X and Z parts) is evaluated once, counted twice.
    """
    scalar = np.ndim(p_m) == 0
    p_ms = [p_m] if scalar else list(p_m)
    distinct = {id(part): part for part in scheme.parts}
    per_part = {key: _failure_probabilities(part, p_ms) for key, part in distinct.items()}
    results = []
    for i in range(len(p_ms)):
        failures = [f for part in scheme.parts for f in per_part[id(part)][i]]
        if any(f >= 1.0 for f in failures):
            p_se = 1.0
        else:
            p_se = max(0.0, -math.expm1(math.fsum(math.log1p(-f) for f in failures)))
        results.append(SimResult(p_se=p_se, stderr=0.0, trials=0, method="exact"))
    return results[0] if scalar else results


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


Reader = Callable[[np.ndarray], np.ndarray]  # a part's uniform arrays (rows) -> per-trial result


def _draws(part: Part) -> int:
    """Uniform arrays a chunk draws for the part: for a repetition part one
    per distinct weight, in first-seen order; for an SM part one count array
    per cell, in _cells order, when it samples cells (SMPart._sampler_cells),
    else a count and then a position array per sampler block, in class
    order."""
    if isinstance(part, RepetitionPart):
        return len(set(part.weights))
    cells = part._sampler_cells
    return len(cells[0]) if cells is not None else 2 * len(part._sampler_blocks)


def _working(work: dict[str, np.ndarray], name: str, size: int, dtype=float) -> np.ndarray:
    """work[name] cut to size, allocated only when missing, too short or of
    another dtype.

    Readers run one tile at a time and share these arrays: a fresh
    tile-sized array per block and point would be mapped and unmapped by
    the allocator, a page fault per page each time.
    """
    array = work.get(name)
    if array is None or len(array) < size or array.dtype != dtype:
        array = work[name] = np.empty(size, dtype=dtype)
    return array if len(array) == size else array[:size]


class _Positions:
    """Where uniforms fall among the thresholds of a group of points.

    Point i's count at a uniform u is the number of its sorted thresholds
    at most u, here the inverse-CDF flip count of a cell or sampler block.
    The thresholds below 1 of all points (u < 1, so no other ever counts)
    are merged, sorted and distinct; u's position m is the number of merged
    values at most u, and counts[i, m] is point i's count at every u of
    position m, so one position serves every point.

    Positions are found by indexed search (Chen and Asau 1974; Devroye
    1986, III.2.4): guide[b] is the position of b / GUIDE_BUCKETS, which is
    the position of every u in bucket b = floor(u GUIDE_BUCKETS) unless a
    merged value lies inside the bucket, where guide[b] holds -1 - position;
    only those uniforms are searched.  The tables take
    8 GUIDE_BUCKETS + 8 m + points (m + 1) bytes for m merged values (a
    count is at most MAX_SM_LENGTH, one byte).
    """

    def __init__(self, thresholds: Sequence[np.ndarray]):
        # at most MASK_POINTS * MAX_SM_LENGTH values; np.unique would
        # import numpy.ma, 0.6 MB of code
        merged = {t for t in np.concatenate(thresholds).tolist() if t < 1.0}
        self.merged = np.array(sorted(merged), dtype=float)
        # T <= b / B iff b >= ceil(T B), which is exact as B is a power of
        # two, so position m fills buckets ceil(T_m B) to ceil(T_(m+1) B) - 1;
        # a T with T B not an integer lies inside bucket ceil(T B) - 1
        scaled = self.merged * GUIDE_BUCKETS
        ceil = np.ceil(scaled).astype(np.intp)
        edges = np.concatenate(([0], ceil, [GUIDE_BUCKETS]))
        self.guide = np.repeat(np.arange(len(ceil) + 1), edges[1:] - edges[:-1])
        inside = ceil[ceil != scaled] - 1
        self.guide[inside] = -1 - self.guide[inside]
        floors = np.concatenate(([-math.inf], self.merged))
        self.counts = np.array([np.searchsorted(t, floors, side="right") for t in thresholds],
                               dtype=np.uint8)

    @property
    def nbytes(self) -> int:
        return self.merged.nbytes + self.guide.nbytes + self.counts.nbytes

    def locate(self, u: np.ndarray, out: np.ndarray, work: dict[str, np.ndarray]) -> np.ndarray:
        """The position of each uniform in u, written to the intp array out."""
        np.multiply(u, GUIDE_BUCKETS, out=out, casting="unsafe")  # the bucket, as u >= 0
        # out[j] is read before it is written; with out=, mode "raise" would buffer a copy
        self.guide.take(out, out=out, mode="clip")
        fix = np.flatnonzero(np.less(out, 0, out=_working(work, "straddles", len(u), bool)))
        out[fix] = np.searchsorted(self.merged, u[fix], side="right")
        return out


def _mask_dtype(points: int) -> np.dtype:
    """The narrowest unsigned integer with a bit per point (at most MASK_POINTS)."""
    return next(dtype for dtype in map(np.dtype, (np.uint8, np.uint16, np.uint32, np.uint64))
                if points <= 8 * dtype.itemsize)


def _point_bits(flags: dict[int, np.ndarray], size: int, dtype: np.dtype) -> np.ndarray:
    """size masks whose bit i is flags[i] (points of one group)."""
    masks = np.zeros(size, dtype=dtype)
    for i, flag in flags.items():
        masks |= flag.astype(dtype) << dtype.type(i)
    return masks


Judge = tuple[Reader, int]  # a part's tile rows -> per-trial point masks, and the bytes it holds


def _repetition_reader(part: RepetitionPart, p_ms: Sequence[float], work: dict[str, np.ndarray],
                       dtype: np.dtype) -> Judge:
    """Point masks of a repetition part over a group of points: bit i of a
    trial's mask is set iff the trial fails at p_ms[i].

    A bit's flip count c ~ Binomial(fold, q) stays below the threshold
    t = (fold + 1) // 2, so its majority decodes, with probability
    s = F(t - 1), and bits flip independently, so the k bits of one weight
    all decode with probability s^k: per weight one uniform u is drawn, and
    one of its bits fails iff u >= s^k.
    """
    decoded = range((part.fold + 1) // 2)  # a bit decodes iff its flip count is below t
    thresholds = [[_majority_bit_failure(p_err(w, p_m), part.fold, decoded) ** part.weights.count(w)
                   for p_m in p_ms] for w in dict.fromkeys(part.weights)]
    bits = [dtype.type(1 << i) for i in range(len(p_ms))]

    def failed(uniforms: np.ndarray) -> np.ndarray:
        size = uniforms.shape[-1]
        out, hit = _working(work, "part", size, dtype), _working(work, "hit", size, dtype)
        flag = _working(work, "flag", size, bool)
        out.fill(0)
        for u, points in zip(uniforms, thresholds):
            for bit, threshold in zip(bits, points):
                np.greater_equal(u, threshold, out=flag)
                out |= np.multiply(flag.view(np.uint8), bit, out=hit)
        return out
    return failed, 0


@dataclass(frozen=True)
class _CountBlock:
    """A sampler block read for a group of points: its word table, the
    number (runs[c]) and first index (starts[c]) of its words with c
    flips, and where its count uniforms fall among each point's
    Binomial(N, q) CDF values F(0), ..., F(N - 1)."""

    table: np.ndarray
    runs: np.ndarray
    starts: np.ndarray
    positions: _Positions
    at_positions: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def index(self, i: int, pos: np.ndarray, v: np.ndarray, out: np.ndarray,
              work: dict[str, np.ndarray]) -> np.ndarray:
        """Point i's table indices at count positions pos and position
        uniforms v, written to the intp array out."""
        if i not in self.at_positions:  # point i's run and start at each position
            counts = self.positions.counts[i]
            self.at_positions[i] = self.runs.take(counts), self.starts.take(counts)
        runs, starts = self.at_positions[i]
        # indices are in range; with out=, mode "raise" would buffer a copy
        run = runs.take(pos, out=_working(work, "run", len(pos)), mode="clip")
        return _table_index(v, run, starts.take(pos, out=out, mode="clip"), out, work)


@functools.cache
def _block_runs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The number (runs[c]) and first index (starts[c]) of the words with c
    flips in an n-bit sampler block's table; shared, so read-only."""
    runs = _binomials(n).astype(float)
    starts = (np.cumsum(runs) - runs).astype(np.intp)
    runs.flags.writeable = starts.flags.writeable = False
    return runs, starts


def _block_cdf(runs: np.ndarray, q: float) -> np.ndarray:
    """F(0), ..., F(N - 1) of Binomial(N, q), N = len(runs) - 1."""
    return np.cumsum(runs * _pattern_probabilities(q, len(runs) - 1))[:-1]


def _count_positions(part: SMPart, p_ms: Sequence[float], digits: Sequence[tuple[int, int]]
                     ) -> list[_Positions]:
    """For each (class k, size n) of digits, where count uniforms fall among
    each point's Binomial(n, q_k) CDF values F(0), ..., F(n - 1); digits of
    one class and size share their CDFs, so one _Positions."""
    class_q = [[p_err(part.weights[j], p_m) for j in part._unit_costs.first] for p_m in p_ms]
    shared: dict[tuple[int, int], _Positions] = {}
    for k, n in digits:
        if (k, n) not in shared:
            shared[k, n] = _Positions([_block_cdf(_block_runs(n)[0], q[k]) for q in class_q])
    return [shared[digit] for digit in digits]


def _count_blocks(part: SMPart, p_ms: Sequence[float]) -> list[_CountBlock]:
    digits = [(k, len(table).bit_length() - 1) for k, table in part._sampler_blocks]
    return [_CountBlock(table, *_block_runs(n), positions) for (_, table), (_, n), positions
            in zip(part._sampler_blocks, digits, _count_positions(part, p_ms, digits))]


def _locate(positions: Sequence[_Positions], uniforms: Sequence[np.ndarray],
            work: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Each digit's (cell's or block's) count positions, read from its count
    uniforms; digit j's is working array pos<j>."""
    return [where.locate(u, _working(work, f"pos{j}", len(u), np.intp), work)
            for j, (where, u) in enumerate(zip(positions, uniforms))]


def _joint(positions: list[np.ndarray], widths: Sequence[int], work: dict[str, np.ndarray]):
    """Each trial's joint position, digit 0 fastest, from the digits' count
    positions (_locate) and numbers of positions (widths)."""
    joint = _working(work, "joint", len(positions[0]), np.intp)
    np.copyto(joint, positions[-1])
    for pos, width in zip(positions[-2::-1], widths[-2::-1]):
        joint *= width
        joint += pos
    return joint


def _at_joint(by_counts: np.ndarray, positions: Sequence[_Positions], i: int) -> np.ndarray:
    """A table over count vectors, last digit first, read at each joint
    position of point i, digit 0 fastest."""
    return by_counts[np.ix_(*[where.counts[i] for where in reversed(positions)])].ravel()


def _table_index(v: np.ndarray, run, start, out: np.ndarray, work: dict[str, np.ndarray]):
    """start + min(floor(v run), run - 1), written to the intp array out
    (which may be start): the table entry a position uniform v picks among
    the run words with c flips from index start.  run and start are
    numbers or per-trial arrays, and an array run is decremented in place."""
    pick = np.multiply(v, run, out=_working(work, "pick", len(v)))
    run = np.subtract(run, 1.0, out=run if isinstance(run, np.ndarray) else None)
    np.minimum(pick, run, out=pick)
    # truncated in place (each entry is read before it is written), as
    # astype does: pick >= 0, so that is the floor
    floor = pick.view(np.intp)
    np.copyto(floor, pick, casting="unsafe")
    return np.add(floor, start, out=out)


def _words(blocks: list[_CountBlock], i: int, v: Sequence[np.ndarray],
           positions: Sequence[np.ndarray], work: dict[str, np.ndarray]) -> np.ndarray:
    """Point i's received words: per block, the table word its count
    position (_locate) and position uniform v pick; the blocks cover
    disjoint bits, so they are ORed."""
    size = len(v[0])
    words, index = _working(work, "words", size, np.uint64), _working(work, "index", size, np.intp)
    for j, (block, pos, u) in enumerate(zip(blocks, positions, v)):
        block.index(i, pos, u, index, work)
        # each word overwrites the index it is read at; with out=, mode
        # "raise" would buffer a copy
        word = block.table.take(index, out=index.view(np.uint64) if j else words, mode="clip")
        if j:
            words |= word
    return words


def _syndromes(part: SMPart, words: np.ndarray) -> np.ndarray:
    """In systematic order w ^ C[w mod 2^k] is (0, s), s the syndrome of w."""
    low = (words & np.uint64(len(part._codewords) - 1)).astype(np.intp)
    return ((words ^ part._codewords.take(low)) >> np.uint64(part.code.dim)).astype(np.intp)


def _syndrome_table_bytes(code: BinaryLinearCode, trials: float) -> int:
    """Bytes of the per-syndrome runner-up table (float costs) that
    _sm_decoder builds under a cost rule other than the unit costs, for a
    run decoding trials words, or 0 when it scans each word's coset: the
    table walks all 2^n patterns once, the scan 2^k codewords per word, so
    the table pays from 2^(n - k) words on."""
    pays = code.length <= HARD_EXACT_BITS and trials >= 1 << code.redundancy
    return 8 << code.redundancy if pays else 0


def _sm_decoder(
    part: SMPart, costs: _Costs, trials: float = math.inf
) -> Callable[[np.ndarray], np.ndarray]:
    """Which received words the part's decoder fails on under the cost rule
    costs (SMPart._pricing), for a run that decodes trials words.

    A word succeeds iff it is the unique minimum-cost member of its coset,
    iff its cost is below its coset's runner-up cost.  That cost is looked
    up by syndrome: under the unit costs in the table the part keeps
    (SMPart._unit_runner_up) when it has at most 2^HARD_EXACT_BITS
    patterns, under another rule in a table computed here when that pays
    (_syndrome_table_bytes).  Otherwise each word's coset is scanned.  All
    give the same decisions.
    """
    if costs is part._unit_costs and part.code.length <= HARD_EXACT_BITS:
        table = part._unit_runner_up
    elif _syndrome_table_bytes(part.code, trials):
        table = _runner_up_by_syndrome(part, costs)
    else:
        table = None

    def failed(words: np.ndarray) -> np.ndarray:
        if table is None:
            runner_up = _coset_minima(words, part._codewords, costs, word=False)[1]
        else:
            runner_up = table[_syndromes(part, words)]
        return ~(costs(words) < runner_up)
    return failed


def _sm_reader(part: SMPart, p_ms: Sequence[float], costs: Sequence[_Costs], trials: int,
               work: dict[str, np.ndarray], dtype: np.dtype) -> Judge:
    """Point masks of an SM part that samples blocks over a group of points:
    bit i of a trial's mask is set iff the trial fails at p_ms[i], whose
    decoder minimizes costs[i].

    Each block's count uniforms are placed once among every point's CDF
    values (_Positions), and each tile's count positions are located once
    for all its points (_locate).  The points of one cost rule share one
    decoder (_sm_decoder).

    A part of one block decodes the block's table words once per rule.  A
    point reads, at a trial's count position, whether every word with that
    count c fails; where only some do, the position uniform v decides
    alone: entry min(floor(v C(N, c)), C(N, c) - 1) of the decisions of the
    C(N, c) words with c flips is read once per tile and rule for every
    trial, whatever the points.  A part of several blocks assembles each
    point's words (_words) and decodes them; the bytes reported count the
    per-syndrome tables its decoders build, not the unit-cost table the
    part keeps.
    """
    blocks = _count_blocks(part, p_ms)
    where = [block.positions for block in blocks]
    held = sum(positions.nbytes for positions in {id(p): p for p in where}.values())
    if len(blocks) > 1:
        decoders = {rule: _sm_decoder(part, rule, trials) for rule in dict.fromkeys(costs)}

        def decoded(uniforms: np.ndarray) -> np.ndarray:
            size = uniforms.shape[-1]
            out, hit = _working(work, "part", size, dtype), _working(work, "hit", size, dtype)
            positions, v = _locate(where, uniforms[0::2], work), uniforms[1::2]
            out.fill(0)
            for i, rule in enumerate(costs):
                failing = decoders[rule](_words(blocks, i, v, positions, work))
                out |= np.multiply(failing.view(np.uint8), dtype.type(1 << i), out=hit)
            return out
        built = sum(rule is not part._unit_costs for rule in decoders)
        return decoded, held + built * _syndrome_table_bytes(part.code, trials)

    (block,) = blocks
    counts = block.positions.counts
    fails: dict[int, np.ndarray] = {}
    # per rule and count c whose words partly fail: C(N, c), point masks, decisions of the words
    mixed: list[tuple[float, np.ndarray, np.ndarray]] = []
    for rule in dict.fromkeys(costs):
        decisions = _sm_decoder(part, rule, len(block.table))(block.table)
        every = np.logical_and.reduceat(decisions, block.starts)
        points = [i for i, point_rule in enumerate(costs) if point_rule is rule]
        fails.update((i, every.take(counts[i])) for i in points)
        for c in np.flatnonzero(np.logical_or.reduceat(decisions, block.starts) > every):
            masks = _point_bits({i: counts[i] == c for i in points}, counts.shape[1], dtype)
            if masks.any():
                words = decisions[block.starts[c]:block.starts[c] + int(block.runs[c])]
                mixed.append((block.runs[c], masks, words))
    table = _point_bits(fails, counts.shape[1], dtype)

    def failed(uniforms: np.ndarray) -> np.ndarray:
        size = uniforms.shape[-1]
        out, hit = _working(work, "part", size, dtype), _working(work, "hit", size, dtype)
        (positions,) = _locate(where, uniforms[:1], work)
        table.take(positions, out=out, mode="clip")
        for run, masks, at_count in mixed:
            index = _table_index(uniforms[1], run, 0, _working(work, "index", size, np.intp), work)
            decided = at_count.take(index, out=_working(work, "decided", size, bool), mode="clip")
            masks.take(positions, out=hit, mode="clip")
            out |= np.multiply(hit, decided, out=hit)
        return out
    held += table.nbytes + sum(masks.nbytes + at_count.nbytes for _, masks, at_count in mixed)
    return failed, held


def _cell_flags(part: SMPart, costs: _Costs) -> np.ndarray:
    """Whether each count vector of the part's sampler cells decodes under
    the cost rule costs (_cell_decodes), indexed by the counts, last cell
    first.  Each weight class lies in one class of the rule, the class of
    its first position."""
    sizes, classes, columns = part._sampler_cells
    rule_class = np.array([next(c for c, mask in enumerate(costs.masks) if (int(mask) >> j) & 1)
                           for j in part._unit_costs.first])
    flags = np.empty(tuple((sizes + 1)[::-1].tolist()), dtype=bool)
    for box, _, decodes in _cell_decodes(part, costs, (sizes, rule_class[classes], columns)):
        flags[box[::-1]] = decodes.reshape([counts.stop - counts.start for counts in box[::-1]])
    return flags


def _cell_reader(part: SMPart, p_ms: Sequence[float], costs: Sequence[_Costs],
                 work: dict[str, np.ndarray], dtype: np.dtype) -> Judge:
    """Point masks of an SM part that samples cells (SMPart._sampler_cells)
    over a group of points: bit i of a trial's mask is set iff the trial
    fails at p_ms[i], whose decoder minimizes costs[i].

    A cell of n bits of weight class k flips Binomial(n, q_k) of them,
    independently of the other cells, and one uniform per cell gives that
    count by inverse CDF (_Positions, shared by the cells of one class and
    size).  Whether a pattern decodes depends only on its count vector over
    the cells, under every cost rule, as each weight class lies within one
    class of the rule; so each point reads its rule's decode flags
    (_cell_decodes) at every joint position of the cells, at most
    JOINT_TABLE_ENTRIES (_group_width), into one table of point masks, and
    a trial is judged by one lookup.  No word is drawn or decoded.
    """
    sizes, classes, _ = part._sampler_cells
    where = _count_positions(part, p_ms, list(zip(classes.tolist(), sizes.tolist())))
    flags: dict[_Costs, np.ndarray] = {}
    fails = {}
    for i, rule in enumerate(costs):
        if rule not in flags:
            flags[rule] = _cell_flags(part, rule)
        fails[i] = ~_at_joint(flags[rule], where, i)
    widths = [positions.counts.shape[1] for positions in where]
    table = _point_bits(fails, math.prod(widths), dtype)

    def failed(uniforms: np.ndarray) -> np.ndarray:
        joint = _joint(_locate(where, uniforms, work), widths, work)
        return table.take(joint, out=_working(work, "part", len(joint), dtype), mode="clip")
    return failed, table.nbytes + sum(p.nbytes for p in {id(p): p for p in where}.values())


def _group_width(rules: Iterable[tuple[SMPart, Sequence[_Costs]]], points: int,
                 trials: int) -> int:
    """How many points are judged together, given each SM part with its
    points' cost rules: at most MASK_POINTS, and few enough that each part
    judged by one table lookup, whose N_j-bit cells or one block take at
    most width N_j + 1 positions each, has at most JOINT_TABLE_ENTRIES joint
    positions, and that the per-syndrome tables that parts of several
    blocks build for rules other than the unit costs
    (_syndrome_table_bytes), one per point, fit PASS_BYTES (unless one
    point alone exceeds either)."""
    width, per_point = max(1, min(MASK_POINTS, points)), 0
    for part, costs in rules:
        cells = part._sampler_cells
        if cells is None and len(part._sampler_blocks) > 1:
            if any(rule is not part._unit_costs for rule in costs):
                per_point += _syndrome_table_bytes(part.code, trials)
            continue
        bits = cells[0].tolist() if cells is not None else [part.code.length]  # the one block
        while width > 1 and math.prod(width * n + 1 for n in bits) > JOINT_TABLE_ENTRIES:
            width -= 1
    return max(1, min(width, PASS_BYTES // per_point)) if per_point else width


def _count_failures(
    scheme: MeasurementScheme, p_ms: Sequence[float], trials: int, seed: int, chunk_size: int,
) -> list[int]:
    """Failed trials at each p_m, every point reading the same draws.

    Points are judged in groups of _group_width: each part reads a tile
    into one mask per trial, bit i for the group's point i
    (_repetition_reader, _sm_reader), the scheme fails where any part
    does, and each point counts its bit.  Groups share a pass over the
    chunks (_judge_chunks) while their tables, decoders' per-syndrome tables
    included, hold less than PASS_BYTES, so a pass holds at most PASS_BYTES
    plus one group's tables.
    """
    distinct = {id(part): part for part in scheme.parts}  # equal X and Z parts share a reader
    rules = {key: [part._pricing(p_m)[0] for p_m in p_ms]
             for key, part in distinct.items() if isinstance(part, SMPart)}
    width = _group_width([(distinct[key], costs) for key, costs in rules.items()],
                         len(p_ms), trials)
    dtype = _mask_dtype(width)
    failures, work = [0] * len(p_ms), {}  # the groups share their working arrays

    def judge(key: int, part: Part, points: range) -> Judge:
        group = [p_ms[i] for i in points]
        if key not in rules:
            return _repetition_reader(part, group, work, dtype)
        costs = rules[key][points.start:points.stop]
        if part._sampler_cells is not None:
            return _cell_reader(part, group, costs, work, dtype)
        return _sm_reader(part, group, costs, trials, work, dtype)

    def judges(points: range) -> tuple[list[Reader], int]:
        made = {key: judge(key, part, points) for key, part in distinct.items()}
        return [made[id(part)][0] for part in scheme.parts], sum(held for _, held in made.values())

    groups = [range(lo, min(lo + width, len(p_ms))) for lo in range(0, len(p_ms), width)]
    while groups:
        passing, held = [], 0
        while groups and held < PASS_BYTES:
            points = groups.pop(0)
            readers, nbytes = judges(points)
            passing.append((points, readers))
            held += nbytes
        _judge_chunks(scheme, passing, failures, trials, seed, chunk_size, work, dtype)
    return failures


def _judge_chunks(scheme: MeasurementScheme, passing: list[tuple[range, list[Reader]]],
                  failures: list[int], trials: int, seed: int, chunk_size: int,
                  work: dict[str, np.ndarray], dtype: np.dtype):
    """Add each group's failed trials to failures, in one pass over the chunks.

    Chunk c's stream holds the parts' uniform arrays back to back, each
    size long, so entry t of array a is draw a * size + t.  The chunk is
    walked in tiles of at most TILE_WORDS trials: each array's slice is
    drawn from the chunk's start state advanced to it, and every group
    judges the tile.
    """
    ends = list(itertools.accumulate(_draws(part) for part in scheme.parts))
    spans = list(zip([0] + ends[:-1], ends))
    uniforms = np.empty((ends[-1] if ends else 0, min(TILE_WORDS, chunk_size, trials)))
    for chunk_index, start in enumerate(range(0, trials, chunk_size)):
        size = min(chunk_size, trials - start)
        rng = _chunk_rng(seed, chunk_index)
        state = rng.bit_generator.state
        for offset in range(0, size, uniforms.shape[1]):
            tile = uniforms[:, :min(uniforms.shape[1], size - offset)]
            for a, row in enumerate(tile):
                rng.bit_generator.state = state
                rng.bit_generator.advance(a * size + offset)
                rng.random(out=row)
            for points, readers in passing:
                failed = _working(work, "failed", tile.shape[1], dtype)
                failed.fill(0)
                for (lo, hi), read in zip(spans, readers):
                    failed |= read(tile[lo:hi])
                bit = _working(work, "bit", tile.shape[1], dtype)
                for i, point in enumerate(points):
                    np.bitwise_and(failed, dtype.type(1 << i), out=bit)
                    failures[point] += int(np.count_nonzero(bit))


def pse_monte_carlo(
    scheme: MeasurementScheme,
    p_m: float | Sequence[float],
    trials: int,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SimResult | list[SimResult]:
    """Sampled p_se; deterministic for fixed (seed, trials, chunk_size).

    A float p_m gives one result; a sequence gives one per point, in order,
    each equal to the float call at that point.  The points read the same
    draws, so one pass over the chunks counts them all, or as many as fit
    PASS_BYTES of tables, decoders' per-syndrome tables included
    (_count_failures).  Every p_m is checked before any draw.
    """
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    if chunk_size < 1:
        raise PreconditionError(f"chunk_size must be >= 1, got {chunk_size}")
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")
    scalar = np.ndim(p_m) == 0
    p_ms = [p_m] if scalar else list(p_m)
    _check_p_ms(p_ms)
    results = []
    for failures in _count_failures(scheme, p_ms, trials, seed, chunk_size):
        p_hat = failures / trials
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
        results.append(SimResult(p_se=p_hat, stderr=stderr, trials=trials,
                                 method="monte-carlo", seed=seed))
    return results[0] if scalar else results


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    log2_pm: float
    log2_pse: float
    stderr: float
    trials: int
    total_measurements: int
    scheme: str
    method: str


CSV_HEADER = ("log2_pm", "log2_pse", "stderr", "trials", "total_measurements", "scheme", "method")


def exact_is_feasible(scheme: MeasurementScheme) -> bool:
    """Whether every SM part's exact domain (_exact_domain) fits
    2^HARD_EXACT_BITS entries; weight classes are the finest classes any
    cost rule has."""
    return all(isinstance(p, RepetitionPart)
               or _exact_domain(p, p._unit_costs)[0] <= 1 << HARD_EXACT_BITS for p in scheme.parts)


def sweep(
    scheme: MeasurementScheme,
    pm_log2_grid: Sequence[float],
    method: str = "auto",
    trials: int = 10**6,
    seed: int = 0,
) -> list[SweepRow]:
    """Evaluate p_se over a grid of log2(p_m) values, in grid order.

    method "auto" uses exact evaluation when every SM part enumerates at
    most 2^HARD_EXACT_BITS patterns or cell pairs (exact_is_feasible) and
    Monte Carlo otherwise.  Either
    method takes the whole grid in one call (pse_exact, pse_monte_carlo).
    A grid point whose p_m lies outside [0, 1] raises PreconditionError
    before any point is evaluated.
    """
    if not len(pm_log2_grid):
        raise PreconditionError("empty p_m grid")
    if method not in ("auto", "exact", "mc"):
        raise PreconditionError(f"method must be auto, exact, or mc, got {method!r}")
    if method == "auto":
        method = "exact" if exact_is_feasible(scheme) else "mc"
    # 2.0**lp overflows from 1024 on
    p_ms = [math.inf if lp >= 1024 else 2.0**lp for lp in pm_log2_grid]
    _check_p_ms(p_ms)
    if method == "exact":
        results = pse_exact(scheme, p_ms)
    else:
        results = pse_monte_carlo(scheme, p_ms, trials, seed)
    rows = []
    for lp, result in zip(pm_log2_grid, results):
        log2_pse = math.log2(result.p_se) if result.p_se > 0 else -math.inf
        rows.append(
            SweepRow(
                log2_pm=lp,
                log2_pse=log2_pse,
                stderr=result.stderr,
                trials=result.trials,
                total_measurements=scheme.total_measurements,
                scheme=scheme.name,
                method=result.method,
            )
        )
    return rows


def sweep_csv(rows: Iterable[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(
            [f"{r.log2_pm:.10g}", repr(r.log2_pse), f"{r.stderr:.6g}",
             r.trials, r.total_measurements, r.scheme, r.method]
        )
    return buf.getvalue()


def write_sweep_csv(rows: Iterable[SweepRow], path: str | Path) -> None:
    Path(path).write_text(sweep_csv(rows))


# ----------------------------------------------------------------------
# scheme builders
# ----------------------------------------------------------------------

def split_rows_by_type(rows: Sequence[F4Vector]) -> tuple[list[F4Vector], list[F4Vector]]:
    """Partition generators into X-type and Z-type rows."""
    x_rows, z_rows = [], []
    for row in rows:
        if row.z == 0:
            x_rows.append(row)
        elif row.x == 0:
            z_rows.append(row)
        else:
            raise StructureError(
                f"row {row} mixes X and Z components; per-type SM protection needs CSS-type rows"
            )
    return x_rows, z_rows


def repetition_scheme(
    code: StabilizerCode | SubsystemCode, fold: int, name: str = ""
) -> MeasurementScheme:
    if fold < 1:
        raise PreconditionError(f"fold must be >= 1, got {fold}")
    weights = tuple(r.weight for r in code.rows)
    return MeasurementScheme(name or f"repetition-{fold}", (RepetitionPart(weights, fold),))


def _sm_part(rows: Sequence[F4Vector], sm: BinaryLinearCode, decoder: str) -> SMPart:
    elements = measured_elements(rows, sm)
    return SMPart(code=sm, weights=tuple(v.weight for v in elements), decoder=decoder)


def sm_scheme(
    code: StabilizerCode | SubsystemCode,
    sm_x: BinaryLinearCode,
    sm_z: BinaryLinearCode,
    decoder: str = COSET_LEADER,
    name: str = "",
) -> MeasurementScheme:
    """Protect the X-type and Z-type syndromes with separate SM codes.

    The generators are measured in the code's row order: permuting the
    Z rows changes which stabilizer products are measured and hence the
    measurement total, so a caller that needs a given total reorders the
    rows first (build_scheme does, from _shor_z_order_for_total).
    Equal parts are one object, so what a part caches is built once.
    """
    x_rows, z_rows = split_rows_by_type(code.rows)
    x = _sm_part(x_rows, sm_x, decoder)
    z = _sm_part(z_rows, sm_z, decoder)
    return MeasurementScheme(name or "sm-scheme", (x, x if z == x else z))


def _shor_z_order_for_total(
    sm: BinaryLinearCode, z_rows: Sequence[F4Vector], target: int
) -> tuple[int, ...]:
    """First generator permutation (lexicographic) whose measured Z elements
    have Pauli weights summing to the target."""
    for perm in itertools.permutations(range(len(z_rows))):
        elements = measured_elements([z_rows[i] for i in perm], sm)
        if sum(v.weight for v in elements) == target:
            return perm
    raise StructureError(
        f"no generator permutation reaches {target} total Z measurements with SM code {sm.name}"
    )


# name -> (base code, fold) for a repetition scheme, or (base code, X SM code,
# Z SM code[, Z-measurement total]) for an SM scheme; a total makes build_scheme
# measure the Z generators in the first order that reaches it
SCHEMES: dict[str, tuple] = {
    "fig1-shor-6fold": ("shor", 6),
    "fig1-shor-sm": ("shor", "cw-12-2-8", "grassl-18-6-8"),
    "fig1-bs-6fold": ("bacon-shor", 6),
    "fig1-bs-sm": ("bacon-shor", "cw-12-2-8", "cw-12-2-8"),
    "fig2-shor-204": ("shor", "cw-17-2-11", "grassl-25-6-11", 102),
    "fig2-shor-216": ("shor", "cw-18-2-12", "grassl-25-6-11", 108),
    "fig2-bs-204": ("bacon-shor", "cw-17-2-11", "cw-17-2-11"),
    "fig2-bs-216": ("bacon-shor", "cw-18-2-12", "cw-18-2-12"),
}


def build_scheme(
    name: str,
    data_dir: str | Path | None = None,
    decoder: str = COSET_LEADER,
) -> MeasurementScheme:
    """Construct one of the named figure schemes (SCHEMES).

    Schemes whose SM codes are import-only raise AvailabilityError naming
    the required file when the data directory does not provide it.
    """
    if name not in SCHEMES:
        raise PreconditionError(f"unknown scheme {name!r}; known: {', '.join(SCHEMES)}")
    base, *spec = SCHEMES[name]
    code = catalog(base)
    if len(spec) == 1:
        return repetition_scheme(code, spec[0], name)
    x_name, z_name, *total = spec
    sm_x = sm_catalog(x_name)
    sm_z = sm_x if z_name == x_name else sm_catalog(z_name, data_dir)
    if total:
        x_rows, z_rows = split_rows_by_type(code.rows)
        order = _shor_z_order_for_total(sm_z, z_rows, *total)
        code = make_stabilizer(x_rows + [z_rows[i] for i in order])
    return sm_scheme(code, sm_x, sm_z, decoder, name=name)
