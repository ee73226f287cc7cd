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
The failing patterns of each cost rule are counted once, in one pass that
keeps each coset's lowest two costs and lowest-cost word, as a histogram
over per-class flip counts; a repetition bit fails with a sum of binomial
terms.  The points of one rule are priced in one table: a row of
per-class pattern probabilities per point, TILE_WORDS entries at a time,
each row summed against the histogram by one fsum.  The unit failure
probabilities f_i combine as p_se = -expm1(sum log1p(-f_i)), so a tiny
p_se keeps its precision.

Monte Carlo draws flip counts, not one float per flip.  Each bit of a
repetition part takes one uniform u and fails iff u >= F(t - 1), the
Binomial(fold, q) lower-tail CDF at the majority threshold t.  An SM
part's weight classes, each with q = p_err(w, p_m), are split into
near-equal blocks of at most SAMPLER_BLOCK_BITS bits; per block a first
uniform gives the flip count c by inverse CDF of Binomial(N, q), and a
second picks one of the C(N, c) words with c flips from a table of the
block's words sorted by popcount.  When the part's costs are the unit
costs (coset-leader, or weighted ML with one likelihood class) and it has
at most 2^HARD_EXACT_BITS patterns, its decisions do not depend on p_m:
the drawn block indices, concatenated, address a per-pattern failure
table built once per part, and no word is assembled or decoded.
Otherwise the block words are ORed into a uint64 word and decoded by the
coset's unique-minimum test.

Monte Carlo runs are reproducible bit-for-bit: trials are partitioned
into chunks of fixed size, and chunk c draws from
numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=(c,))),
i.e. PCG64 seeded through numpy's documented SeedSequence hash.  Within
a chunk the parts draw in scheme order: a repetition part one array of
uniforms per syndrome bit, an SM part a count array then a position
array per block, blocks in class order.  The arrays do not depend on
p_m, so every point of a sweep reads the same chunk streams, and a grid
call draws them once per pass: one pass serves every point whose tables,
decoders' per-syndrome tables included, fit PASS_BYTES.  A pass walks
each chunk in tiles of at most TILE_WORDS trials; a float64 takes one
64-bit draw, so a tile's slice of array a is drawn from the chunk's start
state moved by PCG64.advance to draw a * size + (tile offset).

Each tile is judged once for a group of up to MASK_POINTS points: every
part turns it into one integer mask per trial, bit i set when the trial
fails at point i, and the scheme fails where any part does.  A count
uniform is placed once among the CDF values of all the group's points,
by a guide table of GUIDE_BUCKETS buckets (_Positions), and each point
reads its count at that position.  A table-judged part keeps a verdict
per count vector (SMPart._verdicts): every pattern with those counts
decodes, every one fails, or it depends on the positions.  A table over
the blocks' joint positions, at most JOINT_TABLE_ENTRIES of them, gives
each trial's fail bits and mixed bits for all points at once, and only
the mixed trials read the per-pattern table.
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

from .codes import StabilizerCode, SubsystemCode, catalog
from .errors import CapacityError, PreconditionError, StructureError
from .gf4 import F4Vector
from .qds import measured_elements
from .smcodes import BinaryLinearCode, likelihood_classes, pattern_cost, sm_catalog

HARD_EXACT_BITS = 25  # longest SM part whose 2^n patterns any p_se path enumerates
MAX_SM_LENGTH = 64  # received words are packed into uint64
DEFAULT_CHUNK_SIZE = 1 << 16  # Monte Carlo trials per chunk, each chunk its own RNG stream
TILE_WORDS = 1 << 14  # entries per working array of the coset walks and the exact table
SAMPLER_BLOCK_BITS = 16  # longest run of one class's bits a sampler table enumerates
MASK_POINTS = 64  # grid points judged together by Monte Carlo, one bit each of a uint64 mask
GUIDE_BUCKETS = 1 << 12  # guide-table buckets that place a uniform among merged thresholds
JOINT_TABLE_ENTRIES = 1 << 16  # joint positions of a multi-block part's point-mask tables
PASS_BYTES = 1 << 25  # point-judging tables one Monte Carlo pass over the chunks builds

COSET_LEADER = "coset-leader"
WEIGHTED_ML = "weighted-ml"
DECODERS = (COSET_LEADER, WEIGHTED_ML)

_MIXED, _FAILS = 1, 2  # SMPart._verdicts: 0 when every pattern of a count vector decodes


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
    count (minimum-weight decoding); with lams it is smcodes.pattern_cost.
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
        self.lams = lams
        # small integers: comparisons run on uint8, and MAX_SM_LENGTH < 255
        self.ceiling = np.iinfo(np.uint8).max if lams is None else math.inf
        # keys are summed in the narrowest type that holds them
        vectors = math.prod(size + 1 for size in self.sizes)
        self.key_type = np.uint16 if vectors <= 1 << 16 else np.intp

    @cached_property
    def table(self) -> np.ndarray:
        """Each count vector's cost, in key order, built on first use."""
        vectors = self.count_vectors()
        if self.lams is None:
            return np.array([sum(counts) for counts in vectors], dtype=np.uint8)
        # the cost weighted_ml_decode forms, so ties are decided alike
        return np.array([pattern_cost(c, self.sizes, self.lams) for c in vectors], dtype=float)

    def key(self, words: np.ndarray) -> np.ndarray:
        key = None
        stride = 1
        for mask, size in zip(self.masks, self.sizes):
            counts = np.bitwise_count(words & mask)
            key = counts if key is None else key + counts * self.key_type(stride)
            stride *= size + 1
        return key

    def __call__(self, words: np.ndarray) -> np.ndarray:
        if self.lams is None:
            return np.bitwise_count(words)
        return self.table.take(self.key(words))

    def count_vectors(self) -> list[tuple[int, ...]]:
        """Every per-class count vector, in key order."""
        ranges = (range(size + 1) for size in reversed(self.sizes))
        return [counts[::-1] for counts in itertools.product(*ranges)]

    def outer(self, per_class: Sequence[np.ndarray]) -> np.ndarray:
        """prod_k per_class[k][..., c_k] for every count vector, in key order
        along the last axis; leading axes broadcast."""
        return functools.reduce(
            lambda acc, v: (v[..., :, None] * acc[..., None, :]).reshape(*v.shape[:-1], -1),
            per_class[1:],
            per_class[0],
        )


@dataclass(frozen=True)
class SMPart:
    """A block of measured elements protected by one SM code.

    weights[j] is the Pauli weight of measured element j in systematic
    order, so bit j flips with probability p_err(weights[j], p_m).  What
    does not depend on p_m is built on first use and kept on this part:
    the failing-pattern histogram of minimum-weight decoding (exact
    evaluation), the sampler's per-block word tables, the per-pattern
    decisions of minimum-weight decoding (2^n bools, Monte Carlo), and
    their verdict per flip-count vector of the blocks (prod (N_j + 1)
    bytes, Monte Carlo).
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
    def _decisions(self) -> np.ndarray:
        """Whether minimum-weight decoding fails on each pattern, indexed by
        the concatenated _sampler_blocks table indices, block 0 least
        significant."""
        return _decision_table(self)

    @cached_property
    def _verdicts(self) -> np.ndarray:
        """Per flip-count vector over the sampler blocks (digit j in 0..N_j,
        block 0 least significant, as in _decisions): 0 when every pattern
        with those counts decodes, _FAILS when every one fails, _MIXED when
        it depends on where the flips are.  Reduced from _decisions over each
        block's popcount runs by bool reductions, the longest block first, so
        it takes prod (N_j + 1) <= 2^n bytes and copies no int of _decisions."""
        bits = [len(table).bit_length() - 1 for _, table in self._sampler_blocks]
        some = every = self._decisions.reshape([1 << n for n in reversed(bits)])
        for j in sorted(range(len(bits)), key=lambda j: -bits[j]):
            starts = [0, *itertools.accumulate(math.comb(bits[j], c) for c in range(bits[j]))]
            axis = len(bits) - 1 - j  # block 0 is the last axis
            some = np.logical_or.reduceat(some, starts, axis=axis)
            every = np.logical_and.reduceat(every, starts, axis=axis)
        return (some.view(np.uint8) + every.view(np.uint8)).ravel()

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
    ceiling = np.full(len(base), costs.ceiling, dtype=costs.table.dtype)
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


def _failing_patterns(part: SMPart, costs: _Costs) -> np.ndarray:
    """Per cost key, the number of patterns the decoder fails on.

    A pattern is decoded to zero iff it is the unique minimum-cost member
    of its coset, so each coset holds at most one success, binned here by
    its key; the failures are all patterns minus the successes.
    """
    code = part.code
    if code.length > HARD_EXACT_BITS:
        raise CapacityError(
            f"exact enumeration over 2^{code.length} patterns exceeds the 2^{HARD_EXACT_BITS} cap"
        )
    totals = costs.outer(
        [np.array([math.comb(n, c) for c in range(n + 1)], dtype=np.int64) for n in costs.sizes]
    )
    success = np.zeros_like(totals)
    for base in _coset_bases(code):
        low, second, word = _coset_minima(base, part._codewords, costs)
        success += np.bincount(costs.key(word[low < second]), minlength=len(totals))
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


def _sm_failures_exact(part: SMPart, p_ms: Sequence[float]) -> list[float]:
    """Failure probability at each p_m.

    Points are grouped by the cost rule their decoder minimizes, and each
    rule's failing-pattern histogram prices its points in one table.  Only
    the unit costs keep their histogram on the part.
    """
    rules: dict[_Costs, list[tuple[int, list[float]]]] = {}
    for i, p_m in enumerate(p_ms):
        costs, class_q = part._pricing(p_m)
        rules.setdefault(costs, []).append((i, class_q))
    failures = [0.0] * len(p_ms)
    for costs, points in rules.items():
        failing = part._unit_failures if costs is part._unit_costs else _failing_patterns(part, costs)
        for (i, _), f in zip(points, _failure_sums(failing, costs, [q for _, q in points])):
            failures[i] = f
    return failures


def _failure_probabilities(part: Part, p_ms: Sequence[float]) -> list[list[float]]:
    """At each p_m, the failure probability of each independently decoded
    unit of the part: the SM part itself, or each bit of a repetition part."""
    if isinstance(part, SMPart):
        return [[f] for f in _sm_failures_exact(part, p_ms)]
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
    """Uniform arrays a chunk draws for the part: one per repetition bit, or
    a count and a position array per SM sampler block."""
    if isinstance(part, RepetitionPart):
        return len(part.weights)
    return 2 * len(part._sampler_blocks)


def _repetition_failures(part: RepetitionPart, p_m: float) -> Reader:
    """Majority failures read from one uniform array per syndrome bit.

    Bit i's flip count c ~ Binomial(fold, q_i) reaches the threshold
    t = (fold + 1) // 2, a wrong or tied majority, iff the inverse-CDF
    uniform u satisfies u >= F(t - 1), so one uniform per bit decides it.
    """
    decoded = range((part.fold + 1) // 2)
    thresholds = [_majority_bit_failure(p_err(w, p_m), part.fold, decoded) for w in part.weights]

    def failed(uniforms: np.ndarray) -> np.ndarray:
        out = np.zeros(uniforms.shape[-1], dtype=bool)
        for u, threshold in zip(uniforms, thresholds):
            out |= u >= threshold
        return out
    return failed


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
    at most u, here a sampler block's inverse-CDF flip count.  The
    thresholds below 1 of all points (u < 1, so no other ever counts) are
    merged, sorted and distinct; u's position m is the number of merged
    values at most u, and counts[i, m] is point i's count at every u of
    position m, so one position serves every point.

    Positions are found by indexed search (Chen and Asau 1974; Devroye
    1986, III.2.4): guide[b] is the position of b / GUIDE_BUCKETS, which is
    the position of every u in bucket b = floor(u GUIDE_BUCKETS) unless a
    merged value lies inside the bucket, where guide[b] holds -1 - position;
    only those uniforms are searched.  The tables take
    8 GUIDE_BUCKETS + 8 m + points (m + 1) bytes for m merged values (a
    count is at most SAMPLER_BLOCK_BITS, one byte).
    """

    def __init__(self, thresholds: Sequence[np.ndarray]):
        # at most MASK_POINTS * SAMPLER_BLOCK_BITS values; np.unique would
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

    A bit fails iff its uniform reaches its weight's majority threshold
    (_repetition_failures), so per weight the largest uniform of its bits
    is compared once with each point's threshold.
    """
    classes: dict[int, list[int]] = {}
    for j, w in enumerate(part.weights):
        classes.setdefault(w, []).append(j)
    decoded = range((part.fold + 1) // 2)  # a bit decodes iff its uniform is below F(t - 1)
    thresholds = [(rows, [_majority_bit_failure(p_err(w, p_m), part.fold, decoded) for p_m in p_ms])
                  for w, rows in classes.items()]
    bits = [dtype.type(1 << i) for i in range(len(p_ms))]

    def failed(uniforms: np.ndarray) -> np.ndarray:
        size = uniforms.shape[-1]
        out, hit = _working(work, "part", size, dtype), _working(work, "hit", size, dtype)
        flag = _working(work, "flag", size, bool)
        out.fill(0)
        for rows, points in thresholds:
            top = uniforms[rows[0]]
            for j in rows[1:]:
                top = np.maximum(top, uniforms[j], out=_working(work, "top", size))
            for bit, threshold in zip(bits, points):
                np.greater_equal(top, threshold, out=flag)
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
        uniforms v, written to the intp array out, which may be pos."""
        if i not in self.at_positions:  # point i's run and start at each position
            counts = self.positions.counts[i]
            self.at_positions[i] = self.runs.take(counts), self.starts.take(counts)
        runs, starts = self.at_positions[i]
        # indices are in range; with out=, mode "raise" would buffer a copy
        run = runs.take(pos, out=_working(work, "run", len(pos)), mode="clip")
        # each entry of pos is read before out's entry is written
        return _table_index(v, run, starts.take(pos, out=out, mode="clip"), out, work)


@functools.cache
def _block_runs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The number (runs[c]) and first index (starts[c]) of the words with c
    flips in an n-bit sampler block's table; shared, so read-only."""
    runs = np.array([math.comb(n, c) for c in range(n + 1)], dtype=float)
    starts = (np.cumsum(runs) - runs).astype(np.intp)
    runs.flags.writeable = starts.flags.writeable = False
    return runs, starts


def _block_cdf(runs: np.ndarray, q: float) -> np.ndarray:
    """F(0), ..., F(N - 1) of Binomial(N, q), N = len(runs) - 1."""
    return np.cumsum(runs * _pattern_probabilities(q, len(runs) - 1))[:-1]


def _count_blocks(part: SMPart, p_ms: Sequence[float]) -> list[_CountBlock]:
    class_q = [[p_err(part.weights[j], p_m) for j in part._unit_costs.first] for p_m in p_ms]
    shared: dict[tuple[int, int], _Positions] = {}  # blocks of one class and length share CDFs
    blocks = []
    for k, table in part._sampler_blocks:
        n = len(table).bit_length() - 1
        runs, starts = _block_runs(n)
        if (k, n) not in shared:
            shared[k, n] = _Positions([_block_cdf(runs, q[k]) for q in class_q])
        blocks.append(_CountBlock(table, runs, starts, shared[k, n]))
    return blocks


def _locate(blocks: list[_CountBlock], uniforms: np.ndarray, work: dict[str, np.ndarray]):
    """Each block's count positions, read from its count uniforms; block j's
    is working array pos<j>."""
    size = uniforms.shape[-1]
    return [block.positions.locate(u, _working(work, f"pos{j}", size, np.intp), work)
            for j, (block, u) in enumerate(zip(blocks, uniforms[0::2]))]


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


def _words(blocks: list[_CountBlock], i: int, uniforms: np.ndarray,
           positions: list[np.ndarray] | None, work: dict[str, np.ndarray]) -> np.ndarray:
    """Point i's received words: per block, the table word its count and
    position uniform pick; the blocks cover disjoint bits, so they are ORed.
    Without positions (_locate), each block is located just before it is
    read, so one position array is live."""
    size = uniforms.shape[-1]
    words, index = _working(work, "words", size, np.uint64), _working(work, "index", size, np.intp)
    for j, (block, u, v) in enumerate(zip(blocks, uniforms[0::2], uniforms[1::2])):
        pos = positions[j] if positions is not None else block.positions.locate(u, index, work)
        block.index(i, pos, v, index, work)
        # each word overwrites the index it is read at; with out=, mode
        # "raise" would buffer a copy
        word = block.table.take(index, out=index.view(np.uint64) if j else words, mode="clip")
        if j:
            words |= word
    return words


def _sm_word_sampler(part: SMPart, p_m: float) -> Callable[..., np.ndarray]:
    """Draw one chunk of received words, the part's uniform arrays in order.

    A block's flip count is the number of its CDF values at most the count
    uniform, each value compared with every uniform: no _Positions, so the
    sampler checks the readers' count lookup."""
    class_q = [p_err(part.weights[j], p_m) for j in part._unit_costs.first]

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        uniforms, words = rng.random((_draws(part), size)), np.zeros(size, dtype=np.uint64)
        for (k, table), u, v in zip(part._sampler_blocks, uniforms[0::2], uniforms[1::2]):
            runs, starts = _block_runs(len(table).bit_length() - 1)
            counts = np.count_nonzero(_block_cdf(runs, class_q[k])[:, None] <= u, axis=0)
            start = starts.take(counts)
            words |= table.take(_table_index(v, runs.take(counts), start, start, {}))
        return words
    return sample


def _syndromes(part: SMPart, words: np.ndarray) -> np.ndarray:
    """In systematic order w ^ C[w mod 2^k] is (0, s), s the syndrome of w."""
    low = (words & np.uint64(len(part._codewords) - 1)).astype(np.intp)
    return ((words ^ part._codewords.take(low)) >> np.uint64(part.code.dim)).astype(np.intp)


def _decision_table(part: SMPart) -> np.ndarray:
    """SMPart._decisions: a pattern fails iff its weight is not below its
    coset's runner-up weight.

    The blocks cover disjoint bits, so a pattern's syndrome is the XOR and
    its weight the sum of its blocks' syndromes and weights.  The lowest
    blocks that fit one tile are combined into every low index once; each
    tile then adds the higher blocks' part for a run of high indices.
    """
    second = _runner_up_by_syndrome(part, part._unit_costs)
    blocks = [(_syndromes(part, table), np.bitwise_count(table))
              for _, table in part._sampler_blocks]
    low_synd, low_weight = blocks.pop(0)
    while blocks and len(low_synd) * len(blocks[0][0]) <= TILE_WORDS:
        synd, weight = blocks.pop(0)
        low_synd = (synd[:, None] ^ low_synd).ravel()
        low_weight = (weight[:, None] + low_weight).ravel()
    high = math.prod(len(synd) for synd, _ in blocks)
    failed = np.empty((high, len(low_synd)), dtype=bool)
    rows = max(1, TILE_WORDS // len(low_synd))
    for start in range(0, high, rows):
        index = np.arange(start, min(start + rows, high))
        synd = np.zeros(len(index), dtype=np.intp)
        weight = np.zeros(len(index), dtype=low_weight.dtype)
        for block_synd, block_weight in blocks:
            digit = index % len(block_synd)
            index //= len(block_synd)
            synd ^= block_synd.take(digit)
            weight += block_weight.take(digit)
        np.greater_equal(weight[:, None] + low_weight, second.take(synd[:, None] ^ low_synd),
                         out=failed[start:start + rows])
    return failed.ravel()


def _syndrome_table_bytes(code: BinaryLinearCode, trials: float) -> int:
    """Bytes of the per-syndrome runner-up table (float costs) that
    _sm_decoder keeps for a run decoding trials words, or 0 when it scans
    each word's coset: the table walks all 2^n patterns once, the scan 2^k
    codewords per word, so the table pays from 2^(n - k) words on."""
    pays = code.length <= HARD_EXACT_BITS and trials >= 1 << code.redundancy
    return 8 << code.redundancy if pays else 0


def _sm_decoder(
    part: SMPart, costs: _Costs, trials: float = math.inf
) -> Callable[[np.ndarray], np.ndarray]:
    """Which received words the part's decoder fails on under the cost rule
    costs (SMPart._pricing), for a run that decodes trials words.

    A word succeeds iff it is the unique minimum-cost member of its coset.
    When that pays (_syndrome_table_bytes), each coset's runner-up cost is
    computed once and looked up by syndrome; otherwise each word's coset is
    scanned.  Both give the same decisions.
    """
    if _syndrome_table_bytes(part.code, trials):
        table = _runner_up_by_syndrome(part, costs)

        def runner_up(words):
            return table[_syndromes(part, words)]
    else:
        def runner_up(words):
            return _coset_minima(words, part._codewords, costs, word=False)[1]

    def failed(words: np.ndarray) -> np.ndarray:
        return ~(costs(words) < runner_up(words))
    return failed


def _judged_by_table(part: SMPart, costs: _Costs) -> bool:
    """Whether the part's decisions under the cost rule costs
    (SMPart._pricing) are its cached _decisions: unit costs, which do not
    depend on p_m, and at most 2^HARD_EXACT_BITS patterns."""
    return part.code.length <= HARD_EXACT_BITS and costs is part._unit_costs


def _joint(digits: Sequence[np.ndarray]) -> np.ndarray:
    """digits[0][i_0] + digits[1][i_1] + ... for every index vector, flattened
    with i_0 fastest."""
    return functools.reduce(lambda acc, d: (d[:, None] + acc).ravel(), digits[1:], digits[0])


def _sm_reader(part: SMPart, p_ms: Sequence[float], costs: Sequence[_Costs], trials: int,
               work: dict[str, np.ndarray], dtype: np.dtype) -> Judge:
    """Point masks of an SM part over a group of points: bit i of a trial's
    mask is set iff the trial fails at p_ms[i], whose decoder minimizes
    costs[i].

    Each block's count uniforms are placed once among every point's CDF
    values (_Positions).  A point judged by the table (_judged_by_table)
    looks up, by the blocks' joint position, whether the part's _verdicts
    say that the trial's count vector fails, or that it is mixed: some
    patterns with those counts fail and some decode.  One table of point
    masks per verdict holds every point's bit, at most JOINT_TABLE_ENTRIES
    positions (_group_width); a part whose joint positions exceed that even
    for one point keeps no table and treats every trial as mixed.

    A mixed count c of a one-block part is decided by the position uniform
    alone, at decisions[starts[c] + min(floor(v C(N, c)), C(N, c) - 1)],
    read once per tile for every trial whatever the points; on a part of
    several blocks each point decides only the trials mixed at its counts.
    Any other point assembles its words and decodes them (_sm_decoder); the
    bytes reported count its per-syndrome table, if it keeps one.
    """
    blocks = _count_blocks(part, p_ms)
    bits = [len(block.runs) - 1 for block in blocks]
    shifts = [0, *itertools.accumulate(bits[:-1])]  # block j's place in a _decisions index
    sizes = [block.positions.counts.shape[1] for block in blocks]
    on_table = [i for i, rule in enumerate(costs) if _judged_by_table(part, rule)]
    decoders = {i: _sm_decoder(part, rule, trials)
                for i, rule in enumerate(costs) if i not in on_table}
    fails = mixed = None
    mixed_counts: list[tuple[int, np.ndarray]] = []
    if on_table and math.prod(sizes) <= JOINT_TABLE_ENTRIES:
        strides = [math.prod(n + 1 for n in bits[:j]) for j in range(len(bits))]  # _verdicts digits
        verdict = {i: part._verdicts.take(_joint([block.positions.counts[i].astype(np.intp) * stride
                                                  for block, stride in zip(blocks, strides)]))
                   for i in on_table}
        size = math.prod(sizes)
        fails = _point_bits({i: v == _FAILS for i, v in verdict.items()}, size, dtype)
        if len(blocks) == 1:
            counts = blocks[0].positions.counts
            for c in np.flatnonzero(part._verdicts == _MIXED):
                masks = _point_bits({i: counts[i] == c for i in on_table}, size, dtype)
                if masks.any():
                    mixed_counts.append((int(c), masks))
        else:
            mixed = _point_bits({i: v == _MIXED for i, v in verdict.items()}, size, dtype)
    everyone = dtype.type(sum(1 << i for i in on_table))

    def failed(uniforms: np.ndarray) -> np.ndarray:
        size = uniforms.shape[-1]
        out, hit = _working(work, "part", size, dtype), _working(work, "hit", size, dtype)
        # a lone decoded point locates each block as it reads it, so one
        # position array is live
        positions = _locate(blocks, uniforms, work) if on_table or len(decoders) > 1 else None
        v = uniforms[1::2]
        if not on_table:
            out.fill(0)
        elif len(blocks) == 1 and fails is not None:
            fails.take(positions[0], out=out, mode="clip")
            block = blocks[0]
            for c, masks in mixed_counts:
                index = _table_index(v[0], block.runs[c], block.starts[c],
                                     _working(work, "index", size, np.intp), work)
                decided = part._decisions.take(index, out=_working(work, "decided", size, bool),
                                               mode="clip")
                masks.take(positions[0], out=hit, mode="clip")
                out |= np.multiply(hit, decided, out=hit)
        else:
            if fails is None:  # every table point decides every trial
                out.fill(0)
                hit.fill(everyone)
            else:
                joint = _working(work, "joint", size, np.intp)
                np.copyto(joint, positions[-1])
                for pos, width in zip(positions[-2::-1], sizes[-2::-1]):
                    joint *= width
                    joint += pos
                fails.take(joint, out=out, mode="clip")
                mixed.take(joint, out=hit, mode="clip")
            _decide_mixed(part, blocks, shifts, on_table, positions, v, out, hit, work)
        for i, decode in decoders.items():
            decoded = decode(_words(blocks, i, uniforms, positions, work))
            out |= np.multiply(decoded.view(np.uint8), dtype.type(1 << i), out=hit)
        return out
    shared = {id(block.positions): block.positions for block in blocks}
    held = sum(positions.nbytes for positions in shared.values())
    held += sum(table.nbytes for table in (fails, mixed) if table is not None)
    held += sum(masks.nbytes for _, masks in mixed_counts)
    return failed, held + len(decoders) * _syndrome_table_bytes(part.code, trials)


def _decide_mixed(part: SMPart, blocks: list[_CountBlock], shifts: list[int], on_table: list[int],
                  positions: list[np.ndarray], v: np.ndarray, out: np.ndarray, mixed: np.ndarray,
                  work: dict[str, np.ndarray]):
    """Set each table point's failure bits among the trials whose counts are
    mixed at it (its bit of mixed), decoded through _decisions."""
    flag = _working(work, "flag", len(mixed), bool)
    for i in on_table:
        bit = out.dtype.type(1 << i)
        mixed_here = np.bitwise_and(mixed, bit, out=_working(work, "mixed", len(mixed), mixed.dtype))
        rows = np.flatnonzero(np.not_equal(mixed_here, 0, out=flag))
        key = _working(work, "key", len(rows), np.intp)
        key.fill(0)
        for block, shift, pos, u in zip(blocks, shifts, positions, v):
            at = pos.take(rows)
            index = block.index(i, at, u.take(rows), at, work)
            key |= np.left_shift(index, shift, out=index)
        failing = part._decisions.take(key, out=_working(work, "decided", len(rows), bool),
                                       mode="clip")
        out[rows[failing]] |= bit


def _group_width(judged: Iterable[SMPart], decoded: Iterable[SMPart], points: int,
                 trials: int) -> int:
    """How many points are judged together: at most MASK_POINTS, and few
    enough that each table-judged part of several blocks, whose N_j-bit
    blocks take at most width N_j + 1 positions each, has at most
    JOINT_TABLE_ENTRIES joint positions, and that the per-syndrome tables of
    the parts that decode words (_syndrome_table_bytes), one per point, fit
    PASS_BYTES (unless one point alone exceeds either)."""
    width = min(MASK_POINTS, points)
    for part in judged:
        bits = [len(table).bit_length() - 1 for _, table in part._sampler_blocks]
        while width > 1 and math.prod(width * n + 1 for n in bits) > JOINT_TABLE_ENTRIES:
            width -= 1
    per_point = sum(_syndrome_table_bytes(part.code, trials) for part in decoded)
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
    on_table = {key: [_judged_by_table(distinct[key], c) for c in costs]
                for key, costs in rules.items()}
    width = _group_width([distinct[key] for key, on in on_table.items() if any(on)],
                         [distinct[key] for key, on in on_table.items() if not all(on)],
                         len(p_ms), trials)
    dtype = _mask_dtype(width)
    failures, work = [0] * len(p_ms), {}  # the groups share their working arrays

    def judges(points: range) -> tuple[list[Reader], int]:
        group = [p_ms[i] for i in points]
        made = {key: _sm_reader(part, group, rules[key][points.start:points.stop], trials, work,
                                dtype) if key in rules
                else _repetition_reader(part, group, work, dtype) for key, part in distinct.items()}
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
    return all(
        isinstance(p, RepetitionPart) or p.code.length <= HARD_EXACT_BITS for p in scheme.parts
    )


def sweep(
    scheme: MeasurementScheme,
    pm_log2_grid: Sequence[float],
    method: str = "auto",
    trials: int = 10**6,
    seed: int = 0,
) -> list[SweepRow]:
    """Evaluate p_se over a grid of log2(p_m) values, in grid order.

    method "auto" uses exact evaluation when every SM part enumerates at
    most 2^HARD_EXACT_BITS patterns and Monte Carlo otherwise.  Either
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


def _apply_order(rows: Sequence[F4Vector], order: Sequence[int] | None) -> list[F4Vector]:
    if order is None:
        return list(rows)
    if sorted(order) != list(range(len(rows))):
        raise PreconditionError(f"generator order must permute range({len(rows)})")
    return [rows[i] for i in order]


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
    z_order: Sequence[int] | None = None,
    name: str = "",
) -> MeasurementScheme:
    """Protect the X-type and Z-type syndromes with separate SM codes.

    The Z generator order matters: permuting the rows changes which
    stabilizer products are measured and hence the measurement total.
    Equal parts are one object, so what a part caches is built once.
    """
    x_rows, z_rows = split_rows_by_type(code.rows)
    x = _sm_part(x_rows, sm_x, decoder)
    z = _sm_part(_apply_order(z_rows, z_order), sm_z, decoder)
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


FIG1_SCHEMES = ("fig1-shor-6fold", "fig1-shor-sm", "fig1-bs-6fold", "fig1-bs-sm")
FIG2_SCHEMES = ("fig2-shor-204", "fig2-shor-216", "fig2-bs-204", "fig2-bs-216")

# documented Z-measurement totals for the two generator permutations used
# with the imported [25,6,11] SM code
FIG2_SHOR_Z_TOTALS = {"fig2-shor-204": 102, "fig2-shor-216": 108}
FIG2_X_CODES = {
    "fig2-shor-204": "cw-17-2-11",
    "fig2-shor-216": "cw-18-2-12",
    "fig2-bs-204": "cw-17-2-11",
    "fig2-bs-216": "cw-18-2-12",
}


def build_scheme(
    name: str,
    data_dir: str | Path | None = None,
    decoder: str = COSET_LEADER,
) -> MeasurementScheme:
    """Construct one of the named figure schemes.

    Schemes whose SM codes are import-only raise AvailabilityError naming
    the required file when the data directory does not provide it.
    """
    if name == "fig1-shor-6fold":
        return repetition_scheme(catalog("shor"), 6, name)
    if name == "fig1-bs-6fold":
        return repetition_scheme(catalog("bacon-shor"), 6, name)
    if name == "fig1-shor-sm":
        return sm_scheme(
            catalog("shor"),
            sm_catalog("cw-12-2-8"),
            sm_catalog("grassl-18-6-8", data_dir),
            decoder,
            name=name,
        )
    if name == "fig1-bs-sm":
        return sm_scheme(
            catalog("bacon-shor"),
            sm_catalog("cw-12-2-8"),
            sm_catalog("cw-12-2-8"),
            decoder,
            name=name,
        )
    if name in ("fig2-bs-204", "fig2-bs-216"):
        cw = sm_catalog(FIG2_X_CODES[name])
        return sm_scheme(catalog("bacon-shor"), cw, cw, decoder, name=name)
    if name in ("fig2-shor-204", "fig2-shor-216"):
        shor = catalog("shor")
        sm_z = sm_catalog("grassl-25-6-11", data_dir)
        _, z_rows = split_rows_by_type(shor.rows)
        z_order = _shor_z_order_for_total(sm_z, z_rows, FIG2_SHOR_Z_TOTALS[name])
        return sm_scheme(
            shor, sm_catalog(FIG2_X_CODES[name]), sm_z, decoder, z_order=z_order, name=name
        )
    raise PreconditionError(
        f"unknown scheme {name!r}; known: {', '.join(FIG1_SCHEMES + FIG2_SCHEMES)}"
    )

