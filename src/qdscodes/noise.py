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
array per block, blocks in class order.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .codes import StabilizerCode, SubsystemCode, catalog
from .errors import CapacityError, PreconditionError, StructureError
from .gf4 import F4Vector
from .qds import measured_elements
from .smcodes import BinaryLinearCode, likelihood_classes, sm_catalog

HARD_EXACT_BITS = 25  # longest SM part whose 2^n patterns any p_se path enumerates
MAX_SM_LENGTH = 64  # received words are packed into uint64
DEFAULT_CHUNK_SIZE = 1 << 16  # Monte Carlo trials per chunk, each chunk its own RNG stream
TILE_WORDS = 1 << 14  # entries per working array of the coset walks and the exact table
SAMPLER_BLOCK_BITS = 16  # longest run of one class's bits a sampler table enumerates

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
    count (minimum-weight decoding); with lams it is sum_k c_k lams[k].
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
        vectors = self.count_vectors()
        if lams is None:
            # small integers: comparisons run on uint8, and MAX_SM_LENGTH < 255
            self.table = np.array([sum(counts) for counts in vectors], dtype=np.uint8)
            self.ceiling = np.iinfo(np.uint8).max
        else:
            # the sum weighted_ml_decode forms, zero counts skipped so an
            # infinite lambda (p = 0 or 1) never makes 0 * inf
            self.table = np.array(
                [sum(c * lam for c, lam in zip(counts, lams) if c) for counts in vectors],
                dtype=float,
            )
            self.ceiling = math.inf

    def key(self, words: np.ndarray) -> np.ndarray:
        key = None
        stride = 1
        for mask, size in zip(self.masks, self.sizes):
            counts = np.bitwise_count(words & mask)
            key = counts if key is None else key + counts * np.intp(stride)
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
    evaluation), the sampler's per-block word tables, and the per-pattern
    decisions of minimum-weight decoding (2^n bools, Monte Carlo).
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

def _majority_bit_failure(q: float, fold: int) -> float:
    """P[majority wrong or tied] for one bit under iid flips q."""
    return math.fsum(
        math.comb(fold, c) * q**c * (1.0 - q) ** (fold - c)
        for c in range((fold + 1) // 2, fold + 1)
    )


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


def _repetition_sampler(part: RepetitionPart, p_m: float) -> Callable[..., np.ndarray]:
    """Draw one chunk of majority failures for the part.

    Bit i's flip count c ~ Binomial(fold, q_i) reaches the threshold
    t = (fold + 1) // 2, a wrong or tied majority, iff the inverse-CDF
    uniform u satisfies u >= F(t - 1), so one uniform per bit decides it.
    """
    fold, t = part.fold, (part.fold + 1) // 2

    def lower_tail(q: float) -> float:
        return math.fsum(math.comb(fold, c) * q**c * (1.0 - q) ** (fold - c) for c in range(t))

    thresholds = [lower_tail(p_err(w, p_m)) for w in part.weights]

    def failures(rng, size: int) -> np.ndarray:
        failed = np.zeros(size, dtype=bool)
        for threshold in thresholds:
            failed |= rng.random(size) >= threshold
        return failed
    return failures


def _block_index_sampler(part: SMPart, p_m: float) -> Callable[..., Iterator[np.ndarray]]:
    """Draw one chunk's index into each _sampler_blocks table, in block
    order, a bit of weight w flipped with probability p_err(w, p_m).

    Per block of N bits of one weight class (q): the flip count c is the
    inverse CDF of Binomial(N, q) at a first uniform, and a second uniform
    v picks entry min(floor(v C(N, c)), C(N, c) - 1) among the table's
    words with c flips.
    """
    class_q = [p_err(part.weights[j], p_m) for j in part._unit_costs.first]
    draws = []
    for k, table in part._sampler_blocks:
        n = len(table).bit_length() - 1
        runs = np.array([math.comb(n, c) for c in range(n + 1)], dtype=float)
        cdf = np.cumsum(runs * _pattern_probabilities(class_q[k], n))[:-1]
        starts = (np.cumsum(runs) - runs).astype(np.intp)
        # the count is the number of F(0), ..., F(n - 1) at most u; u < 1,
        # so a CDF value of 1 never counts
        draws.append((cdf[cdf < 1.0], runs, starts))

    # chunk-sized scratch arrays live as long as the sampler: a fresh one
    # costs more in page faults than the arithmetic that fills it
    scratch: list[np.ndarray] = []

    def indices(rng, size: int) -> Iterator[np.ndarray]:
        if not scratch or len(scratch[0]) < size:
            scratch[:] = [np.empty(size), np.empty(size, dtype=np.intp), np.empty(size)]
        u, counts, run = (array[:size] for array in scratch)
        for cdf, runs, starts in draws:
            rng.random(size, out=u)
            flips = np.zeros(size, dtype=np.uint8)
            for value in cdf:
                flips += u >= value
            np.copyto(counts, flips)
            runs.take(counts, out=run)
            pick = rng.random(size, out=u)
            pick *= run
            run -= 1.0
            np.minimum(pick, run, out=pick)
            index = starts.take(counts)
            np.copyto(counts, pick, casting="unsafe")  # truncates, as astype does
            index += counts
            yield index
    return indices


def _sm_word_sampler(part: SMPart, p_m: float) -> Callable[..., np.ndarray]:
    """Draw one chunk of received words: the blocks cover disjoint bits, so
    their table words are ORed."""
    indices = _block_index_sampler(part, p_m)

    def words(rng, size: int) -> np.ndarray:
        out = np.zeros(size, dtype=np.uint64)
        for (_, table), index in zip(part._sampler_blocks, indices(rng, size)):
            out |= table.take(index)
        return out
    return words


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


def _sm_decoder(part: SMPart, costs: _Costs) -> Callable[[np.ndarray], np.ndarray]:
    """Which received words the part's decoder fails on under the cost rule
    costs (SMPart._pricing).

    A word succeeds iff it is the unique minimum-cost member of its coset.
    With few codewords the coset is scanned per word; with more codewords
    than syndrome bits, and at most 2^HARD_EXACT_BITS patterns, each
    coset's runner-up cost is computed once and looked up by syndrome.
    """
    code = part.code
    if len(part._codewords) > code.redundancy and code.length <= HARD_EXACT_BITS:
        table = _runner_up_by_syndrome(part, costs)

        def runner_up(words):
            return table[_syndromes(part, words)]
    else:
        def runner_up(words):
            return _coset_minima(words, part._codewords, costs, word=False)[1]

    def failed(words: np.ndarray) -> np.ndarray:
        return ~(costs(words) < runner_up(words))
    return failed


def _sm_failure_sampler(part: SMPart, p_m: float) -> Callable[..., np.ndarray]:
    """Draw one chunk of failures for the part.

    With unit costs and at most 2^HARD_EXACT_BITS patterns the decisions
    do not change with p_m, so the drawn block indices address the part's
    cached decision table; otherwise the words are assembled and decoded.
    """
    costs, _ = part._pricing(p_m)
    if part.code.length <= HARD_EXACT_BITS and costs is part._unit_costs:
        indices, decisions = _block_index_sampler(part, p_m), part._decisions
        # block i > 0 is shifted past the bits of blocks 0..i-1
        shifts = np.cumsum([len(t).bit_length() - 1 for _, t in part._sampler_blocks])

        def failed(rng, size: int) -> np.ndarray:
            blocks = indices(rng, size)
            key = next(blocks)
            for shift, index in zip(shifts, blocks):
                index <<= shift
                key |= index
            return decisions.take(key)
        return failed
    draw, failed = _sm_word_sampler(part, p_m), _sm_decoder(part, costs)
    return lambda rng, size: failed(draw(rng, size))


def pse_monte_carlo(
    scheme: MeasurementScheme,
    p_m: float,
    trials: int,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SimResult:
    """Sampled p_se; deterministic for fixed (seed, trials, chunk_size)."""
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    if chunk_size < 1:
        raise PreconditionError(f"chunk_size must be >= 1, got {chunk_size}")
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")
    samplers = [
        _repetition_sampler(part, p_m)
        if isinstance(part, RepetitionPart)
        else _sm_failure_sampler(part, p_m)
        for part in scheme.parts
    ]
    failures = 0
    done = 0
    for chunk_index in itertools.count():
        if done >= trials:
            break
        size = min(chunk_size, trials - done)
        rng = _chunk_rng(seed, chunk_index)
        failed = np.zeros(size, dtype=bool)
        for sample in samplers:
            failed |= sample(rng, size)
        failures += int(np.sum(failed))
        done += size
    p_hat = failures / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return SimResult(p_se=p_hat, stderr=stderr, trials=trials, method="monte-carlo", seed=seed)


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
    most 2^HARD_EXACT_BITS patterns and Monte Carlo otherwise.  Exact
    evaluation takes the whole grid in one pse_exact call; Monte Carlo
    runs one pse_monte_carlo call per point.  A grid point whose p_m lies
    outside [0, 1] raises PreconditionError before any point is evaluated.
    """
    if not len(pm_log2_grid):
        raise PreconditionError("empty p_m grid")
    if method not in ("auto", "exact", "mc"):
        raise PreconditionError(f"method must be auto, exact, or mc, got {method!r}")
    if method == "auto":
        method = "exact" if exact_is_feasible(scheme) else "mc"
    # 2.0**lp overflows from 1024 on
    p_ms = [math.inf if lp >= 1024 else 2.0**lp for lp in pm_log2_grid]
    for p_m in p_ms:
        if not 0.0 <= p_m <= 1.0:
            raise PreconditionError(f"p_m={p_m} outside [0, 1]")
    if method == "exact":
        results = pse_exact(scheme, p_ms)
    else:
        results = [pse_monte_carlo(scheme, p_m, trials, seed) for p_m in p_ms]
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

