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
p_se keeps its precision.  Monte Carlo (pse_monte_carlo) samples in the
montecarlo module, which this one imports on the first Monte Carlo call.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .codes import SubsystemCode, catalog, make_stabilizer
from .errors import CapacityError, PreconditionError, StructureError
from .gf4 import F4Vector
from .qds import measured_elements
from .smcodes import BinaryLinearCode, likelihood_classes, sm_catalog

HARD_EXACT_BITS = 25  # exact p_se enumerates at most 2^25 patterns or cell pairs
MAX_SM_LENGTH = 64  # received words are packed into uint64
DEFAULT_CHUNK_SIZE = 1 << 16  # Monte Carlo trials per chunk, each chunk its own RNG stream
TILE_WORDS = 1 << 14  # entries per working array of the coset walks and the exact table

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
    order, so bit j flips with probability p_err(weights[j], p_m).  The
    failing-pattern histogram of minimum-weight decoding, which does not
    depend on p_m, is built on first use and kept on this part (exact
    evaluation, counted over cells or cosets, whichever is smaller:
    _exact_domain); Monte Carlo keeps nothing here (montecarlo._Sampler).
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
    (montecarlo._count_failures).  Every p_m is checked before any draw.
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
    from .montecarlo import _count_failures  # the sampler, loaded on first use
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
    code: SubsystemCode, fold: int, name: str = ""
) -> MeasurementScheme:
    if fold < 1:
        raise PreconditionError(f"fold must be >= 1, got {fold}")
    weights = tuple(r.weight for r in code.rows)
    return MeasurementScheme(name or f"repetition-{fold}", (RepetitionPart(weights, fold),))


def _sm_part(rows: Sequence[F4Vector], sm: BinaryLinearCode, decoder: str) -> SMPart:
    elements = measured_elements(rows, sm)
    return SMPart(code=sm, weights=tuple(v.weight for v in elements), decoder=decoder)


def sm_scheme(
    code: SubsystemCode,
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
