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

Exact evaluation never forms 1 - success.  An SM part's failing error
patterns are counted once, by walking its cosets by syndrome, and kept as
a histogram over per-class flip counts; a repetition bit fails with a
sum of binomial terms.  The unit failure probabilities f_i combine as
p_se = -expm1(sum log1p(-f_i)), so a tiny p_se keeps its precision.

Monte Carlo runs are reproducible bit-for-bit: trials are partitioned
into chunks of fixed size, and chunk c draws from
numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=(c,))),
i.e. PCG64 seeded through numpy's documented SeedSequence hash.
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
DEFAULT_CHUNK_SIZE = 1 << 16

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
        """prod_k per_class[k][c_k] for every count vector, in key order."""
        return functools.reduce(
            lambda acc, v: np.multiply.outer(v, acc).ravel(), per_class[1:], per_class[0]
        )


@dataclass(frozen=True)
class SMPart:
    """A block of measured elements protected by one SM code.

    weights[j] is the Pauli weight of measured element j in systematic
    order, so bit j flips with probability p_err(weights[j], p_m).  The
    failing-pattern histogram of minimum-weight decoding does not depend
    on p_m; it is built on first use and kept on this part.
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
    def _unit_runner_up(self) -> np.ndarray:
        return _runner_up_by_syndrome(self, self._unit_costs)

    def _costs(self, q: Sequence[float]) -> _Costs:
        """The cost the decoder minimizes at flip probabilities q.

        Weighted ML with one likelihood class and 0 < lambda < inf makes
        every comparison that minimum-weight decoding makes, so it shares
        the unit costs (and their cached histogram).  Otherwise its costs
        are summed as weighted_ml_decode sums them, in the same class
        order, so exact ties are decided identically.
        """
        if self.decoder == WEIGHTED_ML:
            lams, labels = likelihood_classes(q)
            if not (len(lams) == 1 and 0.0 < lams[0] < math.inf):
                return _Costs(labels, lams)
        return self._unit_costs


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

def _flip_probabilities(part: SMPart, p_m: float) -> list[float]:
    per_weight = {w: p_err(w, p_m) for w in set(part.weights)}
    return [per_weight[w] for w in part.weights]


def _majority_bit_failure(q: float, fold: int) -> float:
    """P[majority wrong or tied] for one bit under iid flips q."""
    return math.fsum(
        math.comb(fold, c) * q**c * (1.0 - q) ** (fold - c)
        for c in range((fold + 1) // 2, fold + 1)
    )


def _coset_bases(code: BinaryLinearCode) -> Iterator[np.ndarray]:
    """The words (0, s) for every syndrome s, DEFAULT_CHUNK_SIZE at a time.

    In systematic order (0, s) has syndrome s, so the cosets (0, s) ^ C
    partition F2^n and come out in syndrome order.
    """
    cosets = 1 << code.redundancy
    for start in range(0, cosets, DEFAULT_CHUNK_SIZE):
        syndromes = np.arange(start, min(start + DEFAULT_CHUNK_SIZE, cosets), dtype=np.uint64)
        yield syndromes << np.uint64(code.dim)


def _coset_tiles(base: np.ndarray, codewords: np.ndarray) -> Iterator[np.ndarray]:
    """base ^ C in blocks of shape (rows, len(base)), each of at most
    DEFAULT_CHUNK_SIZE words or a single row.  rows is a power of two, so
    with 2^k codewords every block has a power-of-two row count."""
    rows = 1 << max(0, (DEFAULT_CHUNK_SIZE // len(base)).bit_length() - 1)
    for start in range(0, len(codewords), rows):
        yield base ^ codewords[start:start + rows, None]


def _lowest_two(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]):
    """Merge two (lowest, second-lowest) pairs, counted with multiplicity."""
    (low_a, second_a), (low_b, second_b) = a, b
    return (
        np.minimum(low_a, low_b),
        np.minimum(np.minimum(second_a, second_b), np.maximum(low_a, low_b)),
    )


def _runner_up(base: np.ndarray, codewords: np.ndarray, costs: _Costs) -> np.ndarray:
    """The second-smallest cost, counted with multiplicity, over each coset
    base ^ C.

    A word is the unique minimum-cost member of its coset, the condition
    under which both decoders return it as the error pattern, iff its cost
    is below this.  Each block is reduced by merging its halves until one
    row is left, so a block costs O(log rows) array operations.
    """
    ceiling = np.full(len(base), costs.ceiling, dtype=costs.table.dtype)
    pair = (ceiling, ceiling)
    for members in _coset_tiles(base, codewords):
        cost = costs(members)
        block = (cost, np.full_like(cost, costs.ceiling))
        while len(block[0]) > 1:
            half = len(block[0]) // 2
            block = _lowest_two(
                (block[0][:half], block[1][:half]), (block[0][half:], block[1][half:])
            )
        pair = _lowest_two(pair, (block[0][0], block[1][0]))
    return pair[1]


def _runner_up_by_syndrome(part: SMPart, costs: _Costs) -> np.ndarray:
    return np.concatenate(
        [_runner_up(base, part._codewords, costs) for base in _coset_bases(part.code)]
    )


def _failing_patterns(part: SMPart, costs: _Costs) -> np.ndarray:
    """Per cost key, the number of patterns the decoder fails on.

    A pattern is decoded to zero iff it is the unique minimum-cost member
    of its coset, so each coset holds at most one success; the failures
    are all patterns minus the successes.
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
        second = _runner_up(base, part._codewords, costs)
        for members in _coset_tiles(base, part._codewords):
            keys = costs.key(members)
            success += np.bincount(keys[costs.table.take(keys) < second], minlength=len(totals))
    return totals - success


def _pattern_probabilities(q: float, n: int) -> np.ndarray:
    """q^c (1 - q)^(n - c): one given pattern of c flips among n bits."""
    flips = np.arange(n + 1)
    return q**flips * (1.0 - q) ** (n - flips)


def _sm_failure_exact(part: SMPart, p_m: float) -> float:
    """Failure probability: the sum over count vectors c of
    failing[c] * prod_k q_k^c_k (1 - q_k)^(N_k - c_k)."""
    q = _flip_probabilities(part, p_m)
    costs = part._costs(q)
    failing = part._unit_failures if costs is part._unit_costs else _failing_patterns(part, costs)
    probs = costs.outer([_pattern_probabilities(q[j], n) for j, n in zip(costs.first, costs.sizes)])
    return min(1.0, math.fsum((failing * probs)[failing > 0].tolist()))


def _failure_probabilities(part: Part, p_m: float) -> list[float]:
    """Failure probability of each independently decoded unit of the part:
    the SM part itself, or each bit of a repetition part."""
    if isinstance(part, RepetitionPart):
        return [_majority_bit_failure(p_err(w, p_m), part.fold) for w in part.weights]
    return [_sm_failure_exact(part, p_m)]


def pse_exact(scheme: MeasurementScheme, p_m: float) -> SimResult:
    """Exact p_se = 1 - prod(1 - f) over the independently decoded units.

    Taken as -expm1(sum log1p(-f)), so a small p_se keeps full relative
    precision instead of cancelling in 1 - prod(success).
    """
    failures = [f for part in scheme.parts for f in _failure_probabilities(part, p_m)]
    if any(f >= 1.0 for f in failures):
        p_se = 1.0
    else:
        p_se = max(0.0, -math.expm1(math.fsum(math.log1p(-f) for f in failures)))
    return SimResult(p_se=p_se, stderr=0.0, trials=0, method="exact")


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


def _repetition_failures(part: RepetitionPart, p_m: float, rng, size: int) -> np.ndarray:
    failed = np.zeros(size, dtype=bool)
    for w in part.weights:
        counts = rng.binomial(part.fold, p_err(w, p_m), size=size)
        if part.fold % 2 == 0:
            failed |= 2 * counts >= part.fold
        else:
            failed |= 2 * counts > part.fold
    return failed


def _syndromes(code: BinaryLinearCode, words: np.ndarray) -> np.ndarray:
    synd = np.zeros(len(words), dtype=np.intp)
    for j, h in enumerate(code.parity_checks):
        synd |= (np.bitwise_count(words & np.uint64(h)) & 1).astype(np.intp) << j
    return synd


def _sm_failure_sampler(part: SMPart, p_m: float) -> Callable[..., np.ndarray]:
    """Draw and decode one chunk of received words for the part.

    A word succeeds iff it is the unique minimum-cost member of its coset.
    With few codewords the coset is scanned per word; with more codewords
    than syndrome bits, and at most 2^HARD_EXACT_BITS patterns, each
    coset's runner-up cost is computed once and looked up by syndrome.
    """
    code = part.code
    q = _flip_probabilities(part, p_m)
    costs = part._costs(q)
    if len(part._codewords) > code.redundancy and code.length <= HARD_EXACT_BITS:
        if costs is part._unit_costs:
            table = part._unit_runner_up
        else:
            table = _runner_up_by_syndrome(part, costs)

        def runner_up(words):
            return table[_syndromes(code, words)]
    else:
        def runner_up(words):
            return _runner_up(words, part._codewords, costs)

    def failures(rng, size: int) -> np.ndarray:
        padded = np.zeros((size, MAX_SM_LENGTH), dtype=bool)
        np.less(rng.random((size, code.length)), q, out=padded[:, :code.length])
        words = np.packbits(padded, bitorder="little").view("<u8").astype(np.uint64, copy=False)
        return ~(costs(words) < runner_up(words))
    return failures


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
    samplers = [
        functools.partial(_repetition_failures, part, p_m)
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
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[SweepRow]:
    """Evaluate p_se over a grid of log2(p_m) values, in grid order.

    method "auto" uses exact evaluation when every SM part enumerates at
    most 2^HARD_EXACT_BITS patterns and Monte Carlo otherwise.
    """
    if not len(pm_log2_grid):
        raise PreconditionError("empty p_m grid")
    if method not in ("auto", "exact", "mc"):
        raise PreconditionError(f"method must be auto, exact, or mc, got {method!r}")
    if method == "auto":
        method = "exact" if exact_is_feasible(scheme) else "mc"
    rows = []
    for lp in pm_log2_grid:
        p_m = 2.0**lp
        if method == "exact":
            result = pse_exact(scheme, p_m)
        else:
            result = pse_monte_carlo(scheme, p_m, trials, seed, chunk_size)
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
    """
    x_rows, z_rows = split_rows_by_type(code.rows)
    parts = (
        _sm_part(x_rows, sm_x, decoder),
        _sm_part(_apply_order(z_rows, z_order), sm_z, decoder),
    )
    return MeasurementScheme(name or "sm-scheme", parts)


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

