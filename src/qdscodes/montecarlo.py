"""Monte Carlo p_se, for noise.pse_monte_carlo, which imports it on first use.

Monte Carlo draws flip counts, not one float per flip.  A repetition
part draws one uniform u per weight: each of its k bits decodes with
probability s = F(t - 1), the Binomial(fold, q) lower-tail CDF below the
majority threshold t, so the weight fails iff u >= s^k.  An SM part with
q = p_err(w, p_m) per weight class draws either its cells or its blocks.
A cell (noise._cells under the unit costs: the positions of one class
under one generator column) flips Binomial(n_cell, q) of its bits.  A
codeword flips a cell wholly or not at all, so whether a pattern decodes
depends only on its count vector over the cells, under every cost rule,
and no position is drawn.  Cells are drawn in digits: a digit takes one
uniform, the count vector of its cells by inverse CDF of the product of
their distributions (Devroye 1986, III.2).  All the cells form one digit
when a group of points reads their V = prod (n_cell + 1) count vectors
from one joint table (V <= 1,024), else each cell is a digit.  A part
samples cells when they form one digit, or when they need no more
uniforms than its blocks and their count vectors fit a joint table
(_sampler_cells).  Otherwise its weight classes are split into
near-equal blocks of at most SAMPLER_BLOCK_BITS bits; per block a first
uniform gives the flip count, and a second picks one of the C(N, c)
words with c flips from a table of the block's words sorted by popcount.
A drawn word fails iff it is not the unique minimum-cost member of its
coset (_sm_decoder), whose runner-up cost is read by syndrome from a
table when a group's words under the cost rule repay one, and otherwise
found by scanning the coset.

Monte Carlo runs are reproducible bit-for-bit: trials are partitioned
into chunks of fixed size, and chunk c draws from
numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=(c,))),
i.e. PCG64 seeded through numpy's documented SeedSequence hash.  Within
a chunk the parts draw in scheme order (_draws): a repetition part one
array of uniforms per distinct weight, an SM part one count array per
digit, or a count array then a position array per block, blocks in class
order.  The arrays do not depend on p_m, so every point of a sweep reads
the same chunk streams, and a grid call draws them once per pass: one
pass serves every point whose tables, decoders' runner-up tables
included, fit PASS_BYTES.  A pass walks each chunk in tiles of at most
TILE_WORDS trials; a float64 takes one 64-bit draw, so a tile's slice of
array a is drawn from the chunk's start state moved by PCG64.advance to
draw a * size + (tile offset).

Each tile is judged once for a group of up to MASK_POINTS points: every
part turns it into one integer mask per trial, bit i set when the trial
fails at point i, and the scheme fails where any part does.  A count
uniform is placed once among the CDF values of all the group's points,
by a guide table of at least GUIDE_BUCKETS buckets (_Positions), and
each point reads its count at that position.  An SM part is judged in
one of three ways.  A part that samples cells reads each point's decode
flag per count vector (noise._cell_decodes, the kernel exact evaluation
counts with) at every joint position of its digits, so one table lookup
judges a trial for all points.  A part of one block decodes the block's
table words once per cost rule and keeps, per flip count, whether all,
none or some of its words fail; only a count whose words partly fail
reads the position uniform.  A part of several blocks assembles each
point's words and decodes them.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import noise  # read as noise.<name> at each call, so a name replaced there reaches here

SAMPLER_BLOCK_BITS = 16  # longest run of one class's bits a sampler table enumerates
MASK_POINTS = 64  # grid points judged together by Monte Carlo, one bit each of a uint64 mask
GUIDE_BUCKETS = 1 << 12  # fewest guide-table buckets that place a uniform among merged thresholds
JOINT_TABLE_ENTRIES = 1 << 16  # joint positions of a point-mask table over cells or a block
PASS_BYTES = 1 << 25  # point-judging tables one Monte Carlo pass over the chunks builds

Digit = tuple[tuple[int, int], ...]  # (class, size) of the cells or block one uniform draws


def _sampler_cells(part: noise.SMPart) -> tuple[noise.Cells, list[Digit]] | None:
    """The unit-cost cells (noise._cells) and their digits when Monte Carlo
    draws flip counts per cell, else None and it draws the sampler blocks.

    A digit is a run of cells, in _cells order, whose count vector one
    uniform draws.  All V = prod (n_cell + 1) count vectors form one digit
    when their positions at MASK_POINTS points fit a joint table,
    MASK_POINTS (V - 1) + 1 <= JOINT_TABLE_ENTRIES (V <= 1,024).  Otherwise
    each cell is a digit, drawn when the cells need no more uniforms than
    the blocks, one per cell against two per block, and their count vectors
    at one point fit a joint table, V <= JOINT_TABLE_ENTRIES."""
    cells = noise._cells(part, part._unit_costs)
    vectors = math.prod((cells[0] + 1).tolist())
    pairs = list(zip(cells[1].tolist(), cells[0].tolist()))
    if MASK_POINTS * (vectors - 1) + 1 <= JOINT_TABLE_ENTRIES:
        return cells, [tuple(pairs)]
    blocks = sum(-(-n // SAMPLER_BLOCK_BITS) for n in part._unit_costs.sizes)
    if vectors <= JOINT_TABLE_ENTRIES and len(pairs) <= 2 * blocks:
        return cells, [(pair,) for pair in pairs]
    return None


def _sampler_blocks(part: noise.SMPart) -> list[tuple[int, np.ndarray]]:
    """Each weight class split into near-equal blocks of at most
    SAMPLER_BLOCK_BITS bits, as (class index, table): the table holds
    the block's 2^N words on their bit positions, sorted by popcount,
    so the words with c flips are the C(N, c) entries after the first
    sum_{j<c} C(N, j)."""
    blocks = []
    for k, mask in enumerate(part._unit_costs.masks):
        positions = [j for j in range(part.code.length) if (int(mask) >> j) & 1]
        count = -(-len(positions) // SAMPLER_BLOCK_BITS)
        for block in np.array_split(np.array(positions, dtype=np.uint64), count):
            local = np.arange(1 << len(block), dtype=np.uint64)
            local = local[np.argsort(np.bitwise_count(local), kind="stable")]
            table = np.zeros_like(local)
            for i, position in enumerate(block):
                table |= ((local >> np.uint64(i)) & np.uint64(1)) << position
            blocks.append((k, table))
    return blocks


def _runner_up_by_syndrome(part: noise.SMPart, costs: noise._Costs) -> np.ndarray:
    return np.concatenate([noise._coset_minima(base, part._codewords, costs, word=False)[1]
                           for base in noise._coset_bases(part.code)])


class _Sampler:
    """What Monte Carlo samples of one SM part, built for one
    pse_monte_carlo call and dropped when it returns, so no part keeps it:
    its cells and their digits (_sampler_cells), or else its blocks
    (_sampler_blocks), each block a digit of one (class, size) pair."""

    def __init__(self, part: noise.SMPart):
        self.part, layout = part, _sampler_cells(part)
        self.blocks = [] if layout else _sampler_blocks(part)
        self.cells, self.digits = layout or (
            None, [((k, len(table).bit_length() - 1),) for k, table in self.blocks])


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


Reader = Callable[[np.ndarray], np.ndarray]  # a part's uniform arrays (rows) -> per-trial result
Judge = tuple[Reader, int]  # a part's tile rows -> per-trial point masks, and the bytes it holds


def _draws(part: noise.RepetitionPart | _Sampler) -> int:
    """Uniform arrays a chunk draws for a part: for a repetition part one
    per distinct weight, in first-seen order; for an SM part, given by its
    _Sampler, one count array per digit when it samples cells, else a
    count and then a position array per sampler block, in class order."""
    if isinstance(part, noise.RepetitionPart):
        return len(set(part.weights))
    return len(part.digits) * (1 if part.cells is not None else 2)


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
    at most u, here the inverse-CDF flip count of a block or the count
    vector index of a digit.  The thresholds below 1 of all points (u < 1,
    so no other ever counts) are merged, sorted and distinct; u's position
    m is the number of merged values at most u, and counts[i, m] is point
    i's count at every u of position m, so one position serves every
    point.  counts is one running sum per point over its thresholds' ranks
    among the merged values, in the narrowest unsigned type that holds it.

    Positions are found by indexed search (Chen and Asau 1974; Devroye
    1986, III.2.4): guide[b] is the position of b / buckets, which is the
    position of every u in bucket b = floor(u buckets) unless a merged
    value lies inside the bucket, where guide[b] holds -1 - position; only
    those uniforms are searched.  buckets is the least power of two
    that gives 64 buckets per merged value, kept within GUIDE_BUCKETS and
    2^16, so few uniforms are searched however many points share the
    table (nbytes).
    """

    def __init__(self, thresholds: Sequence[np.ndarray]):
        values = np.concatenate(thresholds)
        merged = np.sort(values)
        merged = merged[:merged.searchsorted(1.0)]
        distinct = np.empty(len(merged), dtype=bool)  # np.unique would import numpy.ma
        distinct[:1] = True
        np.not_equal(merged[1:], merged[:-1], out=distinct[1:])
        self.merged = merged[distinct]
        self.buckets = min(max(GUIDE_BUCKETS, 1 << (64 * len(self.merged) - 1).bit_length()),
                           1 << 16)
        # T <= b / B iff b >= ceil(T B), which is exact as B is a power of
        # two, so position m fills buckets ceil(T_m B) to ceil(T_(m+1) B) - 1;
        # a T with T B not an integer lies inside bucket ceil(T B) - 1
        scaled = self.merged * self.buckets
        ceil = np.ceil(scaled).astype(np.intp)
        edges = np.concatenate(([0], ceil, [self.buckets]))
        self.guide = np.repeat(np.arange(len(ceil) + 1), edges[1:] - edges[:-1])
        inside = ceil[ceil != scaled] - 1
        self.guide[inside] = -1 - self.guide[inside]
        # a threshold of rank r among the merged values counts from position
        # r + 1, and one of 1 or more from position width, which no uniform
        # takes: each point's counts sum its thresholds position by position
        width, lengths = len(self.merged) + 1, [len(t) for t in thresholds]
        ranks = np.concatenate((self.merged, [1.0])).searchsorted(values, side="right")
        ranks += np.repeat(np.arange(0, len(lengths) * (width + 1), width + 1), lengths)
        per_position = np.bincount(ranks, minlength=len(lengths) * (width + 1))
        self.counts = per_position.reshape(len(lengths), width + 1)[:, :width].cumsum(
            axis=1, dtype=np.min_scalar_type(max(lengths)))

    @property
    def nbytes(self) -> int:
        """8 buckets + 8 m + points (m + 1) itemsize bytes for m merged
        values: at most 512 KB of guide, and 2.8 MB of counts for 64
        points over 343 count vectors (itemsize 2)."""
        return self.merged.nbytes + self.guide.nbytes + self.counts.nbytes

    def locate(self, u: np.ndarray, out: np.ndarray, work: dict[str, np.ndarray]) -> np.ndarray:
        """The position of each uniform in u, written to the intp array out."""
        np.multiply(u, self.buckets, out=out, casting="unsafe")  # the bucket, as u >= 0
        # out[j] is read before it is written; with out=, mode "raise" would buffer a copy
        self.guide.take(out, out=out, mode="clip")
        fix = np.flatnonzero(np.less(out, 0, out=_working(work, "straddles", len(u), bool)))
        out[fix] = np.searchsorted(self.merged, u[fix], side="right")
        return out


def _point_bits(flags: dict[int, np.ndarray], size: int, dtype: np.dtype) -> np.ndarray:
    """size masks whose bit i is flags[i] (points of one group)."""
    masks = np.zeros(size, dtype=dtype)
    for i, flag in flags.items():
        masks |= flag.astype(dtype) << dtype.type(i)
    return masks


def _repetition_reader(part: noise.RepetitionPart, p_ms: Sequence[float],
                       work: dict[str, np.ndarray], dtype: np.dtype) -> Judge:
    """Point masks of a repetition part over a group of points: bit i of a
    trial's mask is set iff the trial fails at p_ms[i].

    A bit's flip count c ~ Binomial(fold, q) stays below the threshold
    t = (fold + 1) // 2, so its majority decodes, with probability
    s = F(t - 1), and bits flip independently, so the k bits of one weight
    all decode with probability s^k: per weight one uniform u is drawn, and
    one of its bits fails iff u >= s^k.
    """
    decoded = range((part.fold + 1) // 2)  # a bit decodes iff its flip count is below t
    thresholds = [[noise._majority_bit_failure(noise.p_err(w, p_m), part.fold, decoded)
                   ** part.weights.count(w) for p_m in p_ms] for w in dict.fromkeys(part.weights)]
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
    runs = noise._binomials(n).astype(float)
    starts = (np.cumsum(runs) - runs).astype(np.intp)
    runs.flags.writeable = starts.flags.writeable = False
    return runs, starts


def _digit_cdf(digit: Digit, class_q: Sequence[float]) -> np.ndarray:
    """F(0), ..., F(V - 2) over the V count vectors of the digit's cells or
    block, cell 0 fastest: the cumulative product of their Binomial(n, q_k)
    distributions, for flip probability class_q[k] per weight class k."""
    pmf = noise._Costs.outer([_block_runs(n)[0] * noise._pattern_probabilities(class_q[k], n)
                              for k, n in digit])
    return np.cumsum(pmf)[:-1]


def _count_positions(part: noise.SMPart, p_ms: Sequence[float],
                     digits: Sequence[Digit]) -> list[_Positions]:
    """For each digit, where its count uniforms fall among each point's CDF
    values (_digit_cdf); equal digits share their CDFs, so one _Positions."""
    class_q = [[noise.p_err(part.weights[j], p_m) for j in part._unit_costs.first]
               for p_m in p_ms]
    shared: dict[Digit, _Positions] = {}
    for digit in digits:
        if digit not in shared:
            shared[digit] = _Positions([_digit_cdf(digit, q) for q in class_q])
    return [shared[digit] for digit in digits]


def _locate(positions: Sequence[_Positions], uniforms: Sequence[np.ndarray],
            work: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Each digit's count positions, read from its count uniforms; digit
    j's is working array pos<j>."""
    return [where.locate(u, _working(work, f"pos{j}", len(u), np.intp), work)
            for j, (where, u) in enumerate(zip(positions, uniforms))]


def _joint(positions: list[np.ndarray], widths: Sequence[int], work: dict[str, np.ndarray]):
    """Each trial's joint position, digit 0 fastest, from the digits' count
    positions (_locate) and numbers of positions (widths); one digit's
    positions are its joint positions."""
    if len(positions) == 1:
        return positions[0]
    joint = _working(work, "joint", len(positions[0]), np.intp)
    np.copyto(joint, positions[-1])
    for pos, width in zip(positions[-2::-1], widths[-2::-1]):
        joint *= width
        joint += pos
    return joint


def _at_joint(by_counts: np.ndarray, positions: Sequence[_Positions], i: int) -> np.ndarray:
    """A table over count vectors, last digit first, read at each joint
    position of point i, digit 0 fastest: one take at the flat index of
    each position's count vector."""
    index, stride = 0, 1
    for where, radix in zip(positions, by_counts.shape[::-1]):
        index = np.add.outer(stride * where.counts[i].astype(np.intp), index)
        stride *= radix
    return by_counts.take(index.ravel())


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


def _syndromes(part: noise.SMPart, words: np.ndarray) -> np.ndarray:
    """In systematic order w ^ C[w mod 2^k] is (0, s), s the syndrome of w."""
    low = (words & np.uint64(len(part._codewords) - 1)).astype(np.intp)
    return ((words ^ part._codewords.take(low)) >> np.uint64(part.code.dim)).astype(np.intp)


def _syndrome_table_bytes(code: noise.BinaryLinearCode, costs: noise._Costs, words: float) -> int:
    """Bytes of the runner-up table, one cost per coset, that _sm_decoder
    builds under the cost rule costs to decode words received words, or 0
    when it scans each word's coset: the table walks all 2^n patterns once
    (n <= HARD_EXACT_BITS), the scan 2^k codewords per word, so the table
    pays from 2^(n - k) words on."""
    pays = code.length <= noise.HARD_EXACT_BITS and words >= 1 << code.redundancy
    return costs.dtype.itemsize << code.redundancy if pays else 0


def _sm_decoder(
    part: noise.SMPart, costs: noise._Costs, words: float = math.inf
) -> Callable[[np.ndarray], np.ndarray]:
    """Which received words the part fails on under the cost rule costs
    (SMPart._pricing), for a run that decodes words words under it.

    A word succeeds iff it is the unique minimum-cost member of its coset,
    iff its cost is below its coset's runner-up cost.  Under every cost
    rule alike, that cost is looked up by syndrome in a table built here
    when the words repay it (_syndrome_table_bytes), and otherwise each
    word's coset is scanned.  Both give the same decisions.
    """
    if _syndrome_table_bytes(part.code, costs, words):
        table = _runner_up_by_syndrome(part, costs)
        return lambda received: ~(costs(received) < table[_syndromes(part, received)])
    return lambda received: ~(costs(received) < noise._coset_minima(
        received, part._codewords, costs, word=False)[1])


def _rule_words(sampler: _Sampler, costs: Sequence[noise._Costs], trials: int) -> dict:
    """The words a group of points with cost rules costs decodes under each
    distinct rule: a part of one block its block's 2^N table words once,
    any other the trials at each point of the rule."""
    if len(sampler.blocks) == 1:
        return dict.fromkeys(costs, len(sampler.blocks[0][1]))
    return {rule: trials * costs.count(rule) for rule in dict.fromkeys(costs)}


def _sm_reader(sampler: _Sampler, p_ms: Sequence[float], costs: Sequence[noise._Costs],
               trials: int, work: dict[str, np.ndarray], dtype: np.dtype) -> Judge:
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
    point's words (_words) and decodes them.  The bytes reported count
    every runner-up table the decoders build.
    """
    part, rule_words = sampler.part, _rule_words(sampler, costs, trials)
    blocks = [_CountBlock(table, *_block_runs(n), positions) for (_, table), ((_, n),), positions
              in zip(sampler.blocks, sampler.digits, _count_positions(part, p_ms, sampler.digits))]
    where = [block.positions for block in blocks]
    held = sum(positions.nbytes for positions in {id(p): p for p in where}.values())
    held += sum(_syndrome_table_bytes(part.code, rule, n) for rule, n in rule_words.items())
    if len(blocks) > 1:
        decoders = {rule: _sm_decoder(part, rule, words) for rule, words in rule_words.items()}

        def decoded(uniforms: np.ndarray) -> np.ndarray:
            size = uniforms.shape[-1]
            out, hit = _working(work, "part", size, dtype), _working(work, "hit", size, dtype)
            positions, v = _locate(where, uniforms[0::2], work), uniforms[1::2]
            out.fill(0)
            for i, rule in enumerate(costs):
                failing = decoders[rule](_words(blocks, i, v, positions, work))
                out |= np.multiply(failing.view(np.uint8), dtype.type(1 << i), out=hit)
            return out
        return decoded, held

    (block,) = blocks
    counts = block.positions.counts
    fails: dict[int, np.ndarray] = {}
    # per rule and count c whose words partly fail: C(N, c), point masks, decisions of the words
    mixed: list[tuple[float, np.ndarray, np.ndarray]] = []
    for rule, words in rule_words.items():
        decisions = _sm_decoder(part, rule, words)(block.table)
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


def _cell_flags(sampler: _Sampler, costs: noise._Costs) -> np.ndarray:
    """Whether each count vector of the sampler's cells decodes under the
    cost rule costs (noise._cell_decodes), indexed by the counts, last cell
    first.  Each weight class lies in one class of the rule, the class of
    its first position."""
    sizes, classes, columns = sampler.cells
    rule_class = np.array([next(c for c, mask in enumerate(costs.masks) if (int(mask) >> j) & 1)
                           for j in sampler.part._unit_costs.first])
    flags = np.empty(tuple((sizes + 1)[::-1].tolist()), dtype=bool)
    cells = (sizes, rule_class[classes], columns)
    for box, _, decodes in noise._cell_decodes(sampler.part, costs, cells):
        flags[box[::-1]] = decodes.reshape([counts.stop - counts.start for counts in box[::-1]])
    return flags


def _cell_reader(sampler: _Sampler, p_ms: Sequence[float], costs: Sequence[noise._Costs],
                 work: dict[str, np.ndarray], dtype: np.dtype) -> Judge:
    """Point masks of an SM part that samples cells (_sampler_cells) over a
    group of points: bit i of a trial's mask is set iff the trial fails at
    p_ms[i], whose decoder minimizes costs[i].

    A cell of n bits of weight class k flips Binomial(n, q_k) of them,
    independently of the other cells, and one uniform per digit gives the
    count vector of its cells by inverse CDF of their product distribution
    (_Positions, shared by equal digits).  Whether a pattern decodes
    depends only on its count vector over the cells, under every cost
    rule, as each weight class lies within one class of the rule; so each
    point reads its rule's decode flags (noise._cell_decodes) at every
    joint position of the digits, at most JOINT_TABLE_ENTRIES
    (_group_width), into one table of point masks, and a trial is judged
    by one lookup.  No word is drawn or decoded.
    """
    where = _count_positions(sampler.part, p_ms, sampler.digits)
    shape = [_radix(digit) for digit in reversed(sampler.digits)]
    flags = {rule: _cell_flags(sampler, rule).reshape(shape) for rule in dict.fromkeys(costs)}
    fails = {i: ~_at_joint(flags[rule], where, i) for i, rule in enumerate(costs)}
    widths = [positions.counts.shape[1] for positions in where]
    table = _point_bits(fails, math.prod(widths), dtype)

    def failed(uniforms: np.ndarray) -> np.ndarray:
        joint = _joint(_locate(where, uniforms, work), widths, work)
        return table.take(joint, out=_working(work, "part", len(joint), dtype), mode="clip")
    return failed, table.nbytes + sum(p.nbytes for p in {id(p): p for p in where}.values())


def _radix(digit: Digit) -> int:
    """The number of count vectors of a digit's cells or block."""
    return math.prod(n + 1 for _, n in digit)


def _group_width(rules: Sequence[tuple[_Sampler, Sequence[noise._Costs]]], points: int,
                 trials: int) -> int:
    """How many points are judged together, given each SM part's sampler
    with its points' cost rules: at most MASK_POINTS, and few enough that
    each part judged by one table lookup, whose digits (cells or one block)
    of V_d count vectors take at most width (V_d - 1) + 1 positions each,
    has at most JOINT_TABLE_ENTRIES joint positions, and that the runner-up
    tables each group builds, at most one per distinct rule among its
    points (_rule_words), fit PASS_BYTES (unless one point alone exceeds
    either)."""
    # V_d - 1 per digit of the parts judged by one table lookup
    lookups = [[_radix(digit) - 1 for digit in s.digits]
               for s, _ in rules if s.cells is not None or len(s.blocks) == 1]

    def fits(width: int) -> bool:
        tables = max(sum(_syndrome_table_bytes(sampler.part.code, rule, n)
                         for sampler, costs in rules if sampler.cells is None
                         for rule, n in _rule_words(sampler, costs[lo:lo + width], trials).items())
                     for lo in range(0, points, width))  # the runner-up tables of each group
        return tables <= PASS_BYTES and all(
            math.prod(width * v + 1 for v in digits) <= JOINT_TABLE_ENTRIES for digits in lookups)
    width = max(1, min(MASK_POINTS, points))
    while width > 1 and not fits(width):
        width -= 1
    return width


def _count_failures(
    scheme: noise.MeasurementScheme, p_ms: Sequence[float], trials: int, seed: int,
    chunk_size: int,
) -> list[int]:
    """Failed trials at each p_m, every point reading the same draws.

    Each SM part gets one _Sampler for the call.  Points are judged in
    groups of _group_width: each part reads a tile into one mask per trial,
    bit i for the group's point i (_repetition_reader, _cell_reader,
    _sm_reader), the scheme fails where any part does, and each point
    counts its bit.  Groups share a pass over the chunks (_judge_chunks)
    while their tables, decoders' runner-up tables included, hold less
    than PASS_BYTES, so a pass holds at most PASS_BYTES plus one group's
    tables.
    """
    # equal X and Z parts share a sampler and a reader
    units = {id(part): _Sampler(part) if isinstance(part, noise.SMPart) else part
             for part in scheme.parts}
    rules = {key: [unit.part._pricing(p_m)[0] for p_m in p_ms]
             for key, unit in units.items() if isinstance(unit, _Sampler)}
    width = _group_width([(units[key], costs) for key, costs in rules.items()], len(p_ms), trials)
    dtype = np.min_scalar_type((1 << width) - 1)  # the narrowest with a bit per point
    failures, work = [0] * len(p_ms), {}  # the groups share their working arrays

    def judge(key: int, unit: noise.RepetitionPart | _Sampler, points: range) -> Judge:
        group = [p_ms[i] for i in points]
        if key not in rules:
            return _repetition_reader(unit, group, work, dtype)
        costs = rules[key][points.start:points.stop]
        if unit.cells is not None:
            return _cell_reader(unit, group, costs, work, dtype)
        return _sm_reader(unit, group, costs, trials, work, dtype)

    def judges(points: range) -> tuple[list[Reader], int]:
        made = {key: judge(key, unit, points) for key, unit in units.items()}
        return [made[id(part)][0] for part in scheme.parts], sum(held for _, held in made.values())

    draws = [_draws(units[id(part)]) for part in scheme.parts]
    groups = [range(lo, min(lo + width, len(p_ms))) for lo in range(0, len(p_ms), width)]
    while groups:
        passing, held = [], 0
        while groups and held < PASS_BYTES:
            points = groups.pop(0)
            readers, nbytes = judges(points)
            passing.append((points, readers))
            held += nbytes
        _judge_chunks(draws, passing, failures, trials, seed, chunk_size, work, dtype)
    return failures


def _judge_chunks(draws: list[int], passing: list[tuple[range, list[Reader]]],
                  failures: list[int], trials: int, seed: int, chunk_size: int,
                  work: dict[str, np.ndarray], dtype: np.dtype):
    """Add each group's failed trials to failures, in one pass over the chunks.

    Chunk c's stream holds the parts' uniform arrays back to back (draws[j]
    of them for part j, _draws), each size long, so entry t of array a is
    draw a * size + t.  The chunk is walked in tiles of at most TILE_WORDS
    trials: each array's slice is drawn from the chunk's start state
    advanced to it, and every group judges the tile.
    """
    ends = list(itertools.accumulate(draws))
    spans = list(zip([0] + ends[:-1], ends))
    uniforms = np.empty((ends[-1] if ends else 0, min(noise.TILE_WORDS, chunk_size, trials)))
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
