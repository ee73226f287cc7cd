"""Quantum data-syndrome code assembly, verification, and constructions.

A QDS code pairs a subsystem code (a stabilizer code among them) with a
binary SM code.  The measured elements are the stabilizer generators
followed by the products selected by the SM code's redundant columns;
measuring them never collapses the encoded state because every one lies
in the stabilizer span.

Distances are computed through the characterization that the dual of the
joint code is exactly {(e, extended_syndrome(e)) : e in F4^n}; the
acceptance suite verifies this against a brute-force dual enumeration on
small instances.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from .codes import (
    AdditiveCode,
    StabilizerCode,
    SubsystemCode,
    make_stabilizer,
    min_distance,
    min_weight_outside,
)
from .errors import (
    ConstructionFailureError,
    DimensionError,
    ParseError,
    PreconditionError,
)
from .f2 import Basis, bit_reversed
from .gf4 import BitVector, F4Vector, combination, syndrome, trace_inner_product
from .smcodes import BinaryLinearCode, sm_catalog


@dataclass(frozen=True)
class QDSParams:
    """Parameters in the [[n,k,d:l]] / [[n,k,r,d:l]] notation."""

    n: int
    k: int
    r: int
    d: int
    l: int

    def __str__(self) -> str:
        if self.r:
            return f"[[{self.n},{self.k},{self.r},{self.d}:{self.l}]]"
        return f"[[{self.n},{self.k},{self.d}:{self.l}]]"


@dataclass(frozen=True)
class QDSCode:
    """A base code plus an SM code over its measured generators."""

    base: SubsystemCode
    sm: BinaryLinearCode
    measured: tuple[F4Vector, ...]

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        """Number of protected generators (m - r for subsystem bases)."""
        return len(self.base.rows)

    @property
    def l(self) -> int:
        return self.sm.redundancy

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(v.weight for v in self.measured)

    @cached_property
    def distance(self) -> int:
        """The QDS distance, searched once per code (qds_min_distance)."""
        return qds_min_distance(self)


def measured_elements(rows: Sequence[F4Vector], sm: BinaryLinearCode) -> tuple[F4Vector, ...]:
    """The stabilizer rows followed by the SM code's redundant products
    b_j = sum_i a_{i,j} g_i, in systematic measurement order: sums of the
    rows, so every measured element lies in the stabilizer span."""
    if sm.dim != len(rows):
        raise DimensionError(
            f"SM code dimension {sm.dim} != number of measured generators {len(rows)}"
        )
    return tuple(rows) + tuple(combination(rows, sm.a_column(j)) for j in range(sm.redundancy))


def _generators(base: SubsystemCode) -> tuple[F4Vector, ...]:
    """base's stabilizer generators, the elements a QDS code measures.  A
    base whose stabilizer is trivial leaves an SM code nothing to protect,
    and is refused before any SM code is looked up."""
    if not base.rows:
        raise DimensionError(
            f"the code has no stabilizer generator to measure: its gauge group "
            f"(r = {base.r}, k = {base.k}) has a trivial stabilizer"
        )
    return base.rows


def build_qds(base: SubsystemCode, sm: BinaryLinearCode) -> QDSCode:
    return QDSCode(base, sm, measured_elements(_generators(base), sm))


def extended_syndrome(qds: QDSCode, e: F4Vector) -> BitVector:
    """Bit j = measured[j] * e; equals (s, s . A) for the base syndrome s."""
    if e.n != qds.n:
        raise DimensionError(f"error length {e.n} != code length {qds.n}")
    return syndrome(qds.measured, e)


def qds_min_distance(qds: QDSCode) -> int:
    """min over e outside the gauge group D (C itself for stabilizer
    bases) of weight(e) + weight(extended_syndrome(e)).

    The dual characterization makes an explicit dual basis unnecessary:
    the extended syndrome is e's syndrome against the measured elements.
    """
    return min_weight_outside(qds.base.gauge, qds.measured, count_syndrome=True)


def qds_params(qds: QDSCode) -> QDSParams:
    base = qds.base
    return QDSParams(base.n, base.k, base.r, qds.distance, qds.l)


def identity_qds(base: SubsystemCode) -> QDSCode:
    """The l = 0 assembly: measure exactly the stabilizer generators."""
    return build_qds(base, sm_catalog(f"identity-{len(_generators(base))}"))


def augment_parity(base: SubsystemCode) -> QDSCode:
    """Attach the [m+1, m, 2] parity SM code to a distance-3 code.

    The extra measured element is the product of all stabilizer
    generators, which acts as a parity bit for the syndrome; the result is
    an [[n,k,3:1]] (or [[n,k,r,3:1]]) QDS code.  That distance is
    guaranteed: a weight-1 error outside C (outside D for subsystem codes)
    has a nonzero syndrome s, whose extended syndrome (s, parity(s)) has
    weight at least 2, and a weight-2 error outside C has a nonzero
    syndrome.  A smaller distance is therefore a defect.
    """
    d = min_distance(base)
    if d != 3:
        raise PreconditionError(f"parity augmentation needs a distance-3 base, got d={d}")
    qds = build_qds(base, sm_catalog(f"parity-{len(base.rows)}"))
    if qds.distance < 3:
        raise ConstructionFailureError("parity augmentation failed to preserve distance 3")
    return qds


# ----------------------------------------------------------------------
# Lemma-1 equivalence moves
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Permute:
    perm: tuple[int, ...]


@dataclass(frozen=True)
class Scale:
    coord: int
    scalar: int  # OMEGA or OMEGA2

    def __post_init__(self):
        if self.scalar not in (2, 3):
            raise ParseError(f"scale factor must be omega (2) or omega^2 (3), got {self.scalar}")


@dataclass(frozen=True)
class Conjugate:
    coord: int


Move = Permute | Scale | Conjugate


def equivalence_apply(rows: Iterable[F4Vector], move: Move) -> tuple[F4Vector, ...]:
    """Apply one local-equivalence move to every row.

    Coordinate permutations, single-coordinate nonzero scalings, and
    single-coordinate conjugations each permute or relabel the multiset of
    single-symbol-error syndromes, so they preserve the QDS property.
    """
    rows = tuple(rows)
    if isinstance(move, Permute):
        return tuple(r.permute(move.perm) for r in rows)
    n = rows[0].n
    if not 0 <= move.coord < n:
        raise DimensionError(f"coordinate {move.coord} outside [0, {n})")
    if isinstance(move, Scale):
        return tuple(r.scale_at(move.coord, move.scalar) for r in rows)
    return tuple(r.conjugate_at(move.coord) for r in rows)


def single_symbol_errors(n: int) -> list[F4Vector]:
    """The 3n errors acting as one nonzero symbol on one coordinate."""
    return [F4Vector.single(n, j, v) for j in range(n) for v in (1, 2, 3)]


# ----------------------------------------------------------------------
# generator search: impure distance-3 codes as zero-redundancy QDS codes
# ----------------------------------------------------------------------

# pivots are the stabilizer elements of weight below the distance 3
PIVOT_WEIGHT = 2


@dataclass(frozen=True)
class ImpureSearchResult:
    qds: QDSCode  # the zero-redundancy QDS code found, its distance searched once
    pivot: F4Vector
    modifier: BitVector
    pivots_tried: int
    strings_examined: int

    @property
    def rows(self) -> tuple[F4Vector, ...]:
        return self.qds.base.rows


def _low_weight_span_elements(code: AdditiveCode) -> list[F4Vector]:
    elems = [v for v in code.span() if 0 < v.weight <= PIVOT_WEIGHT]
    elems.sort(key=lambda v: (v.weight, v.symbols()))
    return elems


def _even_weight_strings(m: int) -> Iterable[int]:
    """Even-weight bitstrings of length m, increasing weight, lexicographic
    (position 0 most significant) within each weight."""
    for w in range(0, m + 1, 2):
        masks = [sum(1 << i for i in support) for support in itertools.combinations(range(m), w)]
        yield from sorted(masks, key=lambda a: bit_reversed(a, m))


def _completions(
    base: StabilizerCode, pivots: Sequence[F4Vector]
) -> Iterator[tuple[F4Vector, list[F4Vector]]]:
    """(g1, rows) such that g1 and the rows form a basis of the stabilizer.

    First each pivot with the input rows that complete it.  Should all of
    those fail, each pivot again with every other completion, up to adding
    g1 to rows (the even strings do that).  At most 4 single-symbol errors
    anticommute with g1 and each rules out m of the 2^(m-1) even strings,
    so only m <= 5 gets that far, where a pivot has 839 other completions.
    """
    completions = []
    for g1 in pivots:
        tracker = Basis([g1.bit_expansion()])
        completions.append([row for row in base.rows if tracker.add(row.bit_expansion())])
        yield g1, completions[-1]
    for g1, rows in zip(pivots, completions):
        given = tuple(1 << i for i in range(len(rows)))
        for masks in itertools.combinations(range(1, 1 << len(rows)), len(rows)):
            tracker = Basis()
            if masks != given and all(tracker.add(mask) for mask in masks):
                yield g1, [combination(rows, mask) for mask in masks]


def impure_zero_redundancy(base: StabilizerCode) -> ImpureSearchResult:
    """Find generators making an impure [[n,k,3]] code an [[n,k,3:0]] QDS code.

    For each weight-<=2 stabilizer element g1 (minimal weight first), a row
    basis starting with g1 is formed (`_completions`: the input rows first,
    any completion after), g1's row is replaced by the product of all rows,
    and g1 is added to the row subsets named by even-weight strings until
    every single-symbol error keeps an extended syndrome of weight >= 2
    (>= 3 on the odd-parity side) unless it lies in the stabilizer itself.
    The accepted row set is returned as a zero-redundancy QDS code;
    `pivots_tried` counts the bases formed.  Every row found is a sum of
    stabilizer rows, so the span stays that of base, and the QDS distance
    is 3 exactly when the test passes (a weight-2 error outside the
    stabilizer has a nonzero syndrome, and a weight-3 logical costs 3).  A
    confirming distance search that disagrees raises ConstructionFailureError.
    """
    d = min_distance(base)
    if d != 3:
        raise PreconditionError(f"construction needs a distance-3 code, got d={d}")
    pivots = _low_weight_span_elements(base.stabilizer)
    if not pivots:
        raise PreconditionError("code is pure: no stabilizer element of weight < 3")
    m, n = base.m, base.n
    errors = single_symbol_errors(n)
    stab_basis = base.stabilizer.basis()
    strings_examined = 0
    for bases_tried, (g1, completion) in enumerate(_completions(base, pivots), start=1):
        new_rows = [combination([g1] + completion, (1 << m) - 1)] + completion
        anticommuting = [e for e in errors if trace_inner_product(g1, e)]
        commuting = [e for e in errors if not trace_inner_product(g1, e)]
        base_synd = {e: syndrome(new_rows, e) for e in errors}
        # adding g1 to the rows named by a XORs a onto anticommuting syndromes
        for a in _even_weight_strings(m):
            strings_examined += 1
            ok = all((base_synd[e].bits ^ a).bit_count() >= 3 for e in anticommuting) and all(
                base_synd[e].weight >= 2 or stab_basis.contains(e.bit_expansion())
                for e in commuting
            )
            if not ok:
                continue
            candidate = [
                row + g1 if (a >> i) & 1 else row for i, row in enumerate(new_rows)
            ]
            qds, modifier = identity_qds(make_stabilizer(candidate)), BitVector(m, a)
            if qds.distance != 3:
                raise ConstructionFailureError(
                    f"pivot {g1} with string {modifier} passed the weight-1 test but gives "
                    f"QDS distance {qds.distance}, not 3; this indicates a defect"
                )
            return ImpureSearchResult(
                qds,
                pivot=g1,
                modifier=modifier,
                pivots_tried=bases_tried,
                strings_examined=strings_examined,
            )
    raise ConstructionFailureError(
        "no generator choice found; the construction guarantees one exists "
        "for impure distance-3 codes, so this indicates a defect"
    )
