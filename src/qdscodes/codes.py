"""Stabilizer and subsystem codes over additive F4 codes.

Minimum distances and purity are computed by exhaustive enumeration at
desk scale (every code treated here has n <= 9; the configured caps are
n <= 16, search weight <= 5).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from . import f2
from .errors import (
    CapacityError,
    CatalogError,
    CommutationError,
    ParseError,
    RankError,
    StructureError,
)
from .gf4 import F4Vector, f2_rank, pauli_string_parse, trace_inner_product

MAX_N = 16
MAX_SEARCH_WEIGHT = 5
MAX_SPAN_EXPONENT = 22


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
class StabilizerCode:
    """An [[n, k]] stabilizer code presented by m = n - k commuting generators."""

    code: AdditiveCode

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def m(self) -> int:
        return self.code.dim

    @property
    def k(self) -> int:
        return self.n - self.m

    @property
    def rows(self) -> tuple[F4Vector, ...]:
        return self.code.rows


@dataclass(frozen=True)
class SubsystemCode:
    """A subsystem code: gauge code D with stabilizer C = D intersect D-perp."""

    gauge: AdditiveCode
    stabilizer: AdditiveCode

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


def make_stabilizer(rows: Iterable[F4Vector]) -> StabilizerCode:
    """Validate rows as independent, mutually commuting generators."""
    rows = tuple(rows)
    code = AdditiveCode.from_rows(rows)
    for i, gi in enumerate(rows):
        for gj in rows[i + 1 :]:
            if trace_inner_product(gi, gj):
                raise CommutationError(f"generators {gi} and {gj} anticommute")
    return StabilizerCode(code)


def _gram_null_combinations(rows: Sequence[F4Vector]) -> list[F4Vector]:
    """Basis of {v in span(rows) : v orthogonal to every row}.

    Solves c . Gram = 0 for the F2 Gram matrix of the trace form, so no
    explicit dual basis is needed.
    """
    g = len(rows)
    gram = []
    for i in range(g):
        mask = 0
        for j in range(g):
            mask |= trace_inner_product(rows[i], rows[j]) << j
        gram.append(mask)
    combos = f2.null_space(gram, g)
    out = []
    for c in combos:
        v = F4Vector.zero(rows[0].n)
        for j in range(g):
            if (c >> j) & 1:
                v = v + rows[j]
        out.append(v)
    return out


def make_subsystem(
    gauge_rows: Iterable[F4Vector],
    stabilizer_rows: Iterable[F4Vector] | None = None,
) -> SubsystemCode:
    """Build a subsystem code from its gauge generators.

    The stabilizer is computed as a basis of D intersect D-perp.  An
    explicit `stabilizer_rows` presentation may be supplied (for fixing
    generator weights); it must span the same subspace.
    """
    gauge = AdditiveCode.from_rows(gauge_rows)
    derived = _gram_null_combinations(gauge.rows)
    if (gauge.dim + len(derived)) % 2:
        raise StructureError("gauge rank and stabilizer rank have incompatible parity")
    stab_rows = tuple(stabilizer_rows) if stabilizer_rows is not None else tuple(derived)
    stabilizer = AdditiveCode.from_rows(stab_rows) if stab_rows else AdditiveCode(gauge.n, ())
    if stabilizer.dim != len(derived):
        raise StructureError("supplied stabilizer rows do not match dim(D intersect D-perp)")
    derived_basis = f2.Basis(v.bit_expansion() for v in derived)
    for v in stab_rows:
        if not derived_basis.contains(v.bit_expansion()):
            raise StructureError(f"row {v} lies outside D intersect D-perp")
    for s in stab_rows:
        for g in gauge.rows:
            if trace_inner_product(s, g):
                raise StructureError(f"stabilizer row {s} anticommutes with gauge row {g}")
    return SubsystemCode(gauge, stabilizer)


def errors_of_weight(n: int, weight: int) -> Iterator[F4Vector]:
    """All F4 vectors of the given Pauli weight, support then symbols in
    lexicographic order."""
    if weight == 0:
        yield F4Vector.zero(n)
        return
    for support in itertools.combinations(range(n), weight):
        for values in itertools.product((1, 2, 3), repeat=weight):
            x = z = 0
            for coord, v in zip(support, values):
                x |= (v & 1) << coord
                z |= (v >> 1) << coord
            yield F4Vector(n, x, z)


def min_weight_outside(excluded: AdditiveCode, extra_cost: Callable[[F4Vector], float]) -> int:
    """min over e outside span(excluded) of weight(e) + extra_cost(e).

    Enumerates e by increasing weight with the running minimum as cutoff,
    and stops at the first e of zero extra cost.  The cheap extra cost is
    computed first; span membership is tested only for an e that would
    lower the running minimum.  A minimum that vectors beyond the search
    weight could still undercut is refused, not returned.
    """
    n = excluded.n
    if n > MAX_N:
        raise CapacityError(f"n={n} exceeds the enumeration cap n<={MAX_N}")
    top = min(MAX_SEARCH_WEIGHT, n)
    basis = excluded.basis()
    best = math.inf
    for w in range(1, top + 1):
        if w >= best:
            break
        for e in errors_of_weight(n, w):
            total = w + extra_cost(e)
            if total < best and not basis.contains(e.bit_expansion()):
                best = total
                if total == w:
                    return w
    if best == math.inf or (top < n and best > top + 1):
        raise CapacityError(
            f"no minimum settled by vectors of weight <= {top} (search cap {MAX_SEARCH_WEIGHT})"
        )
    return best


def min_distance(code: StabilizerCode | SubsystemCode) -> int:
    """min weight of e with zero syndrome outside the stabilizer (outside
    the gauge group for subsystem codes)."""
    rows = code.rows

    def syndrome_cost(e: F4Vector) -> float:
        # zero iff the syndrome is zero; stops at the first anticommuting row
        for g in rows:
            if trace_inner_product(g, e):
                return math.inf
        return 0

    excluded = code.gauge if isinstance(code, SubsystemCode) else code.code
    return min_weight_outside(excluded, syndrome_cost)


def is_impure(code: StabilizerCode | SubsystemCode, d: int) -> bool:
    """True iff some nonzero stabilizer span element has weight below d."""
    additive = code.code if isinstance(code, StabilizerCode) else code.stabilizer
    if additive.dim <= MAX_SPAN_EXPONENT:
        return any(v.weight < d for v in additive.span() if v.weight > 0)
    basis = additive.basis()
    for w in range(1, d):
        for e in errors_of_weight(additive.n, w):
            if basis.contains(e.bit_expansion()):
                return True
    return False


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

_EXAMPLE_6_1_3 = ("IIIZIZ", "YIZXXY", "ZXIIXZ", "IZXXXX", "ZZZIZI")
_EXAMPLE_6_1_3_PRIME = ("YXXZYZ", "YIZXXY", "ZXIIXZ", "IZXYXY", "ZZZZZZ")

_FIVE_QUBIT = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")

_STEANE = ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")

# Generator order is fixed: permuted variants are built via explicit
# permutation arguments, because the choice matters for SM-code accounting.
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


def _bacon_shor_gauge_rows() -> list[F4Vector]:
    """The twelve weight-2 gauge generators of the 3x3 Bacon-Shor code:
    XX on horizontal neighbours, ZZ on vertical neighbours."""
    def idx(r, c):
        return 3 * r + c

    rows = []
    for r in range(3):
        for c in range(2):
            x = (1 << idx(r, c)) | (1 << idx(r, c + 1))
            rows.append(F4Vector(9, x, 0))
    for c in range(3):
        for r in range(2):
            z = (1 << idx(r, c)) | (1 << idx(r + 1, c))
            rows.append(F4Vector(9, 0, z))
    return rows


def _bacon_shor_stabilizer_rows() -> list[F4Vector]:
    """Canonical weight-6 presentation: X on adjacent column pairs (products
    of the horizontal XX gauges), Z on adjacent row pairs."""
    def idx(r, c):
        return 3 * r + c

    rows = []
    for c in range(2):
        x = 0
        for r in range(3):
            x |= (1 << idx(r, c)) | (1 << idx(r, c + 1))
        rows.append(F4Vector(9, x, 0))
    for r in range(2):
        z = 0
        for c in range(3):
            z |= (1 << idx(r, c)) | (1 << idx(r + 1, c))
        rows.append(F4Vector(9, 0, z))
    return rows


def _stab(strings: Sequence[str]) -> StabilizerCode:
    return make_stabilizer(pauli_string_parse(s) for s in strings)


_CATALOG = {
    "example-6-1-3": lambda: _stab(_EXAMPLE_6_1_3),
    "example-6-1-3-prime": lambda: _stab(_EXAMPLE_6_1_3_PRIME),
    "five-qubit": lambda: _stab(_FIVE_QUBIT),
    "steane": lambda: _stab(_STEANE),
    "shor": lambda: _stab(_SHOR),
    "8-3-3": lambda: _stab(_GOTTESMAN_8_3_3),
    "bacon-shor": lambda: make_subsystem(
        _bacon_shor_gauge_rows(), _bacon_shor_stabilizer_rows()
    ),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def catalog(name: str) -> StabilizerCode | SubsystemCode:
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise CatalogError(f"unknown code {name!r}; known: {', '.join(catalog_names())}") from None
    return builder()


# ----------------------------------------------------------------------
# file format: one Pauli row per line, '#' comments, optional GAUGE section
# ----------------------------------------------------------------------

def parse_code_text(text: str) -> StabilizerCode | SubsystemCode:
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


def read_code_file(path: str | Path) -> StabilizerCode | SubsystemCode:
    return parse_code_text(Path(path).read_text())


def code_file_text(code: StabilizerCode | SubsystemCode, comment: str | None = None) -> str:
    lines = [f"# {comment}"] if comment else []
    if isinstance(code, SubsystemCode):
        lines.append("GAUGE")
        lines.extend(str(r) for r in code.gauge.rows)
    else:
        lines.extend(str(r) for r in code.rows)
    return "\n".join(lines) + "\n"


def write_code_file(code: StabilizerCode | SubsystemCode, path: str | Path,
                    comment: str | None = None) -> None:
    Path(path).write_text(code_file_text(code, comment))
