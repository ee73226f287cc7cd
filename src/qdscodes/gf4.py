"""Exact arithmetic over GF(4) and the Pauli correspondence.

Elements of F4 = {0, 1, w, w^2} (w^2 = w + 1) are coded as the integers
0, 1, 2, 3.  The single global convention is

    0 <-> I,   1 <-> X,   w <-> Z,   w^2 <-> Y,

so the bit pair (x, z) = (v & 1, v >> 1) of a coded element v is the
(X-part, Z-part) of the corresponding Pauli.  Vectors pack the two parts
into machine words, which turns the trace inner product into a popcount
parity of a symplectic expression.  Pauli phases are discarded
throughout; every quantity here factors through the Pauli -> F4 map.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import f2
from .errors import DimensionError, ParseError

OMEGA = 2
OMEGA2 = 3

# Multiplication table: w*w = w^2, w*w^2 = 1, w^2*w^2 = w.
F4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
# Conjugation fixes {0, 1} and swaps w <-> w^2.
F4_CONJ = (0, 1, 3, 2)
# Tr(v) = v + v^2 lands in F2.
F4_TRACE = (0, 0, 1, 1)

PAULI_OF_VALUE = "IXZY"


# The scalar field operations.  The library computes on packed vectors, so
# f4_add, f4_conj and f4_trace have no caller in it; they stay as the
# field's definition, which test_gf4 checks the packed sum, conjugate and
# trace inner product against.
def f4_add(a: int, b: int) -> int:
    return a ^ b


def f4_mul(a: int, b: int) -> int:
    return F4_MUL[a][b]


def f4_conj(a: int) -> int:
    return F4_CONJ[a]


def f4_trace(a: int) -> int:
    return F4_TRACE[a]


@dataclass(frozen=True)
class BitVector:
    """A vector over F2, packed little-endian (bit i = coordinate i)."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if self.bits >> self.n:
            raise DimensionError(f"bits 0x{self.bits:x} exceed length {self.n}")

    @classmethod
    def zero(cls, n: int) -> "BitVector":
        return cls(n, 0)

    def bit(self, i: int) -> int:
        return (self.bits >> i) & 1

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self.bit(i) for i in range(self.n))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise DimensionError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.n, self.bits ^ other.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.to_tuple())


@dataclass(frozen=True)
class F4Vector:
    """A length-n vector over F4, i.e. an n-qubit Pauli operator modulo phase.

    x and z hold the packed X- and Z-parts (bit i = coordinate i).
    Instances are immutable; all operations return new vectors.
    """

    n: int
    x: int = 0
    z: int = 0

    def __post_init__(self):
        if self.x >> self.n or self.z >> self.n:
            raise DimensionError(f"support exceeds length {self.n}")

    @classmethod
    def from_symbols(cls, symbols: Iterable[int]) -> "F4Vector":
        seq = tuple(symbols)
        x = z = 0
        for i, v in enumerate(seq):
            if v not in (0, 1, 2, 3):
                raise ParseError(f"symbol {v!r} is not an F4 element code")
            x |= (v & 1) << i
            z |= (v >> 1) << i
        return cls(len(seq), x, z)

    @classmethod
    def zero(cls, n: int) -> "F4Vector":
        return cls(n, 0, 0)

    @classmethod
    def single(cls, n: int, coord: int, value: int) -> "F4Vector":
        """The vector that is `value` at `coord` and 0 elsewhere."""
        if not 0 <= coord < n:
            raise DimensionError(f"coordinate {coord} outside [0, {n})")
        return cls(n, (value & 1) << coord, (value >> 1) << coord)

    def symbol(self, i: int) -> int:
        return ((self.x >> i) & 1) | (((self.z >> i) & 1) << 1)

    def symbols(self) -> tuple[int, ...]:
        return tuple(self.symbol(i) for i in range(self.n))

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def __add__(self, other: "F4Vector") -> "F4Vector":
        if self.n != other.n:
            raise DimensionError(f"length mismatch: {self.n} vs {other.n}")
        return F4Vector(self.n, self.x ^ other.x, self.z ^ other.z)

    def scale(self, scalar: int) -> "F4Vector":
        """Multiply every coordinate by a nonzero scalar.

        Per coordinate, multiplication by w maps (x, z) -> (z, x^z); by
        w^2 -> (x^z, x); both act wordwise on the packed parts.
        """
        if scalar == 1:
            return self
        if scalar == OMEGA:
            return F4Vector(self.n, self.z, self.x ^ self.z)
        if scalar == OMEGA2:
            return F4Vector(self.n, self.x ^ self.z, self.x)
        raise ParseError(f"scalar {scalar!r} must be a nonzero F4 element code")

    def conjugate(self) -> "F4Vector":
        """Conjugate every coordinate: (x, z) -> (x^z, z)."""
        return F4Vector(self.n, self.x ^ self.z, self.z)

    def conjugate_at(self, coord: int) -> "F4Vector":
        mask = 1 << coord
        return F4Vector(self.n, self.x ^ (self.z & mask), self.z)

    def scale_at(self, coord: int, scalar: int) -> "F4Vector":
        v = f4_mul(self.symbol(coord), scalar)
        mask = 1 << coord
        return F4Vector(
            self.n,
            (self.x & ~mask) | ((v & 1) << coord),
            (self.z & ~mask) | ((v >> 1) << coord),
        )

    def permute(self, perm: Sequence[int]) -> "F4Vector":
        """Reorder coordinates: new coordinate j holds old coordinate perm[j]."""
        if sorted(perm) != list(range(self.n)):
            raise DimensionError(f"not a permutation of range({self.n})")
        return F4Vector.from_symbols(self.symbol(p) for p in perm)

    def bit_expansion(self) -> int:
        """The 2n-bit F2 view (X-part, then Z-part) used by rank computations."""
        return self.x | (self.z << self.n)

    def __str__(self) -> str:
        return pauli_string_render(self)


def trace_inner_product(u: F4Vector, v: F4Vector) -> int:
    """Tr(sum u_i conj(v_i)) in F2: 0 iff the Pauli operators commute.

    Equals the symplectic form parity(|u.x & v.z| + |u.z & v.x|); the
    equivalence with the field-arithmetic definition is covered by tests.
    """
    if u.n != v.n:
        raise DimensionError(f"length mismatch: {u.n} vs {v.n}")
    return ((u.x & v.z).bit_count() + (u.z & v.x).bit_count()) & 1


def star_inner_product(
    u: tuple[F4Vector, BitVector], v: tuple[F4Vector, BitVector]
) -> int:
    """Inner product on hybrid vectors in F4^n x F2^a.

    Trace inner product on the F4 part plus the F2 dot product on the
    binary tail; with an empty tail it reduces to trace_inner_product.
    """
    u4, ub = u
    v4, vb = v
    if ub.n != vb.n:
        raise DimensionError(f"tail length mismatch: {ub.n} vs {vb.n}")
    return trace_inner_product(u4, v4) ^ f2.parity(ub.bits & vb.bits)


def syndrome(rows: Sequence[F4Vector], e: F4Vector) -> BitVector:
    """Bit i = trace_inner_product(rows[i], e)."""
    bits = 0
    for i, g in enumerate(rows):
        bits |= trace_inner_product(g, e) << i
    return BitVector(len(rows), bits)


def combination(rows: Sequence[F4Vector], mask: int) -> F4Vector:
    """The sum of the rows that mask names: rows[i] for each set bit i."""
    x = z = 0
    for i, row in enumerate(rows):
        if (mask >> i) & 1:
            x ^= row.x
            z ^= row.z
    return F4Vector(rows[0].n, x, z)


def f2_rank(rows: Sequence[F4Vector]) -> int:
    """Rank of the 2n-bit binary expansions under F2 elimination."""
    return f2.rank(r.bit_expansion() for r in rows)


# translations of a Pauli string into its X-part and Z-part binary digits,
# and into the characters it has that are no Pauli
_X_DIGITS = str.maketrans("IXZY", "0101")
_Z_DIGITS = str.maketrans("IXZY", "0011")
_UNKNOWN = str.maketrans("", "", "IXZY")


def pauli_string_parse(text: str) -> F4Vector:
    """Parse a string over {I, X, Z, Y} into an F4 vector."""
    s = text.strip()
    if unknown := s.translate(_UNKNOWN):
        raise ParseError(f"unknown Pauli character {unknown[0]!r} in {text!r}")
    # coordinate 0 is the first character and bit 0 the last digit
    digits = s[::-1]
    return F4Vector(len(s), int(digits.translate(_X_DIGITS) or "0", 2),
                    int(digits.translate(_Z_DIGITS) or "0", 2))


def pauli_string_render(v: F4Vector) -> str:
    return "".join(PAULI_OF_VALUE[v.symbol(i)] for i in range(v.n))
