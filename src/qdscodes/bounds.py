"""Inequality checkers and parameter-family enumerators for distance-3 codes.

Every check uses exact big-integer arithmetic; no floating-point
logarithm ever decides a verdict.  ceil(log2(x)) is (x-1).bit_length().
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import CapacityError, PreconditionError

MAX_FAMILY_EXPONENT = 200  # largest a_max pure_only_families enumerates
MAX_REGION_ROWS = 100_000  # most lengths n one region_table covers


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d: int = 3
    l: int = 0

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise PreconditionError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if self.d < 1 or self.l < 0:
            raise PreconditionError("need d >= 1 and l >= 0")

    @property
    def m(self) -> int:
        return self.n - self.k

    @property
    def t(self) -> int:
        return (self.d - 1) // 2


def ceil_log2(x: int) -> int:
    if x < 1:
        raise PreconditionError(f"ceil_log2 needs a positive integer, got {x}")
    return (x - 1).bit_length()


def _at_most_power_of_two(x: int, e: int) -> bool:
    """x <= 2^e for integers, without building 2^e (2^e < 1 for e < 0)."""
    return x <= 0 or (e >= 0 and (x - 1).bit_length() <= e)


def qds_hamming(params: CodeParams) -> bool:
    """Hamming bound for QDS codes with d = 2t + 1:

        sum_{i<=t} C(n,i) 3^i sum_{j<=t-i} C(m+l, j)  <=  2^m.

    The syndrome-position binomial runs over all m + l measured bits; at
    l = 0 this reduces to 4n - k + 1 <= 2^(n-k) for d = 3.
    """
    if params.d % 2 == 0:
        raise PreconditionError(f"QDS Hamming bound needs odd d, got {params.d}")
    n, m, t, measured = params.n, params.m, params.t, params.m + params.l
    total = 0
    for i in range(t + 1):
        total += comb(n, i) * 3**i * sum(comb(measured, j) for j in range(t - i + 1))
    return _at_most_power_of_two(total, m)


def qds_hamming_d3(n: int, k: int) -> bool:
    """4n - k + 1 <= 2^(n-k), evaluated through the general sum at d=3, l=0."""
    return qds_hamming(CodeParams(n, k, d=3, l=0))


def quantum_hamming(n: int, k: int) -> bool:
    """n - k >= ceil(log2(3n + 1)), i.e. 2^(n-k) >= 3n + 1."""
    return _at_most_power_of_two(3 * n + 1, n - k)


def impure_bound(n: int, k: int) -> bool:
    """log2(4n - k + 1) <= n - k for impure distance-3 stabilizer codes."""
    return _at_most_power_of_two(4 * n - k + 1, n - k)


def conjectured_bound(n: int, k: int) -> bool:
    """log2(3(n-2) + 1) <= (n-1) - k, the conjectured impure-code bound."""
    return _at_most_power_of_two(3 * (n - 2) + 1, (n - 1) - k)


def _family_params(n: int) -> tuple[int, int]:
    return n, n - ceil_log2(3 * n + 1)


def pure_only_families(a_max: int) -> list[tuple[int, int]]:
    """Parameter pairs where pure distance-3 codes exist but impure cannot.

    Family one: n = f_a - lll with f_a = (4^a - 1)/3, lll in {0, 4, 5, ...},
    lll < 2a/3, a >= 2.  Family two: n = 8 f_a - lll, lll in {0, 2, 3, ...},
    lll < (2a - 4)/3, a >= 1.  Both use k = n - ceil(log2(3n + 1)).
    """
    if a_max < 2:
        raise PreconditionError(f"need a_max >= 2, got {a_max}")
    if a_max > MAX_FAMILY_EXPONENT:
        raise CapacityError(f"a_max={a_max} exceeds the family cap {MAX_FAMILY_EXPONENT}")
    out: set[tuple[int, int]] = set()
    for a in range(2, a_max + 1):
        f_a = (4**a - 1) // 3
        for ell in [0] + list(range(4, 2 * a)):
            if 3 * ell < 2 * a:  # ell < 2a/3, exactly
                out.add(_family_params(f_a - ell))
    for a in range(1, a_max + 1):
        f_a = (4**a - 1) // 3
        for ell in [0] + list(range(2, 2 * a)):
            if 3 * ell < 2 * a - 4:  # ell < (2a-4)/3, exactly
                out.add(_family_params(8 * f_a - ell))
    return sorted(out)


@dataclass(frozen=True)
class RegionRow:
    """Maximal k admitted at distance 3 by each bound, for one n."""

    n: int
    singleton_k: int
    hamming_k: int
    impure_k: int
    conjecture_k: int


def _max_k(n: int, check) -> int:
    for k in range(n - 1, 0, -1):
        if check(n, k):
            return k
    return 0


def region_table(n_range: tuple[int, int]) -> list[RegionRow]:
    """Rows (n, singleton_k, hamming_k, impure_k, conjecture_k) for the
    integer envelopes plotted against length n; 0 reads "no k >= 1".

    The conjecture strengthens the proven impure bound, so conjecture_k is
    the largest k that both `impure_bound` and `conjectured_bound` admit
    (the bare formula alone admits k = 1 at n = 2)."""
    lo, hi = n_range
    if lo < 1 or hi < lo:
        raise PreconditionError(f"need 1 <= n1 <= n2, got n1={lo}, n2={hi}")
    if hi - lo >= MAX_REGION_ROWS:
        raise CapacityError(
            f"table n={lo}..{hi} has {hi - lo + 1} rows, above the cap of {MAX_REGION_ROWS}"
        )
    rows = []
    for n in range(lo, hi + 1):
        rows.append(
            RegionRow(
                n=n,
                singleton_k=max(n - 4, 0),
                hamming_k=_max_k(n, quantum_hamming),
                impure_k=_max_k(n, impure_bound),
                conjecture_k=_max_k(n, lambda n, k: impure_bound(n, k) and conjectured_bound(n, k)),
            )
        )
    return rows
