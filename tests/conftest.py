"""Shared fixtures: an offline stand-in for the import-only [18,6,8] SM code."""

import pytest

from qdscodes.f2 import Basis
from qdscodes.smcodes import BinaryLinearCode, write_binary_code_file

# x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1, the cyclic Golay [23,12,7] code
GOLAY_GENERATOR_EXPONENTS = (11, 10, 6, 5, 4, 2, 0)


def shortened_golay_18_6_8() -> BinaryLinearCode:
    """The extended Golay [24,12,8] code shortened on positions 18-23.

    The cyclic [23,12,7] code gains an overall parity bit (position 23);
    the codewords that vanish on positions 18-23 form a 6-dimensional
    subcode, and deleting those positions leaves an [18,6,8] code.
    """
    g = sum(1 << e for e in GOLAY_GENERATOR_EXPONENTS)
    words = {0}
    for shift in range(12):
        row = g << shift
        row |= (row.bit_count() & 1) << 23
        words |= {w ^ row for w in words}
    basis = Basis()
    rows = tuple(w for w in sorted(words) if w >> 18 == 0 and basis.add(w))
    return BinaryLinearCode(18, rows, "golay-18-6-8")


@pytest.fixture
def golay_18_6_8() -> BinaryLinearCode:
    return shortened_golay_18_6_8()


@pytest.fixture
def shor_sm_data_dir(tmp_path, golay_18_6_8):
    """A data directory that provides the fig1-shor-sm Z-part SM code."""
    write_binary_code_file(golay_18_6_8, tmp_path / "grassl-18-6-8.txt")
    return tmp_path
