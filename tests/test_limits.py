"""README's *Limits* table names each capacity constant with its value."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| (\d+) \|")


def limits_rows() -> list[tuple[str, str, int]]:
    """(module, constant, value) for every body row of the table."""
    section = README.read_text().split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    body = [line for line in section.splitlines() if line.startswith("| `")]
    matches = [ROW.match(line) for line in body]
    assert all(matches), [line for line, m in zip(body, matches) if not m]
    return [(m.group(1), m.group(2), int(m.group(3))) for m in matches]


def test_limits_table_matches_the_constants():
    rows = limits_rows()
    assert {(module, name) for module, name, _ in rows} >= {
        ("bounds", "MAX_FAMILY_EXPONENT"),
        ("codes", "MAX_N"),
        ("smcodes", "MAX_CODEWORD_DIM"),
        ("smcodes", "MAX_GENERATED_SIZE"),
        ("noise", "HARD_EXACT_BITS"),
    }
    for module, name, value in rows:
        assert getattr(importlib.import_module(f"qdscodes.{module}"), name) == value, name
