"""README's *Limits* table names each capacity constant with its value, and
every qdscodes name README gives exists."""

import ast
import importlib
import pkgutil
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


def capacity_constants() -> set[tuple[str, str]]:
    """(module, constant) for every module-level MAX_* or HARD_* name that a
    qdscodes source file assigns."""
    found = set()
    for path in (README.parent / "src" / "qdscodes").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            found |= {(path.stem, t.id) for t in targets
                      if isinstance(t, ast.Name) and t.id.startswith(("MAX_", "HARD_"))}
    return found


def test_limits_table_matches_the_constants():
    rows = limits_rows()
    constants = capacity_constants()
    assert constants >= {
        ("bounds", "MAX_FAMILY_EXPONENT"),
        ("codes", "MAX_N"),
        ("smcodes", "MAX_CODEWORD_DIM"),
        ("smcodes", "MAX_GENERATED_SIZE"),
        ("noise", "HARD_EXACT_BITS"),
    }
    assert {(module, name) for module, name, _ in rows} >= constants
    for module, name, value in rows:
        assert getattr(importlib.import_module(f"qdscodes.{module}"), name) == value, name


NAME = re.compile(r"`(\w+)\.(\w+)`")


def test_readme_names_resolve():
    """Every `module.name` or `Class.name` that README gives for a qdscodes
    module or export names an attribute (or dataclass field) that exists."""
    import qdscodes

    modules = {info.name for info in pkgutil.iter_modules(qdscodes.__path__)}
    checked, missing = set(), []
    for owner_name, name in NAME.findall(README.read_text()):
        if owner_name in modules:
            owner = importlib.import_module(f"qdscodes.{owner_name}")
        elif owner_name in qdscodes.__all__:
            owner = getattr(qdscodes, owner_name)
        else:
            continue  # numpy, math and other libraries
        checked.add((owner_name, name))
        if not (hasattr(owner, name) or name in getattr(owner, "__dataclass_fields__", {})):
            missing.append(f"{owner_name}.{name}")
    assert {("noise", "_coset_minima"), ("montecarlo", "_Sampler"),
            ("montecarlo", "_sampler_cells")} <= checked
    assert not missing
