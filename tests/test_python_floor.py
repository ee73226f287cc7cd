"""Every library module parses under the Python floor that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "qdscodes").glob("*.py"))


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_parses_under_the_declared_floor(path):
    # a syntax error names the construct that needs a newer Python
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor())


def test_ci_runs_the_tier1_command_on_the_floor():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert f"run: {command.group(1)}\n" in workflow
    assert '"%d.%d"' % declared_floor() in workflow
