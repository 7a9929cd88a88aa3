"""The documentation checker's name rule: prose cannot name code that is gone."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_docs", ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def known(checker):
    return checker.defined_names(ROOT)


def test_an_undefined_code_span_name_is_flagged(checker, known, tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "Use `FaultPlan(crashes=...)`, catch `ValueError` and seed a `SeedSequence`,\n"
        "but `RoutingErrorWindow` is gone.  Plain CamelCase prose is not checked.\n"
        "\n"
        "```python\n"
        "GoneClass = `not a code span`\n"
        "```\n"
    )
    _, _, names = checker.extract(page)
    assert [name for _, name in names] == ["FaultPlan", "ValueError", "SeedSequence", "RoutingErrorWindow"]
    errors = checker.check_names(tmp_path, page, names, known)
    assert errors == ["page.md:2: undefined name `RoutingErrorWindow`"]


def test_every_documented_code_name_is_defined(checker, known):
    errors = []
    for path in checker.documentation_files(ROOT):
        _, _, names = checker.extract(path)
        errors.extend(checker.check_names(ROOT, path, names, known))
    assert errors == []
