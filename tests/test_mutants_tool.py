"""The committed mutant table stays applicable to the current source.

Running the mutants is CI's separate ``mutants`` job; this only checks the
table and what the tool copies, so a refactor that moves a registered snippet
fails here first.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from tests.test_import_hygiene import CALLER_DIRS

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_the_copy_holds_every_directory_the_name_scan_reads():
    assert {*CALLER_DIRS, "tests"} <= set(load_tool().COPIED_DIRS)


def test_every_mutant_edits_one_snippet_and_names_existing_test_files():
    mutants = load_tool().MUTANTS
    assert len({mutant.name for mutant in mutants}) == len(mutants)
    for mutant in mutants:
        source = (ROOT / mutant.path).read_text()
        assert source.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        assert mutant.tests, mutant.name
        for node_id in mutant.tests:
            assert (ROOT / node_id.split("::")[0]).is_file(), (mutant.name, node_id)
