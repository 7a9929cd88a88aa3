"""The cold-function scan's collector tells a called function from an uncalled one.

The scan itself (every step CI runs, a few minutes) is the nightly
``cold-functions`` job; this checks its parts on a two-function target and
keeps the committed allowlist pointing at functions that exist.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("cold_lines", ROOT / "tools" / "cold_lines.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


TARGET = '''
def called():
    return 1


class Owner:
    def uncalled(self):
        return 2
'''


def test_collector_reports_the_uncalled_function_only(tmp_path):
    tool = load_tool()
    path = tmp_path / "target.py"
    path.write_text(TARGET)
    spec = importlib.util.spec_from_file_location("cold_target", path)
    target = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(target)

    previous = sys.gettrace()
    collector = tool.CallCollector()
    collector.start()
    try:
        target.called()
    finally:
        collector.stop()
    assert sys.gettrace() is previous

    defined = tool.defined_functions(tmp_path, [path])
    assert sorted(f.name for f in defined.values()) == ["target.py::Owner.uncalled", "target.py::called"]
    cold = tool.cold_functions(defined, collector.seen)
    assert [f.name for f in cold] == ["target.py::Owner.uncalled"]
    assert cold[0].lines == 2


def test_every_allowlisted_function_exists():
    tool = load_tool()
    defined = tool.defined_functions(ROOT, sorted((ROOT / "src" / "repro").rglob("*.py")))
    names = {function.name for function in defined.values()}
    assert set(tool.ALLOWLIST) <= names
    assert all(reason for reason in tool.ALLOWLIST.values())
