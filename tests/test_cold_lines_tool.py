"""The cold-code scan's collector tells a called function from an uncalled
one, and a set parameter from one no call sets.

The scan itself (every step CI runs, a few minutes) is the nightly
``cold-functions`` job; this checks its parts on small targets and keeps both
committed allowlists pointing at functions and settings that exist.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
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


SETTINGS = """
import dataclasses


def configured(first=1, second="a"):
    return first, second


@dataclasses.dataclass
class Record:
    kept: int = 0
    items: list = dataclasses.field(default_factory=list)
"""


def load_target(tmp_path: Path, source: str, name: str):
    path = tmp_path / "target.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location(name, path)
    target = importlib.util.module_from_spec(spec)
    sys.modules[name] = target  # the collector finds a dataclass's file through it
    spec.loader.exec_module(target)
    return path, target


def collect(tool, package: Path, calls):
    previous = sys.gettrace()
    collector = tool.CallCollector(package)
    collector.start()
    try:
        calls()
    finally:
        collector.stop()
    assert sys.gettrace() is previous
    return collector


def test_collector_reports_the_uncalled_function_only(tmp_path):
    tool = load_tool()
    path, target = load_target(tmp_path, TARGET, "cold_target")
    collector = collect(tool, tmp_path, target.called)

    defined = tool.defined_functions(tmp_path, [path])
    assert sorted(f.name for f in defined.values()) == ["target.py::Owner.uncalled", "target.py::called"]
    cold = tool.cold_functions(defined, collector.seen)
    assert [f.name for f in cold] == ["target.py::Owner.uncalled"]
    assert cold[0].lines == 2


def test_collector_reports_the_setting_no_call_sets(tmp_path):
    tool = load_tool()
    _, target = load_target(tmp_path, SETTINGS, "cold_settings")

    def calls():
        target.configured(first=2)
        target.configured(first=1)
        target.Record(kept=5)  # ``items`` arrives as the default-factory sentinel
        target.Record()

    collector = collect(tool, tmp_path, calls)
    assert tool.never_set(tmp_path, collector.defaulted, collector.changed) == [
        "target.py::Record:items",
        "target.py::configured:second",
    ]
    assert len(collector.defaulted) == 4


def test_every_allowlisted_function_exists():
    tool = load_tool()
    defined = tool.defined_functions(ROOT, sorted((ROOT / "src" / "repro").rglob("*.py")))
    names = {function.name for function in defined.values()}
    assert set(tool.ALLOWLIST) <= names
    assert all(reason for reason in tool.ALLOWLIST.values())


def test_every_unset_allowlist_entry_is_a_defaulted_setting():
    tool = load_tool()
    for name, reason in tool.UNSET_ALLOWLIST.items():
        assert reason, name
        path, _, key = name.partition("::")
        qualname, _, param = key.partition(":")
        owner = importlib.import_module(path.removeprefix("src/").removesuffix(".py").replace("/", "."))
        for part in qualname.split("."):
            owner = getattr(owner, part)
        if dataclasses.is_dataclass(owner) and inspect.isclass(owner):
            missing = dataclasses.MISSING
            defaulted = {
                f.name
                for f in dataclasses.fields(owner)
                if f.init and (f.default is not missing or f.default_factory is not missing)
            }
            assert param in defaulted if param else defaulted, name
        else:
            parameter = inspect.signature(owner).parameters[param]
            assert parameter.default is not inspect.Parameter.empty, name
