"""Import hygiene: one import path per name, no import cycles, a light kernel.

Every public name is imported from the module that defines it; a package
``__init__.py`` holds only its docstring.  One subprocess imports each
``repro`` module first, from an empty ``repro`` namespace, so an import
cycle fails whichever of its modules a caller happens to import first.
Every public name of ``src/`` has a caller outside ``tests/``.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE_ROOT = Path(importlib.util.find_spec("repro").origin).parent
CHECKOUT_ROOT = Path(__file__).resolve().parents[1]

#: Where a public name of ``src/`` counts as used: everything but ``tests/``.
CALLER_DIRS = ("src", "benchmarks", "examples", "bench", "tools")

#: Layers the paper's Eq. 2-4 kernel must never pull in.
KERNEL_MUST_NOT_LOAD = ("repro.serving", "repro.analysis", "repro.metrics")

_PROBE = """
import importlib, json, pathlib, sys, traceback

root = pathlib.Path(sys.argv[1])
names = sorted(
    ".".join(("repro", *path.relative_to(root).with_suffix("").parts)).removesuffix(".__init__")
    for path in root.rglob("*.py")
)

def fresh_import(name):
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    importlib.import_module(name)

failures = {}
for name in names:
    try:
        fresh_import(name)
    except Exception:
        failures[name] = traceback.format_exc(limit=-3)
fresh_import("repro.core.future_memory")
kernel = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
print(json.dumps({"modules": names, "failures": failures, "kernel": kernel}))
"""


@pytest.fixture(scope="module")
def probe() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE_ROOT.parent), *sys.path]))
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, str(PACKAGE_ROOT)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(completed.stdout)


def test_every_module_imports_first(probe):
    assert len(probe["modules"]) > 50
    assert probe["failures"] == {}


def test_future_memory_kernel_loads_no_upper_layer(probe):
    assert "repro.core.future_memory" in probe["kernel"]
    upper = [m for m in probe["kernel"] if m.startswith(KERNEL_MUST_NOT_LOAD)]
    assert upper == []


def test_package_init_files_hold_only_a_docstring():
    offenders = []
    for init in sorted(PACKAGE_ROOT.rglob("__init__.py")):
        tree = ast.parse(init.read_text())
        if len(tree.body) != 1 or ast.get_docstring(tree) is None:
            offenders.append(str(init.relative_to(PACKAGE_ROOT.parent)))
    assert offenders == []


def referenced_identifiers(roots: list[Path]) -> set[str]:
    """Every name, attribute, imported name and identifier string under ``roots``.

    Strings count because ``bench/layers.py`` looks methods up by name.
    """
    found: set[str] = set()
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    found.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if node.value.isidentifier():
                        found.add(node.value)
    return found


def definitions(path: Path):
    """``(qualified name, name)`` of each top-level function, class and
    constant in ``path``, and of each method of its top-level classes."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, target.id


def test_every_public_name_has_a_caller_outside_tests():
    roots = [CHECKOUT_ROOT / name for name in CALLER_DIRS]
    assert all(root.is_dir() for root in roots), roots
    used = referenced_identifiers(roots)
    unused = [
        f"{path.relative_to(CHECKOUT_ROOT)}:{qualified}"
        for path in sorted((CHECKOUT_ROOT / "src").rglob("*.py"))
        for qualified, name in definitions(path)
        if not name.startswith("_") and name not in used
    ]
    assert unused == []
