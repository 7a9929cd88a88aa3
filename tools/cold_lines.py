#!/usr/bin/env python3
"""Cold functions: every ``src/repro`` function that nothing CI runs calls.

The name guard in ``tests/test_import_hygiene.py`` counts names, not owners,
so a method passes whenever another method shares its name.  This tool looks
at execution instead.  It runs, each in a fresh interpreter, everything CI
runs outside the unit tests (:func:`steps`):

* every example script;
* the figure benchmarks (``pytest benchmarks``, timing suite excluded);
* ``python -m repro.analysis.perf`` (fast and reference loops);
* ``python -m bench --trace 1`` at seeds 0 and 5;
* ``tools/chaos_smoke.py`` and ``tools/check_docs.py``;
* the trace smoke: ``perf --trace`` on two scenarios, then
  ``tools/trace_report.py --chrome`` on each trace.

A ``sys.settrace`` *call* tracer (no line events) records every function
called in each interpreter, keyed by file and qualified name, so two methods
of the same name on different classes are told apart.  The tool then prints
every function defined under ``src/repro`` that no step called, with its
length in lines.  Functions that stay cold on purpose are listed in
:data:`ALLOWLIST`, each with its reason; the tool exits non-zero on a cold
function the list lacks, and on a listed one that is called or gone, so the
list cannot go stale.

The tracer is chained in front of any tracer already installed, and a step
whose tracer was removed before it exited fails the scan.  pytest-benchmark
removes it inside ``benchmark.pedantic``, so the benchmark step passes
``--benchmark-disable``.

Run from anywhere inside the checkout (about 3.5 minutes on a 2-core VM);
this is the nightly ``cold-functions`` job::

    python tools/cold_lines.py
"""

from __future__ import annotations

import atexit
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType

_REPR = "debugging __repr__"
_CONTRACT = "base-class contract: every subclass a step runs overrides it"

#: Functions no step calls, kept on purpose: ``path::qualname`` -> reason.
ALLOWLIST: dict[str, str] = {
    "src/repro/engine/request.py::Request.__repr__": _REPR,
    "src/repro/memory/block_manager.py::BlockKVCachePool.__repr__": _REPR,
    "src/repro/memory/prefix_cache.py::PrefixCache.__repr__": _REPR,
    "src/repro/obs/tracer.py::JsonlTracer.flush": "makes a long run's trace durable before close",
    "src/repro/obs/tracer.py::NullTracer.emit": "callers skip it; it keeps the Tracer contract",
    "src/repro/obs/tracer.py::Tracer.close": _CONTRACT,
    "src/repro/obs/tracer.py::Tracer.emit": _CONTRACT,
    "src/repro/registry.py::_suggestion": "the did-you-mean hint of an unknown-name error",
    "src/repro/schedulers/base.py::Scheduler.__repr__": _REPR,
    "src/repro/schedulers/base.py::Scheduler._fit_test": _CONTRACT,
    "src/repro/schedulers/base.py::Scheduler.describe": _CONTRACT,
    "src/repro/serving/autoscale.py::Autoscaler.__repr__": _REPR,
    "src/repro/serving/autoscale.py::AutoscalerPolicy.__repr__": _REPR,
    "src/repro/serving/autoscale.py::AutoscalerPolicy.target_size": _CONTRACT,
    "src/repro/serving/routing.py::Router.__repr__": _REPR,
    "src/repro/serving/routing.py::Router.decide": _CONTRACT,
    "src/repro/serving/server.py::ServingSimulator.run_sessions": "goes with the facade (ROADMAP item 11)",
    "src/repro/serving/throttle.py::OverloadThrottle.__repr__": _REPR,
    "src/repro/workloads/arrivals.py::ArrivalQueue.min_follow_up_delay": _CONTRACT,
    "src/repro/workloads/arrivals.py::ArrivalQueue.start": _CONTRACT,
}

#: Environment variable naming the directory a traced interpreter writes to.
OUT_ENV = "COLD_LINES_OUT"

#: Installed in every step's interpreter through a ``sitecustomize`` module
#: put first on ``PYTHONPATH``; it loads this file and starts the tracer.
_SITECUSTOMIZE = """\
import importlib.util
import sys

_spec = importlib.util.spec_from_file_location("_cold_lines", {tool!r})
_module = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.trace_process()
"""

#: A code object's identity as a frame reports it.
Key = tuple[str, int, str]


@dataclass(frozen=True)
class Function:
    """One ``def`` under the scanned root."""

    path: str
    qualname: str
    lines: int

    @property
    def name(self) -> str:
        """``path::qualname``, the key of :data:`ALLOWLIST`."""
        return f"{self.path}::{self.qualname}"


def repo_root() -> Path:
    """The checkout root (where ``pyproject.toml`` lives)."""
    for parent in (Path(__file__).resolve(), *Path(__file__).resolve().parents):
        if (parent / "pyproject.toml").exists():
            return parent
    raise SystemExit("could not locate the repo root (no pyproject.toml found)")


def defined_functions(root: Path, files: list[Path]) -> dict[Key, Function]:
    """Every ``def`` in ``files``, keyed as a frame of it reports its code.

    Lambdas and comprehensions are left out; nested functions are included.
    """
    functions: dict[Key, Function] = {}

    def walk(code: CodeType, prefix: str, path: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, CodeType) or const.co_name.startswith("<"):
                continue
            qualname = prefix + const.co_name
            if const.co_flags & CO_NEWLOCALS:  # a function, not a class body
                last = max(line for _, _, line in const.co_lines() if line is not None)
                key = (code.co_filename, const.co_firstlineno, const.co_name)
                functions[key] = Function(path, qualname, last - const.co_firstlineno + 1)
                walk(const, qualname + ".<locals>.", path)
            else:
                walk(const, qualname + ".", path)

    for filename in files:
        filename = filename.resolve()
        module = compile(filename.read_text(), str(filename), "exec")
        walk(module, "", filename.relative_to(root.resolve()).as_posix())
    return functions


class CallCollector:
    """Records the code of every Python function called while active.

    Chains to the tracer that was installed before it (a coverage tool, say)
    and restores it on :meth:`stop`.
    """

    def __init__(self) -> None:
        self.seen: set[Key] = set()
        self._previous = None

    def _trace(self, frame, event, arg):
        code = frame.f_code
        self.seen.add((code.co_filename, code.co_firstlineno, code.co_name))
        previous = self._previous
        return previous(frame, event, arg) if previous is not None else None

    def start(self) -> None:
        """Install the tracer in this thread and in threads started later."""
        self._previous = sys.gettrace()
        sys.settrace(self._trace)
        threading.settrace(self._trace)

    def intact(self) -> bool:
        """Whether this thread's tracer is still the collector's."""
        return sys.gettrace() == self._trace

    def stop(self) -> None:
        """Restore the tracer that was installed before :meth:`start`."""
        sys.settrace(self._previous)
        threading.settrace(self._previous)


def cold_functions(defined: dict[Key, Function], seen: set[Key]) -> list[Function]:
    """The functions of ``defined`` whose code is not in ``seen``."""
    seen = {(str(Path(file).resolve()), line, name) for file, line, name in seen}
    return sorted(
        (function for key, function in defined.items() if key not in seen),
        key=lambda function: (function.path, function.qualname),
    )


def trace_process() -> None:
    """Trace this interpreter and dump its calls at exit (see :data:`OUT_ENV`)."""
    out = Path(os.environ[OUT_ENV])
    collector = CallCollector()
    collector.start()

    def dump() -> None:
        intact = collector.intact()
        collector.stop()
        record = {"argv": sys.argv, "intact": intact, "seen": sorted(collector.seen)}
        (out / f"calls-{os.getpid()}.json").write_text(json.dumps(record))

    atexit.register(dump)


def steps(scratch: Path) -> list[tuple[str, ...]]:
    """The commands CI runs outside the unit tests; ``scratch`` takes their output."""
    python = sys.executable
    commands = [(python, str(example)) for example in sorted((repo_root() / "examples").glob("*.py"))]
    commands += [
        (python, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
         "--ignore=benchmarks/test_perf_core.py", "--benchmark-disable"),
        (python, "-m", "repro.analysis.perf", "--repeats", "1", "--output", str(scratch / "perf.json")),
        (python, "-m", "bench", "--seed", "0", "--trace", "1"),
        (python, "-m", "bench", "--seed", "5", "--trace", "1"),
        (python, "tools/chaos_smoke.py"),
        (python, "tools/check_docs.py"),
    ]  # fmt: skip
    for scenario in ("fig07_goodput_vs_clients", "fig14_failure_recovery"):
        trace = scratch / f"{scenario}.jsonl"
        commands += [
            (python, "-m", "repro.analysis.perf", "--trace", str(trace), "--scenario", scenario),
            (python, "tools/trace_report.py", str(trace), "--chrome", str(scratch / f"{scenario}.json")),
        ]
    return commands


def scan(root: Path) -> set[Key]:
    """Run every step under the tracer; return the union of their calls."""
    seen: set[Key] = set()
    with tempfile.TemporaryDirectory(prefix="cold-lines-") as tmp:
        tmp_path = Path(tmp)
        site, out, scratch = (tmp_path / name for name in ("site", "out", "scratch"))
        for directory in (site, out, scratch):
            directory.mkdir()
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(tool=str(Path(__file__).resolve())))
        path = os.pathsep.join([str(site), str(root / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path, **{OUT_ENV: str(out)})
        for command in steps(scratch):
            label = " ".join(Path(part).name if os.sep in part else part for part in command[1:])
            started = time.perf_counter()
            result = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
            print(f"  {time.perf_counter() - started:6.1f} s  {label}", flush=True)
            if result.returncode != 0:
                tail = "\n".join((result.stdout + result.stderr).strip().splitlines()[-15:])
                raise SystemExit(f"step failed (exit {result.returncode}): {label}\n{tail}")
            dumps = list(out.glob("calls-*.json"))
            if not dumps:
                raise SystemExit(f"step {label} left no call record")
            for dump in dumps:
                record = json.loads(dump.read_text())
                if not record["intact"]:
                    raise SystemExit(f"step {label}: {record['argv']} removed the call tracer")
                seen.update(tuple(key) for key in record["seen"])
                dump.unlink()
    return seen


def main() -> int:
    """Scan, print the cold functions and gate them against :data:`ALLOWLIST`."""
    root = repo_root()
    defined = defined_functions(root, sorted((root / "src" / "repro").rglob("*.py")))
    print(f"tracing the calls of {len(defined)} src/repro functions:")
    cold = cold_functions(defined, scan(root))

    print(f"\n{len(cold)} never-called functions ({sum(f.lines for f in cold)} lines):")
    for function in cold:
        reason = ALLOWLIST.get(function.name)
        print(f"  {function.lines:4}  {function.name}" + (f"  [allowed: {reason}]" if reason else ""))
    new = [function.name for function in cold if function.name not in ALLOWLIST]
    stale = sorted(set(ALLOWLIST) - {function.name for function in cold})
    for name in new:
        print(f"NEW      {name}: call it from a step, delete it, or allowlist it with a reason")
    for name in stale:
        print(f"STALE    {name}: called or gone; remove it from ALLOWLIST")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
