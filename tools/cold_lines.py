#!/usr/bin/env python3
"""Cold code: every ``src/repro`` function nothing CI runs calls, and every
setting nothing CI runs sets.

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

The same tracer also reads the arguments of every call to a ``src/repro``
function with defaulted parameters, and of every generated ``__init__`` of a
``repro`` dataclass.  The defaults come from the function's ``__defaults__``
and ``__kwdefaults__`` (from :func:`dataclasses.fields` for a dataclass), read
once per code object; an omitted ``default_factory`` field arrives as the
``dataclasses._HAS_DEFAULT_FACTORY`` sentinel and counts as its default.  A
defaulted parameter of a called function that no call ever passes another
value is a *never-set setting*: a constant with a knob.  The tool prints them
and gates them the same way against :data:`UNSET_ALLOWLIST`.

The tracer is chained in front of any tracer already installed, and a step
whose tracer was removed before it exited fails the scan.  pytest-benchmark
removes it inside ``benchmark.pedantic``, so the benchmark step passes
``--benchmark-disable``.

Run from anywhere inside the checkout (about 4 minutes on a 2-core VM);
this is the nightly ``cold-functions`` job::

    python tools/cold_lines.py
"""

from __future__ import annotations

import atexit
import dataclasses
import gc
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
from types import CodeType, FunctionType

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

_STATE = "state record: the simulator fills it in, callers never set it"
_BENCH = "pinned by bench/, which passes the default by keyword"

#: Never-set settings kept on purpose: ``path::qualname:param`` (or a whole
#: dataclass, ``path::qualname``) -> reason.
UNSET_ALLOWLIST: dict[str, str] = {
    "src/repro/analysis/perf.py::run_benchmarks:names": "goes with the perf CLI (ROADMAP item 17)",
    "src/repro/engine/engine.py::EngineStats": _STATE,
    "src/repro/engine/engine.py::JumpStats": _STATE,
    "src/repro/engine/request.py::Request": "lifecycle fields the simulator fills in; callers never set them",
    "src/repro/memory/pool_stats.py::MemoryTimeline": _STATE,
    "src/repro/memory/prefix_cache.py::PrefixCache.evict_for_allocation:protect": (
        "a correctness path no step reaches: the prefix a new turn is about to claim must survive"
    ),
    "src/repro/memory/prefix_cache.py::PrefixCacheStats": _STATE,
    "src/repro/metrics/fleet.py::FleetSummary:app_fairness": _STATE,
    "src/repro/metrics/fleet.py::FleetSummary:user_fairness": _STATE,
    "src/repro/obs/export.py::RequestPhase:complete": _STATE,
    "src/repro/schedulers/fair.py::VirtualTokenCounterScheduler.__init__:watermark": _BENCH,
    "src/repro/schedulers/fair.py::WeightedServiceCounterScheduler.__init__:watermark": _BENCH,
    "src/repro/serving/cluster.py::SimulationLimits": (
        "safety bounds: tests reach each termination through them"
    ),
    "src/repro/serving/cluster.py::_Replica": _STATE,
    "src/repro/serving/faults.py::Straggler:slowdown": _BENCH,
    "src/repro/serving/results.py::ClusterResult:deferrals": _STATE,
    "src/repro/serving/results.py::ClusterResult:termination": _STATE,
    "src/repro/serving/results.py::RunResult.session_summary:sla": "goes with the facade (ROADMAP item 11)",
    "src/repro/serving/results.py::RunResult:reject_reasons": _STATE,
    "src/repro/serving/results.py::RunResult:rejected": _STATE,
    "src/repro/serving/results.py::RunResult:termination": _STATE,
    "src/repro/serving/server.py::ServingSimulator.__init__:prefix_cache_tokens": (
        "goes with the facade (ROADMAP item 11)"
    ),
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

#: A defaulted parameter: the function's file, its qualname and the parameter.
Setting = tuple[str, str, str]


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

    Under ``package`` (a directory) it also reads each call's arguments: a
    defaulted parameter lands in :attr:`defaulted` when its function is called
    and in :attr:`changed` when a call passes a value other than its default.
    Both hold ``(file, qualname, parameter)`` triples; a dataclass field's
    qualname is its class's.

    Chains to the tracer that was installed before it (a coverage tool, say)
    and restores it on :meth:`stop`.
    """

    def __init__(self, package: Path) -> None:
        self.seen: set[Key] = set()
        self.defaulted: set[Setting] = set()
        self.changed: set[Setting] = set()
        self._package = str(package.resolve()) + os.sep
        #: per code object, its defaulted parameters no call has changed yet.
        self._unchanged: dict[CodeType, list[tuple[Setting, object]]] = {}
        self._previous = None

    def _trace(self, frame, event, arg):
        code = frame.f_code
        self.seen.add((code.co_filename, code.co_firstlineno, code.co_name))
        unchanged = self._unchanged.get(code)
        if unchanged is None:
            unchanged = self._unchanged[code] = self._settings(frame)
            self.defaulted.update(setting for setting, _ in unchanged)
        if unchanged:
            values = frame.f_locals
            changed = [item for item in unchanged if _differs(values[item[0][2]], item[1])]
            for item in changed:
                unchanged.remove(item)
                self.changed.add(item[0])
        previous = self._previous
        return previous(frame, event, arg) if previous is not None else None

    def _settings(self, frame) -> list[tuple[Setting, object]]:
        """The defaulted parameters of ``frame``'s function, with their defaults."""
        code = frame.f_code
        if code.co_filename.startswith(self._package):
            functions = (f for f in gc.get_referrers(code) if isinstance(f, FunctionType))
            function = next((f for f in functions if f.__code__ is code), None)
            if function is None:
                return []
            positional = code.co_varnames[: code.co_argcount]
            defaults = dict(zip(positional[::-1], (function.__defaults__ or ())[::-1]))
            defaults.update(function.__kwdefaults__ or {})
            owner = (code.co_filename, function.__qualname__)
        elif code.co_name == "__init__" and code.co_filename == "<string>":  # a generated dataclass __init__
            instance = frame.f_locals.get(code.co_varnames[0])
            cls = next((c for c in type(instance).__mro__ if _init_code(c) is code), None)
            module = sys.modules.get(getattr(cls, "__module__", ""))
            filename = getattr(module, "__file__", None) or ""
            if not (dataclasses.is_dataclass(cls) and filename.startswith(self._package)):
                return []
            missing, factory = dataclasses.MISSING, dataclasses._HAS_DEFAULT_FACTORY
            defaults = {
                # an omitted factory field arrives as the factory sentinel
                field.name: field.default if field.default is not missing else factory
                for field in dataclasses.fields(cls)
                if field.init and (field.default is not missing or field.default_factory is not missing)
            }
            owner = (filename, cls.__qualname__)
        else:
            return []
        return [((*owner, name), default) for name, default in defaults.items()]

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


def _init_code(cls: type) -> CodeType | None:
    """The code of the ``__init__`` that ``cls`` itself defines, if any."""
    return getattr(vars(cls).get("__init__"), "__code__", None)


def _differs(value: object, default: object) -> bool:
    """Whether ``value`` is not the default; an uncomparable value differs."""
    if value is default:
        return False
    try:
        return not bool(value == default)
    except Exception:  # an array compared element-wise, say
        return True


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
    collector = CallCollector(repo_root() / "src" / "repro")
    collector.start()

    def dump() -> None:
        intact = collector.intact()
        collector.stop()
        record = {
            "argv": sys.argv,
            "intact": intact,
            "seen": sorted(collector.seen),
            "defaulted": sorted(collector.defaulted),
            "changed": sorted(collector.changed),
        }
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


@dataclass
class Trace:
    """What every step together called (:class:`CallCollector`'s sets, unioned)."""

    seen: set[Key]
    defaulted: set[Setting]
    changed: set[Setting]


def scan(root: Path) -> Trace:
    """Run every step under the tracer; return the union of their records."""
    trace = Trace(set(), set(), set())
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
                trace.seen.update(tuple(key) for key in record["seen"])
                trace.defaulted.update(tuple(setting) for setting in record["defaulted"])
                trace.changed.update(tuple(setting) for setting in record["changed"])
                dump.unlink()
    return trace


def never_set(root: Path, defaulted: set[Setting], changed: set[Setting]) -> list[str]:
    """``path::qualname:param`` of every defaulted parameter no call changed."""
    root = root.resolve()
    return sorted(
        f"{Path(file).resolve().relative_to(root).as_posix()}::{qualname}:{param}"
        for file, qualname, param in defaulted - changed
    )


def unset_reason(name: str) -> str | None:
    """The :data:`UNSET_ALLOWLIST` reason covering ``name``: its own or its class's."""
    return UNSET_ALLOWLIST.get(name) or UNSET_ALLOWLIST.get(name.rpartition(":")[0])


def gate(found: dict[str, str | None], allowlist: dict[str, str], what: str) -> bool:
    """Print the new and stale entries of ``found`` (name -> allowlist reason); True if none."""
    new = [name for name, reason in found.items() if reason is None]
    covered = {name for name, reason in found.items() if reason is not None}
    covered |= {name.rpartition(":")[0] for name in covered}
    stale = sorted(set(allowlist) - covered)
    for name in new:
        print(f"NEW      {name}: {what}, or allowlist it with a reason")
    for name in stale:
        print(f"STALE    {name}: no longer found; remove it from its allowlist")
    return not (new or stale)


def main() -> int:
    """Scan, print the cold functions and never-set settings, and gate both lists."""
    root = repo_root()
    defined = defined_functions(root, sorted((root / "src" / "repro").rglob("*.py")))
    print(f"tracing the calls of {len(defined)} src/repro functions:")
    trace = scan(root)

    functions = cold_functions(defined, trace.seen)
    cold = {function.name: ALLOWLIST.get(function.name) for function in functions}
    print(f"\n{len(cold)} never-called functions ({sum(f.lines for f in functions)} lines):")
    for function in functions:
        reason = cold[function.name]
        print(f"  {function.lines:4}  {function.name}" + (f"  [allowed: {reason}]" if reason else ""))

    unset = {name: unset_reason(name) for name in never_set(root, trace.defaulted, trace.changed)}
    print(f"\n{len(unset)} of {len(trace.defaulted)} defaulted parameters and fields never set:")
    for name, reason in unset.items():
        print(f"  {name}" + (f"  [allowed: {reason}]" if reason else ""))

    ok = gate(cold, ALLOWLIST, "call it from a step or delete it")
    ok &= gate(unset, UNSET_ALLOWLIST, "set it from a step or make it a constant")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
