#!/usr/bin/env python3
"""Committed mutants: every one must be killed by the tests it names.

Each entry of :data:`MUTANTS` is a one-snippet edit of a file under ``src/``
(an exact ``old`` snippet and its ``new`` replacement) plus the pytest node
ids expected to catch it.  The tool copies the checkout's Python directories
and ``pyproject.toml`` into a temporary directory, runs every named id once on
the unmutated copy (all must pass), then applies each mutant in turn and runs
only that mutant's ids: at least one of them must fail.

The tool fails when

* an ``old`` snippet does not occur exactly once in its file (a refactor that
  moves the code must re-target the mutant, not drop it quietly);
* a named id fails, or is missing, on the unmutated copy;
* a mutant survives: all of its ids pass.

Run from anywhere inside the checkout::

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME [NAME]  # the named ones
    python tools/mutants.py --list       # names, files and ids

Exit status is non-zero on any failure; this is CI's ``mutants`` job.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

#: pytest options for every run: quiet, stop at the first failure, no cache
#: writes, and the property suites' pinned Hypothesis seed.
PYTEST_ARGS = ("-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0")


@dataclass(frozen=True)
class Mutant:
    """One edit the named tests must catch."""

    name: str
    #: file to edit, relative to the checkout root.
    path: str
    old: str
    new: str
    #: pytest node ids, relative to the checkout root.
    tests: tuple[str, ...]


#: The property that replays ``FutureMemoryIndex.admit`` against the Eq. 2–4 spec.
ADMIT_PROPERTY = (
    "tests/test_properties.py::TestFutureMemoryProperties::test_admit_keeps_exactly_the_candidates_that_fit"
)

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "horizon-max-over-the-wrong-draws",
        "src/repro/core/past_future.py",
        "raw[:, :run_draws].reshape(size, num_samples, batch)",
        "raw[:, :run_draws].reshape(size, batch, num_samples).swapaxes(1, 2)",
        (
            "tests/test_saturated_jump.py"
            "::test_saturated_horizon_replays_sequential_decisions_at_stream_edges",
            "tests/test_saturated_jump.py::test_saturated_past_future_bit_identical[None-sharegpt]",
        ),
    ),
    Mutant(
        "predict-new-keeps-the-smallest-sample",
        "src/repro/core/predictor.py",
        "return self._sorted[aggregate_samples(indices)]",
        "return self._sorted[indices.min(axis=0)]",
        (
            "tests/test_core_predictor.py::TestPredictNew"
            "::test_equals_the_choice_draw_and_leaves_the_same_state[3-7]",
        ),
    ),
    Mutant(
        "generator-ignores-the-self-check",
        "src/repro/core/rng_streams.py",
        "    if not streams_match():\n        return np.random.default_rng(seed)\n",
        "",
        ("tests/test_rng_streams.py::test_typical_horizon_builds_no_generator",),
    ),
    Mutant(
        "admission-loop-continues-past-a-misfit",
        "src/repro/schedulers/base.py",
        "                    admitted.append(candidate)\n            break\n",
        "                    admitted.append(candidate)\n            continue\n",
        (
            "tests/test_saturated_jump.py::test_watermark_horizon_matches_sequential_schedule",
            "tests/test_schedulers_fair.py::TestAdmissionOrdering",
        ),
    ),
    Mutant(
        "watermark-proof-tests-the-queue-front",
        "src/repro/schedulers/aggressive.py",
        "first = next(iter(self._candidates(context.waiting)))",
        "first = context.waiting[0]",
        (
            "tests/test_saturated_jump.py::test_watermark_horizon_matches_sequential_schedule[vtc]",
            "tests/test_schedulers_fair.py::TestSaturatedHorizon"
            "::test_head_is_lowest_counter_not_queue_front",
        ),
    ),
    Mutant(
        "batch-cap-admits-into-a-full-batch",
        "src/repro/schedulers/conservative.py",
        "if slots <= 0 or not fits(candidate):",
        "if slots < 0 or not fits(candidate):",
        (
            "tests/test_schedulers_baselines.py::TestConservativeBatchCap::test_full_batch_admits_nothing",
            "tests/test_schedulers_baselines.py::TestConservativeBatchCap::test_full_batch_proves_window",
            "tests/test_properties.py::TestConservativeBatchCapProperties",
        ),
    ),
    Mutant(
        "batch-cap-forgets-the-running-batch",
        "src/repro/schedulers/conservative.py",
        "slots = self.max_running_requests - len(context.running)",
        "slots = self.max_running_requests",
        (
            "tests/test_schedulers_baselines.py::TestConservativeBatchCap::test_cap_trims_to_free_slots",
            "tests/test_properties.py::TestConservativeBatchCapProperties",
        ),
    ),
    Mutant(
        "running-tokens-count-cached-prefixes",
        "src/repro/engine/engine.py",
        "running_tokens=self.pool.used_tokens - (cache.resident_tokens if cache is not None else 0),",
        "running_tokens=self.pool.used_tokens,",
        (
            "tests/test_engine_engine.py::TestSchedulingContext"
            "::test_prefix_hit_admission_charges_the_batch_not_the_cached_prefixes",
        ),
    ),
    Mutant(
        "vtc-requeues-an-evictee-at-its-tenants-back",
        "src/repro/schedulers/fair.py",
        ".appendleft((next(self._front_seq), request))",
        ".append((next(self._back_seq), request))",
        (
            "tests/test_schedulers_fair.py::TestEngineIntegration"
            "::test_evicted_request_is_considered_before_its_tenants_later_arrivals",
            "tests/test_schedulers_fair.py::TestAdmissionOrdering"
            "::test_later_eviction_is_considered_first_across_tenants",
        ),
    ),
    Mutant(
        "watermark-occupancy-resums-the-batch",
        "src/repro/schedulers/aggressive.py",
        "return context.running_tokens",
        "return sum(map(self._cost, context.running))",
        ("tests/test_schedulers_fair.py::TestConsultCost",),
    ),
    Mutant(
        "future-memory-admit-commits-a-rejected-candidate",
        "src/repro/core/future_memory.py",
        "        if peak_future_memory(current, remaining) > budget:\n"
        "            return False\n"
        "        self._current, self._remaining = current, remaining\n",
        "        self._current, self._remaining = current, remaining\n"
        "        if peak_future_memory(current, remaining) > budget:\n"
        "            return False\n",
        (ADMIT_PROPERTY,),
    ),
    Mutant(
        "future-memory-admit-refuses-an-exact-fit",
        "src/repro/core/future_memory.py",
        "if peak_future_memory(current, remaining) > budget:",
        "if peak_future_memory(current, remaining) >= budget:",
        (ADMIT_PROPERTY,),
    ),
    Mutant(
        "jump-fuses-an-iteration-ending-at-the-clip",
        "src/repro/engine/engine.py",
        "if end >= clip:",
        "if end > clip:",
        (
            "tests/test_engine_fast_path.py::test_jump_stops_after_the_first_end_reaching_the_clip",
            "tests/test_engine_fast_path.py::test_clipped_jump_draws_only_the_iterations_it_fuses",
        ),
    ),
    Mutant(
        "future-memory-peak-sorts-ascending",
        "src/repro/core/future_memory.py",
        "ranked = sorted(zip(remaining, current), key=itemgetter(0), reverse=True)",
        "ranked = sorted(zip(remaining, current), key=itemgetter(0))",
        (
            "tests/test_properties.py::TestFutureMemoryProperties"
            "::test_scalar_kernel_equals_reference_and_batched_row",
            "tests/test_properties.py::TestRouterPredictionProperties"
            "::test_predicted_peaks_equal_padded_two_dimensional_spec",
        ),
    ),
    Mutant(
        "request-spec-regrows-a-test-only-helper",
        "src/repro/workloads/spec.py",
        "        return replace(self, arrival_time=arrival_time)\n",
        "        return replace(self, arrival_time=arrival_time)\n"
        "\n"
        "    def with_sla_class(self, sla_class: str) -> \"RequestSpec\":\n"
        "        \"\"\"Copy of this spec stamped with a service class.\"\"\"\n"
        "        return replace(self, sla_class=sla_class)\n",
        ("tests/test_import_hygiene.py::test_every_public_name_has_a_caller_outside_tests",),
    ),
    Mutant(
        "eviction-picks-the-oldest-admission",
        "src/repro/engine/engine.py",
        "admission_times[-1]",
        "admission_times[0]",
        (
            "tests/test_engine_batch_eviction.py::TestEvictionRule"
            "::test_a_readmitted_request_counts_from_its_latest_admission",
        ),
    ),
    Mutant(
        "admission-allocates-one-token-too-many",
        "src/repro/engine/engine.py",
        "self.pool.allocate(roomy)",
        "self.pool.allocate(roomy + 1)",
        (
            "tests/test_engine_engine.py::TestContinuousBatching::test_used_tokens_equals_batch_context",
            "tests/test_engine_engine.py::TestEvictionBehaviour::test_eviction_frees_the_whole_context",
        ),
    ),
    Mutant(
        "unserved-grower-keeps-its-token",
        "src/repro/engine/engine.py",
        "stop = len(self._ends) - 1 if request in self._unserved else None",
        "stop = None",
        (
            "tests/test_engine_batch_eviction.py::TestDeliveryAtThePoolBoundary"
            "::test_a_grower_evicted_before_it_is_served_gets_no_token",
        ),
    ),
    Mutant(
        "finish-ties-drop-the-completed-prefill-group",
        "src/repro/engine/engine.py",
        "(last, prefilled and last == lead, self._order[request], request)",
        "(last, False, self._order[request], request)",
        (
            "tests/test_engine_engine.py::TestDecodeSegments"
            "::test_finish_ties_put_decode_targets_before_completed_prefills[False]",
        ),
    ),
    Mutant(
        "uniform-oracle-peak-misreads-a-segment-constant",
        "src/repro/engine/engine.py",
        "[r.last_end + 1 - n for r in requests]",
        "[r.last_end - n for r in requests]",
        (
            "tests/test_engine_fast_path.py"
            "::test_profile_is_current_after_every_step_and_jump[aggressive-kwargs1-sharegpt-True]",
        ),
    ),
    Mutant(
        "forced-eviction-keeps-a-stale-jump-profile",
        "src/repro/engine/engine.py",
        "        del self._order[request]\n        self._silent_cache = None\n",
        "        del self._order[request]\n",
        (
            "tests/test_engine_batch_eviction.py::TestDeliveryAtThePoolBoundary"
            "::test_an_eviction_between_iterations_voids_the_jump_profile",
        ),
    ),
    Mutant(
        "step-discards-the-profile-refresh",
        "src/repro/engine/engine.py",
        "        future_required = self._refresh_silent_cache()\n",
        "        profile = self._silent_cache\n"
        "        future_required = self._refresh_silent_cache()\n"
        "        self._silent_cache = profile\n",
        (
            "tests/test_engine_fast_path.py"
            "::test_profile_is_current_after_every_step_and_jump[aggressive-kwargs1-sharegpt-True]",
        ),
    ),
    Mutant(
        "requests-compare-by-value",
        "src/repro/engine/request.py",
        "@dataclass(eq=False)",
        "@dataclass(eq=True)",
        (
            "tests/test_engine_engine.py::TestAdmissionByIdentity"
            "::test_admitting_the_second_of_two_equal_requests_removes_the_second",
        ),
    ),
    Mutant(
        "memory-aware-ties-favour-the-highest-id",
        "src/repro/serving/routing.py",
        "key=lambda pair: (-pair[0], pair[1].replica_id)",
        "key=lambda pair: (-pair[0], -pair[1].replica_id)",
        (
            "tests/test_serving_routing.py::TestMemoryAware::test_tie_breaks_to_lowest_id",
            "tests/test_serving_routing.py::TestReplicaViewNormalised"
            "::test_memory_aware_speed_weighting_breaks_fraction_ties",
        ),
    ),
    Mutant(
        "same-instant-straggler-before-crash",
        "src/repro/serving/faults.py",
        '_ACTION_ORDER = ("crash", "straggler-end", "straggler-start")',
        '_ACTION_ORDER = ("straggler-start", "straggler-end", "crash")',
        (
            "tests/test_serving_faults.py::TestPlanAndPolicy"
            "::test_injector_orders_same_instant_crash_before_straggler_start",
        ),
    ),
    Mutant(
        "autoscaler-keeps-the-policy-state",
        "src/repro/serving/autoscale.py",
        "        self._next_decision = self.interval\n        self.policy.on_run_start()\n",
        "        self._next_decision = self.interval\n",
        (
            "tests/test_serving_autoscale.py::TestAutoscalerDriver"
            "::test_run_start_resets_cadence_window_and_policy",
        ),
    ),
    Mutant(
        "autoscaler-keeps-the-traffic-window",
        "src/repro/serving/autoscale.py",
        "        self._samples.clear()\n        self._next_decision = self.interval\n",
        "        self._next_decision = self.interval\n",
        (
            "tests/test_serving_autoscale.py::TestAutoscalerDriver"
            "::test_run_start_resets_cadence_window_and_policy",
        ),
    ),
    Mutant(
        "autoscaler-keeps-the-decision-cadence",
        "src/repro/serving/autoscale.py",
        "        self._samples.clear()\n        self._next_decision = self.interval\n",
        "        self._samples.clear()\n",
        (
            "tests/test_serving_autoscale.py::TestAutoscalerDriver"
            "::test_run_start_resets_cadence_window_and_policy",
        ),
    ),
    Mutant(
        "crash-time-lets-nan-through",
        "src/repro/serving/faults.py",
        "        if not 0 <= self.time < math.inf:\n",
        "        if self.time < 0:\n",
        (
            "tests/test_serving_faults.py::TestPlanAndPolicy"
            "::test_non_finite_fault_values_fail_at_construction",
        ),
    ),
    Mutant(
        "sessions-bound-jumps-by-the-longest-think-time",
        "src/repro/workloads/interactions.py",
        "self._min_think_time = min(it.think_time for it in interactions)",
        "self._min_think_time = max(it.think_time for it in interactions)",
        (
            "tests/test_sessions.py::TestInteractionLoadGenerator"
            "::test_min_follow_up_delay_is_the_shortest_think_time",
        ),
    ),
    Mutant(
        "vtc-pushes-a-tenants-last-request",
        "src/repro/schedulers/fair.py",
        "heapq.heappush(heap, (charged, *fifo[following], tenant, following + 1))",
        "heapq.heappush(heap, (charged, *fifo[-1], tenant, following + 1))",
        (
            "tests/test_schedulers_fair.py::TestAdmissionOrdering::test_fifo_within_a_tenant",
            "tests/test_properties.py::TestVirtualTokenCounterOrderProperties",
        ),
    ),
    Mutant(
        "kernel-imports-the-metrics-layer",
        "src/repro/core/future_memory.py",
        "from operator import itemgetter\n",
        "from operator import itemgetter\n\nimport repro.metrics.latency  # noqa: F401\n",
        ("tests/test_import_hygiene.py::test_future_memory_kernel_loads_no_upper_layer",),
    ),
)


def repo_root() -> Path:
    """The checkout root (where ``pyproject.toml`` lives)."""
    for parent in Path(__file__).resolve().parents:
        if (parent / "pyproject.toml").exists():
            return parent
    raise SystemExit("could not locate the repo root (no pyproject.toml found)")


#: Directories the named tests need: ``tests/test_import_hygiene.py`` reads
#: every one of them for callers of ``src/``'s names.
COPIED_DIRS = ("src", "tests", "benchmarks", "examples", "bench", "tools")


def copy_checkout(root: Path, into: Path) -> None:
    """Copy what the named tests need: :data:`COPIED_DIRS` and ``pyproject.toml``."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
    for name in COPIED_DIRS:
        shutil.copytree(root / name, into / name, ignore=ignore)
    shutil.copy2(root / "pyproject.toml", into / "pyproject.toml")


def run_python(workdir: Path, *args: str, check: bool = False) -> subprocess.CompletedProcess:
    """Run ``python *args`` in the copy, importing ``repro`` from its ``src/``.

    No bytecode is written, so a restored file can never be shadowed by the
    cached bytecode of its mutant.
    """
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=workdir, env=env, capture_output=True, text=True, check=check
    )


def run_pytest(workdir: Path, node_ids: list[str]) -> subprocess.CompletedProcess:
    """Run ``node_ids`` against the copy's own ``src/``."""
    return run_python(workdir, "-m", "pytest", *PYTEST_ARGS, *node_ids)


def check_imports_from(workdir: Path) -> None:
    """Fail unless ``repro`` resolves to the copy (not an installed checkout)."""
    found = run_python(workdir, "-c", "import repro; print(repro.__file__)", check=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(workdir.resolve()):
        raise SystemExit(f"repro imports from {found}, not from the mutated copy in {workdir}")


def tail(output: str, lines: int = 15) -> str:
    """The last ``lines`` lines of a pytest report, indented."""
    return "\n".join("    " + line for line in output.strip().splitlines()[-lines:])


def main(argv: list[str] | None = None) -> int:
    """Check every selected mutant; return the exit status."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the table and exit")
    args = parser.parse_args(argv)

    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    selected = [by_name[name] for name in args.names] if args.names else list(MUTANTS)
    if args.list:
        for mutant in selected:
            print(f"{mutant.name}  ({mutant.path})")
            for node_id in mutant.tests:
                print(f"    {node_id}")
        return 0

    root = repo_root()
    started = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        workdir = Path(tmp)
        copy_checkout(root, workdir)
        check_imports_from(workdir)

        for mutant in selected:
            count = (workdir / mutant.path).read_text().count(mutant.old)
            if count != 1:
                print(f"STALE    {mutant.name}: old snippet occurs {count} times in {mutant.path}")
                failures += 1
        if failures:
            return 1

        node_ids = list(dict.fromkeys(node_id for mutant in selected for node_id in mutant.tests))
        baseline = run_pytest(workdir, node_ids)
        if baseline.returncode != 0:
            print("BASELINE the named tests do not all pass on the unmutated copy:")
            print(tail(baseline.stdout + baseline.stderr))
            return 1
        print(f"baseline {len(node_ids)} test ids pass on the unmutated copy")

        for mutant in selected:
            target = workdir / mutant.path
            original = target.read_text()
            target.write_text(original.replace(mutant.old, mutant.new))
            try:
                mutant_started = time.perf_counter()
                result = run_pytest(workdir, list(mutant.tests))
                elapsed = time.perf_counter() - mutant_started
            finally:
                target.write_text(original)
            if result.returncode == 1:
                print(f"killed   {mutant.name} ({elapsed:.1f} s)")
            else:
                # 0: every named test passed; anything else: pytest could not
                # run them (a collection error is not a kill).
                print(f"SURVIVED {mutant.name} (pytest exit {result.returncode})")
                print(tail(result.stdout + result.stderr))
                failures += 1

    elapsed = time.perf_counter() - started
    print(f"{len(selected) - failures} of {len(selected)} mutants killed in {elapsed:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
