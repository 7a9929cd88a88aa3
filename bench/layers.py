"""Per-layer profile of a simulation call, measured from outside the simulator.

:class:`LayerTracer` patches each layer's public entry points for the
duration of a ``with`` block and restores every attribute on exit, even when
the block raises.  Free functions are patched where they are *looked up*
(``peak_future_memory_arrays`` in ``repro.engine.engine`` and
``repro.serving.routing``, not in its defining module); methods are patched
on each class that defines them, so inherited hooks are seen through their
defining class.

Only calls that cross a layer boundary open a span: a call made from inside
the same layer runs unwrapped.  Spans live on an in-memory stack and are
folded into a parent -> child edge table when they close, so memory stays
flat however many calls a run makes.  A layer's self time is its span time
minus its child spans' time, so the self times of all layers sum exactly to
the root ``run_*`` spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

RUN_METHODS = ("run_closed_loop", "run_open_loop", "run_sessions")
SCHEDULER_HOOKS = (
    "schedule",
    "saturated_no_admit_horizon",
    "on_saturated_steps_fused",
    "on_request_submitted",
    "on_request_finished",
    "on_request_evicted",
)
ROUTING_METHODS = (
    "decide",
    "predicted_peak_tokens",
    "predicted_peak_fraction",
    "predicted_headroom_tokens",
    "predicted_headroom_fraction",
)


@dataclass(frozen=True)
class Target:
    """Entry points of one layer inside one module.

    ``owner`` names a class of ``module`` or, with ``None``, the module itself
    (free functions looked up there).  ``owner="*"`` means every class the
    module defines that has one of ``names`` in its own namespace.  With
    ``names=None`` every public function of ``owner`` is patched, and its
    constructor, so objects built inside a call count as that layer's work.
    """

    layer: str
    module: str
    owner: str | None
    names: tuple[str, ...] | None = None


CONSTRUCTORS = ("__init__", "__post_init__")
SCHEDULER_MODULES = (
    "repro.schedulers.base",
    "repro.schedulers.aggressive",
    "repro.schedulers.conservative",
    "repro.schedulers.fair",
    "repro.schedulers.oracle",
    "repro.core.past_future",
)

TARGETS: tuple[Target, ...] = (
    Target("serving.server", "repro.serving.server", "ServingSimulator", RUN_METHODS),
    Target("serving.cluster", "repro.serving.cluster", "ClusterSimulator", RUN_METHODS + ("snapshots",)),
    Target("serving.routing", "repro.serving.routing", "*", ROUTING_METHODS),
    Target("serving.throttle", "repro.serving.throttle", "OverloadThrottle", ("check",)),
    Target("serving.faults", "repro.serving.faults", "FaultInjector"),
    Target("serving.faults", "repro.serving.faults", "RetryPolicy", ("delay",)),
    *(Target("schedulers", module, "*", SCHEDULER_HOOKS) for module in SCHEDULER_MODULES),
    Target("core.predictor", "repro.core.predictor", "OutputLengthPredictor"),
    Target(
        "core.predictor",
        "repro.core.past_future",
        None,
        ("conditional_prediction_samples", "aggregate_samples"),
    ),
    Target("core.history", "repro.core.history", "OutputLengthHistory"),
    Target("core.future_memory", "repro.core.future_memory", "FutureMemoryIndex"),
    Target("core.future_memory", "repro.engine.engine", None, ("peak_future_memory_arrays",)),
    Target("core.future_memory", "repro.serving.routing", None, ("peak_future_memory_arrays",)),
    Target("core.future_memory", "repro.core.past_future", None, ("batched_peak_with_candidate",)),
    Target("core.future_memory", "repro.schedulers.oracle", None, ("batched_peak_with_candidate",)),
    Target(
        "engine", "repro.engine.engine", "InferenceEngine", ("submit", "step", "try_jump_any", "abort_all")
    ),
    Target("engine.cost_model", "repro.engine.cost_model", "CostModel"),
    Target(
        "engine.cost_model",
        "repro.serving.faults",
        "SlowdownCostModel",
        ("step_seconds", "decode_step_durations"),
    ),
    Target("memory.block_manager", "repro.memory.block_manager", "BlockKVCachePool"),
    Target("memory.prefix_cache", "repro.memory.prefix_cache", "PrefixCache"),
)

#: Every layer, in the order reports list them.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in TARGETS))


def _owners(target: Target) -> list:
    module = importlib.import_module(target.module)
    if target.owner is None:
        return [module]
    if target.owner != "*":
        return [getattr(module, target.owner)]
    return [
        value
        for value in vars(module).values()
        if inspect.isclass(value)
        and value.__module__ == module.__name__
        and any(name in vars(value) for name in target.names)
    ]


def resolve() -> list[tuple[str, object, str, object]]:
    """``(layer, owner, name, original)`` for every attribute the tracer patches."""
    found = []
    for target in TARGETS:
        for owner in _owners(target):
            namespace = vars(owner)
            names = target.names or [
                name for name in namespace if not name.startswith("_") or name in CONSTRUCTORS
            ]
            for name in names:
                original = namespace.get(name)
                if inspect.isfunction(original):
                    found.append((target.layer, owner, name, original))
    return found


class LayerTracer:
    """Times layer-boundary calls while installed (use as a context manager).

    ``edges`` maps ``(parent_layer, layer)`` to ``[calls, self_ns]``,
    with parent ``None`` for root spans; ``admitting`` counts ``schedule``
    calls that admitted at least one request.
    """

    def __init__(self) -> None:
        # The bottom frame is a sentinel whose child time is the root spans' total.
        self._stack: list[list] = [[None, 0]]
        self.edges: dict[tuple[str | None, str], list[int]] = {}
        self.admitting = 0
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        try:
            for layer, owner, name, original in resolve():
                setattr(owner, name, self._wrap(layer, name, original))
                self._patches.append((owner, name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter_ns
        counts_admissions = name == "schedule"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                edge = edges.get((parent[0], layer))
                if edge is None:
                    edge = edges[(parent[0], layer)] = [0, 0]
                edge[0] += 1
                edge[1] += elapsed - frame[1]
            if counts_admissions and result:
                self.admitting += 1
            return result

        return wrapper

    @property
    def root_ns(self) -> int:
        """Total time of the root spans."""
        return self._stack[0][1]

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """``layer -> (calls, self_ns)`` for every layer, zero when never entered."""
        totals = {layer: [0, 0] for layer in LAYERS}
        for (_, layer), (calls, self_ns) in self.edges.items():
            totals[layer][0] += calls
            totals[layer][1] += self_ns
        return {layer: (calls, self_ns) for layer, (calls, self_ns) in totals.items()}
