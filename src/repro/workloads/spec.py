"""Request and workload containers shared by all trace generators.

A :class:`RequestSpec` is the scheduler-visible description of one request:
its prompt length, the output length the model *will* produce (hidden from the
scheduler — only the engine consults it to know when the EOS token fires), and
the ``max_new_tokens`` cap the client declared.

A :class:`Workload` is an ordered list of specs plus metadata about how it was
generated.  Arrival times are optional: closed-loop client simulations assign
arrival dynamically, while open-loop (trace replay) runs use the recorded
``arrival_time``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from statistics import mean
from typing import Iterator, Mapping, Sequence

import numpy as np

#: Default service class: latency-sensitive end-user traffic.
SLA_CLASS_INTERACTIVE = "interactive"

#: Throughput-oriented service class: background / batch traffic that
#: tolerates looser latency bounds.
SLA_CLASS_BATCH = "batch"


@dataclass(frozen=True)
class RequestSpec:
    """One request of a workload.

    Attributes:
        request_id: unique identifier within the workload.
        input_length: number of prompt tokens.
        output_length: number of tokens the model will actually generate
            (unknown to the scheduler; the engine stops the request after this
            many tokens, emulating the EOS token).
        max_new_tokens: client-declared generation cap.  The true output
            length never exceeds it.
        arrival_time: optional arrival timestamp (seconds) for open-loop replay.
        image_tokens: extra prompt tokens contributed by images (multimodal
            workloads); 0 for text-only requests.
        sla_class: service class the request belongs to (e.g.
            :data:`SLA_CLASS_INTERACTIVE` vs :data:`SLA_CLASS_BATCH`).
            :class:`~repro.serving.sla.SLASpec` may bind per-class latency
            bounds, and fleet metrics report goodput per class.
        user_id: the end user the request belongs to, or ``None`` for
            tenant-less traffic.  Fair schedulers
            (:mod:`repro.schedulers.fair`) account service per user, the
            overload throttle (:mod:`repro.serving.throttle`) rate-limits per
            user, and fairness metrics (:mod:`repro.metrics.fairness`) slice
            per user.  Stamp populations with
            :func:`repro.workloads.tenants.assign_tenants`.
        app_id: the application the request arrived through (one app serves
            many users; one user may use several apps), or ``None``.
            Throttling and fairness metrics can also slice per app.
        session_id: the multi-turn session the request belongs to, or ``None``
            for single-shot traffic.  Session-affine routers
            (:mod:`repro.serving.routing`) pin a session's turns to the
            replica holding its KV prefix, and the per-replica
            :class:`~repro.memory.prefix_cache.PrefixCache` keys resident
            prefixes by session.  Stamped by
            :mod:`repro.workloads.interactions`.
        session_stage: 0-based turn index within the session (``None`` when
            ``session_id`` is ``None``).  Stage *n + 1*'s prompt extends the
            accumulated context of stage *n*.
        session_stages: total turns the session will attempt, used to tell
            the final stage (whose context is never reused) from
            intermediate ones.
    """

    request_id: str
    input_length: int
    output_length: int
    max_new_tokens: int
    arrival_time: float | None = None
    image_tokens: int = 0
    sla_class: str = SLA_CLASS_INTERACTIVE
    user_id: str | None = None
    app_id: str | None = None
    session_id: str | None = None
    session_stage: int | None = None
    session_stages: int | None = None

    def __post_init__(self) -> None:
        if self.input_length < 0:
            raise ValueError("input_length must be non-negative")
        if self.output_length <= 0:
            raise ValueError("output_length must be positive")
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if self.output_length > self.max_new_tokens:
            raise ValueError(
                f"output_length ({self.output_length}) exceeds "
                f"max_new_tokens ({self.max_new_tokens})"
            )
        if self.arrival_time is not None and not 0 <= self.arrival_time < math.inf:
            raise ValueError("arrival_time must be finite and non-negative when set")
        if self.image_tokens < 0:
            raise ValueError("image_tokens must be non-negative")
        if not self.sla_class:
            raise ValueError("sla_class must be a non-empty string")
        if self.user_id is not None and not self.user_id:
            raise ValueError("user_id must be None or a non-empty string")
        if self.app_id is not None and not self.app_id:
            raise ValueError("app_id must be None or a non-empty string")
        if self.session_id is not None and not self.session_id:
            raise ValueError("session_id must be None or a non-empty string")
        if (self.session_stage is None) != (self.session_id is None):
            raise ValueError("session_stage and session_id must be set together")
        if self.session_stage is not None and self.session_stage < 0:
            raise ValueError("session_stage must be non-negative")
        if self.session_stages is not None:
            if self.session_id is None:
                raise ValueError("session_stages requires session_id")
            if self.session_stage is not None and self.session_stage >= self.session_stages:
                raise ValueError("session_stage must be below session_stages")

    @property
    def prompt_tokens(self) -> int:
        """Total prompt tokens including any image prefix."""
        return self.input_length + self.image_tokens

    @property
    def total_tokens(self) -> int:
        """Prompt plus generated tokens — the request's final KV footprint."""
        return self.prompt_tokens + self.output_length

    def with_arrival(self, arrival_time: float) -> "RequestSpec":
        """Copy of this spec with an arrival timestamp."""
        return replace(self, arrival_time=arrival_time)

    @property
    def is_final_stage(self) -> bool:
        """Whether this is the last turn of its session (``False`` if unknown)."""
        return (
            self.session_stage is not None
            and self.session_stages is not None
            and self.session_stage == self.session_stages - 1
        )


@dataclass
class Workload:
    """An ordered collection of request specs."""

    name: str
    requests: list[RequestSpec] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for spec in self.requests:
            if spec.request_id in seen:
                raise ValueError(f"duplicate request id {spec.request_id!r}")
            seen.add(spec.request_id)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[RequestSpec]:
        return iter(self.requests)

    @property
    def mean_input_length(self) -> float:
        """Mean prompt length (excluding image tokens)."""
        if not self.requests:
            return 0.0
        return mean(r.input_length for r in self.requests)

    @property
    def mean_output_length(self) -> float:
        """Mean true output length."""
        if not self.requests:
            return 0.0
        return mean(r.output_length for r in self.requests)

    @property
    def output_lengths(self) -> list[int]:
        """True output lengths in order, e.g. for distribution analysis."""
        return [r.output_length for r in self.requests]

    def renumbered(self, prefix: str) -> "Workload":
        """Copy with request ids rewritten as ``{prefix}-{index}``.

        Useful when concatenating workloads whose ids would collide.
        """
        renamed = [
            replace(spec, request_id=f"{prefix}-{i}")
            for i, spec in enumerate(self.requests)
        ]
        return Workload(name=self.name, requests=renamed, description=self.description)


def scale_workload(workload: Workload, factor: float) -> Workload:
    """Scale every length in a workload by ``factor`` (rounding, at least one token).

    Scheduling behaviour depends on the *ratio* between request footprints and
    the KV-cache capacity, not on absolute token counts.  Scaling a workload
    down together with a proportional ``token_capacity_override`` keeps the
    experiment's shape while making simulations orders of magnitude cheaper;
    the scaled benchmarks rely on this.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    scaled: list[RequestSpec] = []
    for spec in workload.requests:
        output = max(int(round(spec.output_length * factor)), 1)
        cap = max(int(round(spec.max_new_tokens * factor)), output)
        scaled.append(
            replace(
                spec,
                input_length=max(int(round(spec.input_length * factor)), 1),
                output_length=output,
                max_new_tokens=cap,
                image_tokens=int(round(spec.image_tokens * factor)),
            )
        )
    return Workload(
        name=workload.name,
        requests=scaled,
        description=f"{workload.description} (scaled x{factor:g})",
    )


def assign_sla_classes(
    workload: Workload,
    fractions: Mapping[str, float],
    seed: int = 0,
) -> Workload:
    """Stamp each request with a service class drawn from ``fractions``.

    Mixed interactive/batch traces are the norm in production (the paper's
    API-trace observation), so class labels are assigned i.i.d. per request
    rather than in blocks — bursts then contain both classes, which is what
    makes class-aware routing interesting.

    Args:
        workload: the requests to stamp, in submission order.
        fractions: class name to probability; must sum to 1 (within 1e-9).
        seed: seed of the generator the classes are drawn from.
    """
    if not fractions:
        raise ValueError("fractions must name at least one class")
    names = sorted(fractions)
    probabilities = np.array([fractions[name] for name in names], dtype=float)
    if np.any(probabilities < 0) or abs(probabilities.sum() - 1.0) > 1e-9:
        raise ValueError("fractions must be non-negative and sum to 1")
    drawn = np.random.default_rng(seed).choice(len(names), size=len(workload), p=probabilities)
    requests = [
        replace(spec, sla_class=names[index])
        for spec, index in zip(workload.requests, drawn)
    ]
    mix = ", ".join(f"{name} {fractions[name]:.0%}" for name in names)
    return Workload(
        name=workload.name,
        requests=requests,
        description=f"{workload.description} (classes: {mix})",
    )


def concatenate(name: str, workloads: Sequence[Workload]) -> Workload:
    """Concatenate several workloads into one, renumbering request ids."""
    requests: list[RequestSpec] = []
    for index, workload in enumerate(workloads):
        renamed = workload.renumbered(f"w{index}")
        requests.extend(renamed.requests)
    description = " + ".join(w.name for w in workloads)
    return Workload(name=name, requests=requests, description=description)
