"""SLA specifications and per-request compliance checks.

The paper's SLA (Section 5.1) bounds two per-request quantities:

* TTFT — time to first token, and
* MTPOT — the maximum inter-token gap within the request,

and declares a *service* SLA-compliant when 99% of requests satisfy both.
Goodput counts only the tokens of compliant requests.

Two presets match the paper: ``(TTFT < 10 s, MTPOT < 1.5 s)`` for the 7B/13B
models and ``(TTFT < 15 s, MTPOT < 5 s)`` for the 70B model.

Production traffic is not one class, though: a fleet mixes latency-sensitive
*interactive* requests with throughput-oriented *batch* requests (see
:attr:`repro.workloads.spec.RequestSpec.sla_class`), and they sign different
contracts.  An :class:`SLASpec` therefore optionally carries **per-class
deadline overrides**: :meth:`limits_for` resolves the bounds a given class
must meet (falling back to the base bounds), and
:meth:`request_compliant` judges every request against *its own class's*
deadlines.  Per-class goodput accounting on top of this lives in
:mod:`repro.metrics.goodput` and :mod:`repro.metrics.fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.engine.request import Request
from repro.workloads.spec import SLA_CLASS_BATCH, SLA_CLASS_INTERACTIVE


@dataclass(frozen=True)
class ClassLimits:
    """Latency bounds one SLA class must meet."""

    ttft_limit: float
    mtpot_limit: float

    def __post_init__(self) -> None:
        if self.ttft_limit <= 0 or self.mtpot_limit <= 0:
            raise ValueError("SLA limits must be positive")

    def describe(self) -> str:
        """Compact ``TTFT .. / MTPOT ..`` rendering."""
        return f"TTFT {self.ttft_limit:g}s, MTPOT {self.mtpot_limit:g}s"


@dataclass(frozen=True)
class SLASpec:
    """Per-request latency bounds under the paper's P99 service-level target.

    Attributes:
        ttft_limit: base time-to-first-token bound (seconds).
        mtpot_limit: base maximum inter-token-gap bound (seconds).
        class_limits: optional per-SLA-class deadline overrides; classes not
            listed fall back to the base bounds.  Excluded from the hash
            (the mapping is not hashable) so specs remain usable as dict
            keys / set members; equality still compares it.
    """

    ttft_limit: float
    mtpot_limit: float
    class_limits: Mapping[str, ClassLimits] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if self.ttft_limit <= 0 or self.mtpot_limit <= 0:
            raise ValueError("SLA limits must be positive")

    def limits_for(self, sla_class: str) -> ClassLimits:
        """Effective deadlines for a service class (base bounds by default)."""
        override = self.class_limits.get(sla_class)
        if override is not None:
            return override
        return ClassLimits(ttft_limit=self.ttft_limit, mtpot_limit=self.mtpot_limit)

    def request_compliant(self, request: Request) -> bool:
        """Whether a single request met both latency bounds of *its class*.

        Unfinished requests and requests that never produced a token are
        non-compliant by definition.  Requests with a single output token have
        no inter-token gap, so only their TTFT is checked.
        """
        if not request.is_finished:
            return False
        limits = self.limits_for(request.spec.sla_class)
        ttft = request.ttft
        if ttft is None or ttft > limits.ttft_limit:
            return False
        max_gap = request.max_tpot
        if max_gap is not None and max_gap > limits.mtpot_limit:
            return False
        return True

    def describe(self) -> str:
        """Human-readable SLA string as used in the paper's figure captions."""
        base = (
            f"P99 TTFT {self.ttft_limit:g}s, "
            f"P99 MTPOT {self.mtpot_limit:g}s"
        )
        if not self.class_limits:
            return base
        classes = "; ".join(
            f"{name}: {self.class_limits[name].describe()}"
            for name in sorted(self.class_limits)
        )
        return f"{base} [{classes}]"


#: SLA used for the 7B and 13B models in the paper.  (Its 70B preset, TTFT
#: 15 s and MTPOT 5 s, backs no figure here.)
SLA_SMALL_MODEL = SLASpec(ttft_limit=10.0, mtpot_limit=1.5)


def two_class_sla(
    interactive: ClassLimits | tuple[float, float],
    batch: ClassLimits | tuple[float, float],
) -> SLASpec:
    """Build the canonical interactive/batch two-class SLA.

    The base bounds are the interactive ones (unknown classes are held to the
    stricter contract), with an explicit looser contract for ``batch``.

    Args:
        interactive: ``ClassLimits`` or ``(ttft, mtpot)`` for interactive
            traffic.
        batch: ``ClassLimits`` or ``(ttft, mtpot)`` for batch traffic.
    """
    if isinstance(interactive, tuple):
        interactive = ClassLimits(*interactive)
    if isinstance(batch, tuple):
        batch = ClassLimits(*batch)
    return SLASpec(
        ttft_limit=interactive.ttft_limit,
        mtpot_limit=interactive.mtpot_limit,
        class_limits={SLA_CLASS_INTERACTIVE: interactive, SLA_CLASS_BATCH: batch},
    )
