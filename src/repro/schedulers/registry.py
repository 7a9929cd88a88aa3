"""Name-based scheduler construction for experiment configs and benches.

The Past-Future scheduler lives in :mod:`repro.core.past_future` (it is the
paper's contribution, not a baseline); the rest are the baselines of this
package.
"""

from __future__ import annotations

from typing import Callable

from repro.core.past_future import PastFutureScheduler
from repro.registry import instantiate
from repro.schedulers.aggressive import AggressiveScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.conservative import ConservativeScheduler
from repro.schedulers.fair import (
    VirtualTokenCounterScheduler,
    WeightedServiceCounterScheduler,
)
from repro.schedulers.oracle import OracleScheduler

SchedulerFactory = Callable[..., Scheduler]

SCHEDULER_REGISTRY: dict[str, SchedulerFactory] = {
    "past-future": PastFutureScheduler,
    "aggressive": AggressiveScheduler,
    "conservative": ConservativeScheduler,
    "oracle": OracleScheduler,
    "vtc": VirtualTokenCounterScheduler,
    "weighted-vtc": WeightedServiceCounterScheduler,
}


def create_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by registry name.

    Args:
        name: one of ``past-future``, ``aggressive``, ``conservative``,
            ``oracle``, ``vtc``, ``weighted-vtc``.
        **kwargs: forwarded to the scheduler constructor (e.g.
            ``reserved_fraction`` or ``watermark``).

    Raises:
        KeyError: if the name is unknown.
        TypeError: if a keyword argument is not accepted by the scheduler,
            listing the keywords it does accept (where introspectable).
    """
    return instantiate("scheduler", SCHEDULER_REGISTRY, name, kwargs)
