"""repro: reproduction of the Past-Future scheduler for LLM serving (ASPLOS 2025).

The package is organised as

* :mod:`repro.core` — the paper's contribution (output-length prediction and
  future-required-memory admission control),
* :mod:`repro.schedulers` — baseline admission policies and the registry,
* :mod:`repro.engine`, :mod:`repro.memory`, :mod:`repro.hardware`,
  :mod:`repro.serving`, :mod:`repro.workloads` — the serving-system substrate
  (continuous batching, KV-cache pool, cost model, client models, traces),
* :mod:`repro.metrics`, :mod:`repro.frameworks`, :mod:`repro.analysis` —
  measurement, comparator profiles, and experiment drivers.

The most common entry points are re-exported here.
"""

from repro.core.past_future import PastFutureScheduler
from repro.analysis.experiments import FleetConfig, run_experiment
from repro.hardware.platform import Platform, make_platform, paper_platform
from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.serving.server import ServingSimulator
from repro.serving.sla import SLA_LARGE_MODEL, SLA_SMALL_MODEL, SLASpec
from repro.workloads.spec import RequestSpec, Workload

__version__ = "1.0.0"

__all__ = [
    "PastFutureScheduler",
    "FleetConfig",
    "run_experiment",
    "Platform",
    "make_platform",
    "paper_platform",
    "available_schedulers",
    "create_scheduler",
    "ServingSimulator",
    "SLA_LARGE_MODEL",
    "SLA_SMALL_MODEL",
    "SLASpec",
    "RequestSpec",
    "Workload",
    "__version__",
]
