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
"""
