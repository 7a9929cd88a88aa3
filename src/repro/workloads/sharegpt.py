"""ShareGPT-style workloads, including the paper's ShareGPT-o1 variant.

The paper uses two ShareGPT-derived datasets:

* plain **ShareGPT** conversations (Figure 9 end-to-end comparison), with
  ``max_new_tokens = 2048`` and relatively short outputs, and
* **ShareGPT-o1** (Figure 7), built by replaying ShareGPT questions through the
  OpenAI o1-preview API: chain-of-thought reasoning makes the outputs much
  longer than the inputs (the paper reports average input 381, average output
  2160 tokens), i.e. a decode-heavy workload.

The original text corpora are not redistributable here, so both are modelled
as log-normal length distributions whose means/tails match the published
statistics.  The scheduler consumes only the lengths, so this preserves the
behaviour the experiments depend on.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.spec import RequestSpec, Workload

#: Generation cap of plain ShareGPT requests (the paper's Figure 9).
SHAREGPT_MAX_NEW_TOKENS = 2048


def _lognormal_lengths(
    rng: np.random.Generator,
    mean_target: float,
    sigma: float,
    size: int,
    low: int,
    high: int,
) -> np.ndarray:
    """Log-normal samples clipped to [low, high] with approximately the target mean."""
    mu = np.log(mean_target) - sigma ** 2 / 2.0
    samples = rng.lognormal(mean=mu, sigma=sigma, size=size)
    return np.clip(np.round(samples), low, high).astype(int)


def generate_sharegpt_workload(num_requests: int, seed: int = 0) -> Workload:
    """Plain ShareGPT-style conversation workload.

    Inputs average a few hundred tokens; outputs average ~250 tokens with a
    long tail, capped at :data:`SHAREGPT_MAX_NEW_TOKENS`.  Conversations are
    end-user traffic, so requests are stamped ``interactive`` (mixed-class
    traces are produced post hoc with
    :func:`repro.workloads.spec.assign_sla_classes`).
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    rng = np.random.default_rng(seed)
    inputs = _lognormal_lengths(rng, mean_target=300.0, sigma=1.0, size=num_requests, low=8, high=4096)
    outputs = _lognormal_lengths(
        rng, mean_target=250.0, sigma=1.1, size=num_requests, low=4, high=SHAREGPT_MAX_NEW_TOKENS
    )
    requests = [
        RequestSpec(
            request_id=f"sharegpt-{i}",
            input_length=int(inputs[i]),
            output_length=int(outputs[i]),
            max_new_tokens=SHAREGPT_MAX_NEW_TOKENS,
        )
        for i in range(num_requests)
    ]
    return Workload(
        name="ShareGPT",
        requests=requests,
        description="ShareGPT-style conversations, log-normal lengths, cap 2048",
    )


def generate_sharegpt_o1_workload(
    num_requests: int,
    seed: int = 0,
    max_new_tokens: int = 8192,
) -> Workload:
    """ShareGPT-o1 style decode-heavy workload (chain-of-thought outputs).

    Matches the paper's reported averages: ~381 input tokens and ~2160 output
    tokens per request, with a heavy output tail from long reasoning chains.
    Stamped ``interactive``, like :func:`generate_sharegpt_workload`.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    rng = np.random.default_rng(seed)
    inputs = _lognormal_lengths(rng, mean_target=381.0, sigma=0.9, size=num_requests, low=8, high=4096)
    outputs = _lognormal_lengths(rng, mean_target=2160.0, sigma=0.7, size=num_requests, low=64, high=max_new_tokens)
    requests = [
        RequestSpec(
            request_id=f"sharegpt-o1-{i}",
            input_length=int(inputs[i]),
            output_length=int(outputs[i]),
            max_new_tokens=max_new_tokens,
        )
        for i in range(num_requests)
    ]
    return Workload(
        name="ShareGPT-o1",
        requests=requests,
        description="ShareGPT questions with o1-style chain-of-thought outputs (decode-heavy)",
    )
