"""The paper's synthetic uniform length distributions (Distribution-1/2/3).

Section 5.1 of the paper constructs three datasets from the length statistics
of a production service, with uniform input/output length ranges:

* **Distribution-1** (decode-heavy): input 32–4k, output 2k–4k
* **Distribution-2** (balanced):     input 3k–5k, output 3k–5k
* **Distribution-3** (prefill-heavy): input 2k–4k, output 32–4k

``max_new_tokens`` is set to the top of the output range so the true output is
always admissible, matching the paper's setup where the maximum output length
is a generous cap rather than a tight bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.spec import RequestSpec, Workload


@dataclass(frozen=True)
class UniformLengthSpec:
    """Uniform input/output length ranges defining one synthetic dataset."""

    name: str
    input_low: int
    input_high: int
    output_low: int
    output_high: int


DISTRIBUTION_1 = UniformLengthSpec("Distribution-1", 32, 4096, 2048, 4096)
DISTRIBUTION_2 = UniformLengthSpec("Distribution-2", 3072, 5120, 3072, 5120)
DISTRIBUTION_3 = UniformLengthSpec("Distribution-3", 2048, 4096, 32, 4096)

PAPER_DISTRIBUTIONS: dict[str, UniformLengthSpec] = {
    "Distribution-1": DISTRIBUTION_1,
    "Distribution-2": DISTRIBUTION_2,
    "Distribution-3": DISTRIBUTION_3,
}


def generate_uniform_workload(
    spec: UniformLengthSpec,
    num_requests: int,
    seed: int = 0,
) -> Workload:
    """Sample a workload with uniformly distributed input/output lengths.

    Args:
        spec: the length ranges to sample from.
        num_requests: number of requests to generate.
        seed: RNG seed; the same seed always produces the same workload.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    rng = np.random.default_rng(seed)
    inputs = rng.integers(spec.input_low, spec.input_high + 1, size=num_requests)
    outputs = rng.integers(spec.output_low, spec.output_high + 1, size=num_requests)
    requests = [
        RequestSpec(
            request_id=f"{spec.name.lower()}-{i}",
            input_length=int(inputs[i]),
            output_length=int(outputs[i]),
            max_new_tokens=spec.output_high,
        )
        for i in range(num_requests)
    ]
    return Workload(
        name=spec.name,
        requests=requests,
        description=(
            f"uniform input {spec.input_low}-{spec.input_high}, "
            f"output {spec.output_low}-{spec.output_high}"
        ),
    )


def distribution_workload(name: str, num_requests: int, seed: int = 0) -> Workload:
    """Generate one of the paper's Distribution-1/2/3 workloads by name."""
    try:
        spec = PAPER_DISTRIBUTIONS[name]
    except KeyError:
        known = ", ".join(sorted(PAPER_DISTRIBUTIONS))
        raise KeyError(f"unknown distribution {name!r}; known: {known}") from None
    return generate_uniform_workload(spec, num_requests, seed=seed)
