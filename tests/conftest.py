"""Shared fixtures for the test suite.

Most tests run against a deliberately tiny "platform" (a few thousand KV token
slots) and short synthetic workloads so the whole suite stays fast while still
exercising admission, eviction, and SLA accounting end to end.
"""

from __future__ import annotations

import pytest

from repro.hardware.platform import Platform, paper_platform
from repro.workloads.distributions import UniformLengthSpec, generate_uniform_workload
from repro.workloads.spec import RequestSpec, Workload


@pytest.fixture(scope="session")
def platform_7b() -> Platform:
    """The paper's Llama-2-7B on A100-80G platform."""
    return paper_platform("7b-a100")


@pytest.fixture(scope="session")
def platform_70b() -> Platform:
    """The paper's Llama-2-70B on 4x A100-80G platform."""
    return paper_platform("70b-a100x4")


#: Small token capacity used with ``token_capacity_override`` in engine tests.
TINY_CAPACITY = 2048

#: A hand-built view's ``remaining_cap_tokens`` entry that no prediction reaches.
UNCAPPED = 10**9


@pytest.fixture()
def tiny_capacity() -> int:
    """Token-capacity override small enough to force contention in tests."""
    return TINY_CAPACITY


def make_spec(
    request_id: str = "r0",
    input_length: int = 32,
    output_length: int = 16,
    max_new_tokens: int = 64,
    image_tokens: int = 0,
    **fields,
) -> RequestSpec:
    """Convenience RequestSpec builder for tests; ``fields`` sets any other field."""
    return RequestSpec(
        request_id=request_id,
        input_length=input_length,
        output_length=output_length,
        max_new_tokens=max_new_tokens,
        image_tokens=image_tokens,
        **fields,
    )


def make_workload(
    num_requests: int = 20,
    input_length: int = 32,
    output_length: int = 16,
    max_new_tokens: int = 64,
    name: str = "test-workload",
) -> Workload:
    """Uniform workload of identical requests."""
    specs = [
        make_spec(
            request_id=f"{name}-{i}",
            input_length=input_length,
            output_length=output_length,
            max_new_tokens=max_new_tokens,
        )
        for i in range(num_requests)
    ]
    return Workload(name=name, requests=specs)


@pytest.fixture()
def small_decode_heavy_workload() -> Workload:
    """A small decode-heavy workload (outputs much longer than inputs)."""
    spec = UniformLengthSpec("tiny-decode-heavy", 4, 64, 128, 256)
    return generate_uniform_workload(spec, 40, seed=7)


@pytest.fixture()
def small_prefill_heavy_workload() -> Workload:
    """A small prefill-heavy workload (inputs much longer than outputs)."""
    spec = UniformLengthSpec("tiny-prefill-heavy", 128, 256, 4, 64)
    return generate_uniform_workload(spec, 40, seed=11)


@pytest.fixture()
def uniform_workload() -> Workload:
    """Workload of identical small requests."""
    return make_workload()
