"""Platform = model x GPU x tensor-parallel degree.

A :class:`Platform` resolves the one number every scheduler in this repository
cares about — the **KV-cache token capacity** — and carries the model/GPU pair
down to the cost model.

The capacity computation follows how real serving frameworks size their KV
pools: take the usable device memory across the tensor-parallel group,
subtract the (sharded) model weights, and divide what is left by the per-token
KV footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.hardware.gpus import GPUConfig, get_gpu
from repro.hardware.models import ModelConfig, get_model

#: Multiplicative penalty on per-step latency from TP communication; it is
#: smaller on NVLink-connected devices.
TP_OVERHEAD_NVLINK = 0.08
TP_OVERHEAD_PCIE = 0.20


class PlatformError(ValueError):
    """Raised when a model does not fit on the requested device group."""


@dataclass(frozen=True)
class Platform:
    """A deployable (model, GPU, tensor-parallel) combination."""

    model: ModelConfig
    gpu: GPUConfig
    tensor_parallel: int = 1

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1:
            raise PlatformError("tensor_parallel must be >= 1")
        if self.kv_pool_bytes <= 0:
            raise PlatformError(
                f"{self.model.name} does not fit on {self.tensor_parallel}x {self.gpu.name}"
            )

    @property
    def total_usable_bytes(self) -> float:
        """Usable memory summed across the tensor-parallel group."""
        return self.gpu.usable_memory_bytes * self.tensor_parallel

    @property
    def kv_pool_bytes(self) -> float:
        """Bytes left for the KV-cache pool after loading the model weights."""
        return self.total_usable_bytes - self.model.weight_bytes

    @property
    def token_capacity(self) -> int:
        """Number of KV-cache token slots the platform can hold."""
        return int(self.kv_pool_bytes // self.model.kv_bytes_per_token)

    @property
    def tp_overhead(self) -> float:
        """Fractional latency overhead added by tensor-parallel communication."""
        if self.tensor_parallel == 1:
            return 0.0
        return TP_OVERHEAD_NVLINK if self.gpu.nvlink else TP_OVERHEAD_PCIE

    @property
    def aggregate_flops(self) -> float:
        """Aggregate FLOP/s across the group, discounted by TP overhead."""
        return self.gpu.flops_per_second * self.tensor_parallel / (1.0 + self.tp_overhead)

    @property
    def aggregate_bandwidth(self) -> float:
        """Aggregate memory bandwidth across the group, discounted by TP overhead."""
        return self.gpu.bytes_per_second * self.tensor_parallel / (1.0 + self.tp_overhead)

    def describe(self) -> str:
        """Human-readable one-line description."""
        tp = f" x {self.tensor_parallel}" if self.tensor_parallel > 1 else ""
        return (
            f"{self.model.name} on {self.gpu.name}{tp}: "
            f"{self.token_capacity:,} KV token slots"
        )


def make_platform(model_name: str, gpu_name: str, tensor_parallel: int = 1) -> Platform:
    """Build a platform from registry names."""
    return Platform(
        model=get_model(model_name),
        gpu=get_gpu(gpu_name),
        tensor_parallel=tensor_parallel,
    )


#: Platforms used throughout the paper's evaluation section.
PAPER_PLATFORMS: dict[str, tuple[str, str, int]] = {
    "7b-a100": ("Llama-2-7B-Chat", "A100-80G", 1),
    "13b-a100": ("Llama-2-13B-Chat", "A100-80G", 1),
    "70b-a100x4": ("Llama-2-70B-Chat", "A100-80G", 4),
    "7b-h800": ("Llama-2-7B-Chat", "H800", 1),
    "13b-h800": ("Llama-2-13B-Chat", "H800", 1),
    "70b-h800x4": ("Llama-2-70B-Chat", "H800", 4),
    "7b-4090": ("Llama-2-7B-Chat", "RTX-4090", 1),
    "13b-4090x2": ("Llama-2-13B-Chat", "RTX-4090", 2),
    "70b-4090x8": ("Llama-2-70B-Chat", "RTX-4090", 8),
    "7b-a30": ("Llama-2-7B-Chat", "A30", 1),
    "13b-a30x2": ("Llama-2-13B-Chat", "A30", 2),
    "70b-a30x8": ("Llama-2-70B-Chat", "A30", 8),
}


def paper_platform(key: str) -> Platform:
    """Return one of the named paper evaluation platforms (e.g. ``"7b-a100"``)."""
    try:
        model_name, gpu_name, tp = PAPER_PLATFORMS[key]
    except KeyError:
        known = ", ".join(sorted(PAPER_PLATFORMS))
        raise KeyError(f"unknown platform key {key!r}; known: {known}") from None
    return make_platform(model_name, gpu_name, tp)


def ensure_single_model(platforms: "Sequence[Platform]") -> None:
    """Validate that every platform of a fleet serves the same model.

    Replicas are interchangeable backends of one service, so a fleet may mix
    GPU generations but never models.

    Raises:
        PlatformError: naming the offending models otherwise.
    """
    models = {platform.model.name for platform in platforms}
    if len(models) > 1:
        raise PlatformError(f"a fleet must serve one model, got {sorted(models)}")


def paper_platforms(*keys: str) -> list[Platform]:
    """Resolve several platform keys at once, preserving order.

    Convenience for heterogeneous fleets — real clusters mix accelerator
    generations, and :class:`~repro.serving.cluster.ClusterSimulator` accepts
    the resulting list directly::

        ClusterSimulator(platforms=paper_platforms("7b-a100", "7b-a100", "7b-4090"), ...)

    Every platform in one fleet must serve the same model (see
    :func:`ensure_single_model`); mixing models raises.
    """
    if not keys:
        raise ValueError("at least one platform key is required")
    platforms = [paper_platform(key) for key in keys]
    ensure_single_model(platforms)
    return platforms
