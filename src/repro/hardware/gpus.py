"""GPU descriptors for the hardware platforms used in the paper's evaluation.

The paper reports results on NVIDIA A100-80G, H800, RTX 4090 and A30 devices.
The simulator only needs three numbers per device: memory capacity (bounds the
KV-cache pool), dense FP16 throughput (bounds prefill) and memory bandwidth
(bounds decode, which is memory-bound).  ``nvlink`` marks devices with a fast
interconnect, which lowers the tensor-parallel communication penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fraction of device memory usable for weights + KV cache (the remainder is
#: activation workspace, CUDA context, fragmentation headroom).
USABLE_FRACTION = 0.9


@dataclass(frozen=True)
class GPUConfig:
    """Static description of one GPU device."""

    name: str
    memory_bytes: float
    fp16_tflops: float
    bandwidth_gbps: float
    nvlink: bool = False

    @property
    def usable_memory_bytes(self) -> float:
        """Bytes available for model weights plus the KV-cache pool."""
        return self.memory_bytes * USABLE_FRACTION

    @property
    def flops_per_second(self) -> float:
        """Peak dense FP16 FLOP/s."""
        return self.fp16_tflops * 1e12

    @property
    def bytes_per_second(self) -> float:
        """Peak memory bandwidth in bytes per second."""
        return self.bandwidth_gbps * 1e9


_GB = 1024 ** 3

A100_80G = GPUConfig(
    name="A100-80G",
    memory_bytes=80 * _GB,
    fp16_tflops=312.0,
    bandwidth_gbps=2039.0,
    nvlink=True,
)

H800 = GPUConfig(
    name="H800",
    memory_bytes=80 * _GB,
    fp16_tflops=756.0,
    bandwidth_gbps=3350.0,
    nvlink=True,
)

RTX_4090 = GPUConfig(
    name="RTX-4090",
    memory_bytes=24 * _GB,
    fp16_tflops=165.0,
    bandwidth_gbps=1008.0,
    nvlink=False,
)

A30 = GPUConfig(
    name="A30",
    memory_bytes=24 * _GB,
    fp16_tflops=165.0,
    bandwidth_gbps=933.0,
    nvlink=False,
)

GPU_REGISTRY: dict[str, GPUConfig] = {
    g.name: g for g in (A100_80G, H800, RTX_4090, A30)
}


def get_gpu(name: str) -> GPUConfig:
    """Look up a GPU by name.

    Raises:
        KeyError: if the GPU is unknown.
    """
    try:
        return GPU_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(GPU_REGISTRY))
        raise KeyError(f"unknown GPU {name!r}; known GPUs: {known}") from None
