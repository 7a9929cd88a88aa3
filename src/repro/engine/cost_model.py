"""Roofline-style latency model for prefill and decode iterations.

The simulator replaces GPU kernel execution with an analytical cost model.
Per continuous-batching iteration the engine reports

* how many *prompt* tokens were processed this step (prefill work, which is
  compute-bound: every token runs the full forward pass), and
* how many requests decoded one token and how much KV context they hold
  (decode work, which is memory-bound: the model weights are read once per
  step and the KV cache of every resident token is read once).

Latency is then ``max(compute_time, memory_time) + fixed_overhead``, the
standard roofline estimate, scaled by an empirical efficiency factor and the
framework-specific speed factor used by the end-to-end comparison (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.hardware.platform import Platform


@dataclass(frozen=True)
class StepWork:
    """Work performed in one continuous-batching iteration."""

    #: prompt tokens processed (prefill / recompute / chunked prefill).
    prefill_tokens: int = 0
    #: number of requests that decoded exactly one token this step.
    decode_requests: int = 0
    #: total KV context tokens across the decoding requests (attention reads).
    decode_context_tokens: int = 0
    #: number of images encoded this step (multimodal admissions).
    images_encoded: int = 0

    @property
    def is_idle(self) -> bool:
        """Whether the step performed no model work at all."""
        return (
            self.prefill_tokens == 0
            and self.decode_requests == 0
            and self.images_encoded == 0
        )


@dataclass(frozen=True)
class CostModel:
    """Analytical latency model for one platform.

    Args:
        platform: the (model, GPU, TP) deployment to cost.
        compute_efficiency: fraction of peak FLOP/s achieved by prefill GEMMs.
        bandwidth_efficiency: fraction of peak bandwidth achieved by decode.
        step_overhead_seconds: fixed per-iteration overhead (kernel launches,
            Python scheduling, tokenization/detokenization).
        speed_factor: multiplier on the final latency; ``1.0`` is the LightLLM
            baseline, other frameworks use values from
            :mod:`repro.frameworks.profiles`.
    """

    platform: Platform
    compute_efficiency: float = 0.55
    bandwidth_efficiency: float = 0.70
    step_overhead_seconds: float = 0.004
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ValueError("compute_efficiency must be in (0, 1]")
        if not 0.0 < self.bandwidth_efficiency <= 1.0:
            raise ValueError("bandwidth_efficiency must be in (0, 1]")
        if self.step_overhead_seconds < 0:
            raise ValueError("step_overhead_seconds must be non-negative")
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")

    # -------------------------------------------------------------- components
    def prefill_seconds(self, prompt_tokens: int) -> float:
        """Compute-bound time to run ``prompt_tokens`` through the model."""
        if prompt_tokens <= 0:
            return 0.0
        model = self.platform.model
        flops = prompt_tokens * model.flops_per_token
        return flops / (self.platform.aggregate_flops * self.compute_efficiency)

    def decode_seconds(self, decode_requests: int, decode_context_tokens: int) -> float:
        """Memory-bound time for one decode iteration over the running batch."""
        if decode_requests <= 0:
            return 0.0
        model = self.platform.model
        weight_bytes = model.weight_bytes
        kv_bytes = decode_context_tokens * model.kv_bytes_per_token
        memory_time = (weight_bytes + kv_bytes) / (
            self.platform.aggregate_bandwidth * self.bandwidth_efficiency
        )
        flops = decode_requests * model.flops_per_token
        compute_time = flops / (self.platform.aggregate_flops * self.compute_efficiency)
        return max(memory_time, compute_time)

    @property
    def effective_decode_bandwidth(self) -> float:
        """Bytes/s the decode roofline can actually stream on this platform.

        Decode is memory-bound, so this single scalar — aggregate bandwidth
        discounted by the empirical efficiency factor — is the speed axis on
        which replicas of different GPU generations compare.
        """
        return self.platform.aggregate_bandwidth * self.bandwidth_efficiency

    def relative_speed(self, reference: "CostModel") -> float:
        """Decode speed of this platform relative to ``reference`` (1.0 = equal).

        Used by :class:`~repro.serving.cluster.ClusterSimulator` to stamp
        each :class:`~repro.serving.routing.ReplicaView` with a
        ``speed_factor`` normalised against the fastest platform in the
        fleet, so routers can weigh headroom against replica speed without
        re-deriving hardware numbers.
        """
        return self.effective_decode_bandwidth / reference.effective_decode_bandwidth

    def vision_seconds(self, images_encoded: int) -> float:
        """Vision-encoder time for multimodal admissions."""
        if images_encoded <= 0:
            return 0.0
        return images_encoded * self.platform.model.vision_encoder_seconds

    # ------------------------------------------------------------------ totals
    def step_seconds(self, work: StepWork) -> float:
        """Latency of one continuous-batching iteration."""
        if work.is_idle:
            return 0.0
        prefill = self.prefill_seconds(work.prefill_tokens)
        decode = self.decode_seconds(work.decode_requests, work.decode_context_tokens)
        vision = self.vision_seconds(work.images_encoded)
        total = prefill + decode + vision + self.step_overhead_seconds
        return total * self.speed_factor

    def decode_durations(self, decode_requests: int, start_context_tokens: int) -> Iterator[float]:
        """Latencies of consecutive decode-only iterations, one per ``next``.

        Iteration ``j`` (0-based) decodes one token for each of
        ``decode_requests`` residents whose aggregate KV context is
        ``start_context_tokens + j * decode_requests`` — exactly the work
        sequence of a batch that admits nothing, prefills nothing, and
        finishes nothing.  The engine's event jump draws only the iterations
        it fuses.

        Each value is the float :meth:`step_seconds` returns for that
        iteration's :class:`StepWork`: the per-iteration constants are
        hoisted, but the float operations and their order are unchanged (a
        closed-form sum would round differently).
        """
        if decode_requests <= 0:
            raise ValueError("decode_requests must be positive")
        model = self.platform.model
        # Exact integer bytes: ``weight_bytes + context * kv_bytes_per_token``
        # for each iteration's context, so each quotient is step_seconds' own.
        memory_bytes = model.weight_bytes + start_context_tokens * model.kv_bytes_per_token
        step_bytes = decode_requests * model.kv_bytes_per_token
        bandwidth = self.platform.aggregate_bandwidth * self.bandwidth_efficiency
        flops = decode_requests * model.flops_per_token
        compute_time = flops / (self.platform.aggregate_flops * self.compute_efficiency)
        overhead, speed_factor = self.step_overhead_seconds, self.speed_factor
        while True:
            memory_time = memory_bytes / bandwidth
            # ``max(memory_time, compute_time)`` without the call; ``0.0 +
            # decode + 0.0`` in step_seconds is ``decode`` exactly.
            decode = memory_time if memory_time >= compute_time else compute_time
            yield (decode + overhead) * speed_factor
            memory_bytes += step_bytes
