"""Comparator serving-framework profiles for the end-to-end comparison (Fig. 9).

The paper compares LightLLM (with the Past-Future scheduler) against four
frameworks that bundle a *scheduler policy* with an *inference backend*:

* **TGI** — conservative scheduler, solid kernels;
* **vLLM** — aggressive scheduler, PagedAttention kernels;
* **DeepSpeed-MII (FastGen)** — conservative scheduler with SplitFuse chunked
  prefill;
* **TensorRT-LLM** — conservative scheduler, the fastest static kernels.

The paper's own caveat is that the backend speeds are a December-2023
snapshot and that the comparison is meant to isolate the *scheduler* effect.
A profile is therefore a name plus :class:`~repro.analysis.experiments.FleetConfig`
field overrides, the same label-to-overrides mapping a sweep takes:

* ``scheduler_name`` and ``scheduler_kwargs`` — the registry scheduler;
* ``speed_factor`` — per-step latency relative to the LightLLM backend
  (1.0); below 1.0 is a faster backend, above 1.0 a slower one;
* ``chunked_prefill_tokens`` — the maximum prompt tokens of one engine
  iteration.  Every framework bounds the tokens of one forward pass (vLLM's
  ``max_num_batched_tokens``, TGI's ``max_batch_prefill_tokens``);
  DeepSpeed-MII's SplitFuse uses a much finer chunk to interleave prefill
  with decode.  ``None`` prefills the whole admission burst in one
  iteration.

Multimodal "original implementation" baselines (Table 2) are modelled as
static-batching style conservative serving with a slower backend, reflecting
the HuggingFace reference implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class FrameworkProfile:
    """A named serving framework: scheduler policy + backend characteristics."""

    name: str
    #: :class:`~repro.analysis.experiments.FleetConfig` field overrides.
    overrides: Mapping[str, object]


def _conservative(speed_factor: float, chunked_prefill_tokens: int | None, **kwargs) -> dict:
    return {
        "scheduler_name": "conservative",
        "scheduler_kwargs": {"overcommit": 1.0, **kwargs},
        "speed_factor": speed_factor,
        "chunked_prefill_tokens": chunked_prefill_tokens,
    }


LIGHTLLM = FrameworkProfile(
    name="LightLLM",
    overrides={
        "scheduler_name": "past-future",
        "scheduler_kwargs": {"reserved_fraction": 0.03},
        "speed_factor": 1.0,
        "chunked_prefill_tokens": 8192,
    },
)

VLLM = FrameworkProfile(
    name="vLLM",
    overrides={
        "scheduler_name": "aggressive",
        "scheduler_kwargs": {"watermark": 0.99},
        "speed_factor": 1.0,
        "chunked_prefill_tokens": 8192,
    },
)

TGI = FrameworkProfile(name="TGI", overrides=_conservative(1.1, 8192))

DEEPSPEED_MII = FrameworkProfile(name="DeepSpeed-MII", overrides=_conservative(1.05, 512))

TENSORRT_LLM = FrameworkProfile(name="TensorRT-LLM", overrides=_conservative(0.9, 8192))

#: "Original implementation" baseline used for the multimodal comparison in
#: Table 2: HuggingFace-style serving with conservative admission, a small
#: static batch, and a slower backend.
MULTIMODAL_ORIGIN = FrameworkProfile(
    name="Origin", overrides=_conservative(1.6, None, max_running_requests=8)
)

FRAMEWORK_REGISTRY: dict[str, FrameworkProfile] = {
    profile.name: profile
    for profile in (LIGHTLLM, VLLM, TGI, DEEPSPEED_MII, TENSORRT_LLM, MULTIMODAL_ORIGIN)
}

#: The frameworks compared in Figure 9, in the paper's plotting order.
FIGURE9_FRAMEWORKS: tuple[str, ...] = (
    "TGI",
    "vLLM",
    "DeepSpeed-MII",
    "TensorRT-LLM",
    "LightLLM",
)


def get_framework(name: str) -> FrameworkProfile:
    """Look up a framework profile by name.

    Raises:
        KeyError: if the framework is unknown.
    """
    try:
        return FRAMEWORK_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(FRAMEWORK_REGISTRY))
        raise KeyError(f"unknown framework {name!r}; known: {known}") from None
