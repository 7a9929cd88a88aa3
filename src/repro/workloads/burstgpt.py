"""BurstGPT-style request traces for the window-similarity study (Fig. 3 / 4).

The paper's key empirical observation (Section 3.2) is about *trace structure*
rather than individual requests:

* requests from a single end-user service (conversation, code completion,
  dialog) have an output-length distribution that is stable over long periods;
* requests from an API / hybrid service mix several task types whose mixture
  drifts over hours, so the *global* distribution varies — but **adjacent time
  windows remain similar** (the diagonal pattern in Figure 3).

The BurstGPT, Mooncake and in-house traces themselves are not redistributable,
so this module synthesises traces with exactly those structural properties:

* :func:`generate_conversation_trace` — a stationary log-normal output-length
  process (single-service traces: BurstGPT conversation, in-house dialog,
  code completion, Mooncake).
* :func:`generate_api_trace` — a slowly drifting mixture of task archetypes
  (short classification-style answers, medium chat answers, long generation),
  so that distant windows diverge while adjacent windows stay similar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.spec import (
    SLA_CLASS_BATCH,
    SLA_CLASS_INTERACTIVE,
    RequestSpec,
    Workload,
)


@dataclass(frozen=True)
class TaskArchetype:
    """One task type inside a mixed API trace."""

    name: str
    mean_output: float
    sigma: float
    mean_input: float = 512.0
    #: service class this task type signs up for — a user waiting on a chat
    #: answer is interactive; long-form generation rides the batch contract.
    sla_class: str = SLA_CLASS_INTERACTIVE

    def sample_output(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` output lengths: lognormal around ``mean_output``, clipped to [1, 8192]."""
        mu = np.log(self.mean_output) - self.sigma ** 2 / 2.0
        samples = rng.lognormal(mean=mu, sigma=self.sigma, size=size)
        return np.clip(np.round(samples), 1, 8192).astype(int)

    def sample_input(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` prompt lengths: lognormal around ``mean_input``, clipped to [4, 8192]."""
        mu = np.log(self.mean_input) - 0.64 / 2.0
        samples = rng.lognormal(mean=mu, sigma=0.8, size=size)
        return np.clip(np.round(samples), 4, 8192).astype(int)


#: Archetypes roughly matching the task mix of a public LLM API: extraction /
#: classification (very short outputs), chat answers, code generation, and
#: long-form generation.
API_ARCHETYPES: tuple[TaskArchetype, ...] = (
    TaskArchetype("extraction", mean_output=24.0, sigma=0.6, mean_input=900.0),
    TaskArchetype("chat", mean_output=280.0, sigma=0.8, mean_input=400.0),
    TaskArchetype("code", mean_output=700.0, sigma=0.7, mean_input=650.0),
    TaskArchetype(
        "longform", mean_output=1500.0, sigma=0.5, mean_input=300.0,
        sla_class=SLA_CLASS_BATCH,
    ),
)


def generate_conversation_trace(
    num_requests: int,
    seed: int = 0,
    mean_output: float = 330.0,
    sigma: float = 0.9,
    name: str = "BurstGPT-Conversation",
) -> Workload:
    """Stationary single-service trace (conversation/dialog/code-completion).

    Prompts average 420 tokens and outputs are capped at 4096 new tokens.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    rng = np.random.default_rng(seed)
    archetype = TaskArchetype("conversation", mean_output=mean_output, sigma=sigma, mean_input=420.0)
    outputs = np.minimum(archetype.sample_output(rng, num_requests), 4096)
    inputs = archetype.sample_input(rng, num_requests)
    requests = [
        RequestSpec(
            request_id=f"{name.lower()}-{i}",
            input_length=int(inputs[i]),
            output_length=int(outputs[i]),
            max_new_tokens=4096,
        )
        for i in range(num_requests)
    ]
    return Workload(
        name=name,
        requests=requests,
        description="stationary single-service trace (stable output-length distribution)",
    )


def generate_api_trace(
    num_requests: int,
    seed: int = 0,
    drift_period: int = 20_000,
    name: str = "BurstGPT-API",
) -> Workload:
    """API-style trace whose task mixture drifts slowly over the trace.

    The mixture weights over :data:`API_ARCHETYPES` rotate with a period of
    ``drift_period`` requests, so windows separated by less than ~1/10 of the
    period have nearly the same distribution while windows far apart differ.
    Outputs are capped at 8192 new tokens, the archetypes' own clip.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    rng = np.random.default_rng(seed)
    num_types = len(API_ARCHETYPES)
    requests: list[RequestSpec] = []
    positions = np.arange(num_requests)
    # Rotating mixture: each archetype's weight is a shifted raised cosine of
    # the trace position, guaranteeing smooth drift.
    phases = 2.0 * np.pi * positions[:, None] / drift_period + \
        2.0 * np.pi * np.arange(num_types)[None, :] / num_types
    weights = 1.0 + np.cos(phases)
    weights = weights / weights.sum(axis=1, keepdims=True)
    choices = np.array([
        rng.choice(num_types, p=weights[i]) for i in range(num_requests)
    ])
    for type_index, archetype in enumerate(API_ARCHETYPES):
        mask = choices == type_index
        count = int(mask.sum())
        if count == 0:
            continue
        outputs = archetype.sample_output(rng, count)
        inputs = archetype.sample_input(rng, count)
        slots = np.flatnonzero(mask)
        for slot, inp, out in zip(slots, inputs, outputs):
            requests.append(
                RequestSpec(
                    request_id=f"{name.lower()}-{slot}",
                    input_length=int(inp),
                    output_length=int(out),
                    max_new_tokens=8192,
                    sla_class=archetype.sla_class,
                )
            )
    requests.sort(key=lambda r: int(r.request_id.rsplit("-", 1)[1]))
    return Workload(
        name=name,
        requests=requests,
        description="mixed API trace with slowly drifting task mixture",
    )


#: The six traces analysed in Figure 3 of the paper, as named factories.  Each
#: entry maps the figure's panel label to a callable ``(num_requests, seed) ->
#: Workload`` with the qualitative character described in the paper.
FIGURE3_TRACES: dict[str, str] = {
    "(a) BurstGPT Conversation": "conversation",
    "(b) BurstGPT API": "api",
    "(c) In-house Dialog A": "conversation",
    "(d) In-house Dialog B": "conversation",
    "(e) In-house Code Completion": "conversation",
    "(f) Mooncake": "conversation",
}


def figure3_trace(label: str, num_requests: int, seed: int = 0) -> Workload:
    """Generate one of the Figure-3 traces by its panel label."""
    try:
        kind = FIGURE3_TRACES[label]
    except KeyError:
        known = ", ".join(sorted(FIGURE3_TRACES))
        raise KeyError(f"unknown trace label {label!r}; known: {known}") from None
    if kind == "api":
        return generate_api_trace(num_requests, seed=seed, name=label)
    # Vary the stationary parameters per panel — keyed on the panel's position
    # in the figure so every panel is distinct AND deterministic (str hash()
    # is randomised per process; a modular digest collides between panels).
    offset = list(FIGURE3_TRACES).index(label)
    return generate_conversation_trace(
        num_requests,
        seed=seed + offset,
        mean_output=260.0 + 60.0 * offset,
        sigma=0.8 + 0.05 * offset,
        name=label,
    )
