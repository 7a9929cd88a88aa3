"""TextVQA-style multimodal workload (Table 2).

The paper evaluates Qwen-VL-Chat and LLaVA-1.5 on the TextVQA validation set:
5,000 questions over 3,166 images.  VQA prompts are short questions plus an
image; answers are short.  The KV-footprint structure is therefore

* a fixed image-token prefix per request (256 tokens for Qwen-VL, 576 for
  LLaVA-1.5), plus
* a short text question (tens of tokens), plus
* a short answer (a few tokens up to a short sentence).

The image corpus itself is not needed: the engine only charges the vision
encoder's latency and the image tokens' KV space.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.models import ModelConfig
from repro.workloads.spec import RequestSpec, Workload

#: Generation cap of the short VQA answers.
_MAX_NEW_TOKENS = 256


def generate_textvqa_workload(
    model: ModelConfig,
    num_requests: int = 5000,
    seed: int = 0,
) -> Workload:
    """VQA-style workload with the image-token prefix of ``model``.

    Args:
        model: the multimodal model being served; supplies the number of image
            tokens prepended to every prompt.
        num_requests: number of questions (the TextVQA validation set has 5,000).
        seed: RNG seed.

    Answers are capped at 256 new tokens.
    """
    if not model.is_multimodal:
        raise ValueError(f"model {model.name} has no image-token prefix")
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    rng = np.random.default_rng(seed)
    # Question lengths: short, 6-40 tokens.  Answer lengths: geometric-ish,
    # mostly a handful of tokens with an occasional sentence.
    questions = rng.integers(6, 41, size=num_requests)
    answers = np.clip(rng.geometric(p=0.12, size=num_requests) + 2, 3, _MAX_NEW_TOKENS)
    requests = [
        RequestSpec(
            request_id=f"textvqa-{i}",
            input_length=int(questions[i]),
            output_length=int(answers[i]),
            max_new_tokens=_MAX_NEW_TOKENS,
            image_tokens=model.vision_prefix_tokens,
        )
        for i in range(num_requests)
    ]
    return Workload(
        name=f"TextVQA-{model.name}",
        requests=requests,
        description=f"TextVQA-style VQA questions with {model.vision_prefix_tokens} image tokens per request",
    )
