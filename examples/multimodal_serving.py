"""Serve a TextVQA-style multimodal workload: original implementation vs LightLLM.

Reproduces the Table-2 scenario of the paper: vision-language models
(Qwen-VL-Chat, LLaVA-1.5) answering short visual questions.  Every request
carries an image-token prefix whose KV footprint dominates the short text
prompt, so memory-aware admission matters even though the answers are short.

Run with:  python examples/multimodal_serving.py
"""

from __future__ import annotations

from repro.analysis.experiments import FleetConfig, run_framework
from repro.analysis.tables import render_table
from repro.frameworks.profiles import LIGHTLLM, MULTIMODAL_ORIGIN
from repro.hardware.gpus import A100_80G
from repro.hardware.models import LLAVA_15_7B, QWEN_VL_CHAT
from repro.hardware.platform import Platform
from repro.workloads.multimodal import generate_textvqa_workload

#: Scale only the KV capacity (VQA answers are already short) so the demo
#: finishes in a few seconds while keeping the capacity-to-request ratio.
CAPACITY_SCALE = 1.0 / 16.0
NUM_REQUESTS = 300
NUM_CLIENTS = 48


def main() -> None:
    rows = []
    for model in (QWEN_VL_CHAT, LLAVA_15_7B):
        platform = Platform(model=model, gpu=A100_80G)
        capacity = int(platform.token_capacity * CAPACITY_SCALE)
        workload = generate_textvqa_workload(model, NUM_REQUESTS, seed=3)
        print(
            f"{model.name}: {model.vision_prefix_tokens} image tokens per request, "
            f"mean answer {workload.mean_output_length:.1f} tokens"
        )
        config = FleetConfig(
            platform=platform, num_clients=NUM_CLIENTS, token_capacity_override=capacity
        )
        origin = run_framework(MULTIMODAL_ORIGIN, config, workload)
        lightllm = run_framework(LIGHTLLM, config, workload)
        rows.append(
            {
                "model": model.name,
                "origin_tok_s": round(origin.throughput(), 1),
                "lightllm_tok_s": round(lightllm.throughput(), 1),
                "speedup": f"{lightllm.throughput() / origin.throughput():.2f}x",
            }
        )
    print()
    print(render_table(rows, title="TextVQA-style serving throughput (scaled capacity)"))


if __name__ == "__main__":
    main()
