"""Table 2: multimodal serving throughput — original implementation vs LightLLM.

The paper serves Qwen-VL-Chat and LLaVA-1.5 (7B and 13B) on the TextVQA
validation workload and reports ~1.5-2x higher throughput for LightLLM with
the Past-Future scheduler than for the models' original (static-batching,
conservative) serving implementations.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SCALE, write_report
from repro.analysis.experiments import FleetConfig, run_framework
from repro.analysis.tables import render_table
from repro.frameworks.profiles import LIGHTLLM, MULTIMODAL_ORIGIN
from repro.hardware.gpus import A100_80G
from repro.hardware.models import LLAVA_15_7B, LLAVA_15_13B, QWEN_VL_CHAT
from repro.hardware.platform import Platform
from repro.workloads.multimodal import generate_textvqa_workload

NUM_REQUESTS = 400
NUM_CLIENTS = 64

MODELS = (QWEN_VL_CHAT, LLAVA_15_7B, LLAVA_15_13B)


def run_comparison() -> list[dict]:
    rows = []
    for model in MODELS:
        platform = Platform(model=model, gpu=A100_80G)
        # VQA answers are already short; scale only the KV capacity so the
        # simulated device keeps the paper's capacity-to-request ratio.
        capacity = int(platform.token_capacity * SCALE)
        workload = generate_textvqa_workload(model, NUM_REQUESTS, seed=201)
        config = FleetConfig(
            platform=platform, num_clients=NUM_CLIENTS, token_capacity_override=capacity
        )
        origin = run_framework(MULTIMODAL_ORIGIN, config, workload)
        lightllm = run_framework(LIGHTLLM, config, workload)
        rows.append(
            {
                "model": model.name,
                "origin_throughput_tok_s": round(origin.throughput(), 1),
                "lightllm_throughput_tok_s": round(lightllm.throughput(), 1),
                "speedup": round(lightllm.throughput() / max(origin.throughput(), 1e-9), 2),
            }
        )
    return rows


@pytest.mark.benchmark(group="table2")
def test_table2_multimodal(benchmark, results_dir):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    write_report(
        results_dir,
        "table2_multimodal",
        render_table(rows, title="Table 2 — multimodal throughput, original implementation vs LightLLM (scaled)"),
    )

    by_model = {row["model"]: row for row in rows}
    # LightLLM improves throughput for every multimodal model (the paper
    # reports roughly 1.5x for Qwen-VL-Chat, 1.6x for LLaVA-1.5-7B and 1.9x
    # for LLaVA-1.5-13B).
    for row in rows:
        assert row["speedup"] > 1.2, f"no speedup for {row['model']}"
    # The larger LLaVA model still benefits.
    assert by_model["LLaVA-1.5-13B"]["speedup"] > 1.2
