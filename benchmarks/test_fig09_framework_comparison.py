"""Figure 9: maximum throughput and SLA goodput of LightLLM vs other frameworks.

The paper compares LightLLM (Past-Future scheduler) against TGI, vLLM,
DeepSpeed-MII and TensorRT-LLM on the ShareGPT workload with
``max_new_tokens = 2048`` across several hardware platforms.

Unlike the other benches this one runs at the *full* platform scale: ShareGPT
outputs are short (a few hundred tokens), so full-length simulations stay
cheap, and the framework contrast depends on the gap between the 2048-token
worst case and the short real outputs — which scaling would distort.  The
checks assert the published shape: conservative-scheduler frameworks (TGI,
DeepSpeed-MII, TensorRT-LLM) leave throughput on the table; vLLM reaches high
raw throughput but surrenders goodput to eviction stalls at high concurrency;
LightLLM is competitive on throughput and best on goodput.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_report
from repro.analysis.experiments import FleetConfig
from repro.analysis.sweep import best_goodput, best_throughput, framework_sweep
from repro.analysis.tables import render_table
from repro.frameworks.profiles import FIGURE9_FRAMEWORKS, get_framework
from repro.serving.sla import SLA_SMALL_MODEL
from repro.workloads.sharegpt import generate_sharegpt_workload

NUM_REQUESTS = 600
CLIENT_COUNTS = (64, 256, 512)

PANELS = {
    "Llama-2-7B / A100": "platform_7b",
    "Llama-2-13B / A100": "platform_13b",
}


def run_panel(platform) -> list[dict]:
    workload = generate_sharegpt_workload(NUM_REQUESTS, seed=91)
    profiles = [get_framework(name) for name in FIGURE9_FRAMEWORKS]
    curves = framework_sweep(
        profiles,
        FleetConfig(platform=platform),
        workload,
        client_counts=CLIENT_COUNTS,
        sla=SLA_SMALL_MODEL,
    )
    rows = []
    for name in FIGURE9_FRAMEWORKS:
        points = curves[name]
        rows.append(
            {
                "framework": name,
                "max_throughput_tok_s": round(best_throughput(points), 1),
                "max_goodput_tok_s": round(best_goodput(points), 1),
            }
        )
    return rows


@pytest.mark.benchmark(group="fig09")
@pytest.mark.parametrize("panel", list(PANELS))
def test_fig09_framework_comparison(benchmark, request, results_dir, panel):
    fixture_name = PANELS[panel]
    platform = request.getfixturevalue(fixture_name)
    rows = benchmark.pedantic(run_panel, args=(platform,), rounds=1, iterations=1)
    write_report(
        results_dir,
        f"fig09_frameworks_{fixture_name}",
        render_table(rows, title=f"Figure 9 — max throughput and goodput per framework, {panel}, ShareGPT"),
    )

    by_name = {row["framework"]: row for row in rows}
    lightllm = by_name["LightLLM"]
    vllm = by_name["vLLM"]
    conservative_frameworks = [by_name["TGI"], by_name["DeepSpeed-MII"], by_name["TensorRT-LLM"]]

    # LightLLM achieves the best goodput of all frameworks.
    assert lightllm["max_goodput_tok_s"] >= max(r["max_goodput_tok_s"] for r in rows) * 0.999

    # Conservative-scheduler frameworks cannot reach the throughput of the
    # aggressive/past-future ones (their worst-case admission idles memory).
    for row in conservative_frameworks:
        assert row["max_throughput_tok_s"] < lightllm["max_throughput_tok_s"]
        assert row["max_goodput_tok_s"] < lightllm["max_goodput_tok_s"]

    # vLLM is competitive on raw throughput (within 15% of LightLLM or above)
    # and LightLLM matches it while also holding the best goodput.  (The
    # paper's larger vLLM goodput degradation on ShareGPT reproduces only
    # weakly here because the simulator's preemption stalls are short on this
    # short-output workload; the degradation is clearly visible in the
    # decode-heavy Figure 7 panels — see EXPERIMENTS.md.)
    assert vllm["max_throughput_tok_s"] >= 0.85 * lightllm["max_throughput_tok_s"]
    assert lightllm["max_throughput_tok_s"] >= 0.95 * vllm["max_throughput_tok_s"]
    assert lightllm["max_goodput_tok_s"] >= 0.99 * vllm["max_goodput_tok_s"]
