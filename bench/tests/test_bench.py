"""The harness measures without changing what it measures, and judges runs as documented.

Simulations here use shrunken copies of the four workloads (``size`` scaled
down), so the whole module runs in seconds.
"""

import contextlib
import json
import time

import pytest

from bench import ROOT, probe
from bench.compare import compare, verdict
from bench.layers import LAYERS, LayerTracer, resolve
from bench.metrics import END_TO_END, PER_LAYER, Metric
from bench.workloads import WORKLOADS, FleetChaos, FleetSessions, PfSaturated, VtcTenants, check
from repro.obs.tracer import RingTracer
from repro.serving.throttle import OverloadThrottle

SMALL = {
    "pf_saturated": PfSaturated(size=40),
    "vtc_tenants": VtcTenants(size=60),
    "fleet_chaos": FleetChaos(size=200),
    "fleet_sessions": FleetSessions(size=24),
}


def run(workload, tracer=None, layers=None):
    """Run instance 0 of ``workload`` at seed 0; returns ``(seconds, digest)``."""
    phases = workload.phases(workload.instances(0)[0], tracer=tracer)
    with layers if layers is not None else contextlib.nullcontext():
        start = time.perf_counter()
        results = [phase.run() for phase in phases]
        seconds = time.perf_counter() - start
    return seconds, check(workload, phases, results)[0]


@pytest.fixture(scope="module")
def traced():
    """Per small workload: untraced digest plus two layer-traced and one ring-traced run."""
    out = {}
    for name, workload in SMALL.items():
        tracers = [LayerTracer(), LayerTracer()]
        runs = [run(workload, layers=tracer) for tracer in tracers]
        out[name] = {
            "digest": run(workload)[1],
            "layered": runs,
            "ringed": run(workload, tracer=RingTracer())[1],
            "tracers": tracers,
        }
    return out


def originals():
    """Every attribute the tracer patches, as currently bound."""
    return [(owner, name, vars(owner)[name]) for _, owner, name, _ in resolve()]


def test_patched_attributes_are_restored_after_a_call_and_after_an_exception():
    """Each patched attribute is the original object again once the tracer exits."""
    before = originals()
    run(SMALL["vtc_tenants"], layers=LayerTracer())
    assert all(vars(owner)[name] is original for owner, name, original in before)
    tracer = LayerTracer()
    with pytest.raises(AttributeError):
        with tracer:
            OverloadThrottle(user_rpm=1).check(None, 0.0)
    assert all(vars(owner)[name] is original for owner, name, original in before)
    assert tracer.layer_totals()["serving.throttle"][0] == 1


def test_every_layer_has_entry_points_to_patch():
    """No layer of the table silently resolves to nothing."""
    assert {layer for layer, _, _, _ in resolve()} == set(LAYERS)


def test_traced_digests_equal_untraced(traced):
    """Neither the layer tracer nor a RingTracer changes a result."""
    for entry in traced.values():
        assert [digest for _, digest in entry["layered"]] == [entry["digest"]] * 2
        assert entry["ringed"] == entry["digest"]


def test_layer_call_counts_repeat_exactly(traced):
    """Two traced runs of one instance make the same boundary calls."""
    for name, entry in traced.items():
        first, second = entry["tracers"]
        assert {k: v[0] for k, v in first.edges.items()} == {k: v[0] for k, v in second.edges.items()}, name
        assert first.admitting == second.admitting


def test_self_times_sum_to_the_root_span(traced):
    """Layer self times add up to the root spans, which cover the timed call."""
    for name, entry in traced.items():
        for tracer, (seconds, _) in zip(entry["tracers"], entry["layered"]):
            total = sum(self_ns for _, self_ns in tracer.layer_totals().values())
            assert total == tracer.root_ns, name
            assert abs(tracer.root_ns / 1e9 - seconds) <= 0.01 * seconds, name


def test_layer_profile_matches_the_workload_design(traced):
    """Cluster and routing layers only run on fleets; the prefix cache only with sessions."""
    calls = {name: entry["tracers"][0].layer_totals() for name, entry in traced.items()}
    for name in ("pf_saturated", "vtc_tenants"):
        assert calls[name]["serving.cluster"][0] == calls[name]["serving.routing"][0] == 0
    for name in ("fleet_chaos", "fleet_sessions"):
        assert calls[name]["serving.routing"][0] > 0
        assert calls[name]["core.predictor"][0] == 0
    assert calls["pf_saturated"]["core.predictor"][0] > 0
    assert [name for name in calls if calls[name]["memory.prefix_cache"][0]] == ["fleet_sessions"]
    assert calls["vtc_tenants"]["serving.throttle"][0] > 0


def test_seed_zero_is_stable_and_seed_one_differs_but_repeats():
    """Inputs depend on the seed alone."""
    for workload in WORKLOADS.values():
        assert workload.generation_seeds(0) == list(workload.fixed_seeds)
        zero, one = workload.instances(0), workload.instances(1)
        assert zero == workload.instances(0)
        assert one == workload.instances(1)
        assert one != zero


def test_yardstick_scales_by_the_faster_of_the_adjacent_probes(monkeypatch):
    """A timed interval is divided by the faster probe around it, in reference seconds."""
    times = iter([0.2, 0.1, 0.4, 0.3])
    monkeypatch.setattr(probe, "probe", lambda: next(times))
    yardstick = probe.Yardstick()
    assert yardstick.scale(1.0) == pytest.approx(probe.REFERENCE_S / 0.1)
    assert yardstick.scale(1.0) == pytest.approx(probe.REFERENCE_S / 0.1)
    assert yardstick.scale(2.0) == pytest.approx(2.0 * probe.REFERENCE_S / 0.3)


HIGHER = Metric("rate", "req/s", "higher", 0.10)


@pytest.mark.parametrize(
    ("base", "new", "expected"),
    [
        ([100.0, 101.0, 99.0, 100.0], [99.0, 100.0, 98.0, 99.5], "ok"),
        ([100.0, 101.0, 99.0, 100.0], [85.0, 86.0, 84.0, 85.0], "worse"),
        ([100.0, 130.0, 70.0, 100.0], [95.0, 125.0, 66.0, 96.0], "unresolved"),
        ([70.0, 80.0, 90.0, 100.0], [101.0, 115.0, 130.0, 140.0], "ok"),
    ],
    ids=["ok", "worse", "unresolved", "all-runs-better"],
)
def test_compare_verdicts(base, new, expected):
    """Each verdict of ``compare`` on synthetic samples."""
    assert verdict(HIGHER, base, new) == expected


def test_compare_fails_on_a_worse_metric_or_more_failures():
    """``compare`` reports a regression for a worse row or a higher failed share."""

    def side(rate, failed=0):
        metrics = {"host_req_per_s": {"value": rate, "unit": "req/s"}}
        return [{"attempted": 10, "failed": failed, "workloads": {"w": {"end_to_end": metrics}}}]

    assert compare(side(100.0), side(99.0))[1] is False
    assert compare(side(100.0), side(50.0))[1] is True
    assert compare(side(100.0), side(100.0, failed=1))[1] is True


def test_benchmark_json_matches_the_metric_tables():
    """``BENCHMARK.json`` names the same workloads and metrics as the code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
