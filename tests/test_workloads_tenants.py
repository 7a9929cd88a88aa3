"""Tests for tenant identities and heavy-tail tenant populations."""

from __future__ import annotations

import pytest

from repro.workloads.arrivals import assign_poisson_arrivals
from repro.workloads.spec import RequestSpec, assign_sla_classes
from repro.workloads.tenants import (
    TenantPopulation,
    TenantProfile,
    assign_tenants,
    generate_tenant_population,
)
from tests.conftest import make_spec, make_workload


class TestRequestSpecTenantFields:
    def test_defaults_to_tenantless(self):
        spec = make_spec()
        assert spec.user_id is None
        assert spec.app_id is None

    def test_empty_identity_rejected(self):
        with pytest.raises(ValueError, match="user_id"):
            make_spec(user_id="")
        with pytest.raises(ValueError, match="app_id"):
            RequestSpec(
                request_id="r0",
                input_length=8,
                output_length=4,
                max_new_tokens=16,
                app_id="",
            )


class TestTenantPopulation:
    def test_profile_validation(self):
        with pytest.raises(ValueError, match="user_id"):
            TenantProfile(user_id="", app_id="a", share=1.0)
        with pytest.raises(ValueError, match="share"):
            TenantProfile(user_id="u", app_id="a", share=-0.1)

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TenantPopulation(
                tenants=(
                    TenantProfile("u0", "a", 0.5),
                    TenantProfile("u1", "a", 0.4),
                )
            )

    def test_duplicate_users_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TenantPopulation(
                tenants=(
                    TenantProfile("u0", "a", 0.5),
                    TenantProfile("u0", "b", 0.5),
                )
            )


class TestGenerateTenantPopulation:
    def test_shares_sum_to_one_and_deterministic(self):
        a = generate_tenant_population(16, num_apps=3, abusive_users=2, abusive_share=0.5)
        b = generate_tenant_population(16, num_apps=3, abusive_users=2, abusive_share=0.5)
        assert a == b
        assert a.shares.sum() == pytest.approx(1.0)
        assert a.num_users == 16
        assert sorted({t.app_id for t in a.tenants}) == ["app-0", "app-1", "app-2"]

    def test_abusive_head_splits_share_evenly(self):
        population = generate_tenant_population(10, abusive_users=2, abusive_share=0.6)
        assert population.shares[0] == pytest.approx(0.3)
        assert population.shares[1] == pytest.approx(0.3)
        assert population.shares[2:].sum() == pytest.approx(0.4)

    def test_tail_is_zipf_decreasing(self):
        population = generate_tenant_population(8, zipf_alpha=1.2)
        shares = population.shares
        assert all(shares[i] > shares[i + 1] for i in range(len(shares) - 1))
        # k-th tail user carries weight proportional to k^-alpha.
        assert shares[1] / shares[0] == pytest.approx(2.0**-1.2)

    def test_apps_round_robin(self):
        population = generate_tenant_population(5, num_apps=2)
        assert [t.app_id for t in population.tenants] == [
            "app-0",
            "app-1",
            "app-0",
            "app-1",
            "app-0",
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="num_users"):
            generate_tenant_population(0)
        with pytest.raises(ValueError, match="num_apps"):
            generate_tenant_population(4, num_apps=5)
        with pytest.raises(ValueError, match="zipf_alpha"):
            generate_tenant_population(4, zipf_alpha=0.0)
        with pytest.raises(ValueError, match="set together"):
            generate_tenant_population(4, abusive_users=1)
        with pytest.raises(ValueError, match="set together"):
            generate_tenant_population(4, abusive_share=0.5)
        with pytest.raises(ValueError, match="abusive_share"):
            generate_tenant_population(4, abusive_users=1, abusive_share=1.0)


class TestAssignTenants:
    def test_stamps_every_request(self):
        workload = make_workload(num_requests=50)
        population = generate_tenant_population(4, num_apps=2)
        stamped = assign_tenants(workload, population, seed=3)
        assert all(spec.user_id is not None for spec in stamped.requests)
        assert all(spec.app_id is not None for spec in stamped.requests)
        assert {spec.user_id for spec in stamped} <= {t.user_id for t in population.tenants}
        # User/app pairing follows the population's binding.
        binding = {t.user_id: t.app_id for t in population.tenants}
        assert all(spec.app_id == binding[spec.user_id] for spec in stamped.requests)

    def test_deterministic_per_seed(self):
        workload = make_workload(num_requests=30)
        population = generate_tenant_population(6)
        a = assign_tenants(workload, population, seed=5)
        b = assign_tenants(workload, population, seed=5)
        c = assign_tenants(workload, population, seed=6)
        assert [s.user_id for s in a.requests] == [s.user_id for s in b.requests]
        assert [s.user_id for s in a.requests] != [s.user_id for s in c.requests]

    def test_keeps_classes_and_arrival_times(self):
        classes = {"interactive": 0.5, "batch": 0.5}
        workload = assign_sla_classes(make_workload(num_requests=20), classes, seed=2)
        workload = assign_poisson_arrivals(workload, request_rate=4.0, seed=3)
        stamped = assign_tenants(workload, generate_tenant_population(4), seed=5)
        before = [(s.sla_class, s.arrival_time) for s in workload]
        assert [(s.sla_class, s.arrival_time) for s in stamped] == before

    def test_heavy_tail_dominates_assignment(self):
        workload = make_workload(num_requests=400)
        population = generate_tenant_population(10, abusive_users=1, abusive_share=0.7)
        stamped = assign_tenants(workload, population, seed=1)
        abusive = sum(1 for s in stamped.requests if s.user_id == "user-0000")
        assert abusive / len(stamped.requests) == pytest.approx(0.7, abs=0.08)

    def test_preserves_lengths_and_description_notes_population(self):
        workload = make_workload(num_requests=5)
        population = generate_tenant_population(2)
        stamped = assign_tenants(workload, population)
        assert [s.input_length for s in stamped.requests] == [
            s.input_length for s in workload.requests
        ]
        assert "tenants:" in stamped.description
