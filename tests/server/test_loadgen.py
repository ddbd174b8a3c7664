"""Closed-loop load generation: determinism, back-pressure, fairness."""

import pytest

from repro.server import (
    LoadGenerator,
    QueryService,
    build_shape_workload,
    build_workload,
    grouped_tenant_profiles,
)
from repro.server.loadgen import percentile


def make_service(graph, **kwargs):
    kwargs.setdefault("engine", "SPARQLGX")
    kwargs.setdefault("pool_size", 2)
    return QueryService(graph, **kwargs)


def run_load(graph, service_kwargs=None, **gen_kwargs):
    service = make_service(graph, **(service_kwargs or {}))
    gen_kwargs.setdefault("clients", 6)
    gen_kwargs.setdefault("tenants", 2)
    gen_kwargs.setdefault("requests_per_client", 4)
    gen_kwargs.setdefault("think_units", 20)
    gen_kwargs.setdefault("seed", 42)
    workload = build_workload(graph, size=4, seed=gen_kwargs["seed"])
    return LoadGenerator(service, workload, **gen_kwargs).run()


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) == 0

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_single_sample(self):
        assert percentile([7], 99) == 7

    def test_unsorted_input(self):
        assert percentile([30, 10, 20], 50) == 20


class TestWorkloadBuilder:
    def test_deterministic(self, lubm_graph):
        first = build_workload(lubm_graph, size=6, seed=9)
        second = build_workload(lubm_graph, size=6, seed=9)
        assert first == second

    def test_seed_changes_workload(self, lubm_graph):
        assert build_workload(lubm_graph, size=6, seed=1) != build_workload(
            lubm_graph, size=6, seed=2
        )

    def test_queries_are_parseable_and_answerable(self, lubm_graph):
        from repro.sparql.algebra import evaluate
        from repro.sparql.parser import parse_sparql

        for _name, text in build_workload(lubm_graph, size=6, seed=42):
            assert len(evaluate(parse_sparql(text), lubm_graph)) > 0

    def test_empty_graph_rejected(self):
        from repro.rdf.graph import RDFGraph

        with pytest.raises(ValueError):
            build_workload(RDFGraph())


class TestDeterminism:
    def test_report_is_byte_reproducible(self, lubm_graph):
        """The headline guarantee: same seed, same bytes, fresh state."""
        first = run_load(lubm_graph, seed=7)
        second = run_load(lubm_graph, seed=7)
        assert first.to_json() == second.to_json()

    def test_different_seed_different_schedule(self, lubm_graph):
        assert run_load(lubm_graph, seed=1).to_json() != run_load(
            lubm_graph, seed=2
        ).to_json()


class TestClosedLoop:
    def test_all_requests_accounted_for(self, lubm_graph):
        report = run_load(lubm_graph)
        assert report.submitted == report.completed + report.rejected
        assert report.completed == len(report.latencies)

    def test_caching_lifts_throughput(self, lubm_graph):
        cached = run_load(lubm_graph)
        uncached = run_load(
            lubm_graph,
            service_kwargs={
                "enable_result_cache": False,
                "enable_plan_cache": False,
            },
        )
        assert cached.cache["result_hits"] > 0
        assert uncached.cache["result_hits"] == 0
        assert (
            cached.throughput_per_kilounit()
            > uncached.throughput_per_kilounit()
        )
        assert (
            cached.to_payload()["latency_units"]["p50"]
            <= uncached.to_payload()["latency_units"]["p50"]
        )

    def test_tiny_queue_rejects_under_pressure(self, lubm_graph):
        report = run_load(
            lubm_graph,
            service_kwargs={
                "pool_size": 1,
                "queue_limit": 1,
                "enable_result_cache": False,
            },
            clients=8,
            think_units=0,
        )
        assert report.rejected > 0
        assert report.max_queue_depth <= 1

    def test_ample_capacity_rejects_nothing(self, lubm_graph):
        report = run_load(
            lubm_graph,
            service_kwargs={"pool_size": 2, "queue_limit": 64},
        )
        assert report.rejected == 0

    def test_deadline_aborts_coexist_with_completions(self, lubm_graph):
        # Lint admission off: QL005 would reject the doomed queries up
        # front, and this test is about *runtime* deadline aborts.
        report = run_load(
            lubm_graph,
            deadline=30,
            service_kwargs={"lint_admission": False},
        )
        assert report.deadline_aborts > 0
        assert report.ok > 0  # concurrent queries still complete
        payload = report.to_payload()
        assert payload["totals"]["deadline_aborts"] == report.deadline_aborts

    def test_fair_share_balances_tenants(self, lubm_graph):
        report = run_load(
            lubm_graph,
            service_kwargs={"pool_size": 1, "queue_limit": 16},
            clients=6,
            tenants=3,
            think_units=0,
        )
        completed = [
            tenant["completed"] for tenant in report.per_tenant.values()
        ]
        assert len(completed) == 3
        assert max(completed) - min(completed) <= 2

    def test_latency_not_double_counted(self, lubm_graph):
        """Regression: a lone client never queues, so every wait is 0 and
        latency is exactly the service time (not service time twice)."""
        report = run_load(lubm_graph, clients=1, tenants=1)
        assert report.completed > 0
        assert report.waits == [0] * report.completed
        tenant = report.per_tenant["tenant0"]
        assert sum(report.latencies) == tenant["service_units"]

    def test_rejects_nonpositive_deadline(self, lubm_graph):
        with pytest.raises(ValueError):
            LoadGenerator(
                make_service(lubm_graph),
                [("q", "SELECT ?s WHERE { ?s ?p ?o }")],
                deadline=0,
            )

    def test_report_payload_shape(self, lubm_graph):
        payload = run_load(lubm_graph).to_payload()
        assert payload["version"] == 2
        for key in (
            "config",
            "totals",
            "latency_units",
            "queue",
            "cache",
            "tenants",
            "throughput_per_kilounit",
            "virtual_duration_units",
        ):
            assert key in payload
        assert payload["latency_units"]["p50"] <= payload["latency_units"]["p95"]
        assert payload["latency_units"]["p95"] <= payload["latency_units"]["p99"]

    def test_rejects_empty_workload(self, lubm_graph):
        with pytest.raises(ValueError):
            LoadGenerator(make_service(lubm_graph), [])


class TestShapeMix:
    def test_shape_workload_labels_are_honest(self, lubm_graph):
        from repro.sparql.parser import parse_sparql
        from repro.sparql.shapes import classify_shape

        workload = build_shape_workload(lubm_graph, per_shape=2, seed=42)
        assert len(workload) == 10
        for name, text in workload:
            shape = name.rstrip("0123456789")
            assert classify_shape(parse_sparql(text)).value == shape

    def test_shape_workload_is_deterministic(self, lubm_graph):
        first = build_shape_workload(lubm_graph, per_shape=1, seed=7)
        second = build_shape_workload(lubm_graph, per_shape=1, seed=7)
        assert first == second
        assert first != build_shape_workload(lubm_graph, per_shape=1, seed=8)

    def test_tenant_profiles_emphasize_distinct_shapes(self, lubm_graph):
        workload = build_shape_workload(lubm_graph, per_shape=1, seed=42)
        profiles = grouped_tenant_profiles(workload, tenants=2, emphasis=3)
        assert set(profiles) == {"tenant0", "tenant1"}
        for profile in profiles.values():
            # Every workload query appears; the preferred shape repeats.
            assert set(profile) == {name for name, _ in workload}
            assert len(profile) > len(workload)
        assert profiles["tenant0"] != profiles["tenant1"]

    def test_unknown_profile_names_rejected(self, lubm_graph):
        workload = build_shape_workload(lubm_graph, per_shape=1, seed=42)
        with pytest.raises(ValueError):
            LoadGenerator(
                make_service(lubm_graph),
                workload,
                tenant_profiles={"tenant0": ["nope"]},
            )

    def test_report_breaks_out_shapes_and_engines(self, lubm_graph):
        service = make_service(lubm_graph, route=True, pool_size=1)
        workload = build_shape_workload(lubm_graph, per_shape=1, seed=42)
        report = LoadGenerator(
            service,
            workload,
            clients=4,
            tenants=2,
            requests_per_client=4,
            think_units=20,
            seed=42,
            tenant_profiles=grouped_tenant_profiles(workload, 2),
        ).run()
        payload = report.to_payload()
        assert payload["config"]["route"] is True
        shapes = payload["shapes"]
        assert shapes and set(shapes) <= {
            "single", "star", "linear", "snowflake", "complex",
        }
        for block in shapes.values():
            assert {"completed", "ok", "service_units", "latency_units"} <= (
                set(block)
            )
        routing = payload["routing"]
        assert routing["enabled"] is True
        assert sum(routing["routed_to"].values()) == (
            payload["totals"]["completed"]
        )
        assert routing["policy"]["decisions"]

    def test_fixed_engine_report_attributes_everything_to_it(
        self, lubm_graph
    ):
        payload = run_load(lubm_graph).to_payload()
        assert payload["routing"]["enabled"] is False
        assert list(payload["routing"]["routed_to"]) == ["SPARQLGX"]


class TestShaclWorkload:
    def test_compiled_ids_plus_probes(self, lubm_graph):
        from repro.server import build_shacl_workload
        from repro.shacl import compile_shape_set, default_shapes_for

        workload = build_shacl_workload(lubm_graph, seed=42)
        names = [name for name, _ in workload]
        compiled_ids = [
            c.id
            for c in compile_shape_set(default_shapes_for(lubm_graph))
        ]
        assert names[: len(compiled_ids)] == compiled_ids
        probes = names[len(compiled_ids):]
        assert probes == ["probe%d" % i for i in range(len(probes))]
        assert probes  # the bursty ASK tail is present

    def test_deterministic_and_answerable(self, lubm_graph):
        from repro.server import build_shacl_workload
        from repro.sparql.algebra import evaluate
        from repro.sparql.parser import parse_sparql

        first = build_shacl_workload(lubm_graph, seed=42)
        assert first == build_shacl_workload(lubm_graph, seed=42)
        assert first != build_shacl_workload(lubm_graph, seed=43)
        for _name, text in first:
            evaluate(parse_sparql(text), lubm_graph)  # parses + evaluates

    def test_loadtest_plan_cache_warm_on_second_pass(self, lubm_graph):
        """The BENCH_shacl acceptance property at the loadgen level:
        replaying the shacl workload against a warm service answers
        (mostly) from cache."""
        from repro.server import build_shacl_workload

        service = make_service(lubm_graph, enable_result_cache=False)
        workload = build_shacl_workload(lubm_graph, seed=42)
        kwargs = dict(
            clients=2,
            tenants=1,
            requests_per_client=len(workload),
            think_units=0,
            seed=42,
        )
        LoadGenerator(service, workload, **kwargs).run()
        counters = service.stats()["counters"]
        hits = counters.get("plan_cache_hits", 0)
        misses = counters.get("plan_cache_misses", 0)
        assert hits / (hits + misses) > 0.5


class TestFederatedWorkload:
    def test_paged_construct_requests(self, lubm_graph):
        from repro.server import build_federated_workload
        from repro.sparql.ast import ConstructQuery
        from repro.sparql.parser import parse_sparql

        workload = build_federated_workload(
            lubm_graph, seed=42, predicates=3, pages=3
        )
        assert len(workload) == 9
        for name, text in workload:
            assert name.startswith("harvest")
            plan = parse_sparql(text)
            assert isinstance(plan, ConstructQuery)
            assert plan.limit is not None

    def test_deterministic(self, lubm_graph):
        from repro.server import build_federated_workload

        assert build_federated_workload(
            lubm_graph, seed=5
        ) == build_federated_workload(lubm_graph, seed=5)

    def test_workload_completes_through_the_service(self, lubm_graph):
        from repro.server import build_federated_workload

        workload = build_federated_workload(lubm_graph, seed=42)
        report = LoadGenerator(
            make_service(lubm_graph),
            workload,
            clients=2,
            tenants=2,
            requests_per_client=4,
            think_units=10,
            seed=42,
        ).run()
        assert report.ok == report.completed > 0


class TestGroupedProfiles:
    def test_each_tenant_emphasizes_a_distinct_group(self, lubm_graph):
        from repro.server import build_shacl_workload

        workload = build_shacl_workload(lubm_graph, seed=42)
        profiles = grouped_tenant_profiles(workload, tenants=3, emphasis=3)
        assert set(profiles) == {"tenant0", "tenant1", "tenant2"}
        for profile in profiles.values():
            assert set(profile) == {name for name, _ in workload}
        assert len({tuple(p) for p in profiles.values()}) == 3


class TestPerTenantRejections:
    def test_queue_rejections_break_out_by_tenant(self, lubm_graph):
        report = run_load(
            lubm_graph,
            service_kwargs={
                "pool_size": 1,
                "queue_limit": 1,
                "enable_result_cache": False,
            },
            clients=8,
            tenants=2,
            think_units=0,
        )
        assert report.rejected > 0
        per_tenant = report.to_payload()["tenants"]
        assert sum(
            entry["queue_rejected"] for entry in per_tenant.values()
        ) == report.rejected
        for entry in per_tenant.values():
            assert set(entry) >= {
                "submitted",
                "completed",
                "ok",
                "service_units",
                "queue_rejected",
                "lint_rejected",
                "deadline_aborts",
                "errors",
            }
            assert entry["submitted"] == (
                entry["completed"] + entry["queue_rejected"]
            )

    def test_no_pressure_no_rejections(self, lubm_graph):
        per_tenant = run_load(lubm_graph).to_payload()["tenants"]
        assert all(
            entry["queue_rejected"] == 0 for entry in per_tenant.values()
        )
