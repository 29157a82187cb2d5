"""Tests for the unified discovery API (:mod:`repro.api`).

Covers the request contract, the per-request budget/deadline semantics, the
engine registry, the session facade (single / batch / async),
and the JSON response schema.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from repro import (
    DiscoveryRequest,
    DiscoverySession,
    MateConfig,
    MateDiscovery,
    RequestBudget,
    SCHEMA_VERSION,
    ServiceConfig,
    ShardedMateDiscovery,
    build_index,
)
from repro.api import EngineRegistry, available_engines
from repro.api.registry import DEFAULT_REGISTRY
from repro.baselines import (
    McrDiscovery,
    PrefixTreeDiscovery,
    ScrDiscovery,
    ScrJosieDiscovery,
)
from repro.core.topk import TopKHeap
from repro.datagen import build_workload
from repro.exceptions import DiscoveryError, EngineNotFoundError


@pytest.fixture(scope="module")
def api_config() -> MateConfig:
    return MateConfig(hash_size=128, k=5, expected_unique_values=100_000)


@pytest.fixture(scope="module")
def workload():
    return build_workload("WT_10", seed=29, num_queries=3, corpus_scale=0.15)


@pytest.fixture(scope="module")
def index(workload, api_config):
    return build_index(workload.corpus, config=api_config)


@pytest.fixture(scope="module")
def session(workload, index, api_config):
    with DiscoverySession(
        workload.corpus,
        index,
        config=api_config,
        service_config=ServiceConfig(num_shards=1),
    ) as active:
        yield active


class TestDiscoveryRequest:
    def test_defaults(self, workload):
        request = DiscoveryRequest(query=workload.queries[0])
        assert request.engine == "mate"
        assert request.k is None
        assert not request.limited

    def test_validation(self, workload):
        query = workload.queries[0]
        with pytest.raises(DiscoveryError):
            DiscoveryRequest(query=query, k=0)
        with pytest.raises(DiscoveryError):
            DiscoveryRequest(query=query, deadline_seconds=0.0)
        with pytest.raises(DiscoveryError):
            DiscoveryRequest(query=query, max_pl_fetches=-1)
        with pytest.raises(DiscoveryError):
            DiscoveryRequest(query=query, engine="")
        with pytest.raises(DiscoveryError):
            DiscoveryRequest(query="not a query table")

    def test_label_prefers_request_id(self, workload):
        query = workload.queries[0]
        assert DiscoveryRequest(query=query, request_id="r-1").label == "r-1"
        default_label = DiscoveryRequest(query=query).label
        assert query.table.name in default_label

    def test_engine_signature_excludes_per_run_inputs(self, workload):
        a = DiscoveryRequest(query=workload.queries[0], k=3, max_pl_fetches=1)
        b = DiscoveryRequest(query=workload.queries[1], k=7)
        assert a.engine_signature() == b.engine_signature()
        c = DiscoveryRequest(query=workload.queries[0], engine="scr")
        assert c.engine_signature() != a.engine_signature()

    def test_requests_are_frozen(self, workload):
        request = DiscoveryRequest(query=workload.queries[0])
        with pytest.raises(AttributeError):
            request.k = 3

    def test_replace_swaps_the_query_and_revalidates(self, workload):
        request = DiscoveryRequest(query=workload.queries[0], k=4)
        moved = dataclasses.replace(request, query=workload.queries[1])
        assert moved.query is workload.queries[1]
        assert moved.k == 4
        with pytest.raises(DiscoveryError):
            dataclasses.replace(request, k=0)


class TestRequestBudget:
    def test_unlimited_request_has_no_budget(self, workload):
        assert DiscoveryRequest(query=workload.queries[0]).make_budget() is None

    def test_fetch_budget_grants_and_latches(self):
        budget = RequestBudget(max_pl_fetches=3)
        assert budget.take_pl_fetches(2) == 2
        assert budget.complete
        assert budget.take_pl_fetches(2) == 1
        assert budget.exhausted and not budget.complete

    def test_deadline_uses_injected_clock(self):
        now = [0.0]
        budget = RequestBudget(deadline_seconds=5.0, clock=lambda: now[0])
        assert not budget.deadline_expired()
        now[0] = 5.0
        assert budget.deadline_expired()
        assert budget.expired and not budget.complete

    def test_cancel_expires_and_latches(self):
        now = [0.0]
        budget = RequestBudget(deadline_seconds=5.0, clock=lambda: now[0])
        budget.cancel()
        assert budget.deadline_expired()
        assert budget.expired and not budget.complete
        # A cancel is not undone by a clock still inside the deadline, and
        # the remaining allowance stays a plain read of that clock.
        assert budget.deadline_expired()
        assert budget.remaining_seconds() == 5.0

    def test_validation(self):
        with pytest.raises(DiscoveryError):
            RequestBudget(deadline_seconds=-1.0)
        with pytest.raises(DiscoveryError):
            RequestBudget(max_pl_fetches=-1)
        with pytest.raises(DiscoveryError):
            RequestBudget(max_pl_fetches=1).take_pl_fetches(-1)


class TestEngineRegistry:
    def test_builtin_engines_are_registered(self):
        names = available_engines()
        for expected in ("mate", "sharded", "scr", "mcr", "josie", "prefix_tree"):
            assert expected in names

    def test_unknown_engine_is_attributed(self, session, workload):
        request = DiscoveryRequest(
            query=workload.queries[0], engine="nope", request_id="bad"
        )
        with pytest.raises(EngineNotFoundError) as excinfo:
            session.discover(request)
        assert excinfo.value.engine == "nope"
        assert excinfo.value.request is request
        assert "bad" in str(excinfo.value)

    def test_duplicate_registration_requires_replace(self):
        from repro.exceptions import ConfigurationError

        registry = EngineRegistry()
        registry.register("custom", lambda session, request: None)
        with pytest.raises(ConfigurationError):
            registry.register("custom", lambda session, request: None)
        registry.register("custom", lambda session, request: None, replace=True)
        assert registry.names() == ["custom"]
        with pytest.raises(ConfigurationError):
            registry.register("", lambda session, request: None)

    def test_custom_engine_dispatch(self, workload, index, api_config):
        registry = EngineRegistry()

        def build_reversed_mate(session, request):
            return MateDiscovery(
                session.corpus, session.index, config=session.config
            )

        registry.register("mine", build_reversed_mate, supports_budget=True)
        with DiscoverySession(
            workload.corpus, index, config=api_config, registry=registry
        ) as session:
            result = session.discover(
                DiscoveryRequest(query=workload.queries[0], engine="mine")
            )
        assert result.engine == "mine"
        assert result.tables

    def test_register_into_default_registry(self):
        name = "test-only-engine"
        DEFAULT_REGISTRY.register(name, lambda session, request: None)
        try:
            assert name in available_engines()
        finally:
            DEFAULT_REGISTRY._specs.pop(name, None)


class TestSessionDiscover:
    def test_k_defaults_to_config(self, session, workload, api_config):
        result = session.discover(DiscoveryRequest(query=workload.queries[0]))
        assert result.k == api_config.k
        assert result.complete

    def test_explicit_k_wins(self, session, workload):
        result = session.discover(DiscoveryRequest(query=workload.queries[0], k=2))
        assert result.k == 2
        assert len(result.tables) <= 2

    @pytest.mark.parametrize("engine", ["mate", "sql"])
    def test_ranking_improves_monotonically_and_ends_at_final(
        self, session, workload, engine, monkeypatch
    ):
        """Every accepted heap update keeps or raises each rank's
        joinability, and the last one is the answer."""
        rankings = []
        update = TopKHeap.update

        def update_and_record(heap, table_id, joinability):
            kept = update(heap, table_id, joinability)
            if kept:
                rankings.append(heap.result_tuples())
            return kept

        monkeypatch.setattr(TopKHeap, "update", update_and_record)
        request = DiscoveryRequest(query=workload.queries[0], engine=engine)
        result = session.discover(request)
        assert result.complete
        assert rankings and rankings[-1] == result.result_tuples()
        for earlier, later in zip(rankings, rankings[1:]):
            assert len(later) >= len(earlier)
            for position, (_, joinability) in enumerate(earlier):
                assert later[position][1] >= joinability

    @pytest.mark.parametrize(
        "engine", ["mate", "sharded", "scr", "mcr", "josie", "prefix_tree"]
    )
    def test_every_engine_matches_direct_construction(
        self, session, workload, index, api_config, engine
    ):
        """The facade adds no behaviour: byte-identical top-k per engine."""
        corpus = workload.corpus
        direct_engines = {
            "mate": lambda: MateDiscovery(corpus, index, config=api_config),
            "sharded": lambda: ShardedMateDiscovery(
                corpus,
                num_shards=session.service_config.num_shards,
                config=api_config,
            ),
            "scr": lambda: ScrDiscovery(corpus, index, config=api_config),
            "mcr": lambda: McrDiscovery(corpus, index, config=api_config),
            "josie": lambda: ScrJosieDiscovery(corpus, config=api_config),
            "prefix_tree": lambda: PrefixTreeDiscovery(corpus, config=api_config),
        }
        direct = direct_engines[engine]()
        for query in workload.queries:
            expected = direct.discover(query, k=api_config.k)
            served = session.discover(DiscoveryRequest(query=query, engine=engine))
            assert served.result_tuples() == expected.result_tuples()

    def test_errors_carry_engine_and_request(self, session, workload):
        request = DiscoveryRequest(
            query=workload.queries[0], engine="mcr", max_pl_fetches=1
        )
        with pytest.raises(DiscoveryError) as excinfo:
            session.discover(request)
        assert excinfo.value.engine == "mcr"
        assert excinfo.value.request is request


class TestBudgetSemantics:
    def test_zero_fetch_budget_returns_empty_well_formed_result(
        self, session, workload
    ):
        request = DiscoveryRequest(query=workload.queries[0], max_pl_fetches=0)
        result = session.discover(request)
        assert result.tables == []
        assert result.result_tuples() == []
        assert not result.complete
        assert result.counters.budget_exhausted
        assert result.counters.pl_items_fetched == 0
        assert result.counters.deadline_expired == 0
        # The result still serialises like any other.
        assert json.loads(json.dumps(result.to_dict()))["complete"] is False

    def test_partial_fetch_budget_truncates_initialization(
        self, session, workload
    ):
        query = workload.queries[0]
        full = session.discover(DiscoveryRequest(query=query))
        probes = int(full.counters.extra["initial_column_cardinality"])
        assert probes > 1
        limited = session.discover(
            DiscoveryRequest(query=query, max_pl_fetches=probes - 1)
        )
        assert not limited.complete
        assert limited.counters.budget_exhausted
        assert (
            limited.counters.extra["initial_column_cardinality"] == probes - 1
        )
        assert limited.counters.pl_items_fetched <= full.counters.pl_items_fetched

    def test_sufficient_budget_is_complete_and_identical(self, session, workload):
        query = workload.queries[0]
        full = session.discover(DiscoveryRequest(query=query))
        probes = int(full.counters.extra["initial_column_cardinality"])
        budgeted = session.discover(
            DiscoveryRequest(query=query, max_pl_fetches=probes)
        )
        assert budgeted.complete
        assert not budgeted.counters.budget_exhausted
        assert budgeted.result_tuples() == full.result_tuples()

    def test_tight_deadline_returns_partial_topk(self, session, workload):
        request = DiscoveryRequest(
            query=workload.queries[0], deadline_seconds=1e-9
        )
        result = session.discover(request)
        assert not result.complete
        assert result.counters.deadline_expired
        full = session.discover(DiscoveryRequest(query=workload.queries[0]))
        assert set(result.result_tuples()) <= set(full.result_tuples())

    def test_deadline_mid_loop_keeps_partial_results(
        self, workload, index, api_config, monkeypatch
    ):
        """An expiry between candidate tables keeps what was already ranked."""
        engine = MateDiscovery(workload.corpus, index, config=api_config)
        now = [0.0]
        budget = RequestBudget(deadline_seconds=1.0, clock=lambda: now[0])
        seen = []
        update = TopKHeap.update

        def update_then_expire(heap, table_id, joinability):
            kept = update(heap, table_id, joinability)
            if kept:
                seen.append(heap.result_tuples())
                now[0] = 2.0  # expire after the first accepted table
            return kept

        monkeypatch.setattr(TopKHeap, "update", update_then_expire)
        result = engine.discover(workload.queries[0], budget=budget)
        assert not result.complete
        assert result.counters.deadline_expired
        assert result.result_tuples() == seen[-1]

    @pytest.mark.parametrize("engine", ["mate", "sql"])
    def test_cancel_mid_loop_keeps_partial_results(
        self, session, workload, engine, monkeypatch
    ):
        """A budget cancelled between candidate tables (how the process pool
        stops a late shard) keeps what was already ranked, and the session
        serves the next request in full."""
        budgets = []
        make_budget = DiscoveryRequest.make_budget

        def recorded(request, *args, **kwargs):
            budgets.append(make_budget(request, *args, **kwargs))
            return budgets[-1]

        seen = []
        update = TopKHeap.update

        def update_then_cancel(heap, table_id, joinability):
            kept = update(heap, table_id, joinability)
            if kept:
                seen.append(heap.result_tuples())
                budgets[-1].cancel()  # after the first accepted table
            return kept

        monkeypatch.setattr(DiscoveryRequest, "make_budget", recorded)
        monkeypatch.setattr(TopKHeap, "update", update_then_cancel)
        request = DiscoveryRequest(
            query=workload.queries[0], engine=engine, deadline_seconds=3600.0
        )
        result = session.discover(request)
        assert len(budgets) == 1 and len(seen) == 1
        assert not result.complete
        assert result.counters.deadline_expired
        assert result.result_tuples() == seen[0]
        monkeypatch.undo()
        follow_up = session.discover(request)
        assert follow_up.complete and follow_up.tables
        assert len(follow_up.tables) >= len(result.tables)

    def test_limited_request_on_unsupporting_engine_is_refused(
        self, session, workload
    ):
        request = DiscoveryRequest(
            query=workload.queries[0], engine="prefix_tree", deadline_seconds=10.0
        )
        with pytest.raises(DiscoveryError):
            session.discover(request)


class TestAsyncSubmission:
    def test_asubmit_matches_sync(self, session, workload):
        request = DiscoveryRequest(query=workload.queries[0])
        result = asyncio.run(session.asubmit(request))
        assert result.result_tuples() == session.discover(request).result_tuples()

    def test_gathered_asubmits_preserve_order(self, session, workload):
        requests = [DiscoveryRequest(query=query) for query in workload.queries]

        async def gather():
            return await asyncio.gather(*map(session.asubmit, requests))

        results = asyncio.run(gather())
        assert [r.request for r in results] == requests
        batch = session.discover_batch(requests)
        assert [r.result_tuples() for r in results] == [
            r.result_tuples() for r in batch.results
        ]

    def test_submit_returns_future(self, session, workload):
        future = session.submit(DiscoveryRequest(query=workload.queries[0]))
        assert future.result().tables

    def test_closed_session_refuses_submission(self, workload, index, api_config):
        session = DiscoverySession(workload.corpus, index, config=api_config)
        session.close()
        with pytest.raises(DiscoveryError):
            session.submit(DiscoveryRequest(query=workload.queries[0]))


class TestBatch:
    def test_batch_matches_sequential(self, session, workload):
        requests = [DiscoveryRequest(query=query) for query in workload.queries]
        batch = session.discover_batch(requests)
        assert not batch.failures
        assert len(batch) == len(requests)
        for request, served in zip(requests, batch):
            assert served.result_tuples() == (
                session.discover(request).result_tuples()
            )
        assert batch.stats.num_queries == len(requests)
        assert batch.stats.failed_queries == 0

    def test_collected_failures_are_attributable_in_stats(
        self, session, workload
    ):
        requests = [
            DiscoveryRequest(query=workload.queries[0]),
            DiscoveryRequest(
                query=workload.queries[1], engine="nope", request_id="broken"
            ),
        ]
        batch = session.discover_batch(requests, on_error="collect")
        assert batch.failures
        assert batch.results[0] is not None and batch.results[1] is None
        assert batch.stats.failed_queries == 1
        assert len(batch.stats.failures) == 1
        assert "nope" in batch.stats.failures[0]
        assert "broken" in batch.stats.failures[0]
        assert isinstance(batch.failures[0], EngineNotFoundError)

    def test_raise_mode_propagates(self, session, workload):
        requests = [
            DiscoveryRequest(query=workload.queries[0], engine="nope"),
        ]
        with pytest.raises(EngineNotFoundError):
            session.discover_batch(requests)

    def test_invalid_on_error_rejected(self, session, workload):
        with pytest.raises(DiscoveryError):
            session.discover_batch(
                [DiscoveryRequest(query=workload.queries[0])], on_error="ignore"
            )

    def test_mixed_engine_batch(self, session, workload):
        requests = [
            DiscoveryRequest(query=workload.queries[0], engine="mate"),
            DiscoveryRequest(query=workload.queries[0], engine="scr"),
        ]
        batch = session.discover_batch(requests)
        assert [result.engine for result in batch] == ["mate", "scr"]


class TestResponseSchema:
    def test_to_dict_is_versioned_and_json_serialisable(self, session, workload):
        request = DiscoveryRequest(
            query=workload.queries[0], request_id="api-1", max_pl_fetches=100
        )
        document = session.discover(request).to_dict()
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["kind"] == "discovery_result"
        assert document["request"]["id"] == "api-1"
        assert document["request"]["max_pl_fetches"] == 100
        assert document["engine"] == "mate"
        assert isinstance(document["tables"], list)
        for entry in document["tables"]:
            assert set(entry) == {
                "table_id", "table_name", "joinability", "column_mapping",
            }
        assert "rows_checked" in document["counters"]
        json.dumps(document)  # must not raise

    def test_batch_to_dict(self, session, workload):
        batch = session.discover_batch(
            [DiscoveryRequest(query=workload.queries[0])]
        )
        document = batch.to_dict()
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["kind"] == "batch_result"
        assert document["stats"]["num_queries"] == 1
        json.dumps(document)
