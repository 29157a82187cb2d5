"""The planner/executor pipeline: options, planning, byte-identity, budgets.

The load-bearing guarantee of the refactor is pinned here: the executor's
output is *byte-identical* to the pre-refactor monolithic loop (kept
verbatim as :func:`tests.helpers.legacy_discover`) run on the plan's seed
column, across every registered engine and the live index; the planner mode
only ever changes which posting lists get fetched, never the reported
scores; and the request budget ledger covers every fetch, while ``cost``
mode's exact counts fetch nothing.
"""

from __future__ import annotations

import json

import pytest

from repro import MateConfig, MateDiscovery, build_index
from repro.api import DiscoveryRequest, DiscoverySession, PlannerOptions
from repro.api.request import RequestBudget
from repro.config import ServiceConfig
from repro.core.parallel import merge_discovery_results
from repro.core.topk import TopKHeap
from repro.datagen import build_workload
from repro.datamodel import Table, TableCorpus
from repro.exceptions import ConfigurationError, DiscoveryError
from repro.core.column_selection import probed_postings
from repro.experiments.scenarios import _build_drift_scenario, _build_skew_scenario
from repro.experiments.runner import ExperimentSettings
from repro.ingest import LiveIndex
from repro.plan import (
    PIPELINE_STAGES,
    Planner,
    QueryPlan,
)

from tests.helpers import assert_results_byte_identical, legacy_discover

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def plan_config() -> MateConfig:
    return MateConfig(hash_size=128, k=5, expected_unique_values=50_000)


@pytest.fixture(scope="module")
def workload():
    return build_workload("WT_100", seed=11, num_queries=2, corpus_scale=0.2)


@pytest.fixture(scope="module")
def index(workload, plan_config):
    return build_index(workload.corpus, config=plan_config)


class CountingIndex:
    """Index wrapper counting every probe value handed to ``fetch_batch``."""

    def __init__(self, inner):
        self.inner = inner
        self.fetched_values = 0

    def fetch_batch(self, values):
        materialised = list(values)
        self.fetched_values += len(materialised)
        return self.inner.fetch_batch(materialised)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestPlannerOptions:
    def test_defaults_are_legacy(self):
        options = PlannerOptions()
        assert options.mode == "selector"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PlannerOptions(mode="psychic")

    def test_adaptive_mode_is_refused_naming_cost(self):
        with pytest.raises(ConfigurationError, match="mode='cost'"):
            PlannerOptions(mode="adaptive")

    def test_request_carries_and_gates_options(self, workload):
        query = workload.queries[0]
        default = DiscoveryRequest(query=query)
        assert not default.planner_requested
        tuned = DiscoveryRequest(query=query, planner=PlannerOptions(mode="cost"))
        assert tuned.planner_requested
        # The engine-cache signature excludes planner options (per-run knob).
        assert default.engine_signature() == tuned.engine_signature()
        with pytest.raises(DiscoveryError):
            DiscoveryRequest(query=query, planner="cost")  # type: ignore[arg-type]


class TestPlanner:
    def test_selector_mode_follows_column_selector(
        self, workload, index, plan_config
    ):
        engine = MateDiscovery(workload.corpus, index, config=plan_config)
        query = workload.queries[0]
        plan = Planner(engine).plan(query)
        assert isinstance(plan, QueryPlan)
        assert plan.mode == "selector"
        assert plan.seed.column == engine.column_selector(query, index)
        assert plan.alternatives == []
        assert plan.stages == PIPELINE_STAGES

    def test_cost_mode_ranks_every_key_column(self, workload, index, plan_config):
        engine = MateDiscovery(workload.corpus, index, config=plan_config)
        query = workload.queries[0]
        plan = Planner(engine, PlannerOptions(mode="cost")).plan(query)
        ranked = [plan.seed, *plan.alternatives]
        assert sorted(c.column for c in ranked) == sorted(query.key_columns)
        postings = [candidate.postings for candidate in ranked]
        assert postings == sorted(postings)
        # Exact counts: what seeding from each column fetches.
        counts = probed_postings(query, index)
        for candidate in ranked:
            assert (candidate.probe_count, candidate.postings) == counts[
                candidate.column
            ]
        result = engine.discover(query, planner=PlannerOptions(mode="cost"))
        assert result.counters.pl_items_fetched == plan.seed.postings

    def test_cost_mode_picks_the_cold_column_on_skew(self, plan_config):
        corpus, query = _build_skew_scenario(ExperimentSettings(corpus_scale=0.3))
        index = build_index(corpus, config=plan_config)
        engine = MateDiscovery(corpus, index, config=plan_config)
        plan = Planner(engine, PlannerOptions(mode="cost")).plan(query)
        assert plan.seed.column == "cold"
        # The classic cardinality heuristic walks into the hot column.
        assert engine.column_selector(query, index) == "hot"


class TestByteIdentityAllEngines:
    """Output == the pre-refactor loop on the plan's seed, everywhere."""

    def test_mate_matches_legacy(self, workload, index, plan_config):
        engine = MateDiscovery(workload.corpus, index, config=plan_config)
        for query in workload.queries:
            assert_results_byte_identical(
                engine.discover(query), legacy_discover(engine, query)
            )

    def test_mate_matches_legacy_under_budget(self, workload, index, plan_config):
        engine = MateDiscovery(workload.corpus, index, config=plan_config)
        query = workload.queries[0]
        for limit in (0, 1, 3, 10_000):
            assert_results_byte_identical(
                engine.discover(query, budget=RequestBudget(max_pl_fetches=limit)),
                legacy_discover(
                    engine, query, budget=RequestBudget(max_pl_fetches=limit)
                ),
            )

    @pytest.mark.parametrize("mode", ["selector", "cost"])
    def test_snapshot_sequence_matches_legacy(
        self, workload, index, plan_config, mode, monkeypatch
    ):
        """The top-k after every accepted heap update follows the loop run
        on the seed column the planner chose."""
        engine = MateDiscovery(workload.corpus, index, config=plan_config)
        rankings: list[list[tuple[int, int]]] = []
        update = TopKHeap.update

        def update_and_record(heap, table_id, joinability):
            kept = update(heap, table_id, joinability)
            if kept:
                rankings.append(heap.result_tuples())
            return kept

        monkeypatch.setattr(TopKHeap, "update", update_and_record)
        for query in workload.queries:
            rankings.clear()
            result = engine.discover(query, planner=PlannerOptions(mode=mode))
            mine = list(rankings)
            rankings.clear()
            legacy_discover(engine, query, seed_column=result.plan.plan.seed.column)
            assert mine == rankings
            assert mine[-1] == result.result_tuples()

    def test_scr_matches_legacy(self, workload, index, plan_config):
        from repro.baselines import ScrDiscovery

        engine = ScrDiscovery(workload.corpus, index, config=plan_config)
        query = workload.queries[0]
        assert_results_byte_identical(
            engine.discover(query), legacy_discover(engine, query)
        )

    def test_sharded_matches_merged_legacy_shards(self, workload, plan_config):
        from repro.core.parallel import ShardedMateDiscovery

        engine = ShardedMateDiscovery(
            workload.corpus, num_shards=3, config=plan_config
        )
        query = workload.queries[0]
        result = engine.discover(query, k=plan_config.k)
        shard_results = []
        for position, shard in enumerate(engine.shards):
            shard_engine = MateDiscovery(
                shard, engine.shard_indexes[position], config=plan_config
            )
            shard_results.append(
                legacy_discover(shard_engine, query, k=plan_config.k)
            )
        oracle = merge_discovery_results(
            shard_results, k=plan_config.k, system=engine.system_name
        )
        assert result.result_tuples() == oracle.result_tuples()

    def test_live_index_matches_legacy(self, workload, plan_config):
        live = LiveIndex(config=plan_config)
        corpus = TableCorpus(name="live-equiv")
        for table in workload.corpus:
            corpus.add_table(table)
            live.add_table(table)
        live.seal()
        engine = MateDiscovery(corpus, live, config=plan_config)
        query = workload.queries[0]
        assert_results_byte_identical(
            engine.discover(query), legacy_discover(engine, query)
        )

    def test_every_registered_engine_via_session_matches_reference(
        self, workload, plan_config
    ):
        """Session dispatch across all six engines equals the legacy path.

        Pipeline engines (mate, scr) are compared byte-for-byte against the
        verbatim pre-refactor loop; the engines the refactor did not touch
        (mcr, josie, prefix_tree, sharded) are compared against direct
        engine construction, proving dispatch still adds no behaviour.
        """
        query = workload.queries[0]
        with DiscoverySession(
            workload.corpus,
            config=plan_config,
            service_config=ServiceConfig(num_shards=2),
        ) as session:
            for name in ("mate", "scr"):
                engine = session._engine_for(
                    DiscoveryRequest(query=query, engine=name)
                )[1]
                result = session.discover(
                    DiscoveryRequest(query=query, engine=name, k=plan_config.k)
                )
                assert_results_byte_identical(
                    result.response,
                    legacy_discover(engine, query, k=plan_config.k),
                )
            for name in ("mcr", "josie", "prefix_tree", "sharded"):
                request = DiscoveryRequest(query=query, engine=name, k=plan_config.k)
                engine = session._engine_for(request)[1]
                assert (
                    session.discover(request).result_tuples()
                    == engine.discover(query, k=plan_config.k).result_tuples()
                )


class TestCostMode:
    def test_cost_seeds_the_honest_column_on_drift(self, plan_config):
        """The trap column looks cheap to any evenly spaced sample; the
        exact counts see its hot majority."""
        corpus, query = _build_drift_scenario(ExperimentSettings(corpus_scale=0.3))
        engine = MateDiscovery(
            corpus, build_index(corpus, config=plan_config), config=plan_config
        )
        result = engine.discover(
            query, k=plan_config.k, planner=PlannerOptions(mode="cost")
        )
        seed, (trap,) = result.plan.plan.seed, result.plan.plan.alternatives
        assert (seed.column, seed.probe_count, seed.postings) == ("alt", 192, 532)
        assert (trap.column, trap.postings) == ("trap", 2964)
        assert result.counters.pl_items_fetched == 532
        assert result.plan.observed_postings == 532
        assert result.result_tuples() == engine.discover(query).result_tuples()

    def test_counting_fetches_nothing_and_the_ledger_holds(self, plan_config):
        """The counts are no fetches: the budget and the index see only the
        seed column's probe values."""
        corpus, query = _build_drift_scenario(ExperimentSettings(corpus_scale=0.3))
        counting = CountingIndex(build_index(corpus, config=plan_config))
        engine = MateDiscovery(corpus, counting, config=plan_config)
        for limit in (40, 10_000):
            counting.fetched_values = 0
            budget = RequestBudget(max_pl_fetches=limit)
            result = engine.discover(
                query, k=plan_config.k, budget=budget,
                planner=PlannerOptions(mode="cost"),
            )
            assert counting.fetched_values == min(limit, 192)
            assert limit - budget.remaining_pl_fetches == counting.fetched_values
            assert result.complete == (limit >= 192)

    @pytest.mark.parametrize("engine", ["mate", "scr", "live"])
    @pytest.mark.parametrize("build", [_build_skew_scenario, _build_drift_scenario])
    def test_cost_answers_what_selector_answers(self, plan_config, engine, build):
        """On every in-process engine that runs the planner; the live index
        holds a sealed segment a tombstone masks, which counts its visible
        postings only."""
        corpus, query = build(ExperimentSettings(corpus_scale=0.3))
        index = None
        if engine == "live":
            index = LiveIndex(config=plan_config)
            # Table 99 holds probe values of the seed column.
            gone = Table(99, "gone", ["a"], [["a000"], ["c000"]])
            for table in [*corpus, gone]:
                index.add_table(table)
            index.seal()
            index.remove_table(99)
        with DiscoverySession(corpus, index, config=plan_config) as session:
            answers = [
                session.discover(
                    DiscoveryRequest(query=query, engine=engine, planner=options)
                )
                for options in (PlannerOptions(), PlannerOptions(mode="cost"))
            ]
        selector, cost = answers
        assert cost.plan_explain()["seed_column"] in {"cold", "alt"}
        assert cost.result_tuples() == selector.result_tuples()
        assert [table.column_mapping for table in cost.response.tables] == [
            table.column_mapping for table in selector.response.tables
        ]

    def test_plan_document_carries_the_exact_counts(self, plan_config):
        corpus, query = _build_skew_scenario(ExperimentSettings(corpus_scale=0.3))
        with DiscoverySession(corpus, config=plan_config) as session:
            result = session.discover(
                DiscoveryRequest(query=query, planner=PlannerOptions(mode="cost"))
            )
        plan = json.loads(json.dumps(result.to_dict()))["plan"]
        assert plan["seed_column"] == "cold"
        assert plan["seed"] == {"column": "cold", "probe_count": 48, "postings": 108}
        assert [entry["column"] for entry in plan["alternatives"]] == ["hot"]
        assert plan["observed_postings"] == 108
        for removed in ("executed_seed_column", "discarded_postings", "replans"):
            assert removed not in plan


class TestStageAccounting:
    def test_all_four_stages_are_recorded(self, workload, index, plan_config):
        engine = MateDiscovery(workload.corpus, index, config=plan_config)
        result = engine.discover(workload.queries[0])
        assert set(result.counters.stages) == set(PIPELINE_STAGES)
        generation = result.counters.stages["candidate_generation"]
        assert generation.calls == 1
        assert generation.items_out == result.counters.pl_items_fetched
        # Every stage runs once per request.  The prefilter's volume is the
        # postings of the tables the replay evaluated, some of which rule
        # 2's cuts left unchecked.
        counters = result.counters
        prefilter = counters.stages["superkey_prefilter"]
        assert prefilter.calls == 1
        assert counters.tables_pruned_by_rule2 > 0
        assert counters.rows_checked < prefilter.items_in <= counters.pl_items_fetched
        assert all(
            stats.seconds >= 0.0 for stats in result.counters.stages.values()
        )

    def test_stage_stats_merge(self, workload, index, plan_config):
        engine = MateDiscovery(workload.corpus, index, config=plan_config)
        first = engine.discover(workload.queries[0]).counters
        second = engine.discover(workload.queries[1]).counters
        expected_calls = (
            first.stages["topk_maintenance"].calls
            + second.stages["topk_maintenance"].calls
        )
        first.merge(second)
        assert first.stages["topk_maintenance"].calls == expected_calls

    def test_session_result_serialises_stages_and_plan(self, workload, plan_config):
        import json

        with DiscoverySession(workload.corpus, config=plan_config) as session:
            result = session.discover(
                DiscoveryRequest(
                    query=workload.queries[0], planner=PlannerOptions(mode="cost")
                )
            )
        document = result.to_dict()
        assert document["schema_version"] == 3
        assert document["request"]["planner_mode"] == "cost"
        assert set(document["stages"]) == set(PIPELINE_STAGES)
        assert document["plan"]["mode"] == "cost"
        assert document["plan"]["seed_column"]
        # v1 fields must survive the bump.
        for key in ("engine", "system", "k", "complete", "tables", "counters"):
            assert key in document
        json.dumps(document)  # and the whole envelope stays serialisable


class TestSessionPlannerDispatch:
    def test_planner_options_ride_the_session(self, workload, plan_config):
        with DiscoverySession(workload.corpus, config=plan_config) as session:
            query = workload.queries[0]
            default = session.discover(DiscoveryRequest(query=query))
            cost = session.discover(
                DiscoveryRequest(query=query, planner=PlannerOptions(mode="cost"))
            )
            assert default.plan_explain()["mode"] == "selector"
            assert cost.plan_explain()["mode"] == "cost"
            assert [j for _, j in default.result_tuples()] == [
                j for _, j in cost.result_tuples()
            ]

    def test_submit_accepts_planner_options(self, workload, plan_config):
        with DiscoverySession(workload.corpus, config=plan_config) as session:
            request = DiscoveryRequest(
                query=workload.queries[0], planner=PlannerOptions(mode="cost")
            )
            submitted = session.submit(request).result()
            assert submitted.complete
            assert submitted.plan_explain()["mode"] == "cost"
            assert submitted.result_tuples() == (
                session.discover(request).result_tuples()
            )

    def test_non_planner_engine_refuses_options(self, workload, plan_config):
        with DiscoverySession(workload.corpus, config=plan_config) as session:
            request = DiscoveryRequest(
                query=workload.queries[0],
                engine="mcr",
                planner=PlannerOptions(mode="cost"),
            )
            with pytest.raises(DiscoveryError, match="planner options"):
                session.discover(request)

    def test_baseline_engines_still_serialise_without_plan(
        self, workload, plan_config
    ):
        with DiscoverySession(workload.corpus, config=plan_config) as session:
            result = session.discover(
                DiscoveryRequest(query=workload.queries[0], engine="mcr")
            )
        document = result.to_dict()
        assert document["plan"] is None
        assert document["stages"] == {}
