"""The planner/executor pipeline: options, planning, byte-identity, budgets.

The load-bearing guarantee of the refactor is pinned here: with re-planning
disabled, the executor's output is *byte-identical* to the pre-refactor
monolithic loop (kept verbatim as :func:`tests.helpers.legacy_discover`)
across every registered engine and the live index; planner knobs only ever
change which posting lists get fetched, never the reported scores; and the
request budget ledger covers fetches from every stage, including re-planned
seed fetches.
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
from repro.datamodel import TableCorpus
from repro.exceptions import ConfigurationError, DiscoveryError
from repro.experiments.scenarios import (
    _build_drift_scenario,
    _build_skew_scenario,
    PLANNER_CHECK_EVERY,
    PLANNER_REPLAN_FACTOR,
    PLANNER_SAMPLE_SIZE,
)
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


def adaptive_options() -> PlannerOptions:
    return PlannerOptions(
        mode="adaptive",
        sample_size=PLANNER_SAMPLE_SIZE,
        replan_check_every=PLANNER_CHECK_EVERY,
        replan_factor=PLANNER_REPLAN_FACTOR,
    )


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
        assert not options.cost_based
        assert not options.adaptive

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PlannerOptions(mode="psychic")
        with pytest.raises(ConfigurationError):
            PlannerOptions(replan_factor=0.5)
        with pytest.raises(ConfigurationError):
            PlannerOptions(replan_check_every=0)
        with pytest.raises(ConfigurationError):
            PlannerOptions(sample_size=0)
        with pytest.raises(ConfigurationError):
            PlannerOptions(fetch_weight=-1.0)

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
        columns = [plan.seed.column, *(c.column for c in plan.alternatives)]
        assert sorted(columns) == sorted(query.key_columns)
        costs = [plan.seed.cost, *(c.cost for c in plan.alternatives)]
        assert costs == sorted(costs)

    def test_cost_mode_picks_the_cold_column_on_skew(self, plan_config):
        corpus, query = _build_skew_scenario(ExperimentSettings(corpus_scale=0.3))
        index = build_index(corpus, config=plan_config)
        engine = MateDiscovery(corpus, index, config=plan_config)
        plan = Planner(engine, PlannerOptions(mode="cost")).plan(query)
        assert plan.seed.column == "cold"
        # The classic cardinality heuristic walks into the hot column.
        assert engine.column_selector(query, index) == "hot"


class TestByteIdentityAllEngines:
    """With re-planning disabled, output == the pre-refactor loop, everywhere."""

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
            legacy_discover(engine, query, seed_column=result.plan.seed_column)
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


class TestAdaptiveExecution:
    def test_adaptive_replans_and_keeps_exact_topk(self, plan_config):
        corpus, query = _build_drift_scenario(ExperimentSettings(corpus_scale=0.3))
        index = build_index(corpus, config=plan_config)
        engine = MateDiscovery(corpus, index, config=plan_config)
        baseline = engine.discover(query, k=plan_config.k)
        adaptive = engine.discover(
            query, k=plan_config.k, planner=adaptive_options()
        )
        assert adaptive.plan is not None
        assert len(adaptive.plan.replans) == 1
        assert adaptive.plan.seed_column == "alt"
        assert adaptive.plan.replans[0].from_column == "trap"
        assert adaptive.result_tuples() == baseline.result_tuples()
        assert adaptive.counters.extra["replans"] == 1.0
        assert adaptive.plan.discarded_postings > 0

    def test_replans_reach_the_json_document(self, plan_config):
        corpus, query = _build_drift_scenario(ExperimentSettings(corpus_scale=0.3))
        with DiscoverySession(corpus, config=plan_config) as session:
            result = session.discover(
                DiscoveryRequest(query=query, planner=adaptive_options())
            )
        document = json.loads(json.dumps(result.to_dict()))
        (replan,) = document["plan"]["replans"]
        assert replan["from_column"] == "trap"
        assert replan["to_column"] == "alt"
        assert replan["values_fetched"] > 0
        assert replan["observed_postings"] > replan["estimated_postings"]

    def test_replanned_run_cannot_exceed_fetch_ledger(self, plan_config):
        """Regression: every stage's fetches count against ``max_pl_fetches``.

        The budget covers the first (abandoned) seed column *and* the
        re-planned one; the index wrapper independently counts what actually
        reached the index.
        """
        corpus, query = _build_drift_scenario(ExperimentSettings(corpus_scale=0.3))
        config = plan_config
        counting = CountingIndex(build_index(corpus, config=config))
        engine = MateDiscovery(corpus, counting, config=config)
        limit = PLANNER_CHECK_EVERY + 8  # replan happens, then the ledger dries up
        budget = RequestBudget(max_pl_fetches=limit)
        result = engine.discover(
            query, k=config.k, budget=budget, planner=adaptive_options()
        )
        assert result.plan is not None and len(result.plan.replans) == 1
        assert counting.fetched_values <= limit
        assert budget.remaining_pl_fetches == 0
        assert budget.exhausted
        assert result.counters.budget_exhausted == 1
        assert not result.complete

    def test_adaptive_with_ample_budget_charges_all_attempts(self, plan_config):
        corpus, query = _build_drift_scenario(ExperimentSettings(corpus_scale=0.3))
        counting = CountingIndex(build_index(corpus, config=plan_config))
        engine = MateDiscovery(corpus, counting, config=plan_config)
        budget = RequestBudget(max_pl_fetches=10_000)
        engine.discover(
            query, k=plan_config.k, budget=budget, planner=adaptive_options()
        )
        assert 10_000 - budget.remaining_pl_fetches == counting.fetched_values


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
        assert document["schema_version"] == 2
        assert document["request"]["planner_mode"] == "cost"
        assert set(document["stages"]) == set(PIPELINE_STAGES)
        assert document["plan"]["mode"] == "cost"
        assert document["plan"]["executed_seed_column"]
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
