"""The engine-scoped element-feature table (``FeatureStore``).

Each schema is featurized once per (graph, revision, thesaurus): tokens,
path and leaf views and blocking keys are built on first use and shared
by every context an engine builds.  A mutation or an evolution must
invalidate exactly what it touched, and an engine must not keep a graph
alive just because it once matched it.
"""

import gc

from repro.core import ElementKind, SchemaElement
from repro.harmony import EngineConfig, HarmonyEngine, MatchContext, integrate_sources
from repro.harmony.voters.base import FeatureStore
from repro.text.thesaurus import Thesaurus


def _cells(matrix):
    return {(c.source_id, c.target_id): c.confidence for c in matrix.cells()}


def _first_table(graph):
    return next(e for e in graph if e.kind is ElementKind.TABLE)


def _evolve(graph):
    """Rename one attribute and add another under the first table."""
    evolved = graph.copy()
    table = _first_table(evolved)
    attribute = evolved.children(table.element_id)[0]
    attribute.name += "_renamed"
    evolved.revision += 1
    evolved.add_child(
        table.element_id,
        SchemaElement(f"{table.element_id}/freshColumn", "freshColumn",
                      ElementKind.ATTRIBUTE))
    return evolved, table, attribute


class TestFeatureTable:
    def test_record_built_once_per_graph_revision(self, orders_graph, notice_graph):
        store = FeatureStore()
        element = _first_table(orders_graph)
        first = MatchContext(orders_graph, notice_graph, features=store)
        record = first.features_of(element)
        second = MatchContext(orders_graph, notice_graph, features=store)
        assert second.features_of(element) is record
        assert store.builds == 2  # one table per graph

    def test_mutation_invalidates_record(self, orders_graph, notice_graph):
        store = FeatureStore()
        table = _first_table(orders_graph)
        context = MatchContext(orders_graph, notice_graph, features=store)
        before = context.features_of(table)
        assert "fresh" not in before.leaf_tokens
        orders_graph.add_child(
            table.element_id,
            SchemaElement(f"{table.element_id}/freshColumn", "freshColumn",
                          ElementKind.ATTRIBUTE))
        after = MatchContext(orders_graph, notice_graph, features=store)
        record = after.features_of(table)
        assert record is not before
        assert "fresh" in record.leaf_tokens
        assert store.builds == 3

    def test_thesaurus_change_invalidates_record(self, orders_graph, notice_graph):
        store = FeatureStore()
        thesaurus = Thesaurus.default()
        element = _first_table(orders_graph)
        context = MatchContext(orders_graph, notice_graph, thesaurus=thesaurus,
                               features=store)
        record = context.features_of(element)
        thesaurus.add_abbreviation("zzq", "zebra")
        fresh = MatchContext(orders_graph, notice_graph, thesaurus=thesaurus,
                             features=store)
        assert fresh.features_of(element) is not record

    def test_records_match_a_private_context(self, orders_graph, notice_graph):
        shared = MatchContext(orders_graph, notice_graph, features=FeatureStore())
        private = MatchContext(orders_graph, notice_graph)
        for graph in (orders_graph, notice_graph):
            for element in graph:
                a = shared.features_of(element, graph)
                b = private.features_of(element, graph)
                for slot in ("split", "expanded", "name_tokens",
                             "path_tokens", "leaf_tokens"):
                    assert getattr(a, slot) == getattr(b, slot)


class TestEngineScope:
    def test_rebuilt_context_reuses_records(self, orders_graph, notice_graph):
        """Without context reuse every match builds a new context, but
        the graphs are featurized only once."""
        engine = HarmonyEngine()
        first = _cells(engine.match(orders_graph, notice_graph).matrix)
        second = _cells(engine.match(orders_graph, notice_graph).matrix)
        assert engine.context_builds == 2
        assert engine.fastpath_stats()["feature_builds"] == 2
        assert first == second

    def test_evolve_then_rematch_equals_cold_match(self, orders_graph, notice_graph):
        engine = HarmonyEngine(config=EngineConfig.fast())
        engine.match(orders_graph, notice_graph)
        store = engine._features
        untouched = next(e for e in notice_graph  # target side unchanged
                         if e.kind is ElementKind.ATTRIBUTE)
        kept = store.table(notice_graph, engine._last_context.thesaurus)
        evolved, table, attribute = _evolve(orders_graph)
        warm = engine.rematch(evolved, notice_graph)
        cold = HarmonyEngine(config=EngineConfig.fast()).match(evolved, notice_graph)
        assert _cells(warm.matrix) == _cells(cold.matrix)
        stats = engine.fastpath_stats()
        assert stats["feature_builds"] == 2 and stats["feature_patches"] == 1
        # the evolution closure was re-featurized, the rest carried over
        context = warm.context
        assert context.features_of(attribute, evolved).split[-1] == "renamed"
        assert "fresh" in context.features_of(table, evolved).leaf_tokens
        assert context.features_of(untouched, notice_graph) is kept[untouched.element_id]

    def test_engine_does_not_pin_graphs(self, orders_graph, notice_graph):
        engine = HarmonyEngine(config=EngineConfig.fast())
        gone_source = orders_graph.copy("gone_orders")
        gone_target = notice_graph.copy("gone_notice")
        engine.match(gone_source, gone_target)
        engine.match(orders_graph, notice_graph)
        assert len(engine._features) == 4
        del gone_source, gone_target
        gc.collect()
        # only the last match's graphs (held by the reusable context) stay
        assert len(engine._features) == 2

    def test_each_schema_featurized_once_per_integration(self):
        from repro.baselines.base import HarmonyMatcher
        from repro.eval import ScenarioConfig, commerce_model, generate_scenario

        schemas = [
            generate_scenario(
                commerce_model(),
                ScenarioConfig(seed=seed, drop_rate=0.0, noise_attributes=0.0),
            ).target.copy(name=f"sys{seed}")
            for seed in range(6)
        ]
        engine = HarmonyEngine(config=EngineConfig.fast())
        result = integrate_sources(schemas, matcher=HarmonyMatcher(engine))
        assert len(result.matrices) == 15
        assert engine.fastpath_stats()["feature_builds"] == len(schemas)

    def test_pickled_engine_arrives_with_cold_store(self, orders_graph, notice_graph):
        import pickle

        engine = HarmonyEngine(config=EngineConfig.fast())
        engine._features.table(orders_graph, Thesaurus.default())
        clone = pickle.loads(pickle.dumps(engine))
        assert len(clone._features) == 0
