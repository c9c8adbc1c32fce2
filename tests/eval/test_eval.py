"""Tests for the evaluation package: metrics, scenarios, harness."""

import pytest

from repro.baselines import NameEqualityMatcher
from repro.core import MappingMatrix
from repro.eval import (
    Alignment,
    DOC_NONE,
    DOC_SOURCE_ONLY,
    SELECT_BEST_PER_SOURCE,
    SELECT_THRESHOLD,
    ScenarioConfig,
    commerce_model,
    evaluate_matrix,
    evaluate_pairs,
    generate_scenario,
    precision_recall_curve,
    run_suite,
    select_pairs,
    standard_suite,
)


class TestAlignment:
    def test_basic_ops(self):
        alignment = Alignment()
        alignment.add("a", "x")
        alignment.add("b", "y")
        assert len(alignment) == 2
        assert ("a", "x") in alignment
        assert alignment.sources() == {"a", "b"}
        assert alignment.targets() == {"x", "y"}

    def test_restrict(self):
        alignment = Alignment(pairs={("a", "x"), ("b", "y")})
        restricted = alignment.restrict(source_ids={"a"})
        assert restricted.pairs == {("a", "x")}

    def test_union(self):
        a = Alignment(pairs={("a", "x")})
        b = Alignment(pairs={("b", "y")})
        assert len(a.union(b)) == 2


class TestMetrics:
    def test_perfect_prediction(self):
        truth = Alignment(pairs={("a", "x"), ("b", "y")})
        quality = evaluate_pairs([("a", "x"), ("b", "y")], truth)
        assert quality.precision == 1.0
        assert quality.recall == 1.0
        assert quality.f1 == 1.0
        assert quality.overall == pytest.approx(1.0)

    def test_partial_prediction(self):
        truth = Alignment(pairs={("a", "x"), ("b", "y")})
        quality = evaluate_pairs([("a", "x"), ("c", "z")], truth)
        assert quality.precision == 0.5
        assert quality.recall == 0.5
        assert quality.overall == pytest.approx(0.0)  # recall*(2-1/0.5)

    def test_empty_prediction(self):
        truth = Alignment(pairs={("a", "x")})
        quality = evaluate_pairs([], truth)
        assert quality.precision == 1.0  # vacuous
        assert quality.recall == 0.0

    def test_overall_negative_when_imprecise(self):
        truth = Alignment(pairs={("a", "x")})
        quality = evaluate_pairs([("a", "x"), ("b", "y"), ("c", "z")], truth)
        assert quality.overall < 0.0

    def test_select_threshold_vs_best(self):
        matrix = MappingMatrix()
        for row in ("a", "b"):
            matrix.add_row(row)
        for col in ("x", "y"):
            matrix.add_column(col)
        matrix.set_confidence("a", "x", 0.9)
        matrix.set_confidence("a", "y", 0.6)
        matrix.set_confidence("b", "y", 0.2)
        threshold_pairs = set(select_pairs(matrix, SELECT_THRESHOLD, threshold=0.5))
        assert threshold_pairs == {("a", "x"), ("a", "y")}
        best_pairs = set(select_pairs(matrix, SELECT_BEST_PER_SOURCE))
        assert best_pairs == {("a", "x"), ("b", "y")}

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            select_pairs(MappingMatrix(), "magic")

    def test_precision_recall_curve_monotone_recall(self):
        matrix = MappingMatrix()
        matrix.add_row("a")
        matrix.add_column("x")
        matrix.set_confidence("a", "x", 0.7)
        truth = Alignment(pairs={("a", "x")})
        curve = precision_recall_curve(matrix, truth)
        recalls = [r for _, _, r in curve]
        assert recalls == sorted(recalls, reverse=True)


class TestScenarios:
    def test_deterministic(self):
        a = generate_scenario(commerce_model(), ScenarioConfig(seed=3))
        b = generate_scenario(commerce_model(), ScenarioConfig(seed=3))
        assert sorted(a.alignment) == sorted(b.alignment)
        assert sorted(a.target.element_ids) == sorted(b.target.element_ids)

    def test_alignment_ids_exist(self):
        scenario = generate_scenario(commerce_model(), ScenarioConfig(seed=3))
        for source_id, target_id in scenario.alignment:
            assert source_id in scenario.source
            assert target_id in scenario.target

    def test_graphs_validate(self):
        scenario = generate_scenario(commerce_model(), ScenarioConfig(seed=3))
        assert scenario.source.validate() == []
        assert scenario.target.validate() == []

    def test_doc_none_strips_documentation(self):
        scenario = generate_scenario(
            commerce_model(), ScenarioConfig(seed=3, documentation=DOC_NONE))
        assert all(not e.documentation for e in scenario.source)
        assert all(not e.documentation for e in scenario.target)

    def test_doc_source_only(self):
        scenario = generate_scenario(
            commerce_model(), ScenarioConfig(seed=3, documentation=DOC_SOURCE_ONLY))
        assert any(e.documentation for e in scenario.source)
        assert all(not e.documentation for e in scenario.target)

    def test_domains_strippable(self):
        from repro.core import ElementKind

        scenario = generate_scenario(
            commerce_model(), ScenarioConfig(seed=3, keep_domains=False))
        assert scenario.target.elements_of_kind(ElementKind.DOMAIN) == []

    def test_instances_attachable(self):
        scenario = generate_scenario(
            commerce_model(), ScenarioConfig(seed=3, attach_instances=True))
        annotated = [
            e for e in scenario.target if e.annotation("instance_values")
        ]
        assert annotated

    def test_no_instances_by_default(self):
        scenario = generate_scenario(commerce_model(), ScenarioConfig(seed=3))
        assert all(not e.annotation("instance_values") for e in scenario.target)

    def test_drop_rate_shrinks_target(self):
        keep_all = generate_scenario(commerce_model(), ScenarioConfig(seed=3, drop_rate=0.0,
                                                                      noise_attributes=0.0))
        drop_many = generate_scenario(commerce_model(), ScenarioConfig(seed=3, drop_rate=0.6,
                                                                       noise_attributes=0.0))
        assert len(drop_many.target) < len(keep_all.target)

    def test_registry_models_generate_despite_name_collisions(self):
        """Perturbed names that collide in one scope get a numeric suffix
        (12 of these 40 models used to raise DuplicateElementError)."""
        from repro.registry import RegistryProfile, generate_registry

        registry = generate_registry(
            seed=7, scale=1.0,
            profile=RegistryProfile.compact(
                40, elements_per_model=10, attributes_per_element=8))
        suffixed = []
        for i, model in enumerate(registry["models"]):
            scenario = generate_scenario(model, ScenarioConfig(seed=i))
            targets = [target for _, target in scenario.alignment]
            assert set(targets) <= set(scenario.target.element_ids)
            assert len(targets) == len(set(targets))
            suffixed.extend(t for t in targets if t.endswith("2")
                            and t[:-1] in scenario.target)
        # the first collision reported: two attributes perturbed to "day"
        assert ("model_0039_JointComponent_prime/primary_report/day2"
                in suffixed)
        assert len(suffixed) >= 12

    def test_standard_suite_shape(self):
        suite = standard_suite(seeds=(7,))
        assert len(suite) == 3  # three base models
        assert {s.name.split("@")[0] for s in suite} == {
            "air_traffic", "commerce", "personnel",
        }


class TestHarness:
    def test_run_suite_tabulates(self):
        suite = standard_suite(seeds=(7,))
        result = run_suite([NameEqualityMatcher()], suite)
        assert len(result.runs) == 3
        table = result.to_table("title")
        assert "name-equality" in table
        detail = result.to_detail_table()
        assert "commerce@7" in detail

    def test_mean_metrics(self):
        suite = standard_suite(seeds=(7,))
        result = run_suite([NameEqualityMatcher()], suite)
        mean_f1 = result.mean("name-equality", "f1")
        assert 0.0 <= mean_f1 <= 1.0
        assert result.mean("ghost", "f1") == 0.0

    def test_matcher_factory_fresh_instances(self):
        created = []

        def factory(matcher):
            fresh = NameEqualityMatcher()
            created.append(fresh)
            return fresh

        suite = standard_suite(seeds=(7,))
        run_suite([NameEqualityMatcher()], suite, matcher_factory=factory)
        assert len(created) == 3
