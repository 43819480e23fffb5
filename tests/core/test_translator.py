"""Tests for the accuracy translator (mechanism selection)."""

import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import MechanismError, TranslationError
from repro.core.translator import AccuracyTranslator, SelectionMode
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.registry import MechanismRegistry, default_registry
from repro.mechanisms.strategy_mechanism import StrategyMechanism
from repro.queries.builders import (
    histogram_workload,
    point_workload,
    prefix_workload,
)
from repro.queries.query import (
    IcebergCountingQuery,
    QueryKind,
    TopKCountingQuery,
    WorkloadCountingQuery,
)


@pytest.fixture()
def translator() -> AccuracyTranslator:
    return AccuracyTranslator(default_registry(mc_samples=500))


class TestTranslations:
    def test_all_applicable_mechanisms_translated(self, translator, adult_small):
        query = IcebergCountingQuery(
            histogram_workload("capital_gain", start=0, stop=5000, bins=10),
            threshold=100,
        )
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        translations = translator.translations(query, accuracy, adult_small.schema)
        assert {m.name for m, _ in translations} == {"ICQ-LM", "ICQ-SM", "ICQ-MPM"}

    def test_empty_registry_raises(self, adult_small):
        translator = AccuracyTranslator(MechanismRegistry())
        query = WorkloadCountingQuery(point_workload("age", [1.0]))
        with pytest.raises(TranslationError):
            translator.translations(query, AccuracySpec(alpha=10), adult_small.schema)


class TestChoice:
    def test_picks_laplace_for_disjoint_histogram(self, translator, adult_small,
                                                  capital_gain_histogram_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        choice = translator.choose(
            capital_gain_histogram_query, accuracy, adult_small.schema
        )
        assert choice.mechanism.name == "WCQ-LM"

    def test_picks_strategy_for_prefix_workload(self, translator, adult_small,
                                                capital_gain_prefix_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        choice = translator.choose(
            capital_gain_prefix_query, accuracy, adult_small.schema
        )
        assert choice.mechanism.name == "WCQ-SM"

    def test_optimistic_prefers_multi_poking(self, adult_small, capital_gain_iceberg_query):
        translator = AccuracyTranslator(
            default_registry(mc_samples=500), SelectionMode.OPTIMISTIC
        )
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        choice = translator.choose(
            capital_gain_iceberg_query, accuracy, adult_small.schema
        )
        assert choice.mechanism.name == "ICQ-MPM"

    def test_pessimistic_avoids_multi_poking(self, adult_small, capital_gain_iceberg_query):
        translator = AccuracyTranslator(
            default_registry(mc_samples=500), SelectionMode.PESSIMISTIC
        )
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        choice = translator.choose(
            capital_gain_iceberg_query, accuracy, adult_small.schema
        )
        assert choice.mechanism.name != "ICQ-MPM"

    def test_tcq_choice_depends_on_sensitivity(self, translator, adult_small):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        disjoint = TopKCountingQuery(
            point_workload("age", [float(a) for a in range(17, 91)]), k=10
        )
        overlapping = TopKCountingQuery(
            prefix_workload("capital_gain", [100.0 * i for i in range(1, 51)]), k=10
        )
        assert translator.choose(disjoint, accuracy, adult_small.schema).mechanism.name == "TCQ-LM"
        assert (
            translator.choose(overlapping, accuracy, adult_small.schema).mechanism.name
            == "TCQ-LTM"
        )

    def test_budget_filter(self, translator, adult_small, capital_gain_histogram_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        unconstrained = translator.choose(
            capital_gain_histogram_query, accuracy, adult_small.schema
        )
        assert (
            translator.choose(
                capital_gain_histogram_query,
                accuracy,
                adult_small.schema,
                budget_remaining=unconstrained.epsilon_upper / 2,
            )
            is None
        )

    def test_budget_filter_admits_cheaper_mechanism(self, translator, adult_small,
                                                    capital_gain_prefix_query):
        """When the cheapest-by-lower-bound option does not fit, a cheaper one is used."""
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        translations = dict(
            (m.name, t)
            for m, t in translator.translations(
                capital_gain_prefix_query, accuracy, adult_small.schema
            )
        )
        lm_eps = translations["WCQ-LM"].epsilon_upper
        sm_eps = translations["WCQ-SM"].epsilon_upper
        # allow only the strategy mechanism
        budget = (lm_eps + sm_eps) / 2 if sm_eps < lm_eps else sm_eps * 1.01
        choice = translator.choose(
            capital_gain_prefix_query,
            accuracy,
            adult_small.schema,
            budget_remaining=budget,
        )
        assert choice is not None
        assert choice.mechanism.name == "WCQ-SM"

    def test_candidates_reported(self, translator, adult_small, capital_gain_iceberg_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        choice = translator.choose(
            capital_gain_iceberg_query, accuracy, adult_small.schema
        )
        assert len(choice.candidates) == 3
        assert choice.epsilon_lower <= choice.epsilon_upper

    def test_mode_exposed(self):
        translator = AccuracyTranslator(mode=SelectionMode.PESSIMISTIC)
        assert translator.mode is SelectionMode.PESSIMISTIC


class TestRegistryChanges:
    """A registry change is never answered by a list of the old mechanism set."""

    @staticmethod
    def _wcq(names=None) -> WorkloadCountingQuery:
        return WorkloadCountingQuery(prefix_workload("age", [30.0, 50.0], names=names))

    @staticmethod
    def _only_wcq_lm() -> MechanismRegistry:
        return MechanismRegistry(
            [LaplaceMechanism(name="WCQ-LM", kinds=frozenset({QueryKind.WCQ}))]
        )

    def test_generation_changes_on_every_register_and_unregister(self):
        registry = self._only_wcq_lm()
        seen = [registry.generation]
        registry.register(StrategyMechanism(mc_samples=64, name="WCQ-SM"))
        seen.append(registry.generation)
        registry.unregister("WCQ-LM")
        seen.append(registry.generation)
        assert len(set(seen)) == 3
        with pytest.raises(MechanismError):
            registry.unregister("WCQ-LM")
        assert registry.generation == seen[-1]

    def test_exact_and_token_tiers_follow_the_registry(self, adult_small):
        registry = self._only_wcq_lm()
        translator = AccuracyTranslator(registry)
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        query = self._wcq()

        def names(asked):
            return [m.name for m, _ in translator.translations(asked, accuracy, adult_small.schema)]

        assert names(query) == ["WCQ-LM"]

        registry.register(StrategyMechanism(mc_samples=64, name="WCQ-SM"))
        registry.unregister("WCQ-LM")
        # The same query and another query over the same matrix (one memo
        # key) both see the new mechanism set.
        renamed = self._wcq(names=["young", "middle"])
        for asked in (query, renamed):
            assert names(asked) == ["WCQ-SM"]
            choice = translator.choose(asked, accuracy, adult_small.schema)
            assert choice is not None and choice.mechanism.name == "WCQ-SM"
        assert translator.cache_stats["built"] == 2
