"""Tests for Greedy B (the paper's non-oblivious greedy, Theorem 1)."""

from __future__ import annotations

import pytest

from repro.core.exact import exact_diversify
from repro.core.greedy import greedy_diversify
from repro.core.objective import Objective
from repro.data.synthetic import make_synthetic_instance
from repro.exceptions import InvalidParameterError
from repro.functions.coverage import CoverageFunction
from repro.functions.facility_location import FacilityLocationFunction
from repro.functions.modular import ModularFunction, ZeroFunction
from repro.metrics.discrete import UniformRandomMetric
from repro.metrics.matrix import DistanceMatrix

import numpy as np


class TestBasics:
    def test_selects_requested_cardinality(self, synthetic_objective_20):
        result = greedy_diversify(synthetic_objective_20, 6)
        assert result.size == 6
        assert len(result.order) == 6
        assert set(result.order) == set(result.selected)

    def test_p_zero_returns_empty(self, synthetic_objective_20):
        result = greedy_diversify(synthetic_objective_20, 0)
        assert result.size == 0
        assert result.objective_value == 0.0

    def test_p_larger_than_universe_clamped(self, small_objective):
        result = greedy_diversify(small_objective, 10)
        assert result.size == 4

    def test_p_one_picks_best_potential_element(self, small_objective):
        result = greedy_diversify(small_objective, 1)
        # With S = ∅ the potential is ½·w(u); element 0 has the largest weight.
        assert result.selected == frozenset({0})

    def test_objective_value_matches_reported_components(self, synthetic_objective_20):
        result = greedy_diversify(synthetic_objective_20, 5)
        assert result.objective_value == pytest.approx(
            result.quality_value
            + synthetic_objective_20.tradeoff * result.dispersion_value
        )
        assert result.objective_value == pytest.approx(
            synthetic_objective_20.value(result.selected)
        )

    def test_candidate_restriction_respected(self, synthetic_objective_20):
        candidates = [0, 1, 2, 3, 4, 5]
        result = greedy_diversify(synthetic_objective_20, 3, candidates=candidates)
        assert result.selected <= set(candidates)

    def test_invalid_candidate_rejected(self, synthetic_objective_20):
        with pytest.raises(InvalidParameterError):
            greedy_diversify(synthetic_objective_20, 3, candidates=[0, 99])

    def test_unknown_start_rejected(self, synthetic_objective_20):
        with pytest.raises(InvalidParameterError):
            greedy_diversify(synthetic_objective_20, 3, start="random")

    def test_negative_p_rejected(self, synthetic_objective_20):
        with pytest.raises(InvalidParameterError):
            greedy_diversify(synthetic_objective_20, -1)

    def test_deterministic(self, synthetic_objective_20):
        first = greedy_diversify(synthetic_objective_20, 5)
        second = greedy_diversify(synthetic_objective_20, 5)
        assert first.selected == second.selected
        assert first.order == second.order


class TestVariants:
    def test_best_pair_start_contains_best_pair(self, synthetic_objective_20):
        objective = synthetic_objective_20
        best_pair = max(
            (
                (objective.pair_value(x, y), (x, y))
                for x in range(objective.n)
                for y in range(x + 1, objective.n)
            )
        )[1]
        result = greedy_diversify(objective, 5, start="best_pair")
        assert set(best_pair) <= result.selected

    def test_best_pair_with_p_one_falls_back(self, synthetic_objective_20):
        result = greedy_diversify(synthetic_objective_20, 1, start="best_pair")
        assert result.size == 1

    def test_oblivious_variant_differs_in_name(self, synthetic_objective_20):
        result = greedy_diversify(synthetic_objective_20, 4, oblivious=True)
        assert "oblivious" in result.algorithm
        assert result.size == 4

    def test_modular_fast_path_matches_generic_path(self):
        # The same instance run with a modular function and with an equivalent
        # non-modular wrapper must select the same elements in the same order.
        instance = make_synthetic_instance(15, seed=3)
        objective_fast = instance.objective

        class OpaqueModular(ModularFunction):
            @property
            def is_modular(self) -> bool:  # force the generic per-element path
                return False

        objective_slow = Objective(
            OpaqueModular(instance.weights), instance.metric, instance.tradeoff
        )
        fast = greedy_diversify(objective_fast, 6)
        slow = greedy_diversify(objective_slow, 6)
        assert fast.order == slow.order
        assert fast.selected == slow.selected
        assert fast.objective_value == pytest.approx(slow.objective_value)


class TestApproximationGuarantee:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_two_approximation_on_synthetic_modular(self, seed, p):
        instance = make_synthetic_instance(12, seed=seed)
        objective = instance.objective
        greedy = greedy_diversify(objective, p)
        optimum = exact_diversify(objective, p, method="enumerate")
        assert greedy.objective_value >= optimum.objective_value / 2 - 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_approximation_with_submodular_quality(self, seed):
        metric = UniformRandomMetric(10, seed=seed)
        coverage = CoverageFunction.random(10, 6, seed=seed)
        objective = Objective(coverage, metric, tradeoff=0.3)
        greedy = greedy_diversify(objective, 4)
        optimum = exact_diversify(objective, 4, method="enumerate")
        assert greedy.objective_value >= optimum.objective_value / 2 - 1e-9

    def test_two_approximation_with_facility_location(self):
        rng = np.random.default_rng(7)
        metric = UniformRandomMetric(9, seed=1)
        facility = FacilityLocationFunction(rng.uniform(0, 1, size=(9, 9)))
        objective = Objective(facility, metric, tradeoff=0.5)
        greedy = greedy_diversify(objective, 3)
        optimum = exact_diversify(objective, 3, method="enumerate")
        assert greedy.objective_value >= optimum.objective_value / 2 - 1e-9

    def test_pure_dispersion_special_case(self):
        # f ≡ 0: Greedy B degenerates to the Ravi et al. dispersion greedy.
        metric = UniformRandomMetric(12, seed=5)
        objective = Objective(ZeroFunction(12), metric, tradeoff=1.0)
        greedy = greedy_diversify(objective, 4)
        optimum = exact_diversify(objective, 4, method="enumerate")
        assert greedy.objective_value >= optimum.objective_value / 2 - 1e-9

    def test_exact_when_p_equals_n(self):
        metric = DistanceMatrix(UniformRandomMetric(6, seed=8).to_matrix())
        objective = Objective(ModularFunction([1.0] * 6), metric, tradeoff=0.4)
        greedy = greedy_diversify(objective, 6)
        assert greedy.objective_value == pytest.approx(objective.value(range(6)))
