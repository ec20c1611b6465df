"""Tests for the matroid local search (Theorem 2) and the LS refinement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exact import exact_diversify
from repro.core.greedy import greedy_diversify
from repro.core.local_search import (
    LocalSearchConfig,
    local_search_diversify,
    refine_with_local_search,
)
from repro.core.objective import Objective
from repro.data.synthetic import make_synthetic_instance
from repro.exceptions import InvalidParameterError
from repro.functions.coverage import CoverageFunction
from repro.functions.modular import ModularFunction
from repro.matroids.partition import PartitionMatroid
from repro.matroids.transversal import TransversalMatroid
from repro.matroids.uniform import UniformMatroid
from repro.metrics.discrete import UniformRandomMetric
from repro.metrics.matrix import DistanceMatrix


class TestLocalSearchBasics:
    def test_returns_a_basis(self, synthetic_objective_20):
        matroid = UniformMatroid(20, 5)
        result = local_search_diversify(synthetic_objective_20, matroid)
        assert matroid.is_basis(result.selected)
        assert result.algorithm == "local_search"

    def test_local_optimality(self, synthetic_objective_20):
        matroid = UniformMatroid(20, 4)
        result = local_search_diversify(synthetic_objective_20, matroid)
        selected = set(result.selected)
        for incoming in range(20):
            if incoming in selected:
                continue
            for outgoing in matroid.swap_candidates(selected, incoming):
                gain = synthetic_objective_20.swap_gain(selected, incoming, outgoing)
                assert gain <= 1e-9

    def test_respects_partition_matroid(self):
        instance = make_synthetic_instance(12, seed=0)
        blocks = [i % 3 for i in range(12)]
        matroid = PartitionMatroid(blocks, {0: 2, 1: 2, 2: 2})
        result = local_search_diversify(instance.objective, matroid)
        assert matroid.is_independent(result.selected)
        assert result.size == matroid.rank()

    def test_respects_transversal_matroid(self):
        instance = make_synthetic_instance(8, seed=1)
        matroid = TransversalMatroid(8, [[0, 1, 2], [2, 3, 4], [5, 6, 7]])
        result = local_search_diversify(instance.objective, matroid)
        assert matroid.is_independent(result.selected)
        assert result.size == 3

    def test_initial_solution_used(self, synthetic_objective_20):
        matroid = UniformMatroid(20, 4)
        result = local_search_diversify(
            synthetic_objective_20, matroid, initial=[0, 1, 2, 3]
        )
        assert result.size == 4

    def test_initial_solution_must_be_independent(self, synthetic_objective_20):
        matroid = UniformMatroid(20, 2)
        with pytest.raises(InvalidParameterError):
            local_search_diversify(
                synthetic_objective_20, matroid, initial=[0, 1, 2]
            )

    def test_rank_one_matroid(self, small_objective):
        matroid = UniformMatroid(4, 1)
        result = local_search_diversify(small_objective, matroid)
        assert result.size == 1

    def test_max_swaps_cap(self, synthetic_objective_20):
        matroid = UniformMatroid(20, 5)
        config = LocalSearchConfig(max_swaps=0)
        result = local_search_diversify(synthetic_objective_20, matroid, config=config)
        assert result.iterations == 0

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            LocalSearchConfig(epsilon=-0.1)
        with pytest.raises(InvalidParameterError):
            LocalSearchConfig(max_swaps=-1)
        with pytest.raises(InvalidParameterError):
            LocalSearchConfig(time_budget_seconds=-1.0)

    def test_first_improvement_mode_terminates(self, synthetic_objective_20):
        matroid = UniformMatroid(20, 4)
        config = LocalSearchConfig(first_improvement=True)
        result = local_search_diversify(synthetic_objective_20, matroid, config=config)
        assert matroid.is_basis(result.selected)

    @pytest.mark.parametrize("seed", range(3))
    def test_modular_weights_match_protocol_gains(self, seed):
        # The same weights read as a weight vector and through the batched
        # marginal-gain protocol (a wrapper hiding modularity) must take the
        # same swaps on the kernel scan.
        rng = np.random.default_rng(seed)
        metric = DistanceMatrix.from_points(rng.normal(size=(40, 3)))
        weights = rng.uniform(0.0, 5.0, size=40)

        class OpaqueModular(ModularFunction):
            @property
            def is_modular(self) -> bool:
                return False

        blocks = [u % 4 for u in range(40)]
        matroid = PartitionMatroid(blocks, {b: 2 for b in range(4)})
        modular = local_search_diversify(
            Objective(ModularFunction(weights), metric, 0.7), matroid
        )
        opaque = local_search_diversify(
            Objective(OpaqueModular(weights), metric, 0.7), matroid
        )
        assert modular.metadata["swaps"]
        assert len(modular.metadata["swaps"]) == len(opaque.metadata["swaps"])
        for (u, v, gain), (x, y, other) in zip(
            modular.metadata["swaps"], opaque.metadata["swaps"]
        ):
            assert (u, v) == (x, y)
            assert gain == pytest.approx(other, abs=1e-9)
        assert modular.selected == opaque.selected
        assert modular.objective_value == pytest.approx(
            opaque.objective_value, abs=1e-9
        )


class TestApproximationGuarantee:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_two_approximation_uniform_matroid(self, seed):
        instance = make_synthetic_instance(10, seed=seed)
        objective = instance.objective
        matroid = UniformMatroid(10, 4)
        local = local_search_diversify(objective, matroid)
        optimum = exact_diversify(objective, 4, method="enumerate")
        assert local.objective_value >= optimum.objective_value / 2 - 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_approximation_partition_matroid(self, seed):
        instance = make_synthetic_instance(9, seed=seed)
        objective = instance.objective
        blocks = [i % 3 for i in range(9)]
        matroid = PartitionMatroid(blocks, {0: 1, 1: 1, 2: 1})
        local = local_search_diversify(objective, matroid)
        optimum = exact_diversify(objective, matroid=matroid)
        assert local.objective_value >= optimum.objective_value / 2 - 1e-9

    def test_two_approximation_with_submodular_quality(self):
        metric = UniformRandomMetric(9, seed=5)
        coverage = CoverageFunction.random(9, 6, seed=2)
        objective = Objective(coverage, metric, tradeoff=0.4)
        matroid = PartitionMatroid([i % 3 for i in range(9)], {0: 1, 1: 2, 2: 1})
        local = local_search_diversify(objective, matroid)
        optimum = exact_diversify(objective, matroid=matroid)
        assert local.objective_value >= optimum.objective_value / 2 - 1e-9


class TestRefinement:
    def test_refine_never_worse_than_seed(self, synthetic_objective_20):
        seed_result = greedy_diversify(synthetic_objective_20, 5)
        refined = refine_with_local_search(synthetic_objective_20, seed_result, p=5)
        assert refined.objective_value >= seed_result.objective_value - 1e-9
        assert refined.size == 5

    def test_refine_keeps_cardinality(self, synthetic_objective_20):
        seed_result = greedy_diversify(synthetic_objective_20, 7)
        refined = refine_with_local_search(synthetic_objective_20, seed_result)
        assert refined.size == 7

    def test_refine_metadata_records_seed(self, synthetic_objective_20):
        seed_result = greedy_diversify(synthetic_objective_20, 4)
        refined = refine_with_local_search(synthetic_objective_20, seed_result, p=4)
        assert refined.metadata["seed_algorithm"] == seed_result.algorithm
        assert refined.metadata["budget_seconds"] > 0

    def test_refine_rejects_negative_budget(self, synthetic_objective_20):
        seed_result = greedy_diversify(synthetic_objective_20, 4)
        with pytest.raises(InvalidParameterError):
            refine_with_local_search(
                synthetic_objective_20, seed_result, time_budget_multiple=-1.0
            )

    def test_refine_reaches_local_optimum_on_small_instance(self):
        instance = make_synthetic_instance(8, seed=9)
        objective = instance.objective
        seed_result = greedy_diversify(objective, 3)
        refined = refine_with_local_search(
            objective, seed_result, p=3, time_budget_multiple=1000.0
        )
        optimum = exact_diversify(objective, 3, method="enumerate")
        assert refined.objective_value >= optimum.objective_value / 2 - 1e-9
