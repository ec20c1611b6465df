"""Event batches and the batched engine tick.

The load-bearing properties:

* a single-event batch through :meth:`DynamicDiversifier.apply_events` is
  *exactly* the legacy :meth:`DynamicDiversifier.apply` path — same solution,
  same swaps, same objective;
* the no-swap certificate never changes results (engines with the
  certificate on and off agree event for event);
* a multi-event tick applies the same instance mutations as the equivalent
  sequential stream and leaves a swap-stable solution when given budget;
* inserts and deletes round-trip the universe size and keep the solution
  feasible.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.dynamic.engine import DynamicDiversifier
from repro.dynamic.events import EventBatch, EventBatchBuilder
from repro.dynamic.perturbation import (
    DistanceDecrease,
    DistanceIncrease,
    WeightDecrease,
    WeightIncrease,
)
from repro.exceptions import PerturbationError

seeds = st.integers(min_value=0, max_value=10_000)


def _instance(n: int, seed: int):
    """Coarse-valued random instance: weights in {0.00 … 10.00}, distances in
    [1, 2] rounded to 2 decimals, so true swap gains are either exactly zero
    or ≥ ~1e-3 — far beyond the certificate's 1e-9 tolerance."""
    rng = np.random.default_rng(seed)
    weights = np.round(rng.uniform(0, 10, n), 2)
    distances = np.round(rng.uniform(1, 2, (n, n)), 2)
    distances = (distances + distances.T) / 2
    np.fill_diagonal(distances, 0.0)
    return weights, distances


def _random_perturbation(engine, rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return WeightIncrease(
            int(rng.integers(engine.n)), round(float(rng.uniform(0.1, 2)), 2)
        )
    if kind == 1:
        element = int(rng.integers(engine.n))
        current = engine.weight(element)
        if current < 0.05:
            return WeightIncrease(element, 0.5)
        return WeightDecrease(element, round(min(current * 0.5, 1.0), 3))
    u, v = map(int, rng.choice(engine.n, size=2, replace=False))
    if kind == 2:
        return DistanceIncrease(u, v, round(float(rng.uniform(0.01, 0.2)), 2))
    current = engine.distance(u, v)
    if current < 0.05:
        return DistanceIncrease(u, v, 0.1)
    return DistanceDecrease(u, v, round(min(current * 0.25, 0.2), 2))


class TestBuilderValidation:
    def test_rejects_bad_values(self):
        builder = EventBatchBuilder()
        with pytest.raises(PerturbationError):
            builder.set_weight(0, -1.0)
        with pytest.raises(PerturbationError):
            builder.set_weight(0, float("nan"))
        with pytest.raises(PerturbationError):
            builder.change_weight(0, 0.0)
        with pytest.raises(PerturbationError):
            builder.set_distance(1, 1, 2.0)
        with pytest.raises(PerturbationError):
            builder.change_distance(0, 1, float("inf"))
        with pytest.raises(PerturbationError):
            builder.insert(1.0, distances=np.ones(3), point=np.ones(2))

    def test_rejects_mixed_insert_representations(self):
        builder = EventBatchBuilder()
        builder.insert(1.0, distances=np.ones(3))
        builder.insert(1.0, point=np.ones(2))
        with pytest.raises(PerturbationError):
            builder.build()

    def test_counts_and_touched(self):
        builder = EventBatchBuilder()
        builder.change_weight(3, 1.0).set_weight(5, 2.0)
        builder.change_distance(1, 7, 0.5).set_distance(2, 4, 1.5)
        builder.delete(9)
        batch = builder.build()
        assert len(builder) == batch.num_events == 5
        assert not batch.is_empty
        assert batch.touched_elements().tolist() == [1, 2, 3, 4, 5, 7, 9]

    def test_from_perturbations_uses_deltas(self):
        batch = EventBatch.from_perturbations(
            [
                WeightIncrease(0, 1.0),
                WeightDecrease(1, 0.5),
                DistanceIncrease(2, 3, 0.1),
            ]
        )
        assert batch.weight_deltas.tolist() == [1.0, -0.5]
        assert batch.weight_set_elements.size == 0
        assert batch.distance_delta_pairs.tolist() == [[2, 3]]

    def test_batch_arrays_are_readonly(self):
        batch = EventBatch.from_perturbations([WeightIncrease(0, 1.0)])
        with pytest.raises(ValueError):
            batch.weight_deltas[0] = 2.0


class TestSingleEventEquivalence:
    @given(n=st.integers(min_value=8, max_value=16), seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_batched_tick_matches_legacy_apply(self, n, seed):
        weights, distances = _instance(n, seed)
        p = max(4, n // 3)
        legacy = DynamicDiversifier(weights, distances, p)
        batched = DynamicDiversifier(weights, distances, p)
        uncertified = DynamicDiversifier(weights, distances, p, use_certificate=False)
        rng = np.random.default_rng(seed + 1)
        for _ in range(30):
            perturbation = _random_perturbation(legacy, rng)
            expected = legacy.apply(perturbation)
            via_batch = batched.apply_events(
                EventBatch.from_perturbations([perturbation])
            )
            plain_scan = uncertified.apply(perturbation)
            assert via_batch.solution == expected.solution
            assert via_batch.swaps == expected.swaps
            assert via_batch.objective_value == pytest.approx(
                expected.objective_value, abs=1e-9
            )
            # The certificate can only skip scans it proves fruitless; the
            # certificate-free engine must land on the same trajectory.
            assert plain_scan.solution == expected.solution
            assert plain_scan.swaps == expected.swaps

    @given(n=st.integers(min_value=8, max_value=14), seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_explicit_update_budget_matches(self, n, seed):
        weights, distances = _instance(n, seed)
        p = max(3, n // 3)
        legacy = DynamicDiversifier(weights, distances, p)
        batched = DynamicDiversifier(weights, distances, p)
        rng = np.random.default_rng(seed + 2)
        for _ in range(15):
            perturbation = _random_perturbation(legacy, rng)
            expected = legacy.apply(perturbation, updates=1)
            actual = batched.apply_events(
                EventBatch.from_perturbations([perturbation]), updates=1
            )
            assert actual.solution == expected.solution
            assert actual.swaps == expected.swaps


class TestMultiEventTicks:
    @given(n=st.integers(min_value=10, max_value=16), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_tick_instance_state_matches_sequential(self, n, seed):
        """One multi-event tick mutates the instance exactly like the same
        events applied one at a time (resolution order: sets, then deltas)."""
        weights, distances = _instance(n, seed)
        p = 4
        ticked = DynamicDiversifier(weights, distances, p)
        stepped = DynamicDiversifier(weights, distances, p)
        rng = np.random.default_rng(seed + 3)
        builder = EventBatchBuilder()
        perturbations = []
        for _ in range(12):
            perturbation = _random_perturbation(stepped, rng)
            builder.add(perturbation)
            perturbations.append(perturbation)
            stepped.apply(perturbation)
        ticked.apply_events(builder.build(), updates=3 * p)
        for element in range(n):
            assert ticked.weight(element) == pytest.approx(
                stepped.weight(element), abs=1e-9
            )
        for u in range(n):
            for v in range(u + 1, n):
                assert ticked.distance(u, v) == pytest.approx(
                    stepped.distance(u, v), abs=1e-9
                )

    @given(n=st.integers(min_value=10, max_value=16), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_tick_with_budget_reaches_swap_stability(self, n, seed):
        weights, distances = _instance(n, seed)
        p = 4
        engine = DynamicDiversifier(weights, distances, p)
        # Generate against a sequentially-updated twin: repeated decreases on
        # one element must see each other, or their batched sum can push a
        # weight below zero and the tick correctly rejects it.
        shadow = DynamicDiversifier(weights, distances, p)
        rng = np.random.default_rng(seed + 4)
        builder = EventBatchBuilder()
        for _ in range(10):
            perturbation = _random_perturbation(shadow, rng)
            builder.add(perturbation)
            shadow.apply(perturbation)
        engine.apply_events(builder.build(), updates=5 * p)
        # No strictly improving single swap may remain.
        matrix = np.array([[engine.distance(u, v) for v in range(engine.n)]
                           for u in range(engine.n)])
        w = np.array([engine.weight(e) for e in range(engine.n)])
        inside, outside = kernels.solution_split(engine.n, engine.solution)
        margins = kernels.set_margins(matrix, inside)
        gains = kernels.swap_gain_matrix(
            kernels.weight_swap_gains(w, outside, inside),
            matrix,
            engine.tradeoff,
            margins,
            outside,
            inside,
        )
        assert kernels.best_swap_scan(gains, outside, inside) is None


class TestInsertDelete:
    @given(n=st.integers(min_value=8, max_value=14), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_insert_delete_round_trips_universe(self, n, seed):
        weights, distances = _instance(n, seed)
        p = 3
        engine = DynamicDiversifier(weights, distances, p)
        rng = np.random.default_rng(seed + 5)
        builder = EventBatchBuilder()
        inserts = int(rng.integers(1, 4))
        for i in range(inserts):
            row = np.round(rng.uniform(1, 2, n + i), 2)
            builder.insert(round(float(rng.uniform(0, 10)), 2), distances=row)
        outcome = engine.apply_events(builder.build())
        new_ids = outcome.metadata["inserted"]
        assert engine.n == n + inserts
        assert engine.active_count == n + inserts
        assert len(engine.solution) == p

        remover = EventBatchBuilder()
        for element in new_ids:
            remover.delete(element)
        outcome = engine.apply_events(remover.build())
        assert engine.active_count == n
        assert len(engine.solution) == p
        assert not set(new_ids) & engine.solution
        # Retired slots can never re-enter the solution until revived.
        assert set(engine.active_elements().tolist()) == set(range(n))

    def test_insert_reuses_retired_slot(self):
        weights, distances = _instance(10, 0)
        engine = DynamicDiversifier(weights, distances, 3)
        row = np.round(np.random.default_rng(1).uniform(1, 2, 10), 2)
        first = engine.apply_events(
            EventBatchBuilder().insert(5.0, distances=row).build()
        ).metadata["inserted"][0]
        engine.apply_events(EventBatchBuilder().delete(first).build())
        revived = engine.apply_events(
            EventBatchBuilder()
            .insert(2.0, distances=np.concatenate([row, [0.0]]))
            .build()
        ).metadata["inserted"][0]
        assert revived == first
        assert engine.weight(first) == 2.0

    def test_member_delete_refills_to_p(self):
        weights, distances = _instance(12, 3)
        engine = DynamicDiversifier(weights, distances, 4)
        victim = sorted(engine.solution)[0]
        outcome = engine.apply_events(EventBatchBuilder().delete(victim).build())
        assert victim not in engine.solution
        assert len(engine.solution) == 4
        assert outcome.metadata["refills"]

    def test_delete_below_p_rejected(self):
        weights, distances = _instance(5, 4)
        engine = DynamicDiversifier(weights, distances, 4)
        builder = EventBatchBuilder()
        builder.delete(0)
        builder.delete(1)
        with pytest.raises(PerturbationError):
            engine.apply_events(builder.build())

    def test_events_on_retired_slot_rejected(self):
        weights, distances = _instance(8, 5)
        engine = DynamicDiversifier(weights, distances, 3)
        engine.apply_events(EventBatchBuilder().delete(7).build())
        with pytest.raises(PerturbationError):
            engine.apply_events(EventBatchBuilder().change_weight(7, 1.0).build())
        with pytest.raises(PerturbationError):
            engine.apply_events(EventBatchBuilder().change_distance(0, 7, 0.1).build())

    def test_point_insert_rejected_by_dense_engine(self):
        weights, distances = _instance(8, 6)
        engine = DynamicDiversifier(weights, distances, 3)
        batch = EventBatchBuilder().insert(1.0, point=np.ones(3)).build()
        with pytest.raises(PerturbationError):
            engine.apply_events(batch)


class TestTickValidationRollsBack:
    def test_failed_distance_event_leaves_state_unchanged(self):
        weights, distances = _instance(10, 7)
        engine = DynamicDiversifier(weights, distances, 3)
        before_w = [engine.weight(e) for e in range(10)]
        before_d01 = engine.distance(0, 1)
        builder = EventBatchBuilder()
        builder.change_weight(2, 1.0)
        builder.change_distance(0, 1, -before_d01 - 5.0)  # would go negative
        with pytest.raises(PerturbationError):
            engine.apply_events(builder.build())
        assert [engine.weight(e) for e in range(10)] == before_w
        assert engine.distance(0, 1) == pytest.approx(before_d01)

    def test_weight_overdecrease_rejected_and_rolled_back(self):
        weights, distances = _instance(10, 8)
        engine = DynamicDiversifier(weights, distances, 3)
        target = int(np.argmax([engine.weight(e) for e in range(10)]))
        before = engine.weight(target)
        builder = EventBatchBuilder()
        builder.change_weight(target, -(before + 1.0))
        with pytest.raises(PerturbationError):
            engine.apply_events(builder.build())
        assert engine.weight(target) == pytest.approx(before)

    def test_aggregate_weight_decrease_schedules_multiple_updates(self):
        weights, distances = _instance(20, 9)
        engine = DynamicDiversifier(weights, distances, 6)
        members = sorted(engine.solution)[:3]
        builder = EventBatchBuilder()
        for member in members:
            current = engine.weight(member)
            if current > 0.1:
                builder.change_weight(member, -round(current * 0.9, 3))
        if not len(builder):
            pytest.skip("all sampled members had negligible weight")
        outcome = engine.apply_events(builder.build())
        assert outcome.metadata["planned_updates"] >= 1
