"""Property tests for the stateful batched marginal-gain protocol.

For every built-in family (and the generic fallback), batched
``gains(candidates, gain_state(S))`` must equal the looped ``marginal(u, S)``
to 1e-9 on random subsets — including candidates already inside ``S`` (whose
gain is 0 by definition) — and ``push`` must keep a state equivalent to a
freshly built one.
"""

from __future__ import annotations

import pickle
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.functions import (
    CoverageFunction,
    FacilityLocationFunction,
    GainState,
    LogDeterminantFunction,
    MixtureFunction,
    ModularFunction,
    SaturatedCoverageFunction,
    ScaledFunction,
    SetFunction,
    ZeroFunction,
)
from repro.functions.restricted import RestrictedSetFunction
from repro.functions.weakly_submodular import DispersionFunction
from repro.metrics.matrix import DistanceMatrix

N = 36
TOLERANCE = 1e-9


class _OracleQuality(SetFunction):
    """Value-only oracle: exercises the generic protocol fallback."""

    def __init__(self, weights: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=float)

    @property
    def n(self) -> int:
        return self._weights.size

    def value(self, subset: Iterable[int]) -> float:
        members = self._as_set(subset)
        if not members:
            return 0.0
        idx = np.fromiter(members, dtype=int)
        return float(np.sqrt(self._weights[idx].sum()))


def _similarity(rng: np.random.Generator, n: int = N) -> np.ndarray:
    matrix = rng.uniform(0.0, 1.0, size=(n, n))
    return (matrix + matrix.T) / 2.0


def _distance_matrix(rng: np.random.Generator, n: int = N) -> DistanceMatrix:
    matrix = 0.5 + rng.uniform(0.0, 0.5, size=(n, n))
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 0.0)
    return DistanceMatrix(matrix)


def _functions():
    rng = np.random.default_rng(17)
    similarity = _similarity(rng)
    features = rng.normal(size=(N, 4))
    facility = FacilityLocationFunction(similarity)
    coverage = CoverageFunction.random(N, 24, topics_per_element=3, seed=5)
    log_det = LogDeterminantFunction.from_features(features, bandwidth=1.5)
    cases = [
        ("modular", ModularFunction(rng.uniform(0.0, 5.0, size=N))),
        ("zero", ZeroFunction(N)),
        ("facility", facility),
        ("coverage", coverage),
        ("log_det", log_det),
        ("saturated", SaturatedCoverageFunction(similarity, saturation=0.3)),
        ("mixture", MixtureFunction([facility, coverage], [0.7, 1.3])),
        ("scaled", ScaledFunction(log_det, 2.5)),
        ("restricted", RestrictedSetFunction(facility, list(range(4, 32)))),
        ("dispersion", DispersionFunction(_distance_matrix(rng))),
        ("oracle", _OracleQuality(rng.uniform(0.5, 2.0, size=N))),
    ]
    return cases


FUNCTION_CASES = _functions()


@pytest.fixture(params=[case[0] for case in FUNCTION_CASES])
def function(request):
    return dict(FUNCTION_CASES)[request.param]


def _random_subset(rng: np.random.Generator, n: int, size: int) -> frozenset:
    return frozenset(map(int, rng.choice(n, size=size, replace=False)))


class TestBatchedGainsEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_gains_match_looped_marginal(self, function, seed):
        rng = np.random.default_rng(100 + seed)
        n = function.n
        for size in (0, 1, min(6, n - 1)):
            subset = _random_subset(rng, n, size)
            state = function.gain_state(subset)
            # Mix outside candidates with members (whose gain must be 0).
            candidates = np.unique(
                np.concatenate(
                    [
                        rng.choice(n, size=min(12, n), replace=False),
                        np.fromiter(subset, dtype=int, count=len(subset)),
                    ]
                ).astype(int)
            )
            batched = function.gains(candidates, state)
            looped = np.array(
                [function.marginal(int(u), subset) for u in candidates]
            )
            np.testing.assert_allclose(batched, looped, atol=TOLERANCE, rtol=0)

    def test_full_universe_state(self, function):
        n = function.n
        state = function.gain_state(range(n))
        gains = function.gains(np.arange(n), state)
        np.testing.assert_allclose(gains, np.zeros(n), atol=TOLERANCE, rtol=0)

    def test_empty_candidate_batch(self, function):
        state = function.gain_state({0, 1})
        assert function.gains(np.zeros(0, dtype=int), state).shape == (0,)

    @pytest.mark.parametrize("seed", range(3))
    def test_push_matches_fresh_state(self, function, seed):
        rng = np.random.default_rng(200 + seed)
        n = function.n
        subset = set(_random_subset(rng, n, min(4, n - 3)))
        state = function.gain_state(subset)
        outside = [u for u in range(n) if u not in subset]
        for element in outside[:3]:
            function.push(state, int(element))
            subset.add(int(element))
        candidates = np.arange(n)
        incremental = function.gains(candidates, state)
        rebuilt = function.gains(candidates, function.gain_state(subset))
        np.testing.assert_allclose(incremental, rebuilt, atol=TOLERANCE, rtol=0)
        looped = np.array(
            [function.marginal(int(u), frozenset(subset)) for u in candidates]
        )
        np.testing.assert_allclose(incremental, looped, atol=TOLERANCE, rtol=0)

    def test_push_duplicate_raises(self, function):
        state = function.gain_state({1, 2})
        with pytest.raises(InvalidParameterError):
            function.push(state, 1)
        # The failed push must not have corrupted the state.
        gains = function.gains(np.array([1, 2]), state)
        np.testing.assert_allclose(gains, np.zeros(2), atol=TOLERANCE, rtol=0)


class TestGainStateBasics:
    def test_generic_state_tracks_members(self):
        state = GainState({3, 5})
        assert state.members == {3, 5}
        assert sorted(state.member_indices().tolist()) == [3, 5]

    def test_mask_members_small_and_large_batches(self):
        state = GainState(range(10))
        small = np.arange(4)
        out = state.mask_members(small, np.ones(4))
        np.testing.assert_array_equal(out, np.zeros(4))
        large = np.arange(30)
        out = state.mask_members(large, np.ones(30))
        np.testing.assert_array_equal(out[:10], np.zeros(10))
        np.testing.assert_array_equal(out[10:], np.ones(20))

    def test_coverage_accepts_unorderable_topic_ids(self):
        # Topic ids are arbitrary hashables; mixed types must not break the
        # dense re-indexing behind the batched-gains path.
        function = CoverageFunction([{"sports", 3}, {3}], {"sports": 2.0})
        assert function.value({0}) == 3.0
        assert function.marginal(0, frozenset({1})) == 2.0
        state = function.gain_state({1})
        np.testing.assert_allclose(
            function.gains(np.array([0, 1]), state), [2.0, 0.0]
        )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_coverage_csr_gains_match_marginal(self, data):
        # The CSR gather + bincount against the set-based oracle, including
        # elements with no topics, unorderable (mixed-type) topic ids, empty
        # candidate batches and repeated candidates.
        topic = st.one_of(st.integers(0, 9), st.sampled_from(["a", "b", ("t", 1)]))
        element_topics = data.draw(
            st.lists(st.sets(topic, max_size=4), min_size=1, max_size=12)
        )
        weights = data.draw(st.dictionaries(topic, st.floats(0.0, 5.0), max_size=6))
        coverage = CoverageFunction(element_topics, weights)
        n = coverage.n
        subset = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
        candidates = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        state = coverage.gain_state(subset)
        batched = coverage.gains(np.array(candidates, dtype=int), state)
        looped = [coverage.marginal(u, subset) for u in candidates]
        assert batched.shape == (len(candidates),)
        np.testing.assert_allclose(batched, looped, atol=TOLERANCE, rtol=0)


def _legacy_coverage(coverage: CoverageFunction) -> CoverageFunction:
    """A copy of ``coverage`` in the earlier dense-incidence attribute layout
    (per-element dense topic index arrays plus an element×topic matrix), as
    older pickles hold it."""
    topic_ids = list(dict.fromkeys(t for ts in coverage._topics for t in ts))
    index = {t: i for i, t in enumerate(topic_ids)}
    element_topic_idx = [
        np.array(sorted(index[t] for t in ts), dtype=int) for ts in coverage._topics
    ]
    incidence = np.zeros((coverage.n, len(topic_ids)), dtype=bool)
    for element, topic_idx in enumerate(element_topic_idx):
        incidence[element, topic_idx] = True
    legacy = CoverageFunction.__new__(CoverageFunction)
    legacy.__dict__.update(
        _topics=coverage._topics,
        _weights=coverage._weights,
        _topic_weight_array=np.array([coverage._weight(t) for t in topic_ids]),
        _element_topic_idx=element_topic_idx,
        _num_topic_ids=len(topic_ids),
        _incidence=incidence,
    )
    return legacy


class TestCoverageLegacyPickle:
    def test_legacy_layout_gains_match_marginal(self):
        fresh = CoverageFunction.random(40, 25, seed=5)
        restored = pickle.loads(pickle.dumps(_legacy_coverage(fresh)))
        assert not hasattr(restored, "_incidence")
        assert not hasattr(restored, "_element_topic_idx")
        subset = frozenset({1, 7, 30})
        candidates = np.array([0, 1, 2, 2, 39, 7])
        state = restored.gain_state(subset)
        np.testing.assert_allclose(
            restored.gains(candidates, state),
            [fresh.marginal(int(u), subset) for u in candidates],
            atol=TOLERANCE,
            rtol=0,
        )
        restored.push(state, 3)
        np.testing.assert_array_equal(
            restored.gains(candidates, state),
            fresh.gains(candidates, fresh.gain_state(subset | {3})),
        )

    def test_legacy_layout_corpus_restore_solves(self):
        from repro.serve import CorpusSnapshot, PreparedCorpus

        quality = CoverageFunction.random(30, 20, seed=6)
        points = np.random.default_rng(6).normal(size=(30, 3))
        metric = DistanceMatrix(
            np.linalg.norm(points[:, None] - points[None, :], axis=-1)
        )
        corpus = PreparedCorpus(quality, metric, tradeoff=0.5)
        snapshot = corpus.snapshot()
        legacy = CorpusSnapshot(
            quality=_legacy_coverage(quality),
            metric=snapshot.metric,
            tradeoff=snapshot.tradeoff,
            config=snapshot.config,
            fingerprint=snapshot.fingerprint,
        )
        recovered = PreparedCorpus.restore(pickle.loads(pickle.dumps(legacy)))
        expected = corpus.solve(None, p=4)
        result = recovered.solve(None, p=4)
        assert result.selected == expected.selected
        assert result.objective_value == expected.objective_value


class TestLogDetValidation:
    def test_indefinite_kernel_rejected(self):
        kernel = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(InvalidParameterError):
            LogDeterminantFunction(kernel)

    def test_validate_false_skips_psd_check(self):
        kernel = np.array([[1.0, 2.0], [2.0, 1.0]])
        function = LogDeterminantFunction(kernel, validate=False)
        assert function.n == 2

    def test_near_psd_tolerated(self):
        # Slightly negative eigenvalue within the -1e-6 tolerance.
        kernel = np.diag([1.0, 1.0, -5e-7])
        function = LogDeterminantFunction(kernel)
        assert function.n == 3

    def test_empty_kernel(self):
        function = LogDeterminantFunction(np.zeros((0, 0)))
        assert function.n == 0


class TestVerificationUsesBatchedGains:
    def test_checker_routes_through_gains(self):
        """The submodularity checker calls gains batches, not marginal loops."""
        from repro.functions.verification import is_monotone, is_submodular

        calls = {"gains": 0, "marginal": 0}

        class _Instrumented(ModularFunction):
            def gains(self, candidates, state):
                calls["gains"] += 1
                return super().gains(candidates, state)

            def marginal(self, element, subset):
                calls["marginal"] += 1
                return super().marginal(element, subset)

        function = _Instrumented(np.linspace(0.1, 1.0, 6))
        assert is_monotone(function)
        assert is_submodular(function)
        assert calls["gains"] > 0
        assert calls["marginal"] == 0
