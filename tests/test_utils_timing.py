"""Regression tests: shard timing must survive thread and process pools.

The sharded core-set solver fans shard solves out to thread and process
pools.  Each shard solve traces into its own :class:`~repro.obs.trace.Trace`
and ships a :class:`~repro.obs.trace.SpanBundle` back; the parent adopts the
bundles and sums their elapsed times into ``metadata["sharding"]
["shard_seconds"]``.  These tests pin that accounting under concurrency and
across process boundaries, plus the :func:`~repro.obs.trace.timed` helper.
"""

from __future__ import annotations

import os
import pickle
import threading
from functools import partial

import numpy as np
import pytest

from repro.core.objective import Objective
from repro.core.restriction import Restriction
from repro.core.sharding import _solve_shard, solve_sharded, sub_metric
from repro.functions.modular import ModularFunction
from repro.metrics.euclidean import EuclideanMetric
from repro.obs.trace import SpanBundle, Trace, timed
from repro.testing.faults import CrashingMetric
from repro.utils.deadline import Deadline


@pytest.fixture
def instance():
    rng = np.random.default_rng(11)
    features = rng.normal(size=(160, 4))
    weights = rng.uniform(1.0, 2.0, size=160)
    return ModularFunction(weights), EuclideanMetric(features)


def _ok_shard_spans(trace: Trace):
    return [s for s in trace.spans() if s.name == "shard" and s.status == "ok"]


class TestTraceThreadSafety:
    def test_concurrent_spans_all_recorded(self):
        trace = Trace()
        workers, per_worker = 8, 25

        def tick():
            for _ in range(per_worker):
                with trace.span("tick"):
                    pass

        threads = [threading.Thread(target=tick) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every one of the 200 spans must land, each under its own id; an
        # unlocked append or id counter would lose or collide under contention.
        spans = trace.spans()
        assert len(spans) == workers * per_worker
        assert len({s.span_id for s in spans}) == workers * per_worker
        assert all(s.parent_id is None for s in spans)

    def test_adopt_is_locked_against_span(self):
        worker = Trace()
        with worker.span("shard"):
            with worker.span("greedy"):
                pass
        bundle = worker.bundle()
        parent = Trace()
        adoptions = 50

        def adopt_loop():
            for _ in range(adoptions):
                parent.adopt(bundle, parent_id=None)

        thread = threading.Thread(target=adopt_loop)
        thread.start()
        for _ in range(adoptions):
            with parent.span("local"):
                pass
        thread.join()
        spans = parent.spans()
        assert len(spans) == adoptions * (len(bundle.spans) + 1)
        assert len({s.span_id for s in spans}) == len(spans)


class TestShardSecondsAcrossPools:
    @pytest.mark.parametrize(
        "executor", [pytest.param(None, id="serial"), "thread", "process"]
    )
    def test_shard_seconds_sum_the_shard_spans(self, instance, executor):
        quality, metric = instance
        trace = Trace()
        result = solve_sharded(
            quality,
            metric,
            tradeoff=0.8,
            p=5,
            shards=4,
            max_workers=None if executor is None else 2,
            executor=executor or "thread",
            trace=trace,
        )
        sharding = result.metadata["sharding"]
        assert sharding["executor"] == executor
        shards = _ok_shard_spans(trace)
        assert len(shards) == 4
        if executor == "process":
            # These spans were recorded in worker processes and travelled
            # back in pickled bundles.
            assert all(s.pid != os.getpid() for s in shards)
        # shard_seconds is summed from the adopted bundles' elapsed times, so
        # it agrees with the shard spans the trace holds.
        assert sharding["shard_seconds"] > 0.0
        assert sharding["shard_seconds"] == pytest.approx(
            sum(s.duration_s for s in shards)
        )

    def test_untraced_solve_still_times_shards(self, instance):
        quality, metric = instance
        timings = [
            solve_sharded(
                quality, metric, tradeoff=0.8, p=5, shards=4, trace=trace
            ).metadata["sharding"]["shard_seconds"]
            for trace in (Trace(), None)
        ]
        # Bundles are shipped whether or not the parent traces, so the
        # untraced solve reports shard time too.
        assert all(seconds > 0.0 for seconds in timings)

    def test_lost_shards_add_no_time(self, instance):
        quality, metric = instance
        trace = Trace()
        result = solve_sharded(
            quality,
            CrashingMetric(metric),
            tradeoff=0.8,
            p=5,
            shards=4,
            retry_backoff_s=0.0,
            trace=trace,
        )
        sharding = result.metadata["sharding"]
        assert sharding["failed_shards"] == [0, 1, 2, 3]
        # A lost shard ships no bundle: it adds nothing to shard_seconds and
        # leaves only a zero-length synthetic span behind.
        assert sharding["shard_seconds"] == 0.0
        shards = [s for s in trace.spans() if s.name == "shard"]
        assert shards and all(s.status == "serial" for s in shards)
        assert all(s.duration_s == 0.0 for s in shards)


class TestSpanBundleAcrossProcesses:
    def test_pickle_round_trip_is_independent(self):
        worker = Trace()
        with worker.span("shard"):
            pass
        bundle = worker.bundle()
        clone = pickle.loads(pickle.dumps(bundle))
        assert clone == bundle
        assert clone.elapsed == bundle.elapsed
        # Adopting the same bundle into two parents gives each its own
        # copies: recording into one must not leak into the other.
        first, second = Trace(), Trace()
        first.adopt(bundle, parent_id=None)
        second.adopt(clone, parent_id=None)
        with first.span("extra"):
            pass
        assert len(first) == 2
        assert len(second) == 1
        assert len(worker) == 1

    def test_elapsed_sums_root_spans_only(self):
        worker = Trace()
        with worker.span("shard"):
            with worker.span("greedy"):
                pass
        with worker.span("shard"):
            pass
        bundle = worker.bundle()
        roots = [s for s in bundle.spans if s.parent_id is None]
        assert len(roots) == 2
        # The nested span's time is already inside its root's duration.
        assert bundle.elapsed == pytest.approx(sum(s.duration_s for s in roots))
        assert isinstance(bundle, SpanBundle)

    def test_shard_task_pickles_and_runs(self, instance):
        quality, metric = instance
        shard = np.arange(40)
        objective = Restriction(
            Objective(quality, metric, 0.8),
            shard,
            metric=sub_metric(metric, shard, materialize=False),
        ).objective
        task = partial(
            _solve_shard,
            objective,
            index=2,
            algorithm="greedy",
            p=5,
            config=None,
            materialize=True,
            deadline=Deadline(60.0),
            traced=True,
        )
        # A process pool pickles the task; the clone must solve the same.
        clone = pickle.loads(pickle.dumps(task))
        outcome, cloned = task(), clone()
        assert cloned.winners == outcome.winners
        assert len(outcome.winners) == 5
        assert not outcome.interrupted and not cloned.interrupted
        roots = [s for s in cloned.bundle.spans if s.parent_id is None]
        assert [s.name for s in roots] == ["shard"]
        assert roots[0].attrs["shard"] == 2
        assert cloned.bundle.elapsed == roots[0].duration_s


def test_timed_returns_value_and_duration():
    value, seconds = timed(lambda: 6 * 7)
    assert value == 42
    assert seconds >= 0.0
