"""Observability suite: span tracing, the metrics registry, and the
instrumented solve / dynamic / serving paths.

The acceptance contract for the tracing layer is exercised the way a
consumer would: run a traced sharded solve and a traced dynamic tick,
*export* the trace, re-parse the Chrome-trace JSON from disk, and verify
the schema and the parent/child nesting from the parsed file — not from
in-memory objects.
"""

from __future__ import annotations

import asyncio
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.events import EventBatch
from repro.dynamic.perturbation import WeightIncrease
from repro.dynamic.session import DynamicSession
from repro.exceptions import InvalidParameterError
from repro.obs.instrument import maybe_span, maybe_start_span, phase_timings
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import NULL_HANDLE, SpanBundle, Stopwatch, Trace
from repro.serve.server import ServerStats


# ----------------------------------------------------------------------
# Trace primitives
# ----------------------------------------------------------------------
class TestTrace:
    def test_nesting_follows_context(self):
        trace = Trace()
        with trace.span("root") as root:
            with trace.span("child") as child:
                with trace.span("grandchild"):
                    pass
        spans = {s.name: s for s in trace.spans()}
        assert spans["root"].parent_id is None
        assert spans["child"].parent_id == root.id
        assert spans["grandchild"].parent_id == child.id

    def test_sibling_spans_share_parent(self):
        trace = Trace()
        with trace.span("root") as root:
            with trace.span("first"):
                pass
            with trace.span("second"):
                pass
        spans = {s.name: s for s in trace.spans()}
        assert spans["first"].parent_id == root.id
        assert spans["second"].parent_id == root.id

    def test_two_traces_do_not_adopt_each_others_parents(self):
        a, b = Trace(), Trace()
        with a.span("outer"):
            with b.span("inner"):
                pass
        (inner,) = b.spans()
        assert inner.parent_id is None

    def test_exception_marks_error_status(self):
        trace = Trace()
        with pytest.raises(ValueError):
            with trace.span("boom"):
                raise ValueError("injected")
        (span,) = trace.spans()
        assert span.status == "error"
        assert "injected" in span.attrs["error"]

    def test_explicit_parent_crosses_context_gap(self):
        # run_in_executor does not carry contextvars; the explicit
        # parent_id override is what the serving tier relies on.
        trace = Trace()
        root = trace.start_span("window", parent_id=None)
        with trace.span("execute", parent_id=root.id):
            pass
        root.finish()
        spans = {s.name: s for s in trace.spans()}
        assert spans["execute"].parent_id == spans["window"].span_id

    def test_handle_set_and_idempotent_finish(self):
        trace = Trace()
        handle = trace.start_span("phase", n=10)
        handle.set(extra=True).finish()
        handle.finish(status="late")  # no-op: already finished
        (span,) = trace.spans()
        assert span.attrs == {"n": 10, "extra": True}
        assert span.status == "ok"

    def test_record_span_synthetic(self):
        trace = Trace()
        span = trace.record_span(
            "shard", parent_id=None, status="worker_crash", shard=3
        )
        assert span.duration_s == 0.0
        assert trace.find("shard")[0].status == "worker_crash"

    def test_bundle_adopt_remaps_and_reparents(self):
        worker = Trace()
        with worker.span("shard"):
            with worker.span("greedy"):
                pass
        bundle = pickle.loads(pickle.dumps(worker.bundle()))
        assert isinstance(bundle, SpanBundle)
        assert bundle.elapsed > 0.0

        parent = Trace()
        root = parent.start_span("solve_sharded", parent_id=None)
        adopted_roots = parent.adopt(bundle, parent_id=root.id)
        root.finish()
        spans = {s.name: s for s in parent.spans()}
        assert spans["shard"].parent_id == root.id
        assert spans["shard"].span_id in adopted_roots
        assert spans["greedy"].parent_id == spans["shard"].span_id
        # Remapped into the parent's id space: no collisions with the root.
        assert len({s.span_id for s in parent.spans()}) == 3

    def test_aggregate_and_descendants(self):
        trace = Trace()
        with trace.span("root") as root:
            with trace.span("phase"):
                pass
            with trace.span("phase"):
                pass
        other = trace.record_span("phase", parent_id=None)
        totals = trace.aggregate(root.id)
        assert set(totals) == {"phase"}
        assert len(trace.descendants(root.id)) == 2
        assert other.span_id not in {
            s.span_id for s in trace.descendants(root.id)
        }

    def test_chrome_export_round_trip(self, tmp_path):
        trace = Trace()
        with trace.span("root", n=5):
            with trace.span("child"):
                pass
        path = str(tmp_path / "trace.json")
        assert trace.export(path) == path
        with open(path, "r", encoding="utf-8") as stream:
            doc = json.load(stream)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = {e["name"]: e for e in doc["traceEvents"]}
        assert events["root"]["ph"] == "X"
        assert events["root"]["cat"] == "repro"
        assert events["root"]["args"]["n"] == 5
        assert events["child"]["args"]["parent_id"] == (
            events["root"]["args"]["span_id"]
        )
        assert events["root"]["dur"] >= events["child"]["dur"] >= 0.0


class TestMaybeSpan:
    def test_null_path_yields_shared_handle(self):
        with maybe_span(None, "anything", a=1) as handle:
            assert handle is NULL_HANDLE
            assert handle.id is None
            handle.set(b=2)  # no-op, no error
        assert maybe_start_span(None, "x") is NULL_HANDLE

    def test_traced_path_records(self):
        trace = Trace()
        with maybe_span(trace, "phase", k=1) as handle:
            handle.set(done=True)
        (span,) = trace.spans()
        assert span.attrs == {"k": 1, "done": True}

    def test_phase_timings_groups_by_name(self):
        trace = Trace()
        root = trace.start_span("solve", parent_id=None)
        with trace.span("restrict"):
            pass
        with trace.span("greedy"):
            pass
        root.finish()
        timings = phase_timings(trace, root.id, total=1.25)
        assert set(timings) == {"restrict", "greedy", "total"}
        assert timings["total"] == 1.25


# ----------------------------------------------------------------------
# Instrumented pipelines, verified from the exported JSON
# ----------------------------------------------------------------------
def _load_events(trace, tmp_path, name):
    path = str(tmp_path / name)
    trace.export(path)
    with open(path, "r", encoding="utf-8") as stream:
        doc = json.load(stream)
    events = doc["traceEvents"]
    ids = {e["args"]["span_id"] for e in events}
    for event in events:
        assert event["ph"] == "X" and event["cat"] == "repro"
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        parent = event["args"]["parent_id"]
        assert parent is None or parent in ids
    return events


class TestInstrumentedSolve:
    @pytest.fixture
    def instance(self):
        from repro.data.synthetic import make_feature_instance

        return make_feature_instance(400, dimension=4, seed=3)

    def test_solve_records_timings_metadata(self, instance):
        from repro.core.solver import solve

        trace = Trace()
        result = solve(
            instance.quality,
            instance.metric,
            tradeoff=instance.tradeoff,
            p=5,
            trace=trace,
        )
        timings = result.metadata["timings"]
        assert "total" in timings
        assert timings["total"] > 0.0
        # Untraced solves carry no timings key at all.
        plain = solve(
            instance.quality, instance.metric, tradeoff=instance.tradeoff, p=5
        )
        assert "timings" not in plain.metadata
        assert plain.selected == result.selected

    def test_sharded_solve_export_nesting(self, instance, tmp_path):
        from repro.core.sharding import solve_sharded

        trace = Trace()
        result = solve_sharded(
            instance.quality,
            instance.metric,
            tradeoff=instance.tradeoff,
            p=5,
            shards=4,
            trace=trace,
        )
        assert "timings" in result.metadata
        events = _load_events(trace, tmp_path, "sharded.json")
        by_id = {e["args"]["span_id"]: e for e in events}
        roots = [e for e in events if e["args"]["parent_id"] is None]
        assert [e["name"] for e in roots] == ["solve_sharded"]
        shards = [e for e in events if e["name"] == "shard"]
        assert len(shards) == 4
        for shard in shards:
            assert by_id[shard["args"]["parent_id"]]["name"] == "solve_sharded"
            assert shard["args"]["status"] == "ok"
        # The per-shard greedy work nests *under* its shard span even though
        # it ran in a worker trace and was adopted via a bundle.
        nested = [
            e
            for e in events
            if e["args"]["parent_id"] in {s["args"]["span_id"] for s in shards}
        ]
        assert nested, "expected spans nested under the shard spans"

    def test_dynamic_tick_export_nesting(self, tmp_path):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(60, 3))
        diff = points[:, None, :] - points[None, :, :]
        distances = np.sqrt((diff**2).sum(axis=-1))
        weights = rng.uniform(1.0, 2.0, size=60)

        trace = Trace()
        session = DynamicSession(weights, 6, distances=distances, trace=trace)
        for element in (3, 7, 11):
            outcome = session.apply_events(
                EventBatch.from_perturbations([WeightIncrease(element, 0.1)])
            )
        assert "timings" in outcome.metadata
        assert outcome.metadata["timings"]["total"] > 0.0

        events = _load_events(trace, tmp_path, "ticks.json")
        by_id = {e["args"]["span_id"]: e for e in events}
        ticks = [e for e in events if e["name"] == "tick"]
        assert len(ticks) == 3
        assert [t["args"]["tick"] for t in ticks] == [0, 1, 2]
        repairs = [e for e in events if e["name"] == "repair"]
        assert len(repairs) == 3
        for repair in repairs:
            apply_event = by_id[repair["args"]["parent_id"]]
            assert apply_event["name"] == "apply"
            assert by_id[apply_event["args"]["parent_id"]]["name"] == "tick"
            assert repair["args"]["certificate"] in {"hit", "miss"}

    def test_untraced_session_records_nothing(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(40, 3))
        diff = points[:, None, :] - points[None, :, :]
        distances = np.sqrt((diff**2).sum(axis=-1))
        weights = rng.uniform(1.0, 2.0, size=40)
        session = DynamicSession(weights, 5, distances=distances)
        outcome = session.apply_events(
            EventBatch.from_perturbations([WeightIncrease(1, 0.1)])
        )
        assert "timings" not in outcome.metadata


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels_and_render(self):
        registry = MetricsRegistry(enabled=True)
        ticks = registry.counter("ticks_total", labelnames=("backend",))
        ticks.inc(backend="dense")
        ticks.inc(2, backend="sharded")
        assert ticks.value(backend="dense") == 1.0
        assert ticks.value(backend="sharded") == 2.0
        rendered = registry.render()
        assert "# TYPE ticks_total counter" in rendered
        assert 'ticks_total{backend="dense"} 1' in rendered

    def test_counter_rejects_negative_and_bad_labels(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("c", labelnames=("stage",))
        with pytest.raises(InvalidParameterError):
            counter.inc(-1.0, stage="x")
        with pytest.raises(InvalidParameterError):
            counter.inc(wrong="x")

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h")
        counter.inc()
        gauge.set(5.0)
        histogram.observe(0.1)
        assert not counter.enabled()
        assert counter.value() == 0.0
        assert gauge.value() == 0.0
        assert histogram.count() == 0
        registry.enable()
        counter.inc()
        assert counter.value() == 1.0

    def test_gauge_inc_dec(self):
        gauge = Gauge("pending")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert gauge.value() == 1.0

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry(enabled=True)
        first = registry.counter("shared", labelnames=("k",))
        second = registry.counter("shared", labelnames=("k",))
        assert first is second
        with pytest.raises(InvalidParameterError):
            registry.gauge("shared")
        with pytest.raises(InvalidParameterError):
            registry.counter("shared", labelnames=("other",))

    def test_histogram_quantiles_interpolate(self):
        histogram = Histogram("lat", buckets=(0.1, 0.2, 0.4))
        for value in (0.05, 0.15, 0.15, 0.35):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(0.70)
        p50 = histogram.quantile(0.5)
        assert 0.1 <= p50 <= 0.2
        assert histogram.quantile(0.0) == pytest.approx(0.0, abs=0.1)
        with pytest.raises(InvalidParameterError):
            histogram.quantile(1.5)

    def test_histogram_overflow_interpolates_to_max(self):
        histogram = Histogram("lat", buckets=(0.1,))
        histogram.observe(0.5)
        histogram.observe(3.0)
        p99 = histogram.quantile(0.99)
        assert 0.1 < p99 <= 3.0
        assert histogram.quantile(0.5) <= p99

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=-1.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_histogram_quantile_within_observed_range(self, samples, q):
        # Interpolating inside a wide bucket must never report a value
        # outside the observed [min, max] (e.g. a p99 above the slowest
        # request that actually happened).
        histogram = Histogram("lat")
        for value in samples:
            histogram.observe(value)
        assert min(samples) <= histogram.quantile(q) <= max(samples)

    def test_histogram_empty_quantile_zero(self):
        assert Histogram("lat").quantile(0.99) == 0.0

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(InvalidParameterError):
            Histogram("h", buckets=())
        with pytest.raises(InvalidParameterError):
            Histogram("h", buckets=(0.1, 0.1))
        with pytest.raises(InvalidParameterError):
            Histogram("h", buckets=(0.1, float("inf")))

    def test_histogram_prometheus_render(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("fsync_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        rendered = registry.render()
        assert 'fsync_seconds_bucket{le="0.1"} 1' in rendered
        assert 'fsync_seconds_bucket{le="1"} 2' in rendered
        assert 'fsync_seconds_bucket{le="+Inf"} 3' in rendered
        assert "fsync_seconds_count 3" in rendered

    def test_registry_snapshot_and_reset(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("plain").inc(3)
        registry.counter("labeled", labelnames=("k",)).inc(k="v")
        snap = registry.snapshot()
        assert snap["plain"] == 3.0
        assert snap["labeled"] == {'k="v"': 1.0}
        registry.reset()
        assert registry.snapshot()["plain"] == 0.0

    def test_default_registry_disabled_by_default(self):
        assert isinstance(get_registry(), MetricsRegistry)


class TestInstrumentedMetrics:
    def test_solve_and_ticks_increment_shared_counters(self):
        from repro.core.solver import solve
        from repro.data.synthetic import make_feature_instance
        from repro.obs.instrument import SOLVES, TICKS

        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        try:
            base_solves = SOLVES.value(path="plain")
            base_ticks = TICKS.value(backend="dense")
            instance = make_feature_instance(120, dimension=3, seed=9)
            solve(
                instance.quality,
                instance.metric,
                tradeoff=instance.tradeoff,
                p=4,
            )
            rng = np.random.default_rng(9)
            points = rng.normal(size=(30, 3))
            diff = points[:, None, :] - points[None, :, :]
            distances = np.sqrt((diff**2).sum(axis=-1))
            session = DynamicSession(
                rng.uniform(1.0, 2.0, size=30), 4, distances=distances
            )
            session.apply_events(
                EventBatch.from_perturbations([WeightIncrease(2, 0.1)])
            )
            assert SOLVES.value(path="plain") == base_solves + 1
            assert TICKS.value(backend="dense") == base_ticks + 1
        finally:
            if not was_enabled:
                registry.disable()


# ----------------------------------------------------------------------
# Serving stats (histogram-backed percentiles)
# ----------------------------------------------------------------------
class TestServerStats:
    def test_snapshot_percentiles_from_histograms(self):
        stats = ServerStats()
        for ms in range(1, 101):
            stats.record_latency(ms / 1000.0)
            stats.queue_wait.observe(ms / 10_000.0)
            stats.execute.observe(ms / 2_000.0)
        stats.completed = 100
        snap = stats.snapshot()
        # Bucket-interpolated estimates: p50 near 50ms, p99 near 100ms,
        # within the bucket resolution of the default bounds.
        assert 25.0 <= snap["p50_ms"] <= 100.0
        assert snap["p99_ms"] >= snap["p50_ms"]
        assert 0.0 < snap["queue_wait_p50_ms"] <= snap["queue_wait_p99_ms"]
        assert 0.0 < snap["execute_p50_ms"] <= snap["execute_p99_ms"]
        # The raw ring is retained but bounded.
        assert len(stats.latencies) == 100

    def test_latency_ring_stays_bounded(self):
        from repro.serve.server import _LATENCY_WINDOW

        stats = ServerStats()
        for _ in range(_LATENCY_WINDOW + 100):
            stats.record_latency(0.001)
        assert len(stats.latencies) == _LATENCY_WINDOW
        assert stats.latency.count() == _LATENCY_WINDOW + 100

    def test_traced_server_window_spans(self, tmp_path):
        from repro.data.synthetic import make_feature_instance
        from repro.serve.corpus import PreparedCorpus
        from repro.serve.server import Server

        instance = make_feature_instance(200, dimension=3, seed=11)
        corpus = PreparedCorpus(
            instance.quality, instance.metric, tradeoff=instance.tradeoff
        )
        trace = Trace()

        async def run():
            async with Server(corpus, max_wait_s=0.001, trace=trace) as server:
                await asyncio.gather(
                    *(
                        server.submit(list(range(i, i + 40)), p=4)
                        for i in range(3)
                    )
                )

        asyncio.run(run())
        events = _load_events(trace, tmp_path, "serve.json")
        windows = [e for e in events if e["name"] == "window"]
        assert windows, "expected at least one window span"
        window_ids = {w["args"]["span_id"] for w in windows}
        executes = [e for e in events if e["name"] == "execute"]
        waits = [e for e in events if e["name"] == "queue_wait"]
        assert executes and waits
        for event in executes + waits:
            assert event["args"]["parent_id"] in window_ids
        assert sum(w["args"]["completed"] for w in windows) == 3


# ----------------------------------------------------------------------
# Stopwatch (absorbed into the span layer, API unchanged)
# ----------------------------------------------------------------------
class TestStopwatchCompat:
    def test_reexported_from_utils_timing(self):
        from repro.utils.timing import Stopwatch as LegacyStopwatch

        assert LegacyStopwatch is Stopwatch

    def test_bundle_elapsed_matches_stopwatch_pattern(self):
        # The shard map folds bundle.elapsed into its shard Stopwatch; the
        # two accountings must agree on what a worker's elapsed time is.
        worker = Trace()
        with worker.span("shard"):
            pass
        watch = Stopwatch()
        watch.add(worker.bundle().elapsed)
        assert watch.elapsed_seconds == pytest.approx(
            worker.spans()[0].duration_s
        )
