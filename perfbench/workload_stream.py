"""stream-durable: the write path, a durable dynamic session under events.

A single writer drives a sharded :class:`repro.DynamicSession` (n=100 000
points, d=8, shards of 4096, p=10) with a write-ahead log (``fsync=
"interval"``) and periodic snapshots.  Each tick carries mixed events
clustered on two hot shards: weight sets, distance overrides, inserts and
deletes.  The snapshot cadence leaves a tail of journaled ticks, so the
``DynamicSession.recover`` that follows replays part of the log.

Per-tick time grows with the accumulated distance overrides, so the stream
is a fixed number of ticks, never a fixed duration: an *episode* is one
session built, streamed through every tick, closed, recovered and
compared.  A run repeats the same episode until its time is up.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

import repro.dynamic.session as session_module
import repro.metrics.overlay as overlay_module
from benchcommon import Tally, WorkloadResult, settle, values_match
from benchstats import mean, median, percentile
from benchtrace import OP_SPAN, SpanForest, layer_metrics, replaced
from repro import DynamicSession, EventBatchBuilder, SnapshotStore, Trace

N, DIM, SHARD_SIZE, P, TRADEOFF = 100_000, 8, 4096, 10, 1.0
TICKS, EVENTS_PER_TICK = 40, 250
#: Event mix: cumulative thresholds for weight set, distance override,
#: insert; the rest are deletes.
WEIGHT_SHARE, DISTANCE_SHARE, INSERT_SHARE = 0.80, 0.15, 0.03
#: Snapshots after ticks 16 and 32 leave 8 journaled ticks to replay.
SNAPSHOT_EVERY = 16
FSYNC = "interval"
TAIL_Q = 90.0
#: Floor for maintained φ / full re-solve φ; the paper's dynamic rule keeps
#: a 3-approximation (Theorems 3-6).
MIN_PARITY = 1.0 / 3.0

#: Threads doing work at once: the single writer.
THREADS = {"writer": 1}


@dataclass
class Inputs:
    points: np.ndarray
    weights: np.ndarray
    batches: list  # one EventBatch per tick
    events: List[dict]  # the same ticks as plain data, for the reference model


def make_inputs(seed: int) -> Inputs:
    """Ticks that only name live elements, so every event applies cleanly.

    Deleted elements and inserted slots are never named again, which keeps
    the stream valid without predicting slot reuse.
    """
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(N, DIM))
    weights = rng.uniform(0.5, 2.0, size=N)
    shards = N // SHARD_SIZE
    dead: Set[int] = set()
    batches, events = [], []
    for _ in range(TICKS):
        hot = rng.choice(shards, size=2, replace=False)
        tick = {"weights": [], "distances": [], "inserts": [], "deletes": []}
        named: Set[int] = set()
        bases = hot[rng.integers(0, 2, size=EVENTS_PER_TICK)] * SHARD_SIZE
        offsets = rng.integers(0, SHARD_SIZE, size=(EVENTS_PER_TICK, 2))
        kinds = rng.uniform(size=EVENTS_PER_TICK)
        values = rng.uniform(0.5, 2.0, size=EVENTS_PER_TICK)
        for i in range(EVENTS_PER_TICK):
            u, v = (int(bases[i] + offsets[i, 0]), int(bases[i] + offsets[i, 1]))
            kind = kinds[i]
            if u in dead:
                continue
            if kind < WEIGHT_SHARE:
                tick["weights"].append((u, float(values[i])))
                named.add(u)
            elif kind < WEIGHT_SHARE + DISTANCE_SHARE:
                if v != u and v not in dead:
                    pair = (min(u, v), max(u, v))
                    tick["distances"].append((*pair, float(values[i]) + 0.5))
                    named.update((u, v))
            elif kind < WEIGHT_SHARE + DISTANCE_SHARE + INSERT_SHARE:
                tick["inserts"].append((float(values[i]), rng.normal(size=DIM)))
            elif u not in named:
                tick["deletes"].append(u)
                named.add(u)
                dead.add(u)
        # a delete must not share its tick with another event on the element
        weighted = {u for u, _ in tick["weights"]}
        tick["deletes"] = [u for u in tick["deletes"] if u not in weighted]
        builder = EventBatchBuilder()
        for u, value in tick["weights"]:
            builder.set_weight(u, value)
        for u, v, value in tick["distances"]:
            builder.set_distance(u, v, value)
        for value, point in tick["inserts"]:
            builder.insert(value, point=point)
        for u in tick["deletes"]:
            builder.delete(u)
        batches.append(builder.build())
        events.append(tick)
    return Inputs(points, weights, batches, events)


class Reference:
    """The instance as the event stream defines it, kept independently of
    the engine: points, weights, live slots and distance overrides, with
    the engine's documented slot rules (inserts revive the smallest retired
    slot first; deleting an element drops its overrides)."""

    def __init__(self, inputs: Inputs) -> None:
        self.points = [row for row in inputs.points]
        self.weights = list(inputs.weights.tolist())
        self.free: List[int] = []
        self.overrides: Dict[Tuple[int, int], float] = {}

    def apply(self, tick: dict) -> None:
        for u, value in tick["weights"]:
            self.weights[u] = value
        for u, v, value in tick["distances"]:
            self.overrides[(u, v)] = value
        for value, point in tick["inserts"]:
            if self.free:
                slot = self.free.pop(0)
                self.points[slot], self.weights[slot] = point, value
            else:
                self.points.append(point)
                self.weights.append(value)
        gone = set(tick["deletes"])
        for u in gone:
            self.weights[u] = 0.0
        self.free = sorted(set(self.free) | gone)
        self.overrides = {
            pair: value
            for pair, value in self.overrides.items()
            if pair[0] not in gone and pair[1] not in gone
        }

    def value(self, solution) -> float:
        members = sorted(solution)
        total = sum(self.weights[u] for u in members)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                override = self.overrides.get((u, v))
                distance = (
                    override
                    if override is not None
                    else float(np.sqrt(((self.points[u] - self.points[v]) ** 2).sum()))
                )
                total += TRADEOFF * distance
        return total


@dataclass
class Episode:
    setup_s: float
    tick_s: List[float]
    outcomes: List[Optional[object]]  # UpdateOutcome per tick, None if it raised
    recover_s: float
    parity: float
    layers: Dict[str, float]


def _timed_overlay(trace: Trace):
    """``PatchedMetric`` whose construction records a ``metrics.overlay`` span."""

    def make(original):
        class TimedPatchedMetric(original):
            def __init__(self, *args, **kwargs) -> None:
                with trace.span("metrics.overlay.build"):
                    super().__init__(*args, **kwargs)

        return TimedPatchedMetric

    return make


def _episode(
    inputs: Inputs, directory: str, tally: Tally, trace: Optional[Trace]
) -> Episode:
    started = time.perf_counter()
    session = DynamicSession(
        inputs.weights,
        P,
        points=inputs.points,
        tradeoff=TRADEOFF,
        shard_size=SHARD_SIZE,
        durable_dir=directory,
        fsync=FSYNC,
        snapshot_every=SNAPSHOT_EVERY,
        trace=trace,
    )
    setup_s = time.perf_counter() - started
    wal_path = session.durable.wal_path
    tick_s: List[float] = []
    outcomes: List[Optional[object]] = []
    wal_growth: List[int] = []
    overrides_mid = 0
    for index, batch in enumerate(inputs.batches):
        tally.op()
        wal_before = os.path.getsize(wal_path) if trace is not None else 0
        started = time.perf_counter()
        try:
            if trace is None:
                outcome = session.apply_events(batch)
            else:
                with trace.span(OP_SPAN, tick=index), trace.span(
                    "dynamic.session.apply_events"
                ):
                    outcome = session.apply_events(batch)
        except Exception as error:
            tally.fail(f"tick {index} raised {error!r}")
            outcome = None
        tick_s.append(time.perf_counter() - started)
        outcomes.append(outcome)
        if trace is not None:
            growth = os.path.getsize(wal_path) - wal_before
            if growth > 0:
                wal_growth.append(growth)
        if index + 1 == TICKS // 2:
            overrides_mid = session.engine.num_overrides
    live_solution, live_value = session.solution, session.solution_value
    overrides_end = session.engine.num_overrides
    session.close()

    tally.op()
    started = time.perf_counter()
    try:
        if trace is None:
            recovered = DynamicSession.recover(directory)
        else:
            with trace.span(OP_SPAN, recover=True), trace.span(
                "durability.recovery.recover"
            ):
                recovered = DynamicSession.recover(directory, trace=trace)
    except Exception as error:
        tally.fail(f"recovery raised {error!r}")
        recovered = None
    recover_s = time.perf_counter() - started
    parity = 0.0
    if recovered is not None:
        try:
            tally.expect(
                recovered.solution == live_solution
                and recovered.solution_value == live_value,
                "recovered session is not bit-identical to the live one",
            )
            full = recovered.resolve_full(adopt=False)
            parity = live_value / full.objective_value
            tally.expect(
                parity >= MIN_PARITY, f"stream parity {parity:.4f} < {MIN_PARITY:.4f}"
            )
        finally:
            recovered.close()

    layers: Dict[str, float] = {}
    if trace is not None:
        store = SnapshotStore(os.path.join(directory, "snapshots"))
        started = time.perf_counter()
        generation, checkpoint = store.load_latest()
        layers = {
            "durability.snapshot.load_ms": (time.perf_counter() - started) * 1000.0,
            "durability.snapshot.bytes": os.path.getsize(store.path_for(generation)),
            "durability.recovery.replayed_ticks": TICKS - checkpoint.ticks,
            "durability.wal.bytes_per_tick": median(wal_growth),
            "dynamic.engine.overrides_mid": overrides_mid,
            "dynamic.engine.overrides_end": overrides_end,
        }
    return Episode(setup_s, tick_s, outcomes, recover_s, parity, layers)


def _check_ticks(inputs: Inputs, episode: Episode, tally: Tally) -> None:
    """Each tick's reported φ against the reference model; |S| = p."""
    model = Reference(inputs)
    for index, (tick, outcome) in enumerate(zip(inputs.events, episode.outcomes)):
        model.apply(tick)
        if outcome is None:
            continue
        if not tally.expect(
            len(outcome.solution) == P, f"tick {index}: |S|={len(outcome.solution)}"
        ):
            continue
        tally.expect(
            values_match(outcome.objective_value, model.value(outcome.solution)),
            f"tick {index}: objective_value {outcome.objective_value!r} does not "
            "match the reference model",
        )


def _episodes(inputs: Inputs, seconds: float, work_dir: str, tally: Tally, trace=None):
    """Episodes for ``seconds``: ``(untraced, traced)`` lists.

    With a trace, every other episode is traced (and times ``PatchedMetric``
    construction), so traced and untraced episodes share the machine's
    conditions and their ratio is the tracing overhead.
    """
    plain: List[Episode] = []
    traced: List[Episode] = []
    stop_at = time.perf_counter() + seconds
    while time.perf_counter() < stop_at or not plain:
        tracing = trace is not None and len(plain) > len(traced)
        directory = tempfile.mkdtemp(prefix="episode-", dir=work_dir)
        try:
            if tracing:
                timed = _timed_overlay(trace)
                with replaced(session_module, "PatchedMetric", timed), replaced(
                    overlay_module, "PatchedMetric", timed
                ):
                    episode = _episode(inputs, directory, tally, trace)
            else:
                episode = _episode(inputs, directory, tally, None)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        _check_ticks(inputs, episode, tally)
        (traced if tracing else plain).append(episode)
    return plain, traced


def _figures(inputs: Inputs, episodes: List[Episode]) -> Dict[str, float]:
    ticks_ms = [t * 1000.0 for e in episodes for t in e.tick_s]
    events = sum(batch.num_events for batch in inputs.batches)
    return {
        "setup_s": median([e.setup_s for e in episodes]),
        "tick_p50_ms": median(ticks_ms),
        "tick_tail_ms": percentile(ticks_ms, TAIL_Q),
        "ticks": len(ticks_ms),
        "events_per_s": median([events / sum(e.tick_s) for e in episodes]),
        "recover_s": median([e.recover_s for e in episodes]),
        "parity": median([e.parity for e in episodes]),
    }


def _traced_layers(forest: SpanForest, episodes: List[Episode]) -> Dict[str, float]:
    ticks = forest.named("tick")
    replayed = {
        tick.span_id
        for recover in forest.named("durability.recovery.recover")
        for tick in forest.descendants_named(recover, "tick")
    }
    live = [tick for tick in ticks if tick.span_id not in replayed]

    def per_tick_ms(name: str) -> List[float]:
        return [
            sum(s.duration_s for s in forest.descendants_named(tick, name)) * 1000.0
            for tick in live
        ]

    compactions = [
        s.duration_s * 1000.0
        for tick in live
        if (tick.attrs.get("tick", -1) + 1) % SNAPSHOT_EVERY == 0
        for s in forest.descendants_named(tick, "wal.compact")
    ]
    outcomes = [o for e in episodes for o in e.outcomes if o is not None]
    layers = {
        name: median([e.layers[name] for e in episodes]) for name in episodes[0].layers
    }
    return {
        **layers,
        "dynamic.session.apply_ms": median(per_tick_ms("apply")),
        "dynamic.engine.repair_ms": median(per_tick_ms("repair")),
        "dynamic.engine.dirty_shards": mean(
            [len(o.metadata["dirty_shards"]) for o in outcomes]
        ),
        "dynamic.engine.core_resolved_ratio": mean(
            [float(o.metadata["core_resolved"]) for o in outcomes]
        ),
        "metrics.overlay.build_ms": median(per_tick_ms("metrics.overlay.build")),
        "metrics.overlay.builds_per_tick": mean(
            [
                len(forest.descendants_named(tick, "metrics.overlay.build"))
                for tick in live
            ]
        ),
        "durability.wal.journal_ms": median(per_tick_ms("wal.journal")),
        "durability.snapshot.compact_ms": median(compactions) if compactions else 0.0,
    }


def run(
    seed: int, seconds: float, traced: bool, trace_path: str, work_dir: str
) -> WorkloadResult:
    """One run; each episode's durable directory is made under ``work_dir``."""
    out = WorkloadResult()
    inputs = make_inputs(seed)
    settle()
    trace = Trace() if traced else None
    plain, traced_episodes = _episodes(inputs, seconds, work_dir, out.tally, trace)
    figures = _figures(inputs, plain)
    out.end_to_end = {
        "setup_s": figures["setup_s"],
        "op_p50_ms": figures["tick_p50_ms"],
        "op_tail_ms": figures["tick_tail_ms"],
        "throughput_per_s": figures["events_per_s"],
    }
    events = sum(batch.num_events for batch in inputs.batches)
    out.line(
        f"stream.events_per_s {figures['events_per_s']:.1f} ev/s "
        f"({len(plain)} episodes "
        f"of {TICKS} ticks, {events} events each)"
    )
    out.line(
        f"stream.tick_p50_ms {figures['tick_p50_ms']:.3f} ms (n={figures['ticks']})"
    )
    out.line(
        f"stream.tick_p{TAIL_Q:g}_ms {figures['tick_tail_ms']:.3f} ms "
        f"(n={figures['ticks']}, {figures['ticks'] * (1 - TAIL_Q / 100):.1f} beyond)"
    )
    out.line(f"stream.recover_s {figures['recover_s']:.4f} s (median of {len(plain)})")
    out.line(f"stream.parity {figures['parity']:.6f} ratio (median of {len(plain)})")
    out.line(
        f"setup_s {figures['setup_s']:.6f} s (median of {len(plain)} session builds)"
    )
    if not traced:
        return out

    trace.export(trace_path)
    forest = SpanForest(trace.spans())
    traced_figures = _figures(inputs, traced_episodes)
    out.per_layer = {
        **layer_metrics(forest),
        **_traced_layers(forest, traced_episodes),
        "obs.overhead": traced_figures["tick_p50_ms"] / figures["tick_p50_ms"] - 1.0,
        "obs.unattributed_ratio": forest.op_unattributed_ratio(),
        "stream.events_per_s": figures["events_per_s"],
        "stream.tick_p50_ms": figures["tick_p50_ms"],
        "stream.tick_p90_ms": figures["tick_tail_ms"],
        "stream.recover_s": figures["recover_s"],
        "stream.parity": figures["parity"],
    }
    out.line(f"traced pass: {len(traced_episodes)} episodes, {len(forest.spans)} spans")
    return out
