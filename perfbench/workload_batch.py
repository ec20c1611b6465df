"""solve-batch: offline full-universe solves, one caller, closed loop.

One caller cycles three query kinds back to back, each with fresh per-call
weights drawn from the seed:

(a) ``solve(p=10, shard_size=4096, shard_workers=2)`` on n=100 000 lazy
    Euclidean points: the sharded core-set pipeline (``core.sharding``);
(b) ``solve(matroid=PartitionMatroid)`` on a materialized n=2000 instance
    with 10 blocks of capacity 2: matroid local search
    (``core.local_search``, Theorem 2);
(c) coverage quality plus per-call relevance, CELF greedy at n=20 000,
    p=20 (``core.greedy``, Theorem 1 with a submodular quality).

The workload bypasses the server, the corpus cache and durability.  Its
operation is one cycle of the three kinds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from benchcommon import Tally, WorkloadResult, settle, values_match
from benchstats import interval_union, median, percentile
from benchtrace import OP_SPAN, SpanForest, layer_metrics
from repro import (
    CoverageFunction,
    DistanceMatrix,
    EuclideanMetric,
    MixtureFunction,
    ModularFunction,
    Objective,
    PartitionMatroid,
    Trace,
    solve,
)

SHARDED_N, DIM, SHARD_SIZE, SHARD_WORKERS, SHARDED_P = 100_000, 8, 4096, 2, 10
LS_N, LS_BLOCKS, LS_CAPACITY = 2000, 10, 2
COVER_N, COVER_TOPICS_PER_ELEMENT, COVER_P = 20_000, 3, 20
TRADEOFF, COVER_TRADEOFF = 1.0, 0.2
#: Per-call weight vectors generated per kind, used in turn.
WEIGHT_SETS = 16
#: Kind (a) calls whose answer is also compared with an unsharded greedy
#: solve of the same inputs; the core-set guard in the library's own
#: benchmarks holds the ratio at >= 0.95.
PARITY_CALLS, MIN_PARITY = 3, 0.95
#: Set-up is timed once before the cycles and again after them.
SETUP_REPEATS = 5
#: Cycle-time tail: at least 40 cycles per run leave 10 beyond the p75.
TAIL_Q = 75.0
KINDS = ("sharded", "local_search", "submodular")

#: Threads doing work at once: the two shard workers (the caller waits on
#: them), or the caller alone outside the shard map.
THREADS = {"shard_workers": SHARD_WORKERS}


@dataclass
class Inputs:
    sharded_points: np.ndarray
    sharded_weights: np.ndarray  # (WEIGHT_SETS, SHARDED_N)
    ls_distances: np.ndarray
    ls_blocks: List[int]
    ls_weights: np.ndarray  # (WEIGHT_SETS, LS_N)
    cover_points: np.ndarray
    cover_topics: List[List[int]]
    cover_weights: np.ndarray  # (WEIGHT_SETS, COVER_N)


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    ls_points = rng.normal(size=(LS_N, DIM))
    distances = np.empty((LS_N, LS_N))
    for start in range(0, LS_N, 200):  # row blocks keep the temporary small
        diff = ls_points[start : start + 200, None, :] - ls_points[None, :, :]
        distances[start : start + 200] = np.sqrt((diff * diff).sum(axis=-1))
    topics = rng.integers(0, COVER_N, size=(COVER_N, COVER_TOPICS_PER_ELEMENT))
    return Inputs(
        sharded_points=rng.normal(size=(SHARDED_N, DIM)),
        sharded_weights=rng.uniform(0.0, 1.0, size=(WEIGHT_SETS, SHARDED_N)),
        ls_distances=distances,
        ls_blocks=rng.integers(0, LS_BLOCKS, size=LS_N).tolist(),
        ls_weights=rng.uniform(0.0, 1.0, size=(WEIGHT_SETS, LS_N)),
        cover_points=rng.normal(size=(COVER_N, DIM)),
        cover_topics=topics.tolist(),
        cover_weights=rng.uniform(0.0, 1.0, size=(WEIGHT_SETS, COVER_N)),
    )


@dataclass
class Prepared:
    sharded_metric: EuclideanMetric
    ls_metric: DistanceMatrix
    matroid: PartitionMatroid
    cover_metric: EuclideanMetric
    coverage: CoverageFunction


def prepare(inputs: Inputs) -> Prepared:
    return Prepared(
        sharded_metric=EuclideanMetric(inputs.sharded_points),
        ls_metric=DistanceMatrix(inputs.ls_distances),
        matroid=PartitionMatroid(
            inputs.ls_blocks, {block: LS_CAPACITY for block in range(LS_BLOCKS)}
        ),
        cover_metric=EuclideanMetric(inputs.cover_points),
        coverage=CoverageFunction(inputs.cover_topics),
    )


@dataclass
class Call:
    kind: str
    weight_set: int
    seconds: float
    result: object  # SolverResult, or the exception the call raised


def _instance(kind: str, weight_set: int, inputs: Inputs, prepared: Prepared):
    """``(quality, metric, tradeoff)`` of one query; the quality is built per
    call from that call's weights."""
    if kind == "sharded":
        quality = ModularFunction(inputs.sharded_weights[weight_set])
        return quality, prepared.sharded_metric, TRADEOFF
    if kind == "local_search":
        quality = ModularFunction(inputs.ls_weights[weight_set])
        return quality, prepared.ls_metric, TRADEOFF
    relevance = ModularFunction(inputs.cover_weights[weight_set])
    quality = MixtureFunction([prepared.coverage, relevance])
    return quality, prepared.cover_metric, COVER_TRADEOFF


def _call(kind: str, weight_set: int, inputs: Inputs, prepared: Prepared, trace):
    quality, metric, tradeoff = _instance(kind, weight_set, inputs, prepared)
    if kind == "sharded":
        constraint = dict(
            p=SHARDED_P, shard_size=SHARD_SIZE, shard_workers=SHARD_WORKERS
        )
    elif kind == "local_search":
        constraint = dict(matroid=prepared.matroid)
    else:
        constraint = dict(p=COVER_P)
    return solve(quality, metric, tradeoff=tradeoff, trace=trace, **constraint)


#: The benchmark span around each kind's call, named after the layer the
#: kind exercises.
_LAYER_SPAN = {
    "sharded": "core.sharding.solve",
    "local_search": "core.local_search.solve",
    "submodular": "core.greedy.solve",
}


def _cycles(inputs: Inputs, prepared: Prepared, seconds: float, trace=None):
    """Back-to-back cycles for ``seconds``: ``(untraced, traced)`` lists.

    With a trace, every other cycle is traced, so the traced and untraced
    cycles share the machine's conditions and their ratio is the tracing
    overhead.
    """
    plain: List[List[Call]] = []
    traced: List[List[Call]] = []
    stop_at = time.perf_counter() + seconds
    while time.perf_counter() < stop_at or not plain:
        weight_set = (len(plain) + len(traced)) % WEIGHT_SETS
        tracing = trace is not None and len(plain) > len(traced)
        cycle = []
        for kind in KINDS:
            started = time.perf_counter()
            try:
                if tracing:
                    with trace.span(OP_SPAN, kind=kind), trace.span(_LAYER_SPAN[kind]):
                        result = _call(kind, weight_set, inputs, prepared, trace)
                else:
                    result = _call(kind, weight_set, inputs, prepared, None)
            except Exception as error:
                result = error
            elapsed = time.perf_counter() - started
            cycle.append(Call(kind, weight_set, elapsed, result))
        (traced if tracing else plain).append(cycle)
    return plain, traced


def _check(cycles, inputs: Inputs, prepared: Prepared, tally: Tally) -> List[float]:
    """Feasibility and objective of every answer; returns the
    sharded-vs-unsharded parity of the first kind (a) calls."""
    full_rank = prepared.matroid.rank()
    parities: List[float] = []
    for call in (call for cycle in cycles for call in cycle):
        tally.op()
        result = call.result
        if isinstance(result, Exception):
            tally.fail(f"{call.kind} call raised {result!r}")
            continue
        selected = set(result.selected)
        if call.kind == "local_search":
            feasible = (
                prepared.matroid.is_independent(selected)
                and len(selected) == full_rank
            )
        else:
            size = SHARDED_P if call.kind == "sharded" else COVER_P
            feasible = len(selected) == size
        if not tally.expect(
            feasible, f"{call.kind}: infeasible answer of size {len(selected)}"
        ):
            continue
        quality, metric, tradeoff = _instance(
            call.kind, call.weight_set, inputs, prepared
        )
        if not tally.expect(
            values_match(
                result.objective_value,
                Objective(quality, metric, tradeoff).value(selected),
            ),
            f"{call.kind}: objective_value {result.objective_value!r} does not "
            "match the recomputed value",
        ):
            continue
        if call.kind == "sharded" and len(parities) < PARITY_CALLS:
            unsharded = solve(quality, metric, tradeoff=tradeoff, p=SHARDED_P)
            parity = result.objective_value / unsharded.objective_value
            parities.append(parity)
            tally.expect(
                parity >= MIN_PARITY, f"sharded parity {parity:.4f} < {MIN_PARITY}"
            )
    return parities


def _kind(cycles, kind: str) -> List[Call]:
    """The calls of one kind that returned a result."""
    return [
        call
        for cycle in cycles
        for call in cycle
        if call.kind == kind and not isinstance(call.result, Exception)
    ]


def _traced_layers(cycles, forest: SpanForest) -> Dict[str, float]:
    sharded = [call.result for call in _kind(cycles, "sharded")]
    searched = _kind(cycles, "local_search")
    covered = [call.result for call in _kind(cycles, "submodular")]
    busy, wall = [], []
    for root in forest.named("solve_sharded"):
        shards = [s for s in forest.children.get(root.span_id, ()) if s.name == "shard"]
        busy.append(sum(s.duration_s for s in shards) * 1000.0)
        wall.append(
            interval_union((s.start_s, s.start_s + s.duration_s) for s in shards)
            * 1000.0
        )

    def phase_ms(result, phase: str) -> float:
        return result.metadata["timings"].get(phase, 0.0) * 1000.0

    def timing(results, phase: str) -> float:
        return median([phase_ms(r, phase) for r in results])

    # Solve time outside restrict, the shards' wall interval and final_solve.
    unattributed = [
        phase_ms(r, "total") - phase_ms(r, "restrict") - phase_ms(r, "final_solve") - w
        for r, w in zip(sharded, wall)
    ]
    return {
        "core.sharding.restrict_ms": timing(sharded, "restrict"),
        "core.sharding.shard_busy_ms": median(busy),
        "core.sharding.shard_wall_ms": median(wall),
        "core.sharding.final_solve_ms": timing(sharded, "final_solve"),
        "core.sharding.unattributed_ms": median(unattributed),
        "core.sharding.core_size": median(
            [r.metadata["sharding"]["core_size"] for r in sharded]
        ),
        "core.sharding.failed_shards": sum(
            len(r.metadata["sharding"].get("failed_shards", ())) for r in sharded
        ),
        "core.greedy.gain_state_ms": timing(covered, "gain_state"),
        "core.greedy.rounds_ms": timing(covered, "greedy_rounds"),
        "core.greedy.celf_fraction": median(
            [r.metadata["celf"]["celf_fraction"] for r in covered]
        ),
        "core.local_search.swaps": median([c.result.iterations for c in searched]),
        "core.local_search.ms_per_swap": median(
            [c.seconds * 1000.0 / max(c.result.iterations, 1) for c in searched]
        ),
    }


def run(
    seed: int, seconds: float, traced: bool, trace_path: str, work_dir: str
) -> WorkloadResult:
    """One run; ``work_dir`` (scratch space) is not needed here."""
    out = WorkloadResult()
    inputs = make_inputs(seed)
    settle()
    setup_times = []

    def timed_prepare() -> Prepared:
        started = time.perf_counter()
        built = prepare(inputs)
        setup_times.append(time.perf_counter() - started)
        return built

    prepared = timed_prepare()
    trace = Trace() if traced else None
    plain, traced_cycles = _cycles(inputs, prepared, seconds, trace)
    for _ in range(SETUP_REPEATS - 1):  # more set-up samples, after the loop
        timed_prepare()
    parities = _check(plain, inputs, prepared, out.tally)
    cycle_ms = [sum(call.seconds for call in cycle) * 1000.0 for cycle in plain]
    calls = sum(len(cycle) for cycle in plain)
    kind_ms = {
        kind: median([call.seconds * 1000.0 for call in _kind(plain, kind)])
        for kind in KINDS
    }
    parity = median(parities) if parities else 0.0
    out.end_to_end = {
        "setup_s": median(setup_times),
        "op_p50_ms": median(cycle_ms),
        "op_tail_ms": percentile(cycle_ms, TAIL_Q),
        "throughput_per_s": calls / (sum(cycle_ms) / 1000.0),
    }
    for kind in KINDS:
        out.line(
            f"batch.{kind}_ms {kind_ms[kind]:.3f} ms (median of {len(plain)} calls)"
        )
    out.line(
        f"batch.sharded_parity {parity:.6f} ratio (median of {len(parities)} calls)"
    )
    out.line(
        f"cycle p50 {median(cycle_ms):.3f} ms, p{TAIL_Q:g} "
        f"{percentile(cycle_ms, TAIL_Q):.3f} ms (n={len(cycle_ms)} cycles, "
        f"{len(cycle_ms) * (1 - TAIL_Q / 100):.1f} beyond the tail)"
    )
    out.line(f"setup_s {median(setup_times):.6f} s (median of {len(setup_times)})")
    if not traced:
        return out

    _check(traced_cycles, inputs, prepared, out.tally)
    trace.export(trace_path)
    forest = SpanForest(trace.spans())
    traced_cycle_ms = [
        sum(call.seconds for call in cycle) * 1000.0 for cycle in traced_cycles
    ]
    out.per_layer = {
        **layer_metrics(forest),
        **_traced_layers(traced_cycles, forest),
        "obs.overhead": median(traced_cycle_ms) / median(cycle_ms) - 1.0,
        "obs.unattributed_ratio": forest.op_unattributed_ratio(),
        "batch.sharded_ms": kind_ms["sharded"],
        "batch.local_search_ms": kind_ms["local_search"],
        "batch.submodular_ms": kind_ms["submodular"],
        "batch.sharded_parity": parity,
    }
    out.line(f"traced pass: {len(traced_cycles)} cycles, {len(forest.spans)} spans")
    return out
