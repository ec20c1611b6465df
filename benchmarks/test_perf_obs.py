"""Performance guards for the observability layer.

Two contracts from the tracing/metrics subsystem:

* **Enabled tracing overhead ≤5%.**  Passing ``trace=Trace()`` into the
  n=100k sharded solve records a few dozen spans (restrict, per-shard
  solves, greedy phases, final solve) — bookkeeping that must stay in the
  noise next to the solve itself.  Guard key ``obs_overhead``: the median,
  over interleaved rounds, of the traced/untraced ratio of wall time (see
  :func:`_interleaved_rounds`).

* **Disabled instrumentation ≈0% (≤1%).**  With no trace attached every
  instrumented site runs ``maybe_span(None, ...)`` — a shared no-op handle
  — and a single ``enabled()`` check per metric.  The guard micro-times
  that no-op path, scales it by the span count an instrumented solve
  actually emits, and asserts the projected fraction of the untraced solve
  stays ≤1%.  Guard key ``obs_overhead_disabled``.

Both numbers are exported to ``BENCH_<sha>.json`` via ``extra_info`` and
ratcheted by ``compare_bench.py``; the traced run's per-phase breakdown
rides along under ``extra_info["obs"]``.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.data.synthetic import make_feature_instance
from repro.obs.instrument import maybe_span
from repro.obs.trace import Trace

from .conftest import run_once

N, DIMENSION, P = 100_000, 8, 10
SHARDS, SHARD_WORKERS = 16, 2
ROUNDS = 51
MAX_OBS_OVERHEAD = 0.05
MAX_OBS_OVERHEAD_DISABLED = 0.01
NULL_SPAN_CALLS = 100_000


def _solve_seconds(instance, trace=None):
    """Wall and process CPU seconds of one sharded solve, and its result."""
    from repro import solve

    wall, cpu = time.perf_counter(), time.process_time()
    result = solve(
        instance.quality,
        instance.metric,
        tradeoff=instance.tradeoff,
        p=P,
        shards=SHARDS,
        shard_workers=SHARD_WORKERS,
        trace=trace,
    )
    return time.perf_counter() - wall, time.process_time() - cpu, result


def _null_span_seconds(calls: int) -> float:
    """Per-call cost of the no-op instrumentation path (trace is None)."""
    started = time.perf_counter()
    for _ in range(calls):
        with maybe_span(None, "noop", phase="bench"):
            pass
    return (time.perf_counter() - started) / calls


def _interleaved_rounds(instance):
    """Untraced and traced solves in interleaved rounds, after a warm-up.

    Each round runs one untraced and one traced solve back to back, and the
    side that goes first alternates round by round, so load drift lands on
    both sides equally instead of on whichever block runs second.  Returns
    ``(wall, cpu, untraced result, traced result, trace)``: ``wall`` and
    ``cpu`` are ``(ROUNDS, 2)`` arrays of untraced/traced seconds per round.
    """
    for warm_trace in (None, Trace()):  # let lazy set-up finish on both sides
        _solve_seconds(instance, warm_trace)
    wall, cpu = np.zeros((ROUNDS, 2)), np.zeros((ROUNDS, 2))
    results, trace = [None, None], None
    # As in the WAL overhead guard: the collector keeps running, so the
    # collections the span allocations trigger are still charged, but they
    # no longer scan the objects the rest of the test session left behind.
    gc.collect()
    gc.freeze()
    try:
        for index in range(ROUNDS):
            for side in (0, 1) if index % 2 == 0 else (1, 0):
                run_trace = Trace() if side else None
                wall[index, side], cpu[index, side], results[side] = (
                    _solve_seconds(instance, run_trace)
                )
                trace = run_trace or trace
    finally:
        gc.unfreeze()
    return wall, cpu, results[0], results[1], trace


def test_tracing_overhead(benchmark):
    """Traced n=100k sharded solve within 5% of untraced; no-op path ≤1%."""
    instance = make_feature_instance(N, dimension=DIMENSION, seed=71)

    wall, cpu, base_result, traced_result, trace = run_once(
        benchmark, _interleaved_rounds, instance
    )
    # The overhead is the median of the per-round traced/untraced wall-time
    # ratios: a pair shares its load window, and the median ignores the odd
    # round a burst lands on.  The quartiles show the spread, and the same
    # reading on process CPU time (all threads, no waiting for the GIL or a
    # core) rides along as a diagnostic.
    q1, median_ratio, q3 = np.percentile(wall[:, 1] / wall[:, 0], [25, 50, 75])
    cpu_ratio = np.median(cpu[:, 1] / cpu[:, 0])
    base_seconds, traced_seconds = np.median(wall, axis=0)

    # Tracing is observability, not behaviour: selections must be identical.
    assert traced_result.selected == base_result.selected
    assert traced_result.objective_value == base_result.objective_value

    span_count = len(trace.spans())
    assert span_count >= SHARDS, "expected at least one span per shard"
    timings = traced_result.metadata["timings"]
    assert "total" in timings and "shard" in timings

    overhead = max(0.0, median_ratio - 1.0)

    # Project the disabled cost: per-call no-op price x the number of spans
    # an instrumented solve emits, as a fraction of the untraced solve.
    null_per_call = _null_span_seconds(NULL_SPAN_CALLS)
    disabled = (null_per_call * span_count) / max(base_seconds, 1e-12)

    benchmark.extra_info["n"] = N
    benchmark.extra_info["shards"] = SHARDS
    benchmark.extra_info["span_count"] = span_count
    benchmark.extra_info["base_seconds"] = round(base_seconds, 4)
    benchmark.extra_info["traced_seconds"] = round(traced_seconds, 4)
    benchmark.extra_info["obs_overhead"] = round(overhead, 4)
    benchmark.extra_info["obs_overhead_iqr"] = round(q3 - q1, 4)
    benchmark.extra_info["obs_overhead_cpu"] = round(cpu_ratio - 1.0, 4)
    benchmark.extra_info["rounds"] = ROUNDS
    benchmark.extra_info["obs_overhead_disabled"] = round(disabled, 6)
    benchmark.extra_info["obs"] = {
        name: round(seconds, 6) for name, seconds in timings.items()
    }
    print(
        f"\nobs overhead n={N}: median wall untraced {base_seconds:.3f}s, "
        f"traced {traced_seconds:.3f}s; overhead {overhead:+.1%} (median of "
        f"{ROUNDS} rounds, IQR {q3 - q1:.1%}, CPU {cpu_ratio - 1.0:+.1%}, "
        f"{span_count} spans); "
        f"no-op path {null_per_call * 1e9:.0f} ns/call "
        f"-> {disabled:.4%} disabled overhead"
    )
    assert overhead <= MAX_OBS_OVERHEAD, (
        f"enabled tracing added {overhead:.1%} to the sharded solve "
        f"(budget {MAX_OBS_OVERHEAD:.0%})"
    )
    assert disabled <= MAX_OBS_OVERHEAD_DISABLED, (
        f"disabled instrumentation projects to {disabled:.2%} "
        f"(budget {MAX_OBS_OVERHEAD_DISABLED:.0%})"
    )
