"""What every workload reports, and the bookkeeping they share."""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from typing import Dict, List

from benchtrace import LAYERS

#: End-to-end metrics, reported by every workload from its untraced run.
#: Each workload maps its own operation onto them (see README.md):
#: serve-open's operation is a request, solve-batch's a cycle of its three
#: query kinds, stream-durable's a tick.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
)

#: Per-layer metrics, reported by every workload from its traced run.  A
#: layer a workload does not run reads 0.
PER_LAYER = (
    ("obs.overhead", "ratio"),
    ("obs.unattributed_ratio", "ratio"),
    *((f"{layer}.share", "ratio") for layer in LAYERS),
    ("serve.load.lag_ms", "ms"),
    ("serve.server.queue_wait_p50_ms", "ms"),
    ("serve.server.queue_wait_p99_ms", "ms"),
    ("serve.server.window_size", "count"),
    ("serve.server.window_size_open", "count"),
    ("serve.corpus.window_p50_ms", "ms"),
    ("serve.corpus.window_p99_ms", "ms"),
    ("serve.corpus.cache_hit_ratio", "ratio"),
    ("serve.corpus.restriction_hit_ms", "ms"),
    ("serve.corpus.restriction_miss_ms", "ms"),
    ("core.batch.query_ms", "ms"),
    ("serve.p50_ms", "ms"),
    ("serve.p90_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.capacity_qps", "1/s"),
    ("core.sharding.restrict_ms", "ms"),
    ("core.sharding.shard_busy_ms", "ms"),
    ("core.sharding.shard_wall_ms", "ms"),
    ("core.sharding.final_solve_ms", "ms"),
    ("core.sharding.unattributed_ms", "ms"),
    ("core.sharding.core_size", "count"),
    ("core.sharding.failed_shards", "count"),
    ("core.greedy.gain_state_ms", "ms"),
    ("core.greedy.rounds_ms", "ms"),
    ("core.greedy.celf_fraction", "ratio"),
    ("core.local_search.swaps", "count"),
    ("core.local_search.ms_per_swap", "ms"),
    ("batch.sharded_ms", "ms"),
    ("batch.local_search_ms", "ms"),
    ("batch.submodular_ms", "ms"),
    ("batch.sharded_parity", "ratio"),
    ("dynamic.session.apply_ms", "ms"),
    ("dynamic.engine.repair_ms", "ms"),
    ("dynamic.engine.dirty_shards", "count"),
    ("dynamic.engine.core_resolved_ratio", "ratio"),
    ("dynamic.engine.overrides_mid", "count"),
    ("dynamic.engine.overrides_end", "count"),
    ("metrics.overlay.build_ms", "ms"),
    ("metrics.overlay.builds_per_tick", "count"),
    ("durability.wal.journal_ms", "ms"),
    ("durability.wal.bytes_per_tick", "bytes"),
    ("durability.snapshot.compact_ms", "ms"),
    ("durability.snapshot.bytes", "bytes"),
    ("durability.snapshot.load_ms", "ms"),
    ("durability.recovery.replayed_ticks", "count"),
    ("stream.events_per_s", "1/s"),
    ("stream.tick_p50_ms", "ms"),
    ("stream.tick_p90_ms", "ms"),
    ("stream.recover_s", "s"),
    ("stream.parity", "ratio"),
)

#: Relative tolerance between a reported objective value and the
#: benchmark's independent recomputation.
VALUE_TOLERANCE = 1e-9


@dataclass
class Tally:
    """Operations attempted and failed; a failed output check is a failure."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def op(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def expect(self, condition: bool, reason: str) -> bool:
        """Count a failure when ``condition`` is false; return ``condition``."""
        if not condition:
            self.fail(reason)
        return condition


def settle() -> None:
    """Collect, then exempt the benchmark's generated inputs from later
    collections, so the program's garbage-collection pauses do not grow
    with the size of the benchmark's own data."""
    gc.collect()
    gc.freeze()


def values_match(reported: float, recomputed: float) -> bool:
    return math.isclose(
        reported, recomputed, rel_tol=VALUE_TOLERANCE, abs_tol=VALUE_TOLERANCE
    )


@dataclass
class WorkloadResult:
    """One run of one workload: metrics, operation counts, report lines."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    report: List[str] = field(default_factory=list)

    def line(self, text: str) -> None:
        self.report.append(text)
