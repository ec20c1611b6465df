"""Sharded core-set solving for huge universes.

Every solve path below :func:`~repro.core.solver.solve` is O(n²)-in-memory
once the metric is materialized, which caps the universe at tens of
thousands of elements.  This module lifts that cap with the classic
*composable core-set* scheme for max-sum diversification:

1. **Partition** the universe (or candidate pool) into contiguous shards.
2. **Solve each shard** as an independent sub-instance built by the
   restriction layer (:class:`~repro.core.restriction.Restriction`), using
   the lazy metric tier (:meth:`~repro.metrics.base.Metric.restrict_lazy` /
   :meth:`~repro.metrics.base.Metric.block`) so no step ever touches the
   global ``n × n`` matrix.  Shards are independent, so the map optionally
   runs on a thread or process pool.
3. **Union** the per-shard winners into a small core-set and run the final
   algorithm on that union, lifting indices back into the original universe.

With ``per_shard_p = p`` winners per shard the union is the standard
composable core-set for sum-dispersion objectives: each shard keeps every
element the global optimum could need from it up to the approximation factor
of the shard algorithm, so the two-stage objective stays within a constant
factor of the single-stage one (the benchmarks guard a ≥0.95 parity ratio
against global greedy empirically).

Memory model: the peak footprint is O(shard_size² + core²) — the one shard
block being solved (when the shard algorithm needs a materialized block at
all; plain greedy runs on O(shard_size · d) lazy state) plus the final
core-set block — instead of O(n²).

Fault tolerance
---------------
Shard independence is also what makes the map *recoverable*: losing a shard
loses only that shard's winners, never the solve.  One executor,
:class:`_ShardMap`, owns the whole map; it harvests futures individually
(instead of ``Executor.map``) so that

* a shard exceeding ``shard_timeout_s`` or a crashed process-pool worker
  (``BrokenProcessPool``) abandons the pool — ``shutdown(wait=False,
  cancel_futures=True)`` — harvests whatever already finished, and re-runs
  the unfinished shards **serially in-process** with bounded exponential-
  backoff retries;
* a shard that still fails serially contributes zero winners and a
  structured entry in ``metadata["sharding"]["failures"]`` — the core-set
  simply shrinks, the final stage still runs, and
  ``metadata["degraded"] = True`` flags the loss;
* a cooperative :class:`~repro.utils.deadline.Deadline` caps the whole
  pipeline: it is shipped *into* every shard solve (re-anchoring across
  process boundaries) and checked between harvests and before every serial
  attempt (it also caps each backoff sleep), so expiry stops dispatching,
  keeps the winners gathered so far, and returns an interrupted but
  feasible result;
* periodic :class:`~repro.core.checkpoint.SolveCheckpoint` snapshots record
  the global winners of every solved shard, so a resumed run skips straight
  to the shards that were lost.  A shard the deadline cut short adds its
  partial winners to this run's core-set but is not recorded as solved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro._types import Element
from repro.core.checkpoint import SolveCheckpoint, universe_fingerprint
from repro.core.kernels import weights_view_of
from repro.core.local_search import LocalSearchConfig
from repro.core.objective import Objective
from repro.core.restriction import Restriction
from repro.core.result import SolverResult, build_result
from repro.exceptions import InvalidParameterError
from repro.functions.base import SetFunction
from repro.metrics.base import Metric
from repro.metrics.matrix import DistanceMatrix
from repro.obs.instrument import (
    SHARD_FAILURES,
    SOLVE_SECONDS,
    SOLVES,
    maybe_span,
    maybe_start_span,
    phase_timings,
)
from repro.obs.trace import SpanBundle, Trace
from repro.utils.deadline import Deadline, mark_interrupted
from repro.utils.validation import check_candidate_pool

__all__ = ["shard_pool", "solve_sharded", "sub_metric"]

#: Shard-stage algorithms that run efficiently on a *lazy* sub-metric (their
#: hot loops only need rows, which feature metrics answer in O(k·d)).  Every
#: other algorithm wants the shard's distance block materialized so the
#: vectorized kernels apply.  Submodular quality keeps shard solves fast on
#: either tier: the restriction layer's quality views compose their parent's
#: batched marginal-gain states, so each per-shard greedy runs the CELF fast
#: path instead of a per-candidate oracle loop.
_LAZY_FRIENDLY_ALGORITHMS = frozenset({"auto", "greedy", "mmr"})

_EXECUTORS = ("thread", "process")

#: Ceiling on a single retry backoff sleep so a misconfigured
#: ``retry_backoff_s`` cannot stall the serial fallback for minutes.
_MAX_BACKOFF_SECONDS = 5.0


def shard_pool(
    pool: np.ndarray,
    *,
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
) -> List[np.ndarray]:
    """Split a sorted candidate pool into contiguous, non-empty shards.

    Exactly one of ``shards`` / ``shard_size`` may drive the split (when both
    are given, ``shards`` wins).  The shard count is clamped to the pool size
    and empty shards (requested count exceeding the pool) are dropped, so the
    result is always a partition of ``pool`` into non-empty pieces.
    """
    if shards is None and shard_size is None:
        raise InvalidParameterError("supply shards or shard_size")
    if shards is None:
        if shard_size < 1:
            raise InvalidParameterError("shard_size must be at least 1")
        shards = -(-pool.size // shard_size) if pool.size else 1
    if shards < 1:
        raise InvalidParameterError("shards must be at least 1")
    count = min(shards, max(pool.size, 1))
    return [part for part in np.array_split(pool, count) if part.size]


def _block_matrix(metric: Metric, pool: np.ndarray) -> DistanceMatrix:
    """Materialize ``pool × pool`` distances into a :class:`DistanceMatrix`.

    The block is symmetrized first: GEMM-based blocks (cosine) can disagree
    between ``B[i, j]`` and ``B[j, i]`` by a few ulps of reassociation noise,
    which the :class:`DistanceMatrix` axiom check would reject at high
    dimension.  Exactly-symmetric blocks (euclidean, matrix slices) pass
    through bitwise unchanged since ``(x + x) / 2 == x``.
    """
    block = metric.block(pool, pool)
    return DistanceMatrix((block + block.T) / 2.0, copy=False)


def sub_metric(metric: Metric, pool: np.ndarray, materialize: bool) -> Metric:
    """The restriction of ``metric`` onto ``pool`` for one shard solve.

    ``materialize=True`` produces a :class:`DistanceMatrix` (a copy-free view
    for matrix-backed parents, a chunk-computed block otherwise) so the
    vectorized kernels apply; ``materialize=False`` prefers the lazy tier and
    only falls back to the default O(k²) restriction for pure oracle metrics.

    Public because the dynamic session's shard-local repair builds the same
    per-shard restrictions outside a full :func:`solve_sharded` run.
    """
    if materialize:
        if metric.matrix_view() is not None:
            return metric.restrict(pool)
        return _block_matrix(metric, pool)
    lazy = metric.restrict_lazy(pool)
    return lazy if lazy is not None else metric.restrict(pool)


def _materialize_objective(objective: Objective) -> Objective:
    """Swap a lazy metric for its block-materialized :class:`DistanceMatrix`."""
    if objective.metric.matrix_view() is not None:
        return objective
    matrix = _block_matrix(objective.metric, np.arange(objective.n))
    return Objective(objective.quality, matrix, objective.tradeoff)


@dataclass(frozen=True)
class _ShardOutcome:
    """What one shard solve ships back to the parent."""

    winners: List[Element]  # sorted shard-local indices
    interrupted: bool  # the deadline cut the shard's solve short
    bundle: SpanBundle


#: Shard index → the zero-argument solve of that shard.
_Tasks = Dict[int, Callable[[], _ShardOutcome]]


def _solve_shard(
    objective: Objective,
    *,
    index: int,
    algorithm: str,
    p: int,
    config: Optional[LocalSearchConfig],
    materialize: bool,
    deadline: Optional[Deadline],
    traced: bool,
) -> _ShardOutcome:
    """Solve one shard sub-instance.

    Top-level so process pools can pickle it: the shard map submits it as a
    :func:`functools.partial` over these keywords.  Materialization happens
    here, in the worker, so the parent never holds more than one shard's
    block.  Pickling re-anchors the deadline with the parent's remaining
    budget, so the per-shard solve stops cooperatively even in a process
    pool, and the outcome says whether it did.  The worker traces into its
    own :class:`~repro.obs.trace.Trace` and ships the bundle back: its root
    ``shard`` span is the shard's elapsed time, and when the parent solve is
    traced the inner phases ride along to be adopted.
    """
    from repro.core.solver import _dispatch

    worker_trace = Trace()
    with worker_trace.span("shard", shard=index, size=objective.n) as handle:
        if materialize:
            with maybe_span(
                worker_trace if traced else None, "materialize", shard=index
            ):
                objective = _materialize_objective(objective)
        result = _dispatch(
            objective,
            algorithm,
            p=p,
            matroid=None,
            local_search_config=config,
            deadline=deadline,
            trace=worker_trace if traced else None,
        )
        handle.set(selected=len(result.selected))
    return _ShardOutcome(
        sorted(result.selected),
        bool(result.metadata.get("interrupted", False)),
        worker_trace.bundle(),
    )


def _emit_checkpoint(
    on_checkpoint: Callable[[SolveCheckpoint], None],
    started: float,
    shard_winners: Dict[int, Tuple[Element, ...]],
    **layout: Any,
) -> None:
    """Hand ``on_checkpoint`` a sharded snapshot of the solved shards' winners."""
    elapsed = time.perf_counter() - started
    on_checkpoint(
        SolveCheckpoint(shard_winners=shard_winners, elapsed_seconds=elapsed, **layout)
    )


@dataclass
class _ShardMap:
    """The shard map: runs shard solves and folds their outcomes into one state.

    It owns every policy between "these shards need solving" and "here are
    their winners": pooled or serial execution, per-shard timeout harvest,
    pool abandonment and salvage, serial retries with deadline-capped
    exponential backoff, failure records (``failures``, the
    ``SHARD_FAILURES`` counter and a synthetic ``shard`` span per failure),
    span-bundle adoption, ``shard_seconds`` and checkpoint emission.

    ``winners`` maps each shard that produced winners to their global ids;
    ``solved`` holds the shards that finished, the only ones a checkpoint
    records.  A shard the deadline cut short still adds its partial winners
    to this run's core-set, but it is not solved, so a resume re-solves it.
    """

    parts: List[np.ndarray]
    winners: Dict[int, np.ndarray]
    solved: Set[int]
    deadline: Optional[Deadline]
    shard_timeout_s: Optional[float]
    shard_retries: int
    retry_backoff_s: float
    trace: Optional[Trace]
    root_id: Optional[int]
    checkpoint: Optional[Callable[[Dict[int, Tuple[Element, ...]]], None]]
    checkpoint_every: int
    failures: List[dict] = field(default_factory=list)
    shard_seconds: float = 0.0
    interrupted: bool = False
    degraded: bool = False
    completions: int = 0

    def run(
        self, tasks: _Tasks, executor: Optional[str], max_workers: Optional[int]
    ) -> None:
        """Solve ``tasks``, on a pool when ``executor`` is given."""
        if self._expired():
            self.interrupted = True
            return
        if executor is not None:
            tasks = self._run_pool(tasks, executor, max_workers)
            if not tasks:
                return
            self.degraded = True
        self._run_serial(tasks)

    def _expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()

    def _run_serial(self, tasks: _Tasks) -> None:
        """In-process shard solves with bounded exponential-backoff retries.

        The deadline is checked before every attempt and caps every backoff
        sleep, so retries never run the solve past its budget.
        """
        for index, task in tasks.items():
            error: Optional[BaseException] = None
            for attempt in range(self.shard_retries + 1):
                if attempt and self.retry_backoff_s > 0:
                    backoff = self.retry_backoff_s * (2 ** (attempt - 1))
                    if self.deadline is not None:
                        backoff = min(backoff, self.deadline.remaining())
                    time.sleep(min(backoff, _MAX_BACKOFF_SECONDS))
                if self._expired():
                    self.interrupted = True
                    break
                try:
                    outcome = task()
                except Exception as exc:
                    error = exc
                    continue
                error = None
                self._record_success(index, outcome)
                break
            if error is not None:
                # The shard is lost: record it and move on with a smaller
                # core-set rather than failing the whole solve.
                self.degraded = True
                self._record_failure(index, "serial", error)
            if self.interrupted:
                return

    def _run_pool(
        self, tasks: _Tasks, executor: str, max_workers: Optional[int]
    ) -> _Tasks:
        """Pooled shard map; returns the shards that need the serial fallback.

        Futures are harvested in submission order with a per-shard timeout.
        Any unrecoverable pool condition — a shard overrunning
        ``shard_timeout_s`` (a hung worker cannot be cancelled individually)
        or a crashed worker process (``BrokenProcessPool``) — abandons the
        pool with ``shutdown(wait=False, cancel_futures=True)``, keeps every
        already-finished shard's result, and hands the rest back for serial
        in-process execution.  The pool is never allowed to kill the solve.
        """
        from concurrent.futures import (
            BrokenExecutor,
            ProcessPoolExecutor,
            ThreadPoolExecutor,
        )
        from concurrent.futures import TimeoutError as FutureTimeoutError

        pool_cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
        fallback: _Tasks = {}
        workers = pool_cls(max_workers=max_workers)
        abandoned = False
        try:
            futures = {index: workers.submit(task) for index, task in tasks.items()}
            for index, future in futures.items():
                if abandoned:
                    # Completed futures keep their results even after the
                    # pool broke or was abandoned; harvest them for free.
                    if future.done():
                        try:
                            self._record_success(index, future.result(timeout=0))
                        except Exception as error:
                            self._record_failure(index, "worker", error)
                            fallback[index] = tasks[index]
                    elif not self.interrupted:
                        fallback[index] = tasks[index]
                    continue
                budget = self.shard_timeout_s
                if self.deadline is not None:
                    remaining = self.deadline.remaining()
                    budget = remaining if budget is None else min(budget, remaining)
                try:
                    outcome = future.result(timeout=budget)
                except FutureTimeoutError as error:
                    abandoned = True
                    if self._expired():
                        # The global budget ran out, not the shard; skip the
                        # unfinished shards without blaming them.
                        self.interrupted = True
                    else:
                        self.degraded = True
                        self._record_failure(index, "worker_timeout", error)
                        fallback[index] = tasks[index]
                except BrokenExecutor as error:
                    abandoned = True
                    self.degraded = True
                    self._record_failure(index, "worker_crash", error)
                    fallback[index] = tasks[index]
                except Exception as error:
                    # The shard itself raised inside a healthy worker; retry
                    # it serially, keep harvesting the others from the pool.
                    self._record_failure(index, "worker", error)
                    fallback[index] = tasks[index]
                else:
                    self._record_success(index, outcome)
        finally:
            workers.shutdown(wait=False, cancel_futures=True)
        return fallback

    def _record_success(self, index: int, outcome: _ShardOutcome) -> None:
        local = np.asarray(outcome.winners, dtype=int)
        self.winners[index] = self.parts[index][local]
        # Only shards that finished ship a bundle back, and its root span is
        # the shard's elapsed time: spans and shard_seconds agree.
        self.shard_seconds += outcome.bundle.elapsed
        if self.trace is not None:
            self.trace.adopt(outcome.bundle, parent_id=self.root_id)
        if outcome.interrupted:
            self.interrupted = True
            return
        self.solved.add(index)
        self.completions += 1
        every = self.checkpoint_every
        if self.checkpoint is not None and self.completions % every == 0:
            self.checkpoint(
                {i: tuple(self.winners[i].tolist()) for i in sorted(self.solved)}
            )

    def _record_failure(self, index: int, stage: str, error: BaseException) -> None:
        self.failures.append({"shard": index, "stage": stage, "error": repr(error)})
        if SHARD_FAILURES.enabled():
            SHARD_FAILURES.inc(stage=stage)
        if self.trace is not None:
            # A crashed or timed-out worker takes its locally recorded spans
            # with it; record a synthetic zero-duration shard span so the
            # loss is visible in the trace instead of silent.
            self.trace.record_span(
                "shard",
                parent_id=self.root_id,
                status=stage,
                shard=index,
                error=repr(error),
            )


def solve_sharded(
    quality: SetFunction,
    metric: Metric,
    *,
    tradeoff: float,
    p: int,
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
    algorithm: str = "auto",
    shard_algorithm: Optional[str] = None,
    per_shard_p: Optional[int] = None,
    candidates: Optional[Iterable[Element]] = None,
    materialize_shards: Optional[bool] = None,
    max_workers: Optional[int] = None,
    executor: str = "thread",
    local_search_config: Optional[LocalSearchConfig] = None,
    deadline: Union[None, float, Deadline] = None,
    shard_timeout_s: Optional[float] = None,
    shard_retries: int = 1,
    retry_backoff_s: float = 0.05,
    checkpoint_every: Optional[int] = None,
    on_checkpoint: Optional[Callable[[SolveCheckpoint], None]] = None,
    resume_from: Optional[SolveCheckpoint] = None,
    trace: Optional[Trace] = None,
) -> SolverResult:
    """Solve a huge cardinality-constrained instance via a sharded core-set.

    Parameters
    ----------
    quality, metric, tradeoff:
        The instance ``(f, d, λ)``.  The metric is never asked for its full
        matrix: shard solves see at most a ``shard_size²`` block.
    p:
        Cardinality constraint.  Matroid constraints are not supported — the
        core-set union argument is cardinality-specific.
    shards, shard_size:
        Partition control: an explicit shard count, or a target elements-per-
        shard (the count is derived).  One of the two is required.  A single
        shard degenerates to — and returns exactly the result of — the plain
        unsharded solve.
    algorithm:
        Final-stage algorithm run on the core-set union, as in
        :func:`~repro.core.solver.solve` (the core-set is small, so expensive
        algorithms are affordable here).
    shard_algorithm:
        Per-shard algorithm (default ``"greedy"`` — Greedy B's 2-approximation
        is what the composability argument wants, and it runs on lazy O(k·d)
        state).
    per_shard_p:
        Winners kept per shard (default ``p``).  Raising it grows the
        core-set and tightens parity at the cost of final-stage work.
    candidates:
        Optional candidate pool; sharding then partitions the pool instead of
        the full universe.
    materialize_shards:
        Force (``True``) or forbid (``False``) materializing each shard's
        distance block.  Default ``None`` picks per algorithm: lazy for
        greedy-style shard algorithms, materialized for kernels that need the
        block (local search, pair seeding, Greedy A).
    max_workers, executor:
        Optional pool for the shard map: ``executor="thread"`` (honored only
        when the metric reports :attr:`~repro.metrics.base.Metric.parallel_safe`
        and the quality slices are array-backed) or ``executor="process"``
        (sub-instances are pickled to workers).  Each worker ships its shard
        span bundle back, and ``shard_seconds`` sums their elapsed times.
    local_search_config:
        Forwarded to any local-search stage (shard and final).
    deadline:
        Optional cooperative wall-clock budget (seconds or a
        :class:`~repro.utils.deadline.Deadline`) covering the whole pipeline.
        It is shipped into every shard solve and checked between shard
        harvests and before the final stage; on expiry the result is built
        from whatever winners exist with ``metadata["interrupted"] = True``.
    shard_timeout_s:
        Per-shard wall-clock timeout for pooled shard solves.  A shard that
        exceeds it is treated as lost: the pool is abandoned (a hung worker
        cannot be cancelled individually), finished shards are harvested and
        the unfinished ones re-run serially in-process.
    shard_retries:
        Bounded retry budget for *failing* (raising) shard solves in the
        serial fallback path, with exponential backoff starting at
        ``retry_backoff_s``.  0 disables retries.
    retry_backoff_s:
        Initial backoff sleep between serial retries, doubled per attempt
        (capped at 5 s).
    checkpoint_every, on_checkpoint:
        Emit a pickle-safe :class:`~repro.core.checkpoint.SolveCheckpoint`
        recording every solved shard's global winners after each
        ``checkpoint_every`` shard completions (default 1 when only the
        callback is given).
    resume_from:
        A ``kind="sharded"`` checkpoint from a previous run over the *same
        partition* (shard layout is verified): already-solved shards are
        skipped and their recorded winners reused.  Ignored by the
        single-shard degenerate path.
    trace:
        Optional :class:`~repro.obs.trace.Trace`.  The pipeline records a
        ``solve_sharded`` root span with ``restrict``, per-``shard`` and
        ``final_solve`` children; pool workers trace locally and their spans
        are adopted back with the shard results, and shards whose workers
        timed out or crashed get a synthetic ``shard`` span whose ``status``
        names the failure stage (``"worker_timeout"``/``"worker_crash"``/…)
        so lost work is visible in the trace rather than silent.
        ``metadata["timings"]`` gains the per-phase breakdown.

    Returns
    -------
    SolverResult
        Expressed in the original universe's indices.  ``metadata["sharding"]``
        records the shard layout, core-set size, executor, the summed
        per-shard solve seconds and any per-shard ``failures``;
        ``metadata["candidates"]`` is the user's pool when one was given, and
        ``metadata["degraded"]`` is ``True`` when any shard was lost or the
        pool fell back to serial execution.
    """
    started = time.perf_counter()
    if executor not in _EXECUTORS:
        raise InvalidParameterError(
            f"unknown executor {executor!r}; expected one of {_EXECUTORS}"
        )
    if max_workers is not None and max_workers < 1:
        raise InvalidParameterError("max_workers must be at least 1")
    if per_shard_p is not None and per_shard_p < 1:
        raise InvalidParameterError("per_shard_p must be at least 1")
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise InvalidParameterError(
            f"cardinality p must be a non-negative integer, got {p!r}"
        )
    if shard_timeout_s is not None and shard_timeout_s <= 0:
        raise InvalidParameterError("shard_timeout_s must be positive")
    if shard_retries < 0:
        raise InvalidParameterError("shard_retries must be non-negative")
    if retry_backoff_s < 0:
        raise InvalidParameterError("retry_backoff_s must be non-negative")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise InvalidParameterError("checkpoint_every must be at least 1")
    deadline = Deadline.coerce(deadline)

    objective = Objective(quality, metric, tradeoff)
    if candidates is not None:
        # Keep the user's first-seen order for delegation and metadata (the
        # restriction-layer convention); sort only the partitioning pool so
        # shards are contiguous (copy-free views on matrix-backed metrics).
        user_pool = check_candidate_pool(candidates, objective.n)
        pool = np.sort(user_pool)
    else:
        user_pool = None
        pool = np.arange(objective.n)
    parts = shard_pool(pool, shards=shards, shard_size=shard_size)

    if len(parts) <= 1:
        # One shard ≡ the plain solve; delegate so results are bit-identical.
        # Checkpoint/resume does not apply to the degenerate path (there is
        # no shard progress to snapshot); the deadline still does.
        from repro.core.solver import solve

        result = solve(
            quality,
            metric,
            tradeoff=tradeoff,
            p=p,
            algorithm=algorithm,
            candidates=user_pool,
            local_search_config=local_search_config,
            deadline_s=deadline,
            trace=trace,
        )
        sharding = {
            "shards": 1,
            "shard_sizes": [int(pool.size)],
            "core_size": int(pool.size),
            "degenerate": True,
        }
        return replace(result, metadata={**result.metadata, "sharding": sharding})

    shard_algorithm = shard_algorithm or "greedy"
    from repro.core.solver import ALGORITHMS, _dispatch

    for name, stage in ((algorithm, "algorithm"), (shard_algorithm, "shard_algorithm")):
        if name not in ALGORITHMS:
            raise InvalidParameterError(
                f"unknown {stage} {name!r}; expected one of {ALGORITHMS}"
            )
    keep = per_shard_p if per_shard_p is not None else max(p, 1)
    if materialize_shards is None:
        materialize_shards = shard_algorithm not in _LAZY_FRIENDLY_ALGORITHMS

    shard_sizes = tuple(int(part.size) for part in parts)
    # Shard layout is deliberately outside the fingerprint: a layout change
    # has its own dedicated InvalidParameterError below.
    fingerprint = universe_fingerprint(
        "solve", "sharded", objective.n, objective.tradeoff
    )
    resumed: Dict[int, np.ndarray] = {}
    if resume_from is not None:
        resume_from.require("sharded", objective.n, fingerprint=fingerprint)
        if tuple(resume_from.shard_sizes) != shard_sizes:
            raise InvalidParameterError(
                f"checkpoint shard layout {tuple(resume_from.shard_sizes)} does "
                f"not match the current partition {shard_sizes}"
            )
        resumed = {
            int(index): np.asarray(tuple(global_winners), dtype=int)
            for index, global_winners in resume_from.shard_winners.items()
        }

    # Explicit-start root span, closed at the end together with the
    # ``metadata["timings"]`` breakdown derived from it.
    root = maybe_start_span(
        trace,
        "solve_sharded",
        n=objective.n,
        p=p,
        shards=len(parts),
        executor=executor,
    )

    # Build the shard sub-instances (cheap: lazy metric slices + weight
    # slices), settling shards no bigger than their quota without solving at
    # all, and shards a resume checkpoint already covers.
    settled = dict(resumed)
    tasks: _Tasks = {}
    with maybe_span(trace, "restrict", shards=len(parts)):
        for index, shard in enumerate(parts):
            if index in settled:
                continue
            if shard.size <= keep:
                settled[index] = shard
                continue
            restriction = Restriction(
                objective, shard, metric=sub_metric(metric, shard, materialize=False)
            )
            tasks[index] = partial(
                _solve_shard,
                restriction.objective,
                index=index,
                algorithm=shard_algorithm,
                p=keep,
                config=local_search_config,
                materialize=materialize_shards,
                deadline=deadline,
                traced=trace is not None,
            )

    array_backed = weights_view_of(objective.quality) is not None
    # Thread-pooled shard maps need every oracle touched by a worker to be a
    # pure read of immutable NumPy state: the metric must declare itself
    # parallel-safe, and the quality must either expose an array weight view
    # (modular families) or declare `parallel_safe` itself (the built-in
    # submodular families, whose gains/gain-state protocol reads only the
    # immutable similarity/kernel arrays — per-shard states live inside each
    # worker's solve).
    use_pool = (
        max_workers is not None
        and max_workers > 1
        and len(tasks) > 1
        and (
            executor == "process"
            or (
                metric.parallel_safe
                and (array_backed or objective.quality.parallel_safe)
            )
        )
    )
    shard_map = _ShardMap(
        parts,
        settled,
        set(settled),
        deadline=deadline,
        shard_timeout_s=shard_timeout_s,
        shard_retries=shard_retries,
        retry_backoff_s=retry_backoff_s,
        trace=trace,
        root_id=root.id,
        checkpoint=None
        if on_checkpoint is None
        else partial(
            _emit_checkpoint,
            on_checkpoint,
            started,
            kind="sharded",
            n=objective.n,
            p=p,
            shard_sizes=shard_sizes,
            metadata={"algorithm": algorithm, "shard_algorithm": shard_algorithm},
            fingerprint=fingerprint,
        ),
        checkpoint_every=checkpoint_every or 1,
    )
    shard_map.run(tasks, executor if use_pool else None, max_workers)

    winners = [np.zeros(0, dtype=int), *shard_map.winners.values()]
    core = np.sort(np.concatenate(winners))
    if core.size:
        with maybe_span(
            trace, "final_solve", core=int(core.size), algorithm=algorithm
        ):
            final_restriction = Restriction(
                objective,
                core,
                metric=sub_metric(
                    metric, core, algorithm not in _LAZY_FRIENDLY_ALGORITHMS
                ),
            )
            final_p = min(p, core.size)
            if algorithm == "local_search":
                # Seed the final search with the core-set greedy solution
                # instead of the default best-pair basis: the shard stage
                # already paid for good winners, and a bounded search budget
                # should refine them, not rebuild from scratch.
                from repro.core.greedy import greedy_diversify
                from repro.core.local_search import local_search_diversify
                from repro.matroids.uniform import UniformMatroid

                seed = greedy_diversify(
                    final_restriction.objective,
                    final_p,
                    deadline=deadline,
                    trace=trace,
                )
                final = local_search_diversify(
                    final_restriction.objective,
                    UniformMatroid(final_restriction.n, final_p),
                    config=local_search_config,
                    initial=seed.selected,
                    deadline=deadline,
                )
            else:
                final = _dispatch(
                    final_restriction.objective,
                    algorithm,
                    p=final_p,
                    matroid=None,
                    local_search_config=local_search_config,
                    deadline=deadline,
                    trace=trace,
                )
            result = final_restriction.lift(final)
        if deadline is not None and deadline.expired():
            # A final stage cut short by the deadline can fall below a single
            # shard's winners (down to ∅); answer the better of the two.
            fits = [w.tolist() for w in shard_map.winners.values() if w.size <= p]
            best = max(fits, key=objective.value, default=[])
            if objective.value(best) > result.objective_value:
                result = build_result(
                    objective, best, best, algorithm=algorithm, metadata=result.metadata
                )
    else:
        # Every shard was lost (or the deadline expired before any winners
        # existed): the only feasible answer left is the empty selection.
        result = build_result(
            objective, set(), [], algorithm=algorithm, metadata={"p": p}
        )

    metadata = dict(result.metadata)
    if user_pool is not None:
        metadata["candidates"] = tuple(user_pool.tolist())
    else:
        metadata.pop("candidates", None)
    sharding = {
        "shards": len(parts),
        "shard_sizes": list(shard_sizes),
        "core_size": int(core.size),
        "per_shard_p": keep,
        "shard_algorithm": shard_algorithm,
        "materialized_shards": bool(materialize_shards),
        "executor": executor if use_pool else None,
        "shard_seconds": shard_map.shard_seconds,
    }
    failed_shards = sorted(set(range(len(parts))) - shard_map.winners.keys())
    if shard_map.failures or failed_shards or not core.size:
        sharding["failures"] = shard_map.failures
        sharding["failed_shards"] = failed_shards
    if resumed:
        sharding["resumed_shards"] = sorted(resumed)
    metadata["sharding"] = sharding
    if shard_map.degraded:
        metadata["degraded"] = True
        metadata["degradation"] = "shard_map"
    if shard_map.interrupted:
        mark_interrupted(metadata, deadline, "shard_map")

    elapsed = time.perf_counter() - started
    if SOLVES.enabled():
        SOLVES.inc(path="sharded")
        SOLVE_SECONDS.observe(elapsed, path="sharded")
    if trace is not None:
        root.set(
            core_size=int(core.size),
            degraded=shard_map.degraded,
            interrupted=shard_map.interrupted,
        )
        root.finish()
        metadata["timings"] = phase_timings(trace, root.id, total=elapsed)
    return replace(result, elapsed_seconds=elapsed, metadata=metadata)
