"""serve-open: the read path a search front end hits on every query.

A lazy Euclidean corpus (n=100 000, d=8, sharded layout) answers pool-scoped
queries (pools of 256, p=10) through the async micro-batching server.  Half
the pools come from 32 hot pools that fit the 256-entry restriction cache,
half are unique and churn it; 20% of queries carry per-query weights.  The
workload exercises ``serve.server``, ``serve.corpus`` and ``core.batch`` and
never touches sharding, local search, ``dynamic`` or ``durability``.

Each round has an open-loop segment, Poisson arrivals at a fixed rate with
each latency timed from the request's *scheduled* send time (so a stall
also charges the requests it delays), then a closed-loop segment, where
in-process coroutine clients send their next query when the previous one
returns, to measure capacity.  Rounds alternate the two so both see the
whole run.  Everything runs in this one process, on the event loop plus the
server's single executor thread.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.serve.corpus as corpus_module
from benchcommon import Tally, WorkloadResult, settle, values_match
from benchstats import mean, median, percentile
from benchtrace import SpanForest, layer_metrics, replaced
from repro import EuclideanMetric, ModularFunction, Objective, Trace
from repro.serve import PreparedCorpus, Server

N, DIM, SHARD_SIZE = 100_000, 8, 4096
POOL, P, TRADEOFF = 256, 10, 1.0
HOT_POOLS = 32
HOT_SHARE, WEIGHTED_SHARE = 0.5, 0.2
#: Open-loop rate.  On a shared 2-core virtual machine, at 300 QPS the tail
#: tracked the host's CPU steal (p99 20.7-65.7 ms within minutes at 0.3-2.7%
#: steal); at 100 QPS the server stays clear of its knee and holds still.
RATE_QPS = 100.0
CLIENTS = 64
MAX_BATCH, MAX_WAIT_S = 32, 0.002
ROUNDS = 3
#: Share of each round spent in the open loop; the rest is the closed loop.
OPEN_SHARE = 0.6
#: Open-loop arrivals during the first second warm the restriction cache
#: and are not measured.
WARMUP_S = 1.0
#: The open-loop p50 is the median of the p50s of the two halves of every
#: open segment, and capacity the median of one-second completion counts,
#: so a stretch of lost CPU moves some windows instead of the whole run.
CAPACITY_WINDOW_S = 1.0
#: The gated open-loop tail.  The p99 of a run at this rate mostly counts
#: the host's preemptions of the virtual CPU (same machine: 10.9-28.5 ms
#: across ten runs as host steal went from 0.2% to 3.7%), so it is reported
#: beside the gate, and the p90, over a hundred samples deep, is the gate.
TAIL_Q = 90.0
#: Set-up is timed this many times before the rounds, again in the middle
#: and again after them, so its median spans the run.
SETUP_REPEATS = 7
EQUALITY_SAMPLE = 32
#: Closed-loop queries are drawn from the bank after the open-loop ones;
#: sized for this many completions per second before wrapping around.
CLOSED_BANK_QPS = 1500

#: Threads doing work at once: the event loop and the executor thread.  The
#: process is pinned to one core (see ``_pin_to_one_cpu``), which an
#: idle-priority poller keeps awake (see ``_busy_core``).
THREADS = {"event_loop": 1, "server_executor": 1}


@dataclass
class Inputs:
    points: np.ndarray
    weights: np.ndarray
    pools: List[List[int]]
    query_weights: List[Optional[List[float]]]
    #: Per round, open-loop send offsets in seconds from the segment start.
    arrivals: List[np.ndarray]

    @property
    def open_count(self) -> int:
        return sum(offsets.size for offsets in self.arrivals)


def make_inputs(seed: int, open_s: float, closed_s: float) -> Inputs:
    """Queries for ``ROUNDS`` rounds of ``open_s`` / ``closed_s`` seconds."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(N, DIM))
    weights = rng.uniform(0.0, 1.0, size=N)
    hot = [rng.choice(N, size=POOL, replace=False).tolist() for _ in range(HOT_POOLS)]
    arrivals = []
    for _ in range(ROUNDS):
        gaps = rng.exponential(1.0 / RATE_QPS, size=int(RATE_QPS * open_s * 1.5) + 64)
        offsets = np.cumsum(gaps)
        arrivals.append(offsets[offsets < open_s])
    count = sum(a.size for a in arrivals) + int(CLOSED_BANK_QPS * closed_s * ROUNDS)
    pools: List[List[int]] = []
    query_weights: List[Optional[List[float]]] = []
    for _ in range(count + CLIENTS):
        if rng.uniform() < HOT_SHARE:
            pools.append(hot[int(rng.integers(HOT_POOLS))])
        else:
            pools.append(rng.choice(N, size=POOL, replace=False).tolist())
        query_weights.append(
            rng.uniform(0.0, 1.0, size=POOL).tolist()
            if rng.uniform() < WEIGHTED_SHARE
            else None
        )
    return Inputs(points, weights, pools, query_weights, arrivals)


class TracedCorpus(PreparedCorpus):
    """The corpus handed to the server in the traced pass.

    Records a span around each ``solve_window`` and ``restriction_for``
    call, the window each tagged request rode in, and restriction hits and
    misses.  The server runs windows on one executor thread, so the
    bookkeeping needs no lock.
    """

    def __init__(self, *args, trace: Trace, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trace = trace
        self.phase = "open"
        self.window_of: Dict[object, Tuple[float, float]] = {}
        self.windows: List[Tuple[str, float, int]] = []
        self.restriction_ms: Dict[str, List[float]] = {"hit": [], "miss": []}

    def restriction_for(self, pool):
        hits = self.cache_info()["hits"]
        started = time.perf_counter()
        with self.trace.span("serve.corpus.restriction_for"):
            view = super().restriction_for(pool)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        kind = "hit" if self.cache_info()["hits"] > hits else "miss"
        self.restriction_ms[kind].append(elapsed_ms)
        return view

    def solve_window(self, requests, **kwargs):
        opened = time.perf_counter()
        with self.trace.span("serve.corpus.solve_window", size=len(requests)):
            outcomes = super().solve_window(requests, **kwargs)
        closed = time.perf_counter()
        for request in requests:
            self.window_of[request.tag] = (opened, closed)
        self.windows.append((self.phase, closed - opened, len(requests)))
        return outcomes


def _traced_batch(trace: Trace):
    def make(original):
        def solve_window(queries, **kwargs):
            with trace.span("core.batch.solve_window", size=len(queries)):
                return original(queries, **kwargs)

        return solve_window

    return make


@dataclass(slots=True)
class Served:
    index: int
    tag: object  # unique per request, carried through the server to its window
    due: float
    sent: float
    done: float
    #: ``(sorted selection, objective_value)``, or the exception the request
    #: raised.  Keeping only these (not the result objects) holds the
    #: benchmark's own heap small, so it does not lengthen the program's
    #: garbage-collection pauses.
    answer: object


async def _submit(server: Server, inputs: Inputs, index: int, tag: object) -> object:
    try:
        result = await server.submit(
            inputs.pools[index], p=P, weights=inputs.query_weights[index], tag=tag
        )
    except Exception as error:  # a failed request is a measured miss
        return error
    return tuple(sorted(result.selected)), result.objective_value


@dataclass
class PassOutcome:
    open_served: List[Served] = field(default_factory=list)
    closed_served: List[Served] = field(default_factory=list)
    #: ``(start, seconds)`` of every open and closed segment.
    open_segments: List[Tuple[float, float]] = field(default_factory=list)
    closed_segments: List[Tuple[float, float]] = field(default_factory=list)


async def _open_segment(
    server: Server, inputs: Inputs, round_index: int, out: PassOutcome, open_s: float
) -> None:
    first = sum(offsets.size for offsets in inputs.arrivals[:round_index])
    t0 = time.perf_counter() + 0.01
    out.open_segments.append((t0, open_s))
    pending = set()

    async def request(index: int, due: float) -> None:
        sent = time.perf_counter()
        answer = await _submit(server, inputs, index, index)
        out.open_served.append(
            Served(index, index, due, sent, time.perf_counter(), answer)
        )

    for position, offset in enumerate(inputs.arrivals[round_index].tolist()):
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        task = asyncio.create_task(request(first + position, due))
        pending.add(task)
        task.add_done_callback(pending.discard)
    await asyncio.gather(*pending)
    # the segment lasts its full length even when the last arrival is early
    await asyncio.sleep(max(0.0, t0 + open_s - time.perf_counter()))


async def _closed_segment(
    server: Server, inputs: Inputs, cursor: List[int], out: PassOutcome, seconds: float
) -> None:
    stop_at = time.perf_counter() + seconds

    async def client() -> None:
        while time.perf_counter() < stop_at:
            tag = ("closed", cursor[0])
            index = cursor[0] % len(inputs.pools)
            cursor[0] += 1
            sent = time.perf_counter()
            answer = await _submit(server, inputs, index, tag)
            out.closed_served.append(
                Served(index, tag, sent, sent, time.perf_counter(), answer)
            )

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    out.closed_segments.append((started, time.perf_counter() - started))


async def _start(
    inputs: Inputs, trace: Optional[Trace]
) -> Tuple[Server, PreparedCorpus]:
    """The set-up a serving process pays: prepare the corpus, start the server."""
    quality = ModularFunction(inputs.weights)
    metric = EuclideanMetric(inputs.points)
    if trace is None:
        corpus = PreparedCorpus(
            quality, metric, tradeoff=TRADEOFF, shard_size=SHARD_SIZE
        )
    else:
        corpus = TracedCorpus(
            quality, metric, tradeoff=TRADEOFF, shard_size=SHARD_SIZE, trace=trace
        )
    server = Server(
        corpus, max_batch_size=MAX_BATCH, max_wait_s=MAX_WAIT_S, trace=trace
    )
    await server.start()
    return server, corpus


async def _time_setup(inputs: Inputs, setup_times: List[float]) -> None:
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        server, _ = await _start(inputs, None)
        setup_times.append(time.perf_counter() - started)
        await server.stop()


async def _pass(
    inputs: Inputs,
    open_s: float,
    closed_s: float,
    *,
    setup_times: Optional[List[float]] = None,
    trace: Optional[Trace] = None,
) -> Tuple[PassOutcome, PreparedCorpus]:
    """``ROUNDS`` rounds of an open segment then a closed segment."""
    if setup_times is not None:
        await _time_setup(inputs, setup_times)
    server, corpus = await _start(inputs, trace)
    out = PassOutcome()
    cursor = [inputs.open_count]
    traced_corpus = corpus if isinstance(corpus, TracedCorpus) else None
    try:
        for round_index in range(ROUNDS):
            if traced_corpus is not None:
                traced_corpus.phase = "open"
            await _open_segment(server, inputs, round_index, out, open_s)
            if traced_corpus is not None:
                traced_corpus.phase = "closed"
            await _closed_segment(server, inputs, cursor, out, closed_s)
            if setup_times is not None and round_index == ROUNDS // 2:
                await _time_setup(inputs, setup_times)
    finally:
        await server.stop()
    if setup_times is not None:
        await _time_setup(inputs, setup_times)
    return out, corpus


def _measured(outcome: PassOutcome) -> List[Served]:
    warm_until = outcome.open_segments[0][0] + WARMUP_S
    return [s for s in outcome.open_served if s.due >= warm_until]


def _latency_ms(served: Served, miss_ms: float) -> float:
    if isinstance(served.answer, Exception):
        return miss_ms
    return (served.done - served.due) * 1000.0


def _open_loop_figures(outcome: PassOutcome) -> Dict[str, float]:
    measured = _measured(outcome)
    # A failed request counts as missing any latency limit: it is charged
    # the whole open segment.
    miss_ms = outcome.open_segments[0][1] * 1000.0
    latencies = [_latency_ms(s, miss_ms) for s in measured]
    windows = []
    for start, length in outcome.open_segments:
        middle = start + length / 2
        for lo, hi in ((start, middle), (middle, start + length)):
            chunk = [_latency_ms(s, miss_ms) for s in measured if lo <= s.due < hi]
            if chunk:
                windows.append(chunk)
    done = [
        s.done for s in outcome.closed_served if not isinstance(s.answer, Exception)
    ]
    per_second = [
        sum(1 for t in done if lo <= t < lo + CAPACITY_WINDOW_S) / CAPACITY_WINDOW_S
        for start, length in outcome.closed_segments
        for lo in (
            start + k * CAPACITY_WINDOW_S
            for k in range(int(length / CAPACITY_WINDOW_S))
        )
    ]
    return {
        "p50_ms": median([percentile(chunk, 50.0) for chunk in windows]),
        "windows": len(windows),
        "tail_ms": percentile(latencies, TAIL_Q),
        "p99_ms": percentile(latencies, 99.0),
        "samples": len(latencies),
        "window_min_samples": min(len(chunk) for chunk in windows),
        "lag_p99_ms": percentile([(s.sent - s.due) * 1000.0 for s in measured], 99.0),
        "capacity_qps": median(per_second),
        "capacity_windows": len(per_second),
        "closed_completed": len(done),
    }


def _check(
    inputs: Inputs, corpus: PreparedCorpus, outcome: PassOutcome, tally: Tally, rng
) -> None:
    """Every served answer: |S| = p and φ equal to an independent recomputation;
    a sample also equals the synchronous ``corpus.solve`` answer."""
    metric = EuclideanMetric(inputs.points)
    shared = Objective(ModularFunction(inputs.weights), metric, TRADEOFF)
    scratch = np.zeros(N)
    ok: List[Served] = []
    for served in outcome.open_served + outcome.closed_served:
        tally.op()
        if isinstance(served.answer, Exception):
            tally.fail(f"request {served.index} raised {served.answer!r}")
            continue
        selected, value = served.answer
        if not tally.expect(
            len(selected) == P, f"request {served.index}: |S|={len(selected)}"
        ):
            continue
        pool = inputs.pools[served.index]
        query_weights = inputs.query_weights[served.index]
        if query_weights is None:
            objective = shared
        else:
            scratch[:] = 0.0
            scratch[pool] = query_weights
            objective = Objective(ModularFunction(scratch), metric, TRADEOFF)
        if tally.expect(
            set(selected) <= set(pool)
            and values_match(value, objective.value(selected)),
            f"request {served.index}: objective_value {value!r} does not match "
            "the recomputed value",
        ):
            ok.append(served)
    sample = rng.choice(len(ok), size=min(EQUALITY_SAMPLE, len(ok)), replace=False)
    for position in sample.tolist():
        served = ok[position]
        direct = corpus.solve(
            inputs.pools[served.index], p=P, weights=inputs.query_weights[served.index]
        )
        tally.expect(
            (tuple(sorted(direct.selected)), direct.objective_value) == served.answer,
            f"request {served.index}: served answer differs from corpus.solve",
        )


def _pin_to_one_cpu() -> Optional[int]:
    """Run this process, and the threads it starts later, on one core.

    The loop and the executor thread take turns holding the interpreter
    lock; on two cores every hand-off wakes the other core, which on a
    shared virtual machine waits for the host to schedule it.  On one core
    the server answers faster and its latency stops tracking the host's
    load (measured: p50 6.2-6.9 ms pinned against 6.6-10.1 ms unpinned over
    the same minutes).  Returns the core, or ``None`` where the platform
    cannot pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


#: Spins at the lowest scheduling priority on one core until its parent
#: exits or it is killed.
_POLLER = """
import os, sys
parent, cpu = os.getppid(), int(sys.argv[1])
os.sched_setaffinity(0, {cpu})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


@contextmanager
def _busy_core(cpu: Optional[int]) -> Iterator[None]:
    """Keep ``cpu`` from idling while the server runs on it.

    At 100 QPS the server idles between requests; on a virtual machine each
    wake-up of an idle virtual CPU then waits for the host, which puts the
    host's load into every latency.  A poller at idle priority keeps the
    core awake, as ``idle=poll`` would, and yields to the server at once
    (measured over the same minutes: p99 9.2-11.1 ms with the poller,
    9.7-25.9 ms without).
    """
    if cpu is None:
        yield
        return
    poller = subprocess.Popen(
        [sys.executable, "-c", _POLLER, str(cpu)],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        yield
    finally:
        poller.kill()
        poller.wait(timeout=30)


def run(
    seed: int, seconds: float, traced: bool, trace_path: str, work_dir: str
) -> WorkloadResult:
    """One run; ``work_dir`` (scratch space) is not needed here."""
    cpu = _pin_to_one_cpu()
    with _busy_core(cpu):
        out = _run(seed, seconds, traced, trace_path)
    out.report.insert(
        0,
        f"serving process pinned to cpu {cpu}, kept awake by an idle-priority poller"
        if cpu is not None
        else "serving process not pinned (no CPU affinity on this platform)",
    )
    return out


def _run(seed: int, seconds: float, traced: bool, trace_path: str) -> WorkloadResult:
    out = WorkloadResult()
    passes = 2 if traced else 1
    round_s = seconds / passes / ROUNDS
    open_s = max(round_s * OPEN_SHARE, WARMUP_S + 1.0)
    closed_s = max(round_s - open_s, CAPACITY_WINDOW_S)
    inputs = make_inputs(seed, open_s, closed_s)
    settle()
    check_rng = np.random.default_rng(seed + 1)

    setup_times: List[float] = []
    plain, plain_corpus = asyncio.run(
        _pass(inputs, open_s, closed_s, setup_times=setup_times)
    )
    _check(inputs, plain_corpus, plain, out.tally, check_rng)
    figures = _open_loop_figures(plain)

    out.end_to_end = {
        "setup_s": median(setup_times),
        "op_p50_ms": figures["p50_ms"],
        "op_tail_ms": figures["tail_ms"],
        "throughput_per_s": figures["capacity_qps"],
    }
    out.line(
        f"serve.p50_ms {figures['p50_ms']:.3f} ms (median of {figures['windows']} "
        f"window p50s, >= {figures['window_min_samples']} samples each; open loop "
        f"at {RATE_QPS:.0f} QPS in {ROUNDS} segments, from scheduled send)"
    )
    beyond = figures["samples"] * (1 - TAIL_Q / 100)
    out.line(
        f"serve.p{TAIL_Q:g}_ms {figures['tail_ms']:.3f} ms "
        f"(n={figures['samples']}, {beyond:.1f} beyond)"
    )
    out.line(
        f"serve.p99_ms {figures['p99_ms']:.3f} ms (n={figures['samples']}, "
        f"{figures['samples'] * 0.01:.1f} beyond; reported, not gated)"
    )
    out.line(
        f"serve.capacity_qps {figures['capacity_qps']:.1f} req/s (median of "
        f"{figures['capacity_windows']} one-second windows, "
        f"{figures['closed_completed']} completions, {CLIENTS} closed-loop clients)"
    )
    out.line(
        f"serve.load.lag_ms {figures['lag_p99_ms']:.3f} ms (generator lateness p99)"
    )
    out.line(f"setup_s {median(setup_times):.6f} s (median of {len(setup_times)})")
    if not traced:
        return out

    trace = Trace()
    with replaced(corpus_module, "solve_window", _traced_batch(trace)):
        traced_outcome, traced_corpus = asyncio.run(
            _pass(inputs, open_s, closed_s, trace=trace)
        )
    trace.export(trace_path)
    traced_figures = _open_loop_figures(traced_outcome)
    forest = SpanForest(trace.spans())

    measured = [
        s
        for s in _measured(traced_outcome)
        if not isinstance(s.answer, Exception) and s.tag in traced_corpus.window_of
    ]
    queue_wait = [
        (traced_corpus.window_of[s.tag][0] - s.due) * 1000.0 for s in measured
    ]
    latency = sum(s.done - s.due for s in measured)
    # After its window closes, a request still waits for the event loop to
    # hand the result back: latency no layer span covers.
    outside = sum(s.done - traced_corpus.window_of[s.tag][1] for s in measured)
    windows = traced_corpus.windows
    open_windows = [(t, size) for phase, t, size in windows if phase == "open"]
    closed_windows = [(t, size) for phase, t, size in windows if phase == "closed"]
    open_window_ms = [t * 1000.0 for t, _ in open_windows]
    cache = traced_corpus.cache_info()
    restriction = traced_corpus.restriction_ms
    out.per_layer = {
        **layer_metrics(forest),
        "obs.overhead": traced_figures["p50_ms"] / figures["p50_ms"] - 1.0,
        "obs.unattributed_ratio": outside / latency,
        "serve.load.lag_ms": figures["lag_p99_ms"],
        "serve.server.queue_wait_p50_ms": percentile(queue_wait, 50.0),
        "serve.server.queue_wait_p99_ms": percentile(queue_wait, 99.0),
        "serve.server.window_size": mean([size for _, size in closed_windows]),
        "serve.server.window_size_open": mean([size for _, size in open_windows]),
        "serve.corpus.window_p50_ms": percentile(open_window_ms, 50.0),
        "serve.corpus.window_p99_ms": percentile(open_window_ms, 99.0),
        "serve.corpus.cache_hit_ratio": cache["hits"]
        / (cache["hits"] + cache["misses"]),
        "serve.corpus.restriction_hit_ms": median(restriction["hit"] or [0.0]),
        "serve.corpus.restriction_miss_ms": median(restriction["miss"] or [0.0]),
        "core.batch.query_ms": median(
            [t * 1000.0 / size for t, size in closed_windows]
        ),
        "serve.p50_ms": figures["p50_ms"],
        "serve.p90_ms": figures["tail_ms"],
        "serve.p99_ms": figures["p99_ms"],
        "serve.capacity_qps": figures["capacity_qps"],
    }
    out.line(
        f"traced pass: {len(forest.spans)} spans, queue wait n={len(queue_wait)}, "
        f"{len(open_windows)} open-loop and {len(closed_windows)} closed-loop windows"
    )
    # Checked last: the synchronous comparison solves go through the traced
    # corpus too and must not count as served windows.
    _check(inputs, traced_corpus, traced_outcome, out.tally, check_rng)
    return out
