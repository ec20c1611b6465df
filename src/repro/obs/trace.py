"""Lightweight span tracing for the solve / dynamic / serving stack.

A :class:`Trace` collects named, nested :class:`Span` records — wall-clock
phases of a solve (restrict, shard solves, greedy rounds), a dynamic tick
(WAL append, apply, repair) or a serving window (queue wait, execute).  The
design goals, in order:

* **Cheap.**  Entering a span is a ``perf_counter`` read, a counter bump and
  a contextvar set; when no trace is passed (the default everywhere) the
  instrumented code paths go through :func:`repro.obs.instrument.maybe_span`
  which returns a shared no-op context manager — the disabled overhead is
  guarded at ≈0% in ``benchmarks/test_perf_obs.py``.
* **Correctly nested without plumbing.**  The current span id is propagated
  through a :mod:`contextvars` variable, so a span opened anywhere below an
  open span becomes its child automatically — across ``async`` tasks too,
  since contextvars follow the task context.
* **Pool-worker safe.**  Contextvars do not cross threads or processes, and
  a pickled :class:`Trace` would be an orphaned copy.  Pool workers instead
  record spans into their *own* local trace and ship a :class:`SpanBundle`
  back with the shard result; the parent folds it in with
  :meth:`Trace.adopt`.  The bundle doubles as the shard's timing record.
* **Readable.**  :meth:`Trace.export` writes Chrome ``trace_event`` JSON
  loadable in ``chrome://tracing`` or `Perfetto <https://ui.perfetto.dev>`_.

Clocks: span durations come from :func:`time.perf_counter` (monotonic);
span *placement* uses offsets from the trace's epoch.  Adopted worker
bundles are rebased via their Unix-epoch anchor, so cross-process spans
land at approximately the right wall-clock position (same-host clock skew —
microseconds — is irrelevant at trace-viewing resolution).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")

__all__ = [
    "Span",
    "SpanBundle",
    "SpanHandle",
    "Trace",
    "timed",
]

#: (trace token, span id) of the innermost open span in this context.  One
#: process-wide variable keyed by a per-trace token, so two live traces never
#: adopt each other's parents.
_ACTIVE: ContextVar[Optional[Tuple[int, int]]] = ContextVar(
    "repro_obs_active_span", default=None
)

_TRACE_TOKENS = itertools.count(1)

#: Sentinel distinguishing "no explicit parent given" (inherit the contextvar)
#: from "explicitly a root span" (``parent_id=None``).
_INHERIT = object()


@dataclass
class Span:
    """One completed (or synthetic) timed phase.

    ``start_s`` is the offset from the owning trace's epoch in seconds;
    ``duration_s`` is measured on the monotonic clock.  ``status`` is
    ``"ok"`` unless the block raised (``"error"``) or the span was recorded
    synthetically for work that never reported back (for example
    ``"worker_crash"`` when a SIGKILLed pool worker took its spans with it).
    Plain picklable data, so bundles cross process boundaries untouched.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    duration_s: float
    attrs: Dict[str, object] = field(default_factory=dict)
    pid: int = 0
    tid: int = 0
    status: str = "ok"


@dataclass(frozen=True)
class SpanBundle:
    """Spans recorded by a pool worker, shipped back with its result.

    ``epoch_unix`` anchors the worker trace's epoch on the Unix clock so the
    parent can rebase span offsets into its own timeline (see
    :meth:`Trace.adopt`).  The bundle also *is* the shard's timing record:
    :attr:`elapsed` sums the root spans' durations, and the shard map adds
    it to ``metadata["sharding"]["shard_seconds"]`` — one code path for span
    and elapsed-time accounting.
    """

    spans: Tuple[Span, ...]
    epoch_unix: float

    @property
    def elapsed(self) -> float:
        """Total duration of the bundle's root spans, in seconds."""
        return sum(s.duration_s for s in self.spans if s.parent_id is None)


class SpanHandle:
    """Mutable view of an *open* span: set attributes, then finish it.

    Yielded by :meth:`Trace.span`; also usable explicitly via
    :meth:`Trace.start_span` / :meth:`finish` when a phase cannot be wrapped
    in a single ``with`` block (multiple exit points).  ``finish`` is
    idempotent.
    """

    __slots__ = ("_trace", "id", "name", "parent_id", "_start", "attrs", "_token",
                 "status", "_done")

    def __init__(
        self,
        trace: "Trace",
        span_id: int,
        name: str,
        parent_id: Optional[int],
        attrs: Dict[str, object],
    ) -> None:
        self._trace = trace
        self.id = span_id
        self.name = name
        self.parent_id = parent_id
        self.attrs = attrs
        self.status = "ok"
        self._start = time.perf_counter()
        self._token = _ACTIVE.set((trace._token, span_id))
        self._done = False

    def set(self, **attrs: object) -> "SpanHandle":
        """Attach attributes to the open span; returns ``self`` for chaining."""
        self.attrs.update(attrs)
        return self

    def finish(self, status: Optional[str] = None) -> None:
        """Close the span, recording its duration (idempotent)."""
        if self._done:
            return
        self._done = True
        duration = time.perf_counter() - self._start
        if status is not None:
            self.status = status
        _ACTIVE.reset(self._token)
        self._trace._record_finished(self, duration)


class _NullHandle:
    """No-op stand-in yielded when tracing is disabled."""

    __slots__ = ()
    id = None

    def set(self, **attrs: object) -> "_NullHandle":
        return self

    def finish(self, status: Optional[str] = None) -> None:
        return None


NULL_HANDLE = _NullHandle()


class Trace:
    """A thread-safe collection of spans with one shared timeline.

    Example
    -------
    >>> trace = Trace()
    >>> with trace.span("solve", n=100) as root:
    ...     with trace.span("restrict"):
    ...         pass
    >>> [s.name for s in trace.spans()]
    ['restrict', 'solve']
    >>> trace.spans()[0].parent_id == root.id
    True
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._ids = itertools.count(1)
        self._token = next(_TRACE_TOKENS)
        self._epoch_perf = time.perf_counter()
        self._epoch_unix = time.time()

    # ------------------------------------------------------------------ record
    def start_span(
        self,
        name: str,
        *,
        parent_id: object = _INHERIT,
        **attrs: object,
    ) -> SpanHandle:
        """Open a span explicitly; pair with :meth:`SpanHandle.finish`.

        ``parent_id`` defaults to the innermost open span of *this* trace in
        the current context; pass ``None`` to force a root span, or an
        explicit id when crossing a thread boundary (contextvars do not
        follow ``run_in_executor``).
        """
        if parent_id is _INHERIT:
            parent_id = self.current_span_id()
        with self._lock:
            span_id = next(self._ids)
        return SpanHandle(self, span_id, name, parent_id, dict(attrs))

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent_id: object = _INHERIT,
        **attrs: object,
    ) -> Iterator[SpanHandle]:
        """Record the block as a span; exceptions mark ``status="error"``."""
        handle = self.start_span(name, parent_id=parent_id, **attrs)
        try:
            yield handle
        except BaseException as error:
            handle.attrs.setdefault("error", repr(error))
            handle.finish(status="error")
            raise
        else:
            handle.finish()

    def _record_finished(self, handle: SpanHandle, duration: float) -> None:
        span = Span(
            name=handle.name,
            span_id=handle.id,
            parent_id=handle.parent_id,
            start_s=handle._start - self._epoch_perf,
            duration_s=duration,
            attrs=handle.attrs,
            pid=os.getpid(),
            tid=threading.get_ident(),
            status=handle.status,
        )
        with self._lock:
            self._spans.append(span)

    def record_span(
        self,
        name: str,
        *,
        parent_id: Optional[int] = None,
        duration_s: float = 0.0,
        status: str = "ok",
        **attrs: object,
    ) -> Span:
        """Append a synthetic span directly (no timing block).

        Used for work that produced no span of its own — e.g. the parent
        records a ``status="worker_crash"`` shard span when a killed pool
        worker's local spans are unrecoverable, so the loss is visible in
        the trace instead of silent.
        """
        now = time.perf_counter() - self._epoch_perf
        with self._lock:
            span = Span(
                name=name,
                span_id=next(self._ids),
                parent_id=parent_id,
                start_s=max(0.0, now - duration_s),
                duration_s=duration_s,
                attrs=dict(attrs),
                pid=os.getpid(),
                tid=threading.get_ident(),
                status=status,
            )
            self._spans.append(span)
        return span

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span of this trace in this context."""
        active = _ACTIVE.get()
        if active is not None and active[0] == self._token:
            return active[1]
        return None

    # ---------------------------------------------------------------- shipping
    def bundle(self) -> SpanBundle:
        """Snapshot this trace's spans for shipping across a pool boundary."""
        return SpanBundle(spans=self.spans(), epoch_unix=self._epoch_unix)

    def adopt(
        self, bundle: SpanBundle, *, parent_id: Optional[int] = None
    ) -> List[int]:
        """Fold a worker's spans into this trace; returns the new root ids.

        Span ids are remapped into this trace's id space (bundles from many
        workers would otherwise collide), root spans are re-parented under
        ``parent_id``, and start offsets are rebased through the bundle's
        Unix-epoch anchor so the spans land at the wall-clock position the
        worker actually ran (clamped to this trace's timeline start).
        """
        offset = bundle.epoch_unix - self._epoch_unix
        id_map: Dict[int, int] = {}
        adopted_roots: List[int] = []
        with self._lock:
            for span in bundle.spans:
                id_map[span.span_id] = next(self._ids)
            for span in bundle.spans:
                if span.parent_id is None:
                    new_parent = parent_id
                else:
                    new_parent = id_map.get(span.parent_id, parent_id)
                new_id = id_map[span.span_id]
                if span.parent_id is None:
                    adopted_roots.append(new_id)
                self._spans.append(
                    Span(
                        name=span.name,
                        span_id=new_id,
                        parent_id=new_parent,
                        start_s=max(0.0, span.start_s + offset),
                        duration_s=span.duration_s,
                        attrs=dict(span.attrs),
                        pid=span.pid,
                        tid=span.tid,
                        status=span.status,
                    )
                )
        return adopted_roots

    # ----------------------------------------------------------------- queries
    def spans(self) -> Tuple[Span, ...]:
        """Snapshot of the completed spans (in completion order)."""
        with self._lock:
            return tuple(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def find(self, name: str) -> List[Span]:
        """All completed spans with the given name."""
        return [span for span in self.spans() if span.name == name]

    def descendants(self, root_id: Optional[int]) -> List[Span]:
        """Completed spans whose parent chain reaches ``root_id``.

        ``root_id=None`` returns every completed span.  The root itself is
        excluded (it is usually still open when this is called).
        """
        snapshot = self.spans()
        if root_id is None:
            return list(snapshot)
        by_id = {span.span_id: span for span in snapshot}
        out: List[Span] = []
        for span in snapshot:
            parent = span.parent_id
            while parent is not None:
                if parent == root_id:
                    out.append(span)
                    break
                above = by_id.get(parent)
                parent = above.parent_id if above is not None else None
        return out

    def aggregate(self, root_id: Optional[int] = None) -> Dict[str, float]:
        """Total seconds per span name, optionally restricted to a subtree."""
        totals: Dict[str, float] = {}
        for span in self.descendants(root_id):
            totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
        return totals

    # ------------------------------------------------------------------ export
    def to_chrome(self) -> Dict[str, object]:
        """This trace as a Chrome ``trace_event`` JSON object.

        Complete ``"ph": "X"`` duration events with microsecond timestamps;
        span attributes, ids and status ride in ``args`` so tooling (and our
        tests) can reconstruct the parent/child structure exactly rather
        than inferring it from time containment.
        """
        events: List[Dict[str, object]] = []
        for span in self.spans():
            args: Dict[str, object] = dict(span.attrs)
            args["span_id"] = span.span_id
            args["parent_id"] = span.parent_id
            args["status"] = span.status
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": round(span.start_s * 1e6, 3),
                    "dur": round(span.duration_s * 1e6, 3),
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export(self, path: str) -> str:
        """Write Chrome-trace JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.to_chrome(), stream)
        return path


def timed(func: Callable[[], T]) -> Tuple[T, float]:
    """Run ``func`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start
