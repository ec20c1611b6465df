"""Process-wide metrics: counters, gauges and fixed-bucket histograms.

Where :mod:`repro.obs.trace` answers "where did *this* solve's time go?",
the metrics layer answers "what has this process been doing?" — cumulative
counters (ticks applied, shard failures by stage), point-in-time gauges
(pending requests) and latency histograms (WAL fsync, serving queue wait)
that survive across individual solves and render as a Prometheus-style text
exposition for scraping.

Cost discipline
---------------
Instruments bound to a *disabled* registry are cheap no-ops: every
``inc``/``set``/``observe`` checks a plain boolean attribute before taking
the registry lock, so leaving the default registry disabled (it is, unless
:func:`repro.obs.instrument` consumers enable it) keeps hot paths at a
function call + attribute read.  Standalone instruments (``registry=None``),
like the serving tier's latency histograms, are always on — they are owned
by objects that exist only when the feature is in use.

Histograms use *fixed* bucket bounds chosen at construction, so observation
is O(#buckets) worst-case (a linear scan over ≤ ~20 bounds) with no
allocation, and quantile estimates interpolate within the bucket — the
standard Prometheus trade: cheap writes, bounded-error reads.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import InvalidParameterError

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
]

#: Log-spaced seconds from 0.1 ms to 60 s — wide enough for WAL fsyncs at the
#: bottom and sharded 10⁶-element solves at the top.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


def _label_key(
    labelnames: Tuple[str, ...], labels: Dict[str, object], name: str
) -> Tuple[str, ...]:
    """Validate and order a label set against the declared label names."""
    if set(labels) != set(labelnames):
        raise InvalidParameterError(
            f"metric {name!r} takes labels {labelnames}, got {tuple(labels)}"
        )
    return tuple(str(labels[key]) for key in labelnames)


def _render_labels(labelnames: Tuple[str, ...], key: Tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{label}="{value}"' for label, value in zip(labelnames, key)
    )
    return "{" + pairs + "}"


class _Instrument:
    """Shared plumbing: name/help/labels, a lock, and the enabled gate."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._registry = registry
        self._lock = threading.Lock()

    def enabled(self) -> bool:
        """Whether writes currently record (always true when standalone)."""
        return self._registry is None or self._registry.enabled

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        return _label_key(self.labelnames, labels, self.name)


class Counter(_Instrument):
    """Monotonically increasing count, optionally labeled."""

    kind = "counter"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self.enabled():
            return
        if amount < 0:
            raise InvalidParameterError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def snapshot(self) -> Dict[Tuple[str, ...], float]:
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()

    def render(self) -> Iterable[str]:
        for key, value in sorted(self.snapshot().items()):
            yield f"{self.name}{_render_labels(self.labelnames, key)} {value:g}"


class Gauge(_Instrument):
    """Point-in-time value that can go up and down."""

    kind = "gauge"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        if not self.enabled():
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self.enabled():
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def snapshot(self) -> Dict[Tuple[str, ...], float]:
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()

    def render(self) -> Iterable[str]:
        for key, value in sorted(self.snapshot().items()):
            yield f"{self.name}{_render_labels(self.labelnames, key)} {value:g}"


class _HistogramState:
    """Per-label-set histogram accumulator."""

    __slots__ = ("counts", "total", "sum", "minimum", "maximum")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * num_buckets  # one per finite bound, +Inf implicit
        self.total = 0
        self.sum = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf


class Histogram(_Instrument):
    """Fixed-bucket histogram with interpolated quantile estimates.

    ``observe`` is a bisect into the (sorted, fixed) bucket bounds under the
    lock — no per-read sorting anywhere, which is the point: the serving
    tier's p50/p99 used to sort an 8192-sample ring on every stats read and
    now reads cumulative bucket counts instead.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        registry: Optional["MetricsRegistry"] = None,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames, registry)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds or any(
            not math.isfinite(bound) for bound in bounds
        ):
            raise InvalidParameterError(
                "histogram buckets must be a non-empty sequence of finite bounds"
            )
        if len(set(bounds)) != len(bounds):
            raise InvalidParameterError("histogram buckets must be distinct")
        self.buckets = bounds
        self._states: Dict[Tuple[str, ...], _HistogramState] = {}

    def _state(self, key: Tuple[str, ...]) -> _HistogramState:
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _HistogramState(len(self.buckets))
        return state

    def observe(self, value: float, **labels: object) -> None:
        if not self.enabled():
            return
        key = self._key(labels)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            state = self._state(key)
            if index < len(state.counts):
                state.counts[index] += 1
            state.total += 1
            state.sum += value
            state.minimum = min(state.minimum, value)
            state.maximum = max(state.maximum, value)

    def count(self, **labels: object) -> int:
        with self._lock:
            state = self._states.get(self._key(labels))
            return state.total if state is not None else 0

    def sum(self, **labels: object) -> float:
        with self._lock:
            state = self._states.get(self._key(labels))
            return state.sum if state is not None else 0.0

    def quantile(self, q: float, **labels: object) -> float:
        """Estimate the ``q``-quantile by interpolating within its bucket.

        The overflow (+Inf) bucket interpolates toward the maximum observed
        value, so a p99 beyond the last bound degrades gracefully instead of
        clipping.  Every estimate is clamped to the observed
        ``[minimum, maximum]``: interpolating inside a wide bucket must never
        report a value larger (or smaller) than any that occurred.  Returns
        0.0 with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError("quantile must be within [0, 1]")
        with self._lock:
            state = self._states.get(self._key(labels))
            if state is None or state.total == 0:
                return 0.0
            counts = list(state.counts)
            total = state.total
            minimum = state.minimum
            maximum = state.maximum
        rank = q * total
        cumulative = 0
        lower = 0.0
        for index, bound in enumerate(self.buckets):
            previous = cumulative
            cumulative += counts[index]
            if cumulative >= rank and counts[index] > 0:
                fraction = (rank - previous) / counts[index]
                upper = bound
                break
            lower = bound
        else:
            # Overflow bucket (non-empty here, since the rank lies past every
            # finite bucket): interpolate between the last bound and the max.
            fraction = (rank - cumulative) / (total - cumulative)
            upper = maximum
        estimate = lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return min(max(estimate, minimum), maximum)

    def snapshot(self) -> Dict[Tuple[str, ...], Dict[str, object]]:
        with self._lock:
            out: Dict[Tuple[str, ...], Dict[str, object]] = {}
            for key, state in self._states.items():
                out[key] = {
                    "buckets": dict(zip(self.buckets, state.counts)),
                    "count": state.total,
                    "sum": state.sum,
                    "max": state.maximum if state.total else None,
                }
            return out

    def reset(self) -> None:
        with self._lock:
            self._states.clear()

    def render(self) -> Iterable[str]:
        for key, data in sorted(self.snapshot().items()):
            cumulative = 0
            for bound in self.buckets:
                cumulative += data["buckets"][bound]
                labels = _render_labels(
                    self.labelnames + ("le",), key + (f"{bound:g}",)
                )
                yield f"{self.name}_bucket{labels} {cumulative}"
            labels = _render_labels(self.labelnames + ("le",), key + ("+Inf",))
            yield f"{self.name}_bucket{labels} {data['count']}"
            plain = _render_labels(self.labelnames, key)
            yield f"{self.name}_sum{plain} {data['sum']:g}"
            yield f"{self.name}_count{plain} {data['count']}"


class MetricsRegistry:
    """A named family of instruments with one enable/disable switch.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking for an
    existing name returns the existing instrument (and raises if the kind or
    labels disagree), so independent modules can reference the same metric
    without import-order coupling.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def enable(self) -> "MetricsRegistry":
        self.enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        self.enabled = False
        return self

    def _get_or_create(self, cls, name: str, kwargs: dict) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise InvalidParameterError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                declared = tuple(kwargs.get("labelnames", ()))
                if declared != existing.labelnames:
                    raise InvalidParameterError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, got {declared}"
                    )
                return existing
            instrument = cls(name, registry=self, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(
            Counter, name, {"help": help, "labelnames": tuple(labelnames)}
        )

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, {"help": help, "labelnames": tuple(labelnames)}
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram,
            name,
            {
                "help": help,
                "labelnames": tuple(labelnames),
                "buckets": tuple(buckets),
            },
        )

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self) -> Dict[str, object]:
        """All instrument values keyed by metric name (labels as sub-keys)."""
        out: Dict[str, object] = {}
        for instrument in self.instruments():
            raw = instrument.snapshot()
            if instrument.labelnames:
                out[instrument.name] = {
                    _render_labels(instrument.labelnames, key).strip("{}"): value
                    for key, value in raw.items()
                }
            else:
                empty: object = {} if instrument.kind == "histogram" else 0.0
                out[instrument.name] = raw.get((), empty)
        return out

    def reset(self) -> None:
        """Zero every instrument's values (instruments stay registered)."""
        for instrument in self.instruments():
            instrument.reset()

    def render(self) -> str:
        """Prometheus-style text exposition of every instrument."""
        lines: List[str] = []
        for instrument in sorted(self.instruments(), key=lambda i: i.name):
            if instrument.help:
                lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            lines.extend(instrument.render())
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide default registry.  Disabled by default — enabling it is
#: an explicit observability opt-in (``get_registry().enable()``), which is
#: what keeps the instrumented hot paths at no-op cost otherwise.
REGISTRY = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return REGISTRY
