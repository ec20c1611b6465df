"""Per-layer attribution of a traced pass.

The traced pass records spans into one :class:`repro.obs.Trace`: spans the
benchmark opens around its calls into each layer's public functions, and
the spans the program itself emits through its ``trace=`` hooks.  This
module names the layer each span belongs to and splits the traced time into
per-layer *self time*: a span's duration minus the part of its interval
that its child spans cover.

Layer of a span:

* a benchmark span is named ``<layer>.<function>`` after the module it
  calls into;
* a program span is looked up in :data:`PROGRAM_SPANS`;
* any other span inherits its parent's layer;
* the benchmark's per-operation root span ``op`` belongs to no layer, so
  its self time is the *unattributed* remainder.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from benchstats import interval_union

#: The layers, named after the repository's modules.
LAYERS = (
    "serve.server",
    "serve.corpus",
    "core.batch",
    "core.sharding",
    "core.greedy",
    "core.local_search",
    "dynamic.session",
    "dynamic.engine",
    "metrics.overlay",
    "durability.wal",
    "durability.snapshot",
    "durability.recovery",
)

UNATTRIBUTED = "unattributed"

#: Root span the benchmark opens around each timed operation.
OP_SPAN = "op"

#: Span names the program emits, by the layer that emits them.  Names not
#: listed (``solve``, ``restrict``, ...) are shared by several layers and
#: take their parent's layer.
PROGRAM_SPANS = {
    "window": "serve.server",
    "execute": "serve.server",
    "solve_sharded": "core.sharding",
    "shard": "core.sharding",
    "materialize": "core.sharding",
    "final_solve": "core.sharding",
    "gain_state": "core.greedy",
    "greedy_rounds": "core.greedy",
    "tick": "dynamic.session",
    "apply": "dynamic.session",
    "repair": "dynamic.engine",
    "repair.shard": "dynamic.engine",
    "repair.core": "dynamic.engine",
    "resolve_full": "dynamic.engine",
    "wal.journal": "durability.wal",
    "wal.compact": "durability.snapshot",
    "checkpoint": "durability.snapshot",
}

#: Synthetic spans that record waiting, not work; they are left out of busy
#: time (the server's ``queue_wait`` child lies before its window starts).
WAIT_SPANS = frozenset({"queue_wait"})

#: Root spans whose subtrees make up a workload's traced work.
ROOT_SPANS = frozenset({OP_SPAN, "window"})


def _benchmark_layer(name: str) -> Optional[str]:
    for layer in LAYERS:
        if name.startswith(layer + "."):
            return layer
    return None


class SpanForest:
    """The completed spans of one traced pass, indexed by parent."""

    def __init__(self, spans: Sequence) -> None:
        self.spans = list(spans)
        self.by_id = {span.span_id: span for span in self.spans}
        self.children: Dict[int, List] = {}
        for span in self.spans:
            if span.parent_id is not None:
                self.children.setdefault(span.parent_id, []).append(span)
        self._layers: Dict[int, str] = {}
        self._roots: Dict[int, object] = {}

    def layer(self, span) -> str:
        """The layer a span's self time is charged to."""
        known = self._layers.get(span.span_id)
        if known is not None:
            return known
        if span.name == OP_SPAN:
            layer = UNATTRIBUTED
        else:
            layer = _benchmark_layer(span.name) or PROGRAM_SPANS.get(span.name)
            if layer is None:
                parent = self.by_id.get(span.parent_id)
                layer = self.layer(parent) if parent is not None else UNATTRIBUTED
        self._layers[span.span_id] = layer
        return layer

    def root(self, span):
        """The outermost ancestor of ``span``."""
        known = self._roots.get(span.span_id)
        if known is not None:
            return known
        parent = self.by_id.get(span.parent_id)
        top = span if parent is None else self.root(parent)
        self._roots[span.span_id] = top
        return top

    def self_seconds(self, span) -> float:
        """Duration minus the part of the span its (busy) children cover."""
        start, end = span.start_s, span.start_s + span.duration_s
        covered = interval_union(
            (max(child.start_s, start), min(child.start_s + child.duration_s, end))
            for child in self.children.get(span.span_id, ())
            if child.name not in WAIT_SPANS
        )
        return max(span.duration_s - covered, 0.0)

    def workload_spans(self) -> List:
        """Busy spans under the workload's roots (checks outside ops excluded)."""
        return [
            span
            for span in self.spans
            if span.name not in WAIT_SPANS and self.root(span).name in ROOT_SPANS
        ]

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time per layer, plus :data:`UNATTRIBUTED`, over the workload."""
        totals = {layer: 0.0 for layer in LAYERS + (UNATTRIBUTED,)}
        for span in self.workload_spans():
            totals[self.layer(span)] += self.self_seconds(span)
        return totals

    def op_unattributed_ratio(self) -> float:
        """Share of the ``op`` spans' time that no layer span covers."""
        ops = self.named(OP_SPAN)
        total = sum(op.duration_s for op in ops)
        return sum(self.self_seconds(op) for op in ops) / total if total else 0.0

    def named(self, name: str) -> List:
        return [span for span in self.spans if span.name == name]

    def descendants_named(self, span, name: str) -> List:
        """Spans called ``name`` anywhere below ``span``."""
        found, stack = [], list(self.children.get(span.span_id, ()))
        while stack:
            child = stack.pop()
            if child.name == name:
                found.append(child)
            stack.extend(self.children.get(child.span_id, ()))
        return found


def layer_metrics(forest: SpanForest) -> Dict[str, float]:
    """``<layer>.share``: each layer's share of the workload's traced self time."""
    totals = forest.layer_self_seconds()
    busy = sum(totals.values())
    return {
        f"{layer}.share": (totals[layer] / busy if busy else 0.0) for layer in LAYERS
    }


@contextmanager
def replaced(module, name: str, make: Callable[[object], object]) -> Iterator[None]:
    """Rebind ``module.name`` to ``make(original)`` for the traced pass only."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)
