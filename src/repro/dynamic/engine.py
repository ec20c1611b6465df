"""The dynamic diversification engine.

:class:`DynamicDiversifier` owns a *mutable* instance — a weight vector
(modular quality) over growable storage and a
:class:`~repro.metrics.matrix.GrowableDistanceMatrix` — together with a
current solution of fixed cardinality ``p``.  Changes arrive either as
single :mod:`~repro.dynamic.perturbation` objects (:meth:`apply`, the
paper's Section 6 interface) or as whole
:class:`~repro.dynamic.events.EventBatch` ticks (:meth:`apply_events`);
both run through one code path, so the batched engine reproduces the
sequential one exactly on single-event ticks.

Per tick the engine

1. applies all weight/distance events in a few vectorized passes (with
   rollback on invalid events),
2. hosts insertions and deletions on the growable storage, refilling the
   solution greedily when a member is deleted,
3. computes the Theorem 4 multi-update schedule **once** from the
   aggregate weight decrease on solution members, and
4. repairs the solution.  Repair first tries a *no-swap certificate*
   maintained from the last full scan: per-outgoing upper bounds on the
   best incoming swap gain, shifted by the tick's member weight/margin
   deltas, plus exact gains for the (few) dirty incoming elements.  Only
   when some bound comes near zero does the engine fall back to the full
   vectorized best-swap scan — which is arithmetically identical to the
   legacy update rule, so results never depend on the certificate.

The engine can also report the exact optimum (for small instances) so the
simulation of Section 7.3 can track the worst observed approximation ratio.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro._types import Element
from repro.core import kernels
from repro.core.checkpoint import (
    SNAPSHOT_FORMAT_VERSION,
    check_snapshot_version,
    universe_fingerprint,
)
from repro.core.exact import exact_diversify
from repro.core.greedy import greedy_diversify
from repro.core.objective import Objective
from repro.dynamic.events import EventBatch
from repro.dynamic.perturbation import Perturbation
from repro.dynamic.update_rules import (
    UpdateOutcome,
    required_updates_for_weight_decrease,
)
from repro.exceptions import InvalidParameterError, PerturbationError
from repro.functions.modular import ModularFunction
from repro.metrics.matrix import DistanceMatrix, GrowableDistanceMatrix
from repro.metrics.validation import pair_triangle_violations
from repro.obs.instrument import TICK_CERTIFICATES, maybe_span

#: Default bound on the diagnostic (perturbation, outcome) history.  Long
#: sessions at 10⁴+ events/sec would otherwise grow it without limit; pass
#: ``history_limit=None`` for the old unbounded behaviour.
DEFAULT_HISTORY_LIMIT = 1024

#: A swap-gain upper bound must be at least this far below zero for the
#: no-swap certificate to fire; anything closer falls back to the exact
#: full scan, so certificate floating-point noise can never change a result.
_CERTIFICATE_TOLERANCE = 1e-9

#: Negative weights/distances within this tolerance are treated as rounding
#: noise and clamped to zero (matching the sequential engine).
_NEGATIVITY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class EngineSnapshot:
    """A pickle-safe snapshot of a :class:`DynamicDiversifier`.

    Captures the *instance* (weights, distances, λ, p) and the maintained
    solution as plain arrays/tuples — no live views, locks or oracles — so a
    long-running dynamic session can be persisted across process boundaries
    and restored with :meth:`DynamicDiversifier.restore`.  ``active`` lists
    the live slot ids when the engine has hosted deletions (``None`` means
    every slot is live, which keeps old pickles loadable).  The perturbation
    history is deliberately not captured: it is diagnostic, bounded, and the
    restored engine starts a fresh one (``applied_perturbations`` records
    how many events the snapshot had seen).  ``format_version`` and
    ``fingerprint`` support the durability layer's compatibility checks;
    both default so pre-versioning pickles still load.
    """

    weights: np.ndarray
    distances: np.ndarray
    p: int
    tradeoff: float
    solution: Tuple[Element, ...]
    validate_metric: bool = False
    applied_perturbations: int = 0
    active: Optional[Tuple[Element, ...]] = None
    format_version: int = SNAPSHOT_FORMAT_VERSION
    fingerprint: Optional[str] = None

    def save(self, path: str) -> None:
        """Pickle the snapshot to ``path``."""
        from repro.core.checkpoint import save_checkpoint

        save_checkpoint(self, path)

    @staticmethod
    def load(path: str) -> "EngineSnapshot":
        """Load a snapshot previously written by :meth:`save`."""
        from repro.core.checkpoint import load_checkpoint

        return load_checkpoint(path, EngineSnapshot)


class DynamicDiversifier:
    """Maintain a max-sum diversification solution under an event stream.

    Parameters
    ----------
    weights:
        Initial non-negative element weights (the modular quality function).
    distances:
        Initial metric distance matrix; the engine takes ownership of a copy
        inside growable storage.
    p:
        Cardinality of the maintained solution.
    tradeoff:
        The trade-off λ.
    initial_solution:
        Optional starting solution; by default the engine seeds itself with
        Greedy B (a 2-approximation, satisfying Corollary 4's precondition).
    validate_metric:
        When ``True``, every distance event is checked to preserve the
        triangle inequality and the tick is rejected otherwise.  The check
        is the O(n)-per-pair two-affected-rows scan
        (:func:`~repro.metrics.validation.pair_triangle_violations`), which
        is exhaustive given a valid pre-state.
    history_limit:
        Bound on the diagnostic history deque (``None`` = unbounded).
    use_certificate:
        When ``False``, the no-swap certificate is disabled and every repair
        runs the full best-swap scan — the legacy per-event cost model.
        Results are identical either way (the certificate only ever skips
        scans it can prove would find nothing); the flag exists for
        benchmarks and equivalence tests.
    """

    #: Optional :class:`~repro.obs.trace.Trace` receiving repair spans.  A
    #: class attribute (not set in ``__init__``) so ``__new__``-based restore
    #: paths — and snapshots written before the attribute existed — inherit
    #: ``None`` without pickling concerns.
    trace = None

    def __init__(
        self,
        weights: Iterable[float] | np.ndarray,
        distances: np.ndarray | DistanceMatrix,
        p: int,
        *,
        tradeoff: float = 1.0,
        initial_solution: Optional[Iterable[Element]] = None,
        validate_metric: bool = False,
        history_limit: Optional[int] = DEFAULT_HISTORY_LIMIT,
        use_certificate: bool = True,
    ) -> None:
        # One validation path for the weights (finite, non-negative, 1-D),
        # then the array is adopted into engine-owned growable storage.
        validated = ModularFunction(np.asarray(weights, dtype=float))
        if isinstance(distances, GrowableDistanceMatrix):
            self._distances = distances.copy()
        elif isinstance(distances, DistanceMatrix):
            self._distances = GrowableDistanceMatrix(distances.matrix_view(), copy=True)
        else:
            self._distances = GrowableDistanceMatrix(
                np.asarray(distances, dtype=float)
            )
        if validated.n != self._distances.n:
            raise InvalidParameterError(
                "weights and distances cover different universes"
            )
        if p < 1 or p > validated.n:
            raise InvalidParameterError(
                f"p must lie in [1, n]; got p={p} for n={validated.n}"
            )
        if history_limit is not None and history_limit < 1:
            raise InvalidParameterError("history_limit must be positive or None")
        self._weight_store = np.zeros(self._distances.capacity)
        self._weight_store[: validated.n] = validated.weights_view()
        self._weights = ModularFunction._from_storage(
            self._weight_store[: self._distances.n]
        )
        self._p = int(p)
        self._tradeoff = float(tradeoff)
        self._validate_metric = bool(validate_metric)
        self._history: Deque[Tuple[Union[Perturbation, EventBatch], UpdateOutcome]] = (
            deque(maxlen=history_limit)
        )
        self._applied = 0
        self._margins = np.zeros(self._distances.n)
        # No-swap certificate state (valid only between ticks that did not
        # change the solution): per-member upper bounds on the best incoming
        # swap gain, from the last full scan.
        self._use_certificate = bool(use_certificate)
        self._cache_valid = False
        self._cache_inside: Optional[np.ndarray] = None
        self._cache_colmax: Optional[np.ndarray] = None

        if initial_solution is None:
            seed = greedy_diversify(self.objective, self._p)
            self._solution = set(seed.selected)
        else:
            members = set(initial_solution)
            if len(members) != self._p:
                raise InvalidParameterError(
                    f"initial solution must have exactly p={self._p} elements"
                )
            self._solution = members
        self._margins = kernels.set_margins(
            self._distances.matrix_view(), sorted(self._solution)
        )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Slot count of the universe (live plus retired slots)."""
        return self._distances.n

    @property
    def num_slots(self) -> int:
        """Alias of :attr:`n` emphasising that retired slots are counted."""
        return self._distances.n

    @property
    def active_count(self) -> int:
        """Number of live elements."""
        return self._distances.active_count

    def active_elements(self) -> np.ndarray:
        """Sorted ids of the live elements."""
        return self._distances.active_ids()

    @property
    def p(self) -> int:
        """Cardinality of the maintained solution."""
        return self._p

    @property
    def tradeoff(self) -> float:
        """The trade-off λ."""
        return self._tradeoff

    @property
    def objective(self) -> Objective:
        """The *current* objective (reflects all applied events)."""
        return Objective(self._weights, self._distances, self._tradeoff)

    @property
    def solution(self) -> FrozenSet[Element]:
        """The currently maintained solution."""
        return frozenset(self._solution)

    @property
    def solution_value(self) -> float:
        """``φ`` of the current solution under the current instance."""
        return self.objective.value(self._solution)

    @property
    def history(
        self,
    ) -> Tuple[Tuple[Union[Perturbation, EventBatch], UpdateOutcome], ...]:
        """The most recent (change, update outcome) pairs (bounded deque)."""
        return tuple(self._history)

    @property
    def history_limit(self) -> Optional[int]:
        """Bound on the history deque, or ``None`` when unbounded."""
        return self._history.maxlen

    @property
    def applied_events(self) -> int:
        """Total number of events applied over the engine's lifetime."""
        return self._applied

    def weight(self, element: Element) -> float:
        """Current weight of ``element``."""
        return float(self._weight_store[element])

    def distance(self, u: Element, v: Element) -> float:
        """Current distance ``d(u, v)``."""
        return self._distances.distance(u, v)

    # ------------------------------------------------------------------
    # Storage synchronisation
    # ------------------------------------------------------------------
    def _sync_storage(self) -> None:
        """Re-align the weight buffer, quality wrapper and margins with the
        matrix's slot count after growth."""
        capacity = self._distances.capacity
        if self._weight_store.shape[0] != capacity:
            store = np.zeros(capacity)
            store[: self._weight_store.shape[0]] = self._weight_store
            self._weight_store = store
            self._weights = ModularFunction._from_storage(store[: self._distances.n])
        elif self._weights.n != self._distances.n:
            self._weights = ModularFunction._from_storage(
                self._weight_store[: self._distances.n]
            )
        if self._margins.shape[0] < self._distances.n:
            self._margins = np.concatenate(
                [self._margins, np.zeros(self._distances.n - self._margins.shape[0])]
            )

    def _member_mask(self) -> np.ndarray:
        mask = np.zeros(self._distances.n, dtype=bool)
        if self._solution:
            mask[np.fromiter(self._solution, dtype=int)] = True
        return mask

    def _check_live(self, elements: np.ndarray, what: str) -> None:
        idx = np.asarray(elements, dtype=int)
        if idx.size == 0:
            return
        slots = self._distances.n
        if np.any((idx < 0) | (idx >= slots)) or not np.all(
            self._distances.active_mask[idx]
        ):
            raise PerturbationError(f"{what} refers to an unknown or retired element")

    @staticmethod
    def _run_undo(undo: List[Callable[[], None]]) -> None:
        for op in reversed(undo):
            op()

    def _set_cache(self, inside: np.ndarray, colmax: np.ndarray) -> None:
        if not self._use_certificate:
            return
        self._cache_inside = inside
        self._cache_colmax = np.asarray(colmax, dtype=float)
        self._cache_valid = True

    # ------------------------------------------------------------------
    # The batched tick
    # ------------------------------------------------------------------
    def _validate_batch(self, batch: EventBatch) -> None:
        """All statically checkable rejections, before any mutation."""
        slots = self._distances.n
        self._check_live(batch.weight_set_elements, "weight event")
        self._check_live(batch.weight_delta_elements, "weight event")
        self._check_live(batch.distance_set_pairs.ravel(), "distance event")
        self._check_live(batch.distance_delta_pairs.ravel(), "distance event")
        if batch.num_inserts:
            if batch.insert_points is not None:
                raise PerturbationError(
                    "this engine hosts explicit distance rows; point inserts "
                    "belong to the sharded dynamic session"
                )
            if len(batch.insert_distances) != batch.num_inserts:
                raise PerturbationError(
                    "every insert into the dense engine needs a distance row"
                )
            for i, row in enumerate(batch.insert_distances):
                if row.shape[0] != slots + i:
                    raise PerturbationError(
                        f"insert {i} needs a distance row of length {slots + i} "
                        f"(tick-start slots plus earlier inserts), got {row.shape[0]}"
                    )
                if not np.all(np.isfinite(row)):
                    raise PerturbationError("insert distances must be finite")
                if np.any(row < 0):
                    raise PerturbationError("insert distances must be non-negative")
        deletes = batch.delete_elements
        if deletes.size:
            if np.unique(deletes).size != deletes.size:
                raise PerturbationError("duplicate delete of the same element")
            self._check_live(deletes, "delete event")
            remaining = self.active_count + batch.num_inserts - deletes.size
            if remaining < self._p:
                raise PerturbationError(
                    f"deletions would leave {remaining} live elements, "
                    f"fewer than p={self._p}"
                )

    def _apply_weight_events(
        self, batch: EventBatch, undo: List[Callable[[], None]]
    ) -> None:
        idx_all = np.concatenate(
            [batch.weight_set_elements, batch.weight_delta_elements]
        )
        if idx_all.size == 0:
            return
        store = self._weight_store
        before = store[idx_all].copy()

        def rollback() -> None:
            store[idx_all] = before

        store[batch.weight_set_elements] = batch.weight_set_values
        np.add.at(store, batch.weight_delta_elements, batch.weight_deltas)
        touched = np.unique(idx_all)
        finals = store[touched]
        if np.any(finals < -_NEGATIVITY_TOLERANCE) or not np.all(np.isfinite(finals)):
            rollback()
            self._run_undo(undo)
            raise PerturbationError(
                "a weight decrease exceeds the current weight of its element"
            )
        store[touched] = np.maximum(finals, 0.0)
        undo.append(rollback)

    def _apply_distance_events(
        self, batch: EventBatch, undo: List[Callable[[], None]]
    ) -> None:
        pairs = np.concatenate(
            [batch.distance_set_pairs, batch.distance_delta_pairs], axis=0
        )
        if pairs.shape[0] == 0:
            return
        slots = self._distances.n
        keys = pairs[:, 0] * slots + pairs[:, 1]
        ukeys, inverse = np.unique(keys, return_inverse=True)
        urows = (ukeys // slots).astype(int)
        ucols = (ukeys % slots).astype(int)
        before = self._distances.array[urows, ucols].copy()
        finals = before.copy()
        num_sets = batch.distance_set_pairs.shape[0]
        finals[inverse[:num_sets]] = batch.distance_set_values
        np.add.at(finals, inverse[num_sets:], batch.distance_deltas)
        if np.any(finals < -_NEGATIVITY_TOLERANCE) or not np.all(np.isfinite(finals)):
            self._run_undo(undo)
            raise PerturbationError(
                "a distance decrease would make the distance negative"
            )
        finals = np.maximum(finals, 0.0)
        deltas = finals - before
        member_mask = self._member_mask()
        self._distances.set_distances(urows, ucols, finals)
        np.add.at(self._margins, urows, deltas * member_mask[ucols])
        np.add.at(self._margins, ucols, deltas * member_mask[urows])

        def rollback() -> None:
            self._distances.set_distances(urows, ucols, before)
            np.add.at(self._margins, urows, -deltas * member_mask[ucols])
            np.add.at(self._margins, ucols, -deltas * member_mask[urows])

        undo.append(rollback)
        if self._validate_metric:
            live = self.active_elements()
            for r, c in zip(urows.tolist(), ucols.tolist()):
                if pair_triangle_violations(
                    self._distances, r, c, elements=live, max_violations=1
                ):
                    self._run_undo(undo)
                    raise PerturbationError(
                        "distance perturbation violates the triangle inequality"
                    )

    def _apply_inserts(self, batch: EventBatch, members: np.ndarray) -> List[int]:
        inserted: List[int] = []
        if batch.num_inserts == 0:
            return inserted
        slots_start = self._distances.n
        for i in range(batch.num_inserts):
            row = batch.insert_distances[i]
            full = np.zeros(self._distances.n)
            full[:slots_start] = row[:slots_start]
            for j, sid in enumerate(inserted):
                full[sid] = row[slots_start + j]
            slot = self._distances.insert(full)
            self._sync_storage()
            self._weight_store[slot] = batch.insert_weights[i]
            self._margins[slot] = (
                float(self._distances.array[slot, members].sum())
                if members.size
                else 0.0
            )
            inserted.append(slot)
        return inserted

    def _apply_deletes(self, batch: EventBatch) -> List[int]:
        deleted_members: List[int] = []
        if batch.delete_elements.size == 0:
            return deleted_members
        del_idx = batch.delete_elements
        self._distances.deactivate(del_idx)
        self._weight_store[del_idx] = 0.0
        self._margins[del_idx] = 0.0
        for element in del_idx.tolist():
            if element in self._solution:
                self._solution.discard(element)
                deleted_members.append(element)
        if deleted_members:
            self._cache_valid = False
            self._margins = kernels.set_margins(
                self._distances.matrix_view(), sorted(self._solution)
            )
        return deleted_members

    def _refill(self) -> List[Tuple[int, float]]:
        """Greedy true-marginal refills until ``|S| == p`` again."""
        refills: List[Tuple[int, float]] = []
        while len(self._solution) < self._p:
            self._cache_valid = False
            live = self.active_elements()
            candidates = live[
                ~np.isin(live, np.fromiter(self._solution, dtype=int))
            ] if self._solution else live
            pick = kernels.best_addition_scan(
                self._weight_store[: self._distances.n],
                self._tradeoff,
                self._margins,
                candidates,
            )
            if pick is None:  # pragma: no cover - excluded by _validate_batch
                raise PerturbationError("no live element left to refill the solution")
            element, marginal = pick
            self._solution.add(element)
            self._margins = self._margins + self._distances.array[:, element]
            refills.append((element, marginal))
        return refills

    def _planned_updates(
        self,
        batch: EventBatch,
        updates: Optional[int],
        auto_schedule: bool,
        value_before: float,
        members0: np.ndarray,
        w_members0: np.ndarray,
    ) -> int:
        if updates is not None:
            return int(updates)
        if not auto_schedule:
            return 1
        # Theorem 4, computed once per tick from the *aggregate* weight
        # decrease suffered by tick-start solution members (deleted members
        # are excluded: deletion is handled by the forced refill, not the
        # weight-decrease schedule).
        if members0.size:
            alive = self._distances.active_mask[members0]
            decrease = float(
                np.maximum(w_members0 - self._weight_store[members0], 0.0)[alive].sum()
            )
        else:
            decrease = 0.0
        if decrease > 0 and value_before > decrease:
            return required_updates_for_weight_decrease(
                value_before, decrease, self._p
            )
        return 1

    def _dirty_incoming(self, batch: EventBatch, inserted: List[int]) -> np.ndarray:
        parts = [np.asarray(batch.touched_elements(), dtype=int)]
        if inserted:
            parts.append(np.asarray(inserted, dtype=int))
        dirty = np.unique(np.concatenate(parts)) if parts else np.zeros(0, dtype=int)
        if dirty.size == 0:
            return dirty
        dirty = dirty[(dirty >= 0) & (dirty < self._distances.n)]
        keep = self._distances.active_mask[dirty] & ~self._member_mask()[dirty]
        return dirty[keep]

    def _repair(
        self,
        planned: int,
        dirty: np.ndarray,
        members0: np.ndarray,
        w_members0: np.ndarray,
        cert_margins0: Optional[np.ndarray],
        batch_empty: bool,
    ) -> Tuple[List[Tuple[Element, Element, float]], bool]:
        slots = self._distances.n
        weights = self._weight_store[:slots]
        matrix = self._distances.matrix_view()
        swaps: List[Tuple[Element, Element, float]] = []
        certified = False
        if planned == 0:
            if not batch_empty:
                self._cache_valid = False
            return swaps, certified
        first = True
        while len(swaps) < planned:
            if first and self._cache_valid and cert_margins0 is not None:
                first = False
                inside = self._cache_inside
                if inside is None or not np.array_equal(inside, members0):
                    self._cache_valid = False
                    continue
                # Clean incoming gains against member s all shifted by
                # Δ_s = −Δw_s − λ·Δd_s(S) since the cache was stamped.
                shift = -(self._weight_store[inside] - w_members0) - self._tradeoff * (
                    self._margins[inside] - cert_margins0
                )
                shifted = self._cache_colmax + shift
                best_bound = float(shifted.max()) if shifted.size else -np.inf
                dirty_col: Optional[np.ndarray] = None
                if dirty.size and inside.size:
                    dirty_gains = kernels.swap_gain_matrix(
                        kernels.weight_swap_gains(weights, dirty, inside),
                        matrix,
                        self._tradeoff,
                        self._margins,
                        dirty,
                        inside,
                    )
                    dirty_col = dirty_gains.max(axis=0)
                    best_bound = max(best_bound, float(dirty_col.max()))
                if best_bound <= -_CERTIFICATE_TOLERANCE:
                    self._set_cache(
                        inside,
                        np.maximum(shifted, dirty_col)
                        if dirty_col is not None
                        else shifted,
                    )
                    certified = True
                    break
                self._cache_valid = False
                continue
            first = False
            inside, outside = kernels.solution_split(slots, self._solution)
            margins = kernels.set_margins(matrix, inside)
            self._margins = margins
            if outside.size == 0 or inside.size == 0:
                self._set_cache(inside, np.full(inside.size, -np.inf))
                break
            quality_gain = kernels.weight_swap_gains(weights, outside, inside)
            gains = kernels.swap_gain_matrix(
                quality_gain, matrix, self._tradeoff, margins, outside, inside
            )
            move = kernels.best_swap_scan(gains, outside, inside)
            if move is None:
                self._set_cache(inside, gains.max(axis=0))
                break
            incoming, outgoing, gain = move
            self._solution.discard(outgoing)
            self._solution.add(incoming)
            self._margins = margins + matrix[:, incoming] - matrix[:, outgoing]
            self._cache_valid = False
            swaps.append((incoming, outgoing, gain))
        return swaps, certified

    def _tick(
        self,
        batch: EventBatch,
        *,
        updates: Optional[int],
        auto_schedule: bool,
    ) -> UpdateOutcome:
        if updates is not None and updates < 0:
            raise InvalidParameterError("updates must be non-negative")
        self._validate_batch(batch)
        value_before = self.objective.value(self._solution)
        members0 = np.fromiter(sorted(self._solution), dtype=int)
        w_members0 = self._weight_store[members0].copy()
        cert_margins0 = self._margins[members0].copy() if self._cache_valid else None

        undo: List[Callable[[], None]] = []
        self._apply_weight_events(batch, undo)
        self._apply_distance_events(batch, undo)
        inserted = self._apply_inserts(batch, members0)
        deleted_members = self._apply_deletes(batch)
        refills = self._refill()

        planned = self._planned_updates(
            batch, updates, auto_schedule, value_before, members0, w_members0
        )
        dirty = self._dirty_incoming(batch, inserted)
        with maybe_span(self.trace, "repair", planned=planned) as repair_span:
            swaps, certified = self._repair(
                planned, dirty, members0, w_members0, cert_margins0, batch.is_empty
            )
            repair_span.set(
                certificate="hit" if certified else "miss", swaps=len(swaps)
            )
        if TICK_CERTIFICATES.enabled():
            TICK_CERTIFICATES.inc(outcome="hit" if certified else "miss")

        metadata = {
            "planned_updates": planned,
            "certified_stable": certified,
            "num_events": batch.num_events,
        }
        if inserted:
            metadata["inserted"] = tuple(inserted)
        if deleted_members:
            metadata["deleted_members"] = tuple(deleted_members)
        if refills:
            metadata["refills"] = tuple(refills)
        return UpdateOutcome(
            solution=frozenset(self._solution),
            swaps=tuple(swaps),
            objective_value=self.objective.value(self._solution),
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    # Public application interfaces
    # ------------------------------------------------------------------
    def apply_events(
        self,
        batch: EventBatch,
        *,
        updates: Optional[int] = None,
        auto_schedule: bool = True,
    ) -> UpdateOutcome:
        """Apply one tick of batched events, then repair the solution.

        Parameters
        ----------
        batch:
            The tick's events (see :class:`~repro.dynamic.events.EventBatch`
            for the within-tick resolution order).
        updates:
            Explicit number of single-swap updates to allow.  ``None`` means:
            one update, except when the tick's aggregate weight decrease on
            solution members is large and ``auto_schedule`` holds, in which
            case Theorem 4's multi-update count is used.
        auto_schedule:
            Whether to apply Theorem 4's schedule automatically.
        """
        outcome = self._tick(batch, updates=updates, auto_schedule=auto_schedule)
        self._history.append((batch, outcome))
        self._applied += batch.num_events
        return outcome

    def apply(
        self,
        perturbation: Perturbation,
        *,
        updates: Optional[int] = None,
        auto_schedule: bool = True,
    ) -> UpdateOutcome:
        """Apply a single Section 6 perturbation (a one-event tick).

        This routes through the same code path as :meth:`apply_events`, and
        reproduces the sequential update rule exactly: the repair phase
        either *certifies* that no improving swap exists or runs the same
        vectorized full scan the legacy rule runs.
        """
        batch = EventBatch.from_perturbations([perturbation])
        outcome = self._tick(batch, updates=updates, auto_schedule=auto_schedule)
        self._history.append((perturbation, outcome))
        self._applied += 1
        return outcome

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def _active_restriction(self):
        return self.objective.restrict(self.active_elements())

    def optimal_value(self) -> float:
        """Exact optimum of the *current* instance (exponential; small n only)."""
        if self.active_count == self.n:
            return exact_diversify(self.objective, self._p).objective_value
        restriction = self._active_restriction()
        return exact_diversify(restriction.objective, self._p).objective_value

    def approximation_ratio(self) -> float:
        """``OPT / φ(S)`` for the current instance and solution (small n only)."""
        value = self.solution_value
        optimum = self.optimal_value()
        if value <= 1e-12:
            return 1.0 if optimum <= 1e-12 else float("inf")
        return optimum / value

    def rebuild(self) -> FrozenSet[Element]:
        """Recompute the solution from scratch with Greedy B (a full rebuild)."""
        if self.active_count == self.n:
            result = greedy_diversify(self.objective, self._p)
        else:
            result = greedy_diversify(
                self.objective, self._p, candidates=self.active_elements()
            )
        self._solution = set(result.selected)
        self._cache_valid = False
        self._margins = kernels.set_margins(
            self._distances.matrix_view(), sorted(self._solution)
        )
        return frozenset(self._solution)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> EngineSnapshot:
        """Capture the current instance and solution as an :class:`EngineSnapshot`.

        The snapshot owns copies of the weight vector and distance matrix
        (over the full slot range, with ``active`` recording live ids), so
        later events on this engine do not leak into it (and vice versa).
        It pickles cleanly — use it to persist a dynamic session to disk or
        ship it across processes.
        """
        return EngineSnapshot(
            weights=np.array(self._weight_store[: self._distances.n], copy=True),
            distances=np.array(self._distances.matrix_view(), copy=True),
            p=self._p,
            tradeoff=self._tradeoff,
            solution=tuple(sorted(self._solution)),
            validate_metric=self._validate_metric,
            applied_perturbations=self._applied,
            active=tuple(int(e) for e in self.active_elements()),
            fingerprint=universe_fingerprint(
                "dense", self._p, self._tradeoff, self._distances.n
            ),
        )

    @classmethod
    def restore(cls, snapshot: EngineSnapshot) -> "DynamicDiversifier":
        """Rebuild an engine from a :meth:`snapshot`.

        The restored engine carries the snapshot's instance, live-slot
        layout and solution, and an empty history; applying the same event
        stream to the original and the restored engine from the snapshot
        point onward yields identical solutions (the update rule is
        deterministic).
        """
        if not isinstance(snapshot, EngineSnapshot):
            raise InvalidParameterError(
                f"restore expects an EngineSnapshot, got {type(snapshot).__name__}"
            )
        check_snapshot_version(snapshot, source="EngineSnapshot")
        engine = cls(
            snapshot.weights,
            snapshot.distances,
            snapshot.p,
            tradeoff=snapshot.tradeoff,
            initial_solution=snapshot.solution,
            validate_metric=snapshot.validate_metric,
        )
        if snapshot.active is not None:
            retired = sorted(set(range(engine.n)) - set(snapshot.active))
            if retired:
                engine._distances.deactivate(retired)
                engine._weight_store[retired] = 0.0
        engine._applied = snapshot.applied_perturbations
        return engine
