"""The oblivious single-swap update rule (Section 6).

Given the current solution ``S``, find the pair ``(u, v)`` with ``u ∈ S``,
``v ∉ S`` maximizing the swap gain

``φ_{v→u}(S) = φ(S − u + v) − φ(S)``

and perform the swap iff the gain is positive.  The rule is *oblivious*
because it ignores which perturbation happened.

:func:`required_updates_for_weight_decrease` computes Theorem 4's bound
``⌈log_{(p-2)/(p-3)} w/(w-δ)⌉`` on the number of updates needed after a large
weight decrease.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro._types import Element
from repro.core import kernels
from repro.core.objective import Objective
from repro.exceptions import InvalidParameterError


@dataclass(frozen=True)
class UpdateOutcome:
    """Result of applying the oblivious update rule once (or repeatedly).

    Attributes
    ----------
    solution:
        The solution after the update(s).
    swaps:
        The performed moves ``(incoming, outgoing, gain)`` in order, where
        ``gain`` is always the *true* objective change of that move.  For the
        single-swap rules ``incoming``/``outgoing`` are elements; for a
        simultaneous k-swap (:func:`k_swap_update` with ``k > 1``) they are
        tuples of elements and the entry records the gain of the whole move —
        a simultaneous swap has no well-defined per-pair gains.
    objective_value:
        ``φ`` of the final solution.
    metadata:
        Rule-specific extras (e.g. the labelled pairwise decomposition of a
        k-swap move).
    """

    solution: FrozenSet[Element]
    swaps: Tuple[Tuple[Any, Any, float], ...]
    objective_value: float
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_swaps(self) -> int:
        """Number of swaps performed."""
        return len(self.swaps)

    @property
    def changed(self) -> bool:
        """Whether any swap was performed."""
        return bool(self.swaps)


def best_swap(
    objective: Objective,
    solution: Set[Element],
    *,
    candidates: Optional[Iterable[Element]] = None,
) -> Optional[Tuple[Element, Element, float]]:
    """Return the best single swap ``(incoming, outgoing, gain)`` or ``None``.

    ``None`` is returned when no swap has a strictly positive gain, i.e. the
    solution is locally optimal for the single-swap neighbourhood.

    When the instance is matrix-backed with modular quality (the dynamic
    engine's representation), the scan is one vectorized gain-matrix argmax;
    otherwise it falls back to O(n·p) ``swap_gain`` oracle calls.

    ``candidates`` restricts the incoming elements to a query-scoped pool
    (through the restriction layer, so the vectorized scan runs on the
    re-indexed sub-instance); the current ``solution`` must lie inside the
    pool.
    """
    if candidates is not None:
        restriction = objective.restrict(candidates)
        local_solution = set(restriction.to_local(solution))
        move = best_swap(restriction.objective, local_solution)
        if move is None:
            return None
        incoming, outgoing, gain = move
        pool = restriction.candidates
        return pool[incoming], pool[outgoing], gain
    fast = kernels.matrix_fast_path(objective)
    if fast is not None and solution:
        weights, matrix = fast
        inside, outside = kernels.solution_split(objective.n, solution)
        margins = kernels.set_margins(matrix, inside)
        quality_gain = kernels.weight_swap_gains(weights, outside, inside)
        gains = kernels.swap_gain_matrix(
            quality_gain, matrix, objective.tradeoff, margins, outside, inside
        )
        return kernels.best_swap_scan(gains, outside, inside)
    best: Optional[Tuple[Element, Element, float]] = None
    for incoming in range(objective.n):
        if incoming in solution:
            continue
        for outgoing in solution:
            gain = objective.swap_gain(solution, incoming, outgoing)
            if gain > 0 and (best is None or gain > best[2]):
                best = (incoming, outgoing, gain)
    return best


def oblivious_update(
    objective: Objective,
    solution: Set[Element],
    *,
    candidates: Optional[Iterable[Element]] = None,
) -> UpdateOutcome:
    """Apply the oblivious single-swap update rule exactly once.

    ``candidates`` restricts the incoming elements to a pool (see
    :func:`best_swap`).
    """
    current = set(solution)
    move = best_swap(objective, current, candidates=candidates)
    swaps: List[Tuple[Element, Element, float]] = []
    if move is not None:
        incoming, outgoing, gain = move
        current.remove(outgoing)
        current.add(incoming)
        swaps.append((incoming, outgoing, gain))
    return UpdateOutcome(
        solution=frozenset(current),
        swaps=tuple(swaps),
        objective_value=objective.value(current),
    )


def update_until_stable(
    objective: Objective,
    solution: Set[Element],
    *,
    max_updates: Optional[int] = None,
    candidates: Optional[Iterable[Element]] = None,
) -> UpdateOutcome:
    """Apply the oblivious rule repeatedly until no swap improves (or a cap hits).

    ``candidates`` restricts the incoming elements to a pool (see
    :func:`best_swap`).
    """
    if max_updates is not None and max_updates < 0:
        raise InvalidParameterError("max_updates must be non-negative")
    if candidates is not None:
        # Build the restriction once for the whole stabilization run, not
        # once per swap iteration (each build costs the O(k²) submatrix).
        restriction = objective.restrict(candidates)
        local = update_until_stable(
            restriction.objective,
            set(restriction.to_local(solution)),
            max_updates=max_updates,
        )
        pool = restriction.candidates
        return UpdateOutcome(
            solution=frozenset(pool[e] for e in local.solution),
            swaps=tuple(
                (pool[incoming], pool[outgoing], gain)
                for incoming, outgoing, gain in local.swaps
            ),
            objective_value=local.objective_value,
            metadata=local.metadata,
        )
    current = set(solution)
    swaps: List[Tuple[Element, Element, float]] = []
    while max_updates is None or len(swaps) < max_updates:
        move = best_swap(objective, current)
        if move is None:
            break
        incoming, outgoing, gain = move
        current.remove(outgoing)
        current.add(incoming)
        swaps.append((incoming, outgoing, gain))
    return UpdateOutcome(
        solution=frozenset(current),
        swaps=tuple(swaps),
        objective_value=objective.value(current),
    )


def best_k_swap(
    objective: Objective, solution: Set[Element], k: int
) -> Optional[Tuple[Tuple[Element, ...], Tuple[Element, ...], float]]:
    """Best simultaneous swap of exactly ``k`` elements, or ``None`` if none improves.

    The paper's conclusion asks whether larger-cardinality swaps (or a
    non-oblivious rule) can maintain a ratio better than 3 with few updates;
    this primitive supports experimenting with that question.  The search is
    exhaustive over ``C(|S|, k) · C(n − |S|, k)`` combinations, so it is only
    intended for small ``k`` (2 in practice).

    Returns ``(incoming, outgoing, gain)`` with ``gain > 0``, or ``None``.
    """
    from itertools import combinations

    if k < 1:
        raise InvalidParameterError("k must be at least 1")
    members = sorted(solution)
    outside = [u for u in range(objective.n) if u not in solution]
    if len(members) < k or len(outside) < k:
        return None
    current_value = objective.value(solution)
    best: Optional[Tuple[Tuple[Element, ...], Tuple[Element, ...], float]] = None
    for outgoing in combinations(members, k):
        without = set(solution) - set(outgoing)
        for incoming in combinations(outside, k):
            candidate = without | set(incoming)
            gain = objective.value(candidate) - current_value
            if gain > 0 and (best is None or gain > best[2]):
                best = (tuple(incoming), tuple(outgoing), gain)
    return best


def k_swap_update(
    objective: Objective, solution: Set[Element], k: int = 2
) -> UpdateOutcome:
    """Apply the best swap of *up to* ``k`` elements exactly once.

    Tries swap sizes ``1 .. k`` and performs the single most improving one
    (sizes are not chained — this is one update, the analogue of the oblivious
    single-swap rule with a larger neighbourhood).

    The outcome records the move with its **true total gain**
    ``φ(S') − φ(S)``.  A move of size > 1 appears as a single
    ``(incoming_tuple, outgoing_tuple, gain)`` entry; the arbitrary pairwise
    alignment is kept only under ``metadata["pairwise_alignment"]`` and
    carries no gains, because a simultaneous swap has no per-pair gains.
    """
    if k < 1:
        raise InvalidParameterError("k must be at least 1")
    current = set(solution)
    best_move: Optional[Tuple[Tuple[Element, ...], Tuple[Element, ...], float]] = None
    for size in range(1, k + 1):
        move = best_k_swap(objective, current, size)
        if move is not None and (best_move is None or move[2] > best_move[2]):
            best_move = move
    swaps: List[Tuple[Any, Any, float]] = []
    metadata: Dict[str, Any] = {}
    if best_move is not None:
        incoming, outgoing, gain = best_move
        for element in outgoing:
            current.remove(element)
        for element in incoming:
            current.add(element)
        if len(incoming) == 1:
            # A 1-swap is a genuine single swap; keep the 1-swap rule's shape.
            swaps.append((incoming[0], outgoing[0], gain))
        else:
            # A simultaneous k-swap is ONE move with ONE true gain.  The
            # element alignment below is an arbitrary zip, not a gain
            # decomposition — per-pair gains are not defined for a
            # simultaneous swap, so none are fabricated.
            swaps.append((incoming, outgoing, gain))
            metadata["pairwise_alignment"] = tuple(zip(incoming, outgoing))
            metadata["pairwise_alignment_note"] = (
                "arbitrary incoming/outgoing pairing of the simultaneous "
                "k-swap; carries no per-pair gains"
            )
    return UpdateOutcome(
        solution=frozenset(current),
        swaps=tuple(swaps),
        objective_value=objective.value(current),
        metadata=metadata,
    )


def required_updates_for_weight_decrease(
    current_solution_value: float, delta: float, p: int
) -> int:
    """Theorem 4's update count ``⌈log_{(p-2)/(p-3)} w/(w-δ)⌉``.

    Parameters
    ----------
    current_solution_value:
        ``w`` — the value ``φ(S)`` of the solution before the weight decrease.
    delta:
        The magnitude of the decrease.
    p:
        The cardinality constraint.  For ``p ≤ 3`` (Corollary 3) a single
        update always suffices.

    Returns
    -------
    int
        The number of oblivious updates sufficient to restore ratio 3.
    """
    if delta < 0:
        raise InvalidParameterError("delta must be non-negative")
    if current_solution_value < 0:
        raise InvalidParameterError("the solution value must be non-negative")
    if delta == 0:
        return 0
    if p <= 3:
        return 1
    if delta <= current_solution_value / (p - 2):
        return 1
    if delta >= current_solution_value:
        # The whole solution value could be wiped out; the bound degenerates.
        raise InvalidParameterError(
            "Theorem 4 requires the decrease to be smaller than the solution value"
        )
    base = (p - 2) / (p - 3)
    ratio = current_solution_value / (current_solution_value - delta)
    return max(1, math.ceil(math.log(ratio, base)))
