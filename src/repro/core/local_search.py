"""Oblivious single-swap local search (Section 5).

For an arbitrary matroid constraint the paper's local search:

1. initializes with a basis containing the feasible pair ``{x, y}`` maximizing
   ``f({x, y}) + λ·d(x, y)``,
2. while some swap ``S - v + u`` (``u ∉ S``, ``v ∈ S``, result independent)
   improves the objective, performs the best such swap.

Theorem 2 shows the locally optimal solution is a 2-approximation for
monotone submodular quality.  As the paper notes, requiring at least an
ε-relative improvement per swap bounds the number of iterations polynomially
at a ``2(1 + ε)`` style loss; :class:`LocalSearchConfig.epsilon` exposes that
knob.

:func:`refine_with_local_search` is the experiments' "LS": start from an
existing solution (Greedy B's output) under a uniform matroid and run
best-improvement swaps under a wall-clock budget expressed as a multiple of
the seed solution's running time (the paper uses 10×).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro._types import Element
from repro.core import kernels
from repro.core.objective import Objective
from repro.core.result import SolverResult, build_result
from repro.exceptions import InfeasibleError, InvalidParameterError
from repro.matroids.base import Matroid, restriction_feasible_pairs
from repro.matroids.uniform import UniformMatroid
from repro.utils.deadline import Deadline, mark_interrupted


@dataclass(frozen=True)
class LocalSearchConfig:
    """Termination and improvement policy for the local search.

    Attributes
    ----------
    epsilon:
        Minimum relative improvement per swap: a swap is accepted only if it
        improves the objective by more than ``epsilon * |φ(S)| / n``.  0 means
        any strict improvement counts (the algorithm exactly as stated in the
        paper).
    max_swaps:
        Hard cap on the number of accepted swaps (``None`` = unbounded).
    time_budget_seconds:
        Wall-clock budget (``None`` = unbounded).
    first_improvement:
        Accept the first improving swap found instead of the best one.
    """

    epsilon: float = 0.0
    max_swaps: Optional[int] = None
    time_budget_seconds: Optional[float] = None
    first_improvement: bool = False

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise InvalidParameterError("epsilon must be non-negative")
        if self.max_swaps is not None and self.max_swaps < 0:
            raise InvalidParameterError("max_swaps must be non-negative")
        if self.time_budget_seconds is not None and self.time_budget_seconds < 0:
            raise InvalidParameterError("time_budget_seconds must be non-negative")


def _extend_to_basis(
    objective: Objective, matroid: Matroid, independent: Iterable[Element]
) -> Set[Element]:
    """Extend an independent set to a basis, preferring high singleton quality
    so the starting basis is sensible."""
    weights = kernels.modular_weights(objective.quality)
    if weights is not None:
        # Stable descending argsort: the order sorted(..., reverse=True) gives.
        preference = np.argsort(-weights, kind="stable").tolist()
    else:
        preference = sorted(
            range(matroid.n),
            key=lambda u: objective.quality.marginal(u, frozenset()),
            reverse=True,
        )
    return set(matroid.extend_to_basis(set(independent), preference=preference))


def _initial_basis(objective: Objective, matroid: Matroid) -> Set[Element]:
    """The paper's initialization: best feasible pair extended to a basis."""
    rank = matroid.rank()
    if rank == 0:
        return set()
    if rank == 1:
        best = max(
            (u for u in range(matroid.n) if matroid.is_independent({u})),
            key=lambda u: objective.value({u}),
            default=None,
        )
        if best is None:
            raise InfeasibleError("matroid has rank 1 but no independent singleton")
        return {best}
    best_pair: Optional[Tuple[Element, Element]] = None
    fast = kernels.matrix_fast_path(objective)
    pair_mask = matroid.pair_feasibility_mask() if fast is not None else None
    if fast is not None and pair_mask is not None:
        # One masked matrix argmax over w[x] + w[y] + λ·D[x, y] instead of
        # O(n²) pair_value calls.
        weights, matrix = fast
        move = kernels.pair_argmax(
            weights, matrix, objective.tradeoff, mask=pair_mask
        )
        if move is not None:
            best_pair = (move[0], move[1])
    else:
        best_value = -float("inf")
        for x, y in restriction_feasible_pairs(matroid):
            value = objective.pair_value(x, y)
            if value > best_value:
                best_value = value
                best_pair = (x, y)
    if best_pair is None:
        raise InfeasibleError("no independent pair exists in the matroid")
    return _extend_to_basis(objective, matroid, best_pair)


def _scan_swaps_reference(
    objective: Objective,
    matroid: Matroid,
    selected: Set[Element],
    tracker,
    threshold: float,
    *,
    weights: Optional[np.ndarray] = None,
    first_improvement: bool = False,
    out_of_time=None,
) -> Optional[Tuple[Element, Element, float]]:
    """One loop-based best-swap scan, for lazy metrics and oracle matroids;
    also the reference the kernel scan is tested against.

    The distance part of each swap gain is read from a
    :class:`~repro.metrics.aggregates.MarginalDistanceTracker` in O(1):

    ``φ(S − v + u) − φ(S) = [f(S − v + u) − f(S)] + λ·[(d_u(S) − d(u, v)) − d_v(S)]``

    For modular quality the bracketed quality term is ``w(u) − w(v)``, making
    every candidate swap O(1); for general submodular quality it is one
    single-candidate batched-gains call against a per-outgoing removal state
    (:func:`~repro.core.kernels.removal_gain_state`) built on first use and
    cached for the scan.  Returns ``(incoming, outgoing, gain)`` with
    ``gain > threshold``, or ``None``.  ``weights`` may be passed by callers
    that already hold the modular weight vector (it is recomputed otherwise).
    """
    quality = objective.quality
    metric = objective.metric
    lam = objective.tradeoff
    if weights is None:
        weights = kernels.modular_weights(quality)
    removal_states: dict = {}  # outgoing v -> (state for S − v, f_v(S − v))

    def removal_state(outgoing: Element):
        cached = removal_states.get(outgoing)
        if cached is None:
            cached = kernels.removal_gain_state(quality, selected, outgoing)
            removal_states[outgoing] = cached
        return cached

    best_move: Optional[Tuple[Element, Element]] = None
    best_gain = threshold
    stop_scan = False
    for incoming in range(objective.n):
        if incoming in selected:
            continue
        if out_of_time is not None and incoming % 64 == 0 and out_of_time():
            break
        distance_in = tracker.marginal(incoming)
        for outgoing in matroid.swap_candidates(selected, incoming):
            distance_gain = (
                distance_in - metric.distance(incoming, outgoing)
            ) - tracker.marginal(outgoing)
            if weights is not None:
                quality_gain = float(weights[incoming] - weights[outgoing])
            else:
                state, base = removal_state(outgoing)
                quality_gain = float(quality.gains((incoming,), state)[0]) - base
            gain = quality_gain + lam * distance_gain
            if gain > best_gain:
                best_gain = gain
                best_move = (incoming, outgoing)
                if first_improvement:
                    stop_scan = True
                    break
        if stop_scan:
            break
    if best_move is None:
        return None
    return best_move[0], best_move[1], best_gain


def _swap_quality_gains(
    quality,
    weights: Optional[np.ndarray],
    selected: Set[Element],
    inside: np.ndarray,
    outside: np.ndarray,
) -> np.ndarray:
    """Quality-gain matrix ``Q[i, j] = f(S − inside[j] + outside[i]) − f(S)``.

    ``w[outside[i]] − w[inside[j]]`` when the modular weight vector is given;
    otherwise one removal state per outgoing element, each answering the
    gains of *every* incoming candidate in a single batch:
    ``Q[:, j] = f_·(S − v_j) − f_{v_j}(S − v_j)``.
    """
    if weights is not None:
        return kernels.weight_swap_gains(weights, outside, inside)
    gains = np.empty((outside.size, inside.size), dtype=float)
    for j, outgoing in enumerate(inside):
        state, base = kernels.removal_gain_state(quality, selected, int(outgoing))
        gains[:, j] = quality.gains(outside, state) - base
    return gains


def _scan_swaps_kernel(
    objective: Objective,
    matroid: Matroid,
    selected: Set[Element],
    tracker,
    threshold: float,
    matrix: np.ndarray,
    weights: Optional[np.ndarray] = None,
    *,
    first_improvement: bool = False,
) -> Optional[Tuple[Element, Element, float]]:
    """One kernel-based best-swap scan: a masked argmax over the gain matrix.

    Builds the full (incoming × outgoing) gain matrix
    ``Q[in, out] + λ·((d_in(S) − D[in, out]) − d_out(S))`` in one shot from
    the tracker's marginal view, masked by the matroid's vectorized
    feasibility rule.  The quality part ``Q`` comes from
    :func:`_swap_quality_gains`: the modular ``weights`` when given, else
    O(p) removal states and O(p) gains batches per scan instead of O(n·p)
    value-oracle evaluations.
    """
    inside, outside = kernels.solution_split(objective.n, selected)
    if inside.size == 0 or outside.size == 0:
        return None
    feasible = matroid.swap_feasibility(selected, outside, inside)
    quality_gain = _swap_quality_gains(
        objective.quality, weights, selected, inside, outside
    )
    gains = kernels.swap_gain_matrix(
        quality_gain,
        matrix,
        objective.tradeoff,
        tracker.marginals_view(),
        outside,
        inside,
    )
    return kernels.best_swap_scan(
        gains,
        outside,
        inside,
        feasible=feasible,
        threshold=threshold,
        first_improvement=first_improvement,
    )


def _run_swaps(
    objective: Objective,
    matroid: Matroid,
    selected: Set[Element],
    config: LocalSearchConfig,
    started: float,
    swap_trace: List[Tuple[Element, Element, float]],
    deadline: Optional[Deadline] = None,
) -> Tuple[int, bool]:
    """Perform improving swaps in place; return the number of swaps accepted.

    Each iteration runs one best-swap scan of the same swap rule: the kernel
    scan (:func:`_scan_swaps_kernel`) when the metric is matrix-backed and
    the matroid family has a closed-form feasibility rule, else the
    loop-based reference scan (lazy metrics, oracle matroids).  Both read
    modular quality gains from the weight vector and every other quality's
    from the batched marginal-gain protocol, and both accept only swaps
    strictly better than the ε-threshold of :class:`LocalSearchConfig`.

    Returns ``(swaps accepted, interrupted)`` — ``interrupted`` is ``True``
    only when a cooperative ``deadline`` expired; the config's own time
    budget counts as ordinary (non-interrupted) termination, matching the
    existing ``converged`` metadata contract.
    """
    swaps = 0
    interrupted = False
    tracker = objective.make_tracker(selected)
    current_value = objective.value(selected)

    matrix = objective.metric.matrix_view()
    use_kernel = matrix is not None and kernels.matroid_swap_vectorized(matroid)
    weights = kernels.modular_weights(objective.quality)

    def out_of_time() -> bool:
        if deadline is not None and deadline.expired():
            return True
        return (
            config.time_budget_seconds is not None
            and time.perf_counter() - started > config.time_budget_seconds
        )

    while True:
        if config.max_swaps is not None and swaps >= config.max_swaps:
            break
        if deadline is not None and deadline.expired():
            interrupted = True
            break
        if out_of_time():
            break
        threshold = config.epsilon * abs(current_value) / max(objective.n, 1)
        if use_kernel:
            move = _scan_swaps_kernel(
                objective,
                matroid,
                selected,
                tracker,
                threshold,
                matrix,
                weights,
                first_improvement=config.first_improvement,
            )
        else:
            move = _scan_swaps_reference(
                objective,
                matroid,
                selected,
                tracker,
                threshold,
                weights=weights,
                first_improvement=config.first_improvement,
                out_of_time=out_of_time,
            )
        if move is None:
            break
        incoming, outgoing, best_gain = move
        selected.remove(outgoing)
        selected.add(incoming)
        tracker.swap(incoming, outgoing)
        current_value += best_gain
        swap_trace.append((incoming, outgoing, best_gain))
        swaps += 1
    return swaps, interrupted


def local_search_diversify(
    objective: Objective,
    matroid: Matroid,
    *,
    config: Optional[LocalSearchConfig] = None,
    initial: Optional[Iterable[Element]] = None,
    candidates: Optional[Iterable[Element]] = None,
    deadline: Union[None, float, Deadline] = None,
) -> SolverResult:
    """Run the single-swap local search under a matroid constraint.

    Parameters
    ----------
    objective:
        The combined objective ``φ``.
    matroid:
        The independence constraint.  The returned set is a basis.
    config:
        Termination policy (defaults to pure best-improvement until a local
        optimum, as in Theorem 2).
    initial:
        Optional independent set to start from instead of the paper's
        best-pair initialization.  It is extended to a basis first.
    candidates:
        Optional candidate pool, routed through the restriction layer: both
        the objective and the matroid are restricted
        (:meth:`~repro.matroids.base.Matroid.restrict`), the search runs on
        the sub-instance, and the result is lifted back.  ``initial`` (when
        given) must lie inside the pool.
    deadline:
        Optional cooperative wall-clock budget (seconds or a
        :class:`~repro.utils.deadline.Deadline`).  Checked before every swap
        scan (and periodically inside the reference scan); on expiry the
        current basis — always feasible, since swaps preserve independence —
        is returned with ``metadata["interrupted"] = True``.
    """
    config = config or LocalSearchConfig()
    if matroid.n != objective.n:
        raise InvalidParameterError(
            f"matroid covers {matroid.n} elements but the objective covers "
            f"{objective.n}"
        )
    if candidates is not None:
        restriction = objective.restrict(candidates)
        sub_initial = restriction.to_local(initial) if initial is not None else None
        result = local_search_diversify(
            restriction.objective,
            matroid.restrict(restriction.candidates),
            config=config,
            initial=sub_initial,
            deadline=deadline,
        )
        return restriction.lift(result)

    started = time.perf_counter()
    deadline = Deadline.coerce(deadline)
    if initial is None:
        selected = _initial_basis(objective, matroid)
    else:
        initial_set = set(initial)
        if not matroid.is_independent(initial_set):
            raise InvalidParameterError(
                "initial set must be independent in the matroid"
            )
        selected = _extend_to_basis(objective, matroid, initial_set)

    swap_trace: List[Tuple[Element, Element, float]] = []
    swaps, interrupted = _run_swaps(
        objective, matroid, selected, config, started, swap_trace, deadline
    )
    elapsed = time.perf_counter() - started
    metadata = {
        "swaps": swap_trace,
        "epsilon": config.epsilon,
        "converged": (
            not interrupted
            and (config.max_swaps is None or swaps < config.max_swaps)
            and (
                config.time_budget_seconds is None
                or elapsed <= config.time_budget_seconds
            )
        ),
    }
    if interrupted:
        mark_interrupted(metadata, deadline, "local_search_swaps")
    return build_result(
        objective,
        selected,
        sorted(selected),
        algorithm="local_search",
        iterations=swaps,
        elapsed_seconds=elapsed,
        metadata=metadata,
    )


def refine_with_local_search(
    objective: Objective,
    seed_result: SolverResult,
    *,
    p: Optional[int] = None,
    time_budget_multiple: float = 10.0,
    min_budget_seconds: float = 0.01,
    config: Optional[LocalSearchConfig] = None,
    deadline: Union[None, float, Deadline] = None,
) -> SolverResult:
    """The experiments' "LS": swap-refine a greedy solution under a time budget.

    Parameters
    ----------
    objective:
        The objective the seed was computed for.
    seed_result:
        Typically the output of :func:`repro.core.greedy.greedy_diversify`.
    p:
        Cardinality of the uniform-matroid constraint (defaults to the seed's
        size).
    time_budget_multiple:
        Wall-clock budget as a multiple of the seed's running time (the paper
        runs LS for at most 10× the Greedy B time).
    min_budget_seconds:
        Lower bound on the budget so very fast greedy runs still allow a few
        swaps.
    config:
        Optional base configuration; its time budget is overridden.
    deadline:
        Optional cooperative wall-clock budget, checked alongside the
        seed-relative time budget; on expiry the refinement stops and the
        partially refined (still feasible) solution is returned with
        ``metadata["interrupted"] = True``.
    """
    if time_budget_multiple < 0:
        raise InvalidParameterError("time_budget_multiple must be non-negative")
    cardinality = p if p is not None else seed_result.size
    matroid = UniformMatroid(objective.n, cardinality)
    budget = max(seed_result.elapsed_seconds * time_budget_multiple, min_budget_seconds)
    base = config or LocalSearchConfig()
    refined_config = LocalSearchConfig(
        epsilon=base.epsilon,
        max_swaps=base.max_swaps,
        time_budget_seconds=budget,
        first_improvement=base.first_improvement,
    )
    started = time.perf_counter()
    deadline = Deadline.coerce(deadline)
    selected = set(seed_result.selected)
    swap_trace: List[Tuple[Element, Element, float]] = []
    swaps, interrupted = _run_swaps(
        objective, matroid, selected, refined_config, started, swap_trace, deadline
    )
    elapsed = time.perf_counter() - started
    metadata = {
        "seed_algorithm": seed_result.algorithm,
        "seed_value": seed_result.objective_value,
        "budget_seconds": budget,
        "swaps": swap_trace,
    }
    if interrupted:
        mark_interrupted(metadata, deadline, "local_search_refine")
    return build_result(
        objective,
        selected,
        sorted(selected),
        algorithm="local_search_refine",
        iterations=swaps,
        elapsed_seconds=elapsed,
        metadata=metadata,
    )
