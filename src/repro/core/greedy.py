"""Greedy B — the paper's non-oblivious greedy algorithm (Section 4).

The algorithm builds ``S`` one vertex at a time, always adding the element
maximizing the potential

``φ'_u(S) = ½·f_u(S) + λ·d_u(S)``

rather than the true objective marginal ``φ_u(S) = f_u(S) + λ·d_u(S)``.
Halving the quality marginal is what makes Theorem 1's charging argument work
and yields a 2-approximation for any normalized monotone submodular ``f``
under a cardinality constraint.

Two starting rules are provided:

* ``start="potential"`` (default) — the algorithm exactly as stated in the
  paper: the first element also maximizes ``φ'_u(∅) = ½·f_u(∅)``.
* ``start="best_pair"`` — the "improved Greedy B" of Table 3, which seeds the
  solution with the pair maximizing ``f({x, y}) + λ·d(x, y)``.

The optional ``oblivious=True`` switch replaces the potential by the true
marginal; it is *not* covered by Theorem 1 and exists for the ablation bench.
"""

from __future__ import annotations

import time

import numpy as np

from typing import Callable, Iterable, List, Optional, Set, Union

from repro._types import Element
from repro.core import kernels
from repro.core.checkpoint import SolveCheckpoint, universe_fingerprint
from repro.core.objective import Objective
from repro.core.result import SolverResult, build_result
from repro.exceptions import InvalidParameterError
from repro.obs.instrument import maybe_span, maybe_start_span
from repro.obs.trace import Trace
from repro.utils.deadline import Deadline, mark_interrupted
from repro.utils.validation import check_cardinality

#: Number of top stale candidates re-evaluated per CELF round.  Batching
#: amortizes the fixed cost of a gains call; the overshoot per selection step
#: is bounded by one batch.
_LAZY_BATCH = 8


def _best_pair(objective: Objective, candidates: Iterable[Element]) -> tuple:
    """Return the candidate pair maximizing ``f({x,y}) + λ·d(x,y)``."""
    pool = list(candidates)
    fast = kernels.matrix_fast_path(objective)
    if fast is not None and len(pool) >= 2:
        weights, matrix = fast
        move = kernels.pair_argmax(weights, matrix, objective.tradeoff, pool)
        assert move is not None
        return move[0], move[1]
    best = None
    best_value = -float("inf")
    for i, x in enumerate(pool):
        for y in pool[i + 1 :]:
            value = objective.pair_value(x, y)
            if value > best_value:
                best_value = value
                best = (x, y)
    if best is None:
        raise InvalidParameterError("best-pair start needs at least two candidates")
    return best


def greedy_diversify(
    objective: Objective,
    p: int,
    *,
    candidates: Optional[Iterable[Element]] = None,
    start: str = "potential",
    oblivious: bool = False,
    lazy: Optional[bool] = None,
    deadline: Union[None, float, Deadline] = None,
    checkpoint_every: Optional[int] = None,
    on_checkpoint: Optional[Callable[[SolveCheckpoint], None]] = None,
    resume_from: Optional[SolveCheckpoint] = None,
    trace: Optional[Trace] = None,
) -> SolverResult:
    """Run Greedy B for the cardinality-constrained problem.

    Parameters
    ----------
    objective:
        The combined objective ``φ``.
    p:
        Target cardinality ``|S| = p`` (values larger than the candidate pool
        are clamped to the pool size).
    candidates:
        Optional subset of the universe to select from (defaults to all
        elements).  Routed through the restriction layer
        (:meth:`~repro.core.objective.Objective.restrict`): the greedy runs
        on the re-indexed sub-instance — kernels included — and the result is
        lifted back.  Used by the LETOR experiments to restrict to the top-k
        documents of a query.
    start:
        ``"potential"`` (the paper's algorithm) or ``"best_pair"`` (the
        improved variant of Table 3).
    oblivious:
        When ``True``, greedily maximize the true marginal ``φ_u(S)`` instead
        of the non-oblivious potential.  Provided for the ablation study; the
        2-approximation proof does not apply to it.
    lazy:
        CELF lazy evaluation of the quality gains.  Default ``None`` enables
        laziness exactly when the quality declares itself submodular — the
        property that makes stale quality gains valid upper bounds.
        ``False`` forces the plain batched evaluation (every candidate
        re-scored each iteration); ``True`` forces laziness for functions
        whose submodularity the caller vouches for.  Modular gains never go
        stale, so for modular quality both settings select identically and
        no gain is ever re-evaluated.
    deadline:
        Optional cooperative wall-clock budget (seconds or a
        :class:`~repro.utils.deadline.Deadline`).  Checked once per selection
        step; on expiry the greedy stops and returns its best-so-far prefix —
        always a feasible set, since every greedy prefix is — with
        ``metadata["interrupted"] = True`` and ``metadata["phase"]``.
    checkpoint_every, on_checkpoint:
        Emit a pickle-safe :class:`~repro.core.checkpoint.SolveCheckpoint`
        (the selection order so far) to ``on_checkpoint`` after every
        ``checkpoint_every`` selections (default 1 when only the callback is
        given).
    resume_from:
        A ``kind="greedy"`` checkpoint to resume from: its order is replayed
        as the selection prefix, after which the greedy continues normally.
        Greedy is deterministic given a prefix, so an interrupted-and-resumed
        run selects the same set as an uninterrupted one.
    trace:
        Optional :class:`~repro.obs.trace.Trace`: records a ``gain_state``
        span (tracker / batched marginal-gain state construction) and a
        ``greedy_rounds`` span carrying iteration and CELF evaluation counts.

    Returns
    -------
    SolverResult
        The selected set, its objective decomposition and the insertion order.
    """
    if candidates is not None:
        restriction = objective.restrict(candidates)
        result = greedy_diversify(
            restriction.objective,
            p,
            start=start,
            oblivious=oblivious,
            lazy=lazy,
            deadline=deadline,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            resume_from=resume_from,
            trace=trace,
        )
        return restriction.lift(result)

    started = time.perf_counter()
    deadline = Deadline.coerce(deadline)
    n = objective.n
    p = check_cardinality(p, n) if p <= n else n
    if start not in ("potential", "best_pair"):
        raise InvalidParameterError(f"unknown start rule {start!r}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise InvalidParameterError("checkpoint_every must be at least 1")
    if on_checkpoint is not None and checkpoint_every is None:
        checkpoint_every = 1

    algorithm = "greedy_b_oblivious" if oblivious else "greedy_b"
    if start == "best_pair":
        algorithm += "_bestpair"

    selected: Set[Element] = set()
    order: List[Element] = []
    with maybe_span(trace, "gain_state", kind="tracker"):
        tracker = objective.make_tracker()
    iterations = 0
    interrupted = False

    fingerprint = universe_fingerprint("solve", "greedy", n, objective.tradeoff)
    seeded: List[Element] = []
    if resume_from is not None:
        resume_from.require("greedy", n, fingerprint=fingerprint)
        seeded = list(resume_from.order)[:p]
    elif start == "best_pair" and p >= 2 and n >= 2:
        if deadline is not None and deadline.expired():
            interrupted = True
        else:
            seeded = list(_best_pair(objective, range(n)))
            iterations += 1
    for element in seeded:
        selected.add(element)
        order.append(element)
        tracker.add(element)

    quality = objective.quality
    quality_scale = 1.0 if oblivious else 0.5
    penalty = np.zeros(n)  # -inf once selected
    penalty[order] = -np.inf

    # One selection loop for every quality, CELF (Minoux 1978): each step
    # scores ``potential + λ·d_u(S) + penalty`` into the preallocated
    # ``scores`` buffer and takes one argmax.  ``potential[u]`` caches
    # ``scale·f_u(S)`` as of step ``evaluated_at[u]``; under submodularity a
    # stale gain is an upper bound, so only a stale argmax triggers
    # re-evaluation.  The distance term is supermodular, so it is read exact
    # from the tracker's copy-free view every step.  Modular gains never go
    # stale: read once from the weights and stamped fresh forever, each step
    # is one O(n) argmax (the O(np) total discussed after Theorem 1).
    # (Candidate pools never reach this code: the restriction layer above
    # re-indexes them into a dense sub-universe.)
    margins = tracker.marginals_view()
    scores = np.empty(n, dtype=float)
    weights = kernels.modular_weights(quality)
    state = None
    if weights is not None:
        potential = quality_scale * weights
        evaluated_at = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    else:
        use_lazy = lazy if lazy is not None else quality.declares_submodular
        with maybe_span(trace, "gain_state", kind="quality"):
            state = objective.make_quality_state(selected)
        potential = np.zeros(n, dtype=float)
        evaluated_at = np.zeros(n, dtype=np.int64)
    selection_step = 0
    evaluations = 0
    evaluations_after_first = 0
    candidates_after_first = 0

    # Explicit-start span (the loop has `break` exits and the CELF counters
    # only exist at the end); ``finish`` is idempotent, so the no-trace path
    # costs one attribute check per solve.
    rounds = maybe_start_span(trace, "greedy_rounds")
    while len(selected) < p and not interrupted:
        if deadline is not None and deadline.expired():
            interrupted = True
            break
        selection_step += 1
        if state is not None:
            if selection_step > 1:
                candidates_after_first += n - len(selected)
            if not use_lazy or selection_step == 1:
                remaining_idx = np.nonzero(np.isfinite(penalty))[0]
                potential[remaining_idx] = quality_scale * objective.quality_gains(
                    remaining_idx, state
                )
                evaluated_at[remaining_idx] = selection_step
                evaluations += remaining_idx.size
                if selection_step > 1:
                    evaluations_after_first += remaining_idx.size
        np.multiply(margins, objective.tradeoff, out=scores)
        scores += potential
        scores += penalty
        best_element = int(np.argmax(scores))
        while evaluated_at[best_element] < selection_step:
            # Re-evaluate the top stale candidates in one protocol batch:
            # the stale argmax is guaranteed to be among them (it is the
            # global score maximum), so every round makes progress, and
            # batching amortizes the per-call cost of tiny gains batches.
            stale_scores = np.where(evaluated_at < selection_step, scores, -np.inf)
            if n > _LAZY_BATCH:
                top = np.argpartition(stale_scores, -_LAZY_BATCH)[-_LAZY_BATCH:]
            else:
                top = np.arange(n)
            top = top[np.isfinite(stale_scores[top])]
            fresh = quality_scale * quality.gains(top, state)
            potential[top] = fresh
            evaluated_at[top] = selection_step
            evaluations += top.size
            evaluations_after_first += top.size
            scores[top] = objective.tradeoff * margins[top] + fresh
            best_element = int(np.argmax(scores))
        if state is not None:
            quality.push(state, best_element)
        selected.add(best_element)
        order.append(best_element)
        tracker.add(best_element)
        penalty[best_element] = -np.inf
        iterations += 1
        if on_checkpoint is not None and len(order) % checkpoint_every == 0:
            on_checkpoint(
                SolveCheckpoint(
                    kind="greedy",
                    n=n,
                    p=p,
                    order=tuple(order),
                    elapsed_seconds=time.perf_counter() - started,
                    metadata={"algorithm": algorithm},
                    fingerprint=fingerprint,
                )
            )

    rounds.set(iterations=iterations, interrupted=interrupted)
    if state is not None:
        rounds.set(lazy=use_lazy, quality_evaluations=evaluations)
    rounds.finish()

    metadata = {"start": start, "oblivious": oblivious, "p": p}
    if resume_from is not None:
        metadata["resumed_at"] = len(seeded)
    if interrupted:
        mark_interrupted(metadata, deadline, "greedy_selection")
    if state is not None:
        if getattr(state, "degraded", False):
            # A numerical fast path (e.g. the log-det Cholesky state) broke
            # down mid-solve and fell back to oracle gains; surface it.
            metadata["degraded"] = True
            metadata["degradation"] = "quality_gain_state"
        metadata["celf"] = {
            "lazy": use_lazy,
            "quality_evaluations": evaluations,
            "evaluations_after_first": evaluations_after_first,
            "celf_fraction": (
                evaluations_after_first / candidates_after_first
                if candidates_after_first
                else 0.0
            ),
        }

    elapsed = time.perf_counter() - started
    return build_result(
        objective,
        selected,
        order,
        algorithm=algorithm,
        iterations=iterations,
        elapsed_seconds=elapsed,
        metadata=metadata,
    )
