"""Vectorized distance kernels — the array layer under every algorithm.

Greedy B and the local search each have one selection path, evaluated
through the marginal-gain protocol: quality gains come either from a modular
weight vector (which never goes stale) or from batched
:meth:`~repro.functions.base.SetFunction.gains` calls, and distance gains from
the marginal vector ``margins[u] = d_u(S)``.  When the metric exposes
:meth:`~repro.metrics.base.Metric.matrix_view`, the hot scans below replace
per-pair Python loops by one NumPy array operation.  The per-pair loops that
need only the ``distance(u, v)`` oracle remain as the fallback for lazy
metrics and as the test reference.

Everything here operates on plain arrays (the weight vector ``w``, the
distance matrix ``D``, the marginal vector ``margins``) so the same kernels
serve Greedy B's pair seeding, the local-search best-swap scan (which the
dynamic update rule shares) and the dynamic-update engine.  The key
identities (paper Sections 4–6):

* pair score       ``w(x) + w(y) + λ·d(x, y)``
* swap gain        ``φ(S − v + u) − φ(S)
                     = [f(S − v + u) − f(S)] + λ·((d_u(S) − d(u, v)) − d_v(S))``,
  whose quality bracket is ``w(u) − w(v)`` for modular ``f``

Each scan is a masked argmax over the corresponding score matrix, turning the
O(n·p) inner Python loop per local-search iteration into a handful of BLAS
level array operations.
"""

from __future__ import annotations

import math
import warnings

from typing import Iterable, Optional, Tuple

import numpy as np

from repro._types import Element
from repro.exceptions import NumericalDegradationWarning
from repro.functions.base import SetFunction
from repro.matroids.base import Matroid

__all__ = [
    "modular_weights",
    "weights_view_of",
    "matrix_fast_path",
    "solution_split",
    "set_margins",
    "best_addition_scan",
    "pair_argmax",
    "weight_swap_gains",
    "swap_gain_matrix",
    "best_swap_scan",
    "removal_gain_state",
    "matroid_swap_vectorized",
]


def weights_view_of(quality: SetFunction) -> Optional[np.ndarray]:
    """``quality.weights_view()``, tolerant of instances that hide the hook.

    ``weights_view`` lives on the :class:`SetFunction` base, but subclasses
    (and tests) may mask it with a plain ``None`` attribute to opt out of the
    array fast path; anything non-callable means "no view".
    """
    accessor = getattr(quality, "weights_view", None)
    return accessor() if callable(accessor) else None


def modular_weights(quality: SetFunction) -> Optional[np.ndarray]:
    """Return the weight vector of a modular quality function, else ``None``.

    For a modular ``f``, ``f(S) = Σ_{u ∈ S} w(u)`` with
    ``w(u) = f({u})``; the kernels consume ``w`` directly instead of calling
    the value oracle per element per scan.  Families exposing a
    ``weights_view`` accessor (:class:`~repro.functions.modular.ModularFunction`,
    :class:`~repro.functions.modular.ZeroFunction`) return it in O(1);
    other modular functions (e.g. modular mixtures) pay one oracle sweep per
    call, so per-arrival hot paths should cache the result.
    """
    if not quality.is_modular:
        return None
    view = weights_view_of(quality)
    if view is not None:
        return view
    return np.fromiter(
        (quality.marginal(u, frozenset()) for u in range(quality.n)),
        dtype=float,
        count=quality.n,
    )


def matrix_fast_path(objective) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Return ``(weights, matrix)`` when the kernel preconditions hold.

    The kernel path needs a matrix-backed metric *and* modular quality;
    otherwise ``None`` is returned and callers use their reference loops.
    Both arrays are shared storage — treat them as read-only.
    """
    matrix = objective.metric.matrix_view()
    if matrix is None:
        return None
    weights = modular_weights(objective.quality)
    if weights is None:
        return None
    return weights, matrix


def solution_split(
    n: int, solution: Iterable[Element]
) -> Tuple[np.ndarray, np.ndarray]:
    """Split the universe into sorted ``(inside, outside)`` index arrays.

    ``inside`` are the members of ``solution`` and ``outside`` everything
    else; both ascending, which fixes the deterministic tie-breaking order of
    the swap scans.
    """
    inside = np.fromiter(sorted(solution), dtype=int)
    outside_mask = np.ones(n, dtype=bool)
    outside_mask[inside] = False
    outside = np.nonzero(outside_mask)[0]
    return inside, outside


def set_margins(matrix: np.ndarray, members: Iterable[Element]) -> np.ndarray:
    """Compute ``margins[u] = d_u(S)`` for every ``u`` with one column sum."""
    idx = np.fromiter(members, dtype=int)
    if idx.size == 0:
        return np.zeros(matrix.shape[0], dtype=float)
    return matrix[:, idx].sum(axis=1)


def best_addition_scan(
    weights: np.ndarray,
    tradeoff: float,
    margins: np.ndarray,
    candidates: np.ndarray,
) -> Optional[Tuple[Element, float]]:
    """Best element to *add* by true marginal ``w(u) + λ·d_u(S)``.

    The refill primitive of the dynamic engine: after a solution member is
    deleted, the replacement maximizing the true marginal is one masked
    argmax over the candidate pool (``margins`` must be synchronized with the
    current solution).  Returns ``(element, marginal)`` or ``None`` on an
    empty pool.  Ties resolve to the lowest candidate in ``candidates``
    order, matching the reference argmax loops.
    """
    idx = np.asarray(candidates, dtype=int)
    if idx.size == 0:
        return None
    scores = weights[idx] + tradeoff * margins[idx]
    i = int(np.argmax(scores))
    return int(idx[i]), float(scores[i])


#: Rows per block of the :func:`pair_argmax` scan: each block's score
#: temporary is ``_PAIR_BLOCK × n`` floats, never ``n × n``.
_PAIR_BLOCK = 64
#: ``_BELOW_DIAGONAL[r, c]``: block column ``c`` is element ``start + 1 + c``,
#: which is not above row ``start + r`` when ``c < r``.
_BELOW_DIAGONAL = np.tril(np.ones((_PAIR_BLOCK, _PAIR_BLOCK), dtype=bool), k=-1)


def pair_argmax(
    weights: np.ndarray,
    matrix: np.ndarray,
    tradeoff: float,
    *,
    mask: Optional[np.ndarray] = None,
) -> Optional[Tuple[Element, Element, float]]:
    """Best pair ``{x, y}`` by ``w(x) + w(y) + λ·d(x, y)`` over the universe.

    Only the upper triangle ``x < y`` is scanned, so ties resolve to the pair
    the reference double loop would have picked.  ``mask``, when given, is an
    additional boolean feasibility matrix (e.g. a matroid's
    :meth:`~repro.matroids.base.Matroid.pair_feasibility_mask`).  Returns
    ``None`` when no admissible pair exists.  A sub-pool is scanned by
    passing its gathered weights and submatrix; positions then index the
    pool.

    The scan walks fixed blocks of :data:`_PAIR_BLOCK` rows, each against
    the columns to its right, so memory stays O(n) per block; a later block
    replaces the running best only when strictly better, which keeps the
    row-major first-maximum tie-break of one full-matrix argmax.
    """
    n = len(weights)
    best: Optional[Tuple[Element, Element, float]] = None
    best_score = -np.inf
    for start in range(0, n - 1, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, n - 1)
        rows = stop - start
        # (w(x) + w(y)) + λ·d(x, y), summed in the reference's order.
        scores = np.multiply(matrix[start:stop, start + 1 :], tradeoff)
        scores += weights[start:stop, None] + weights[None, start + 1 :]
        scores[:, :rows][_BELOW_DIAGONAL[:rows, :rows]] = -np.inf
        if mask is not None:
            scores = np.where(mask[start:stop, start + 1 :], scores, -np.inf)
        flat = int(np.argmax(scores))
        r, c = divmod(flat, scores.shape[1])
        if scores[r, c] > best_score:
            best_score = float(scores[r, c])
            best = (start + r, start + 1 + c, best_score)
    return best


def weight_swap_gains(
    weights: np.ndarray, incoming: np.ndarray, outgoing: np.ndarray
) -> np.ndarray:
    """Modular quality-gain matrix ``Q[i, j] = w(incoming[i]) − w(outgoing[j])``."""
    return weights[incoming][:, None] - weights[outgoing][None, :]


def swap_gain_matrix(
    quality_gain: np.ndarray,
    matrix: np.ndarray,
    tradeoff: float,
    margins: np.ndarray,
    incoming: np.ndarray,
    outgoing: np.ndarray,
) -> np.ndarray:
    """Gain matrix ``G[i, j] = φ(S − outgoing[j] + incoming[i]) − φ(S)``.

    ``quality_gain[i, j] = f(S − outgoing[j] + incoming[i]) − f(S)`` comes
    from :func:`weight_swap_gains` for modular quality, or from the batched
    marginal-gain protocol (one :func:`removal_gain_state` per outgoing
    element) otherwise.  The distance part is the O(1)-per-entry identity
    ``λ·((d_in(S) − D[in, out]) − d_out(S))`` with the marginals ``d_·(S)``
    supplied by the caller (a tracker view or :func:`set_margins`).
    """
    cross = matrix[np.ix_(incoming, outgoing)]
    distance_gain = (margins[incoming][:, None] - cross) - margins[outgoing][None, :]
    return quality_gain + tradeoff * distance_gain


def best_swap_scan(
    gains: np.ndarray,
    incoming: np.ndarray,
    outgoing: np.ndarray,
    *,
    feasible: Optional[np.ndarray] = None,
    threshold: float = 0.0,
    first_improvement: bool = False,
) -> Optional[Tuple[Element, Element, float]]:
    """Select the accepted swap from a gain matrix; ``None`` when none qualifies.

    ``gains[i, j]`` is the gain of swapping ``incoming[i]`` (outside ``S``)
    for ``outgoing[j]`` (a member of ``S``), e.g. from
    :func:`swap_gain_matrix`; ``feasible`` is an optional boolean matrix of
    allowed swaps (all allowed when omitted).  Returns the best admissible
    entry strictly exceeding ``threshold`` — the reference loop's acceptance
    rule — or, with ``first_improvement``, the first such entry in row-major
    (incoming-then-outgoing) order.

    NaN gains (a poisoned oracle slipping past construction checks) would
    otherwise hijack ``argmax`` — NaN wins every comparison there — and then
    fail the ``best > threshold`` test, silently ending the search.  The scan
    guards the selected entry only (O(1) on the clean path): when it is NaN,
    a :class:`~repro.exceptions.NumericalDegradationWarning` is issued, NaN
    entries are masked to ``-inf`` and the argmax is retaken.
    """
    if gains.size == 0:
        return None
    if first_improvement:
        improving = gains > threshold
        if feasible is not None:
            improving &= feasible
        hits = np.argwhere(improving)
        if hits.shape[0] == 0:
            return None
        i, j = hits[0]
        return int(incoming[i]), int(outgoing[j]), float(gains[i, j])
    if feasible is not None:
        gains = np.where(feasible, gains, -np.inf)
    flat = int(np.argmax(gains))
    i, j = divmod(flat, outgoing.size)
    best = float(gains[i, j])
    if math.isnan(best):
        warnings.warn(
            "swap scan found NaN gains; masking them and rescanning",
            NumericalDegradationWarning,
            stacklevel=2,
        )
        gains = np.where(np.isnan(gains), -np.inf, gains)
        flat = int(np.argmax(gains))
        i, j = divmod(flat, outgoing.size)
        best = float(gains[i, j])
    if not best > threshold:
        return None
    return int(incoming[i]), int(outgoing[j]), best


def removal_gain_state(
    quality: SetFunction, selected: Iterable[Element], outgoing: Element
):
    """Gain state for ``S − outgoing`` plus the base gain ``f_v(S − v)``.

    The one identity behind every protocol-backed swap evaluation (local
    search scans, streaming arrivals):

    ``f(S − v + u) − f(S) = f_u(S − v) − f_v(S − v) = gains(u, state) − base``

    so callers get the quality part of any swap against ``outgoing`` from a
    single batched-gains call.  Returns ``(state, base)``.
    """
    state = quality.gain_state(set(selected) - {outgoing})
    base = float(quality.gains((outgoing,), state)[0])
    return state, base


def matroid_swap_vectorized(matroid: Matroid) -> bool:
    """Whether the matroid family implements the closed-form
    :meth:`~repro.matroids.base.Matroid.swap_feasibility` rule the vectorized
    swap scans mask with."""
    probe = matroid.swap_feasibility(
        frozenset(), np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    )
    return probe is not None

