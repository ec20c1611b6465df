"""Solver result container.

Every algorithm in :mod:`repro.core` returns a :class:`SolverResult` so the
experiment harness, the examples and downstream users handle a single shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Sequence, Tuple

from repro._types import Element


@dataclass(frozen=True)
class SolverResult:
    """The outcome of one diversification run.

    Attributes
    ----------
    selected:
        The chosen subset ``S``.
    order:
        The order in which elements entered the final solution (greedy
        insertion order; for local search, the final basis in the order it
        stabilized).  ``len(order) == len(selected)``.
    objective_value:
        ``φ(S) = f(S) + λ·d(S)``.
    quality_value:
        ``f(S)``.
    dispersion_value:
        ``d(S)`` (unweighted).
    algorithm:
        Human-readable algorithm name (``"greedy_b"``, ``"greedy_a"``,
        ``"local_search"``, ``"exact"``, ...).
    iterations:
        Number of iterations / swaps / subsets examined, as appropriate.
    elapsed_seconds:
        Wall-clock time of the run.
    metadata:
        Algorithm-specific extras (e.g. the swap trace of local search).
    """

    selected: FrozenSet[Element]
    order: Tuple[Element, ...]
    objective_value: float
    quality_value: float
    dispersion_value: float
    algorithm: str
    iterations: int = 0
    elapsed_seconds: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """``|S|``."""
        return len(self.selected)

    @property
    def elapsed_ms(self) -> float:
        """Wall-clock time in milliseconds (the unit the paper reports)."""
        return self.elapsed_seconds * 1000.0

    def approximation_factor(self, optimal_value: float) -> float:
        """``OPT / ALG`` — the observed approximation factor ``AF`` of Section 7.

        Returns 1.0 when both values are (numerically) zero, and ``inf`` when
        the algorithm value is zero but the optimum is positive.
        """
        if abs(self.objective_value) < 1e-12:
            return 1.0 if abs(optimal_value) < 1e-12 else float("inf")
        return optimal_value / self.objective_value

    def sorted_elements(self) -> Sequence[Element]:
        """The selected elements in ascending index order."""
        return tuple(sorted(self.selected))

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.algorithm}: |S|={self.size} φ={self.objective_value:.4f} "
            f"(f={self.quality_value:.4f}, d={self.dispersion_value:.4f}) "
            f"in {self.elapsed_ms:.1f} ms"
        )


def build_result(
    objective,
    selected,
    order,
    *,
    algorithm: str,
    iterations: int = 0,
    elapsed_seconds: float = 0.0,
    metadata: Dict[str, Any] | None = None,
) -> SolverResult:
    """Assemble a :class:`SolverResult`, evaluating ``f(S)`` and ``d(S)`` once.

    ``φ(S)`` is formed from the two components with the same expression as
    :meth:`~repro.core.objective.Objective.value`, so it is bit-identical.
    """
    members = frozenset(selected)
    quality_value = objective.quality_value(members)
    dispersion_value = objective.dispersion_value(members)
    return SolverResult(
        selected=members,
        order=tuple(order),
        objective_value=quality_value + objective.tradeoff * dispersion_value,
        quality_value=quality_value,
        dispersion_value=dispersion_value,
        algorithm=algorithm,
        iterations=iterations,
        elapsed_seconds=elapsed_seconds,
        metadata=dict(metadata or {}),
    )
