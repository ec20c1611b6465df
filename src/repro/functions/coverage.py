"""Weighted coverage functions.

``f(S) = Σ_{topic t covered by S} weight(t)`` — the canonical monotone
submodular family.  The document-search example uses it to reward covering
many query aspects, the scenario the paper's introduction motivates
(different users expect different facets in the top results).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Set

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError
from repro.functions.base import Candidates, GainState, SetFunction


class _CoverageGainState(GainState):
    """Boolean mask over dense topic ids: ``covered[t]`` iff some member has t."""

    __slots__ = ("covered",)


class CoverageFunction(SetFunction):
    """Weighted set coverage.

    The batched-gains protocol runs on a CSR layout built once at
    construction: topic identifiers are re-indexed densely (first-seen
    order), ``indptr`` delimits each element's row in one flat array of dense
    topic ids, and a gain state is a boolean covered-topic mask.  ``gains``
    gathers the candidates' rows and sums their uncovered weights with one
    ``np.bincount``, so its cost is O(Σ|topics|) over the candidates whatever
    the size of the topic universe.  ``value``/``marginal`` stay set-based
    reference oracles.

    Parameters
    ----------
    element_topics:
        ``element_topics[u]`` is the collection of topic identifiers element
        ``u`` covers.
    topic_weights:
        Optional mapping from topic identifier to a non-negative weight.
        Topics absent from the mapping default to weight 1.
    """

    def __init__(
        self,
        element_topics: Sequence[Iterable[int]],
        topic_weights: Mapping[int, float] | None = None,
    ) -> None:
        self._topics = [frozenset(topics) for topics in element_topics]
        weights: Dict[int, float] = dict(topic_weights or {})
        for value in weights.values():
            if value < 0:
                raise InvalidParameterError("topic weights must be non-negative")
        self._weights = weights
        self._build_csr()

    def _build_csr(self) -> None:
        """Build the CSR layout over dense topic ids in one pass:
        ``topic_ids[indptr[u]:indptr[u + 1]]`` are element ``u``'s topics.

        Dense ids are assigned first-seen, not sorted(): topic ids are
        arbitrary hashables and need not be mutually orderable.  Gains are
        weight sums, so the assignment order never affects results.
        """
        dense: Dict[int, int] = {}
        self._topic_ids = np.array(
            [dense.setdefault(t, len(dense)) for ts in self._topics for t in ts],
            dtype=np.intp,
        )
        self._indptr = np.zeros(len(self._topics) + 1, dtype=np.intp)
        np.cumsum([len(ts) for ts in self._topics], out=self._indptr[1:])
        self._topic_weight_array = np.array(
            [self._weight(t) for t in dense], dtype=float
        )

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        if "_indptr" not in state:
            # A pickle of the earlier dense-incidence layout (for example a
            # corpus snapshot's quality): drop its arrays, rebuild the CSR.
            for stale in ("_incidence", "_element_topic_idx", "_num_topic_ids"):
                self.__dict__.pop(stale, None)
            self._build_csr()

    @property
    def n(self) -> int:
        return len(self._topics)

    def topics_of(self, element: Element) -> frozenset:
        """Return the topics covered by ``element``."""
        return self._topics[element]

    def _weight(self, topic: int) -> float:
        return self._weights.get(topic, 1.0)

    def covered_topics(self, subset: Iterable[Element]) -> Set[int]:
        """Return the union of topics covered by the subset."""
        covered: Set[int] = set()
        for element in self._as_set(subset):
            covered |= self._topics[element]
        return covered

    def value(self, subset: Iterable[Element]) -> float:
        return float(sum(self._weight(t) for t in self.covered_topics(subset)))

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        members = self._as_set(subset)
        if element in members:
            return 0.0
        covered = self.covered_topics(members)
        gained = self._topics[element] - covered
        return float(sum(self._weight(t) for t in gained))

    # ------------------------------------------------------------------
    # Batched marginal-gain protocol
    # ------------------------------------------------------------------
    def _row(self, element: Element) -> np.ndarray:
        """Element ``element``'s dense topic ids (a CSR row view)."""
        return self._topic_ids[self._indptr[element] : self._indptr[element + 1]]

    def gain_state(self, subset=()) -> _CoverageGainState:
        """O(Σ|topics|) state build: the covered-topic mask of the subset."""
        state = _CoverageGainState(subset)
        covered = np.zeros(self._topic_weight_array.size, dtype=bool)
        for element in state.members:
            covered[self._row(element)] = True
        state.covered = covered
        return state

    def gains(self, candidates: Candidates, state: _CoverageGainState) -> np.ndarray:
        """Batch gains: one gather of the candidates' CSR rows, then an
        ``np.bincount`` of their uncovered weights per candidate."""
        idx = np.asarray(candidates, dtype=np.intp)
        starts = self._indptr[idx]
        counts = self._indptr[idx + 1] - starts
        owner = np.repeat(np.arange(idx.size), counts)
        row_offsets = np.cumsum(counts) - counts
        topics = self._topic_ids[np.arange(owner.size) + (starts - row_offsets)[owner]]
        fresh = np.where(state.covered[topics], 0.0, self._topic_weight_array[topics])
        return np.bincount(owner, weights=fresh, minlength=idx.size)

    def push(self, state: _CoverageGainState, element: Element) -> _CoverageGainState:
        """O(|topics(element)|) incremental update of the covered mask."""
        super().push(state, element)
        state.covered[self._row(element)] = True
        return state

    @property
    def parallel_safe(self) -> bool:
        return True

    @classmethod
    def random(
        cls,
        n: int,
        num_topics: int,
        *,
        topics_per_element: int = 3,
        seed=None,
    ) -> "CoverageFunction":
        """Generate a random coverage instance (used by tests and benches)."""
        from repro.utils.rng import make_rng

        if n < 0 or num_topics <= 0 or topics_per_element <= 0:
            raise InvalidParameterError("invalid coverage generator parameters")
        rng = make_rng(seed)
        element_topics = [
            rng.choice(
                num_topics, size=min(topics_per_element, num_topics), replace=False
            )
            for _ in range(n)
        ]
        weights = {
            t: float(w) for t, w in enumerate(rng.uniform(0.5, 1.5, size=num_topics))
        }
        return cls([list(map(int, topics)) for topics in element_topics], weights)
