"""Small shared utilities: deadlines, deterministic RNG handling, validation."""

from repro.utils.deadline import Deadline, mark_interrupted
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.validation import (
    check_cardinality,
    check_elements,
    check_finite_array,
    check_non_negative,
    check_probability,
    check_tradeoff,
)

__all__ = [
    "Deadline",
    "mark_interrupted",
    "make_rng",
    "spawn_rngs",
    "check_cardinality",
    "check_elements",
    "check_finite_array",
    "check_non_negative",
    "check_probability",
    "check_tradeoff",
]
