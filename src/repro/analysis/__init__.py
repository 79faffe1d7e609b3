"""``repro.analysis`` — invariants, statistics, digests, and tables."""

from .digest import perf_dict, result_digest
from .invariants import (
    Invariant,
    completions_in_order,
    make_min_completions,
    make_value_bounds,
    no_abort,
    no_duplicate_completions,
    no_hang,
    standard_ring_invariants,
    survivors_done,
)
from .spacetime import SpacetimeOptions, failure_story, render_spacetime
from .stats import MessageStats, message_stats, ring_summary
from .tables import ascii_table, dict_table, format_cell

__all__ = [
    "Invariant",
    "MessageStats",
    "SpacetimeOptions",
    "ascii_table",
    "completions_in_order",
    "dict_table",
    "failure_story",
    "format_cell",
    "make_min_completions",
    "make_value_bounds",
    "message_stats",
    "no_abort",
    "no_duplicate_completions",
    "no_hang",
    "perf_dict",
    "render_spacetime",
    "result_digest",
    "ring_summary",
    "standard_ring_invariants",
    "survivors_done",
]
