"""``repro.analysis`` — invariants, statistics, digests, and tables.

The names below load on first use (:mod:`repro._lazy`): a sweep that
only checks invariants never imports the space-time renderer.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "digest": ("perf_dict", "result_digest"),
    "invariants": (
        "Invariant",
        "completions_in_order",
        "make_min_completions",
        "make_value_bounds",
        "no_abort",
        "no_duplicate_completions",
        "no_hang",
        "standard_ring_invariants",
        "survivors_done",
    ),
    "spacetime": ("SpacetimeOptions", "failure_story", "render_spacetime"),
    "stats": ("MessageStats", "message_stats", "ring_summary"),
    "tables": ("ascii_table", "dict_table", "format_cell"),
})
