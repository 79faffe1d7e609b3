"""``repro.core`` — the paper's fault-tolerant ring, every design stage.

Public surface:

* :func:`make_ring_main` / :class:`RingConfig` / :class:`RingVariant` /
  :class:`Termination` — build a per-rank main for a
  :class:`~repro.simmpi.runtime.Simulation` (paper Figs. 2 and 3).
* :func:`make_rootft_main` — the §III-D root-failure-tolerant driver.
* The building blocks, for composing your own protocols:
  :func:`to_left_of` / :func:`to_right_of` / :func:`get_current_root`
  (Figs. 4, 12), :func:`ft_send_right` (Fig. 5), :func:`ft_recv_left` /
  :func:`naive_recv_left` (Figs. 6–10), and the two termination schemes
  (Figs. 11, 13).

The names below load on first use (:mod:`repro._lazy`): a ring built by
:func:`make_ring_main` never loads the root-failure driver.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "messages": (
        "IDX_NORMAL",
        "IDX_WATCHDOG",
        "TAG_DONE",
        "TAG_NORMAL",
        "TAG_RESEND",
        "RingMsg",
        "RingVariant",
        "Termination",
    ),
    "neighbors": ("get_current_root", "to_left_of", "to_right_of"),
    "recv": ("BecameRoot", "ensure_watchdog", "ft_recv_left", "naive_recv_left"),
    "ring": (
        "RingConfig",
        "baseline_ring_main",
        "ft_ring_main",
        "make_ring_main",
        "ring_report",
    ),
    "rootft": ("make_rootft_main", "rootft_ring_main"),
    "send": ("ft_send_right",),
    "state": ("RingState", "RingStats"),
    "termination": (
        "ft_termination_ibarrier",
        "ft_termination_root_bcast",
        "ft_termination_validate_all",
    ),
})
