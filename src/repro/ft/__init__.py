"""``repro.ft`` — the run-through stabilization layer (paper Fig. 1).

This package implements the MPI Forum Fault Tolerance Working Group
interface the paper builds on, over the :mod:`repro.simmpi` substrate:

=============================  ==========================================
Paper interface                Here
=============================  ==========================================
``MPI_Rank_info``              :class:`RankInfo` / :class:`RankState`
``MPI_Comm_validate_rank``     :func:`comm_validate_rank`
``MPI_Comm_validate``          :func:`comm_validate`
``MPI_Comm_validate_clear``    :func:`comm_validate_clear`
``MPI_Comm_validate_all``      :func:`comm_validate_all`
``MPI_Icomm_validate_all``     :func:`icomm_validate_all`
=============================  ==========================================

The collective validate runs a real fault-tolerant agreement over the
simulated network: :mod:`repro.ft.agreement`, one engine whose default
algorithm is a term-numbered, lowest-alive-rank coordinator protocol
(2(n-1) messages per fault-free instance), with full FloodSet kept on the
same plumbing as the tests' oracle (``mode="full"``).

Beyond RTS, :mod:`repro.ft.ulfm` adds the ULFM-style primitives
(``comm_agree`` / ``comm_shrink``, paired with the kernel's
``Comm.revoke``) that the shrink/repair and partial-restart protocol
families in :mod:`repro.protocols` are built on; they are instances of
the same engine on an AM context that revocation spares.

The names below load on first use (:mod:`repro._lazy`): the ring runs
the validate family and never loads :mod:`~repro.ft.ulfm` or
:mod:`~repro.ft.recovery`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "agreement": ("UnionAgreement", "engine_for"),
    "rank_info": ("RankInfo", "RankState"),
    "recovery": ("RecoveryBlockError", "run_recovery_block"),
    "ulfm": ("comm_agree", "comm_shrink", "icomm_agree"),
    "validate": (
        "comm_validate",
        "comm_validate_clear",
        "comm_validate_rank",
        "rank_state",
    ),
    "validate_all": ("comm_validate_all", "icomm_validate_all"),
})
