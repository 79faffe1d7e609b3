"""repro — a reproduction of Hursey & Graham, *Building a Fault Tolerant
MPI Application: A Ring Communication Example* (DPDNS/IPDPS-W 2011).

Layered packages (see DESIGN.md for the full inventory):

* :mod:`repro.simmpi` — deterministic discrete-event simulated MPI with
  fail-stop failures, a perfect failure detector, and deadlock (hang)
  detection.
* :mod:`repro.ft` — the run-through stabilization interface of the MPI
  Forum FT Working Group proposal (paper Fig. 1), including a real
  fault-tolerant consensus behind ``MPI_Comm_validate_all``.
* :mod:`repro.core` — the paper's fault-tolerant ring in every design
  stage (baseline, naive, no-marker, marker, tagged; both termination
  schemes; §III-D root-failure tolerance).
* :mod:`repro.faults` — deterministic fault injection, randomized
  campaigns, and exhaustive failure-window exploration (§III-E).
* :mod:`repro.apps` — heat diffusion, ring allreduce, manager/worker.
* :mod:`repro.analysis` — invariants, statistics, table formatting.

Quickstart::

    from repro.simmpi import Simulation
    from repro.core import RingConfig, Termination, make_ring_main
    from repro.faults import KillAtProbe

    sim = Simulation(nprocs=8)
    sim.add_injector(KillAtProbe(rank=3, probe="post_recv", hit=2))
    cfg = RingConfig(max_iter=10, termination=Termination.VALIDATE_ALL)
    result = sim.run(make_ring_main(cfg))
    print(result.value(0)["root_completions"])
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
