"""What a process imports before it runs anything, pinned exactly.

Every ``repro`` command, benchmark child and fleet worker is a new
process, and the modules it imports (and, without a bytecode cache,
compiles) are most of its start-up time.  Packages therefore export
their names lazily (:mod:`repro._lazy`) and optional dependencies load
in the call that needs them.  These gates hold that, each in a fresh
interpreter, so nothing the test session imported leaks in:

* the benchmark adapter's seven imports load at most
  :data:`ADAPTER_MODULES` ``repro`` modules (the measured count), and
  neither they nor a 4-rank ring run load any module of
  :data:`NOT_FOR_A_RING` (``sqlite3`` and the sockets, the fleet, the
  span and telemetry exporters, the keys and the digest, the
  nonblocking collectives, the ULFM and recovery-block layers, the
  root-failure driver);
* a ring under ``Termination.IBARRIER`` still loads the nonblocking
  collectives through :mod:`repro.simmpi`'s lazy export, and completes;
* ``import repro.cli`` loads no command code and no kernel: exactly
  :data:`CLI_MODULES` ``repro`` modules;
* every lazy package resolves each name of ``__all__`` to the object
  its submodule defines, lists them in ``dir()``, binds them all on
  ``from pkg import *`` and names itself in an unknown name's error;
* the forked workers of a pooled sweep — plain, cached with every job
  a miss, recording spans, and writing telemetry — import nothing the
  parent did not already have: what they run is imported where the
  sweep is set up, not compiled again in every round;
* a span-recording pooled sweep loads no telemetry writer, in the
  parent or the workers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The ``repro`` modules the adapter's imports load (64 before packages
#: exported lazily, 57 before the modules of :data:`NOT_FOR_A_RING` from
#: ``repro.obs.spans`` on were deferred).  A change that adds one must
#: lower it elsewhere or raise this bound on purpose.
ADAPTER_MODULES = 49

ADAPTER_IMPORTS = """
from repro import perf
from repro.cache import RunCache
from repro.core import RingConfig, RingVariant, Termination, make_ring_main
from repro.faults import run_campaign
from repro.parallel import RingScenario, StandardRingInvariants, make_runner
from repro.protocols import run_compare_protocols
from repro.simmpi import Simulation
"""

STDLIB_EXTRAS = ("sqlite3", "socket", "socketserver", "multiprocessing")

#: Code a ring run never executes.
NOT_FOR_A_RING = STDLIB_EXTRAS + (
    "repro.parallel.remote",
    "repro.cache.sqlite_store",
    "repro.obs.export",
    "repro.obs.metrics",
    "repro.faults.explorer",
    "repro.protocols.shrink_repair",
    "repro.protocols.replication",
    "repro.protocols.partial_restart",
    "repro.obs.spans",
    "repro.obs.telemetry",
    "repro.obs.records",
    "repro.cache.keys",
    "repro.analysis.digest",
    "repro.simmpi.nbcoll",
    "repro.ft.ulfm",
    "repro.ft.recovery",
    "repro.core.rootft",
)

LAZY_PACKAGES = (
    "repro.analysis",
    "repro.cache",
    "repro.core",
    "repro.faults",
    "repro.ft",
    "repro.obs",
    "repro.parallel",
    "repro.protocols",
    "repro.simmpi",
)

REPORT = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


def fresh(code: str) -> list:
    """Run *code* in a new interpreter; its last stdout line, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def lines_of(module: str) -> int:
    """Source lines of ``repro`` module *module*."""
    path = SRC.joinpath(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    return len(path.read_text().splitlines())


def closure_listing(modules: list[str]) -> str:
    """*modules* largest first, each with its source lines: a closure
    over its pin names the modules worth deferring."""
    sized = sorted(((lines_of(m), m) for m in modules), reverse=True)
    return "\n".join([
        f"{len(modules)} repro modules (pin {ADAPTER_MODULES}), "
        f"{sum(n for n, _ in sized)} lines, largest first:",
        *(f"{n:6d}  {m}" for n, m in sized),
    ])


def test_adapter_imports_load_at_most_the_measured_modules():
    loaded = fresh(ADAPTER_IMPORTS + REPORT)
    mine = [m for m in loaded if m == "repro" or m.startswith("repro.")]
    assert len(mine) <= ADAPTER_MODULES, closure_listing(mine)
    assert sorted(set(NOT_FOR_A_RING) & set(loaded)) == []


def test_the_closure_listing_names_each_module_with_its_lines():
    listing = closure_listing(["repro.obs", "repro.simmpi.runtime"]).splitlines()
    assert listing[0].startswith("2 repro modules (pin ")
    assert [line.split() for line in listing[1:]] == [
        [str(lines_of("repro.simmpi.runtime")), "repro.simmpi.runtime"],
        [str(lines_of("repro.obs")), "repro.obs"],
    ]
    assert lines_of("repro.simmpi.runtime") > lines_of("repro.obs") > 0


RING_RUN = """
from repro.core import RingConfig, Termination, make_ring_main
from repro.simmpi import Simulation
for name in {terminations!r}:
    cfg = RingConfig(max_iter=3, termination=Termination[name])
    result = Simulation(nprocs=4).run(make_ring_main(cfg))
    assert len(result.value(0)['root_completions']) == 3, result.value(0)
"""


def test_a_ring_run_loads_no_sweep_cache_or_protocol_code():
    loaded = fresh(
        RING_RUN.format(terminations=["ROOT_BCAST", "VALIDATE_ALL"]) + REPORT
    )
    assert sorted(set(NOT_FOR_A_RING) & set(loaded)) == []


def test_an_ibarrier_ring_loads_the_nonblocking_collectives_on_use():
    loaded = fresh(RING_RUN.format(terminations=["IBARRIER"]) + REPORT)
    assert sorted(set(NOT_FOR_A_RING) & set(loaded)) == ["repro.simmpi.nbcoll"]


#: The ``repro`` modules ``import repro.cli`` loads (33 while the
#: parser's two enums came from :mod:`repro.core.ring`): the package,
#: the lazy-export helper, the CLI, and ``repro.core`` with the module
#: that defines ``RingVariant`` and ``Termination``.
CLI_MODULES = 5


def test_importing_the_cli_loads_no_command_code():
    loaded = fresh("import repro.cli\n" + REPORT)
    assert sorted(set(loaded) & {
        "repro.faults.explorer",
        "repro.analysis.spacetime",
        "repro.cache.sqlite_store",
        "sqlite3",
        "repro.protocols.shrink_repair",
        "repro.protocols.replication",
        "repro.protocols.partial_restart",
        "repro.core.ring",
        "repro.simmpi.runtime",
        "repro.ft.agreement",
    }) == []
    mine = [m for m in loaded if m == "repro" or m.startswith("repro.")]
    assert len(mine) == CLI_MODULES, mine


CHECK_PACKAGE = """
import importlib, json, sys
from repro._lazy import TABLES

pkg = importlib.import_module(PACKAGE)
where = TABLES[PACKAGE]
problems = []
names = list(pkg.__all__)
# Before any name loads: dir() lists them all.
problems += [f"not in dir(): {n}" for n in names if n not in dir(pkg)]
problems += [f"lazy but not public: {n}" for n in where if n not in names]
# The star import resolves every lazy name through __getattr__.
star = {}
exec(f"from {PACKAGE} import *", star)
for name in names:
    if name not in star:
        problems.append(f"not bound by import *: {name}")
        continue
    sub = where.get(name)
    if sub is None:  # imported with the package
        continue
    module = sys.modules[f"{PACKAGE}.{sub}"]
    expected = module if name == sub else getattr(module, name)
    if star[name] is not expected or vars(pkg).get(name) is not expected:
        problems.append(f"{name} is not {PACKAGE}.{sub}'s")
try:
    getattr(pkg, "no_such_name")
    problems.append("an unknown name resolved")
except AttributeError as exc:
    if PACKAGE not in str(exc) or exc.name != "no_such_name":
        problems.append(f"unknown name error: {exc!r}")
print(json.dumps(problems))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_exports_what_its_submodules_define(package):
    assert fresh(f"PACKAGE = {package!r}\n" + CHECK_PACKAGE) == []


def test_every_lazy_package_is_checked():
    code = "".join(f"import {p}\n" for p in LAZY_PACKAGES) + (
        "import json\nfrom repro._lazy import TABLES\n"
        "print(json.dumps(sorted(TABLES)))\n"
    )
    assert fresh(code) == sorted(LAZY_PACKAGES)


POOLED = """
import json, os, sys, tempfile
from dataclasses import dataclass

from repro.faults import run_campaign
from repro.parallel import (
    AppScenario, FleetRunner, GenericInvariants, RingScenario,
    StandardRingInvariants,
)
from repro.protocols import run_compare_protocols

AT_FORK = set()
os.register_at_fork(after_in_child=lambda: AT_FORK.update(sys.modules))
IMPORTED = set()


@dataclass(frozen=True)
class Imported:
    job: object

    def __call__(self):
        return self.job(), sorted(set(sys.modules) - AT_FORK)


class Reporting(FleetRunner):
    # Forks its workers as usual; their jobs also say what they imported.

    def _execute(self, jobs, indices):
        out = super()._execute([Imported(job) for job in jobs], indices)
        for _value, names in out:
            IMPORTED.update(names)
        return [value for value, _names in out]


def campaign(factory=RingScenario(nprocs=6, iters=3),
             invariants=StandardRingInvariants(3, 6), **kwargs):
    return run_campaign(
        factory, seeds=range(4), horizon=2e-5, invariants=invariants,
        runner=Reporting(workers=2), **kwargs,
    )


assert campaign().total == 4
# A cold store: every job misses, and the workers build the payloads.
with tempfile.TemporaryDirectory() as tmp:
    assert campaign(cache=tmp).total == 4
assert campaign(AppScenario(app="heat1d", nprocs=4), GenericInvariants()).total == 4
report = run_compare_protocols(  # every protocol family
    nprocs=4, iters=3, seeds=[1], horizon=2e-5, runner=Reporting(workers=2)
)
assert len(report.records) == 8

from repro.obs.spans import SpanRecorder, recording

with recording(SpanRecorder()) as recorder:  # the workers record spans
    assert campaign().total == 4
assert sum(span.cat == "job" for span in recorder.spans) == 4
# Spans alone load no telemetry writer, here or (IMPORTED) in a worker.
SPANS_LOADED_TELEMETRY = "repro.obs.telemetry" in sys.modules

with tempfile.TemporaryDirectory() as tmp:  # the sweep's own recorder
    assert campaign(telemetry=os.path.join(tmp, "t.jsonl")).total == 4
print(json.dumps([sorted(IMPORTED), SPANS_LOADED_TELEMETRY]))
"""


def test_forked_workers_import_nothing_the_parent_lacks():
    assert fresh(POOLED) == [[], False]
