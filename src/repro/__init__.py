"""Border Control: Sandboxing Accelerators — a full-system reproduction.

This library reimplements the system of Olson, Power, Hill & Wood,
*Border Control: Sandboxing Accelerators* (MICRO-48, 2015): a hardware
sandboxing mechanism that guarantees untrusted accelerators respect the
OS's page-table permissions, implemented as a per-accelerator Protection
Table in physical memory plus a small Border Control Cache.

Quick start::

    from repro import SafetyMode, GPUThreading, run_single

    baseline = run_single("bfs", SafetyMode.ATS_ONLY)
    protected = run_single("bfs", SafetyMode.BC_BCC)
    print(protected.ticks / baseline.ticks - 1.0)  # ~1% overhead

Layers (see DESIGN.md for the full inventory):

* :mod:`repro.core` — the paper's contribution: Protection Table, BCC,
  Border Control engine, sandbox lifecycle.
* :mod:`repro.mem`, :mod:`repro.vm`, :mod:`repro.osmodel`,
  :mod:`repro.iommu`, :mod:`repro.accel` — the simulated substrate:
  memory hierarchy, virtual memory, OS kernel, IOMMU/ATS, GPU.
* :mod:`repro.sim` — discrete-event kernel, configurations, runner.
* :mod:`repro.workloads` — Rodinia-proxy trace generators.
* :mod:`repro.experiments`, :mod:`repro.analysis` — the paper's tables
  and figures, regenerated.

Every name below is imported on first access (PEP 562), so
``from repro import run_single`` loads the simulator alone and none of
the host layers (supervisor, sweep, journal, service, fleet).
"""

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple

__version__ = "1.0.0"


def _lazy(
    package: str, table: Sequence[Tuple[str, str]]
) -> Tuple[Dict[str, str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(exports, __getattr__, __dir__)`` for ``package`` (PEP 562).

    ``table`` lists ``(module, "Name Name ...")`` rows; ``exports`` maps
    each public name to the module that defines it, and ``__getattr__``
    imports that module the first time the name is read, so importing
    one submodule of the package loads none of its siblings.
    """
    exports = {name: module for module, names in table for name in names.split()}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        namespace[name] = value  # later reads skip this hook
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return exports, __getattr__, __dir__


_EXPORTS, __getattr__, __dir__ = _lazy(__name__, (
    ("repro.core", "AccessDecision BCCConfig BorderControl BorderControlCache "
     "Perm ProtectionTable SandboxManager ViolationRecord"),
    ("repro.errors", "AcceleratorDisabledError AcceleratorHangError "
     "BorderControlViolation BorderTimeoutError ConfigurationError PageFault "
     "ProtectionFault ReproError SimulationIncompleteError SweepError "
     "TransientCellError UnmappedAddressError"),
    ("repro.faults", "FaultKind FaultPlan FaultSpec FaultyPort "
     "HangingAccelerator RecordingPort ReplayBuffer"),
    ("repro.chaos", "ChaosReport ChaosRunResult run_chaos_campaign "
     "run_chaos_single"),
    ("repro.recovery", "RecoveryManager RecoveryPolicy RecoveryReport "
     "RecoveryRunResult run_recovery_campaign run_recovery_single"),
    ("repro.sim.config", "GPUThreading SafetyMode SystemConfig TimingParams"),
    ("repro.sim.runner", "RunResult geometric_mean run_single runtime_overhead"),
    ("repro.sim.system", "System"),
    ("repro.journal", "RunJournal journal_dir list_runs new_run_id"),
    ("repro.osmodel", "Kernel Process ViolationPolicy"),
    ("repro.supervisor", "SupervisorPolicy SupervisorStats supervised_map"),
    ("repro.sweep", "Cell SweepReport run_sweep verify_identical"),
    ("repro.workloads", "WORKLOADS WorkloadSpec generate_trace"),
))

__all__ = sorted(_EXPORTS) + ["__version__"]
