"""The trusted operating system model.

Border Control "builds upon the existing process abstraction, using the
permissions set by the OS as stored in the page table" (paper §1). This
package provides that OS: processes with real page tables, mmap/munmap/
mprotect, copy-on-write forks, swapping, TLB shootdowns that fan out to
accelerators, and the violation-handling policies of §3.2.3 (terminate
the process or disable the accelerator).
"""

from repro import _lazy

_EXPORTS, __getattr__, __dir__ = _lazy(__name__, (
    ("repro.osmodel.process", "Process ProcessState"),
    ("repro.osmodel.kernel", "Kernel ViolationPolicy"),
    ("repro.osmodel.scheduler", "RoundRobinScheduler"),
    ("repro.osmodel.vmm", "VMM GuestPartition"),
))

__all__ = sorted(_EXPORTS)
