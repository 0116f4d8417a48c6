"""Border Control — the paper's primary contribution.

The core package implements the hardware proposed in the paper:

* :class:`~repro.core.permissions.Perm` — read/write permission flags.
* :class:`~repro.core.protection_table.ProtectionTable` — the flat,
  physically indexed 2-bits-per-page table resident in simulated physical
  memory, with base and bounds registers (paper §3.1.1, Fig. 2).
* :class:`~repro.core.bcc.BorderControlCache` — the sub-blocked cache of
  the Protection Table (64 entries x 128 B = 8 KB by default; §3.1.2).
* :class:`~repro.core.border_control.BorderControl` — the checking engine
  at the trusted/untrusted border, implementing every event of Fig. 3:
  process initialization, Protection Table insertion, memory-request
  checks, memory-mapping updates (permission downgrades), and process
  completion; plus multiprocess union permissions (§3.3) and large pages
  (§3.4.4).
* :class:`~repro.core.sandbox.SandboxManager` — OS-facing lifecycle
  helper tying accelerators, processes, and Border Control together.
"""

from repro import _lazy

_EXPORTS, __getattr__, __dir__ = _lazy(__name__, (
    ("repro.core.permissions", "PERM_NONE PERM_R PERM_RW PERM_W Perm"),
    ("repro.core.protection_table", "ProtectionTable"),
    ("repro.core.sparse_table", "SparseProtectionTable"),
    ("repro.core.bcc", "BCCConfig BorderControlCache"),
    ("repro.core.border_control", "AccessDecision BorderControl "
                                  "ViolationRecord"),
    ("repro.core.sandbox", "SandboxManager"),
))

__all__ = sorted(_EXPORTS)
