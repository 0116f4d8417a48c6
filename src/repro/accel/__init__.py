"""Accelerator models.

* :class:`~repro.accel.base.AcceleratorBase` — the kernel-facing protocol
  every accelerator implements (attach/detach, shootdown, cache flush,
  disable).
* :class:`~repro.accel.gpu.GPU` — the paper's evaluation vehicle: a
  GPGPU with compute units and wavefronts replaying workload traces
  (highly threaded: 8 CUs; moderately threaded: 1 CU — Table 3).
* :mod:`~repro.accel.paths` — the cached memory path that realizes three
  configurations of Table 2 (ATS-only, and Border Control with or without
  a BCC); the full-IOMMU and CAPI-like paths are in :mod:`repro.iommu`.
* :mod:`~repro.accel.faulty` — buggy and malicious accelerators used to
  demonstrate the threat model: hardware trojans scanning physical
  memory, stale-TLB bugs, wild writes, and flush-ignoring caches.
"""

from repro import _lazy

_EXPORTS, __getattr__, __dir__ = _lazy(__name__, (
    ("repro.accel.base", "AcceleratorBase"),
    ("repro.accel.gpu", "GPU GPUGeometry KernelTrace"),
    ("repro.accel.paths", "CachedHierarchyPath"),
    ("repro.accel.stream", "StreamAccelerator"),
    ("repro.accel.faulty", "FlushIgnoringGPU MaliciousEngine "
                           "StaleTLBAccelerator WildWriteAccelerator"),
))

__all__ = sorted(_EXPORTS)
