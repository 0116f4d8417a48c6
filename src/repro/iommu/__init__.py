"""IOMMU-side infrastructure: the ATS, full-IOMMU checking, CAPI front end.

Accelerators cannot walk page tables themselves; they rely on the Address
Translation Service (ATS), usually provided by the IOMMU (paper §2.3).
This package implements:

* :class:`~repro.iommu.ats.ATS` — translation requests from accelerator
  TLB misses: trusted shared L2 TLB, hardware page walks through the real
  page table in simulated memory, and the Protection Table insertion hook
  (paper Fig. 3b).
* :class:`~repro.iommu.iommu.FullIOMMUPath` — the safe-but-slow
  configuration where *every* accelerator request is translated and
  checked at the IOMMU and no accelerator caches exist (Table 2).
* :class:`~repro.iommu.capi.CAPILikePath` — trusted cache + TLB front end
  modeled on IBM CAPI: safety by keeping all physical addressing in
  trusted hardware, at the cost of cache proximity.
"""

from repro.iommu.ats import ATS, ATSConfig
from repro.iommu.iommu import FullIOMMUPath, IOMMUViolation
from repro.iommu.capi import CAPILikePath

__all__ = [
    "ATS",
    "ATSConfig",
    "CAPILikePath",
    "FullIOMMUPath",
    "IOMMUViolation",
]
