"""Memory-system substrate: physical memory, DRAM timing, caches, coherence.

These are the trusted-side building blocks the paper assumes: a physical
address space with real backing data, a bandwidth-limited DRAM model, set-
associative caches with write-back/write-through policies, and a MOESI
coherence layer that enforces the Border Control cache-organization
invariant (paper §3.4.3).
"""

from repro import _lazy

_EXPORTS, __getattr__, __dir__ = _lazy(__name__, (
    ("repro.mem.address", "BLOCK_SIZE PAGE_SIZE LARGE_PAGE_SIZE "
                          "align_down align_up block_of is_page_aligned "
                          "page_offset pages_spanned ppn_of vpn_of"),
    ("repro.mem.cache", "Cache CacheConfig Line"),
    ("repro.mem.coherence", "CoherenceController CoherenceError State"),
    ("repro.mem.dram", "DRAM DRAMConfig"),
    ("repro.mem.phys_memory", "PhysicalMemory"),
))

__all__ = sorted(_EXPORTS)
