#!/usr/bin/env python
"""The threat model, live: three attacks, with and without Border Control.

Recreates the scenarios of paper §2.1 on a simulated system:

1. **Hardware trojan** — an accelerator with arbitrary logic fabricates
   physical addresses and scans memory for another process's secrets,
   then tries to corrupt OS page tables.
2. **Stale-TLB bug** — an accelerator whose TLB-shootdown logic is broken
   keeps using a translation after the OS unmapped the page (the AMD
   Phenom erratum class).
3. **Ignored flush** — an accelerator that refuses the OS's cache-flush
   request on a permission downgrade; its dirty writebacks are blocked at
   the border instead.
4. **Hardware hang** — an accelerator that wedges mid-kernel (a stuck
   DMA engine). A watchdog notices the stall, the OS quarantines the
   device (disable + sandbox downgrade + timed re-enable), and the
   sandbox's invariants hold throughout the failure and the recovery.

Run:  python examples/sandboxing_attacks.py
"""

from repro import GPUThreading, Perm, SafetyMode, SystemConfig, System
from repro.accel.faulty import MaliciousEngine, StaleTLBAccelerator
from repro.mem.address import BLOCK_SIZE, PAGE_SHIFT, PAGE_SIZE

MEM = 256 * 1024 * 1024


def build(safety: SafetyMode) -> System:
    return System(
        SystemConfig(
            safety=safety,
            threading=GPUThreading.MODERATELY,
            phys_mem_bytes=MEM,
        )
    )


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def attack_trojan(safety: SafetyMode) -> None:
    system = build(safety)
    victim = system.new_process("banking-app")
    secret_vaddr = system.kernel.mmap(victim, 1, Perm.RW)
    system.kernel.proc_write(victim, secret_vaddr, b"AES-KEY:0xDEADBEEFCAFE")
    secret_ppn = victim.page_table.translate(secret_vaddr).ppn

    attacker = system.new_process("video-decoder")  # looks harmless (§2.1)
    system.attach_process(attacker)
    border = system.border_port if system.border_port else system.memctl
    trojan = MaliciousEngine(system.engine, border)

    stolen = trojan.read_phys(secret_ppn << PAGE_SHIFT)
    print(f"[{safety.label}] trojan reads victim page -> ", end="")
    if stolen and b"AES-KEY" in stolen:
        print(f"LEAKED: {stolen[:22]!r}")
    else:
        print("BLOCKED (no data crossed the border)")

    root = attacker.page_table.root_ppn << PAGE_SHIFT
    corrupted = trojan.write_phys(root, b"\xff" * BLOCK_SIZE)
    print(
        f"[{safety.label}] trojan writes the page-table root -> "
        + ("CORRUPTED — system owned" if corrupted else "BLOCKED")
    )
    if system.border_control and system.border_control.violations:
        print(f"   OS was notified: {system.border_control.violations[0].describe()}")


def attack_stale_tlb(safety: SafetyMode) -> None:
    system = build(safety)
    proc = system.new_process("workload")
    system.attach_process(proc)
    vaddr = system.kernel.mmap(proc, 1, Perm.RW)
    border = system.border_port if system.border_port else system.memctl
    buggy = StaleTLBAccelerator(system.engine, system.ats, border)
    system.kernel.attach_accelerator(proc, buggy, sandboxed=False)
    system.ats.allow(buggy.accel_id, proc.asid)
    if system.border_control:
        system.ats.attach_border_control(buggy.accel_id, system.border_control)

    buggy.access_virtual(proc.asid, vaddr, write=False)  # caches translation
    system.kernel.munmap(proc, vaddr)  # OS frees the page; shootdown ignored
    # The freed frame may be reallocated to anyone — a stale access now
    # reads another owner's data on an unprotected system.
    other = system.new_process("next-owner")
    other_vaddr = system.kernel.mmap(other, 1, Perm.RW)
    system.kernel.proc_write(other, other_vaddr, b"someone else's data")

    leaked = buggy.access_virtual(proc.asid, vaddr, write=False)
    print(
        f"[{safety.label}] stale-TLB access after munmap -> "
        + ("LEAKED stale frame contents" if leaked is not None else "BLOCKED")
    )


def attack_ignored_flush() -> None:
    system = build(SafetyMode.BC_BCC)
    proc = system.new_process("workload")
    system.attach_process(proc)
    vaddr = system.kernel.mmap(proc, 1, Perm.RW)
    ppn = proc.page_table.translate(vaddr).ppn

    # The GPU legitimately dirties a cache line...
    system.engine.run_process(
        system.ats.translate("gpu0", proc.asid, vaddr >> PAGE_SHIFT)
    )
    system.engine.run_process(
        system.gpu.path.mem_op(0, proc.asid, vaddr, True, b"dirty" * 25 + b"xyz")
    )
    # ...then the permission is downgraded. Pretend the flush request was
    # ignored by clearing nothing: we simply downgrade the sandbox directly.
    system.border_control.downgrade_all()
    print("[Border Control-BCC] accelerator ignored the flush request...")

    written = system.engine.run_process(system.gpu_l2.flush_all())
    blocked = [v for v in system.border_control.violations if v.write]
    print(
        f"   later writeback of {written} dirty line(s): "
        f"{len(blocked)} blocked at the border; memory unchanged: "
        f"{system.phys.read(ppn << PAGE_SHIFT, 5) == bytes(5)}"
    )
    print("   (paper §3.2.4: ignoring the flush loses data inside the sandbox,")
    print("    but never violates host memory integrity)")


def attack_hardware_hang() -> None:
    from repro import FaultKind, run_chaos_single

    run = run_chaos_single(
        "bfs",
        [FaultKind.HANG],
        seed=42,
        ops_scale=0.25,
        config=SystemConfig(phys_mem_bytes=MEM),
    )
    r = run.result
    print(
        f"[Border Control-BCC] accelerator wedged mid-kernel "
        f"(after {r.mem_ops} of {run.trace_ops} ops)"
    )
    print(
        f"   watchdog fired {r.watchdog_fires}x, released "
        f"{run.hangs_released} hung access(es), quarantined the device "
        f"{r.quarantines}x"
    )
    print(
        f"   kernel terminated: {run.completed}; probes of the victim page: "
        f"{run.probes} ({run.conf_escapes} reads leaked, "
        f"{run.integ_escapes} writes committed)"
    )
    print(f"   victim page intact after recovery: {run.secret_intact}")
    print("   (the sandbox held through the hang, the quarantine, and the")
    print("    device's timed re-admission — no invariant depends on the")
    print("    accelerator behaving)")


def main() -> None:
    banner("Attack 1: hardware trojan scanning physical memory")
    attack_trojan(SafetyMode.ATS_ONLY)
    attack_trojan(SafetyMode.BC_BCC)

    banner("Attack 2: stale TLB after shootdown (AMD-Phenom-class bug)")
    attack_stale_tlb(SafetyMode.ATS_ONLY)
    attack_stale_tlb(SafetyMode.BC_BCC)

    banner("Attack 3: accelerator ignores the downgrade flush")
    attack_ignored_flush()

    banner("Attack 4: accelerator hangs mid-kernel (chaos + quarantine)")
    attack_hardware_hang()


if __name__ == "__main__":
    main()
