"""Shared fixtures for the test suite.

Hypothesis configuration is centralized here: every property-based test
inherits the active ci/dev/nightly profile from
:mod:`repro.verify.profiles` instead of carrying inline ``settings``.
Select with ``HYPOTHESIS_PROFILE=nightly pytest …``; CI environments
(``$CI`` set) default to the derandomized ``ci`` profile. Tests that
need a different budget scale the profile via
:func:`tests.util.profile_settings`.

Process hygiene is checked here too. The host's shared worker pool is
shut down after every test, so each test forks its pool workers from
its own state (monkeypatches included) and leaves none behind. At the
end of the session, no process the session started may still be alive.
"""

from __future__ import annotations

import multiprocessing.resource_tracker
import os
import time

import pytest

from repro.core.bcc import BCCConfig
from repro.mem.phys_memory import PhysicalMemory
from repro.osmodel.kernel import Kernel, ViolationPolicy
from repro.sim.engine import Engine
from repro.supervisor import shared_pool
from repro.verify.profiles import load_profile
from repro.vm.frame_allocator import FrameAllocator

from tests.util import MEM_128M

HYPOTHESIS_PROFILE = load_profile()

#: Inherited by every process the session execs (and their forks), so
#: the session-end check can find the ones still alive.
_SESSION_MARK = f"REPRO_TEST_SESSION={os.getpid()}-{os.urandom(4).hex()}"
os.environ["REPRO_TEST_SESSION"] = _SESSION_MARK.split("=", 1)[1]

#: How long processes the session started get to exit after it ends.
_EXIT_GRACE_SECONDS = 10.0


def _stat(pid: str):
    """``(state, ppid)`` from ``/proc/<pid>/stat``, or None once gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
    except (OSError, ValueError):
        return None
    return state, int(ppid)


def _session_processes():
    """Live processes this session started, as ``{pid: command line}``.

    That is every process carrying the session mark in its initial
    environment, plus every descendant of this one: a child forked
    without an ``exec`` keeps this process's initial environment, which
    predates the mark. The multiprocessing resource tracker is left
    out; it exits with this process.
    """
    me = os.getpid()
    tracker = multiprocessing.resource_tracker._resource_tracker._pid
    parents, found = {}, set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        stat = _stat(pid)
        if stat is None or stat[0] in ("Z", "X"):
            continue
        parents[int(pid)] = stat[1]
        try:
            with open(f"/proc/{pid}/environ", "rb") as fh:
                if _SESSION_MARK.encode() in fh.read().split(b"\0"):
                    found.add(int(pid))
        except OSError:
            pass
    for pid in parents:
        ancestor = parents[pid]
        while ancestor in parents and ancestor != me:
            ancestor = parents[ancestor]
        if ancestor == me:
            found.add(pid)
    found -= {me, tracker}
    commands = {}
    for pid in sorted(found):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                commands[pid] = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            pass
    return commands


@pytest.fixture(autouse=True)
def _fresh_shared_pool():
    yield
    shared_pool.shutdown()


@pytest.fixture(scope="session", autouse=True)
def _no_process_outlives_the_session():
    yield
    if not os.path.isdir("/proc"):
        return
    deadline = time.monotonic() + _EXIT_GRACE_SECONDS
    while (alive := _session_processes()) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not alive, f"processes this test session started are still alive: {alive}"


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def phys() -> PhysicalMemory:
    return PhysicalMemory(MEM_128M)


@pytest.fixture
def allocator(phys) -> FrameAllocator:
    return FrameAllocator(phys)


@pytest.fixture
def kernel(phys) -> Kernel:
    return Kernel(phys, violation_policy=ViolationPolicy.LOG_ONLY)


@pytest.fixture
def bcc_config() -> BCCConfig:
    return BCCConfig(num_entries=8, pages_per_entry=32)
