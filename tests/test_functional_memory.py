"""Equivalence tests for the functional memory fast paths.

Each fast path is checked against a reference that does the same job the
slow, obvious way:

* ``PhysicalMemory``'s single-frame accessors against a flat bytearray;
* ``Kernel.mmap`` (leaf-at-a-time ``PageTable.map_pages`` over
  ``FrameAllocator.alloc_run``) against a per-page ``PageTable.map``
  loop over ``FrameAllocator.alloc``, down to every physical address,
  across used frames and onto an already-mapped page;
* ``Perm``'s integer-bit methods against IntFlag arithmetic.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.permissions import PERM_BY_BITS, Perm
from repro.core.protection_table import ProtectionTable
from repro.errors import MemoryError_, UnmappedAddressError
from repro.mem.address import PAGE_SHIFT, PAGE_SIZE
from repro.mem.phys_memory import PhysicalMemory
from repro.osmodel.kernel import Kernel
from repro.vm.frame_allocator import FrameAllocator, OutOfFramesError
from repro.vm.page_table import _decode_perms, _encode

from tests.util import profile_settings

# -- (a) PhysicalMemory against a flat bytearray ---------------------------------

FRAMES = 4
SIZE = FRAMES * PAGE_SIZE
U64_MASK = (1 << 64) - 1


class FlatMemory:
    """Reference model: one bytearray, bounds checked the documented way,
    plus the set of frames that would hold backing store."""

    def __init__(self, size):
        self.size = size
        self.data = bytearray(size)
        self.frames = set()

    def _check(self, paddr, length):
        if length < 0:
            raise ValueError("negative access length")
        if paddr < 0 or paddr + max(1, length) > self.size:
            raise UnmappedAddressError("beyond top of memory")

    def read(self, paddr, length):
        self._check(paddr, length)
        return bytes(self.data[paddr : paddr + length])

    def write(self, paddr, data):
        self._check(paddr, len(data))
        self.data[paddr : paddr + len(data)] = data
        if data:
            last = (paddr + len(data) - 1) >> PAGE_SHIFT
            self.frames.update(range(paddr >> PAGE_SHIFT, last + 1))

    def read_u64(self, paddr):
        return int.from_bytes(self.read(paddr, 8), "little")

    def write_u64(self, paddr, value):
        self.write(paddr, (value & U64_MASK).to_bytes(8, "little"))

    def zero_range(self, paddr, length):
        self._check(paddr, length)
        self.data[paddr : paddr + length] = bytes(length)
        first_whole = -(-paddr // PAGE_SIZE)
        self.frames.difference_update(range(first_whole, (paddr + length) // PAGE_SIZE))


# Addresses cluster around frame boundaries and the top of memory, where
# the single-frame test and the bounds check meet.
boundary = st.sampled_from([k * PAGE_SIZE for k in range(FRAMES + 1)])
delta = st.one_of(st.sampled_from([-9, -8, -7, -1, 0, 1, 7]), st.integers(-130, 130))
address = st.one_of(
    st.builds(lambda base, d: base + d, boundary, delta),
    st.integers(-PAGE_SIZE, SIZE + PAGE_SIZE),
)
length = st.one_of(
    st.sampled_from([0, 1, 8, 128, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1]),
    st.integers(-2, 2 * PAGE_SIZE + 2),
)
data = st.one_of(st.binary(max_size=16), st.binary(max_size=PAGE_SIZE + 200))
access = st.one_of(
    st.tuples(st.just("read"), address, length),
    st.tuples(st.just("write"), address, data),
    st.tuples(st.just("read_u64"), address),
    st.tuples(st.just("write_u64"), address, st.integers(-(2**70), 2**70)),
    st.tuples(st.just("zero_range"), address, length),
)


def _outcome(memory, op, args):
    try:
        return "ok", getattr(memory, op)(*args)
    except Exception as exc:  # compared by type against the reference
        return "raised", type(exc)


def _prefilled_pair():
    """Both memories, with frames 1 and 3 holding data so an access that
    drops or misplaces bytes shows; frames 0 and 2 have no backing store."""
    pair = PhysicalMemory(SIZE), FlatMemory(SIZE)
    pattern = bytes(range(1, 256)) * 17
    for memory in pair:
        memory.write(PAGE_SIZE, pattern[:PAGE_SIZE])
        memory.write(3 * PAGE_SIZE, pattern[7 : 7 + PAGE_SIZE])
    return pair


def _assert_same(phys, flat, accesses):
    for op, *args in accesses:
        assert _outcome(phys, op, args) == _outcome(flat, op, args), (op, args)
    assert phys.read(0, SIZE) == bytes(flat.data)
    assert {frame for frame, _ in phys.touched_frames()} == flat.frames


@profile_settings(scale=4)
@given(accesses=st.lists(access, min_size=1, max_size=60))
def test_phys_memory_matches_flat_reference(accesses):
    _assert_same(*_prefilled_pair(), accesses)


# The same comparison on each edge of the single-frame test, so none of
# them depends on what Hypothesis draws.
EDGE_ACCESSES = {
    "inside-frame": [("read", PAGE_SIZE + 16, 128), ("write", PAGE_SIZE + 16, b"block")],
    "crossing": [
        ("read", PAGE_SIZE - 64, 128),
        ("write", 2 * PAGE_SIZE - 3, b"abcdef"),
        ("read_u64", PAGE_SIZE - 4),
        ("write_u64", 2 * PAGE_SIZE - 4, 2**64 + 5),
    ],
    "zero-length": [
        ("read", PAGE_SIZE, 0),
        ("write", 2 * PAGE_SIZE, b""),
        ("zero_range", PAGE_SIZE + 5, 0),
    ],
    "last-byte": [
        ("read", SIZE - 1, 1),
        ("write", SIZE - 1, b"z"),
        ("read_u64", SIZE - 8),
        ("write_u64", SIZE - 8, -1),
    ],
    "whole-frame": [("zero_range", PAGE_SIZE, PAGE_SIZE), ("read", 3 * PAGE_SIZE, PAGE_SIZE)],
    "frame-minus-one": [
        ("zero_range", PAGE_SIZE, PAGE_SIZE - 1),
        ("zero_range", 3 * PAGE_SIZE + 1, PAGE_SIZE - 1),
    ],
    "beyond-top": [
        ("read", SIZE, 1),
        ("read", SIZE, 0),
        ("read", SIZE - 1, 2),
        ("write", SIZE, b""),
        ("write", SIZE, b"x"),
        ("read_u64", SIZE),
        ("read_u64", SIZE - 4),
        ("write_u64", SIZE, 1),
        ("zero_range", SIZE - 1, 2),
        ("zero_range", SIZE, 0),
    ],
    "negative": [
        ("read", -1, 1),
        ("read", 0, -1),
        ("write", -1, b"x"),
        ("read_u64", -8),
        ("write_u64", -8, 1),
        ("zero_range", 0, -1),
        ("zero_range", -PAGE_SIZE, 8),
    ],
}


@pytest.mark.parametrize("case", sorted(EDGE_ACCESSES))
def test_phys_memory_edge_cases_match_flat_reference(case):
    _assert_same(*_prefilled_pair(), EDGE_ACCESSES[case])


# -- (b) leaf-at-a-time mmap against a per-page map loop -----------------------------

MEM = 64 * 1024 * 1024


def per_page_mmap(kernel, proc, num_pages):
    """The reference: allocate each data frame, then map it, one page at
    a time, so table nodes are allocated right after the frame of the
    first page that needs them. A failure rolls back as ``mmap`` does."""
    start_vpn = proc.reserve_vpns(num_pages)
    frames = []
    try:
        for i in range(num_pages):
            frames.append(kernel.allocator.alloc())
            proc.page_table.map(start_vpn + i, frames[-1], Perm.RW)
    except MemoryError_:
        kernel._rollback_mmap(proc, start_vpn, frames, 1)
        raise
    return start_vpn


def kernel_mmap(kernel, proc, num_pages):
    return kernel.mmap(proc, num_pages, Perm.RW) >> PAGE_SHIFT


def _take_every_third_frame(kernel, proc, start_vpn):
    """Frames in use past the allocator's hint break the free run from
    it, so the fill falls back to the per-frame scan."""
    allocator = kernel.allocator
    for ppn in [allocator.alloc() for _ in range(900)]:
        if ppn % 3:
            allocator.free(ppn)


def _map_a_page_mid_leaf(kernel, proc, start_vpn):
    """Map page 300 of the range ``mmap`` will reserve, mid-way through
    its second leaf, and leave stale bytes in the free frames after it:
    a frame the fill takes and should not would show up zeroed."""
    proc.page_table.map(start_vpn + 300, kernel.allocator.alloc(), Perm.R)
    hint = kernel.allocator._next_hint
    for ppn in range(hint, hint + 1200):
        kernel.phys.write(ppn << PAGE_SHIFT, b"stale")


def _memory_state(populate, boundary, prepare=None, num_pages=600):
    kernel = Kernel(PhysicalMemory(MEM))
    proc = kernel.create_process("p")
    # An earlier mmap leaves frames and a leaf node in use.
    next_vpn = kernel_mmap(kernel, proc, 3) + 3
    # Start five pages below the next multiple of ``boundary``; reserving
    # the gap lazily costs no frames.
    start_vpn = -(-next_vpn // boundary) * boundary - 5
    kernel.mmap_lazy(proc, start_vpn - next_vpn)
    if prepare is not None:
        prepare(kernel, proc, start_vpn)
    error = None
    try:
        assert populate(kernel, proc, num_pages) == start_vpn
    except MemoryError_ as exc:
        error = str(exc)
    table = proc.page_table
    return {
        "error": error,
        "used": kernel.allocator.snapshot_used(),
        "hint": kernel.allocator._next_hint,
        "nodes": list(table._node_frames),
        "touched": [(frame, bytes(data)) for frame, data in kernel.phys.touched_frames()],
        "translations": [
            table.translate_vpn(vpn) for vpn in range(start_vpn, start_vpn + num_pages)
        ],
    }


MMAP_CASES = {
    "leaf": (512, None),
    "level2": (512 * 512, None),
    "used-frames": (512, _take_every_third_frame),
    "mapped-page": (512, _map_a_page_mid_leaf),
}


@pytest.mark.parametrize("case", list(MMAP_CASES), ids=list(MMAP_CASES))
def test_mmap_matches_per_page_map_loop(case):
    boundary, prepare = MMAP_CASES[case]
    state = _memory_state(kernel_mmap, boundary, prepare)
    assert state == _memory_state(per_page_mmap, boundary, prepare)
    if case == "mapped-page":
        assert state["error"] == f"vpn {state['translations'][300].vpn:#x} already mapped"
    else:
        assert state["error"] is None


def test_map_pages_stops_at_a_mapped_page_like_the_per_page_loop():
    """Before any rollback: the pages up to the mapped one are mapped and
    exactly one frame more is allocated, as the per-page loop leaves it."""
    states = []
    for fill in ("map_pages", "loop"):
        kernel = Kernel(PhysicalMemory(MEM))
        proc = kernel.create_process("p")
        start_vpn = proc.reserve_vpns(40)
        proc.page_table.map(start_vpn + 17, kernel.allocator.alloc(), Perm.R)
        frames = []
        with pytest.raises(MemoryError_, match="already mapped") as raised:
            if fill == "map_pages":
                proc.page_table.map_pages(start_vpn, 40, Perm.RW, frames)
            else:
                for i in range(40):
                    frames.append(kernel.allocator.alloc())
                    proc.page_table.map(start_vpn + i, frames[-1], Perm.RW)
        states.append((
            str(raised.value), frames, kernel.allocator.snapshot_used(),
            kernel.allocator._next_hint,
            [proc.page_table.translate_vpn(start_vpn + i) for i in range(40)],
        ))
    assert states[0] == states[1]
    assert len(states[0][1]) == 18


def test_alloc_run_returns_what_per_frame_allocs_would():
    def allocator_with_holes():
        allocator = FrameAllocator(PhysicalMemory(64 * PAGE_SIZE))
        for ppn in [allocator.alloc() for _ in range(40)]:
            if ppn % 4 == 0 or ppn > 30:
                allocator.free(ppn)
        return allocator

    for count in (0, 1, 5, 20, 40):
        runs, loops = allocator_with_holes(), allocator_with_holes()
        assert list(runs.alloc_run(count)) == [loops.alloc() for _ in range(count)]
        assert runs.snapshot_used() == loops.snapshot_used()
        assert runs._next_hint == loops._next_hint
    allocator = allocator_with_holes()
    used = allocator.snapshot_used()
    with pytest.raises(OutOfFramesError):
        allocator.alloc_run(allocator.free_frames + 1)
    assert allocator.snapshot_used() == used


# -- (c) integer permission bits against IntFlag arithmetic ------------------------------

CANONICAL = (Perm.NONE, Perm.R, Perm.W, Perm.RW)


def test_perm_by_bits_is_canonical():
    for bits, member in enumerate(CANONICAL):
        assert PERM_BY_BITS[bits] is member is Perm(bits)


@pytest.mark.parametrize("a", CANONICAL)
@pytest.mark.parametrize("b", CANONICAL)
def test_union_equals_intflag_or(a, b):
    result = a.union(b)
    assert result == (a | b)
    assert result is Perm(int(a) | int(b))


@pytest.mark.parametrize("perms", CANONICAL)
def test_bit_tests_equal_intflag_arithmetic(perms):
    assert perms.readable is bool(perms & Perm.R)
    assert perms.writable is bool(perms & Perm.W)
    assert perms.allows(False) is bool(perms & Perm.R)
    assert perms.allows(True) is bool(perms & Perm.W)


@pytest.mark.parametrize("perms", CANONICAL)
def test_decode_perms_equals_intflag_arithmetic(perms):
    for large in (False, True):
        pte = _encode(0xABCDE, perms, large=large)
        expected = Perm.NONE
        if pte & 2:
            expected |= Perm.R
        if pte & 4:
            expected |= Perm.W
        assert _decode_perms(pte) is expected is perms


@pytest.mark.parametrize("perms", CANONICAL)
def test_protection_table_get_returns_canonical_member(perms):
    phys = PhysicalMemory(MEM)
    table = ProtectionTable.allocate(phys, FrameAllocator(phys))
    for ppn in (0, 1, 2, 3, 4099):
        table.set(ppn, perms)
        assert table.get(ppn) is perms
