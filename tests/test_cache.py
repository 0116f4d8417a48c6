"""Unit tests for the set-associative cache model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import DRAM, DRAMConfig
from repro.mem.phys_memory import PhysicalMemory
from repro.mem.port import MemoryController, MemoryPort
from repro.sim.engine import Engine
from repro.sim.stats import StatDomain

from tests.util import profile_settings

MB = 1024 * 1024


def build_chain(engine, size=4096, assoc=2, write_back=True, write_allocate=True):
    phys = PhysicalMemory(MB)
    dram = DRAM(engine, DRAMConfig(), StatDomain("dram"))
    memctl = MemoryController(phys, dram)
    cache = Cache(
        engine,
        CacheConfig(
            name="t",
            size_bytes=size,
            associativity=assoc,
            hit_latency_ticks=10,
            write_back=write_back,
            write_allocate=write_allocate,
        ),
        memctl,
        StatDomain("cache"),
    )
    return phys, cache


def access(engine, cache, addr, size, write=False, data=None):
    return engine.run_process(cache.access(addr, size, write, data))


class TestGeometry:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(name="bad", size_bytes=1000, associativity=3, hit_latency_ticks=1)

    def test_sets_and_lines(self):
        cfg = CacheConfig(name="c", size_bytes=4096, associativity=2, hit_latency_ticks=1)
        assert cfg.num_sets == 16
        assert cfg.num_lines == 32

    def test_straddling_access_rejected(self, engine):
        _phys, cache = build_chain(engine)
        with pytest.raises(ConfigurationError):
            access(engine, cache, 100, 64)  # 100+64 > 128


class TestReadPath:
    def test_miss_then_hit(self, engine):
        phys, cache = build_chain(engine)
        phys.write(0x1000, b"payload!")
        assert access(engine, cache, 0x1000, 8) == b"payload!"
        assert cache.misses == 1 and cache.hits == 0
        assert access(engine, cache, 0x1000, 8) == b"payload!"
        assert cache.hits == 1

    def test_hit_latency_vs_miss_latency(self, engine):
        _phys, cache = build_chain(engine)
        t0 = engine.now
        access(engine, cache, 0, 8)
        miss_time = engine.now - t0
        t0 = engine.now
        access(engine, cache, 0, 8)
        hit_time = engine.now - t0
        assert hit_time == 10
        assert miss_time > hit_time

    def test_block_granular_fill(self, engine):
        phys, cache = build_chain(engine)
        phys.write(0x1000, bytes(range(128)))
        access(engine, cache, 0x1010, 8)
        # The whole 128B block was cached; another offset hits.
        assert access(engine, cache, 0x1040, 4) == bytes(range(64, 68))
        assert cache.misses == 1 and cache.hits == 1

    def test_lru_eviction(self, engine):
        _phys, cache = build_chain(engine, size=512, assoc=2)  # 2 sets
        # Set 0 holds blocks at multiples of 256.
        access(engine, cache, 0, 8)
        access(engine, cache, 256, 8)
        access(engine, cache, 0, 8)  # touch 0 -> 256 becomes LRU
        access(engine, cache, 512, 8)  # evicts 256
        assert cache.lookup(0) is not None
        assert cache.lookup(256) is None
        assert cache.lookup(512) is not None


class TestWriteBack:
    def test_write_dirties_line_without_downstream_traffic(self, engine):
        phys, cache = build_chain(engine)
        access(engine, cache, 0x2000, 8, write=True, data=b"AAAABBBB")
        assert phys.read(0x2000, 8) == bytes(8)  # not yet in memory
        assert len(cache.dirty_lines()) == 1

    def test_eviction_writes_back(self, engine):
        phys, cache = build_chain(engine, size=256, assoc=1)  # 2 sets, tiny
        access(engine, cache, 0, 8, write=True, data=b"DIRTYDAT")
        access(engine, cache, 256, 8)  # same set, evicts block 0
        engine.run()  # drain the async writeback
        assert phys.read(0, 8) == b"DIRTYDAT"
        assert cache.writebacks == 1

    def test_flush_all_writes_back_and_invalidates(self, engine):
        phys, cache = build_chain(engine)
        access(engine, cache, 0x100, 8, write=True, data=b"12345678")
        access(engine, cache, 0x300, 8, write=True, data=b"abcdefgh")
        written = engine.run_process(cache.flush_all())
        assert written == 2
        assert phys.read(0x100, 8) == b"12345678"
        assert phys.read(0x300, 8) == b"abcdefgh"
        assert cache.resident_blocks() == []

    def test_flush_page_is_selective(self, engine):
        phys, cache = build_chain(engine)
        access(engine, cache, 0x0000, 8, write=True, data=b"pagezero")
        access(engine, cache, 0x1000, 8, write=True, data=b"page one")
        written = engine.run_process(cache.flush_page(0))
        assert written == 1
        assert phys.read(0, 8) == b"pagezero"
        assert phys.read(0x1000, 8) == bytes(8)  # still only in cache
        assert cache.lookup(0x1000) is not None

    def test_invalidate_all_loses_dirty_data(self, engine):
        phys, cache = build_chain(engine)
        access(engine, cache, 0x100, 8, write=True, data=b"lostlost")
        lost = cache.invalidate_all()
        assert lost == 1
        assert phys.read(0x100, 8) == bytes(8)


class TestWriteThrough:
    def test_write_through_reaches_memory_immediately(self, engine):
        phys, cache = build_chain(engine, write_back=False)
        access(engine, cache, 0x500, 8)  # fill
        access(engine, cache, 0x500, 8, write=True, data=b"through!")
        assert phys.read(0x500, 8) == b"through!"
        assert not cache.dirty_lines()

    def test_write_no_allocate_skips_fill(self, engine):
        phys, cache = build_chain(engine, write_back=False, write_allocate=False)
        access(engine, cache, 0x700, 8, write=True, data=b"straight")
        assert phys.read(0x700, 8) == b"straight"
        assert cache.lookup(0x700) is None
        assert cache.misses == 1

    def test_write_allocate_fills_on_store_miss(self, engine):
        phys, cache = build_chain(engine, write_back=False, write_allocate=True)
        access(engine, cache, 0x700, 8, write=True, data=b"allocate")
        assert cache.lookup(0x700) is not None


class _BlockingPort(MemoryPort):
    """A downstream that refuses everything — simulates a closed border."""

    def access(self, addr, size, write, data=None):
        return None
        yield


class TestBlockedDownstream:
    def test_blocked_fill_returns_none_and_does_not_cache(self, engine):
        cache = Cache(
            engine,
            CacheConfig(name="b", size_bytes=512, associativity=2, hit_latency_ticks=1),
            _BlockingPort(),
            StatDomain("c"),
        )
        assert access(engine, cache, 0, 8) is None
        assert cache.lookup(0) is None
        assert cache._blocked_fills.value == 1

    def test_blocked_writethrough_invalidates_line(self, engine):
        cache = Cache(
            engine,
            CacheConfig(
                name="b",
                size_bytes=512,
                associativity=2,
                hit_latency_ticks=1,
                write_back=False,
            ),
            _BlockingPort(),
            StatDomain("c"),
        )
        # Manually install a line so the write hits, then gets blocked.
        from repro.mem.cache import Line

        cache._insert(cache._set_for(0), Line(0, bytes(128)))
        assert access(engine, cache, 0, 8, write=True, data=b"x" * 8) is None
        assert cache.lookup(0) is None


class TestMSHRCoalescing:
    def test_concurrent_misses_to_same_block_coalesce(self, engine):
        phys, cache = build_chain(engine)
        phys.write(0x3000, b"COALESCE")
        results = []

        def reader():
            data = yield from cache.access(0x3000, 8, False)
            results.append(data)

        engine.process(reader())
        engine.process(reader())
        engine.run()
        assert results == [b"COALESCE", b"COALESCE"]
        assert cache.misses == 1  # second access rode the first fill


# -- one cache against a flat reference -----------------------------------------
#
# The reference does the same job the slow, obvious way: list-ordered LRU
# sets and a mutable ``bytearray`` per line, writing back into a flat
# memory. The cache under test keeps each line's data as immutable
# ``bytes``, hands a full-block read out without a copy and adopts a
# full-block payload; every byte that reaches a reader or memory must
# be the reference's.

BLOCK = 128
REF_BLOCKS = 12  # over 4 sets of 2 ways: evictions and dirty writebacks
REF_SETS = 4
REF_WAYS = 2


def _initial_memory():
    return bytearray(bytes(range(7, 256)) * 7)[: REF_BLOCKS * BLOCK]


class _FlatPort(MemoryPort):
    """Downstream memory: a flat bytearray that refuses writes to the
    ``blocked`` blocks and logs every write it is asked for."""

    def __init__(self, blocked):
        self.memory = _initial_memory()
        self.blocked = blocked
        self.writes = []

    def read_now(self, addr, size):
        return bytes(self.memory[addr : addr + size])

    def write_now(self, addr, data):
        data = bytes(data)
        ok = addr - addr % BLOCK not in self.blocked
        self.writes.append((addr, data, ok))
        if not ok:
            return None
        self.memory[addr : addr + len(data)] = data
        return b""

    def access(self, addr, size, write, data=None):
        yield 1
        if write:
            return self.write_now(addr, data)
        return self.read_now(addr, size)


class _ReferenceCache:
    def __init__(self, port, write_back, write_allocate):
        self.port = port
        self.write_back = write_back
        self.write_allocate = write_allocate
        self.sets = [[] for _ in range(REF_SETS)]  # [block, bytearray, dirty], LRU first

    def access(self, addr, size, write, data=None):
        block = addr - addr % BLOCK
        offset = addr - block
        lines = self.sets[(block // BLOCK) % REF_SETS]
        line = next((ln for ln in lines if ln[0] == block), None)
        if line is not None:
            lines.remove(line)
            lines.append(line)
        elif write and not self.write_allocate:
            return b"" if self.port.write_now(addr, data[:size]) is not None else None
        else:
            line = [block, bytearray(self.port.read_now(block, BLOCK)), False]
            victim = lines.pop(0) if len(lines) >= REF_WAYS else None
            lines.append(line)
            if victim is not None and victim[2]:
                self.port.write_now(victim[0], victim[1])
        if not write:
            return bytes(line[1][offset : offset + size])
        line[1][offset : offset + size] = data[:size]
        if self.write_back:
            line[2] = True
            return b""
        if self.port.write_now(addr, data[:size]) is None:
            lines.remove(line)
            return None
        return b""

    def flush_all(self):
        for lines in self.sets:
            for block, data, dirty in lines:
                if dirty:
                    self.port.write_now(block, data)
            lines.clear()


_span = st.one_of(
    st.just((0, BLOCK)),  # the full block: read without a copy, adopt on write
    st.integers(0, BLOCK - 1).flatmap(
        lambda off: st.tuples(st.just(off), st.integers(1, BLOCK - off))
    ),
)
_cache_op = st.one_of(
    st.tuples(st.just("read"), st.integers(0, REF_BLOCKS - 1), _span),
    st.tuples(
        st.just("write"), st.integers(0, REF_BLOCKS - 1), _span,
        st.sampled_from([bytes, bytearray]),
    ),
    st.tuples(st.just("flush_all")),
)


@profile_settings(scale=2)
@given(
    write_back=st.booleans(),
    write_allocate=st.booleans(),
    blocked=st.sets(st.integers(0, REF_BLOCKS - 1).map(lambda b: b * BLOCK), max_size=4),
    ops=st.lists(_cache_op, min_size=1, max_size=50),
)
def test_cache_matches_flat_reference(write_back, write_allocate, blocked, ops):
    engine = Engine()
    port = _FlatPort(blocked)
    cache = Cache(
        engine,
        CacheConfig(
            name="ref",
            size_bytes=REF_SETS * REF_WAYS * BLOCK,
            associativity=REF_WAYS,
            hit_latency_ticks=1,
            write_back=write_back,
            write_allocate=write_allocate,
        ),
        port,
        StatDomain("ref"),
    )
    ref_port = _FlatPort(blocked)
    ref = _ReferenceCache(ref_port, write_back, write_allocate)
    for seq, (op, *args) in enumerate(ops):
        if op == "flush_all":
            engine.run_process(cache.flush_all())
            ref.flush_all()
            continue
        block, (offset, size) = args[0], args[1]
        addr = block * BLOCK + offset
        if op == "read":
            got = engine.run_process(cache.access(addr, size, False))
            assert got == ref.access(addr, size, False), (seq, op, addr, size)
        else:
            payload = args[2]((seq + i) % 256 for i in range(size))
            got = engine.run_process(cache.access(addr, size, True, payload))
            assert got == ref.access(addr, size, True, payload), (seq, op, addr, size)
            if isinstance(payload, bytearray):
                payload[:] = b"\xee" * size  # the writer reuses its buffer
    assert port.writes == ref_port.writes
    assert port.memory == ref_port.memory
    assert cache.resident_blocks() == sorted(
        block for lines in ref.sets for block, _data, _dirty in lines
    )
    engine.run_process(cache.flush_all())
    ref.flush_all()
    assert port.writes == ref_port.writes
    assert port.memory == ref_port.memory
