"""Unit tests for the frame substrate: Frame, Partition, BufferPool, spill files."""
import os

import pytest

from repro.core.stats import JoinStats
from repro.frames import (
    DEFAULT_FRAME_BYTES,
    BufferPool,
    DiskSpillFile,
    Frame,
    MemorySpillFile,
    Partition,
)


class TestFrame:
    def test_default_capacity(self):
        assert Frame().capacity == DEFAULT_FRAME_BYTES == 32 * 1024

    @pytest.mark.parametrize("cap", [1, 100, 4096, 32768])
    def test_fresh_frame_is_empty(self, cap):
        f = Frame(cap)
        assert f.used == 0
        assert f.free == cap
        assert len(f) == 0

    @pytest.mark.parametrize("cap", [0, -1, -32768])
    def test_invalid_capacity_rejected(self, cap):
        with pytest.raises(ValueError):
            Frame(cap)

    def test_insert_updates_accounting(self):
        f = Frame(1000)
        f.insert(400, "a")
        assert f.used == 400
        assert f.free == 600
        assert f.records == [(400, "a")]

    def test_insert_multiple(self):
        f = Frame(1000)
        f.insert(300, "a")
        f.insert(300, "b")
        f.insert(400, "c")
        assert f.used == 1000
        assert f.free == 0
        assert len(f) == 3

    def test_fits_boundary(self):
        f = Frame(1000)
        f.insert(400)
        assert f.fits(600)
        assert not f.fits(601)

    def test_insert_overflow_raises(self):
        f = Frame(1000)
        f.insert(900)
        with pytest.raises(ValueError):
            f.insert(200)

    @pytest.mark.parametrize("size", [0, -5])
    def test_nonpositive_record_rejected(self, size):
        with pytest.raises(ValueError):
            Frame(1000).insert(size)

    def test_clear(self):
        f = Frame(1000)
        f.insert(500, "x")
        f.clear()
        assert f.used == 0
        assert f.records == []
        assert f.fits(1000)


class TestBufferPool:
    def test_budget_floor(self):
        with pytest.raises(ValueError):
            BufferPool(2)

    def test_allocate_release_cycle(self):
        pool = BufferPool(10)
        pool.allocate(4)
        assert pool.allocated == 4
        assert pool.free == 6
        pool.release(2)
        assert pool.allocated == 2

    def test_can_allocate_boundary(self):
        pool = BufferPool(5)
        pool.allocate(5)
        assert not pool.can_allocate(1)
        assert pool.free == 0

    def test_over_allocate_raises(self):
        pool = BufferPool(5)
        pool.allocate(5)
        with pytest.raises(MemoryError):
            pool.allocate(1)

    def test_over_release_raises(self):
        pool = BufferPool(5)
        pool.allocate(1)
        with pytest.raises(ValueError):
            pool.release(2)


class TestPartition:
    def test_fresh_partition(self):
        p = Partition(3, 1000)
        assert p.pid == 3
        assert p.num_frames == 0
        assert p.in_memory_bytes == 0
        assert p.in_memory_records == 0
        assert not p.spilled

    def test_new_frame_and_counters(self):
        p = Partition(0, 1000)
        f = p.new_frame()
        f.insert(600, "a")
        f2 = p.new_frame()
        f2.insert(300, "b")
        assert p.num_frames == 2
        assert p.in_memory_bytes == 900
        assert p.in_memory_records == 2
        assert p.fragmentation_bytes == (1000 - 600) + (1000 - 300)

    def test_flush_frames_moves_to_spill_file(self):
        p = Partition(0, 1000)
        pool = BufferPool(4)
        pool.allocate(1)
        f = p.new_frame()
        f.insert(500, "a")
        f.insert(400, "b")
        stats = JoinStats(1000)
        freed = p.write_out(pool, stats, "build", 0, keep_buffer=False)
        assert freed == 1 and pool.allocated == 0 and p.frames == []
        assert stats.build_bytes_spilled == 900
        assert p.spill_file.bytes_written == 900
        assert p.spill_file.frames_written == 1
        assert list(p.spill_file.read_all()) == [(500, "a"), (400, "b")]

    def test_totals_combine_memory_and_spill(self):
        p = Partition(0, 1000)
        pool = BufferPool(4)
        pool.allocate(1)
        p.new_frame().insert(500, "a")
        p.write_out(pool, JoinStats(1000), "build", 0, keep_buffer=True)
        p.frames[0].insert(200, "b")
        assert p.in_memory_records + len(list(p.spill_file.read_all())) == 2
        assert p.in_memory_bytes + p.spill_file.bytes_written == 700


class TestSpillFiles:
    @pytest.mark.parametrize("factory", [MemorySpillFile, DiskSpillFile])
    def test_roundtrip(self, factory):
        sf = factory()
        sf.write_frame([(100, ("k1", "a")), (200, ("k2", "b"))])
        sf.write_frame([(300, ("k3", "c"))])
        assert sf.frames_written == 2
        assert sf.bytes_written == 600
        assert list(sf.read_all()) == [
            (100, ("k1", "a")), (200, ("k2", "b")), (300, ("k3", "c"))]
        sf.close()

    @pytest.mark.parametrize("factory", [MemorySpillFile, DiskSpillFile])
    def test_read_all_is_repeatable(self, factory):
        sf = factory()
        sf.write_frame([(100, ("k", "v"))])
        assert list(sf.read_all()) == list(sf.read_all())
        sf.close()

    def test_disk_spill_file_removed_on_close(self):
        sf = DiskSpillFile()
        path = sf.path
        assert os.path.exists(path)
        sf.close()
        assert not os.path.exists(path)

    def test_empty_file_reads_nothing(self):
        for factory in (MemorySpillFile, DiskSpillFile):
            sf = factory()
            assert list(sf.read_all()) == []
            sf.close()
