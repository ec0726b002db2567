"""Unit tests for the §6 growth policies (NG-NS and G-S)."""
import pytest

from repro.core.stats import JoinStats
from repro.frames import BufferPool, Partition
from repro.growth import GrowSteal, NoGrowNoSteal, make_policy
from repro.insertion import AppendN
from repro.victim import VictimContext, make_policy as make_victim

from tests.util import spill_files

CAP = 1000


def filled_partition(pid, n_frames, pool, stats, bytes_per_frame=800):
    p = Partition(pid, CAP, pool, spill_files(stats), insertion=AppendN(8))
    for _ in range(n_frames):
        assert p.place((None, bytes_per_frame, None))
    assert p.num_frames == n_frames
    return p


def ng_ns(stats):
    return NoGrowNoSteal(make_victim("largest-size"), stats)


def g_s(stats):
    return GrowSteal(make_victim("largest-size"), stats)


class TestMakePolicy:
    def test_known_names(self):
        victim, stats = make_victim("largest-size"), JoinStats(CAP)
        assert isinstance(make_policy("ng-ns", victim, stats), NoGrowNoSteal)
        g = make_policy("g-s", victim, stats)
        assert isinstance(g, GrowSteal)
        assert g.victim is victim and g.stats is stats

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            make_policy("grow-only", make_victim("largest-size"), JoinStats(CAP))


class TestInitialSpill:
    def test_writes_one_sequential_chunk_and_keeps_buffer(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = filled_partition(0, 5, pool, stats)
        g = ng_ns(stats)
        freed = g.initial_spill(part)
        assert freed == 4
        assert part.spilled
        assert part.num_frames == 1
        assert part.frames == [[]] and part.free == [CAP]   # buffer cleared
        assert pool.allocated == 1
        assert stats.partitions_spilled == 1
        assert len(stats.write_trace) == 1
        op = stats.write_trace[0]
        assert op.n_frames == 5
        assert op.sequential                      # multi-frame chunk
        assert stats.build_bytes_spilled == 5 * 800

    def test_single_frame_victim_is_random_write(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = filled_partition(0, 1, pool, stats)
        ng_ns(stats).initial_spill(part)
        assert not stats.write_trace[0].sequential

    def test_double_spill_asserts(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = filled_partition(0, 2, pool, stats)
        g = ng_ns(stats)
        g.initial_spill(part)
        with pytest.raises(AssertionError):
            g.initial_spill(part)


class TestNGNS:
    def test_buffer_insert_and_flush_cycle(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = filled_partition(0, 2, pool, stats)
        g = ng_ns(stats)
        g.initial_spill(part)
        # fill the buffer: 900 fits
        assert g.insert_into_spilled(part, (None, 900, "a"))
        # next 900 does not fit → buffer flushes as one random write
        assert g.insert_into_spilled(part, (None, 900, "b"))
        assert part.num_frames == 1                       # invariant holds
        flushes = [w for w in stats.write_trace if w.n_frames == 1]
        assert len(flushes) == 1
        assert len(list(part.spill_file.read_all())) == 2 + 1   # 2 initial + 1 flushed

    def test_spilled_partition_never_grows(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = filled_partition(0, 3, pool, stats)
        g = ng_ns(stats)
        g.initial_spill(part)
        for i in range(20):
            g.insert_into_spilled(part, (None, 600, i))
            assert part.num_frames == 1

    def test_free_memory_only_victimizes_residents(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        spilled = filled_partition(0, 1, pool, stats)
        spilled.spilled = True
        resident = filled_partition(1, 3, pool, stats)
        g = ng_ns(stats)
        assert g.free_memory([spilled, resident], VictimContext(1, 1, 2)) is resident
        assert pool.allocated == 4 - 2
        assert resident.spilled

    def test_free_memory_no_candidates_returns_zero(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        spilled = filled_partition(0, 1, pool, stats)
        spilled.spilled = True
        g = ng_ns(stats)
        assert g.free_memory([spilled], VictimContext(0, 1, 1)) is None
        assert pool.allocated == 1

    def test_free_memory_asks_the_victim_policy_it_was_made_with(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        large = filled_partition(0, 3, pool, stats)
        small = filled_partition(1, 1, pool, stats)
        g = make_policy("ng-ns", make_victim("smallest-size"), stats)
        assert g.free_memory([large, small], VictimContext(0, 0, 2)) is small
        assert small.spilled and not large.spilled
        assert stats.partitions_spilled == 1


class TestGS:
    def test_spilled_partition_grows_while_memory_lasts(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = filled_partition(0, 2, pool, stats)
        g = g_s(stats)
        g.initial_spill(part)
        for i in range(10):
            assert g.insert_into_spilled(part, (None, 900, i))
        assert part.num_frames > 1                       # it grew

    def test_insert_fails_when_pool_exhausted(self):
        pool = BufferPool(3)
        stats = JoinStats(CAP)
        part = filled_partition(0, 3, pool, stats)
        g = g_s(stats)
        part.spilled = True          # simulate an already-spilled, full state
        assert not g.insert_into_spilled(part, (None, 900, "x"))

    def test_steal_flushes_largest_spilled_sequentially(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        a = filled_partition(0, 4, pool, stats)
        a.spilled = True
        b = filled_partition(1, 2, pool, stats)
        b.spilled = True
        resident = filled_partition(2, 2, pool, stats)
        g = g_s(stats)
        assert g.free_memory([a, b, resident], VictimContext(2, 2, 3)) is a
        assert pool.allocated == 8 - 3        # a had 4 frames → keeps 1 buffer
        assert a.num_frames == 1
        assert not resident.spilled           # resident untouched
        assert stats.write_trace[-1].sequential

    def test_falls_back_to_resident_victims(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        spilled = filled_partition(0, 1, pool, stats)
        spilled.spilled = True
        resident = filled_partition(1, 3, pool, stats)
        g = g_s(stats)
        assert g.free_memory([spilled, resident], VictimContext(1, 1, 2)) is resident
        assert pool.allocated == 4 - 2
        assert resident.spilled


class TestFlushSpilled:
    def test_empty_frames_release_without_write(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = Partition(0, CAP, pool, spill_files(stats))
        pool.allocate(3)
        part.frames, part.free = [[], [], []], [CAP] * 3
        part.spilled = True
        g = ng_ns(stats)
        freed = g.flush_spilled(part, keep_buffer=False)
        assert freed == 3
        assert stats.write_trace == []        # nothing written

    def test_keep_buffer_leaves_one_frame(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = filled_partition(0, 3, pool, stats)
        part.spilled = True
        g = g_s(stats)
        freed = g.flush_spilled(part, keep_buffer=True)
        assert freed == 2
        assert part.num_frames == 1
        assert part.frames == [[]] and part.free == [CAP]
