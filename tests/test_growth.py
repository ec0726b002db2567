"""Unit tests for the §6 growth policies (NG-NS and G-S)."""
import pytest

from repro.core.stats import JoinStats
from repro.frames import BufferPool, Partition
from repro.growth import GrowSteal, NoGrowNoSteal, make_policy
from repro.insertion import AppendN
from repro.victim import VictimContext, VictimPolicy, make_policy as make_victim

from tests.util import spill_files

CAP = 1000


def filled_partition(pid, n_frames, pool, stats, bytes_per_frame=800):
    p = Partition(pid, CAP, pool, spill_files(stats), insertion=AppendN(8))
    for _ in range(n_frames):
        assert p.place((None, bytes_per_frame, None))
    assert p.num_frames == n_frames
    return p


def ng_ns(stats, parts):
    return NoGrowNoSteal(make_victim("largest-size"), stats, parts)


def g_s(stats, parts):
    return GrowSteal(make_victim("largest-size"), stats, parts)


class TestMakePolicy:
    def test_known_names(self):
        victim, stats = make_victim("largest-size"), JoinStats(CAP)
        pool = BufferPool(4)
        parts = [Partition(pid, CAP, pool, spill_files(stats)) for pid in range(2)]
        assert isinstance(make_policy("ng-ns", victim, stats, parts), NoGrowNoSteal)
        g = make_policy("g-s", victim, stats, parts)
        assert isinstance(g, GrowSteal)
        assert g.victim is victim and g.stats is stats
        assert g.partitions is parts and g.pool is pool

    def test_unknown_raises(self):
        parts = [Partition(0, CAP, BufferPool(4), spill_files(JoinStats(CAP)))]
        with pytest.raises(KeyError):
            make_policy("grow-only", make_victim("largest-size"), JoinStats(CAP), parts)


class TestInitialSpill:
    def test_writes_one_sequential_chunk_and_keeps_buffer(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = filled_partition(0, 5, pool, stats)
        g = ng_ns(stats, [part])
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
        ng_ns(stats, [part]).initial_spill(part)
        assert not stats.write_trace[0].sequential

    def test_double_spill_asserts(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = filled_partition(0, 2, pool, stats)
        g = ng_ns(stats, [part])
        g.initial_spill(part)
        with pytest.raises(AssertionError):
            g.initial_spill(part)


class TestNGNS:
    def test_buffer_insert_and_flush_cycle(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = filled_partition(0, 2, pool, stats)
        g = ng_ns(stats, [part])
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
        g = ng_ns(stats, [part])
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
        g = ng_ns(stats, [spilled, resident])
        assert g.free_memory(1) is resident
        assert pool.allocated == 4 - 2
        assert resident.spilled

    def test_free_memory_no_candidates_returns_zero(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        spilled = filled_partition(0, 1, pool, stats)
        spilled.spilled = True
        g = ng_ns(stats, [spilled])
        assert g.free_memory(0) is None
        assert pool.allocated == 1

    def test_free_memory_asks_the_victim_policy_it_was_made_with(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        large = filled_partition(0, 3, pool, stats)
        small = filled_partition(1, 1, pool, stats)
        g = make_policy("ng-ns", make_victim("smallest-size"), stats, [large, small])
        assert g.free_memory(0) is small
        assert small.spilled and not large.spilled
        assert stats.partitions_spilled == 1


class TestGS:
    def test_spilled_partition_grows_while_memory_lasts(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = filled_partition(0, 2, pool, stats)
        g = g_s(stats, [part])
        g.initial_spill(part)
        for i in range(10):
            assert g.insert_into_spilled(part, (None, 900, i))
        assert part.num_frames > 1                       # it grew

    def test_insert_fails_when_pool_exhausted(self):
        pool = BufferPool(3)
        stats = JoinStats(CAP)
        part = filled_partition(0, 3, pool, stats)
        g = g_s(stats, [part])
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
        g = g_s(stats, [a, b, resident])
        assert g.free_memory(2) is a
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
        g = g_s(stats, [spilled, resident])
        assert g.free_memory(1) is resident
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
        g = ng_ns(stats, [part])
        freed = g.flush_spilled(part, keep_buffer=False)
        assert freed == 3
        assert stats.write_trace == []        # nothing written

    def test_keep_buffer_leaves_one_frame(self):
        pool = BufferPool(16)
        stats = JoinStats(CAP)
        part = filled_partition(0, 3, pool, stats)
        part.spilled = True
        g = g_s(stats, [part])
        freed = g.flush_spilled(part, keep_buffer=True)
        assert freed == 2
        assert part.num_frames == 1
        assert part.frames == [[]] and part.free == [CAP]


class RecordingVictim(VictimPolicy):
    """Largest-size that keeps each context it is asked with."""

    name = "recording"

    def __init__(self):
        self.contexts = []

    def choose(self, candidates, ctx):
        self.contexts.append(ctx)
        return self._max(candidates, lambda p: p.in_memory_bytes)


class TestRoundMemoryPressure:
    """The loops a round runs when its pool is full, bound to its partitions."""

    def test_free_memory_gives_the_victim_the_rounds_context(self):
        pool, stats = BufferPool(16), JoinStats(CAP)
        parts = [filled_partition(pid, 2, pool, stats) for pid in range(3)]
        victim = RecordingVictim()
        g = make_policy("ng-ns", victim, stats, parts)
        g.free_memory(2)
        g.free_memory(-1)
        assert victim.contexts == [VictimContext(2, 0, 3), VictimContext(-1, 1, 3)]

    def test_make_room_spills_a_victim_and_says_whether_part_is_still_resident(self):
        pool, stats = BufferPool(4), JoinStats(CAP)
        small = filled_partition(0, 1, pool, stats)
        large = filled_partition(1, 3, pool, stats)
        g = ng_ns(stats, [small, large])
        assert g.make_room(small)                 # the largest spilled, small stays
        assert large.spilled and not small.spilled
        assert g.make_room(small) is False        # small was the last victim
        assert small.spilled

    def test_make_room_raises_when_nothing_can_spill(self):
        pool, stats = BufferPool(3), JoinStats(CAP)
        parts = [filled_partition(pid, 1, pool, stats) for pid in range(3)]
        g = ng_ns(stats, parts)
        for q in parts:
            q.spill()                      # each keeps its one frame as a buffer
        with pytest.raises(MemoryError, match="budget=3, P=3"):
            g.make_room(parts[0])

    def test_insert_spilled_steals_before_it_gives_up(self):
        pool, stats = BufferPool(4), JoinStats(CAP)
        a = filled_partition(0, 1, pool, stats)
        b = filled_partition(1, 3, pool, stats)
        g = g_s(stats, [a, b])
        g.initial_spill(b)                 # keeps one buffer: 2 frames in use
        a.spill()
        for i in range(6):                 # b grows, is stolen from, grows again
            g.insert_spilled(b, (i, 900, i))
        assert pool.allocated <= pool.budget
        replayed = list(b.spill_file.read_all()) + [r for f in b.frames for r in f]
        assert [r[2] for r in replayed[-6:]] == list(range(6))

    def test_insert_spilled_without_a_frame_or_a_victim_raises(self):
        pool, stats = BufferPool(3), JoinStats(CAP)
        empty = Partition(0, CAP, pool, spill_files(stats))
        parts = [empty] + [filled_partition(pid, 1, pool, stats) for pid in (1, 2, 3)]
        g = ng_ns(stats, parts)
        for q in parts:
            q.spill()
        with pytest.raises(MemoryError, match="cannot make progress"):
            g.insert_spilled(empty, (0, 900, "x"))

    def test_reserve_probe_buffers_spills_residents_until_each_spilled_has_a_frame(self):
        pool, stats = BufferPool(5), JoinStats(CAP)
        parts = [Partition(pid, CAP, pool, spill_files(stats)) for pid in (0, 1)]
        parts += [filled_partition(pid, n, pool, stats) for pid, n in ((2, 2), (3, 2), (4, 1))]
        parts[0].spill()
        parts[1].spill()
        g = ng_ns(stats, parts)
        g.reserve_probe_buffers()
        assert [q.spilled for q in parts] == [True, True, True, True, False]
        assert pool.allocated == 1                # spilled ones hold no frame
        assert sum(q.spilled for q in parts) + pool.allocated == pool.budget

    def test_reserve_probe_buffers_raises_without_residents(self):
        pool, stats = BufferPool(3), JoinStats(CAP)
        parts = [Partition(pid, CAP, pool, spill_files(stats)) for pid in range(4)]
        for q in parts:
            q.spill()
        with pytest.raises(MemoryError, match="no resident victims"):
            ng_ns(stats, parts).reserve_probe_buffers()
