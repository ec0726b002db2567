"""Unit tests for the frame substrate: Partition, BufferPool, spill files."""
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.join import DynamicHybridHashJoin, HHJConfig
from repro.core.stats import JoinStats, WriteOp
from repro.frames import (
    DEFAULT_FRAME_BYTES,
    BufferPool,
    DiskSpillFile,
    MemorySpillFile,
    Partition,
)
from repro.growth import GrowSteal
from repro.insertion import NAMES, NextFit, make_policy
from repro.victim import VictimContext, make_policy as make_victim

from tests.util import assert_free_list_invariant, spill_files


def placed(cap, *sizes, pool=None, stats=None):
    """A partition of ``cap``-byte frames holding records of ``sizes``,
    placed by its default insertion policy (Append(8))."""
    pool = pool if pool is not None else BufferPool(max(3, len(sizes)))
    stats = stats if stats is not None else JoinStats(cap)
    p = Partition(0, cap, pool, spill_files(stats))
    for i, size in enumerate(sizes):
        assert p.place((i, size, f"r{i}"))
    return p


class TestFrame:
    """A frame is a partition's ``frames[i]`` (its records) plus
    ``free[i]`` (its free bytes)."""

    def test_default_capacity(self):
        assert DEFAULT_FRAME_BYTES == 32 * 1024
        assert placed(DEFAULT_FRAME_BYTES, 1).free == [DEFAULT_FRAME_BYTES - 1]

    @pytest.mark.parametrize("cap", [1, 100, 4096, 32768])
    def test_fresh_frame_is_empty(self, cap):
        # a spilled partition's output buffer is a fresh frame
        p = placed(cap, cap)
        p.write_out(keep_buffer=True)
        assert p.frames == [[]]
        assert p.free == [cap]
        assert p.in_memory_bytes == 0 and p.in_memory_records == 0

    @pytest.mark.parametrize("cap", [0, -1, -32768])
    def test_invalid_capacity_rejected(self, cap):
        with pytest.raises(ValueError, match="frame_bytes must be positive"):
            Partition(0, cap, BufferPool(3), spill_files(JoinStats()))

    def test_insert_updates_accounting(self):
        p = placed(1000, 400)
        assert p.in_memory_bytes == 400
        assert p.free == [600]
        assert p.frames == [[(0, 400, "r0")]]

    def test_insert_multiple(self):
        p = placed(1000, 300, 300, 400)
        assert p.num_frames == 1
        assert p.in_memory_bytes == 1000
        assert p.free == [0]
        assert p.in_memory_records == 3

    def test_fits_boundary(self):
        assert placed(1000, 400, 600).num_frames == 1
        assert placed(1000, 400, 601).num_frames == 2

    def test_record_that_does_not_fit_takes_a_new_frame(self):
        p = placed(1000, 900, 200)
        assert p.free == [100, 800]
        assert [len(f) for f in p.frames] == [1, 1]

    @pytest.mark.parametrize("size", [0, -5])
    def test_nonpositive_record_rejected(self, size):
        op = DynamicHybridHashJoin(HHJConfig(memory_frames=8, frame_bytes=1000))
        with pytest.raises(ValueError, match="fit one frame"):
            op.build_only([(1, size, "x")])

    def test_clear(self):
        p = placed(1000, 500)
        p.write_out(keep_buffer=True)
        assert p.frames == [[]]
        assert p.free == [1000]
        assert p.place((0, 1000, "x")) and p.num_frames == 1


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
        pool = BufferPool(3)
        p = Partition(3, 1000, pool, spill_files(JoinStats(1000)))
        assert p.pid == 3 and p.pool is pool
        assert p.num_frames == 0
        assert p.in_memory_bytes == 0
        assert p.in_memory_records == 0
        assert not p.spilled

    def test_place_and_counters(self):
        p = placed(1000, 600, 500)
        assert p.num_frames == 2
        assert p.in_memory_bytes == 1100
        assert p.in_memory_records == 2
        assert p.fragmentation_bytes == (1000 - 600) + (1000 - 500)

    def test_flush_frames_moves_to_spill_file(self):
        pool, stats = BufferPool(4), JoinStats(1000)
        p = placed(1000, 500, 400, pool=pool, stats=stats)
        freed = p.write_out(keep_buffer=False)
        assert freed == 1 and pool.allocated == 0 and p.frames == [] and p.free == []
        assert stats.build_bytes_spilled == 900
        assert p.spill_file.bytes_written == 900
        assert p.spill_file.frames_written == 1
        assert list(p.spill_file.read_all()) == [(0, 500, "r0"), (1, 400, "r1")]

    def test_totals_combine_memory_and_spill(self):
        p = placed(1000, 500, pool=BufferPool(4))
        p.write_out(keep_buffer=True)
        p.append_buffered((1, 200, "b"))
        assert p.in_memory_records + len(list(p.spill_file.read_all())) == 2
        assert p.in_memory_bytes + p.spill_file.bytes_written == 700

    def test_writes_go_to_a_file_labelled_with_the_partition(self):
        stats = JoinStats(1000)
        p = Partition(5, 1000, BufferPool(4), spill_files(stats, "probe", 3))
        p.append_buffered((1, 600, "a"))
        p.append_buffered((2, 600, "b"))          # the buffer goes out first
        p.write_out(keep_buffer=False)
        assert stats.write_trace == [WriteOp(1, "probe", 5, 3), WriteOp(1, "probe", 5, 3)]
        assert stats.probe_bytes_spilled == 1200

    @pytest.mark.parametrize("keep_buffer", [True, False])
    def test_cutting_the_frames_resets_the_insertion_policy(self, keep_buffer):
        # Next-Fit's remembered frame index would point past the frames left
        stats = JoinStats(1000)
        p = Partition(0, 1000, BufferPool(8), spill_files(stats), NextFit())
        for i in range(3):
            assert p.place((i, 900, None))
        assert p.insertion._last_index == 2
        p.write_out(keep_buffer)
        assert p.insertion._last_index is None
        assert p.place((9, 900, None))
        p.drop_frames()
        assert p.insertion._last_index is None


def new_file(factory, stats=None, phase="build", pid=0, round_no=0):
    # a DiskSpillFile on a temp file of its own, in the default temp dir
    disk_args = ([], None) if factory is DiskSpillFile else ()
    return factory(stats if stats is not None else JoinStats(), phase, pid, round_no,
                   *disk_args)


class TestSpillFiles:
    @pytest.mark.parametrize("factory", [MemorySpillFile, DiskSpillFile])
    def test_roundtrip(self, factory):
        sf = new_file(factory)
        sf.write_frame([("k1", 100, "a"), ("k2", 200, "b")])
        sf.write_frame([("k3", 300, "c")])
        assert sf.frames_written == 2
        assert sf.bytes_written == 600
        assert list(sf.read_all()) == [
            ("k1", 100, "a"), ("k2", 200, "b"), ("k3", 300, "c")]
        sf.close()

    @pytest.mark.parametrize("factory", [MemorySpillFile, DiskSpillFile])
    def test_read_all_is_repeatable(self, factory):
        sf = new_file(factory)
        sf.write_frame([("k", 100, "v")])
        assert list(sf.read_all()) == list(sf.read_all())
        sf.close()

    def test_disk_spill_file_removed_on_close(self):
        sf = new_file(DiskSpillFile)
        path = sf.path
        assert os.path.exists(path)
        sf.close()
        assert not os.path.exists(path)

    def test_disk_files_of_one_factory_share_one_temp_file(self, tmp_path):
        stats, shared = JoinStats(), []
        a, b = (DiskSpillFile(stats, "build", pid, 1, shared, dir=str(tmp_path))
                for pid in (0, 1))
        assert a.path == b.path
        assert os.listdir(tmp_path) == [os.path.basename(a.path)]
        a.write_frame([("a", 100, 0)])
        b.write_frame([("b", 200, 0), ("b", 300, 1)])
        a.write_frame([("a", 400, 1), ("a", 500, 2)])
        b.write_frame([("b", 600, 2)])
        assert list(a.read_all()) == [("a", 100, 0), ("a", 400, 1), ("a", 500, 2)]
        assert list(b.read_all()) == [("b", 200, 0), ("b", 300, 1), ("b", 600, 2)]
        assert (a.frames_written, a.bytes_written) == (2, 1000)
        assert (b.frames_written, b.bytes_written) == (2, 1100)
        a.close()
        assert os.path.exists(b.path)          # b still uses it
        assert list(b.read_all()) == [("b", 200, 0), ("b", 300, 1), ("b", 600, 2)]
        b.close()
        assert os.listdir(tmp_path) == []
        # a file made after the last one closed opens a fresh temp file
        c = DiskSpillFile(stats, "build", 2, 1, shared, dir=str(tmp_path))
        c.write_frame([("c", 700, 0)])
        assert list(c.read_all()) == [("c", 700, 0)]
        assert os.listdir(tmp_path) == [os.path.basename(c.path)]
        c.close()
        assert os.listdir(tmp_path) == []

    def test_empty_file_reads_nothing(self):
        for factory in (MemorySpillFile, DiskSpillFile):
            sf = new_file(factory)
            assert list(sf.read_all()) == []
            sf.close()

    @pytest.mark.parametrize("factory", [MemorySpillFile, DiskSpillFile])
    def test_write_and_replay_are_recorded_under_the_files_label(self, factory):
        stats = JoinStats(1000)
        sf = new_file(factory, stats, "probe", 7, 2)
        sf.write_frames([[("k1", 100, "a"), ("k2", 200, "b")], [("k3", 300, "c")]])
        sf.write_frames([[("k4", 400, "d")]])
        assert stats.write_trace == [WriteOp(2, "probe", 7, 2), WriteOp(1, "probe", 7, 2)]
        assert (stats.probe_frames_spilled, stats.probe_bytes_spilled) == (3, 1000)
        assert stats.build_frames_spilled == 0
        assert [r[1] for r in sf.replay()] == [100, 200, 300, 400]
        assert stats.frames_read == 3
        sf.close()


CAP = 1000
PIDS = st.integers(0, 3)
SIZES = st.integers(1, CAP)
STEPS = st.one_of(
    st.tuples(st.just("place"), PIDS, SIZES, st.booleans()),   # with make_room?
    st.tuples(st.just("append_buffered"), PIDS, SIZES),
    st.tuples(st.just("write_out"), PIDS, st.booleans()),      # keep_buffer?
    st.tuples(st.just("drop_frames"), PIDS),
    st.tuples(st.just("gs_flush"), PIDS),
    st.tuples(st.just("gs_free_memory"), PIDS),
)


class TestFreeListInvariant:
    """Every change to a partition's frames keeps ``free`` in step with
    the records, and the pool funds exactly the frames held."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 12), st.lists(st.sampled_from(sorted(NAMES)),
                                        min_size=4, max_size=4),
           st.lists(STEPS, max_size=120))
    def test_random_steps_keep_the_invariant(self, budget, policies, steps):
        pool, stats = BufferPool(budget), JoinStats(CAP)
        parts = [Partition(pid, CAP, pool, spill_files(stats),
                           insertion=make_policy(name, seed=pid))
                 for pid, name in enumerate(policies)]
        gs = GrowSteal(make_victim("largest-size"), stats)

        def free_memory(part):
            ctx = VictimContext(part.pid, sum(q.spilled for q in parts), len(parts))
            return gs.free_memory(parts, ctx)

        def make_room(part):
            return free_memory(part) is not None and not part.spilled

        for n, (op, pid, *args) in enumerate(steps):
            part = parts[pid]
            rec = (n, args[0], f"r{n}") if op in ("place", "append_buffered") else None
            if op == "place":
                part.place(rec, make_room if args[1] else None)
            elif op == "append_buffered":
                if part.num_frames == 1 or (part.num_frames == 0 and pool.can_allocate(1)):
                    part.append_buffered(rec)
            elif op == "write_out":
                part.write_out(keep_buffer=args[0])
            elif op == "drop_frames":
                part.drop_frames()
            elif op == "gs_flush":
                gs.flush_spilled(part)
            else:
                free_memory(part)
            assert_free_list_invariant(parts, pool)
        for q in parts:
            q.close()
        assert_free_list_invariant(parts)
