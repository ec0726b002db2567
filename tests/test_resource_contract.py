"""The operator's resource contract: spill files are deleted on every exit
path, record sizes are checked on entry for both sides, and randomised
runs over every policy combination equal the naive join with I/O
accounting that matches what the spill files wrote."""
import os
import random
import re
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import repro.core.join
from repro.core.join import BATCH_RECORDS, DynamicHybridHashJoin, HHJConfig
from repro.frames.spillfile import DiskSpillFile, SpillFile
from repro.insertion import NAMES as INSERTION_NAMES
from repro.victim import NAMES as VICTIM_NAMES

from tests.util import (
    assert_free_list_invariant,
    make_records,
    make_skewed_records,
    naive_hash_join,
)

FRAME = 1024


def disk_cfg(spill_dir, **kw):
    base = dict(memory_frames=32, frame_bytes=32 * 1024, use_disk_spill=True,
                spill_dir=str(spill_dir))
    base.update(kw)
    return HHJConfig(**base)


def failing_at(records, row):
    """Yield ``records`` but raise when row ``row`` is reached."""
    for i, rec in enumerate(records):
        if i == row:
            raise RuntimeError(f"input failed at row {row}")
        yield rec


@pytest.fixture(scope="module")
def skewed_inputs():
    build = make_skewed_records(20_000, hot_keys=50, seed=11, tag="b")
    probe = make_records(20_000, key_range=20_000, seed=12, tag="p")
    return build, probe


@pytest.fixture(scope="module")
def deep_inputs():
    """Inputs whose join in :func:`deep_cfg` recurses to level 3."""
    build = make_skewed_records(12_000, hot_keys=400, lo=100, hi=300, seed=23, tag="b")
    probe = make_records(12_000, key_range=12_000, lo=100, hi=300, seed=24, tag="p")
    return build, probe


def deep_cfg(spill_dir):
    return disk_cfg(spill_dir, memory_frames=12, frame_bytes=FRAME, num_partitions=8,
                    min_partitions=4)


class TestSpillCleanup:
    def test_early_close_removes_spill_files(self, tmp_path, skewed_inputs):
        build, probe = skewed_inputs
        gen = DynamicHybridHashJoin(disk_cfg(tmp_path)).run(build, probe)
        for _ in range(10):
            next(gen)
        assert os.listdir(tmp_path)          # the join had spilled
        gen.close()
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("side", ["build", "probe"])
    def test_input_exception_removes_spill_files(self, tmp_path, skewed_inputs, side):
        build, probe = skewed_inputs
        if side == "build":
            build = failing_at(build, 15_000)
        else:
            probe = failing_at(probe, 15_000)
        with pytest.raises(RuntimeError, match="row 15000"):
            DynamicHybridHashJoin(disk_cfg(tmp_path)).run_collect(build, probe)
        assert os.listdir(tmp_path) == []

    def test_close_inside_a_batch_removes_spill_files(self, tmp_path, skewed_inputs):
        build, probe = skewed_inputs
        read = 0

        def counted(records):
            nonlocal read
            for rec in records:
                read += 1
                yield rec

        gen = DynamicHybridHashJoin(disk_cfg(tmp_path)).run(build, counted(probe))
        taken = 0
        while read <= BATCH_RECORDS:        # stop at a pair from the second batch
            next(gen)
            taken += 1
        assert read == 2 * BATCH_RECORDS     # that batch was read whole
        assert taken < read - BATCH_RECORDS  # ... and is only partly joined
        assert os.listdir(tmp_path)
        gen.close()
        assert os.listdir(tmp_path) == []

    def test_early_close_with_level_two_rounds_pending(self, tmp_path, deep_inputs,
                                                       monkeypatch):
        levels = []
        split = repro.core.join.split_partition

        def recorder(keys, num_partitions, level):
            levels.append(level)
            return split(keys, num_partitions, level)

        monkeypatch.setattr(repro.core.join, "split_partition", recorder)
        made, closed = [], set()
        init, close = DiskSpillFile.__init__, DiskSpillFile.close

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        def tracking_close(self):
            closed.add(id(self))
            close(self)

        monkeypatch.setattr(DiskSpillFile, "__init__", tracking_init)
        monkeypatch.setattr(DiskSpillFile, "close", tracking_close)
        gen = DynamicHybridHashJoin(deep_cfg(tmp_path)).run(*deep_inputs)
        while 2 not in levels:
            next(gen)
        # inside a level-2 round, the open files of level 1 are the two it
        # replays and those of the level-1 pairs not yet joined
        open_level_1 = [f for f in made if f.label[2] == 1 and id(f) not in closed]
        assert len(open_level_1) > 2
        assert os.listdir(tmp_path)
        gen.close()
        assert os.listdir(tmp_path) == []

    def test_exception_in_a_level_two_round_removes_spill_files(self, tmp_path,
                                                                deep_inputs,
                                                                monkeypatch):
        split = repro.core.join.split_partition

        def failing(keys, num_partitions, level):
            if level == 2:
                raise RuntimeError("split failed at level 2")
            return split(keys, num_partitions, level)

        monkeypatch.setattr(repro.core.join, "split_partition", failing)
        with pytest.raises(RuntimeError, match="level 2"):
            DynamicHybridHashJoin(deep_cfg(tmp_path)).run_collect(*deep_inputs)
        assert os.listdir(tmp_path) == []

    def test_spill_dir_peak_stays_near_the_bytes_open_files_hold(self, tmp_path,
                                                                 deep_inputs, monkeypatch):
        # A round side's temp file keeps the extents of its closed files (a
        # §8.5 reload, a pair with an empty side) until its last file closes.
        # One temp file per partition would hold only the open files' bytes.
        open_files, peak = set(), {"dir": 0, "open": 0}
        init, close = DiskSpillFile.__init__, DiskSpillFile.close
        write = DiskSpillFile.write_frame

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            open_files.add(self)

        def tracking_close(self):
            open_files.discard(self)
            close(self)

        def measuring_write(self, records):
            write(self, records)
            on_disk = sum(e.stat().st_size for e in os.scandir(tmp_path))
            held = sum(n for f in open_files for _offset, n in f._extents)
            peak["dir"], peak["open"] = max(peak["dir"], on_disk), max(peak["open"], held)

        monkeypatch.setattr(DiskSpillFile, "__init__", tracking_init)
        monkeypatch.setattr(DiskSpillFile, "close", tracking_close)
        monkeypatch.setattr(DiskSpillFile, "write_frame", measuring_write)
        op = DynamicHybridHashJoin(deep_cfg(tmp_path))
        op.run_collect(*deep_inputs)
        assert op.stats.frames_reloaded > 0
        assert peak["open"] <= peak["dir"] <= 1.1 * peak["open"]
        assert os.listdir(tmp_path) == []

    def test_disk_join_that_spills_nothing_runs_no_spill_file_code(self, tmp_path):
        # A Spark executor's join (disk spill on) that fits its budget must
        # run no code of frames/spillfile.py: the benchmark's traced
        # spark-tpch run charges every function of that module.
        build = make_records(2000, key_range=500, lo=100, hi=300, seed=5, tag="b")
        probe = make_records(2000, key_range=500, lo=100, hi=300, seed=6, tag="p")
        files = set()

        def profile(frame, event, arg):
            files.add(frame.f_code.co_filename)

        op = DynamicHybridHashJoin(disk_cfg(tmp_path))
        sys.setprofile(profile)
        try:
            pairs = op.run_collect(build, probe)
        finally:
            sys.setprofile(None)
        assert sorted(pairs) == sorted(naive_hash_join(build, probe))
        assert op.stats.partitions_spilled == 0
        assert any(f.endswith(os.path.join("core", "join.py")) for f in files)
        assert not [f for f in files if f.endswith(os.path.join("frames", "spillfile.py"))]
        assert os.listdir(tmp_path) == []

    def test_build_only_exception_removes_spill_files(self, tmp_path, skewed_inputs):
        op = DynamicHybridHashJoin(disk_cfg(tmp_path))
        with pytest.raises(RuntimeError):
            op.build_only(failing_at(skewed_inputs[0], 15_000))
        assert os.listdir(tmp_path) == []


class TestRecordSizes:
    @pytest.mark.parametrize("build,probe", [
        ([(1, 100, "b")], [(1, FRAME + 1, "p")]),   # the probe side is checked too
        ([(1, 0, "b")], [(1, 100, "p")]),
        ([(1, 100, "b")], [(1, 0, "p")]),
        ([(1, -5, "b")], [(1, 100, "p")]),
        ([(1, 100, "b")], [(1, -5, "p")]),
        ([(1, FRAME + 1, "b")], None),              # build_only
    ])
    def test_size_outside_one_frame_raises(self, build, probe):
        op = DynamicHybridHashJoin(HHJConfig(memory_frames=8, frame_bytes=FRAME,
                                             num_partitions=4, min_partitions=4))
        with pytest.raises(ValueError, match="fit one frame"):
            if probe is None:
                op.build_only(build)
            else:
                op.run_collect(build, probe)

    @pytest.mark.parametrize("side", ["build", "probe"])
    @pytest.mark.parametrize("size", [0, -1, FRAME + 1])
    def test_bad_size_last_in_a_full_batch_raises(self, side, size):
        # a batch of plain-int-key tuples is checked by its min and max
        # size; the one bad record is the batch's last
        good = [(i, 100, i) for i in range(BATCH_RECORDS)]
        bad = good[:-1] + [(BATCH_RECORDS, size, "bad")]
        build, probe = (bad, good) if side == "build" else (good, bad)
        op = DynamicHybridHashJoin(HHJConfig(memory_frames=1024, frame_bytes=FRAME,
                                             num_partitions=4))
        message = (f"record of {size} B is outside (0, {FRAME}] B: "
                   "records must be non-empty and fit one frame")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            op.run_collect(build, probe)

    @pytest.mark.parametrize("side", ["build", "probe"])
    def test_size_of_one_frame_last_in_a_full_batch_is_accepted(self, side):
        good = [(i, 100, i) for i in range(BATCH_RECORDS)]
        edge = good[:-1] + [(BATCH_RECORDS - 1, FRAME, "one frame")]
        build, probe = (edge, good) if side == "build" else (good, edge)
        op = DynamicHybridHashJoin(HHJConfig(memory_frames=1024, frame_bytes=FRAME,
                                             num_partitions=4))
        assert sorted(op.run_collect(build, probe), key=repr) == sorted(
            naive_hash_join(build, probe), key=repr)

    @pytest.mark.parametrize("side", ["build", "probe"])
    def test_size_past_the_first_batch_raises_and_cleans_up(self, tmp_path,
                                                            skewed_inputs, side):
        build, probe = (list(r) for r in skewed_inputs)
        bad = build if side == "build" else probe
        row = BATCH_RECORDS + 904
        key, _size, payload = bad[row]
        bad[row] = (key, 32 * 1024 + 1, payload)
        op = DynamicHybridHashJoin(disk_cfg(tmp_path))
        with pytest.raises(ValueError, match="fit one frame"):
            op.run_collect(build, probe)
        assert op.stats.partitions_spilled > 0   # the join had spilled
        assert os.listdir(tmp_path) == []


INSERTIONS = sorted(INSERTION_NAMES)
VICTIMS = sorted(VICTIM_NAMES)


@st.composite
def join_cases(draw):
    memory = draw(st.integers(3, 64))
    cfg = dict(
        memory_frames=memory, frame_bytes=FRAME,
        num_partitions=draw(st.none() | st.integers(2, memory)),
        min_partitions=draw(st.integers(2, 20)),
        insertion=draw(st.sampled_from(INSERTIONS)),
        victim=draw(st.sampled_from(VICTIMS)),
        growth=draw(st.sampled_from(["ng-ns", "g-s"])),
        use_disk_spill=draw(st.booleans()),
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    key_range = draw(st.integers(1, 300))
    hot_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    full_frame_share = draw(st.sampled_from([0.0, 0.05, 0.3]))

    def side(n, tag):
        records = []
        for i in range(n):
            k = 0 if rng.random() < hot_share else rng.randrange(key_range)
            key = rng.choice([k, float(k), np.int64(k), str(k)])
            if rng.random() < 0.1:
                # NaN joins NaN and -0.0 joins 0, as in Spark SQL joins
                key = rng.choice([float("nan"), np.float64("nan"), 0.0, -0.0])
            size = FRAME if rng.random() < full_frame_share else rng.randint(1, FRAME)
            records.append((key, size, (tag, i)))
        return records

    build = side(draw(st.integers(0, 300)), "b")
    probe = side(draw(st.integers(0, 300)), "p")
    return cfg, build, probe


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(join_cases(), st.sampled_from([1, 2, 7, 64, BATCH_RECORDS]))
    def test_random_config_equals_naive_join(self, case, batch_records):
        # small input batches put batch boundaries inside every phase
        cfg_kw, build, probe = case
        files = []
        init = SpillFile.__init__

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            files.append(self)

        with tempfile.TemporaryDirectory() as spill_dir, \
                mock.patch.object(SpillFile, "__init__", tracking_init), \
                mock.patch.object(repro.core.join, "BATCH_RECORDS", batch_records):
            op = DynamicHybridHashJoin(HHJConfig(spill_dir=spill_dir, **cfg_kw))
            pairs = op.run_collect(build, probe)
            assert os.listdir(spill_dir) == []
        assert sorted(pairs) == sorted(naive_hash_join(build, probe))
        s = op.stats
        for name in ("partitions_spilled", "bnlj_rounds", "role_reversals",
                     "frames_reloaded", "in_memory_rounds"):
            event(f"{name} > 0: {getattr(s, name) > 0}")
        assert sum(f.frames_written for f in files) == s.total_frames_spilled
        assert sum(f.bytes_written for f in files) == s.total_bytes_spilled
        # the run records its end-of-build memory where build_only stops
        built = DynamicHybridHashJoin(HHJConfig(**cfg_kw))
        parts = built.build_only(build)
        assert_free_list_invariant(parts)
        for q in parts:
            q.close()
        assert ((built.stats.resident_frames, built.stats.resident_bytes)
                == (s.resident_frames, s.resident_bytes))
