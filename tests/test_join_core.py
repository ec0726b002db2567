"""Correctness and behaviour tests for the Dynamic HHJ operator itself.

The operator must produce *exactly* the naive equijoin output under every
combination of policies and memory budgets — including budgets that force
spilling, multi-round recursion, role reversal, bail-out, and reload.
"""
import hashlib
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.join
from repro.core.join import BATCH_RECORDS, NAN, DynamicHybridHashJoin, HHJConfig
from repro.growth import NAMES as GROWTHS
from repro.insertion import NAMES as INSERTIONS, AppendN
from repro.victim import NAMES as VICTIMS

from tests.util import make_records, make_skewed_records, naive_hash_join

FRAME = 1024


def small_inputs():
    build = make_records(400, key_range=150, lo=100, hi=300, seed=1, tag="b")
    probe = make_records(800, key_range=150, lo=100, hi=300, seed=2, tag="p")
    return build, probe


def run_and_compare(build, probe, **cfg_kw):
    cfg_kw.setdefault("frame_bytes", FRAME)
    cfg_kw.setdefault("min_partitions", 4)
    op = DynamicHybridHashJoin(HHJConfig(**cfg_kw))
    assert sorted(op.run_collect(build, probe)) == sorted(naive_hash_join(build, probe))
    return op.stats


class TestCorrectnessGrid:
    """Every policy combination must return the exact join result."""

    @pytest.mark.parametrize("victim", sorted(VICTIMS))
    @pytest.mark.parametrize("growth", ["ng-ns", "g-s"])
    @pytest.mark.parametrize("memory", [12, 48])
    def test_policy_grid(self, victim, growth, memory):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=memory,
                                growth=growth, victim=victim,
                                num_partitions=min(8, memory))
        if memory == 12:
            assert stats.partitions_spilled > 0   # spilling actually happened

    @pytest.mark.parametrize("insertion", sorted(INSERTIONS))
    @pytest.mark.parametrize("memory", [12, 48, 4096])
    def test_insertion_grid(self, insertion, memory):
        build, probe = small_inputs()
        run_and_compare(build, probe, memory_frames=memory,
                        insertion=insertion, num_partitions=8)

    @pytest.mark.parametrize("num_partitions", [2, 3, 5, 8, 12])
    def test_partition_counts(self, num_partitions):
        build, probe = small_inputs()
        run_and_compare(build, probe, memory_frames=24,
                        num_partitions=num_partitions)


class TestSkewedData:
    @pytest.mark.parametrize("growth", ["ng-ns", "g-s"])
    def test_skewed_build(self, growth):
        build = make_skewed_records(500, hot_keys=3, lo=100, hi=300, seed=3)
        probe = make_records(500, key_range=600, lo=100, hi=300, seed=4)
        run_and_compare(build, probe, memory_frames=12, growth=growth,
                        num_partitions=8)

    def test_single_key_build_triggers_bailout(self):
        # every record in one partition → hashing can never shrink it
        build = [(7, 200, f"b{i}") for i in range(300)]
        probe = [(7, 200, f"p{i}") for i in range(100)]
        cfg = HHJConfig(memory_frames=12, frame_bytes=FRAME, num_partitions=4,
                        min_partitions=4)
        op = DynamicHybridHashJoin(cfg)
        pairs = op.run_collect(build, probe)
        assert len(pairs) == 300 * 100
        assert op.stats.bnlj_rounds >= 1


class TestOptimizations:
    def test_role_reversal_counts(self):
        # probe side much smaller per spilled pair → reversal expected
        build = make_records(1200, key_range=300, lo=100, hi=300, seed=5, tag="b")
        probe = make_records(120, key_range=300, lo=100, hi=300, seed=6, tag="p")
        cfg = HHJConfig(memory_frames=12, frame_bytes=FRAME, num_partitions=6,
                        min_partitions=4)
        op = DynamicHybridHashJoin(cfg)
        pairs = op.run_collect(build, probe)
        assert sorted(pairs) == sorted(naive_hash_join(build, probe))
        assert op.stats.role_reversals > 0

    def test_in_memory_shortcut_used(self):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=16,
                                num_partitions=8)
        assert stats.in_memory_rounds > 0

    def test_reload_recovers_spilled_partition(self):
        # spilled partitions come back when the build leaves room for them
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=8,
                                num_partitions=4)
        assert stats.partitions_spilled > 0
        assert stats.frames_reloaded > 0

    def test_reload_that_does_not_fit_joins_each_record_once(self):
        # Random(10%) packs the reloaded records into more frames than the
        # file holds, so a reload that passed the free-memory check runs
        # out of frames half way; the file still holds every record and
        # the re-filled frames must be dropped, not written to it again.
        build = make_records(150, key_range=100, lo=1, hi=400, seed=2, tag="b")
        probe = make_records(150, key_range=100, lo=1, hi=400, seed=1002, tag="p")
        stats = run_and_compare(build, probe, memory_frames=8, frame_bytes=1000,
                                min_partitions=20, insertion="random(10%)")
        assert stats.frames_reloaded > 0


class TestEdgeCases:
    def test_empty_build(self):
        probe = make_records(50, lo=100, hi=300)
        assert DynamicHybridHashJoin(HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4)).run_collect([], probe) == []

    def test_empty_probe(self):
        build = make_records(50, lo=100, hi=300)
        assert DynamicHybridHashJoin(HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4)).run_collect(build, []) == []

    def test_both_empty(self):
        assert DynamicHybridHashJoin(HHJConfig(
            memory_frames=8, frame_bytes=FRAME,
            num_partitions=4)).run_collect([], []) == []

    def test_no_matches(self):
        build = [(i, 200, f"b{i}") for i in range(100)]
        probe = [(i + 1000, 200, f"p{i}") for i in range(100)]
        pairs = DynamicHybridHashJoin(HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4)).run_collect(build, probe)
        assert pairs == []

    def test_duplicate_keys_cross_product(self):
        build = [(1, 200, f"b{i}") for i in range(20)]
        probe = [(1, 200, f"p{i}") for i in range(30)]
        pairs = DynamicHybridHashJoin(HHJConfig(
            memory_frames=64, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4)).run_collect(build, probe)
        # probe-major, and within a probe record the build payloads in
        # input order
        assert pairs == [(f"b{i}", f"p{j}") for j in range(30) for i in range(20)]

    def test_key_type_normalization(self):
        import numpy as np
        build = [(np.int64(5), 200, "b"), (7.0, 200, "b7")]
        probe = [(5, 200, "p"), (7, 200, "p7")]
        pairs = DynamicHybridHashJoin(HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4)).run_collect(build, probe)
        assert sorted(pairs) == [("b", "p"), ("b7", "p7")]

    def test_keys_are_canonical_once_inside(self):
        # keys are canonicalised where records enter; frames and spill
        # files hold only the canonical form
        import numpy as np
        build = [(np.int64(5), 200, "a"), (7.0, 200, "b"), (np.float64(2.0), 200, "c"),
                 (3.5, 200, "d"), ("12", 200, "e"), (True, 200, "f")]
        parts = DynamicHybridHashJoin(HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4)).build_only(build)
        stored = {payload: key for q in parts for f in q.frames
                  for key, _, payload in f}
        assert {p: type(k) for p, k in stored.items()} == {
            "a": int, "b": int, "c": int, "d": float, "e": str, "f": bool}

    def test_plain_int_key_records_are_stored_as_given(self):
        # a batch of tuples whose keys are all plain ints is admitted
        # uncopied: the frames hold the caller's own record objects
        build = make_records(2 * BATCH_RECORDS + 5, lo=100, hi=300)
        parts = DynamicHybridHashJoin(HHJConfig(
            memory_frames=4096, frame_bytes=FRAME, num_partitions=4)).build_only(build)
        given = {rec[2]: rec for rec in build}
        stored = [rec for q in parts for f in q.frames for rec in f]
        assert len(stored) == len(build)
        assert all(rec is given[rec[2]] for rec in stored)

    def test_nan_keys_match_each_other(self):
        # NaN = NaN in Spark SQL joins; each NaN here is its own object
        import numpy as np
        op = DynamicHybridHashJoin(HHJConfig(memory_frames=8, frame_bytes=FRAME,
                                             num_partitions=4, min_partitions=4))
        assert op.run_collect([(float("nan"), 10, "b")], [(float("nan"), 10, "p")]) == [
            ("b", "p")]
        build = [(float("nan"), 10, "b1"), (np.float64("nan"), 10, "b2"), (1.5, 10, "x")]
        probe = [(np.float64("nan"), 10, "p1"), (float("inf"), 10, "y")]
        assert sorted(DynamicHybridHashJoin(HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4)).run_collect(build, probe)) == [("b1", "p1"), ("b2", "p1")]

    def test_nan_keys_match_after_a_disk_spill(self, tmp_path):
        # records replayed from a disk spill file keep the one NaN key
        # through every later round, the §8.1 bail-out included
        build = [(float("nan") if i % 3 == 0 else i, 200, f"b{i}") for i in range(600)]
        probe = [(float("nan") if i % 5 == 0 else i, 200, f"p{i}") for i in range(300)]
        stats = run_and_compare(build, probe, memory_frames=8, num_partitions=4,
                                use_disk_spill=True, spill_dir=str(tmp_path))
        assert stats.partitions_spilled > 0 and stats.bnlj_rounds > 0
        assert os.listdir(tmp_path) == []

    def test_string_keys(self):
        build = [(f"k{i % 20}", 150, f"b{i}") for i in range(100)]
        probe = [(f"k{i % 25}", 150, f"p{i}") for i in range(100)]
        pairs = DynamicHybridHashJoin(HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4)).run_collect(build, probe)
        assert sorted(pairs) == sorted(naive_hash_join(build, probe))

    def test_record_exceeding_frame_raises(self):
        cfg = HHJConfig(memory_frames=8, frame_bytes=FRAME, num_partitions=4)
        op = DynamicHybridHashJoin(cfg)
        with pytest.raises(ValueError):
            op.run_collect([(1, FRAME + 1, "big")], [])

    def test_record_exactly_frame_size_is_ok(self):
        pairs = DynamicHybridHashJoin(HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4)).run_collect([(1, FRAME, "b")], [(1, 100, "p")])
        assert pairs == [("b", "p")]


class TestConfigValidation:
    def test_memory_floor(self):
        with pytest.raises(ValueError):
            HHJConfig(memory_frames=2)

    @pytest.mark.parametrize("p", [0, 1])
    def test_partitions_floor(self, p):
        with pytest.raises(ValueError):
            HHJConfig(memory_frames=16, num_partitions=p)

    def test_partitions_cannot_exceed_memory(self):
        with pytest.raises(ValueError):
            HHJConfig(memory_frames=16, num_partitions=17)

    @pytest.mark.parametrize("frame_bytes", [0, -1])
    def test_frame_bytes_must_be_positive(self, frame_bytes):
        # it used to be accepted, and joining even two empty inputs then
        # divided by zero
        with pytest.raises(ValueError, match="frame_bytes must be positive"):
            HHJConfig(memory_frames=8, frame_bytes=frame_bytes)

    @pytest.mark.parametrize("knob,names", [
        ("insertion", INSERTIONS), ("victim", VICTIMS), ("growth", GROWTHS),
    ], ids=["insertion", "victim", "growth"])
    def test_unknown_policy_name_fails_at_construction(self, knob, names):
        # where the config is made, not later in the (Spark worker's)
        # operator that first makes the policy; a non-string is no name
        for bad in ("grow-only", None, 3):
            with pytest.raises(KeyError) as config:
                HHJConfig(memory_frames=8, **{knob: bad})
            assert config.value.args[0] == (
                f"unknown {knob} policy {bad!r}; choose from {sorted(names)}")

    def test_default_partition_policy_is_twenty(self):
        cfg = HHJConfig(memory_frames=256)
        op = DynamicHybridHashJoin(cfg)
        parts = op.build_only(make_records(50, lo=100, hi=300))
        assert len(parts) == 20


class TestStatsAccounting:
    def test_no_spill_run_has_empty_trace(self):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=4096,
                                num_partitions=8)
        assert stats.partitions_spilled == 0
        assert stats.build_bytes_spilled == 0
        assert stats.write_trace == []

    def test_spill_bytes_bounded_by_rounds_times_input(self):
        build, probe = small_inputs()
        build_bytes = sum(r[1] for r in build)
        stats = run_and_compare(build, probe, memory_frames=12,
                                num_partitions=6)
        assert stats.build_bytes_spilled <= stats.rounds * build_bytes * 1.5

    def test_trace_matches_frame_counters(self):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=12,
                                num_partitions=6)
        assert (stats.sequential_frames_written + stats.random_frames_written
                == stats.total_frames_spilled)
        assert (stats.sequential_write_ops + stats.random_write_ops
                == len(stats.write_trace))

    def test_records_processed_counts_both_sides(self):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=4096,
                                num_partitions=8)
        assert stats.records_processed >= len(build) + len(probe)

    def test_build_only_flushes_everything_spilled(self):
        build = make_records(800, lo=100, hi=300, seed=9)
        cfg = HHJConfig(memory_frames=12, frame_bytes=FRAME, num_partitions=6)
        op = DynamicHybridHashJoin(cfg)
        parts = op.build_only(build)
        for q in parts:
            if q.spilled:
                assert q.in_memory_bytes == 0      # nothing left unflushed
        spilled_bytes = sum(q.spill_file.bytes_written for q in parts if q.spill_file)
        assert spilled_bytes == op.stats.build_bytes_spilled


class TestSearchStatsOnEveryExit:
    """``frames_searched`` is the searches the round's insertion policies
    made, however the run ends: drained, closed early or raising."""

    @staticmethod
    def recording_op(**cfg_kw):
        policies = []

        def insertion(pid):
            policies.append(AppendN(8))
            return policies[-1]

        cfg_kw.setdefault("frame_bytes", FRAME)
        return DynamicHybridHashJoin(HHJConfig(insertion=insertion, **cfg_kw)), policies

    @pytest.mark.parametrize("memory_frames", [4096, 12])
    def test_run_closed_after_its_first_pair(self, memory_frames, tmp_path):
        build = make_records(20_000, key_range=20_000, lo=100, hi=300, seed=21, tag="b")
        probe = make_records(20_000, key_range=20_000, lo=100, hi=300, seed=22, tag="p")
        op, policies = self.recording_op(memory_frames=memory_frames, num_partitions=8,
                                         use_disk_spill=True, spill_dir=str(tmp_path))
        pairs = op.run(build, probe)
        next(pairs)
        pairs.close()
        assert op.stats.frames_searched == sum(p.frames_searched for p in policies) > 0
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("entry", ["run_collect", "build_only"])
    def test_build_that_raises_mid_input(self, entry):
        def build():
            yield from make_records(2 * BATCH_RECORDS, lo=100, hi=300, seed=9)
            raise RuntimeError("input failed")

        op, policies = self.recording_op(memory_frames=12, num_partitions=6)
        args = (build(), []) if entry == "run_collect" else (build(),)
        with pytest.raises(RuntimeError, match="input failed"):
            getattr(op, entry)(*args)
        assert op.stats.frames_searched == sum(p.frames_searched for p in policies) > 0


class TestPinnedCounters:
    """The paper's metrics of three seeded runs, pinned to exact values.

    Wall-clock work on the per-record path (batching, hashing, the
    insertion search) must not move any of them: a second search of a
    partition's frames per record, for example, raises ``frames_searched``
    while the join result stays correct. The runs are larger than one
    input batch, so batch boundaries fall inside every phase.
    """

    @staticmethod
    def counters(stats):
        return dict(frames_searched=stats.frames_searched,
                    records_processed=stats.records_processed,
                    hash_probes=stats.hash_probes,
                    total_bytes_spilled=stats.total_bytes_spilled,
                    sequential_write_ops=stats.sequential_write_ops,
                    random_write_ops=stats.random_write_ops,
                    frames_read=stats.frames_read)

    def test_in_memory_run(self):
        build = make_records(10_000, key_range=20_000, lo=100, hi=300, seed=21, tag="b")
        probe = make_records(10_000, key_range=20_000, lo=100, hi=300, seed=22, tag="p")
        stats = run_and_compare(build, probe, memory_frames=4096, num_partitions=20)
        assert self.counters(stats) == dict(
            frames_searched=25220, records_processed=20000, hash_probes=10000,
            total_bytes_spilled=0, sequential_write_ops=0, random_write_ops=0,
            frames_read=0)

    def test_disk_spilling_run_with_recursion(self, tmp_path):
        build = make_skewed_records(12_000, hot_keys=400, lo=100, hi=300, seed=23, tag="b")
        probe = make_records(12_000, key_range=12_000, lo=100, hi=300, seed=24, tag="p")
        stats = run_and_compare(build, probe, memory_frames=12, num_partitions=8,
                                use_disk_spill=True, spill_dir=str(tmp_path))
        assert self.counters(stats) == dict(
            frames_searched=10980, records_processed=87162, hash_probes=15537,
            total_bytes_spilled=12648529, sequential_write_ops=235,
            random_write_ops=13029, frames_read=14075)
        assert (stats.rounds, stats.bnlj_rounds, stats.role_reversals) == (115, 1, 124)
        assert os.listdir(tmp_path) == []

    def test_grow_steal_run_with_reload(self, tmp_path):
        # G-S with a stateful victim (Low-High) and insertion (Next-Fit):
        # spilled partitions grow and are stolen from, residents spill to
        # make room for probe buffers, and spilled partitions reload (each
        # reload fits).
        build = make_skewed_records(6000, hot_keys=400, lo=100, hi=300, seed=31, tag="b")
        probe = make_records(6000, key_range=6000, lo=100, hi=300, seed=32, tag="p")
        stats = run_and_compare(build, probe, memory_frames=16, num_partitions=6,
                                insertion="next-fit", victim="low-high", growth="g-s",
                                use_disk_spill=True, spill_dir=str(tmp_path))
        assert self.counters(stats) == dict(
            frames_searched=17481, records_processed=36685, hash_probes=7134,
            total_bytes_spilled=4987638, sequential_write_ops=366,
            random_write_ops=4120, frames_read=5704)
        assert (stats.rounds, stats.role_reversals, stats.frames_reloaded,
                stats.partitions_spilled) == (50, 56, 70, 127)
        assert os.listdir(tmp_path) == []

    @staticmethod
    def labels(stats):
        """The control-flow counters, and a digest of the write trace's
        labels: the size, phase, partition and round of every write, in
        order (the §6 random/sequential mix and the elevator read them)."""
        trace = [(w.n_frames, w.phase, w.pid, w.round_no) for w in stats.write_trace]
        return dict(comparisons=stats.comparisons,
                    in_memory_rounds=stats.in_memory_rounds,
                    bnlj_rounds=stats.bnlj_rounds,
                    frames_reloaded=stats.frames_reloaded,
                    partitions_spilled=stats.partitions_spilled,
                    trace_sha256=hashlib.sha256(repr(trace).encode()).hexdigest())

    def test_in_memory_run_labels(self):
        build = make_records(10_000, key_range=20_000, lo=100, hi=300, seed=21, tag="b")
        probe = make_records(10_000, key_range=20_000, lo=100, hi=300, seed=22, tag="p")
        stats = run_and_compare(build, probe, memory_frames=4096, num_partitions=20)
        assert self.labels(stats) == dict(
            comparisons=0, in_memory_rounds=0, bnlj_rounds=0, frames_reloaded=0,
            partitions_spilled=0,
            trace_sha256="4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945")

    def test_disk_spilling_run_with_recursion_labels(self, tmp_path):
        build = make_skewed_records(12_000, hot_keys=400, lo=100, hi=300, seed=23, tag="b")
        probe = make_records(12_000, key_range=12_000, lo=100, hi=300, seed=24, tag="p")
        stats = run_and_compare(build, probe, memory_frames=12, num_partitions=8,
                                use_disk_spill=True, spill_dir=str(tmp_path))
        assert self.labels(stats) == dict(
            comparisons=54, in_memory_rounds=181, bnlj_rounds=1, frames_reloaded=27,
            partitions_spilled=300,
            trace_sha256="175d75452ca62c78eada153a154a9b9e6222a7bb5a8f6ab1810373de56e2f64b")

    def test_grow_steal_run_with_reload_labels(self, tmp_path):
        build = make_skewed_records(6000, hot_keys=400, lo=100, hi=300, seed=31, tag="b")
        probe = make_records(6000, key_range=6000, lo=100, hi=300, seed=32, tag="p")
        stats = run_and_compare(build, probe, memory_frames=16, num_partitions=6,
                                insertion="next-fit", victim="low-high", growth="g-s",
                                use_disk_spill=True, spill_dir=str(tmp_path))
        assert self.labels(stats) == dict(
            comparisons=0, in_memory_rounds=68, bnlj_rounds=0, frames_reloaded=70,
            partitions_spilled=127,
            trace_sha256="5c15b3dd7f61a125216e572a66d6849a25622c8056cdff8b9fdcba7d5afa8113")


class TestPinnedOutputOrder:
    """The ordered output of the three :class:`TestPinnedCounters` runs,
    pinned by a digest. With the write-label digest there, it pins the
    depth-first order of the rounds: a round's own pairs, then each
    spilled pair's child rounds, in partition order."""

    @staticmethod
    def digest(build, probe, **cfg_kw):
        cfg_kw.setdefault("frame_bytes", FRAME)
        cfg_kw.setdefault("min_partitions", 4)
        pairs = DynamicHybridHashJoin(HHJConfig(**cfg_kw)).run_collect(build, probe)
        assert sorted(pairs) == sorted(naive_hash_join(build, probe))
        return hashlib.sha256(repr(pairs).encode()).hexdigest()

    def test_in_memory_run_order(self):
        build = make_records(10_000, key_range=20_000, lo=100, hi=300, seed=21, tag="b")
        probe = make_records(10_000, key_range=20_000, lo=100, hi=300, seed=22, tag="p")
        assert self.digest(build, probe, memory_frames=4096, num_partitions=20) == (
            "1774081cd76c63b7d57208e00ce758b3711208002ae3c4acfe02458bc6e3565c")

    def test_disk_spilling_run_with_recursion_order(self, tmp_path):
        build = make_skewed_records(12_000, hot_keys=400, lo=100, hi=300, seed=23, tag="b")
        probe = make_records(12_000, key_range=12_000, lo=100, hi=300, seed=24, tag="p")
        assert self.digest(build, probe, memory_frames=12, num_partitions=8,
                           use_disk_spill=True, spill_dir=str(tmp_path)) == (
            "186a7ce383eeed9bb159207301c6907ce0fe06824214e00f684da23066d6de16")
        assert os.listdir(tmp_path) == []

    def test_grow_steal_run_with_reload_order(self, tmp_path):
        build = make_skewed_records(6000, hot_keys=400, lo=100, hi=300, seed=31, tag="b")
        probe = make_records(6000, key_range=6000, lo=100, hi=300, seed=32, tag="p")
        assert self.digest(build, probe, memory_frames=16, num_partitions=6,
                           insertion="next-fit", victim="low-high", growth="g-s",
                           use_disk_spill=True, spill_dir=str(tmp_path)) == (
            "3edc79f6b77b63ef088a320fbf8d68660e93153a9e6872f4732c624429b8c6ab")
        assert os.listdir(tmp_path) == []


class TestSplitCalls:
    """The operator routes a batch per ``split_partition`` call, and the
    call carries the round's level: a tracer that wraps the function sees
    the recursion depth and one call per batch. A round routes its probe
    batches only when one of its partitions spilled."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        split = repro.core.join.split_partition

        def recorder(keys, num_partitions, level):
            seen.append((len(keys), level))
            return split(keys, num_partitions, level)

        monkeypatch.setattr(repro.core.join, "split_partition", recorder)
        return seen

    def test_in_memory_run_makes_one_call_per_batch(self, calls):
        n = 2 * BATCH_RECORDS + 5
        build = make_records(n, key_range=3 * n, lo=100, hi=300, seed=31, tag="b")
        probe = make_records(n, key_range=3 * n, lo=100, hi=300, seed=32, tag="p")
        stats = run_and_compare(build, probe, memory_frames=4096, num_partitions=20)
        assert stats.partitions_spilled == 0 and stats.hash_probes == n
        # nothing spilled: the probe batches go to the hash table unrouted
        assert calls == [(k, 0) for k in [BATCH_RECORDS, BATCH_RECORDS, 5]]

    def test_round_with_a_spilled_partition_splits_every_probe_batch(self, calls):
        n = 2 * BATCH_RECORDS + 5
        build = make_records(n, key_range=3 * n, lo=100, hi=300, seed=31, tag="b")
        probe = make_records(n, key_range=3 * n, lo=100, hi=300, seed=32, tag="p")
        stats = run_and_compare(build, probe, memory_frames=1024, num_partitions=20)
        assert 0 < stats.partitions_spilled < 20
        per_side = [BATCH_RECORDS, BATCH_RECORDS, 5]
        assert [c for c in calls if c[1] == 0] == [(k, 0) for k in per_side + per_side]

    def test_recursive_run_reports_its_levels(self, calls, tmp_path):
        build = make_skewed_records(12_000, hot_keys=400, lo=100, hi=300, seed=23, tag="b")
        probe = make_records(12_000, key_range=12_000, lo=100, hi=300, seed=24, tag="p")
        stats = run_and_compare(build, probe, memory_frames=12, num_partitions=8,
                                use_disk_spill=True, spill_dir=str(tmp_path))
        assert max(level for _, level in calls) >= 2
        assert all(0 < k <= BATCH_RECORDS for k, _ in calls)
        # at most one call per batch: each hashing round reads two sides,
        # and only a side's last batch may be short
        routed = sum(k for k, _ in calls)
        assert len(calls) <= 2 * stats.rounds + math.ceil(routed / BATCH_RECORDS)


class TestHashKernel:
    """``_hash_table`` over a list of record runs, and ``_probe_table``
    against it: the join kernel of every round, §8.3 and §8.1 block."""

    hash_table = staticmethod(DynamicHybridHashJoin._hash_table)
    probe_table = staticmethod(DynamicHybridHashJoin._probe_table)

    def test_unique_keys_map_to_the_payload_itself(self):
        runs = [[(1, 10, "a"), (2, 10, ("b",))], [(3, 10, ["c"]), (4, 10, None)]]
        table = self.hash_table(runs)
        assert len(table) == 4
        assert all(table[key] is payload for run in runs for key, _, payload in run)

    @staticmethod
    def nested_loop(runs, probe, swapped):
        """The ordered reference: probe-major, build records in run order,
        keys equal as a dict lookup finds them (identity first)."""
        build = [rec for run in runs for rec in run]
        out = []
        for pk, _, pp in probe:
            for bk, _, bp in build:
                if bk is pk or bk == pk:
                    out.append((pp, bp) if swapped else (bp, pp))
        return out

    keys = st.one_of(st.integers(-3, 3), st.just(NAN), st.just(True),
                     st.just(False), st.just(1.5), st.sampled_from(["k", "1"]))
    payloads = st.one_of(st.none(), st.integers(),
                         st.tuples(st.integers(), st.text(max_size=2)),
                         st.lists(st.integers(), max_size=2))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(keys, payloads), max_size=30),
           st.lists(st.tuples(keys, payloads), max_size=20),
           st.lists(st.integers(0, 30), max_size=4),
           st.booleans())
    def test_probe_matches_an_ordered_nested_loop(self, build, probe, cuts, swapped):
        build = [(k, 10, p) for k, p in build]
        probe = [(k, 10, p) for k, p in probe]
        bounds = [0, *sorted(min(c, len(build)) for c in cuts), len(build)]
        runs = [build[a:b] for a, b in zip(bounds, bounds[1:])]
        pairs = list(self.probe_table(self.hash_table(runs), probe, swapped))
        ref = self.nested_loop(runs, probe, swapped)
        # each payload, a list one included, is joined as itself
        assert len(pairs) == len(ref)
        assert all(a is c and b is d for (a, b), (c, d) in zip(pairs, ref))
