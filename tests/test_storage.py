"""Tests for the storage-device models and the fs-cache elevator."""
import pytest

from repro.core.stats import JoinStats, WriteOp
from repro.storage import (
    DEVICES,
    EBS,
    HDD,
    SSD,
    CpuModel,
    elevator_coalesce,
    response_time,
    scan_time,
    write_trace_time,
)

FB = 32 * 1024


class TestDeviceProfiles:
    def test_three_devices_registered(self):
        assert set(DEVICES) == {"hdd", "ssd", "ebs"}

    def test_hdd_has_largest_overhead(self):
        assert HDD.op_overhead_s > EBS.op_overhead_s > SSD.op_overhead_s

    def test_op_time_components(self):
        t = HDD.op_time(10, FB)
        assert t == pytest.approx(HDD.op_overhead_s + 10 * FB / HDD.bandwidth_bytes_s)

    def test_sequential_amortizes_overhead(self):
        # 100 frames in 1 op vs 100 ops of 1 frame
        one_op = HDD.op_time(100, FB)
        many_ops = 100 * HDD.op_time(1, FB)
        assert many_ops > 5 * one_op

    def test_random_penalty_is_much_smaller_on_ssd(self):
        hdd_penalty = 100 * HDD.op_time(1, FB) - HDD.op_time(100, FB)
        ssd_penalty = 100 * SSD.op_time(1, FB) - SSD.op_time(100, FB)
        assert hdd_penalty > 50 * ssd_penalty


class TestWriteOp:
    def test_fields_in_order(self):
        op = WriteOp(3, "probe", 7, 2)
        assert WriteOp._fields == ("n_frames", "phase", "pid", "round_no")
        assert (op.n_frames, op.phase, op.pid, op.round_no) == (3, "probe", 7, 2)
        assert op == WriteOp(n_frames=3, phase="probe", pid=7, round_no=2)

    def test_sequential_is_multi_frame(self):
        assert WriteOp(2, "build", 0, 0).sequential
        assert not WriteOp(1, "build", 0, 0).sequential

    def test_hash_follows_the_fields(self):
        assert hash(WriteOp(3, "probe", 7, 2)) == hash(WriteOp(3, "probe", 7, 2))
        assert len({WriteOp(1, "build", 0, 0), WriteOp(1, "build", 0, 0),
                    WriteOp(1, "probe", 0, 0)}) == 2

    def test_fields_cannot_be_assigned(self):
        op = WriteOp(3, "probe", 7, 2)
        with pytest.raises(AttributeError):
            op.n_frames = 4


class TestTraceTiming:
    def test_empty_trace_is_free(self):
        assert write_trace_time([], FB, HDD) == 0.0

    def test_trace_time_sums_ops(self):
        trace = [WriteOp(5, "build", 0, 0), WriteOp(1, "build", 1, 0)]
        t = write_trace_time(trace, FB, HDD)
        assert t == pytest.approx(HDD.op_time(5, FB) + HDD.op_time(1, FB))

    def test_scan_time_zero_bytes(self):
        assert scan_time(0, HDD) == 0.0

    def test_scan_time_streams(self):
        assert scan_time(1 << 20, HDD, n_streams=3) == pytest.approx(
            3 * HDD.op_overhead_s + (1 << 20) / HDD.bandwidth_bytes_s)


class TestCpuModel:
    def test_counts_all_terms(self):
        s = JoinStats(FB)
        s.records_processed = 1000
        s.frames_searched = 500
        s.hash_probes = 200
        s.comparisons = 100
        cpu = CpuModel()
        expect = (1000 * cpu.record_s + 500 * cpu.frame_search_s
                  + 200 * cpu.hash_probe_s + 100 * cpu.comparison_s)
        assert cpu.time(s) == pytest.approx(expect)

    def test_response_time_monotone_in_search_effort(self):
        a, b = JoinStats(FB), JoinStats(FB)
        a.frames_searched = 10
        b.frames_searched = 10_000_000
        assert response_time(b, SSD, 1 << 20) > response_time(a, SSD, 1 << 20)


class TestElevator:
    def test_merges_same_file_runs(self):
        trace = [WriteOp(1, "build", 3, 0) for _ in range(10)]
        out = elevator_coalesce(trace, cache_frames=100)
        assert len(out) == 1
        assert out[0].n_frames == 10
        assert out[0].sequential

    def test_does_not_merge_across_files(self):
        trace = [WriteOp(1, "build", i % 2, 0) for i in range(10)]
        out = elevator_coalesce(trace, cache_frames=100)
        assert len(out) == 2
        assert {o.pid for o in out} == {0, 1}
        assert all(o.n_frames == 5 for o in out)

    def test_window_boundaries_limit_merging(self):
        trace = [WriteOp(1, "build", 0, 0) for _ in range(10)]
        out = elevator_coalesce(trace, cache_frames=2)
        assert len(out) == 5  # windows of 2 frames each

    def test_frame_conservation(self):
        trace = [WriteOp(i % 3 + 1, "build", i % 4, 0) for i in range(50)]
        out = elevator_coalesce(trace, cache_frames=16)
        assert sum(o.n_frames for o in out) == sum(o.n_frames for o in trace)

    def test_phase_separation_preserved(self):
        trace = [WriteOp(1, "build", 0, 0), WriteOp(1, "probe", 0, 0)]
        out = elevator_coalesce(trace, cache_frames=100)
        assert len(out) == 2

    def test_invalid_cache_size(self):
        with pytest.raises(ValueError):
            elevator_coalesce([], cache_frames=0)

    def test_cache_reduces_hdd_time_for_random_traces(self):
        s = JoinStats(FB)
        for i in range(500):
            s.record_write(1, FB, "build", i % 5, 0)
        direct = response_time(s, HDD, 0, use_fs_cache=False)
        cached = response_time(s, HDD, 0, use_fs_cache=True, cache_frames=1024)
        assert cached < direct / 2

    def test_cache_neutral_for_sequential_traces(self):
        s = JoinStats(FB)
        for i in range(5):
            s.record_write(100, 100 * FB, "build", i, 0)
        direct = response_time(s, HDD, 0, use_fs_cache=False)
        cached = response_time(s, HDD, 0, use_fs_cache=True, cache_frames=1024)
        assert cached == pytest.approx(direct, rel=0.15)
