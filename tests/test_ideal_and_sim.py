"""Tests for the ideal-spill reference (§7.1) and the Fig 3/4/5 simulator."""
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ideal import ideal_spill_bytes, ideal_spill_frames, spill_ratio
from repro.core import sim_partitions
from repro.core.join import DynamicHybridHashJoin, HHJConfig
from repro.core.partitions import shapiro_num_partitions
from repro.core.sim_partitions import (
    MAX_DEPTH,
    RoundResult,
    in_memory_after_first_round,
    simulate_build_round,
    simulate_join,
)


def frame_by_frame_round(build_frames: int, memory_frames: int, p: int) -> RoundResult:
    """The simulator's build round stepped one frame at a time: the
    oracle that :func:`simulate_build_round`'s cycle steps must equal."""
    p = min(p, memory_frames)
    sizes = [0] * p
    routed = [0] * p
    written = [0] * p
    spilled = [False] * p
    allocated = 0
    for i in range(build_frames):
        pid = i % p
        routed[pid] += 1
        if spilled[pid]:
            written[pid] += 1
            continue
        while allocated >= memory_frames:
            victim = max((q for q in range(p) if not spilled[q] and sizes[q] > 0),
                         key=lambda q: (sizes[q], -q), default=None)
            if victim is None:
                break
            written[victim] += sizes[victim]
            allocated -= sizes[victim] - 1
            spilled[victim] = True
            sizes[victim] = 0
        if spilled[pid]:
            written[pid] += 1
            continue
        sizes[pid] += 1
        allocated += 1
    return RoundResult(
        resident_frames=sum(sizes[q] for q in range(p) if not spilled[q]),
        build_spilled=sum(written),
        spilled_parts=[routed[q] for q in range(p) if spilled[q]],
        num_spilled=sum(spilled),
    )


def every_round_join(build_frames: int, memory_frames: int, first_round_p: int,
                     accurate_later_rounds: bool):
    """:func:`simulate_join` with every round simulated again, the oracle
    for its table of rounds: (build_spill, probe_spill) frames and the
    number of rounds simulated."""
    def join(b, pr, p, depth):
        if b <= 0 or pr <= 0 or b <= memory_frames or depth >= MAX_DEPTH:
            return 0, 0, 0
        res = simulate_build_round(b, memory_frames, p)
        probe_share = [round(pr * part / b) for part in res.spilled_parts]
        build, probe, rounds = res.build_spilled, sum(probe_share), 1
        for part_b, part_pr in zip(res.spilled_parts, probe_share):
            next_p = (shapiro_num_partitions(part_b, memory_frames)
                      if accurate_later_rounds else p)
            child = join(part_b, part_pr, next_p, depth + 1)
            build, probe, rounds = build + child[0], probe + child[1], rounds + child[2]
        return build, probe, rounds

    return join(build_frames, build_frames, first_round_p, 0)


class TestIdealSpill:
    def test_fits_in_memory_no_spill(self):
        assert ideal_spill_frames(50, 128, fudge=1.4) == 0.0

    def test_boundary_with_fudge(self):
        # 92 * 1.4 = 128.8 > 128 → spills; 91 * 1.4 = 127.4 ≤ 128 → not
        assert ideal_spill_frames(91, 128, fudge=1.4) == 0.0
        assert ideal_spill_frames(92, 128, fudge=1.4) > 0.0

    def test_monotone_in_build_size(self):
        vals = [ideal_spill_frames(r, 128, fudge=1.4) for r in range(100, 2000, 50)]
        assert vals == sorted(vals)

    def test_large_build_spills_most(self):
        spill = ideal_spill_frames(1280, 128, fudge=1.0)
        assert 1280 - 128 <= spill <= 1280

    def test_bytes_wrapper_scales(self):
        fb = 32 * 1024
        assert ideal_spill_bytes(256 * fb, 128, fb, fudge=1.4) == \
            ideal_spill_frames(256, 128, fudge=1.4) * fb

    def test_ratio_no_spill_everywhere(self):
        assert spill_ratio(0, 100, 128, 1024, fudge=1.4) == 1.0

    def test_ratio_overspill_when_ideal_zero(self):
        assert spill_ratio(10 * 1024, 100, 128, 1024, fudge=1.4) > 1.0

    def test_ratio_normal_case(self):
        fb = 1024
        ideal = ideal_spill_bytes(300 * fb, 128, fb, fudge=1.0)
        assert spill_ratio(int(ideal), 300 * fb, 128, fb, fudge=1.0) == \
            pytest.approx(1.0)


class TestSimulateBuildRound:
    def test_fits_entirely(self):
        res = simulate_build_round(100, 128, 20)
        assert res.build_spilled == 0
        assert res.num_spilled == 0
        assert res.resident_frames == 100

    def test_conservation(self):
        r = 500
        res = simulate_build_round(r, 128, 20)
        assert res.resident_frames + res.build_spilled == r

    def test_spilled_parts_sum_to_routed(self):
        res = simulate_build_round(500, 128, 20)
        # each spilled partition routed ~R/P frames
        for part in res.spilled_parts:
            assert part == pytest.approx(500 / 20, abs=2)

    def test_more_partitions_never_worse_at_large_inputs(self):
        few = simulate_build_round(4096, 128, 4).build_spilled
        many = simulate_build_round(4096, 128, 64).build_spilled
        assert many <= few

    def test_needs_two_partitions(self):
        with pytest.raises(ValueError):
            simulate_build_round(100, 128, 1)

    def test_partitions_clamped_to_memory(self):
        res = simulate_build_round(300, 16, 64)  # P > M gets clamped
        assert res.num_spilled <= 16


class TestCycleStepsMatchFrameSteps:
    """Whole-cycle steps give the frame-by-frame round field for field,
    including P > memory (clamped) and partial last cycles."""

    BUILDS = [*range(301), 512, 1000, 2048, 4096, 5000, 8191, 8192]
    PS = [2, 3, 4, 5, 7, 8, 16, 17, 20, 31, 32, 33, 64, 127, 128]

    @pytest.mark.parametrize("memory", [3, 4, 7, 16, 32, 128])
    def test_grid(self, memory):
        for p in self.PS:
            for b in self.BUILDS:
                assert simulate_build_round(b, memory, p) == \
                    frame_by_frame_round(b, memory, p), (b, memory, p)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3000), st.integers(3, 200), st.integers(2, 256))
    def test_random(self, build, memory, p):
        assert simulate_build_round(build, memory, p) == \
            frame_by_frame_round(build, memory, p)


class TestSimulateJoin:
    def test_no_spill_when_fits(self):
        assert simulate_join(100, 128, 20) == (0, 0)

    def test_spill_positive_when_oversized(self):
        b, p = simulate_join(512, 128, 20)
        assert b > 0 and p > 0

    def test_fig3_shape_small_p_much_worse(self):
        """§4: at 8 GB input, P=2 spills ≥2× more than P=20 (paper: ~3×)."""
        p2 = sum(simulate_join(8192, 128, 2))
        p20 = sum(simulate_join(8192, 128, 20))
        assert p2 >= 2 * p20

    def test_fig3_flat_region_small_inputs(self):
        """§4: input ≤ 2 GB → partition count barely matters (≤35% spread)."""
        vals = [sum(simulate_join(1024, 128, p)) for p in (8, 16, 20, 32, 64)]
        assert max(vals) <= 1.35 * min(vals)

    def test_fig4_accurate_rounds_never_worse(self):
        for size in (512, 2048, 8192):
            fixed = sum(simulate_join(size, 128, 4, accurate_later_rounds=False))
            accurate = sum(simulate_join(size, 128, 4, accurate_later_rounds=True))
            assert accurate <= fixed


@pytest.fixture
def round_calls(monkeypatch):
    """The calls :func:`simulate_join` makes to ``simulate_build_round``,
    counted by their arguments."""
    calls = Counter()

    def counted(*args):
        calls[args] += 1
        return simulate_build_round(*args)

    monkeypatch.setattr(sim_partitions, "simulate_build_round", counted)
    return calls


class TestSimulateJoinRoundTable:
    @pytest.mark.parametrize("accurate", [False, True])
    @pytest.mark.parametrize("size", [512, 2048, 8192])
    @pytest.mark.parametrize("p", [2, 4, 8, 20, 64])
    def test_each_distinct_round_is_simulated_once(self, round_calls, size, p, accurate):
        got = simulate_join(size, 128, p, accurate_later_rounds=accurate)
        build, probe, rounds = every_round_join(size, 128, p, accurate)
        assert got == (build, probe)
        assert set(round_calls.values()) == {1}
        assert sum(round_calls.values()) <= rounds

    def test_rounds_repeat_in_a_deep_join(self, round_calls):
        simulate_join(8192, 128, 20)
        assert sum(round_calls.values()) < every_round_join(8192, 128, 20, False)[2]

    def test_a_call_keeps_no_rounds_for_the_next(self, round_calls):
        simulate_join(2048, 128, 8)
        simulate_join(2048, 128, 8)
        assert set(round_calls.values()) == {2}


class TestSimulatorAgreesWithTheOperator:
    """The §4 simulator and the operator model one join, so their total
    spill must agree where the simulator's round-robin routing is a fair
    model of hashing: P >= 20 at 1 MB frames and M = 128 (the Fig 4
    setting). At small P the two part at knife-edge points (EXPERIMENTS.md:
    P = 8 spills 0.79x the simulator at 2 GB)."""

    @pytest.mark.parametrize("p", [20, 32])
    @pytest.mark.parametrize("input_mb", [256, 512, 1024, 2048, 4096])
    def test_total_spill_within_ten_percent(self, p, input_mb):
        keys = list(range(input_mb))
        random.Random(0).shuffle(keys)
        records = [(k, 1, None) for k in keys]       # one record fills a frame
        op = DynamicHybridHashJoin(HHJConfig(memory_frames=128, frame_bytes=1,
                                             num_partitions=p, growth="ng-ns",
                                             victim="largest-size"))
        assert len(op.run_collect(records, records)) == input_mb
        simulated = sum(simulate_join(input_mb, 128, p, accurate_later_rounds=True))
        assert 0.9 <= op.stats.total_frames_spilled / simulated <= 1.1


class TestFig5Metric:
    def test_memory_utilization_peaks_near_20(self):
        """§4: at 1 GB / 128 MB, utilization ≥78% at P=20."""
        util = in_memory_after_first_round(1024, 128, 20) / 128
        assert util >= 0.78

    def test_two_partitions_keep_nothing_when_huge(self):
        assert in_memory_after_first_round(4096, 128, 2) == 0

    def test_never_exceeds_memory(self):
        for p in (2, 8, 20, 64):
            assert in_memory_after_first_round(2048, 128, p) <= 128
