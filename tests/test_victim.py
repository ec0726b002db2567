"""Unit tests for the 13 §7 victim-selection policies."""
import pytest

from repro.core.stats import JoinStats
from repro.frames import BufferPool, Partition
from repro.victim import NAMES, VictimContext, make_policy
from repro.victim.policies import (
    HalfEmpty,
    LargestSize,
    LowHigh,
    RandomVictim,
    SmallestRecords,
)

from tests.util import spill_files

CAP = 1000


def part(pid, record_sizes, frame_bytes=CAP):
    """Partition with the given record sizes, one frame per record chunk,
    funded by a pool of its own."""
    p = Partition(pid, frame_bytes, BufferPool(64), spill_files(JoinStats(frame_bytes)))
    for s in record_sizes:
        i = next((i for i, free in enumerate(p.free) if free >= s), None)
        if i is None:
            p.pool.allocate(1)
            p.frames.append([])
            p.free.append(frame_bytes)
            i = -1
        p.frames[i].append((None, s, None))
        p.free[i] -= s
    return p


def ctx(incoming=0, spilled=0, total=8):
    return VictimContext(incoming_pid=incoming, num_spilled=spilled,
                        num_partitions=total)


ALL = sorted(NAMES)

EXPECTED_NAMES = {
    "largest-size", "largest-records", "largest-size-self-victim",
    "median-size", "median-records", "smallest-size", "smallest-records",
    "smallest-size-self-victim", "random", "half-empty",
    "least-fragmentation", "low-high", "record-size-ratio",
}


def three_parts():
    # p0: 2 records, 1600 B; p1: 4 records, 2800 B; p2: 1 record, 900 B
    return [part(0, [800, 800]), part(1, [700, 700, 700, 700]), part(2, [900])]


class TestRegistry:
    def test_thirteen_policies(self):
        assert set(NAMES) == EXPECTED_NAMES
        assert len(NAMES) == 13

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_policy("biggest")

    @pytest.mark.parametrize("name", ALL)
    def test_chooses_a_candidate(self, name):
        pol = make_policy(name)
        cands = three_parts()
        assert pol.choose(cands, ctx()) in cands


class TestSizeAndRecordPolicies:
    def test_largest_size(self):
        assert make_policy("largest-size").choose(three_parts(), ctx()).pid == 1

    def test_largest_records(self):
        assert make_policy("largest-records").choose(three_parts(), ctx()).pid == 1

    def test_smallest_size(self):
        assert make_policy("smallest-size").choose(three_parts(), ctx()).pid == 2

    def test_smallest_records(self):
        assert make_policy("smallest-records").choose(three_parts(), ctx()).pid == 2

    def test_median_size(self):
        assert make_policy("median-size").choose(three_parts(), ctx()).pid == 0

    def test_median_records(self):
        assert make_policy("median-records").choose(three_parts(), ctx()).pid == 0

    def test_median_of_even_count_is_upper_median(self):
        cands = three_parts() + [part(3, [100])]
        # sizes: 900(p2) < 1600(p0) ... wait 100(p3) < 900(p2) < 1600(p0) < 2800(p1)
        assert make_policy("median-size").choose(cands, ctx()).pid == 0

    def test_ties_break_deterministically(self):
        cands = [part(0, [500]), part(1, [500]), part(2, [500])]
        assert make_policy("largest-size").choose(cands, ctx()).pid == 0
        assert make_policy("smallest-size").choose(cands, ctx()).pid == 0


class TestSelfVictimPolicies:
    def test_self_victim_prefers_incoming(self):
        for name in ("largest-size-self-victim", "smallest-size-self-victim"):
            assert make_policy(name).choose(three_parts(), ctx(incoming=2)).pid == 2

    def test_largest_fallback_when_incoming_absent(self):
        # incoming pid 7 is not among candidates
        assert make_policy("largest-size-self-victim").choose(
            three_parts(), ctx(incoming=7)).pid == 1

    def test_smallest_fallback_when_incoming_absent(self):
        assert make_policy("smallest-size-self-victim").choose(
            three_parts(), ctx(incoming=7)).pid == 2


class TestHalfEmpty:
    def test_optimistic_phase_spills_smallest(self):
        pol = HalfEmpty()
        assert pol.choose(three_parts(), ctx(spilled=0, total=8)).pid == 2

    def test_pessimistic_phase_spills_largest(self):
        pol = HalfEmpty()
        assert pol.choose(three_parts(), ctx(spilled=5, total=8)).pid == 1

    def test_boundary_is_strict_majority(self):
        pol = HalfEmpty()
        # exactly half spilled → still optimistic
        assert pol.choose(three_parts(), ctx(spilled=4, total=8)).pid == 2


class TestLowHigh:
    def test_alternates(self):
        pol = LowHigh()
        cands = three_parts()
        assert pol.choose(cands, ctx()).pid == 2   # smallest first
        assert pol.choose(cands, ctx()).pid == 1   # then largest
        assert pol.choose(cands, ctx()).pid == 2   # smallest again


class TestLeastFragmentation:
    def test_picks_least_fragmented(self):
        # p0 fragmentation: 2 frames * 1000 - 1600 = 400
        # p1: 3 frames (700+700, 700+700... 700*4=2800 in 2800/1000→
        #     frames fit two 700s → 2 frames of 1400 + ... see part())
        cands = three_parts()
        frag = {p.pid: p.fragmentation_bytes for p in cands}
        expect = min(cands, key=lambda p: (p.fragmentation_bytes, p.pid)).pid
        assert make_policy("least-fragmentation").choose(cands, ctx()).pid == expect
        assert len(set(frag.values())) >= 2  # the test is discriminating


class TestRecordSizeRatio:
    def test_among_big_partitions_fewest_records(self):
        # p1 is biggest (2800); 80% threshold = 2240 → pool = {p1} only
        assert make_policy("record-size-ratio").choose(three_parts(), ctx()).pid == 1

    def test_pool_with_two_big_partitions(self):
        a = part(0, [900, 900, 900])        # 2700 B, 3 records
        b = part(1, [950, 950, 950])        # 2850 B, 3 records
        c = part(2, [700, 700, 700, 700])   # 2800 B, 4 records
        # threshold = 0.8*2850 = 2280 → all in pool; fewest records: a (tie a/b → a)
        assert make_policy("record-size-ratio").choose([a, b, c], ctx()).pid == 0


class TestRandomVictim:
    def test_deterministic_with_seed(self):
        a, b = RandomVictim(seed=7), RandomVictim(seed=7)
        cands = three_parts()
        assert [a.choose(cands, ctx()).pid for _ in range(10)] == \
               [b.choose(cands, ctx()).pid for _ in range(10)]

    def test_covers_all_candidates_eventually(self):
        pol = RandomVictim(seed=3)
        cands = three_parts()
        seen = {pol.choose(cands, ctx()).pid for _ in range(100)}
        assert seen == {0, 1, 2}


class TestSmallestRecordsEdge:
    def test_ignores_empty_partitions_when_possible(self):
        empty = part(0, [])
        full = part(1, [500])
        pol = SmallestRecords()
        assert pol.choose([empty, full], ctx()).pid == 1


class TestLargestSizeCountsMemoryOnly:
    def test_spilled_bytes_do_not_count(self):
        a = part(0, [900, 900])
        b = part(1, [800])
        # a flushes everything: in-memory drops to 0
        a.write_out(keep_buffer=False)
        pol = LargestSize()
        assert pol.choose([a, b], ctx()).pid == 1
