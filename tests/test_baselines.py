"""The block-nested-loop join (§8.1) run on its own, as a baseline, must
agree with the naive reference result.

Setting the recursion guard ``MAX_LEVELS`` to -1 sends the whole input
of round 0 straight to the operator's bail-out BNLJ, so these cases
exercise exactly the code the operator falls back to, with no hashing
round in front of it.
"""
import pytest

import repro.core.join
from repro.core.join import DynamicHybridHashJoin, HHJConfig

from tests.util import make_records, make_skewed_records, naive_hash_join

FRAME = 1024


def inputs(seed=0):
    build = make_records(300, key_range=120, lo=100, hi=300, seed=seed, tag="b")
    probe = make_records(600, key_range=120, lo=100, hi=300, seed=seed + 1, tag="p")
    return build, probe


@pytest.fixture(autouse=True)
def bnlj_only(monkeypatch):
    monkeypatch.setattr(repro.core.join, "MAX_LEVELS", -1)


def bnlj(memory):
    return DynamicHybridHashJoin(HHJConfig(memory_frames=memory, frame_bytes=FRAME))


def run_bnlj(build, probe, memory):
    op = bnlj(memory)
    pairs = op.run_collect(build, probe)
    assert op.stats.bnlj_rounds == 1 and op.stats.rounds == 0
    return pairs


BASELINES = {
    "bnlj": run_bnlj,
}


@pytest.mark.parametrize("name", sorted(BASELINES.keys()))
@pytest.mark.parametrize("memory", [6, 16, 64, 1024])
class TestBaselineCorrectness:
    def test_matches_naive(self, name, memory):
        build, probe = inputs()
        got = BASELINES[name](build, probe, memory)
        assert sorted(got) == sorted(naive_hash_join(build, probe))

    def test_skewed_inputs(self, name, memory):
        build = make_skewed_records(250, hot_keys=4, lo=100, hi=300, seed=7)
        probe = make_records(250, key_range=300, lo=100, hi=300, seed=8)
        got = BASELINES[name](build, probe, memory)
        assert sorted(got) == sorted(naive_hash_join(build, probe))


@pytest.mark.parametrize("name", sorted(BASELINES.keys()))
class TestBaselineEdges:
    def test_empty_inputs(self, name):
        assert BASELINES[name]([], [], 16) == []

    def test_empty_probe(self, name):
        build, _ = inputs()
        assert BASELINES[name](build, [], 16) == []

    def test_cross_product_of_duplicates(self, name):
        build = [(1, 200, f"b{i}") for i in range(10)]
        probe = [(1, 200, f"p{i}") for i in range(15)]
        assert len(BASELINES[name](build, probe, 16)) == 150


class TestBaselineIOShapes:
    def test_bnlj_multiple_blocks(self):
        build, probe = inputs()
        op = bnlj(6)
        op.run_collect(build, probe)
        s = op.stats
        # comparisons > probe cardinality ⇒ more than one block scanned
        assert s.comparisons > len(probe)
        assert s.total_bytes_spilled == 0
