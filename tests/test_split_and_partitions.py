"""Tests for the split-function family and the §4 partition-count model."""
import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitions import (
    DEFAULT_NUM_PARTITIONS,
    eq2_disk_partitions,
    robust_num_partitions,
    shapiro_num_partitions,
)
from repro.core.split import split_partition, stable_hash
from repro.experiments.table1 import PAPER_TABLE1


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(42, 7) == stable_hash(42, 7)

    def test_seed_changes_value(self):
        assert stable_hash(42, 1) != stable_hash(42, 2)

    @pytest.mark.parametrize("a,b", [
        (1, 1.0), (7, np.int64(7)), (3, np.int32(3)), (True, 1),
    ])
    def test_numeric_normalization(self, a, b):
        assert stable_hash(a, 5) == stable_hash(b, 5)

    @pytest.mark.parametrize("key", ["abc", b"abc", (1, "x"), 3.5, None,
                                     float("nan"), float("inf"), float("-inf")])
    def test_non_int_keys_hash(self, key):
        h = stable_hash(key, 0)
        assert isinstance(h, int) and h >= 0

    def test_string_hash_is_process_stable(self):
        # CRC-based: a fixed literal must map to a fixed value forever
        assert stable_hash("customer", 0) == stable_hash("customer", 0)

    def test_distribution_roughly_uniform(self):
        p = 16
        counts = collections.Counter(split_partition(range(10000), p))
        assert min(counts.values()) > 10000 / p * 0.7
        assert max(counts.values()) < 10000 / p * 1.3


class TestSplitPartition:
    @pytest.mark.parametrize("p", [1, 2, 5, 20, 128])
    def test_in_range(self, p):
        assert all(0 <= pid < p for pid in split_partition(range(200), p))

    def test_levels_decorrelate(self):
        # records in one level-0 partition must spread at level 1
        p = 8
        keys = [k for k, pid in zip(range(5000), split_partition(range(5000), p, 0))
                if pid == 3]
        level1 = collections.Counter(split_partition(keys, p, 1))
        assert len(level1) == p     # all buckets hit

    def test_invalid_partitions(self):
        for keys in ([1], []):
            with pytest.raises(ValueError):
                split_partition(keys, 0)


def reference_split(keys, p, level):
    """The batch kernel's definition, one scalar ``stable_hash`` per key."""
    return [stable_hash(k, 0xA5A5 + level) % p for k in keys]


#: every kind of key the batch kernel must route as ``stable_hash`` does:
#: ints inside and far outside int64, bools, numpy ints, integral,
#: fractional and non-finite floats, digit and other strings, bytes, tuples
ANY_KEY = st.one_of(
    st.integers(-2**63, 2**63 - 1),
    st.sampled_from([2**63 - 1, -2**63, 2**63, -2**63 - 1, 2**64 - 1, 2**64,
                     2**64 + 7, -2**64, 2**100, -2**100]),
    st.integers(-2**200, 2**200),
    st.booleans(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-2**60, 2**60).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e300, -0.0]),
    st.integers(-10**30, 10**30).map(str),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.tuples(st.integers(-5, 5), st.text(max_size=3)),
    st.none(),
)


class TestBatchRouting:
    """``split_partition`` on a batch equals the scalar reference per key."""

    @settings(max_examples=300, deadline=None)
    @given(keys=st.lists(ANY_KEY, max_size=40), p=st.integers(1, 200),
           level=st.integers(0, 31))
    def test_mixed_batch_equals_scalar_reference(self, keys, p, level):
        assert split_partition(keys, p, level) == reference_split(keys, p, level)

    @settings(max_examples=100, deadline=None)
    @given(keys=st.lists(st.integers(-2**63, 2**63 - 1), max_size=200),
           p=st.integers(1, 2**62), level=st.integers(0, 31))
    def test_int64_batch_equals_scalar_reference(self, keys, p, level):
        assert split_partition(keys, p, level) == reference_split(keys, p, level)

    @pytest.mark.parametrize("keys", [
        [], [2**63], [1, 2**63], [-2**63 - 1, 5], [1, True], [1, 1.0], [1, "1"],
        [np.int64(-1), -1], [float("nan")], [float("inf"), float("-inf")],
    ])
    def test_edge_batches(self, keys):
        for level in range(3):
            assert split_partition(keys, 20, level) == reference_split(keys, 20, level)

    def test_returns_plain_ints(self):
        assert all(type(pid) is int for pid in split_partition([1, "a", 2**70], 7))


#: key → (stable_hash(key, 0), stable_hash(key, 99),
#: [split_partition([key], 20, level) for level in 0, 1, 2]). Fixed values:
#: a change to the hash or to key canonicalisation that moves any of them
#: re-routes records and changes every recorded spill count.
PINNED = [
    (12345, 1392556826130112339, 8559503726909238587, [1, 3, 16]),
    (-987654321, 12105140743925204192, 62478482159529102, [6, 19, 11]),
    (np.int64(42), 12685478797755953348, 2297561495080169618, [5, 9, 18]),
    (np.int32(-7), 18321862554912967283, 6469942628922545774, [1, 17, 6]),
    (7.0, 12203283169625229286, 338660445665408356, [6, 5, 8]),
    (3.5, 499939162892422998, 17632826407236839899, [14, 15, 8]),
    (True, 10085541486260455347, 7198000326571374426, [13, 16, 8]),
    ("customer", 9921888031941842643, 2750218495609911179, [8, 0, 11]),
    ("12", 8069366797459844283, 17205017985999294213, [17, 12, 12]),
    (b"abc", 5649509083041998794, 11063719867595211943, [13, 15, 16]),
    ((1, "x"), 751944304721000229, 6209797349543861011, [13, 12, 17]),
]


class TestPinnedValues:
    @pytest.mark.parametrize("key,h0,h99,splits", PINNED,
                             ids=[repr(k) for k, *_ in PINNED])
    def test_hash_and_split_values(self, key, h0, h99, splits):
        assert stable_hash(key, 0) == h0
        assert stable_hash(key, 99) == h99
        assert [split_partition([key], 20, level)[0] for level in range(3)] == splits

    @pytest.mark.parametrize("level", range(3))
    def test_split_values_as_one_batch(self, level):
        keys = [key for key, *_ in PINNED]
        assert split_partition(keys, 20, level) == [s[level] for *_, s in PINNED]


class TestEq2:
    @pytest.mark.parametrize("build_mb,expected", sorted(PAPER_TABLE1.items()))
    def test_table1_exact(self, build_mb, expected):
        assert shapiro_num_partitions(build_mb, 128) == expected

    def test_raw_eq2_can_be_nonpositive(self):
        assert eq2_disk_partitions(10, 128) <= 0

    def test_clamped_to_two(self):
        assert shapiro_num_partitions(1, 128) == 2

    def test_clamped_to_memory(self):
        assert shapiro_num_partitions(10**6, 16) == 16

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            eq2_disk_partitions(100, 1)

    def test_monotone_in_build_size(self):
        vals = [shapiro_num_partitions(r, 128) for r in range(64, 8192, 64)]
        assert vals == sorted(vals)


class TestRobustPolicy:
    def test_unknown_build_uses_default(self):
        assert robust_num_partitions(1024) == DEFAULT_NUM_PARTITIONS == 20

    def test_unknown_build_capped_by_memory(self):
        assert robust_num_partitions(8) == 8

    def test_known_build_lower_bounded(self):
        # Eq2 would give 2 for a small build; the lower bound lifts it to 20
        assert robust_num_partitions(1024, build_frames=100) == 20

    def test_known_build_above_lower_bound(self):
        p = robust_num_partitions(128, build_frames=8192)
        assert p == shapiro_num_partitions(8192, 128) == 83

    def test_never_exceeds_memory(self):
        assert robust_num_partitions(10, build_frames=10**6) == 10

    def test_at_least_two(self):
        assert robust_num_partitions(3, build_frames=1) >= 2
