"""Tests for the Wisconsin-lite data generators (paper §5.2, Table 2)."""
import numpy as np
import pytest

from repro.synth_data import (
    NORMAL_SKEW_SIGMA_FRACTION,
    WISCONSIN_SIZES,
    normal_skew_ints,
    wisconsin_record_stream,
)


class TestSizeDistributions:
    def test_table2_configurations_present(self):
        assert set(WISCONSIN_SIZES) == {"all-small", "1-large", "3-large"}
        assert WISCONSIN_SIZES["1-large"]["large"] == (18 * 1024, 20 * 1024)
        assert WISCONSIN_SIZES["3-large"]["large"] == (8 * 1024, 10 * 1024)
        assert WISCONSIN_SIZES["all-small"]["large"] is None

    def test_all_small_within_bounds(self):
        recs = wisconsin_record_stream(n=2000, dataset="all-small", seed=1)
        sizes = [s for _, s, _ in recs]
        assert min(sizes) >= 700
        assert max(sizes) <= 1500

    @pytest.mark.parametrize("dataset,lo,hi", [
        ("1-large", 18 * 1024, 20 * 1024),
        ("3-large", 8 * 1024, 10 * 1024),
    ])
    @pytest.mark.parametrize("pct", [0.1, 0.5, 0.9])
    def test_large_fraction_approximate(self, dataset, lo, hi, pct):
        recs = wisconsin_record_stream(n=5000, dataset=dataset, pct_large=pct,
                                       seed=2)
        n_large = sum(1 for _, s, _ in recs if s >= lo)
        assert n_large / 5000 == pytest.approx(pct, abs=0.03)
        large_sizes = [s for _, s, _ in recs if s >= lo]
        assert max(large_sizes) <= hi

    def test_large_records_rejected_for_all_small(self):
        with pytest.raises(ValueError):
            wisconsin_record_stream(n=10, dataset="all-small", pct_large=0.5)

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            wisconsin_record_stream(n=10, dataset="2-large")

    def test_three_large_fit_one_frame(self):
        # Table 2 naming: three 8–10 KB records fit a 32 KB frame
        assert 3 * 10 * 1024 <= 32 * 1024
        assert 2 * 18 * 1024 > 32 * 1024  # but only one 18–20 KB record


class TestKeys:
    def test_unique_keys_are_a_permutation(self):
        recs = wisconsin_record_stream(n=1000, dataset="all-small", seed=3)
        keys = sorted(k for k, _, _ in recs)
        assert keys == list(range(1, 1001))

    def test_determinism(self):
        a = wisconsin_record_stream(n=500, dataset="1-large", pct_large=0.5, seed=9)
        b = wisconsin_record_stream(n=500, dataset="1-large", pct_large=0.5, seed=9)
        assert a == b

    def test_seed_changes_stream(self):
        a = wisconsin_record_stream(n=500, dataset="all-small", seed=1)
        b = wisconsin_record_stream(n=500, dataset="all-small", seed=2)
        assert a != b


class TestNormalSkew:
    def test_range_clipped(self):
        vals = normal_skew_ints(n=10000, cardinality=985_000, seed=4)
        assert vals.min() >= 1
        assert vals.max() <= 985_000

    def test_paper_sigma_fraction(self):
        # σ = 8208 at cardinality 985 000 (paper §7.1.1)
        assert NORMAL_SKEW_SIGMA_FRACTION == pytest.approx(8208 / 985_000)

    def test_mass_concentrates_like_paper(self):
        """Paper: ~99% of values come from ~5% of the domain."""
        card = 100_000
        vals = normal_skew_ints(n=50_000, cardinality=card, seed=5)
        lo, hi = np.percentile(vals, [0.5, 99.5])
        assert (hi - lo) / card < 0.06

    def test_centered_at_half_cardinality(self):
        card = 100_000
        vals = normal_skew_ints(n=50_000, cardinality=card, seed=6)
        assert vals.mean() == pytest.approx(card / 2, rel=0.02)

    def test_skewed_stream_reuses_normal_ints(self):
        recs = wisconsin_record_stream(n=5000, dataset="all-small", skew=True,
                                       seed=7)
        keys = np.array([k for k, _, _ in recs])
        assert keys.mean() == pytest.approx(2500, rel=0.05)
        assert len(np.unique(keys)) < 1000   # heavy repetition
