"""Shape tests for the experiment harnesses — each asserts the paper's
qualitative findings at reduced scale (absolute numbers are scale-bound,
orderings and crossovers are not)."""
import pandas as pd
import pytest

from repro.core.join import DynamicHybridHashJoin
from repro.experiments.fig12 import fig12
from repro.experiments.fig13 import fig13a, fig13b, victim_experiment
from repro.experiments.fig345 import fig3, fig4, fig5, lower_bound_summary
from repro.experiments.fig678 import fig6_append, fig7_first_fit, fig8_random
from repro.experiments.fig9 import ALGORITHMS, fig9
from repro.experiments.fig1011 import fig10, fig11
from repro.experiments.runner import avg_record_bytes, records_for_ratio
from repro.experiments.table1 import PAPER_TABLE1, table1


@pytest.fixture
def operators(monkeypatch):
    """Every DynamicHybridHashJoin constructed while the test runs."""
    made = []
    init = DynamicHybridHashJoin.__init__

    def counting_init(self, cfg):
        init(self, cfg)
        made.append(self)

    monkeypatch.setattr(DynamicHybridHashJoin, "__init__", counting_init)
    return made


class TestTable1:
    def test_every_row_matches_paper(self):
        df = table1()
        assert bool(df["match"].all())
        assert len(df) == len(PAPER_TABLE1) == 8

    def test_columns(self):
        assert list(table1().columns) == [
            "build_size_mb", "paper_partitions", "our_partitions", "match"]


class TestFig345:
    @pytest.fixture(scope="class")
    def df3(self):
        return fig3(input_sizes_mb=(512, 2048, 8192),
                    partition_counts=(2, 4, 8, 20, 64))

    def test_fig3_lower_bound_claim(self, df3):
        """§4 claim: P=2 spills ~3× more than P=20 on big inputs."""
        s = lower_bound_summary(df3)
        big = s[s.input_mb >= 2048]
        assert (big["p2_over_p20"] >= 2.0).all()

    def test_fig3_spill_grows_with_input(self, df3):
        at20 = df3[df3.partitions == 20].set_index("input_mb")["total_spill_mb"]
        assert at20[8192] > at20[2048] > at20[512]

    def test_fig4_accurate_rounds_help_where_p_is_small(self):
        """Paper Fig 4: recomputing P per round mainly rescues small
        first-round P; the flat region is unchanged."""
        kw = dict(input_sizes_mb=(2048, 8192), partition_counts=(2, 4, 8))
        f3 = fig3(**kw).set_index(["input_mb", "partitions"])["total_spill_mb"]
        f4 = fig4(**kw).set_index(["input_mb", "partitions"])["total_spill_mb"]
        for size in (2048, 8192):
            assert f4[(size, 2)] <= f3[(size, 2)] / 2   # big win at P=2
        assert f4.sum() <= f3.sum()                     # net win overall

    def test_fig5_utilization_at_20(self):
        df5 = fig5(input_sizes_mb=(256, 512, 1024, 2048), partition_counts=(20,))
        assert (df5["memory_utilization"] >= 0.78).all()


class TestFig678:
    def test_append_fullness_monotone_at_10pct(self):
        df = fig6_append(ks=(1, 4, 8), pcts_large=(0.1,), n=1500)
        fullness = df.sort_values("param")["avg_frame_fullness"].tolist()
        assert fullness[0] <= fullness[1] <= fullness[2] + 1e-9

    def test_append_search_effort_grows_with_k(self):
        df = fig6_append(ks=(1, 4, 8), pcts_large=(0.1,), n=1500)
        searched = df.sort_values("param")["frames_searched"].tolist()
        assert searched == sorted(searched)

    def test_90pct_large_insensitive_to_param(self):
        """Paper: with 90% large records all parameters give ~equal fullness."""
        df = fig6_append(ks=(1, 8), pcts_large=(0.9,), n=1500)
        vals = df["avg_frame_fullness"].tolist()
        assert vals[0] == pytest.approx(vals[1], abs=0.02)

    def test_first_fit_param_sweep_runs(self):
        df = fig7_first_fit(params=(0.1, 1.0), pcts_large=(0.1,), n=1000)
        assert len(df) == 2
        assert (df["avg_frame_fullness"] > 0.5).all()

    def test_random_more_coverage_more_search(self):
        df = fig8_random(params=(0.1, 0.5), pcts_large=(0.1,), n=1000)
        by = df.set_index("param")["frames_searched"]
        assert by[0.5] > by[0.1]


class TestFig9:
    @pytest.fixture(scope="class")
    def df(self):
        return fig9(n=6000)

    def test_all_six_algorithms(self, df):
        assert len(df) == 6

    def test_best_fit_searches_most(self, df):
        by = df.set_index("algorithm")["frames_searched"]
        assert by["best-fit"] == by.max()

    def test_best_fit_slowest_on_every_device(self, df):
        for dev in ("hdd", "ssd", "ebs"):
            by = df.set_index("algorithm")[f"time_{dev}_s"]
            assert by["best-fit"] == by.max()

    def test_append8_cheapest_search_among_exhaustive(self, df):
        by = df.set_index("algorithm")["frames_searched"]
        assert by["append(8)"] < by["best-fit"]
        assert by["append(8)"] < by["first-fit"]

    def test_small_records_high_fullness(self, df):
        """Paper Fig 9a: all algorithms reach high, similar fullness —
        except Random(10%) whose coverage suffers at reduced scale."""
        others = df[df.algorithm != "random(10%)"]["avg_frame_fullness"]
        assert (others > 0.85).all()

    def test_hdd_slowest_device(self, df):
        assert (df["time_hdd_s"] >= df["time_ssd_s"]).all()
        assert (df["time_hdd_s"] >= df["time_ebs_s"]).all()

    def test_one_operator_per_algorithm(self, operators):
        # fullness comes from the run's own stats, not a second build
        fig9(n=500)
        assert len(operators) == len(ALGORITHMS)


class TestFig1011:
    @pytest.fixture(scope="class")
    def df11(self):
        return fig11(n_bytes_target=6 << 20, pcts_large=(0.1, 0.9))

    def test_fullness_drops_with_more_large_records(self, df11):
        mean_by_pct = df11.groupby("pct_large")["avg_frame_fullness"].mean()
        assert mean_by_pct[0.1] > mean_by_pct[0.9]

    def test_90pct_fullness_near_paper_value(self, df11):
        """Paper Fig 11a: fullness ≈60% when 90% of records are large."""
        v = df11[df11.pct_large == 0.9]["avg_frame_fullness"].mean()
        assert 0.5 < v < 0.75

    def test_one_operator_per_algorithm_and_pct(self, operators):
        fig10(n_bytes_target=1 << 20, pcts_large=(0.1, 0.9))
        assert len(operators) == len(ALGORITHMS) * 2

    def test_3large_fuller_than_1large(self):
        a = fig10(n_bytes_target=4 << 20, pcts_large=(0.9,))
        b = fig11(n_bytes_target=4 << 20, pcts_large=(0.9,))
        assert a["avg_frame_fullness"].mean() > b["avg_frame_fullness"].mean()

    def test_best_fit_worst_response(self, df11):
        for pct, grp in df11.groupby("pct_large"):
            by = grp.set_index("algorithm")["time_hdd_s"]
            assert by["best-fit"] == by.max()


class TestFig12:
    @pytest.fixture(scope="class")
    def df(self):
        return fig12(memory_frames=64, ratios=(1.2, 2.0, 10.0), cache_frames=256)

    def test_ngns_more_random_writes(self, df):
        for ratio, grp in df.groupby("ratio"):
            by = grp.set_index("growth")
            assert by.loc["ng-ns", "rand_write_ops"] > by.loc["g-s", "rand_write_ops"]

    def test_gs_more_sequential_writes(self, df):
        for ratio, grp in df.groupby("ratio"):
            by = grp.set_index("growth")
            assert by.loc["g-s", "seq_write_ops"] >= by.loc["ng-ns", "seq_write_ops"]

    def test_similar_total_volume(self, df):
        """Paper Fig 12-d/h: both policies write ~the same amount."""
        for ratio, grp in df.groupby("ratio"):
            by = grp.set_index("growth")["total_frames_written"]
            assert by.max() <= 1.35 * by.min()

    def test_direct_io_favors_gs_at_scale(self, df):
        big = df[df.ratio >= 10].set_index("growth")
        assert big.loc["g-s", "time_hdd_direct_s"] < \
            big.loc["ng-ns", "time_hdd_direct_s"]

    def test_fs_cache_closes_the_gap(self, df):
        """Paper Fig 12-a: with the cache the two policies are ~equal."""
        big = df[df.ratio >= 10].set_index("growth")
        gap_direct = abs(big.loc["g-s", "time_hdd_direct_s"]
                         - big.loc["ng-ns", "time_hdd_direct_s"])
        gap_cached = abs(big.loc["g-s", "time_hdd_cached_s"]
                         - big.loc["ng-ns", "time_hdd_cached_s"])
        assert gap_cached < gap_direct

    def test_more_data_more_writes(self, df):
        for growth, grp in df.groupby("growth"):
            by_ratio = grp.sort_values("ratio")["total_frames_written"].tolist()
            assert by_ratio == sorted(by_ratio)


FAST_POLICIES = ("largest-size", "largest-records", "smallest-size",
                 "median-size", "random", "half-empty")


class TestFig13:
    @pytest.fixture(scope="class")
    def da(self):
        return fig13a(memory_frames=128, ratios=(1.2, 4.0), policies=FAST_POLICIES)

    @pytest.fixture(scope="class")
    def db(self):
        return fig13b(memory_frames=128, ratios=(1.2, 4.0), policies=FAST_POLICIES)

    def test_ratios_at_least_one(self, da, db):
        assert (da["spill_over_ideal"] >= 0.99).all()
        assert (db["spill_over_ideal"] >= 0.99).all()

    def test_no_skew_policies_similar(self, da):
        """Paper Fig 13-a: uniform keys → all policies behave ~the same."""
        for ratio, grp in da.groupby("ratio"):
            vals = grp["spill_over_ideal"]
            assert vals.max() <= 1.35 * vals.min()

    def test_largest_overspills_near_memory_under_skew(self, db):
        """Paper Fig 13-b: largest-size overspills when data ≈ memory."""
        near = db[db.ratio == 1.2].set_index("policy")["spill_over_ideal"]
        assert near["largest-size"] >= near["smallest-size"]

    def test_largest_wins_at_high_ratio(self, da):
        """§7.2: data ≫ memory → largest-size among the best."""
        far = da[da.ratio == 4.0].set_index("policy")["spill_over_ideal"]
        assert far["largest-size"] <= far.min() * 1.10

    def test_largest_spills_fewer_partitions(self, db):
        far = db[db.ratio == 4.0].set_index("policy")["partitions_spilled"]
        assert far["largest-size"] <= far["smallest-size"]


class TestVictimVariableSizes:
    def test_largest_policies_spill_least_with_large_records(self):
        """Paper Figs 14/15: largest-size/records spill least with 1-large."""
        df = victim_experiment("1-large", 0.5, skew=False, memory_frames=96,
                               ratios=(3.0,), policies=FAST_POLICIES)
        by = df.set_index("policy")["spilled_bytes"]
        assert by["largest-size"] <= by.median()

    def test_variable_sizes_spread_policies(self):
        """Paper: more large records → bigger spread between policies."""
        small = victim_experiment("all-small", 0.0, skew=False, memory_frames=96,
                                  ratios=(2.0,), policies=FAST_POLICIES)
        large = victim_experiment("1-large", 0.9, skew=False, memory_frames=96,
                                  ratios=(2.0,), policies=FAST_POLICIES)

        def spread(df):
            v = df["spill_over_ideal"]
            return v.max() / v.min()

        assert spread(large) >= spread(small) * 0.9  # at least comparable


class TestRunnerHelpers:
    def test_records_for_ratio(self):
        # 2 × 100 frames of 32 KiB, in records of 500 B
        n = records_for_ratio(2.0, 100, 500)
        assert n == round(2.0 * 100 * 32 * 1024 / 500) == 13107

    @pytest.mark.parametrize("dataset,pct,expect", [
        ("all-small", 0.0, 1100.0),
        ("1-large", 1.0, 19 * 1024),
        ("3-large", 0.5, 0.5 * 9 * 1024 + 0.5 * 1100),
    ])
    def test_avg_record_bytes(self, dataset, pct, expect):
        assert avg_record_bytes(dataset, pct) == pytest.approx(expect)
