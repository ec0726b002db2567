"""Spark-executor integration tests: the Dynamic HHJ operator runs inside
``cogroup(...).applyInPandas`` and every result is checked against DuckDB.

The frame budgets are deliberately tiny so the executor-side operator
actually spills, recurses, and (in one case) bails out — "it ran" is not
the bar; byte-identical results with DuckDB are.
"""
from datetime import date, datetime
from decimal import Decimal

import pytest

from repro import synth_data
from repro.core.join import HHJConfig
from repro.core.spark_join import dynamic_hhj_join
from repro.oracle import assert_equivalent

SF = 0.004


@pytest.fixture(scope="module")
def tpch(spark):
    return {
        "customer": synth_data.customer(spark, sf=SF),
        "orders": synth_data.orders(spark, sf=SF),
        "lineitem": synth_data.lineitem(spark, sf=SF),
        "part": synth_data.part(spark, sf=SF),
    }


def tight_cfg(**kw):
    base = dict(memory_frames=48, frame_bytes=4096, min_partitions=8)
    base.update(kw)
    return HHJConfig(**base)


class TestOracleJoins:
    def test_customer_orders(self, tpch):
        out = dynamic_hhj_join(tpch["customer"], tpch["orders"],
                               "c_custkey", "o_custkey", tight_cfg(),
                               num_spark_partitions=4)
        assert_equivalent(
            out.select("c_custkey", "o_orderkey", "o_totalprice"),
            "SELECT c_custkey, o_orderkey, o_totalprice FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey",
            customer=tpch["customer"], orders=tpch["orders"])

    def test_orders_lineitem(self, tpch):
        out = dynamic_hhj_join(tpch["orders"], tpch["lineitem"],
                               "o_orderkey", "l_orderkey", tight_cfg(),
                               num_spark_partitions=4)
        assert_equivalent(
            out.select("o_orderkey", "l_partkey", "l_quantity"),
            "SELECT o_orderkey, l_partkey, l_quantity FROM orders o "
            "JOIN lineitem l ON o.o_orderkey = l.l_orderkey",
            orders=tpch["orders"], lineitem=tpch["lineitem"])

    def test_part_lineitem(self, tpch):
        out = dynamic_hhj_join(tpch["part"], tpch["lineitem"],
                               "p_partkey", "l_partkey", tight_cfg(),
                               num_spark_partitions=4)
        assert_equivalent(
            out.select("p_partkey", "p_size", "l_orderkey"),
            "SELECT p_partkey, p_size, l_orderkey FROM part p "
            "JOIN lineitem l ON p.p_partkey = l.l_partkey",
            part=tpch["part"], lineitem=tpch["lineitem"])

    @pytest.mark.parametrize("growth", ["ng-ns", "g-s"])
    def test_growth_policies_agree(self, tpch, growth):
        out = dynamic_hhj_join(tpch["customer"], tpch["orders"],
                               "c_custkey", "o_custkey",
                               tight_cfg(growth=growth),
                               num_spark_partitions=4)
        assert_equivalent(
            out.select("c_custkey", "o_orderkey"),
            "SELECT c_custkey, o_orderkey FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey",
            customer=tpch["customer"], orders=tpch["orders"])

    @pytest.mark.parametrize("victim", ["largest-size", "smallest-records",
                                        "half-empty"])
    def test_victim_policies_agree(self, tpch, victim):
        out = dynamic_hhj_join(tpch["customer"], tpch["orders"],
                               "c_custkey", "o_custkey",
                               tight_cfg(victim=victim),
                               num_spark_partitions=4)
        assert_equivalent(
            out.select("c_custkey", "o_orderkey"),
            "SELECT c_custkey, o_orderkey FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey",
            customer=tpch["customer"], orders=tpch["orders"])

    def test_aggregation_over_hhj_result(self, tpch):
        """Catalyst plans a real aggregation on top of the custom operator."""
        from pyspark.sql import functions as F
        out = dynamic_hhj_join(tpch["customer"], tpch["orders"],
                               "c_custkey", "o_custkey", tight_cfg(),
                               num_spark_partitions=4)
        agg = (out.groupBy("c_mktsegment")
                  .agg(F.count("*").alias("n"),
                       F.round(F.sum("o_totalprice"), 2).alias("total")))
        assert_equivalent(
            agg,
            "SELECT c_mktsegment, COUNT(*) AS n, "
            "ROUND(SUM(o_totalprice), 2) AS total FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey GROUP BY c_mktsegment",
            customer=tpch["customer"], orders=tpch["orders"])


class TestWisconsinSpark:
    def test_wisconsin_join_with_size_column(self, spark):
        b = synth_data.wisconsin(spark, n=1500, dataset="all-small", seed=1)
        p = synth_data.wisconsin(spark, n=1500, dataset="all-small", seed=2)
        out = dynamic_hhj_join(b, p, "unique1", "unique1",
                               tight_cfg(memory_frames=32,
                                         frame_bytes=32 * 1024),
                               num_spark_partitions=4, size_column="rec_bytes")
        assert_equivalent(
            out.select("unique1", "unique2", "unique2_r"),
            "SELECT b.unique1 AS unique1, b.unique2 AS unique2, "
            "p.unique2 AS unique2_r FROM b JOIN p ON b.unique1 = p.unique1",
            b=b, p=p)

    def test_skewed_wisconsin_join(self, spark):
        b = synth_data.wisconsin(spark, n=1200, dataset="all-small", skew=True,
                                 seed=3)
        p = synth_data.wisconsin(spark, n=1200, dataset="all-small", seed=4)
        out = dynamic_hhj_join(b, p, "unique1", "unique1",
                               tight_cfg(memory_frames=24,
                                         frame_bytes=32 * 1024),
                               num_spark_partitions=4, size_column="rec_bytes")
        assert_equivalent(
            out.select("unique1", "unique2", "unique2_r"),
            "SELECT b.unique1 AS unique1, b.unique2 AS unique2, "
            "p.unique2 AS unique2_r FROM b JOIN p ON b.unique1 = p.unique1",
            b=b, p=p)


class TestSchemaHandling:
    def test_column_collisions_suffixed(self, spark):
        import pandas as pd
        a = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "v": ["a", "b"]}))
        b = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "v": ["x", "y"]}))
        out = dynamic_hhj_join(a, b, "k", "k",
                               HHJConfig(memory_frames=8, frame_bytes=4096,
                                         num_partitions=4, min_partitions=4),
                               num_spark_partitions=2)
        assert set(out.columns) == {"k", "v", "k_r", "v_r"}

    def test_null_keys_never_match(self, spark):
        import pandas as pd
        a = spark.createDataFrame(pd.DataFrame({"k": [1.0, None], "v": ["a", "n"]}))
        b = spark.createDataFrame(pd.DataFrame({"k": [1.0, None], "v": ["x", "m"]}))
        out = dynamic_hhj_join(a, b, "k", "k",
                               HHJConfig(memory_frames=8, frame_bytes=4096,
                                         num_partitions=4, min_partitions=4),
                               num_spark_partitions=2)
        rows = out.collect()
        assert len(rows) == 1
        assert rows[0]["v"] == "a" and rows[0]["v_r"] == "x"

    def test_double_keys_join_as_in_spark(self, spark):
        # Spark SQL joins NaN = NaN and -0.0 = 0.0; compare with its own join
        rows = [(float("nan"), "nan"), (0.0, "zero"), (-0.0, "minus-zero"), (1.5, "x")]
        a = spark.createDataFrame(rows, "k double, v string")
        b = spark.createDataFrame(rows, "k double, w string")
        out = dynamic_hhj_join(a, b, "k", "k",
                               HHJConfig(memory_frames=8, frame_bytes=4096,
                                         num_partitions=4, min_partitions=4),
                               num_spark_partitions=4)
        builtin = a.join(b, a["k"] == b["k"])
        got = sorted((r["v"], r["w"]) for r in out.collect())
        assert got == sorted((r["v"], r["w"]) for r in builtin.collect())
        assert len(got) == 6 and ("nan", "nan") in got

    @pytest.mark.parametrize("key_type,values", [
        ("decimal(10,2)", [Decimal("1.10"), Decimal("-2.50"), Decimal("99999999.99"),
                           Decimal("0.00")]),
        ("date", [date(2020, 1, 1), date(1970, 1, 1), date(2038, 1, 19), date(1, 1, 1)]),
        ("timestamp", [datetime(2020, 1, 1, 12), datetime(1970, 1, 1, 0, 0, 1),
                       datetime(2000, 2, 29, 23, 59, 59), datetime(1999, 12, 31)]),
        ("string", ["a", "", "\u00df", "12"]),
        ("bigint", [2**63 - 1, -(2**63 - 1), 0, 2**62]),
        ("binary", [b"\x00", b"ab", b"", b"\xff" * 9]),
        ("boolean", [True, False, False, True]),
    ])
    def test_key_type_joins_as_in_spark(self, spark, key_type, values):
        # 3 rows per side: a repeated key, a key the other side lacks
        v0, v1, v2, v3 = values
        a = spark.createDataFrame([(v0, "b0"), (v1, "b1"), (v1, "b2")],
                                  f"k {key_type}, v string")
        b = spark.createDataFrame([(v1, "p0"), (v2, "p1"), (v0, "p2")],
                                  f"k {key_type}, w string")
        out = dynamic_hhj_join(a, b, "k", "k",
                               HHJConfig(memory_frames=8, frame_bytes=4096,
                                         num_partitions=4, min_partitions=4),
                               num_spark_partitions=4)
        builtin = a.join(b, a["k"] == b["k"])
        got = sorted((r["v"], r["w"]) for r in out.collect())
        assert got == sorted((r["v"], r["w"]) for r in builtin.collect())
        assert len(got) >= 3

    def test_empty_side_yields_empty(self, spark):
        import pandas as pd
        a = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "v": ["a", "b"]}))
        b = spark.createDataFrame([], schema="k long, w string")
        out = dynamic_hhj_join(a, b, "k", "k",
                               HHJConfig(memory_frames=8, frame_bytes=4096,
                                         num_partitions=4, min_partitions=4),
                               num_spark_partitions=2)
        assert out.count() == 0

    def test_size_column_over_frame_bytes_fails(self, spark):
        # an oversized record is an error, never clamped to one frame
        import pandas as pd
        a = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "sz": [100, 5000]}))
        b = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "w": ["x", "y"]}))
        out = dynamic_hhj_join(a, b, "k", "k",
                               HHJConfig(memory_frames=8, frame_bytes=4096,
                                         num_partitions=4, min_partitions=4),
                               num_spark_partitions=2, size_column="sz")
        with pytest.raises(Exception, match="fit one frame"):
            out.collect()

    def test_size_column_in_neither_input_raises(self, spark):
        # a misspelt size column must not fall back to estimated sizes
        import pandas as pd
        a = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "sz": [100, 200]}))
        b = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "w": ["x", "y"]}))
        with pytest.raises(ValueError, match="szz"):
            dynamic_hhj_join(a, b, "k", "k",
                             HHJConfig(memory_frames=8, frame_bytes=4096,
                                       num_partitions=4, min_partitions=4),
                             num_spark_partitions=2, size_column="szz")
