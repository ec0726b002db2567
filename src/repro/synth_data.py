"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

if TYPE_CHECKING:  # the record-level generators run without Spark
    from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


# ---------------------------------------------------------------------------
# Wisconsin-Benchmark-lite generators (paper §5.2, Table 2 / §7.1)
#
# The paper evaluates on a modified Wisconsin Benchmark with variable-length
# records: "small" records of 700–1500 B, "large" records of 18–20 KB
# (1-Large Record Coexist) or 8–10 KB (3-Large Records Coexist), mixed at a
# given large:small ratio, and join-attribute values that are either unique
# integers or drawn from a Normal distribution (μ = cardinality/2,
# σ = 8208 at cardinality 985 000 ≈ 0.833 % of the cardinality) so that 99 %
# of the values come from ~5 % of the domain. We generate (key, size)
# streams for the record-level operator.
# ---------------------------------------------------------------------------

#: Table 2 record-size distributions, in bytes.
WISCONSIN_SIZES = {
    "all-small": {"small": (700, 1500), "large": None},
    "1-large": {"small": (700, 1500), "large": (18 * 1024, 20 * 1024)},
    "3-large": {"small": (700, 1500), "large": (8 * 1024, 10 * 1024)},
}

#: σ/cardinality used by the paper's skewed runs (8208 / 985 000).
NORMAL_SKEW_SIGMA_FRACTION = 8208 / 985_000


def wisconsin_record_stream(*, n: int, dataset: str = "all-small",
                            pct_large: float = 0.0, skew: bool = False,
                            seed: int = 0):
    """(key, size_bytes, payload=None) records for the record-level operator.

    ``dataset`` picks a Table 2 size configuration; ``pct_large`` the
    fraction of large records (0.10/0.50/0.90 in the paper); ``skew``
    draws keys from the paper's Normal distribution instead of unique
    integers (a permutation of 1..n). Sizes and keys are independent
    (the paper: "no correlation exists between the record sizes and the
    join attribute values").
    Returns a list of (key, size, None) triples, deterministic in seed.
    """
    if dataset not in WISCONSIN_SIZES:
        raise KeyError(f"unknown dataset {dataset!r}; choose from {sorted(WISCONSIN_SIZES)}")
    spec = WISCONSIN_SIZES[dataset]
    g = _rng(seed)
    lo_s, hi_s = spec["small"]
    sizes = g.integers(lo_s, hi_s + 1, n)
    if spec["large"] is not None and pct_large > 0:
        lo_l, hi_l = spec["large"]
        is_large = g.random(n) < pct_large
        sizes = np.where(is_large, g.integers(lo_l, hi_l + 1, n), sizes)
    elif pct_large > 0:
        raise ValueError(f"dataset {dataset!r} has no large records")
    if skew:
        keys = normal_skew_ints(n=n, cardinality=n, seed=seed + 1)
    else:
        keys = g.permutation(np.arange(1, n + 1))
    return [(int(k), int(s), None) for k, s in zip(keys, sizes)]


def normal_skew_ints(*, n: int, cardinality: int, seed: int = 0) -> np.ndarray:
    """Paper §7.1.1 skew: N(μ=cardinality/2, σ=0.833%·cardinality), clipped
    to [1, cardinality] and rounded to ints."""
    g = _rng(seed)
    mean = cardinality / 2
    std = max(1.0, NORMAL_SKEW_SIGMA_FRACTION * cardinality)
    vals = np.rint(g.normal(mean, std, n))
    return np.clip(vals, 1, cardinality).astype(np.int64)
