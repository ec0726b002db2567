"""Figures 3, 4, 5 — impact of the number of partitions (paper §4).

Setting (paper): memory fixed at 128 MB; build = probe inputs sweep
128 MB … 8192 MB; x-axis sweeps the number of partitions. Simulated at
frame granularity (1 frame = 1 MB) by :mod:`repro.core.sim_partitions`.

* Fig 3 — total spilled data, same partition count in every round;
* Fig 4 — total spilled data, Eq. 2-accurate counts after round 1;
* Fig 5 — build data still in memory after the first round's build.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

import pandas as pd

from ..core.sim_partitions import in_memory_after_first_round, simulate_join

MEMORY_MB = 128
INPUT_SIZES_MB = (128, 256, 512, 1024, 2048, 4096, 8192)
PARTITION_COUNTS = (2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 48, 64, 96, 128)


def _cells(input_sizes_mb: Sequence[int],
           partition_counts: Sequence[int]) -> List[Tuple[int, int]]:
    """The (input MB, P) points of a sweep, P no larger than the memory."""
    return [(size, p) for size in input_sizes_mb for p in partition_counts
            if p <= MEMORY_MB]


def _total_spill(input_sizes_mb: Sequence[int], partition_counts: Sequence[int],
                 accurate_later_rounds: bool) -> pd.DataFrame:
    rows = []
    for size, p in _cells(input_sizes_mb, partition_counts):
        b, pr = simulate_join(size, MEMORY_MB, p,
                              accurate_later_rounds=accurate_later_rounds)
        rows.append({"input_mb": size, "partitions": p,
                     "build_spill_mb": b, "probe_spill_mb": pr,
                     "total_spill_mb": b + pr})
    return pd.DataFrame(rows)


def fig3(input_sizes_mb: Sequence[int] = INPUT_SIZES_MB,
         partition_counts: Sequence[int] = PARTITION_COUNTS) -> pd.DataFrame:
    """Total spilling (MB) with the same partition count in all rounds."""
    return _total_spill(input_sizes_mb, partition_counts,
                        accurate_later_rounds=False)


def fig4(input_sizes_mb: Sequence[int] = INPUT_SIZES_MB,
         partition_counts: Sequence[int] = PARTITION_COUNTS) -> pd.DataFrame:
    """Total spilling (MB) when later rounds use Eq. 2-accurate counts."""
    return _total_spill(input_sizes_mb, partition_counts,
                        accurate_later_rounds=True)


def fig5(input_sizes_mb: Sequence[int] = INPUT_SIZES_MB,
         partition_counts: Sequence[int] = PARTITION_COUNTS) -> pd.DataFrame:
    """Build data (MB) remaining in memory after round 1's build phase."""
    rows = []
    for size, p in _cells(input_sizes_mb, partition_counts):
        in_memory_mb = in_memory_after_first_round(size, MEMORY_MB, p)
        rows.append({"input_mb": size, "partitions": p, "in_memory_mb": in_memory_mb,
                     "memory_utilization": in_memory_mb / MEMORY_MB})
    return pd.DataFrame(rows)


def lower_bound_summary(df3: pd.DataFrame) -> pd.DataFrame:
    """§4 claim check: spilling at P=2 vs P=20 vs the best P per input size."""
    rows = []
    for size, grp in df3.groupby("input_mb"):
        by_p = grp.set_index("partitions")["total_spill_mb"]
        p2, p20 = by_p.get(2), by_p.get(20)
        rows.append({"input_mb": size, "spill_at_p2": p2, "spill_at_p20": p20,
                     "spill_best": by_p.min(),
                     "p2_over_p20": p2 / p20 if p20 else float("nan")})
    return pd.DataFrame(rows)
