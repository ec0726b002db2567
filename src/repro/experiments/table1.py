"""Table 1 — partition counts from Shapiro's Equation 2 (paper §4).

The paper's setting: memory |M| = 128 frames (128 MB at 1 MB frames),
build sizes 64 MB … 8192 MB. Our implementation reproduces every printed
value with fudge factor 1.3 (see ``repro.core.partitions``).
"""
from __future__ import annotations

import pandas as pd

from ..core.partitions import shapiro_num_partitions

#: Build size (MB) → number of partitions, as printed in the paper.
PAPER_TABLE1 = {64: 2, 128: 2, 256: 2, 512: 5, 1024: 10, 2048: 20, 4096: 41, 8192: 83}

MEMORY_FRAMES = 128  # 128 MB at 1 MB per frame


def table1() -> pd.DataFrame:
    """Paper value vs our Eq. 2 implementation for every Table 1 row."""
    rows = []
    for build_mb, paper_p in PAPER_TABLE1.items():
        ours = shapiro_num_partitions(build_mb, MEMORY_FRAMES)
        rows.append({
            "build_size_mb": build_mb,
            "paper_partitions": paper_p,
            "our_partitions": ours,
            "match": ours == paper_p,
        })
    return pd.DataFrame(rows)
