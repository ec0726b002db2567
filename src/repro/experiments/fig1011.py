"""Figures 10, 11 — insertion algorithms with variable-size records (§5.3.2).

Setting (paper): 3-Large Record Coexist (Fig 10) and 1-Large Record
Coexist (Fig 11) datasets with 10%/50%/90% large records; ample memory;
metrics are average frame fullness and modeled response time on
HDD/SSD/EBS. Expected shape: fullness drops as %large grows; Best-Fit
pays the highest CPU cost, Append(8) the lowest, gaps shrinking at high
%large (fewer records to insert).
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd

from ..synth_data import wisconsin_record_stream
from .fig9 import insertion_runs
from .runner import avg_record_bytes

PCTS_LARGE = (0.1, 0.5, 0.9)


def _variable_size_experiment(dataset: str, pcts_large: Sequence[float],
                              n_bytes_target: int, seed: int) -> pd.DataFrame:
    rows = []
    for pct in pcts_large:
        n = max(1, int(n_bytes_target / avg_record_bytes(dataset, pct)))
        build = wisconsin_record_stream(n=n, dataset=dataset, pct_large=pct,
                                        seed=seed)
        probe = wisconsin_record_stream(n=n, dataset=dataset, pct_large=pct,
                                        seed=seed + 100)
        rows += [{"dataset": dataset, "pct_large": pct, **row}
                 for row in insertion_runs(build, probe)]
    return pd.DataFrame(rows)


def fig10(n_bytes_target: int = 32 << 20,
          pcts_large: Sequence[float] = PCTS_LARGE, seed: int = 0) -> pd.DataFrame:
    """3-Large Record Coexist sweep (paper Fig 10)."""
    return _variable_size_experiment("3-large", pcts_large, n_bytes_target, seed)


def fig11(n_bytes_target: int = 32 << 20,
          pcts_large: Sequence[float] = PCTS_LARGE, seed: int = 0) -> pd.DataFrame:
    """1-Large Record Coexist sweep (paper Fig 11)."""
    return _variable_size_experiment("1-large", pcts_large, n_bytes_target, seed)
