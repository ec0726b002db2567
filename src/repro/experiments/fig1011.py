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

from ..core.join import DynamicHybridHashJoin, HHJConfig
from ..insertion.policies import default_policies
from ..storage.device import DEVICES, response_time
from ..synth_data import wisconsin_record_stream

FRAME_BYTES = 32 * 1024
ALGORITHMS = tuple(default_policies().keys())
PCTS_LARGE = (0.1, 0.5, 0.9)


def _variable_size_experiment(dataset: str, pcts_large: Sequence[float],
                              n_bytes_target: int, frame_bytes: int,
                              algorithms: Sequence[str], seed: int) -> pd.DataFrame:
    from .runner import avg_record_bytes

    rows = []
    for pct in pcts_large:
        avg = avg_record_bytes(dataset, pct)
        n = max(1, int(n_bytes_target / avg))
        build = wisconsin_record_stream(n=n, dataset=dataset, pct_large=pct,
                                        seed=seed)
        probe = wisconsin_record_stream(n=n, dataset=dataset, pct_large=pct,
                                        seed=seed + 100)
        input_bytes = sum(r[1] for r in build) + sum(r[1] for r in probe)
        total_frames = sum(r[1] for r in build) // frame_bytes + 1
        ample = int(2 * total_frames + 64)
        for alg in algorithms:
            cfg = HHJConfig(memory_frames=ample, frame_bytes=frame_bytes,
                            num_partitions=20, insertion=alg)
            op = DynamicHybridHashJoin(cfg)
            n_out = sum(1 for _ in op.run(build, probe))
            row = {"dataset": dataset, "pct_large": pct, "algorithm": alg,
                   "avg_frame_fullness": op.stats.avg_frame_fullness,
                   "frames_searched": op.stats.frames_searched,
                   "out_pairs": n_out}
            for dev_name, dev in DEVICES.items():
                row[f"time_{dev_name}_s"] = response_time(
                    op.stats, dev, input_bytes, frame_bytes)
            rows.append(row)
    return pd.DataFrame(rows)


def fig10(n_bytes_target: int = 32 << 20, frame_bytes: int = FRAME_BYTES,
          pcts_large: Sequence[float] = PCTS_LARGE,
          algorithms: Sequence[str] = ALGORITHMS, seed: int = 0) -> pd.DataFrame:
    """3-Large Record Coexist sweep (paper Fig 10)."""
    return _variable_size_experiment("3-large", pcts_large, n_bytes_target,
                                     frame_bytes, algorithms, seed)


def fig11(n_bytes_target: int = 32 << 20, frame_bytes: int = FRAME_BYTES,
          pcts_large: Sequence[float] = PCTS_LARGE,
          algorithms: Sequence[str] = ALGORITHMS, seed: int = 0) -> pd.DataFrame:
    """1-Large Record Coexist sweep (paper Fig 11)."""
    return _variable_size_experiment("1-large", pcts_large, n_bytes_target,
                                     frame_bytes, algorithms, seed)
