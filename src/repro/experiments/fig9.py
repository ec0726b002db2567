"""Figure 9 — insertion algorithms with small, similar-size records (§5.3.1).

Setting (paper): build = probe = 1 GB of All Small Records (700–1500 B)
in 32 KB frames; enough memory that nothing spills; metrics are the
average frame fullness and the join response time on HDD / SSD / EBS.
With no spilling the I/O term is identical for every algorithm, so the
response-time differences come from the per-record search CPU cost —
exactly the paper's point (Best-Fit worst, Append(8) best).
"""
from __future__ import annotations

from typing import List

import pandas as pd

from ..core.join import DynamicHybridHashJoin, HHJConfig
from ..frames.frame import DEFAULT_FRAME_BYTES
from ..insertion.policies import NAMES
from ..storage.device import DEVICES, response_time
from ..synth_data import wisconsin_record_stream

ALGORITHMS = NAMES


def insertion_runs(build, probe) -> List[dict]:
    """One no-spill join of ``build`` and ``probe`` per insertion
    algorithm: frame fullness, frames searched, output pairs and the
    modeled response time on each device."""
    input_bytes = sum(r[1] for r in build) + sum(r[1] for r in probe)
    total_frames = sum(r[1] for r in build) // DEFAULT_FRAME_BYTES + 1
    ample = int(2 * total_frames + 64)
    rows = []
    for alg in ALGORITHMS:
        cfg = HHJConfig(memory_frames=ample, num_partitions=20, insertion=alg)
        op = DynamicHybridHashJoin(cfg)
        # only the number of output pairs is a metric, not the pairs
        n_out = len(op.run_collect(build, probe))
        row = {"algorithm": alg, "avg_frame_fullness": op.stats.avg_frame_fullness,
               "frames_searched": op.stats.frames_searched,
               "out_pairs": n_out}
        for dev_name, dev in DEVICES.items():
            row[f"time_{dev_name}_s"] = response_time(op.stats, dev, input_bytes)
        rows.append(row)
    return rows


def fig9(n: int = 30_000, seed: int = 0) -> pd.DataFrame:
    """Fullness + modeled response time per insertion algorithm."""
    build = wisconsin_record_stream(n=n, dataset="all-small", seed=seed)
    probe = wisconsin_record_stream(n=n, dataset="all-small", seed=seed + 100)
    return pd.DataFrame(insertion_runs(build, probe))
