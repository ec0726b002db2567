"""Figures 6, 7, 8 — tuning Append(k), First-Fit(%p), Random(%p) (§5.1).

Setting (paper): the 1-Large Record Coexist dataset with 90%/50%/10%
large records; enough memory that nothing spills; metrics are the average
frame fullness and the total number of frames searched. The paper picks
Append(8), First-Fit(10%) and Random(10%) from these sweeps.
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd

from ..core.join import DynamicHybridHashJoin, HHJConfig
from ..frames.frame import DEFAULT_FRAME_BYTES
from ..insertion.policies import AppendN, FirstFitPct, RandomPct
from ..synth_data import wisconsin_record_stream

PCTS_LARGE = (0.9, 0.5, 0.1)


def _run_insertion(records, factory):
    """Build phase with ample memory; returns (fullness, frames_searched)."""
    total_bytes = sum(r[1] for r in records)
    # twice the build's frames, plus a frame per partition and 8 spare
    ample = 2 * (total_bytes // DEFAULT_FRAME_BYTES + 1) + 20 + 8
    cfg = HHJConfig(memory_frames=ample, num_partitions=20, insertion=factory)
    op = DynamicHybridHashJoin(cfg)
    op.build_only(records)
    assert op.stats.partitions_spilled == 0, "sweep must not spill"
    return op.stats.avg_frame_fullness, op.stats.frames_searched


def _sweep(params: Sequence, pcts_large: Sequence[float], n: int, seed: int,
           factory) -> pd.DataFrame:
    """Fullness and searched frames per (%large, param); ``factory(param,
    pid)`` makes partition ``pid``'s policy."""
    rows = []
    for pct in pcts_large:
        recs = wisconsin_record_stream(n=n, dataset="1-large", pct_large=pct,
                                       seed=seed)
        for param in params:
            fullness, searched = _run_insertion(
                recs, lambda pid, param=param: factory(param, pid))
            rows.append({"pct_large": pct, "param": param,
                         "avg_frame_fullness": fullness,
                         "frames_searched": searched})
    return pd.DataFrame(rows)


def fig6_append(ks: Sequence[int] = tuple(range(1, 11)),
                pcts_large: Sequence[float] = PCTS_LARGE,
                n: int = 5000, seed: int = 0) -> pd.DataFrame:
    """Fig 6: frame fullness and searched frames per Append(k)."""
    return _sweep(ks, pcts_large, n, seed, lambda k, pid: AppendN(k))


def fig7_first_fit(params: Sequence[float] = (0.05, 0.10, 0.25, 0.50, 1.00),
                   pcts_large: Sequence[float] = PCTS_LARGE,
                   n: int = 5000, seed: int = 0) -> pd.DataFrame:
    """Fig 7: frame fullness and searched frames per First-Fit(%p)."""
    return _sweep(params, pcts_large, n, seed, lambda p, pid: FirstFitPct(p))


def fig8_random(params: Sequence[float] = (0.05, 0.10, 0.25, 0.50, 1.00),
                pcts_large: Sequence[float] = PCTS_LARGE,
                n: int = 5000, seed: int = 0) -> pd.DataFrame:
    """Fig 8: frame fullness and searched frames per Random(%p)."""
    return _sweep(params, pcts_large, n, seed,
                  lambda p, pid: RandomPct(p, seed=1000 + pid))
