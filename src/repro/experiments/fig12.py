"""Figure 12 — G-S vs NG-NS growth policies (paper §6.2).

Setting (paper): All Small Records; join memory fixed at 1024 MB while
the inputs sweep 1.2 GB → 100 GB (build = probe); HDD storage; writes go
either through the filesystem cache or directly (IO_DIRECT). Reported:
response time, random-write ops, sequential-write ops, total data
written — with and without the cache.

Scaled reproduction: we keep the paper's input:memory ratios
(≈1.17, 1.95, 9.77, 19.5, 97.7) and shrink absolute sizes (default
memory 128 × 32 KB frames = 4 MB). The write mix and the cache effect
are ratio-level phenomena, so the shape survives scaling.
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd

from ..core.join import DynamicHybridHashJoin, HHJConfig
from ..storage.device import HDD, response_time
from ..storage.elevator import elevator_coalesce
from ..synth_data import wisconsin_record_stream
from .runner import avg_record_bytes, records_for_ratio

#: the paper's input-size / memory-size ratios (1.2GB…100GB over 1024MB)
PAPER_RATIOS = (1.2 * 1024 / 1024, 2 * 1024 / 1024, 10 * 1024 / 1024,
                20 * 1024 / 1024, 100 * 1024 / 1024)


def fig12(memory_frames: int = 128,
          ratios: Sequence[float] = PAPER_RATIOS,
          cache_frames: int = 1024, seed: int = 0) -> pd.DataFrame:
    """Both growth policies across the ratio sweep, ± filesystem cache."""
    avg = avg_record_bytes("all-small", 0.0)
    rows = []
    for ratio in ratios:
        n = records_for_ratio(ratio, memory_frames, avg)
        build = wisconsin_record_stream(n=n, dataset="all-small", seed=seed)
        probe = wisconsin_record_stream(n=n, dataset="all-small", seed=seed + 1)
        input_bytes = sum(r[1] for r in build) + sum(r[1] for r in probe)
        for growth in ("g-s", "ng-ns"):
            cfg = HHJConfig(memory_frames=memory_frames, growth=growth,
                            victim="largest-size")
            op = DynamicHybridHashJoin(cfg)
            out_pairs = len(op.run_collect(build, probe))
            s = op.stats
            cached = elevator_coalesce(s.write_trace, cache_frames)
            # the paper's Fig 12 write-mix panels cover the build phase
            # only — probe output buffers are single-frame for *both*
            # policies and would dilute the contrast
            btrace = [w for w in s.write_trace if w.phase == "build"]
            rows.append({
                "ratio": round(ratio, 2), "growth": growth,
                "records": n, "out_pairs": out_pairs,
                "total_frames_written": s.total_frames_spilled,
                "build_seq_ops": sum(1 for w in btrace if w.sequential),
                "build_rand_ops": sum(1 for w in btrace if not w.sequential),
                "build_frames_written": s.build_frames_spilled,
                "seq_write_ops": s.sequential_write_ops,
                "rand_write_ops": s.random_write_ops,
                "seq_frames": s.sequential_frames_written,
                "rand_frames": s.random_frames_written,
                "seq_ops_cached": sum(1 for w in cached if w.sequential),
                "rand_ops_cached": sum(1 for w in cached if not w.sequential),
                "time_hdd_direct_s": response_time(s, HDD, input_bytes,
                                                   use_fs_cache=False),
                "time_hdd_cached_s": response_time(s, HDD, input_bytes,
                                                   use_fs_cache=True,
                                                   cache_frames=cache_frames),
            })
    return pd.DataFrame(rows)
