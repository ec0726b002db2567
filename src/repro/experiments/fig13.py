"""Figure 13 — victim-selection policies vs join-key skew (paper §7.1.1).

Setting (paper): All Small Records, 1 GB build/probe of 985 000 records;
build keys either unique ints (no skew) or the Normal distribution of
§7.1.1 (skewed); x-axis sweeps data:memory; y-axis is build-phase spill
over the ideal spill (``repro.core.ideal``; the paper's fudge is 1.4,
ours 1.0, see :func:`victim_experiment`).

Scaled reproduction: memory defaults to 256 × 32 KB frames; the input is
sized to each ratio. Only the build phase matters for this metric, so we
run ``build_only``.
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd

from ..core.ideal import spill_ratio
from ..core.join import DynamicHybridHashJoin, HHJConfig
from ..frames.frame import DEFAULT_FRAME_BYTES
from ..synth_data import wisconsin_record_stream
from ..victim.policies import NAMES
from .runner import avg_record_bytes, records_for_ratio

RATIOS = (1.2, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
ALL_POLICIES = NAMES


def victim_experiment(dataset: str, pct_large: float, skew: bool,
                      memory_frames: int = 256,
                      ratios: Sequence[float] = RATIOS,
                      policies: Sequence[str] = ALL_POLICIES,
                      seed: int = 0) -> pd.DataFrame:
    """Generic §7 harness: build-phase spill ratio per (ratio, policy)."""
    avg = avg_record_bytes(dataset, pct_large)
    rows = []
    for ratio in ratios:
        n = records_for_ratio(ratio, memory_frames, avg)
        build = wisconsin_record_stream(n=n, dataset=dataset,
                                        pct_large=pct_large, skew=skew,
                                        seed=seed)
        build_bytes = sum(r[1] for r in build)
        for pol in policies:
            cfg = HHJConfig(memory_frames=memory_frames,
                            num_partitions=min(20, memory_frames),
                            victim=pol, growth="ng-ns")
            op = DynamicHybridHashJoin(cfg)
            op.build_only(build)
            s = op.stats
            rows.append({
                "dataset": dataset, "pct_large": pct_large, "skew": skew,
                "ratio": ratio, "policy": pol,
                "spilled_bytes": s.build_bytes_spilled,
                "partitions_spilled": s.partitions_spilled,
                "seq_write_ops": s.sequential_write_ops,
                "rand_write_ops": s.random_write_ops,
                # fudge 1.0, not the paper's 1.4: our operator carries no
                # hash-table memory overhead (its resident partitions use
                # the raw frame budget), so the fair "perfect information"
                # reference keeps M−B compact frames resident. The paper's
                # 1.4 models AsterixDB's hash-table + fragmentation
                # overhead. It rescales every policy of a row alike, so the
                # policy orderings, the figure's content, are unaffected.
                "spill_over_ideal": spill_ratio(s.build_bytes_spilled,
                                                build_bytes, memory_frames,
                                                DEFAULT_FRAME_BYTES, fudge=1.0),
            })
    return pd.DataFrame(rows)


def fig13a(**kw) -> pd.DataFrame:
    """No skew: unique join-attribute values (paper Fig 13-a)."""
    return victim_experiment("all-small", 0.0, skew=False, **kw)


def fig13b(**kw) -> pd.DataFrame:
    """Skewed: Normal-distributed build keys (paper Fig 13-b)."""
    return victim_experiment("all-small", 0.0, skew=True, **kw)
