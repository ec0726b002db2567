"""Shared helpers for the experiment harnesses.

Every ``figNN.py``/``table1.py`` module returns a ``pandas.DataFrame``
whose rows are exactly the numbers behind the paper's table/figure, and
each ``jobs/`` entrypoint prints it with :func:`show` so the output can
be diffed against the numbers recorded in EXPERIMENTS.md.
"""
from __future__ import annotations

import pandas as pd

from ..frames.frame import DEFAULT_FRAME_BYTES
from ..synth_data import WISCONSIN_SIZES


def show(title: str, df: pd.DataFrame) -> None:
    """Print one experiment's result table in a stable, diffable format."""
    print(f"\n=== {title} ===")
    with pd.option_context("display.width", 200, "display.max_columns", 50,
                           "display.max_rows", 500):
        print(df.to_string(index=False))


def records_for_ratio(ratio: float, memory_frames: int,
                      avg_record_bytes: float) -> int:
    """How many records make the build input ``ratio`` × the memory size
    (``memory_frames`` frames of ``DEFAULT_FRAME_BYTES``)."""
    target_bytes = ratio * memory_frames * DEFAULT_FRAME_BYTES
    return max(1, int(round(target_bytes / avg_record_bytes)))


def avg_record_bytes(dataset: str, pct_large: float) -> float:
    """Expected record size of a Table 2 dataset configuration."""
    spec = WISCONSIN_SIZES[dataset]
    lo_s, hi_s = spec["small"]
    small = (lo_s + hi_s) / 2
    if spec["large"] is None or pct_large <= 0:
        return small
    lo_l, hi_l = spec["large"]
    large = (lo_l + hi_l) / 2
    return pct_large * large + (1 - pct_large) * small
