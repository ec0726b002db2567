"""Filesystem-cache elevator model (paper §6.2).

The paper observes that a modest filesystem cache hides most of NG-NS's
random-write penalty: the cache buffers write requests and issues them
ordered by target file location (the Elevator Algorithm), so many
single-frame writes to the same partition file become one sequential
chunk.

We model exactly that: the trace is consumed in windows of
``cache_frames`` frames (the cache capacity); within a window, ops are
sorted by partition file and adjacent ops to the same file merge into
one sequential op. Cross-file ordering still costs one positioning op
per file per window — the cache cannot merge writes to different files.
"""
from __future__ import annotations

from itertools import groupby
from typing import Iterable, List

from ..core.stats import WriteOp


def elevator_coalesce(trace: Iterable[WriteOp], cache_frames: int) -> List[WriteOp]:
    """Rewrite a trace as the disk would see it behind an elevator cache."""
    if cache_frames < 1:
        raise ValueError("cache_frames must be >= 1")
    out: List[WriteOp] = []
    window: List[WriteOp] = []
    pending = 0

    def flush() -> None:
        nonlocal window, pending
        # elevator order: sort by (file, phase); merge same-file runs
        window.sort(key=lambda w: (w.round_no, w.pid, w.phase))
        for (rnd, pid, phase), ops in groupby(
                window, key=lambda w: (w.round_no, w.pid, w.phase)):
            ops = list(ops)
            out.append(WriteOp(sum(o.n_frames for o in ops), phase, pid, rnd))
        window, pending = [], 0

    for op in trace:
        window.append(op)
        pending += op.n_frames
        if pending >= cache_frames:
            flush()
    if window:
        flush()
    return out
