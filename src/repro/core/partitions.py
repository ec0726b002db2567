"""Choosing the number of partitions (paper §4).

Implements Shapiro's Equation 2, the paper's Table 1 instantiation of it,
and the paper's proposal: a *default* of 20 partitions when the build
size is unknown and a *lower bound* of 20 whenever Eq. 2 would return
fewer.

Calibration note (Table 1): the paper prints Eq. 2 as
``B = ceil((|R|·F − |M|) / (|M| − 1))`` with B "disk-resident partitions"
and the operator using B+1. The printed Table 1 numbers (build 64…8192 MB,
M = 128 one-MB frames) are reproduced *exactly* by
``P = max(2, B)`` with fudge factor **F = 1.3** — e.g. 512 MB → 5,
4096 MB → 41, 8192 MB → 83 — and by no (F, B+1) combination we could
find. We therefore fix ``F = 1.3`` and ``P = max(2, B)`` as the
Table-1-faithful reading and record the check in tests.
"""
from __future__ import annotations

import math
from typing import Optional

#: The paper's recommended default and lower bound (§4, conclusion).
DEFAULT_NUM_PARTITIONS = 20

#: Fudge factor that reproduces Table 1 exactly (see module docstring).
TABLE1_FUDGE = 1.3


def eq2_disk_partitions(build_frames: float, memory_frames: int,
                        fudge: float = TABLE1_FUDGE) -> int:
    """Raw Shapiro Eq. 2: B = ⌈(|R|·F − |M|) / (|M| − 1)⌉ (may be ≤ 0)."""
    if memory_frames < 2:
        raise ValueError("Eq. 2 needs at least 2 memory frames")
    return math.ceil((build_frames * fudge - memory_frames) / (memory_frames - 1))


def shapiro_num_partitions(build_frames: float, memory_frames: int) -> int:
    """Table-1 partition count: Eq. 2 clamped to the [2, |M|] valid range."""
    b = eq2_disk_partitions(build_frames, memory_frames)
    return max(2, min(b, memory_frames))


def robust_num_partitions(memory_frames: int,
                          build_frames: Optional[float] = None,
                          lower_bound: int = DEFAULT_NUM_PARTITIONS) -> int:
    """The paper's §4 recommendation.

    * build size unknown → the default (20), capped by the frame budget;
    * build size known (later HHJ rounds) → Eq. 2, but never below the
      lower bound (20) and never above the frame budget.
    """
    if build_frames is None:
        return max(2, min(lower_bound, memory_frames))
    p = shapiro_num_partitions(build_frames, memory_frames)
    return max(2, min(max(p, lower_bound), memory_frames))
