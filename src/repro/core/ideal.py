"""The "ideal spilling" reference (paper §7.1).

The victim-selection figures report *spilled data / ideal spilling*. The
paper computes the ideal with "a simple simulator program [that]
minimizes the data spilling by maximizing the memory usage in each round
of HHJ with an in-memory partition, similar to the original HHJ operator
provided with accurate a-priori information", with fudge factor 1.4.

We reproduce that simulator: with perfect knowledge, a round keeps one
memory-resident partition as large as the memory minus the B spill
output buffers allows (divided by the fudge factor for the hash table
and fragmentation); everything else spills. Spilled partitions are sized
by Eq. 2 to fit in the following rounds, so only the first round spills.

Each function takes the fudge factor from its caller: the §7 figures
pass 1.0 (see :func:`repro.experiments.fig13.victim_experiment`).
"""
from __future__ import annotations

from .partitions import eq2_disk_partitions


def ideal_spill_frames(build_frames: float, memory_frames: int,
                       fudge: float) -> float:
    """Minimum build-phase spill (frames) with accurate a-priori sizing."""
    if build_frames * fudge <= memory_frames:
        return 0.0
    b = max(1, eq2_disk_partitions(build_frames, memory_frames, fudge))
    b = min(b, memory_frames - 1)
    resident_capacity = (memory_frames - b) / fudge  # data frames kept in memory
    spilled = build_frames - max(0.0, resident_capacity)
    return max(0.0, spilled)


def ideal_spill_bytes(build_bytes: int, memory_frames: int, frame_bytes: int,
                      fudge: float) -> float:
    """Byte-level convenience wrapper around :func:`ideal_spill_frames`."""
    frames = build_bytes / frame_bytes
    return ideal_spill_frames(frames, memory_frames, fudge) * frame_bytes


def spill_ratio(measured_spill_bytes: int, build_bytes: int,
                memory_frames: int, frame_bytes: int, fudge: float) -> float:
    """§7.1 metric: measured build-phase spill over the ideal spill.

    When the ideal is zero (everything fits) the ratio is defined as 1.0
    if nothing was spilled, else +inf-like large — we return measured /
    one frame to keep plots finite, matching "any spill is overspill".
    """
    ideal = ideal_spill_bytes(build_bytes, memory_frames, frame_bytes, fudge)
    if ideal <= 0:
        return 1.0 if measured_spill_bytes == 0 else measured_spill_bytes / frame_bytes
    return measured_spill_bytes / ideal
