"""Frame-granularity simulator behind Figures 3, 4 and 5 (paper §4).

The paper's §4 results come from "a simulation study" with uniform data:
memory fixed at 128 MB while build=probe inputs sweep 128 MB – 8 GB, and
the number of partitions sweeps the x-axis. At uniform distribution and
equal record sizes the operator's behaviour is fully determined at frame
granularity, so the simulator works in whole frames (1 frame = 1 MB to
match the paper's axes; any unit works since only ratios matter).

Model (Dynamic HHJ, NG-NS, largest-size victim — the AsterixDB default):
frames of the build input arrive round-robin across the P partitions;
when the budget is exhausted the largest resident partition spills
(keeping a single output buffer); arriving frames of spilled partitions
stream through the buffer to disk. The probe input is partitioned the
same way; probe frames of spilled partitions are written. Spilled pairs
recurse — with the *same* P (Fig 3) or an Eq.2-accurate P (Fig 4) —
until the build side fits in memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .partitions import shapiro_num_partitions

#: Recursion guard: a simulated round this deep is treated as in-memory.
MAX_DEPTH = 64


@dataclass
class RoundResult:
    """Build-phase outcome of one simulated round."""

    resident_frames: int          # build data still in memory at end of build
    build_spilled: int            # build frames written during build phase
    spilled_parts: List[int]      # per-spilled-partition total build frames
    num_spilled: int


def simulate_build_round(build_frames: int, memory_frames: int, p: int) -> RoundResult:
    """One build phase at frame granularity under NG-NS + largest-size.

    Frames arrive round-robin, so between two spills a cycle of ``p``
    frames gives each partition one frame. At a cycle boundary the round
    takes as many whole cycles in one step as fit the free memory without
    a spill; partial cycles and spills go frame by frame. The result is
    the frame-by-frame one exactly, at O(p²) cost per round.
    """
    if p < 2:
        raise ValueError("need at least 2 partitions")
    if p > memory_frames:
        p = memory_frames
    sizes = [0] * p              # resident data frames per partition
    routed = [0] * p             # total build frames routed to partition
    written = [0] * p            # frames written to disk per partition
    spilled = [False] * p
    allocated = 0                # data frames + output buffers
    i = 0
    while i < build_frames:
        pid = i % p
        if pid == 0:
            # k whole cycles: every resident partition gains k frames
            # before memory runs out, every spilled one writes k
            resident = p - sum(spilled)
            k = (build_frames - i) // p
            if resident:
                k = min(k, (memory_frames - allocated) // resident)
            if k > 0:
                for q in range(p):
                    routed[q] += k
                    if spilled[q]:
                        written[q] += k
                    else:
                        sizes[q] += k
                allocated += k * resident
                i += k * p
                continue
        i += 1
        routed[pid] += 1
        if spilled[pid]:
            written[pid] += 1    # streams through the output buffer
            continue
        while allocated >= memory_frames:
            # largest resident partition spills, keeps one output buffer
            victim = max((q for q in range(p) if not spilled[q] and sizes[q] > 0),
                         key=lambda q: (sizes[q], -q), default=None)
            if victim is None:
                break
            written[victim] += sizes[victim]
            allocated -= sizes[victim] - 1   # one frame stays as buffer
            spilled[victim] = True
            sizes[victim] = 0
        if spilled[pid]:
            written[pid] += 1
            continue
        sizes[pid] += 1
        allocated += 1
    spilled_parts = [routed[q] for q in range(p) if spilled[q]]
    return RoundResult(
        resident_frames=sum(sizes[q] for q in range(p) if not spilled[q]),
        build_spilled=sum(written),
        spilled_parts=spilled_parts,
        num_spilled=sum(spilled),
    )


def simulate_join(build_frames: int, memory_frames: int, first_round_p: int,
                  accurate_later_rounds: bool = False) -> Tuple[int, int]:
    """Total (build_spill, probe_spill) frames across all HHJ rounds, for
    a probe input as large as the build input.

    ``accurate_later_rounds=False`` keeps ``first_round_p`` for every
    round (Fig 3); ``True`` recomputes P per round from the now-known
    spilled sizes via Eq. 2 (Fig 4). Final result writing is excluded,
    matching the paper.
    """
    build_total = 0
    probe_total = 0
    # a round is pure in (build, memory, P): compute each distinct one once
    rounds: Dict[Tuple[int, int], RoundResult] = {}
    # (build, probe, p, depth) work-list of join rounds still to run
    stack: List[Tuple[int, int, int, int]] = [
        (build_frames, build_frames, first_round_p, 0)
    ]
    while stack:
        b, pr, p, depth = stack.pop()
        if b <= 0 or pr <= 0:
            continue
        if b <= memory_frames or depth >= MAX_DEPTH:
            continue  # in-memory round: no spilling
        res = rounds.get((b, p))
        if res is None:
            res = rounds[b, p] = simulate_build_round(b, memory_frames, p)
        build_total += res.build_spilled
        # probe frames are routed uniformly too; spilled partitions' probe
        # data is written to their probe files
        probe_share = [round(pr * part / b) for part in res.spilled_parts]
        probe_total += sum(probe_share)
        next_p = p
        for part_b, part_pr in zip(res.spilled_parts, probe_share):
            if accurate_later_rounds:
                next_p = shapiro_num_partitions(part_b, memory_frames)
            stack.append((part_b, part_pr, next_p, depth + 1))
    return build_total, probe_total


def in_memory_after_first_round(build_frames: int, memory_frames: int,
                                p: int) -> int:
    """Fig 5 metric: build frames still memory-resident after round 1."""
    return simulate_build_round(build_frames, memory_frames, p).resident_frames
