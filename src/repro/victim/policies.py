"""Victim-selection policies (paper §7).

When memory is insufficient, one memory-resident partition must spill.
The paper defines 13 candidate policies and evaluates them under the
NG-NS growth policy. Each policy here receives the *candidates* — the
memory-resident partitions currently holding at least one frame — plus a
:class:`VictimContext`, and returns the partition to spill.

Ties break on the lowest partition id so runs are deterministic.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..frames.partition import Partition


@dataclass
class VictimContext:
    """Everything a §7 policy is allowed to look at when choosing a victim."""

    incoming_pid: int          # partition the triggering record hashes into
    num_spilled: int           # partitions spilled so far this round
    num_partitions: int        # total partitions P this round


class VictimPolicy:
    """Base class for the 13 §7 policies; each names itself in ``name``."""

    def choose(self, candidates: Sequence[Partition], ctx: VictimContext) -> Partition:
        raise NotImplementedError

    # deterministic arg-min/arg-max helpers -----------------------------
    @staticmethod
    def _min(cands: Sequence[Partition], key) -> Partition:
        return min(cands, key=lambda p: (key(p), p.pid))

    @staticmethod
    def _max(cands: Sequence[Partition], key) -> Partition:
        return max(cands, key=lambda p: (key(p), -p.pid))


class LargestSize(VictimPolicy):
    """Spill the partition with the most in-memory bytes (the [45]/[25] choice)."""

    name = "largest-size"

    def choose(self, candidates, ctx):
        return self._max(candidates, lambda p: p.in_memory_bytes)


class LargestRecords(VictimPolicy):
    """Spill the partition holding the most in-memory records."""

    name = "largest-records"

    def choose(self, candidates, ctx):
        return self._max(candidates, lambda p: p.in_memory_records)


class LargestSizeSelfVictim(VictimPolicy):
    """Spill the incoming record's own partition if resident, else the largest."""

    name = "largest-size-self-victim"

    def choose(self, candidates, ctx):
        for p in candidates:
            if p.pid == ctx.incoming_pid and p.num_frames >= 1:
                return p
        return self._max(candidates, lambda p: p.in_memory_bytes)


class MedianSize(VictimPolicy):
    """Spill the partition whose in-memory size is the median of the candidates."""

    name = "median-size"

    def choose(self, candidates, ctx):
        ordered = sorted(candidates, key=lambda p: (p.in_memory_bytes, p.pid))
        return ordered[len(ordered) // 2]


class MedianRecords(VictimPolicy):
    """Spill the partition with the median in-memory record count."""

    name = "median-records"

    def choose(self, candidates, ctx):
        ordered = sorted(candidates, key=lambda p: (p.in_memory_records, p.pid))
        return ordered[len(ordered) // 2]


class SmallestSize(VictimPolicy):
    """Spill the smallest partition that still owns at least one frame."""

    name = "smallest-size"

    def choose(self, candidates, ctx):
        return self._min(candidates, lambda p: p.in_memory_bytes)


class SmallestRecords(VictimPolicy):
    """Spill the resident partition with the fewest (>=1) records."""

    name = "smallest-records"

    def choose(self, candidates, ctx):
        with_records = [p for p in candidates if p.in_memory_records >= 1]
        return self._min(with_records or list(candidates),
                         lambda p: p.in_memory_records)


class SmallestSizeSelfVictim(VictimPolicy):
    """Spill the incoming record's partition if resident, else the smallest."""

    name = "smallest-size-self-victim"

    def choose(self, candidates, ctx):
        for p in candidates:
            if p.pid == ctx.incoming_pid and p.num_frames >= 1:
                return p
        return self._min(candidates, lambda p: p.in_memory_bytes)


class RandomVictim(VictimPolicy):
    """Spill a uniformly random memory-resident partition, drawn from a
    stream of fixed seed 0, so a run repeats."""

    name = "random"

    def __init__(self) -> None:
        self._rng = random.Random(0)

    def choose(self, candidates, ctx):
        return self._rng.choice(list(candidates))


class HalfEmpty(VictimPolicy):
    """Optimistic start: spill smallest until half the partitions have
    spilled, then pessimistically spill largest."""

    name = "half-empty"

    def choose(self, candidates, ctx):
        if ctx.num_spilled > ctx.num_partitions / 2:
            return self._max(candidates, lambda p: p.in_memory_bytes)
        return self._min(candidates, lambda p: p.in_memory_bytes)


class LeastFragmentation(VictimPolicy):
    """Spill the partition whose frames carry the least internal free space."""

    name = "least-fragmentation"

    def choose(self, candidates, ctx):
        return self._min(candidates, lambda p: p.fragmentation_bytes)


class LowHigh(VictimPolicy):
    """Alternate between spilling the smallest and the largest partition."""

    name = "low-high"

    def __init__(self) -> None:
        self._spill_largest_next = False

    def choose(self, candidates, ctx):
        pick_largest = self._spill_largest_next
        self._spill_largest_next = not self._spill_largest_next
        if pick_largest:
            return self._max(candidates, lambda p: p.in_memory_bytes)
        return self._min(candidates, lambda p: p.in_memory_bytes)


class RecordSizeRatio(VictimPolicy):
    """Among partitions ≥80% of the largest size, spill the one with the
    fewest records (low records-to-size ratio keeps more joinable records
    in memory per byte retained)."""

    name = "record-size-ratio"

    def choose(self, candidates, ctx):
        biggest = max(p.in_memory_bytes for p in candidates)
        pool = [p for p in candidates if p.in_memory_bytes >= 0.8 * biggest]
        return self._min(pool, lambda p: p.in_memory_records)


_BY_NAME = {cls.name: cls for cls in (
    LargestSize, LargestRecords, LargestSizeSelfVictim,
    MedianSize, MedianRecords,
    SmallestSize, SmallestRecords, SmallestSizeSelfVictim,
    RandomVictim, HalfEmpty, LeastFragmentation, LowHigh, RecordSizeRatio,
)}

#: the canonical names of the 13 policies, in the paper's order
NAMES = tuple(_BY_NAME)


def make_policy(name: str) -> VictimPolicy:
    """Construct one of the 13 policies from its canonical name."""
    if name not in _BY_NAME:
        raise KeyError(f"unknown victim policy {name!r}; "
                       f"choose from {sorted(_BY_NAME)}")
    return _BY_NAME[name]()
