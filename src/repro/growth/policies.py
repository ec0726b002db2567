"""Growth policies for spilled partitions (paper §6).

* **NG-NS (No Grow – No Steal)** — once a partition has spilled it keeps
  exactly one frame, its output buffer. When the buffer fills, it is
  flushed to the partition's spill file as a single-frame (random) write.
  Victims under memory pressure are always memory-resident partitions.
* **G-S (Grow – Steal)** — spilled partitions may keep acquiring frames
  while memory allows. Under memory pressure, spilled partitions are
  victimized *first* (steal): the spilled partition holding the most
  frames flushes them as one multi-frame (sequential) write, shrinking
  back to a single buffer. Only when no spilled partition has more than
  one frame is a memory-resident victim selected.

Both policies issue the partition's *initial* spill the same way: all of
its in-memory frames go to disk in one chunk, and the partition keeps
one cleared frame as its output buffer. That matches the paper's §6.1
analysis where both policies write (M−x)/(P−x) frames sequentially on
first spill and differ only in how the remainder is written.

A growth policy belongs to one round, whose build partitions it is made
with, and runs that round's memory pressure: ``make_room``,
``insert_spilled`` and ``reserve_probe_buffers``. Each policy supplies
its own ``insert_spilled`` and ``free_memory``; the rest is shared.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..frames.partition import Partition
from ..frames.spillfile import Record
from ..victim.policies import VictimContext, VictimPolicy

if TYPE_CHECKING:
    from ..core.stats import JoinStats


class GrowthPolicy:
    """Base growth policy: the round's memory-pressure loops and the
    shared initial-spill mechanics.

    Made with the operator's §7 :class:`VictimPolicy` (one per run, so a
    stateful policy's stream spans rounds), its stats and the round's
    build partitions. The only caller of the victim policy: every
    resident partition the operator spills is picked in
    :meth:`_spill_resident`. A policy supplies two methods:
    ``insert_spilled(part, rec)``, which puts one build record into a
    spilled partition, and ``free_memory(incoming_pid)``, the partition
    that spilled or flushed for a record of ``incoming_pid`` (−1: for the
    probe buffers), or None when it may take no frame.
    """

    def __init__(self, victim: VictimPolicy, stats: "JoinStats",
                 partitions: List[Partition]) -> None:
        self.victim = victim
        self.stats = stats
        self.partitions = partitions
        #: the pool that funds every partition's frames
        self.pool = partitions[0].pool

    def initial_spill(self, part: Partition) -> int:
        """Spill a memory-resident partition for the first time
        (:meth:`Partition.spill`). Returns frames freed."""
        freed = part.spill()
        self.stats.partitions_spilled += 1
        return freed

    def flush_spilled(self, part: Partition, keep_buffer: bool = True) -> int:
        """Flush a spilled partition's frames to its file as one write op
        (sequential iff >1 frame). Returns frames freed."""
        return part.write_out(keep_buffer)

    def _spill_resident(self, incoming_pid: int) -> Optional[Partition]:
        """Spill the memory-resident partition the §7 victim policy picks."""
        parts = self.partitions
        candidates = [p for p in parts if not p.spilled and p.num_frames >= 1]
        if not candidates:
            return None
        ctx = VictimContext(incoming_pid, sum(p.spilled for p in parts), len(parts))
        target = self.victim.choose(candidates, ctx)
        self.initial_spill(target)
        return target

    # -- the round's memory pressure -------------------------------------
    def make_room(self, part: Partition) -> bool:
        """Spill for a record of resident ``part`` (``Partition.place``'s
        ``make_room``); False once ``part`` itself has spilled."""
        if self.free_memory(part.pid) is None:
            raise MemoryError(
                "cannot free memory: all partitions spilled and pool full "
                f"(budget={self.pool.budget}, P={len(self.partitions)})"
            )
        return not part.spilled

    def reserve_probe_buffers(self) -> None:
        """Spill more residents until each spilled partition can hold one
        probe output buffer within the budget."""
        pool = self.pool
        while sum(q.spilled for q in self.partitions) + pool.allocated > pool.budget:
            # spilled partitions hold no frames here, so G-S steals nothing
            target = self.free_memory(-1)
            if target is None:
                raise MemoryError("cannot reserve probe buffers: no resident victims")
            self.flush_spilled(target, keep_buffer=False)


class NoGrowNoSteal(GrowthPolicy):
    """NG-NS: spilled partitions own exactly one output-buffer frame."""

    def insert_spilled(self, part: Partition, rec: Record) -> None:
        # Cannot miss: a victim has a frame, so its spill leaves it one
        # cleared buffer, and in the build only the end-of-build flush
        # takes it. Without one, the pool's allocate raises when full.
        part.append_buffered(rec)

    def free_memory(self, incoming_pid: int) -> Optional[Partition]:
        return self._spill_resident(incoming_pid)


class GrowSteal(GrowthPolicy):
    """G-S: spilled partitions grow while memory lasts; steal from them first."""

    def insert_spilled(self, part: Partition, rec: Record) -> None:
        while not part.place(rec):
            if self.free_memory(part.pid) is not None:
                continue
            if part.num_frames == 0:
                raise MemoryError("spilled-partition insert cannot make progress")
            # last resort: recycle our own (full) frames via a flush
            self.flush_spilled(part)

    def free_memory(self, incoming_pid: int) -> Optional[Partition]:
        # Steal: flush the spilled partition holding the most frames.
        spilled = [p for p in self.partitions if p.spilled and p.num_frames > 1]
        if spilled:
            target = max(spilled, key=lambda p: (p.num_frames, -p.pid))
            self.flush_spilled(target)
            return target
        return self._spill_resident(incoming_pid)


_BY_NAME = {"ng-ns": NoGrowNoSteal, "g-s": GrowSteal}

#: the canonical names, in the paper's order
NAMES = tuple(_BY_NAME)


def make_policy(name: str, victim: VictimPolicy, stats: "JoinStats",
                partitions: List[Partition]) -> GrowthPolicy:
    """Construct one round's growth policy from its canonical name, for
    the round's build ``partitions``."""
    return _BY_NAME[name](victim, stats, partitions)
