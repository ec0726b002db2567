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
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..frames.partition import Partition
from ..frames.spillfile import Record
from ..victim.policies import VictimContext, VictimPolicy

if TYPE_CHECKING:
    from ..core.stats import JoinStats


class GrowthPolicy:
    """Base growth policy: shared initial-spill mechanics.

    Made with the operator's §7 :class:`VictimPolicy` and its stats. The
    only caller of the victim policy: every resident partition the
    operator spills is picked in :meth:`_spill_resident`.
    """

    def __init__(self, victim: VictimPolicy, stats: "JoinStats") -> None:
        self.victim = victim
        self.stats = stats

    def initial_spill(self, part: Partition) -> int:
        """Spill a memory-resident partition for the first time.

        Writes all its frames as one sequential chunk, keeps one cleared
        output-buffer frame, releases the rest. Returns frames freed. An
        empty partition allocates its buffer lazily on first insert.
        """
        assert not part.spilled, f"partition {part.pid} already spilled"
        freed = part.write_out(keep_buffer=True)
        part.spilled = True
        self.stats.partitions_spilled += 1
        return freed

    def flush_spilled(self, part: Partition, keep_buffer: bool = True) -> int:
        """Flush a spilled partition's current frames to its file.

        One write op covering all its frames (sequential iff >1 frame).
        Returns frames freed.
        """
        return part.write_out(keep_buffer)

    # -- hooks the operator calls ---------------------------------------
    def insert_into_spilled(self, part: Partition, rec: Record) -> bool:
        """Insert ``rec`` routed to an already-spilled partition.

        Returns True on success; False means memory pressure (caller must
        free memory and retry — only possible under G-S).
        """
        raise NotImplementedError

    def free_memory(self, partitions: Sequence[Partition],
                    ctx: VictimContext) -> Optional[Partition]:
        """Give up memory: returns the partition that spilled or flushed,
        None when no partition holds a frame this policy may take."""
        raise NotImplementedError

    def _spill_resident(self, partitions: Sequence[Partition],
                        ctx: VictimContext) -> Optional[Partition]:
        """Spill the memory-resident partition the §7 victim policy picks."""
        candidates = [p for p in partitions if not p.spilled and p.num_frames >= 1]
        if not candidates:
            return None
        target = self.victim.choose(candidates, ctx)
        self.initial_spill(target)
        return target


class NoGrowNoSteal(GrowthPolicy):
    """NG-NS: spilled partitions own exactly one output-buffer frame."""

    def insert_into_spilled(self, part, rec) -> bool:
        n = len(part.frames)
        if n == 0 and not part.pool.can_allocate(1):
            return False
        assert n <= 1, "NG-NS invariant: one buffer per spilled partition"
        part.append_buffered(rec)
        return True

    def free_memory(self, partitions, ctx) -> Optional[Partition]:
        return self._spill_resident(partitions, ctx)


class GrowSteal(GrowthPolicy):
    """G-S: spilled partitions grow while memory lasts; steal from them first."""

    def insert_into_spilled(self, part, rec) -> bool:
        return part.place(rec)

    def free_memory(self, partitions, ctx) -> Optional[Partition]:
        # Steal: flush the spilled partition holding the most frames.
        spilled = [p for p in partitions if p.spilled and p.num_frames > 1]
        if spilled:
            target = max(spilled, key=lambda p: (p.num_frames, -p.pid))
            self.flush_spilled(target)
            return target
        return self._spill_resident(partitions, ctx)


def make_policy(name: str, victim: VictimPolicy, stats: "JoinStats") -> GrowthPolicy:
    """Construct a growth policy from its canonical name, with the victim
    policy it calls and the stats it counts spilled partitions in."""
    table = {"ng-ns": NoGrowNoSteal, "g-s": GrowSteal}
    if name not in table:
        raise KeyError(f"unknown growth policy {name!r}; choose from {sorted(table)}")
    return table[name](victim, stats)
