"""A join partition: an array of in-memory frames plus spill state.

Mirrors the paper's Fig. 2 structure: each partition owns an ordered
array of frames (oldest first, newest last) and the §5 insertion policy
that searches it; when the partition spills it gains a spill file and —
under NG-NS — is reduced to a single output buffer frame.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from ..insertion.policies import AppendN, InsertionPolicy
from .frame import Frame
from .spillfile import MemorySpillFile, SpillFile

if TYPE_CHECKING:
    from ..core.stats import JoinStats, Phase


class Partition:
    """One build- or probe-side partition of the Dynamic HHJ operator."""

    def __init__(self, pid: int, frame_bytes: int,
                 spill_file_factory: Callable[[], SpillFile] = MemorySpillFile,
                 insertion: Optional[InsertionPolicy] = None) -> None:
        self.pid = pid
        self.frame_bytes = frame_bytes
        self.frames: List[Frame] = []
        self.spilled = False
        self.spill_file: Optional[SpillFile] = None
        self._spill_file_factory = spill_file_factory
        #: the operator's default, Append(8), unless the caller picks one
        self.insertion = insertion if insertion is not None else AppendN(8)
        # lifetime counters (in-memory state is derivable from frames)
        self.records_spilled = 0
        self.bytes_spilled = 0

    # -- in-memory state -------------------------------------------------
    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def in_memory_bytes(self) -> int:
        return sum(f.used for f in self.frames)

    @property
    def in_memory_records(self) -> int:
        return sum(len(f) for f in self.frames)

    @property
    def fragmentation_bytes(self) -> int:
        """Total free space inside allocated frames (paper's Least-Fragmentation metric)."""
        return sum(f.free for f in self.frames)

    # -- frame management ------------------------------------------------
    def new_frame(self) -> Frame:
        """Append a freshly allocated frame (caller must hold a pool grant)."""
        f = Frame(self.frame_bytes)
        self.frames.append(f)
        return f

    def insert(self, size: int, payload: Any) -> bool:
        """Place a record in the frame the insertion policy finds.

        Returns False when no searched frame fits: the caller then
        funds a new frame from the pool and calls :meth:`insert_new_frame`.
        """
        idx = self.insertion.find_frame(self.frames, size)
        if idx is None:
            return False
        self.frames[idx].insert(size, payload)
        self.insertion.notify_inserted(idx, size, appended=False)
        return True

    def insert_new_frame(self, size: int, payload: Any) -> None:
        """Place a record in a new frame (caller must hold a pool grant)."""
        self.new_frame().insert(size, payload)
        self.insertion.notify_inserted(len(self.frames) - 1, size, appended=True)

    def ensure_spill_file(self) -> SpillFile:
        if self.spill_file is None:
            self.spill_file = self._spill_file_factory()
        return self.spill_file

    def flush_frames(self, frames: List[Frame], stats: "JoinStats",
                     phase: "Phase", round_no: int) -> int:
        """Write ``frames`` to the spill file as one accounted write op.

        Returns the number of bytes moved. Does **not** touch
        ``self.frames`` — the caller decides which frames leave memory
        (growth-policy specific) and releases them from the pool.
        """
        moved = self.ensure_spill_file().write_frames(frames, stats, phase,
                                                      self.pid, round_no)
        self.records_spilled += sum(len(f) for f in frames)
        self.bytes_spilled += moved
        return moved

    def close(self) -> None:
        if self.spill_file is not None:
            self.spill_file.close()
            self.spill_file = None
        self.frames = []
