"""A join partition: an array of in-memory frames plus spill state.

Mirrors the paper's Fig. 2 structure: each partition owns an ordered
array of frames (oldest first, newest last) and the §5 insertion policy
that searches it; when the partition spills it gains a spill file and —
under NG-NS — is reduced to a single output buffer frame.

A frame is two entries at one index: ``frames[i]``, the list of its
``(key, size, payload)`` records (:data:`~repro.frames.spillfile.Record`,
the caller's own tuples where the operator admitted them uncopied), and
``free[i]``, its free bytes. The insertion policy searches ``free``
alone. :meth:`place`,
:meth:`append_buffered`, :meth:`write_out`, :meth:`drop_frames` and
:meth:`close` are the only code that changes either list, so
``free[i] == frame_bytes - Σ size`` over ``frames[i]`` always holds.

A partition is made with the operator's
:class:`~repro.frames.pool.BufferPool`, which funds its frames, and its
side's spill-file factory. It places its records within the pool, writes
its own frames out and tells its insertion policy when they are cut.
Only :meth:`spill`, :meth:`reload` and :meth:`close` change its spill
state; which partition spills is the growth policy's decision, which
reloads the operator's.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..insertion.policies import AppendN, InsertionPolicy
from .spillfile import Record, SpillFile

if TYPE_CHECKING:
    from .pool import BufferPool

#: makes the spill file of partition ``pid``, labelled with its side and round
SpillFiles = Callable[[int], SpillFile]


class Partition:
    """One build- or probe-side partition of the Dynamic HHJ operator."""

    def __init__(self, pid: int, frame_bytes: int, pool: "BufferPool",
                 spill_files: SpillFiles,
                 insertion: Optional[InsertionPolicy] = None) -> None:
        if frame_bytes <= 0:
            raise ValueError(f"frame_bytes must be positive, got {frame_bytes}")
        self.pid = pid
        self.frame_bytes = frame_bytes
        self.pool = pool
        #: the records of each in-memory frame, oldest frame first
        self.frames: List[List[Record]] = []
        #: free bytes of each in-memory frame, index for index with ``frames``
        self.free: List[int] = []
        self.spilled = False
        #: created on the first write
        self.spill_file: Optional[SpillFile] = None
        self._spill_files = spill_files
        #: the operator's default, Append(8), unless the caller picks one
        self.insertion = insertion if insertion is not None else AppendN(8)
        #: the policy's ``notify_inserted``, or None when it keeps the
        #: base class's no-op (every policy but Next-Fit)
        self._notify_inserted = (
            self.insertion.notify_inserted
            if type(self.insertion).notify_inserted is not InsertionPolicy.notify_inserted
            else None)

    # -- in-memory state -------------------------------------------------
    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def in_memory_bytes(self) -> int:
        return self.frame_bytes * len(self.free) - sum(self.free)

    @property
    def in_memory_records(self) -> int:
        return sum(map(len, self.frames))

    @property
    def fragmentation_bytes(self) -> int:
        """Total free space inside allocated frames (paper's Least-Fragmentation metric)."""
        return sum(self.free)

    # -- placing records -------------------------------------------------
    def place(self, rec: Record,
              make_room: Optional[Callable[["Partition"], bool]] = None) -> bool:
        """Place ``rec`` in the frame the insertion policy finds, else in
        a new frame the pool funds.

        The frames are searched once. While the pool is full,
        ``make_room(self)`` may free frames; it returns False to give up.
        Returns False when the record was not placed.
        """
        size = rec[1]
        free = self.free
        if free:
            idx = self.insertion.find_frame(free, size)
            if idx is not None:
                self.frames[idx].append(rec)
                free[idx] -= size
                if self._notify_inserted is not None:
                    self._notify_inserted(idx, size)
                return True
        while not self.pool.can_allocate(1):
            if make_room is None or not make_room(self):
                return False
        self.pool.allocate(1)
        self.frames.append([rec])
        self.free.append(self.frame_bytes - size)
        if self._notify_inserted is not None:
            self._notify_inserted(len(self.free) - 1, size)
        return True

    def append_buffered(self, rec: Record) -> None:
        """Add ``rec`` to the partition's one output-buffer frame, which
        the pool funds on first use; when it does not fit, the buffer
        first goes to disk as a single-frame (random) write (§6.1)."""
        if not self.frames:
            self.pool.allocate(1)
            self.frames.append([])
            self.free.append(self.frame_bytes)
        size = rec[1]
        if size > self.free[0]:
            self._write([self.frames[0]])
            self.frames[0] = []
            self.free[0] = self.frame_bytes
        self.frames[0].append(rec)
        self.free[0] -= size

    # -- writing out -----------------------------------------------------
    def write_out(self, keep_buffer: bool) -> int:
        """Write the non-empty frames as one op (sequential iff >1 frame)
        and release the frames to the pool, keeping one cleared output
        buffer if ``keep_buffer``. Returns frames freed."""
        n = self.num_frames
        if n == 0:
            return 0
        nonempty = [f for f in self.frames if f]
        if nonempty:
            self._write(nonempty)
        if keep_buffer:
            self.frames, self.free = [[]], [self.frame_bytes]
            n -= 1
        else:
            self.frames, self.free = [], []
        self.pool.release(n)
        self.insertion.notify_spilled()
        return n

    def spill(self) -> int:
        """First spill: every frame goes out as one write, one cleared
        frame stays as the output buffer. Returns frames freed."""
        assert not self.spilled, f"partition {self.pid} already spilled"
        freed = self.write_out(keep_buffer=True)
        self.spilled = True
        return freed

    def reload(self) -> bool:
        """§8.5: place the spill file's records back in memory. True when
        all fit (the partition is resident, its file gone); else False,
        its frames dropped and the file, which holds every record, kept."""
        if all(self.place(rec) for rec in self.spill_file.replay()):
            self.spilled = False
            self.spill_file.close()
            self.spill_file = None
            return True
        self.drop_frames()
        return False

    def drop_frames(self) -> None:
        """Release every frame without writing it: its records are
        already in the spill file."""
        self.pool.release(self.num_frames)
        self.frames, self.free = [], []
        self.insertion.notify_spilled()

    def _write(self, frames: List[List[Record]]) -> None:
        if self.spill_file is None:
            self.spill_file = self._spill_files(self.pid)
        self.spill_file.write_frames(frames)

    def close(self) -> None:
        if self.spill_file is not None:
            self.spill_file.close()
            self.spill_file = None
        self.frames, self.free = [], []
