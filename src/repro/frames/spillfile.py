"""Spill files for partitions written to disk.

Two implementations behind one interface:

* :class:`MemorySpillFile` keeps spilled records in Python lists — used by
  the driver-side experiment harnesses where only the *write trace*
  matters and re-reading must be fast.
* :class:`DiskSpillFile` pickles each frame to a real temporary file —
  used by the Spark-executor operator so a partition pair larger than the
  configured budget does not balloon executor memory. The partitions of
  one side of one round share one OS temp file: each
  :class:`DiskSpillFile` is the logical run file of its partition, the
  extents of its frames in that temp file.

Both count frames and bytes written, and both record their I/O in the
operator's :class:`~repro.core.stats.JoinStats` through the two methods
they share: every write through :meth:`SpillFile.write_frames`, every
replay through :meth:`SpillFile.replay`. The I/O accounting (and hence
the storage model) sees exactly what the files hold.

A file is made with the stats it records into and owns the label of
its writes: its side (build or probe), partition and round.

A file stores the operator's records as they are, :data:`Record` tuples
``(key, size, payload)`` (the caller's own tuples where ``_admit`` let
them through): a memory file replays the same objects, a disk file equal
tuples unpickled from its frames.
"""
from __future__ import annotations

import os
import pickle
import tempfile
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from ..core.stats import JoinStats, Phase

#: ``(key, size_bytes, payload)``: the caller's input record, which is
#: also the one record layout of frames, spill files, replay and the hash
#: table. A frame's bytes are ``sum(r[1] for r in records)``, and the key
#: travels with the record so spilled data can be re-partitioned in later
#: rounds.
Record = Tuple[Any, int, Any]


class SpillFile:
    """Write counters and accounted writes and replays of a spill file."""

    def __init__(self, stats: "JoinStats", phase: "Phase", pid: int,
                 round_no: int) -> None:
        self.stats = stats
        #: every write's ``(phase, pid, round_no)``
        self.label = (phase, pid, round_no)
        self.frames_written = 0
        self.bytes_written = 0

    def write_frame(self, records: Sequence[Record]) -> None:
        raise NotImplementedError

    def read_all(self) -> Iterator[Record]:
        raise NotImplementedError

    def write_frames(self, frames: Sequence[Sequence[Record]]) -> None:
        """Write ``frames`` (each a list of records) as one write op
        under this file's label.

        The only place a write is recorded in the stats, from this file's
        own counters, so the two cannot drift apart.
        """
        frames0, bytes0 = self.frames_written, self.bytes_written
        for f in frames:
            self.write_frame(f)
        self.stats.record_write(self.frames_written - frames0,
                                self.bytes_written - bytes0, *self.label)

    def replay(self) -> Iterator[Record]:
        """Every record in write order; the only place a read is charged
        to the stats (all frames written, when the replay is asked for)."""
        self.stats.frames_read += self.frames_written
        return self.read_all()


class MemorySpillFile(SpillFile):
    """In-memory stand-in for a partition's disk file."""

    def __init__(self, stats: "JoinStats", phase: "Phase", pid: int,
                 round_no: int) -> None:
        super().__init__(stats, phase, pid, round_no)
        self._records: List[Record] = []

    def write_frame(self, records: Sequence[Record]) -> None:
        """Append one frame's worth of records; accounts one frame of I/O."""
        self._records.extend(records)
        self.frames_written += 1
        self.bytes_written += sum(map(itemgetter(1), records))

    def read_all(self) -> Iterator[Record]:
        """Replay every spilled record in write order."""
        return iter(self._records)

    def close(self) -> None:
        self._records = []


class _TempFile:
    """One OS temp file that several :class:`DiskSpillFile` append their
    frames to; closed and unlinked when the last of them closes."""

    def __init__(self, dir: Optional[str]) -> None:
        self.fd, self.path = tempfile.mkstemp(prefix="repro-spill-", dir=dir)
        #: the offset the next frame is written at
        self.end = 0
        self.users = 0

    def release(self) -> None:
        self.users -= 1
        if self.users == 0:
            try:
                os.close(self.fd)
            finally:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass


class DiskSpillFile(SpillFile):
    """A partition's run file on disk: one pickle per frame, in a temp
    file it may share.

    ``shared`` is the slot through which the files of one factory share
    their temp file: the first file opens it, and a file made after every
    earlier one has closed opens a fresh one. Each file keeps the
    ``(offset, length)`` of its own frames, writes them at the shared end
    and replays only them. Closing a file frees none of its bytes: they
    stay on disk until the last file on the temp file closes.
    """

    def __init__(self, stats: "JoinStats", phase: "Phase", pid: int, round_no: int,
                 shared: List[_TempFile], dir: Optional[str]) -> None:
        super().__init__(stats, phase, pid, round_no)
        if not shared or shared[0].users == 0:
            shared[:] = [_TempFile(dir)]
        self._tmp: Optional[_TempFile] = shared[0]
        self._tmp.users += 1
        self.path = self._tmp.path
        #: ``(offset, length)`` of each frame written, in write order
        self._extents: List[Tuple[int, int]] = []

    def write_frame(self, records: Sequence[Record]) -> None:
        data = pickle.dumps(list(records), protocol=pickle.HIGHEST_PROTOCOL)
        tmp = self._tmp
        if os.pwrite(tmp.fd, data, tmp.end) != len(data):
            raise OSError(f"short write to spill file {tmp.path}")
        self._extents.append((tmp.end, len(data)))
        tmp.end += len(data)
        self.frames_written += 1
        self.bytes_written += sum(map(itemgetter(1), records))

    def read_all(self) -> Iterator[Record]:
        fd = self._tmp.fd
        for offset, length in self._extents:
            yield from pickle.loads(os.pread(fd, length, offset))

    def close(self) -> None:
        if self._tmp is not None:
            tmp, self._tmp = self._tmp, None
            self._extents = []
            tmp.release()
