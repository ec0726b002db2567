"""Spill files for partitions written to disk.

Two implementations behind one interface:

* :class:`MemorySpillFile` keeps spilled records in Python lists — used by
  the driver-side experiment harnesses where only the *write trace*
  matters and re-reading must be fast.
* :class:`DiskSpillFile` pickles frame batches to a real temporary file —
  used by the Spark-executor operator so a partition pair larger than the
  configured budget does not balloon executor memory.

Both count frames and bytes written, and both record their I/O in the
operator's :class:`~repro.core.stats.JoinStats` through the two methods
they share: every write through :meth:`SpillFile.write_frames`, every
replay through :meth:`SpillFile.replay`. The I/O accounting (and hence
the storage model) sees exactly what the files hold.

A file is made with the stats it records into and owns the label of
its writes: its side (build or probe), partition and round.
"""
from __future__ import annotations

import os
import pickle
import tempfile
from typing import TYPE_CHECKING, Any, Iterator, List, Sequence, Tuple

if TYPE_CHECKING:
    from ..core.stats import JoinStats, Phase

#: ``(size, key, payload)``: the one record layout from the operator's
#: input to frames, spill files and replay. The size comes first so a
#: frame's bytes are ``sum(r[0] for r in records)`` whatever the key and
#: payload hold, and the key travels with the record so spilled data can
#: be re-partitioned in later rounds.
Record = Tuple[int, Any, Any]


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
        self.bytes_written += sum(r[0] for r in records)

    def read_all(self) -> Iterator[Record]:
        """Replay every spilled record in write order."""
        return iter(self._records)

    def close(self) -> None:
        self._records = []


class DiskSpillFile(SpillFile):
    """Real temp-file spill target (pickle per frame batch)."""

    def __init__(self, stats: "JoinStats", phase: "Phase", pid: int, round_no: int,
                 dir: str | None = None) -> None:
        super().__init__(stats, phase, pid, round_no)
        fd, self.path = tempfile.mkstemp(prefix="repro-spill-", dir=dir)
        self._f = os.fdopen(fd, "w+b")

    def write_frame(self, records: Sequence[Record]) -> None:
        pickle.dump(list(records), self._f, protocol=pickle.HIGHEST_PROTOCOL)
        self.frames_written += 1
        self.bytes_written += sum(r[0] for r in records)

    def read_all(self) -> Iterator[Record]:
        self._f.flush()
        self._f.seek(0)
        while True:
            try:
                batch = pickle.load(self._f)
            except EOFError:
                break
            yield from batch
        self._f.seek(0, os.SEEK_END)

    def close(self) -> None:
        try:
            self._f.close()
        finally:
            try:
                os.unlink(self.path)
            except OSError:
                pass
