"""Operator statistics: spill volumes, write trace, search effort.

The paper's evaluation metrics are all derivable from three streams of
facts about one join execution:

* the **write trace** — every disk write the operator issues, with its
  size in frames. A multi-frame write is sequential; a single-frame write
  is random (this is exactly the §6 distinction between G-S and NG-NS).
* **spill volumes** per phase (build/probe), in bytes and frames.
* **CPU effort** — frames inspected by the insertion policy and records
  hashed/processed.

:class:`JoinStats` collects them; the storage model replays the trace to
produce device response times.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Literal, NamedTuple

from ..frames.frame import DEFAULT_FRAME_BYTES

Phase = Literal["build", "probe"]


class WriteOp(NamedTuple):
    """One disk write: ``n_frames`` contiguous frames of one partition."""

    n_frames: int
    phase: Phase
    pid: int
    round_no: int

    @property
    def sequential(self) -> bool:
        """§6 classification: multi-frame chunk writes are sequential,
        one-frame output-buffer flushes are random."""
        return self.n_frames > 1


@dataclass
class JoinStats:
    """Everything measured about one (possibly multi-round) join run."""

    frame_bytes: int = DEFAULT_FRAME_BYTES

    # spilling
    build_bytes_spilled: int = 0
    probe_bytes_spilled: int = 0
    build_frames_spilled: int = 0
    probe_frames_spilled: int = 0
    partitions_spilled: int = 0

    # CPU-side effort
    frames_searched: int = 0
    records_processed: int = 0
    hash_probes: int = 0
    comparisons: int = 0

    # reads during later rounds / reload
    frames_reloaded: int = 0
    frames_read: int = 0

    # control flow
    rounds: int = 0
    bnlj_rounds: int = 0
    in_memory_rounds: int = 0
    role_reversals: int = 0

    # memory at the end of the round-0 build phase
    resident_frames: int = 0
    resident_bytes: int = 0

    write_trace: List[WriteOp] = field(default_factory=list)

    # -- recording -------------------------------------------------------
    def record_write(self, n_frames: int, payload_bytes: int,
                     phase: Phase, pid: int, round_no: int) -> None:
        if n_frames <= 0:
            return
        self.write_trace.append(WriteOp(n_frames, phase, pid, round_no))
        if phase == "probe":
            self.probe_frames_spilled += n_frames
            self.probe_bytes_spilled += payload_bytes
        else:
            self.build_frames_spilled += n_frames
            self.build_bytes_spilled += payload_bytes

    # -- derived metrics -------------------------------------------------
    @property
    def total_bytes_spilled(self) -> int:
        return self.build_bytes_spilled + self.probe_bytes_spilled

    @property
    def total_frames_spilled(self) -> int:
        return self.build_frames_spilled + self.probe_frames_spilled

    @property
    def avg_frame_fullness(self) -> float:
        """Mean fullness of the frames resident at the end of the round-0
        build (paper §5 metric); 0.0 when none are."""
        if not self.resident_frames:
            return 0.0
        return self.resident_bytes / (self.resident_frames * self.frame_bytes)

    @property
    def sequential_write_ops(self) -> int:
        return sum(1 for w in self.write_trace if w.sequential)

    @property
    def random_write_ops(self) -> int:
        return sum(1 for w in self.write_trace if not w.sequential)

    @property
    def sequential_frames_written(self) -> int:
        return sum(w.n_frames for w in self.write_trace if w.sequential)

    @property
    def random_frames_written(self) -> int:
        return sum(w.n_frames for w in self.write_trace if not w.sequential)
