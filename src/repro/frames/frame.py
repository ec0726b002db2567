"""Fixed-size memory frame.

A frame is AsterixDB's unit of memory and I/O: a fixed-size, configurable
block of contiguous bytes (paper §2.2). Our frame tracks byte occupancy
and holds record payloads; it never splits a record across frames, which
matches the paper (records are at most one frame large).
"""
from __future__ import annotations

from typing import Any, List, Optional

DEFAULT_FRAME_BYTES = 32 * 1024  # 32 KB, the frame size used in §5.3.1


class Frame:
    """One fixed-capacity frame holding whole records.

    ``records`` stores ``(size, payload)`` pairs. In *stats-only* mode the
    payload is ``None`` and only sizes are accounted; in *real-join* mode
    payload is the record tuple. Either way byte accounting is identical,
    so policy behaviour does not depend on the mode.
    """

    __slots__ = ("capacity", "used", "records")

    def __init__(self, capacity: int = DEFAULT_FRAME_BYTES) -> None:
        if capacity <= 0:
            raise ValueError(f"frame capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.used = 0
        self.records: List[tuple] = []

    @property
    def free(self) -> int:
        """Bytes still available in this frame."""
        return self.capacity - self.used

    def fits(self, size: int) -> bool:
        """True if a record of ``size`` bytes fits in the remaining space."""
        return size <= self.free

    def insert(self, size: int, payload: Any = None) -> None:
        """Place one record; raises if it does not fit (caller must check)."""
        if size > self.free:
            raise ValueError(
                f"record of {size} B does not fit in frame with {self.free} B free"
            )
        if size <= 0:
            raise ValueError(f"record size must be positive, got {size}")
        self.used += size
        self.records.append((size, payload))

    def clear(self) -> None:
        """Empty the frame (used when a spilled partition's buffer flushes)."""
        self.used = 0
        self.records = []

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Frame(used={self.used}/{self.capacity}, n={len(self.records)})"
