"""Frame-based memory substrate (AsterixDB-style) for the Dynamic HHJ."""
from .frame import DEFAULT_FRAME_BYTES
from .partition import Partition
from .pool import BufferPool
from .spillfile import DiskSpillFile, MemorySpillFile

__all__ = [
    "DEFAULT_FRAME_BYTES",
    "Partition",
    "BufferPool",
    "DiskSpillFile",
    "MemorySpillFile",
]
