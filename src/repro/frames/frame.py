"""Frame size.

A frame is AsterixDB's unit of memory and I/O: a fixed-size, configurable
block of contiguous bytes (paper §2.2). A :class:`~repro.frames.partition.Partition`
keeps each of its frames as a list of records and its free bytes; a
record never splits across frames, which matches the paper (records are
at most one frame large).
"""
DEFAULT_FRAME_BYTES = 32 * 1024  # 32 KB, the frame size used in §5.3.1
