"""Deterministic split (partitioning hash) functions.

The split function routes a record to a partition from its join-key
value. Recursion levels must use *different* split functions, otherwise
every record of a spilled partition re-hashes into a single bucket and
the operator can never make progress. We derive a family of functions
from one 64-bit mixer seeded per (level, round).

Python's builtin ``hash`` is process-salted for strings, which would make
Spark-executor runs non-deterministic across workers — hence the explicit
CRC/splitmix construction.
"""
from __future__ import annotations

import zlib
from typing import Any

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D4A29B9D49AE35) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def stable_hash(key: Any, seed: int = 0) -> int:
    """64-bit deterministic hash of a join-key value.

    Any key ``int()`` accepts hashes as that integer: ints, bools, numpy
    ints and floats (truncated, so integral floats agree with ints), and
    digit strings. Bytes are hashed from their CRC32 and every other key
    from the CRC32 of its ``repr``. The operator canonicalises keys on
    entry (``DynamicHybridHashJoin._admit``); this function needs no
    canonical form of its own.
    """
    if isinstance(key, int):
        base = key
    elif isinstance(key, (bytes, bytearray)):
        base = zlib.crc32(bytes(key))
    else:
        try:
            base = int(key)
        except (TypeError, ValueError):
            base = zlib.crc32(repr(key).encode("utf-8"))
    return _splitmix64((base ^ (seed * _GOLDEN)) & _MASK64)


def split_partition(key: Any, num_partitions: int, level: int = 0) -> int:
    """Partition id for ``key`` at recursion ``level`` (0 = first round)."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    return stable_hash(key, seed=0xA5A5 + level) % num_partitions

