"""Deterministic split (partitioning hash) functions.

The split function routes a record to a partition from its join-key
value. Recursion levels must use *different* split functions, otherwise
every record of a spilled partition re-hashes into a single bucket and
the operator can never make progress. We derive a family of functions
from one 64-bit mixer seeded per (level, round).

Python's builtin ``hash`` is process-salted for strings, which would make
Spark-executor runs non-deterministic across workers — hence the explicit
CRC/splitmix construction.

The operator routes a batch of keys per call (:func:`split_partition`)
through one numpy uint64 splitmix64 kernel. :func:`stable_hash` is the
scalar reference the kernel must equal bit for bit.
"""
from __future__ import annotations

import zlib
from typing import Any, List, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D4A29B9D49AE35) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _hash_base(key: Any) -> int:
    """The integer a key hashes as, before seeding and mixing.

    Any key ``int()`` accepts hashes as that integer: ints, bools, numpy
    ints and floats (truncated, so integral floats agree with ints), and
    digit strings. Bytes are hashed from their CRC32 and every other key
    from the CRC32 of its ``repr``.
    """
    if isinstance(key, int):
        return key
    if isinstance(key, (bytes, bytearray)):
        return zlib.crc32(bytes(key))
    try:
        return int(key)
    except (TypeError, ValueError, OverflowError):
        return zlib.crc32(repr(key).encode("utf-8"))


def stable_hash(key: Any, seed: int = 0) -> int:
    """64-bit deterministic hash of a join-key value, one key at a time.

    The reference for :func:`split_partition`'s batch kernel. The
    operator canonicalises keys on entry (``DynamicHybridHashJoin._admit``);
    this function needs no canonical form of its own (see ``_hash_base``).
    """
    return _splitmix64((_hash_base(key) ^ (seed * _GOLDEN)) & _MASK64)


def _bases(keys: Sequence[Any]) -> np.ndarray:
    """Each key's ``_hash_base`` modulo 2**64, as uint64."""
    if set(map(type, keys)) <= {int}:
        try:
            return np.fromiter(keys, np.int64, len(keys)).view(np.uint64)
        except OverflowError:        # an int outside int64
            pass
    return np.fromiter((_hash_base(k) & _MASK64 for k in keys), np.uint64, len(keys))


def split_partition(keys: Sequence[Any], num_partitions: int,
                    level: int = 0) -> List[int]:
    """Partition id of each of ``keys`` at recursion ``level`` (0 = first
    round): ``stable_hash(key, 0xA5A5 + level) % num_partitions``, as one
    splitmix64 over the whole batch in uint64 arithmetic, which wraps
    exactly as ``_splitmix64``'s masks do."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    x = _bases(keys)
    x ^= np.uint64(((0xA5A5 + level) * _GOLDEN) & _MASK64)
    x += np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D4A29B9D49AE35)
    x ^= x >> np.uint64(31)
    return (x % np.uint64(num_partitions)).tolist()
