"""Shared helpers for the record-level tests."""
from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.stats import JoinStats
from repro.frames import MemorySpillFile
from repro.frames.partition import SpillFiles

Record = Tuple[int, int, object]


def spill_files(stats: JoinStats, phase: str = "build", round_no: int = 0) -> SpillFiles:
    """In-memory spill files of one side of one round, recording into
    ``stats``: what the operator hands each partition it makes."""
    return lambda pid: MemorySpillFile(stats, phase, pid, round_no)


def make_records(n: int, *, key_range: int = 1000, lo: int = 700, hi: int = 1500,
                 seed: int = 0, tag: str = "r") -> List[Record]:
    """Deterministic (key, size, payload) records with uniform keys."""
    rng = random.Random(seed)
    return [(rng.randrange(1, key_range + 1), rng.randrange(lo, hi + 1), f"{tag}{i}")
            for i in range(n)]


def make_skewed_records(n: int, *, hot_keys: int = 5, seed: int = 0,
                        lo: int = 700, hi: int = 1500, tag: str = "s") -> List[Record]:
    """90% of records share ``hot_keys`` keys; the rest are unique-ish."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        if rng.random() < 0.9:
            k = rng.randrange(1, hot_keys + 1)
        else:
            k = rng.randrange(hot_keys + 1, hot_keys + n)
        out.append((k, rng.randrange(lo, hi + 1), f"{tag}{i}"))
    return out


#: the oracle's one key for every NaN
_NAN = object()


def naive_hash_join(build, probe) -> List[Tuple[object, object]]:
    """Reference equijoin, the test oracle: (build payload, probe payload)
    for every key match. A plain dict, so Python's own equality decides
    that 1, 1.0 and np.int64(1) match; every NaN is one key, as NaN = NaN
    is true in Spark SQL joins."""
    def key_of(key):
        return _NAN if key != key else key

    table: dict = {}
    for key, _size, payload in build:
        table.setdefault(key_of(key), []).append(payload)
    return [(b, payload) for key, _size, payload in probe
            for b in table.get(key_of(key), ())]


def assert_free_list_invariant(parts, pool=None) -> None:
    """Each partition's free-byte list matches its frames' records, its
    derived sizes equal a recomputation, and ``pool`` (when given) funds
    exactly the partitions' frames."""
    for q in parts:
        assert len(q.free) == len(q.frames)
        used = [sum(r[1] for r in records) for records in q.frames]
        for free, frame_used in zip(q.free, used):
            assert 0 <= free == q.frame_bytes - frame_used
        assert q.in_memory_bytes == sum(used)
        assert q.in_memory_records == sum(len(records) for records in q.frames)
        assert q.fragmentation_bytes == sum(q.frame_bytes - u for u in used)
    if pool is not None:
        assert pool.allocated == sum(q.num_frames for q in parts)
