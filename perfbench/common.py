"""Shared pieces of the benchmark: samples, statistics, memory sampling."""
from __future__ import annotations

import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

_PAGE = os.sysconf("SC_PAGE_SIZE")


@dataclass
class Sample:
    """One timed iteration.

    ``counts`` are exact and must repeat on every iteration of a run;
    ``extra`` holds other per-iteration measurements (times of sub-steps).
    """

    wall_s: float
    errors: List[str]
    counts: Dict[str, float]
    extra: Dict[str, float] = field(default_factory=dict)
    #: wall time of the reference measured next to this iteration
    ref_s: float = 0.0


#: the reference's time on an unloaded machine of the kind the benchmark
#: was built on (4 cores, Python 3.11)
NOMINAL_REFERENCE_S = 0.14


def reference_s() -> float:
    """Wall time of a fixed piece of pure-Python work in the operator's
    own mix — 100k record tuples hash-partitioned into 20 lists, each
    grouped by key in a dict — independent of the program under test.
    Measured next to every iteration, it tells how fast this machine is
    at that moment. Its working set is the size of a partition's, not a
    cache-resident loop's: a small loop ran up to 2x faster in quiet
    spells of a shared machine while the workloads ran only ~1.3x faster,
    so it over-corrected."""
    t0 = time.perf_counter()
    records = [(i * 7919 % 100_003, 700 + i % 800, i) for i in range(100_000)]
    parts: List[list] = [[] for _ in range(20)]
    for r in records:
        parts[hash(r[0]) % 20].append(r)
    for part in parts:
        index: Dict[int, list] = {}
        for key, _, rid in part:
            index.setdefault(key, []).append(rid)
    return time.perf_counter() - t0


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def highest_percentile(n: int) -> Optional[int]:
    """Highest percentile with at least ten samples beyond it, or None."""
    if n < 20:
        return None
    return int(math.floor(100 * (1 - 10 / n)))


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # the parent pid follows the parenthesised command name
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            kids.append(int(entry))
    return kids


def _is_python(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            argv0 = f.read().split(b"\0", 1)[0]
    except OSError:
        return False
    return b"python" in os.path.basename(argv0)


class RssSampler:
    """Polls the resident memory of this process — plus, with
    ``python_children``, every Python process below it (Spark's Python
    workers) — and keeps the peak of the sum."""

    def __init__(self, python_children: bool, interval_s: float = 0.01) -> None:
        self.python_children = python_children
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _pids(self) -> List[int]:
        pids = [os.getpid()]
        if self.python_children:
            frontier = [os.getpid()]
            while frontier:
                kids = _children(frontier.pop())
                frontier.extend(kids)
                pids.extend(k for k in kids if _is_python(k))
        return pids

    def current(self) -> int:
        return sum(_rss_bytes(p) for p in self._pids())

    def _loop(self) -> None:
        pids, polls = self._pids(), 0
        while not self._stop.wait(self.interval_s):
            polls += 1
            if self.python_children and polls % 50 == 0:
                pids = self._pids()
            self.peak = max(self.peak, sum(_rss_bytes(p) for p in pids))

    def start(self) -> None:
        self.peak = self.current()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> int:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self.peak = max(self.peak, self.current())
        return self.peak
