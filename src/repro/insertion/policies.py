"""Partition-insertion algorithms (paper §5).

Each policy answers: *given the free bytes of each of a partition's
in-memory frames and an incoming record size, which frame should hold
the record?* Returning ``None`` means "no searched frame fits — allocate
a new frame".

All searches run over the partition's free-byte list with index 0 the
oldest frame and index −1 the newest, matching the paper's "search starts
from the newest allocated frame and proceeds towards the oldest". A
frame fits a record when ``free[i] >= size``.

Every policy counts the frames it inspects (``frames_searched``) because
the paper's efficiency metric is exactly that count (Figs 6–8) and the
CPU term of the storage model charges per inspected frame.
"""
from __future__ import annotations

import math
import random
from typing import List, Optional


class InsertionPolicy:
    """Base class: bookkeeping shared by all §5 algorithms."""

    def __init__(self) -> None:
        self.frames_searched = 0

    def reset_stats(self) -> None:
        self.frames_searched = 0

    def find_frame(self, free: List[int], size: int) -> Optional[int]:
        """Index of a frame with ``size`` bytes free, or None to allocate."""
        raise NotImplementedError

    def notify_inserted(self, index: int, size: int) -> None:
        """Hook for stateful policies (Next-Fit): a record of ``size``
        bytes went into frame ``index``. The default is stateless, and a
        partition does not call it for a policy that keeps it."""

    def notify_spilled(self) -> None:
        """Hook: the partition's frame array was truncated by a spill."""

    def _newest_first(self, free: List[int], size: int, lo: int) -> Optional[int]:
        """Scan ``free[lo:]`` newest→oldest for the first frame that fits,
        counting each frame inspected."""
        for i in range(len(free) - 1, lo - 1, -1):
            if free[i] >= size:
                self.frames_searched += len(free) - i
                return i
        self.frames_searched += len(free) - lo
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class AppendN(InsertionPolicy):
    """Append(n): check only the newest ``n`` frames, newest→oldest."""

    def __init__(self, n: int = 8) -> None:
        super().__init__()
        if n < 1:
            raise ValueError("Append(n) needs n >= 1")
        self.n = n

    def find_frame(self, free: List[int], size: int) -> Optional[int]:
        # the newest frame first, the usual fit, without setting up a scan
        if free and free[-1] >= size:
            self.frames_searched += 1
            return len(free) - 1
        return self._newest_first(free, size, max(0, len(free) - self.n))


class FirstFit(InsertionPolicy):
    """First-Fit: scan every frame newest→oldest, stop at the first fit."""

    def find_frame(self, free: List[int], size: int) -> Optional[int]:
        return self._newest_first(free, size, 0)


class FirstFitPct(InsertionPolicy):
    """First-Fit(%p): like First-Fit but stop after ⌈p·|frames|⌉ frames."""

    def __init__(self, pct: float = 0.10) -> None:
        super().__init__()
        if not 0 < pct <= 1:
            raise ValueError("First-Fit(%p) needs 0 < p <= 1")
        self.pct = pct

    def find_frame(self, free: List[int], size: int) -> Optional[int]:
        limit = math.ceil(self.pct * len(free))
        return self._newest_first(free, size, max(0, len(free) - limit))


class BestFit(InsertionPolicy):
    """Best-Fit: scan *all* frames, pick the tightest fit."""

    def find_frame(self, free: List[int], size: int) -> Optional[int]:
        n = len(free)
        best_i: Optional[int] = None
        best_free = None
        for i in range(n - 1, -1, -1):
            f = free[i]
            if f >= size and (best_free is None or f < best_free):
                best_i, best_free = i, f
                if f == size:  # cannot do better than an exact fit
                    self.frames_searched += n - i
                    return i
        self.frames_searched += n
        return best_i


class NextFit(InsertionPolicy):
    """Next-Fit: resume the search where the previous record landed.

    Per the paper: the first record searches from the newest frame. After
    that, the search starts at the previous record's frame; if the new
    record is *larger* than the previous one the search moves toward
    newer frames, if *smaller* it tries older frames first and falls back
    to newer frames on failure.
    """

    def __init__(self) -> None:
        super().__init__()
        self._last_index: Optional[int] = None
        self._last_size: Optional[int] = None

    def reset_stats(self) -> None:
        super().reset_stats()
        self._last_index = None
        self._last_size = None

    def notify_inserted(self, index: int, size: int) -> None:
        self._last_index = index
        self._last_size = size

    def notify_spilled(self) -> None:
        # Frame array was truncated — stored index is no longer valid.
        self._last_index = None
        self._last_size = None

    def _scan(self, free: List[int], size: int, start: int, step: int) -> Optional[int]:
        i = start
        while 0 <= i < len(free):
            self.frames_searched += 1
            if free[i] >= size:
                return i
            i += step
        return None

    def find_frame(self, free: List[int], size: int) -> Optional[int]:
        if not free:
            return None
        if self._last_index is None or self._last_index >= len(free):
            # first record (or state invalidated): newest → oldest
            return self._scan(free, size, len(free) - 1, -1)
        start = self._last_index
        if self._last_size is not None and size > self._last_size:
            return self._scan(free, size, start, +1)
        hit = self._scan(free, size, start, -1)
        if hit is not None:
            return hit
        if start + 1 < len(free):
            return self._scan(free, size, start + 1, +1)
        return None


class RandomPct(InsertionPolicy):
    """Random(%p): probe up to ⌈p·|frames|⌉ frames chosen at random."""

    def __init__(self, pct: float = 0.10, seed: int = 0) -> None:
        super().__init__()
        if not 0 < pct <= 1:
            raise ValueError("Random(%p) needs 0 < p <= 1")
        self.pct = pct
        self.rng = random.Random(seed)   # the operator seeds it with the pid

    def find_frame(self, free: List[int], size: int) -> Optional[int]:
        if not free:
            return None
        k = min(len(free), math.ceil(self.pct * len(free)))
        for i in self.rng.sample(range(len(free)), k):
            self.frames_searched += 1
            if free[i] >= size:
                return i
        return None


#: The six §5.3 contenders at the paper's chosen parameter values, each
#: built from the seed of its random stream (only Random(%p) has one).
_CONSTRUCTORS = {
    "append(8)": lambda seed: AppendN(8),
    "first-fit": lambda seed: FirstFit(),
    "first-fit(10%)": lambda seed: FirstFitPct(0.10),
    "best-fit": lambda seed: BestFit(),
    "next-fit": lambda seed: NextFit(),
    "random(10%)": lambda seed: RandomPct(0.10, seed),
}


#: the canonical names, in the paper's order
NAMES = tuple(_CONSTRUCTORS)


def make_policy(name: str, seed: int) -> InsertionPolicy:
    """Construct one policy from its canonical name (fresh stats);
    ``seed`` seeds a random search."""
    if name not in _CONSTRUCTORS:
        raise KeyError(f"unknown insertion policy {name!r}; "
                       f"choose from {sorted(_CONSTRUCTORS)}")
    return _CONSTRUCTORS[name](seed)
