"""Record-level operator workloads: ``op-inmem`` and ``op-spill-skew``.

Both feed ``DynamicHybridHashJoin.run`` lists of ``(key, size, row_id)``
records built from the seed before timing starts. The row id is the
payload, so every output pair names the two input rows it joined and the
result can be checked against a naive dict equijoin computed in set-up.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import List, Optional, Tuple

import numpy as np

from repro.core.join import DynamicHybridHashJoin, HHJConfig
from repro.storage.device import HDD, response_time
from repro.synth_data import wisconsin_record_stream

from .common import NOMINAL_REFERENCE_S, Sample, reference_s
from .tracer import Tracer

FRAME_BYTES = 32 * 1024
Record = Tuple[int, int, int]

#: op-spill-skew: rows at the head of each side that share one key, and
#: that key (outside the generated key range 1..n)
HOT_ROWS = 1000
HOT_KEY = 0


def _with_row_ids(records, hot_rows: int = 0) -> List[Record]:
    return [(HOT_KEY if i < hot_rows else k, s, i)
            for i, (k, s, _) in enumerate(records)]


def naive_join_checksum(build: List[Record], probe: List[Record]) -> Tuple[int, ...]:
    """(pairs, Σ build id, Σ probe id, Σ build id × probe id) of the
    equijoin, from a dict index; independent of output order."""
    groups = defaultdict(lambda: [0, 0])
    for key, _, rid in build:
        g = groups[key]
        g[0] += 1
        g[1] += rid
    count = sum_b = sum_p = sum_bp = 0
    for key, _, pid in probe:
        g = groups.get(key)
        if g is not None:
            count += g[0]
            sum_b += g[1]
            sum_p += g[0] * pid
            sum_bp += g[1] * pid
    return count, sum_b, sum_p, sum_bp


def pairs_checksum(pairs: list) -> Tuple[int, ...]:
    if not pairs:
        return 0, 0, 0, 0
    b = np.fromiter((x for x, _ in pairs), dtype=np.int64, count=len(pairs))
    p = np.fromiter((y for _, y in pairs), dtype=np.int64, count=len(pairs))
    return len(pairs), int(b.sum()), int(p.sum()), int(np.dot(b, p))


class OpWorkload:
    """One record-level join per iteration, checked against the oracle."""

    runs_in_workers = False
    nominal_reference_s = NOMINAL_REFERENCE_S

    def __init__(self, name: str, seed: int, workspace: str) -> None:
        self.name, self.seed = name, seed
        self.spill_dir: Optional[str] = None
        if name == "op-spill-skew":
            self.spill_dir = os.path.join(workspace, "spill")
            os.makedirs(self.spill_dir, exist_ok=True)

    def prepare(self) -> None:
        seed = self.seed
        if self.name == "op-inmem":
            n = 100_000
            self.build = _with_row_ids(wisconsin_record_stream(
                n=n, dataset="all-small", seed=seed * 1000))
            self.probe = _with_row_ids(wisconsin_record_stream(
                n=n, dataset="all-small", seed=seed * 1000 + 500))
            build_frames = sum(r[1] for r in self.build) // FRAME_BYTES + 1
            self.cfg = HHJConfig(memory_frames=2 * build_frames + 64,
                                 frame_bytes=FRAME_BYTES, num_partitions=20,
                                 insertion="append(8)", growth="ng-ns",
                                 victim="largest-size")
        else:
            n = 40_000
            self.build = _with_row_ids(wisconsin_record_stream(
                n=n, dataset="all-small", skew=True, seed=seed * 1000), HOT_ROWS)
            self.probe = _with_row_ids(wisconsin_record_stream(
                n=n, dataset="all-small", seed=seed * 1000 + 500), HOT_ROWS)
            self.cfg = HHJConfig(memory_frames=32, frame_bytes=FRAME_BYTES,
                                 num_partitions=20, insertion="append(8)",
                                 growth="ng-ns", victim="largest-size",
                                 use_disk_spill=True, spill_dir=self.spill_dir)
        self.rows = len(self.build) + len(self.probe)
        self.input_bytes = sum(r[1] for r in self.build) + sum(r[1] for r in self.probe)
        self.expected = naive_join_checksum(self.build, self.probe)

    #: the fixed Python work every iteration is compared with
    reference = staticmethod(reference_s)

    def warm_up(self) -> Sample:
        return self.iterate()

    def iterate(self, tracer: Optional[Tracer] = None) -> Sample:
        op = DynamicHybridHashJoin(self.cfg)
        errors: List[str] = []
        left: List[str] = []
        t0 = time.perf_counter()
        try:
            pairs = op.run_collect(self.build, self.probe)
        except Exception as exc:  # a failed join is counted, not fatal
            return Sample(time.perf_counter() - t0, [f"join raised {exc!r}"], {})
        wall = time.perf_counter() - t0

        got = pairs_checksum(pairs)
        del pairs
        if got != self.expected:
            errors.append(f"output checksum {got} != oracle {self.expected}")
        if self.spill_dir is not None:
            left = os.listdir(self.spill_dir)
            if left:
                errors.append(f"{len(left)} spill files left behind")
                for f in left:
                    os.unlink(os.path.join(self.spill_dir, f))
        s = op.stats
        counts = {
            "pairs": got[0],
            "spill_mb": s.total_bytes_spilled / 1e6,
            "write_ops": s.sequential_write_ops + s.random_write_ops,
            "rand_write_ops": s.random_write_ops,
            "frames_read": s.frames_read,
            "frames_searched": s.frames_searched,
            "records_processed": s.records_processed,
            "rounds": s.rounds,
            "bnlj_rounds": s.bnlj_rounds,
            "role_reversals": s.role_reversals,
            "in_memory_rounds": s.in_memory_rounds,
            "frames_reloaded": s.frames_reloaded,
            "modeled_hdd_s": response_time(s, HDD, self.input_bytes),
        }
        return Sample(wall, errors, counts, {"spillfile.files_left": len(left)})

    def close(self) -> None:
        self.build = self.probe = []

    @staticmethod
    def shutdown() -> None:
        """Nothing outlives a run: no processes to stop."""
