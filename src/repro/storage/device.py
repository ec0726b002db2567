"""Analytical storage-device models (HDD / SSD / Amazon EBS).

The paper evaluates on real devices; this container has none of them, so
(per the substitution rule) we model each device by the two parameters
that drive every §5–§7 storage result: a **per-operation positioning
overhead** (seek + rotation for HDD; controller latency for SSD; network
round-trip for EBS) and a **sequential transfer bandwidth**. A write op
of *n* contiguous frames pays the overhead once plus n·frame/bandwidth —
which is precisely why the paper's random-vs-sequential write mix (§6)
matters on HDD and barely on SSD.

A CPU model turns the operator's counted work (records hashed, frames
searched, hash probes, comparisons) into seconds so that "response time"
figures (9b, 10b, 11b, 12a/e) have both terms. Constants are plausible
per-operation costs on one core; the reproduction target is orderings
and ratios, not absolute seconds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.stats import JoinStats, WriteOp
from .elevator import elevator_coalesce


@dataclass(frozen=True)
class DeviceProfile:
    """One storage device: positioning overhead + sequential bandwidth."""

    name: str
    op_overhead_s: float          # per-I/O positioning cost (seconds)
    bandwidth_bytes_s: float      # sequential transfer rate (bytes/second)

    def op_time(self, n_frames: int, frame_bytes: int) -> float:
        """Seconds to service one write/read op of ``n_frames`` frames."""
        return self.op_overhead_s + (n_frames * frame_bytes) / self.bandwidth_bytes_s


#: 7200-rpm hard disk: ~8 ms average seek+rotation, ~150 MB/s streaming.
HDD = DeviceProfile("hdd", 8e-3, 150e6)
#: SATA/NVMe-class SSD: ~80 µs access, ~500 MB/s.
SSD = DeviceProfile("ssd", 8e-5, 500e6)
#: Amazon EBS (gp2-class, network attached): ~1 ms round trip, ~250 MB/s.
EBS = DeviceProfile("ebs", 1e-3, 250e6)

DEVICES = {d.name: d for d in (HDD, SSD, EBS)}


@dataclass(frozen=True)
class CpuModel:
    """Per-operation CPU costs of the operator's inner loops."""

    record_s: float = 3e-7        # hash + route + copy one record
    frame_search_s: float = 5e-8  # inspect one frame for free space
    hash_probe_s: float = 2e-7    # one hash-table lookup
    comparison_s: float = 1e-7    # one BNLJ key comparison

    def time(self, stats: JoinStats) -> float:
        return (stats.records_processed * self.record_s
                + stats.frames_searched * self.frame_search_s
                + stats.hash_probes * self.hash_probe_s
                + stats.comparisons * self.comparison_s)


DEFAULT_CPU = CpuModel()


def write_trace_time(trace: Iterable[WriteOp], frame_bytes: int,
                     device: DeviceProfile) -> float:
    """Seconds to service a write trace on ``device`` (no cache)."""
    return sum(device.op_time(op.n_frames, frame_bytes) for op in trace)


def scan_time(total_bytes: float, device: DeviceProfile,
              n_streams: int = 1) -> float:
    """Sequential scan of ``total_bytes`` split over ``n_streams`` files."""
    if total_bytes <= 0:
        return 0.0
    return n_streams * device.op_overhead_s + total_bytes / device.bandwidth_bytes_s


def response_time(stats: JoinStats, device: DeviceProfile, input_bytes: float,
                  use_fs_cache: bool = False, cache_frames: int = 1024) -> float:
    """End-to-end modeled response time of one join execution.

    input scan + spill writes (optionally through the elevator cache) +
    re-reads of spilled data + CPU work (:data:`DEFAULT_CPU`). I/O and
    CPU are summed, not overlapped — a deliberate simplification that
    preserves orderings.
    """
    fb = stats.frame_bytes
    trace = stats.write_trace
    if use_fs_cache:
        trace = elevator_coalesce(trace, cache_frames)
    io = scan_time(input_bytes, device)
    io += write_trace_time(trace, fb, device)
    io += scan_time(stats.frames_read * fb, device,
                    n_streams=max(1, stats.partitions_spilled))
    return io + DEFAULT_CPU.time(stats)
