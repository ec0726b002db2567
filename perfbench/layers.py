"""The program's layers as the traced run sees them.

:func:`install` wraps the public functions of each ``repro`` layer with
:class:`~perfbench.tracer.Tracer` spans; :func:`layer_metrics` turns one
traced iteration into the per-layer metrics named in ``BENCHMARK.json``.

Span names and the layer they belong to:

=====================  ===============================================
``split``              ``core.split.split_partition``
``join.run``           ``DynamicHybridHashJoin.run_collect``, or ``run``
                       (a generator: only time inside it counts) when
                       drained by the caller; their self time and that
``join.build_only``    of ``build_only`` is the operator's
``insertion``          ``InsertionPolicy.find_frame`` of every policy
``victim``             ``VictimPolicy.choose`` of every policy
``growth.*``           ``GrowthPolicy`` hooks of NG-NS and G-S
``spillfile.*``        ``write_frame`` / ``read_all`` of both spill files
``pool``               ``BufferPool.allocate``
``storage.*``          ``storage.response_time``, ``elevator_coalesce``
``sim``                ``core.sim_partitions`` entry points
``ideal``              ``core.ideal.spill_ratio``
``experiments.<g>``    one artifact group of the ``paper-figs`` sweep
=====================  ===============================================
"""
from __future__ import annotations

from typing import Dict, List

from repro.core import ideal, sim_partitions, split
from repro.core.join import DynamicHybridHashJoin
from repro.frames.pool import BufferPool
from repro.frames.spillfile import DiskSpillFile, MemorySpillFile
from repro.growth import policies as growth_policies
from repro.insertion import policies as insertion_policies
from repro.storage import device, elevator
from repro.victim import policies as victim_policies

from .tracer import Tracer

#: Artifact groups of the ``paper-figs`` sweep, in sweep order.
FIG_GROUPS = ("table1", "fig345", "fig678", "fig9", "fig1011", "fig12",
              "fig13", "fig14_17")


def _subclasses_defining(module, base: type, attr: str) -> List[type]:
    return [c for c in vars(module).values()
            if isinstance(c, type) and issubclass(c, base) and attr in c.__dict__]


def install(tracer: Tracer) -> List[DynamicHybridHashJoin]:
    """Wrap every layer; returns the list that collects operator instances
    created while the wrappers are in place."""
    ops: List[DynamicHybridHashJoin] = []
    counters, maxima = tracer.counters, tracer.maxima

    orig_init = DynamicHybridHashJoin.__init__

    def init(self, cfg):
        orig_init(self, cfg)
        ops.append(self)

    tracer.patch(DynamicHybridHashJoin, "__init__", init)
    tracer.patch(DynamicHybridHashJoin, "run",
                 tracer.timed_iter("join.run", DynamicHybridHashJoin.run))
    tracer.patch(DynamicHybridHashJoin, "run_collect",
                 tracer.timed("join.run", DynamicHybridHashJoin.run_collect))
    tracer.patch(DynamicHybridHashJoin, "build_only",
                 tracer.timed("join.build_only", DynamicHybridHashJoin.build_only))

    def split_after(args, kwargs, result):
        level = args[2] if len(args) > 2 else kwargs.get("level", 0)
        if level > maxima["split.max_level"]:
            maxima["split.max_level"] = level

    tracer.patch_function(split.split_partition,
                          tracer.timed("split", split.split_partition, split_after))

    for cls in _subclasses_defining(insertion_policies,
                                    insertion_policies.InsertionPolicy, "find_frame"):
        tracer.patch(cls, "find_frame", tracer.timed("insertion", cls.find_frame))
    for cls in _subclasses_defining(victim_policies,
                                    victim_policies.VictimPolicy, "choose"):
        tracer.patch(cls, "choose", tracer.timed("victim", cls.choose))
    for hook in ("initial_spill", "flush_spilled", "free_memory", "insert_into_spilled"):
        for cls in _subclasses_defining(growth_policies,
                                        growth_policies.GrowthPolicy, hook):
            tracer.patch(cls, hook,
                         tracer.timed(f"growth.{hook}", getattr(cls, hook)))

    def write_after(args, kwargs, result):
        counters["spillfile.bytes_written"] += sum(r[0] for r in args[1])

    def read_item(item):
        counters["spillfile.records_read"] += 1

    for cls in (DiskSpillFile, MemorySpillFile):
        tracer.patch(cls, "write_frame",
                     tracer.timed("spillfile.write", cls.write_frame, write_after))
        tracer.patch(cls, "read_all",
                     tracer.timed_iter("spillfile.read", cls.read_all, read_item))

    def allocate_after(args, kwargs, result):
        pool = args[0]
        share = pool.allocated / pool.budget
        if share > maxima["pool.peak_over_budget"]:
            maxima["pool.peak_over_budget"] = share

    tracer.patch(BufferPool, "allocate",
                 tracer.timed("pool", BufferPool.allocate, allocate_after))

    def elevator_after(args, kwargs, result):
        trace = args[0] if args else kwargs["trace"]
        counters["storage.elevator_ops_in"] += len(trace)
        counters["storage.elevator_ops_out"] += len(result)

    tracer.patch_function(device.response_time,
                          tracer.timed("storage.response_time", device.response_time))
    tracer.patch_function(elevator.elevator_coalesce,
                          tracer.timed("storage.elevator", elevator.elevator_coalesce,
                                       elevator_after))
    for fn in (sim_partitions.simulate_join, sim_partitions.in_memory_after_first_round):
        tracer.patch_function(fn, tracer.timed("sim", fn))
    tracer.patch_function(ideal.spill_ratio, tracer.timed("ideal", ideal.spill_ratio))
    return ops


def layer_metrics(tracer: Tracer, ops: List[DynamicHybridHashJoin]) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (operator layers only)."""
    stats = [op.stats for op in ops]
    ins_calls = tracer.calls("insertion")
    frames_searched = sum(s.frames_searched for s in stats)
    m = {
        "split.calls": tracer.calls("split"),
        "split.s": tracer.self_time("split"),
        "join.self_s": tracer.self_time("join"),
        "join.records_processed": sum(s.records_processed for s in stats),
        "join.hash_probes": sum(s.hash_probes for s in stats),
        "join.rounds": sum(s.rounds for s in stats),
        "join.in_memory_rounds": sum(s.in_memory_rounds for s in stats),
        "join.bnlj_rounds": sum(s.bnlj_rounds for s in stats),
        "join.role_reversals": sum(s.role_reversals for s in stats),
        "join.frames_reloaded": sum(s.frames_reloaded for s in stats),
        "join.max_level": tracer.maxima["split.max_level"],
        "insertion.calls": ins_calls,
        "insertion.frames_searched": frames_searched,
        "insertion.searched_per_call": frames_searched / ins_calls if ins_calls else 0.0,
        "insertion.s": tracer.self_time("insertion"),
        "victim.calls": tracer.calls("victim"),
        "victim.s": tracer.self_time("victim"),
        "growth.free_memory_calls": tracer.calls("growth.free_memory"),
        "growth.flush_calls": tracer.calls("growth.flush_spilled"),
        "growth.s": tracer.self_time("growth"),
        "spillfile.frames_written": tracer.calls("spillfile.write"),
        "spillfile.bytes_written": tracer.counters["spillfile.bytes_written"],
        "spillfile.write_s": tracer.self_time("spillfile.write"),
        "spillfile.records_read": tracer.counters["spillfile.records_read"],
        "spillfile.read_s": tracer.self_time("spillfile.read"),
        "pool.peak_over_budget": tracer.maxima["pool.peak_over_budget"],
        "storage.calls": tracer.calls("storage.response_time") + tracer.calls("storage.elevator"),
        "storage.s": tracer.self_time("storage"),
        "storage.elevator_ops_in": tracer.counters["storage.elevator_ops_in"],
        "storage.elevator_ops_out": tracer.counters["storage.elevator_ops_out"],
        "sim.s": tracer.self_time("sim"),
        "ideal.s": tracer.self_time("ideal"),
        "experiments.operator_runs": tracer.calls("join.run") + tracer.calls("join.build_only"),
    }
    for group in FIG_GROUPS:
        m[f"experiments.{group}_s"] = tracer.total(f"experiments.{group}")
    return m
