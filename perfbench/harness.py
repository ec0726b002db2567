"""Runs one workload: set-up, timed iterations, checks and metrics.

Untraced run (``--trace 0``)
    Set-up (inputs, oracle answer, warm-up iteration) is timed, then
    iterations run back to back for ``--seconds``, with resident memory
    sampled throughout. Set-up is then repeated from scratch until
    ``SETUP_REPEATS`` set-ups are done, so ``setup_s`` is a median too,
    scaled by the reference measured after each set-up (see
    :func:`_setup`).

Traced run (``--trace 1``)
    One set-up, then untraced iterations for half of ``--seconds`` and
    traced iterations for the other half, so the tracing overhead is
    stated next to the per-layer metrics. Each traced iteration must
    show what its workload was chosen for (:data:`EXPECTED`).

Every iteration's output is checked; a miss, an exception, a missed
expectation or an exact count that differs from the first iteration's
(or from ``recorded_counts.json``, for a recorded seed) counts as a
failed iteration.
"""
from __future__ import annotations

import gc
import importlib.metadata
import json
import operator
import os
import platform
import time
from typing import Dict, List, Optional, Tuple

from .common import RssSampler, Sample, highest_percentile, median
from .tracer import Tracer

#: the first spark-tpch set-up also starts the JVM; the others reuse it
SETUP_REPEATS = 4
MIN_SAMPLES = 3
MIN_TRACED_SAMPLES = 2
REFS_PER_SETUP = 2

#: exact counts of the op-* workloads reported under their own names
OP_COUNTS = ("spill_mb", "write_ops", "rand_write_ops", "frames_read", "modeled_hdd_s")

#: exact counts recorded at the commit that defined the benchmark, for the
#: tuning seed 1 and the held-out seed 9001
RECORDED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "recorded_counts.json")

#: What each workload's traced iterations must show: ``(metric, op,
#: value)``; a metric ending in ``*`` stands for every per-layer metric
#: with that prefix, and a metric the run did not produce reads 0.
EXPECTED = {
    "op-inmem": (("spill_mb", "==", 0), ("spillfile.*", "==", 0)),
    "op-spill-skew": (("join.bnlj_rounds", ">=", 1), ("join.role_reversals", ">", 0),
                      ("join.frames_reloaded", ">", 0), ("join.max_level", ">=", 2)),
    "spark-tpch": (("udf.*", ">", 0), ("spillfile.*", "==", 0)),
    "paper-figs": (("storage.*", ">", 0), ("sim.s", ">", 0)),
}
EXPECTED_EVERYWHERE = (("pool.peak_over_budget", "<=", 1.0),)
_OPS = {"==": operator.eq, ">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _factory(name: str):
    if name in ("op-inmem", "op-spill-skew"):
        from .ops import OpWorkload
        return OpWorkload
    if name == "spark-tpch":
        from .sparkjob import SparkWorkload
        return SparkWorkload
    if name == "paper-figs":
        from .figs import FigsWorkload
        return FigsWorkload
    raise SystemExit(f"perfbench: unknown workload {name!r}")


def _setup(factory, name: str, seed: int, workspace: str,
           rss: RssSampler) -> Tuple[object, float, List[float], Sample, int]:
    """(workload, set-up seconds, references, warm-up sample, RSS before
    warm-up).

    The workload's reference is measured ``REFS_PER_SETUP`` times right
    after set-up, outside the set-up time. ``setup_s`` is the median
    set-up time over the median of these references, times the
    reference's nominal time: set-up time on a machine that runs the
    reference in its nominal time. It moves with the work done in
    set-up, not with the load on the machine.
    """
    t0 = time.perf_counter()
    wl = factory(name, seed, workspace)
    wl.prepare()
    base_rss = rss.current()
    warm = wl.warm_up()
    setup_s = time.perf_counter() - t0
    gc.freeze()  # as in the timed loop: the collector does not rescan the inputs
    refs = [wl.reference() for _ in range(REFS_PER_SETUP)]
    gc.unfreeze()
    return wl, setup_s, refs, warm, base_rss


def _loop(wl, seconds: float, min_samples: int) -> List[Sample]:
    """Untraced iterations, each paired with the workload's reference
    measured right before and right after it."""
    samples: List[Sample] = []
    before = wl.reference()
    start = time.perf_counter()
    while len(samples) < min_samples or time.perf_counter() - start < seconds:
        sample = wl.iterate()
        after = wl.reference()
        sample.ref_s, before = (before + after) / 2, after
        samples.append(sample)
    return samples


def _wall_ratio(samples: List[Sample]) -> float:
    return median([s.wall_s / s.ref_s for s in samples if s.ref_s > 0])


def _expectation_misses(name: str, values: Dict[str, float], names: List[str]) -> List[str]:
    misses = []
    for metric, op, bound in EXPECTED[name] + EXPECTED_EVERYWHERE:
        keys = ([k for k in names if k.startswith(metric[:-1])] if metric.endswith("*")
                else [metric])
        for key in keys:
            value = values.get(key, 0.0)
            if not _OPS[op](value, bound):
                misses.append(f"traced run shows {key} = {value:g}, expected {op} {bound:g}")
    return misses


def _traced_loop(wl, seconds: float,
                 names: List[str]) -> Tuple[List[Sample], List[Dict[str, float]]]:
    from .layers import install, layer_metrics

    samples: List[Sample] = []
    per_iter: List[Dict[str, float]] = []
    start = time.perf_counter()
    while len(samples) < MIN_TRACED_SAMPLES or time.perf_counter() - start < seconds:
        tracer = Tracer()
        # operator layers in Spark's workers come from the UDF profile
        ops = [] if wl.runs_in_workers else install(tracer)
        try:
            sample = wl.iterate(tracer)
        finally:
            tracer.restore()
        m = layer_metrics(tracer, ops)
        m.update(sample.extra)
        if not sample.errors:  # an iteration that already failed has nothing to show
            sample.errors.extend(
                _expectation_misses(wl.name, {**sample.counts, **m}, names))
        samples.append(sample)
        per_iter.append(m)
    return samples, per_iter


def _recorded(name: str, seed: int) -> Optional[Dict[str, float]]:
    """The exact counts recorded for this workload and seed, if any. A
    change that fixes the operator's accounting moves them on purpose;
    it then updates ``recorded_counts.json`` and says so."""
    with open(RECORDED) as f:
        return json.load(f).get(name, {}).get(str(seed))


def _check(samples: List[Sample],
           recorded: Optional[Dict[str, float]]) -> Tuple[int, List[str]]:
    """(failed iterations, messages); exact counts that differ from the
    recorded ones, or without a record from the first iteration's, are a
    failure of that iteration."""
    failed, messages = 0, []
    reference = recorded or next((s.counts for s in samples if s.counts), None)
    source = "recorded_counts.json" if recorded else "iteration 0"
    for i, s in enumerate(samples):
        errors = list(s.errors)
        if s.counts and s.counts != reference:
            drift = {k: (reference.get(k), s.counts.get(k))
                     for k in sorted(set(reference) | set(s.counts))
                     if reference.get(k) != s.counts.get(k)}
            errors.append(f"exact counts differ from {source} (expected, got): {drift}")
        if errors:
            failed += 1
            messages.extend(f"iteration {i}: {e}" for e in errors)
    return failed, messages


def _versions() -> str:
    parts = [f"nproc={len(os.sched_getaffinity(0))}", f"python={platform.python_version()}"]
    for pkg in ("pyspark", "pandas", "pyarrow", "numpy", "duckdb"):
        try:
            parts.append(f"{pkg}={importlib.metadata.version(pkg)}")
        except importlib.metadata.PackageNotFoundError:
            parts.append(f"{pkg}=absent")
    return " ".join(parts)


def _timing_line(label: str, values: List[float]) -> str:
    p = highest_percentile(len(values))
    tail = (f"p{p} {sorted(values)[int(len(values) * p / 100)]:.4f}" if p
            else "no percentile above the median has 10 samples beyond it")
    return (f"{label}: median {median(values):.4f} s over {len(values)} samples "
            f"(min {min(values):.4f}, max {max(values):.4f}; {tail}): "
            + " ".join(f"{v:.3f}" for v in values))


def run(name: str, seed: int, seconds: int, trace: bool, workspace: str,
        spec: Dict[str, List[str]]) -> dict:
    """Run one workload; returns the result object of the last output line."""
    factory = _factory(name)
    rss = RssSampler(python_children=factory.runs_in_workers)
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"env: {_versions()}")

    try:
        wl, setup_s, refs, warm, base_rss = _setup(factory, name, seed, workspace, rss)
        setups, warm_ups = [setup_s], [warm]
        gc.freeze()  # the harness-held inputs are never garbage; stop rescanning them
        try:
            if trace:
                untraced = _loop(wl, seconds / 2, MIN_TRACED_SAMPLES)
                traced, per_iter = _traced_loop(wl, seconds / 2, spec["per_layer"])
                timed = untraced + traced
            else:
                rss.start()
                timed = _loop(wl, seconds, MIN_SAMPLES)
                peak_rss = rss.stop()
            rows = wl.rows
        finally:
            gc.unfreeze()
            wl.close()

        while not trace and len(setups) < SETUP_REPEATS:
            extra_wl, setup_s, extra_refs, extra_warm, _ = _setup(
                factory, name, seed, workspace, rss)
            extra_wl.close()
            setups.append(setup_s)
            refs.extend(extra_refs)
            warm_ups.append(extra_warm)
    finally:
        factory.shutdown()

    recorded = _recorded(name, seed)
    print("exact counts: " + ("checked against recorded_counts.json" if recorded else
                              "no record for this seed; checked across iterations"))
    failed, messages = _check(warm_ups + timed, recorded)
    attempted = len(warm_ups) + len(timed)
    for line in messages:
        print(f"FAIL {line}")
    print(f"check: {'PASS' if failed == 0 else 'FAIL'}; error_rate "
          f"{failed / attempted:.4f} ({failed} failed of {attempted} attempted, "
          f"{len(warm_ups)} of them warm-ups)")

    counts = next((s.counts for s in timed if s.counts), {})
    if trace:
        untraced_walls = [s.wall_s for s in untraced]
        traced_walls = [s.wall_s for s in traced]
        print(_timing_line("untraced wall_s", untraced_walls))
        print(_timing_line("traced wall_s", traced_walls))
        metrics = {m: 0.0 for m in spec["per_layer"]}
        for key in per_iter[0]:
            metrics[key] = median([m[key] for m in per_iter])
        for key in OP_COUNTS:
            metrics[key] = counts.get(key, 0.0)
        if wl.runs_in_workers:
            metrics["builtin_ratio"] = _wall_ratio(untraced)
        metrics["trace.wall_s"] = median(traced_walls)
        metrics["trace.untraced_wall_s"] = median(untraced_walls)
        metrics["trace.overhead_ratio"] = median(traced_walls) / median(untraced_walls)
        units = spec["per_layer_units"]
        names = spec["per_layer"]
    else:
        walls = [s.wall_s for s in timed]
        wall = median(walls)
        print(_timing_line("wall_s", walls))
        print(_timing_line("reference wall_s", [s.ref_s for s in timed]))
        if rows:
            print(f"rows_per_s: {rows / wall:.6g} rows/s ({rows} rows per iteration)")
        print(f"set-up: median {median(setups):.4f} s of {len(setups)} set-ups "
              f"({', '.join(f'{s:.3f}' for s in setups)})")
        print(_timing_line("set-up reference wall_s", refs)
              + f"; nominal {factory.nominal_reference_s} s")
        metrics = {
            "setup_s": median(setups) / median(refs) * factory.nominal_reference_s,
            "wall_ratio": _wall_ratio(timed),
            "peak_rss_mb": (peak_rss - base_rss) / 2 ** 20,
        }
        units = spec["end_to_end_units"]
        names = spec["end_to_end"]
    if counts:
        print("exact counts: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    unknown = set(metrics) - set(names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    for key in names:
        print(f"{key}: {metrics[key]:.6g} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": units[key]}
                    for key in names},
    }
