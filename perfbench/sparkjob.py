"""``spark-tpch``: ``dynamic_hhj_join`` on customer ⋈ orders at SF=0.1.

Set-up starts a local session (the first set-up of a run also starts the
JVM; later ones reuse the session), generates and caches both inputs,
asks DuckDB for the expected answer and runs one warm-up iteration (the
first action pays for JVM code loading and Python worker start-up). Each
iteration runs the Dynamic HHJ and checks it against the DuckDB answer;
Spark's built-in join on the same cached inputs, run before and after it
(and checked too), is its reference.

A traced iteration turns on Spark's ``perf`` UDF profiler and records
when each ``join_pair`` call ran inside the Python workers; both are
measured in the workers, not by re-running the pieces on the driver.
"""
from __future__ import annotations

import glob
import os
import pstats
import shlex
import statistics
import subprocess
import time
import types
from typing import Dict, List, Optional, Tuple

import duckdb
import pandas as pd
from pyspark import AccumulatorParam
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql.pandas.group_ops import PandasCogroupedOps

from repro import synth_data
from repro.core import join, spark_join, split
from repro.core.join import DynamicHybridHashJoin, HHJConfig
from repro.core.spark_join import dynamic_hhj_join
from repro.frames import frame, partition, spillfile
from repro.growth import policies as growth_policies
from repro.insertion import policies as insertion_policies
from repro.victim import policies as victim_policies

from .common import Sample
from .tracer import Tracer

SF = 0.1
NUM_PAIRS = 16
CFG = HHJConfig(memory_frames=256, frame_bytes=32 * 1024, min_partitions=20)
CHECK_SQL = ("SELECT count(*), sum(c_custkey), sum(o_orderkey), "
             "sum(c_custkey * o_orderkey) "
             "FROM customer JOIN orders ON c_custkey = o_custkey")


def cores() -> int:
    return min(4, len(os.sched_getaffinity(0)))


def _submit_args(workspace: str) -> str:
    tmp = os.path.join(workspace, "tmp")
    return " ".join([
        f"--master local[{cores()}]",
        "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf " + shlex.quote(f"spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
        "pyspark-shell",
    ])


def _checksum(df) -> Tuple[int, ...]:
    row = df.select(F.count(F.lit(1)), F.sum("c_custkey"), F.sum("o_orderkey"),
                    F.sum(F.col("c_custkey") * F.col("o_orderkey"))).collect()[0]
    return tuple(int(v or 0) for v in row)


class _ListParam(AccumulatorParam):
    """Accumulator that concatenates lists (per-call UDF intervals)."""

    def zero(self, value):
        return []

    def addInPlace(self, a, b):
        a.extend(b)
        return a


def _union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    covered, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def _code_keys(functions) -> set:
    """Profile keys ``(file name, first line, name)`` of ``functions`` and
    of every function nested in them. The UDF profiler strips directories
    from file names, so the line number is what tells files apart."""
    keys, stack = set(), [f.__code__ for f in functions]
    while stack:
        code = stack.pop()
        keys.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return keys


def _module_functions(module) -> list:
    found = []
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            found.append(value)
        elif isinstance(value, type):
            for attr in vars(value).values():
                attr = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                if isinstance(attr, types.FunctionType):
                    found.append(attr)
    return found


def _profile_keys() -> Tuple[Dict[tuple, str], Dict[str, set]]:
    """(profile key -> operator layer, UDF step metric -> profile keys)."""
    layers = {"split": [split], "join": [join, frame, partition],
              "insertion": [insertion_policies], "victim": [victim_policies],
              "growth": [growth_policies], "spillfile": [spillfile]}
    layer_of = {key: layer for layer, modules in layers.items() for module in modules
                for key in _code_keys(_module_functions(module))}
    def own_key(fn) -> tuple:
        code = fn.__code__
        return os.path.basename(code.co_filename), code.co_firstlineno, code.co_name

    steps = {
        "udf.total_s": {k for k in _code_keys([spark_join.dynamic_hhj_join])
                        if k[2] == "join_pair"},
        "udf.size_estimate_s": {own_key(spark_join._estimate_sizes)},
        "udf.row_convert_s": {own_key(pd.DataFrame.itertuples)},
        "udf.operator_s": {own_key(DynamicHybridHashJoin.run_collect)},
        "udf.output_build_s": {own_key(pd.DataFrame.__init__)},
    }
    return layer_of, steps


def _profile_layers(stats: pstats.Stats) -> Dict[str, float]:
    """Per-layer self time and calls inside the workers, from the profile.

    A builtin's own time is charged to the layer of the function that
    called it, so ``stable_hash``'s ``isinstance`` calls count as split.
    """
    layer_of, steps = _profile_keys()
    self_s = dict.fromkeys(set(layer_of.values()), 0.0)
    calls: Dict[Tuple[str, str], float] = {}
    m = dict.fromkeys(steps, 0.0)
    for key, (_, ncalls, tottime, cumtime, callers) in stats.stats.items():
        layer = layer_of.get(key)
        if layer is not None:
            self_s[layer] += tottime
            calls[(layer, key[2])] = calls.get((layer, key[2]), 0) + ncalls
        elif key[0] == "~":
            for caller, (_, _, caller_tottime, _) in callers.items():
                if caller in layer_of:
                    self_s[layer_of[caller]] += caller_tottime
        for metric, keys in steps.items():
            if key in keys:
                m[metric] += cumtime
    m.update({
        "split.calls": calls.get(("split", "split_partition"), 0),
        "split.s": self_s["split"],
        "join.self_s": self_s["join"],
        "insertion.calls": calls.get(("insertion", "find_frame"), 0),
        "insertion.s": self_s["insertion"],
        "victim.calls": calls.get(("victim", "choose"), 0),
        "victim.s": self_s["victim"],
        "growth.free_memory_calls": calls.get(("growth", "free_memory"), 0),
        "growth.flush_calls": calls.get(("growth", "flush_spilled"), 0),
        "growth.s": self_s["growth"],
        "spillfile.frames_written": calls.get(("spillfile", "write_frame"), 0),
        "spillfile.write_s": self_s["spillfile"],
    })
    return m


class SparkWorkload:
    """One Dynamic HHJ join plus one built-in join per iteration."""

    #: the operator runs in Spark's Python workers, not in this process
    runs_in_workers = True
    #: the built-in join's time on an unloaded 4-core machine
    nominal_reference_s = 0.6

    def __init__(self, name: str, seed: int, workspace: str) -> None:
        self.name, self.seed, self.workspace = name, seed, workspace

    def prepare(self) -> None:
        os.environ["PYSPARK_SUBMIT_ARGS"] = _submit_args(self.workspace)
        os.environ["SPARK_LOCAL_DIRS"] = os.path.join(self.workspace, "spark-local")
        self.spark = (SparkSession.builder.appName("perfbench")
                      .config("spark.sql.shuffle.partitions", str(NUM_PAIRS))
                      .config("spark.sql.execution.arrow.pyspark.enabled", "true")
                      .config("spark.sql.autoBroadcastJoinThreshold", -1)
                      .config("spark.sql.warehouse.dir",
                              os.path.join(self.workspace, "warehouse"))
                      .getOrCreate())
        self.spark.sparkContext.setLogLevel("ERROR")
        self.customer = synth_data.customer(self.spark, sf=SF, seed=self.seed * 1000).cache()
        self.orders = synth_data.orders(self.spark, sf=SF, seed=self.seed * 1000 + 500).cache()
        n_customer, n_orders = self.customer.count(), self.orders.count()
        self.rows = n_customer + n_orders
        con = duckdb.connect()
        try:
            con.register("customer", self.customer.toPandas())
            con.register("orders", self.orders.toPandas())
            self.expected = tuple(int(v) for v in con.execute(CHECK_SQL).fetchone())
        finally:
            con.close()

    def warm_up(self) -> Sample:
        self.reference()
        return self.iterate()

    def _hhj(self):
        return dynamic_hhj_join(self.customer, self.orders, "c_custkey", "o_custkey",
                                CFG, num_spark_partitions=NUM_PAIRS)

    def reference(self) -> float:
        """Wall time of Spark's built-in join on the same cached inputs,
        the reference every HHJ iteration is compared with."""
        c, o = self.customer, self.orders
        t0 = time.perf_counter()
        got = _checksum(c.join(o, c.c_custkey == o.o_custkey))
        elapsed = time.perf_counter() - t0
        if got != self.expected:
            raise RuntimeError(f"built-in join checksum {got} != DuckDB {self.expected}")
        return elapsed

    def iterate(self, tracer: Optional[Tracer] = None) -> Sample:
        errors: List[str] = []
        start = time.perf_counter()
        try:
            if tracer is not None:
                wall, got, extra = self._traced_hhj(tracer)
            else:
                df = self._hhj()
                planned = time.perf_counter()
                got = _checksum(df)
                wall = time.perf_counter() - start
                extra = {"spark.plan_s": planned - start, "spark.action_s": wall - (planned - start)}
        except Exception as exc:  # a failed join is counted, not fatal
            return Sample(time.perf_counter() - start, [f"join raised {exc!r}"], {})
        if got != self.expected:
            errors.append(f"HHJ checksum {got} != DuckDB {self.expected}")
        return Sample(wall, errors, {"pairs": got[0]}, extra)

    def _traced_hhj(self, tracer: Tracer) -> Tuple[float, Tuple[int, ...], Dict[str, float]]:
        spark = self.spark
        intervals = spark.sparkContext.accumulator([], _ListParam())
        orig_apply = PandasCogroupedOps.applyInPandas

        def apply_in_pandas(ops, func, schema):
            def timed(left, right):
                start = time.time()
                out = func(left, right)
                intervals.add([(start, time.time(), len(left) + len(right))])
                return out
            return orig_apply(ops, timed, schema)

        dump_dir = os.path.join(self.workspace, "udf-profile")
        for old in glob.glob(os.path.join(dump_dir, "*")):
            os.unlink(old)
        spark.profile.clear()
        spark.conf.set("spark.sql.pyspark.udf.profiler", "perf")
        PandasCogroupedOps.applyInPandas = apply_in_pandas
        try:
            t0 = time.perf_counter()
            with tracer.span("spark.plan"):
                df = self._hhj()
            t1 = time.perf_counter()
            action_start = time.time()
            with tracer.span("spark.action"):
                got = _checksum(df)
            action_end = time.time()
            wall = time.perf_counter() - t0
        finally:
            PandasCogroupedOps.applyInPandas = orig_apply
            spark.conf.unset("spark.sql.pyspark.udf.profiler")
        spark.profile.dump(dump_dir)
        spark.profile.clear()
        files = glob.glob(os.path.join(dump_dir, "*.pstats"))
        m: Dict[str, float] = {}
        if files:
            m.update(_profile_layers(pstats.Stats(*files)))
        calls = intervals.value
        rows = [r for _, _, r in calls]
        udf_union = _union_length([(a, b) for a, b, _ in calls], action_start, action_end)
        m.update({
            "spark.plan_s": t1 - t0,
            "spark.action_s": wall - (t1 - t0),
            "spark.outside_udf_s": (action_end - action_start) - udf_union,
            "udf.pairs": len(calls),
            "udf.rows_max_over_median": (max(rows) / statistics.median(rows)) if rows else 0.0,
        })
        return wall, got, m

    def close(self) -> None:
        # the session outlives the workload: the next set-up reuses it and
        # shutdown() stops it together with the JVM
        self.customer.unpersist()
        self.orders.unpersist()

    @staticmethod
    def shutdown() -> None:
        """Stop the session and the JVM it ran in; wait for the JVM to exit."""
        from pyspark import SparkContext

        session = SparkSession.getActiveSession()
        if session is not None:
            session.stop()
        gateway = SparkContext._gateway
        if gateway is None:
            return
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            if proc.stdin is not None:
                proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None
