"""Dynamic HHJ as a Spark DataFrame→DataFrame operator.

AsterixDB executes a join by hash-partitioning both inputs across nodes
and running the local Dynamic HHJ per node. We mirror that exactly at the
Spark layer (per the repro plan): Catalyst hash-partitions both inputs
into N partition pairs (``pmod(xxhash64(key), N)``), and
``cogroup(...).applyInPandas`` runs one
:class:`~repro.core.join.DynamicHybridHashJoin` instance — with its own
frame budget, insertion/victim/growth policies, and real tempfile spills
— inside the executor for each pair.

The result is a plain DataFrame, so Catalyst plans everything around the
operator; the operator itself is the paper's contribution and lives at
the record level where the paper defines it.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import StructField, StructType

from .join import DynamicHybridHashJoin, HHJConfig

_PART_COL = "__hhj_part"
#: appended to a probe column name until it collides with no other column
_SUFFIX = "_r"


def _output_schema(build: DataFrame, probe: DataFrame) -> Tuple[StructType, list, list]:
    """Build-side fields plus probe-side fields, renaming collisions."""
    bfields = list(build.schema.fields)
    bnames = {f.name for f in bfields}
    pfields = []
    pnames = []
    for f in probe.schema.fields:
        name = f.name
        while name in bnames:
            name = name + _SUFFIX
        pnames.append(name)
        pfields.append(StructField(name, f.dataType, True))
        bnames.add(name)
    return StructType(bfields + pfields), [f.name for f in bfields], pnames


def _estimate_sizes(pdf: pd.DataFrame, size_column: Optional[str]) -> list:
    """Per-row byte sizes: the explicit size column, or a deep estimate."""
    if size_column is not None and size_column in pdf.columns:
        return [int(s) for s in pdf[size_column]]
    n = max(1, len(pdf))
    per_row = max(64, int(pdf.memory_usage(deep=True).sum() / n))
    return [per_row] * len(pdf)


def dynamic_hhj_join(build: DataFrame, probe: DataFrame,
                     build_key: str, probe_key: str,
                     cfg: Optional[HHJConfig] = None,
                     num_spark_partitions: Optional[int] = None,
                     size_column: Optional[str] = None) -> DataFrame:
    """Equi-join ``build ⋈ probe`` with the Dynamic HHJ operator.

    Parameters mirror AsterixDB's setup: ``cfg.memory_frames`` is the
    frame budget *per Spark partition pair* (per-node budget), and
    ``num_spark_partitions`` is the cluster-level hash fan-out (defaults
    to the session's shuffle parallelism). ``size_column`` names an
    integer column carrying each record's nominal size in bytes (the
    Wisconsin datasets provide one); otherwise sizes are estimated from
    the pandas memory footprint; a ``size_column`` neither input has
    raises ``ValueError``. A size outside ``(0, cfg.frame_bytes]`` fails
    the join, as it does in the operator.

    Returns all build columns followed by all probe columns, a probe
    column whose name is taken suffixed with ``_r``. Inner-join semantics:
    null keys never match.
    """
    if size_column is not None and not (size_column in build.columns
                                        or size_column in probe.columns):
        raise ValueError(f"size_column {size_column!r} is in neither input")
    spark = build.sparkSession
    if cfg is None:
        cfg = HHJConfig(memory_frames=256)
    n = num_spark_partitions or int(
        spark.conf.get("spark.sql.shuffle.partitions", "16")
    )
    out_schema, bnames, pnames = _output_schema(build, probe)
    b = (build.where(F.col(build_key).isNotNull())
              .withColumn(_PART_COL, F.pmod(F.xxhash64(F.col(build_key)), F.lit(n))))
    p = (probe.where(F.col(probe_key).isNotNull())
              .withColumn(_PART_COL, F.pmod(F.xxhash64(F.col(probe_key)), F.lit(n))))

    # capture plain config values; HHJConfig is a simple dataclass and
    # pickles fine, but force disk spill inside executors regardless
    cfg_dict = dict(cfg.__dict__)
    cfg_dict["use_disk_spill"] = True

    def records(pdf: pd.DataFrame, key: str):
        """(key, size, row position) records of one side: the operator
        carries row positions, not rows."""
        frame = pd.DataFrame({"key": pdf[key], "size": _estimate_sizes(pdf, size_column),
                              "row": np.arange(len(pdf))})
        return frame.itertuples(index=False, name=None)

    def take(pdf: pd.DataFrame, names: list, rows: np.ndarray) -> dict:
        return {name: pdf.iloc[:, i].array.take(rows) for i, name in enumerate(names)}

    def join_pair(bpdf: pd.DataFrame, ppdf: pd.DataFrame) -> pd.DataFrame:
        if len(bpdf) == 0 or len(ppdf) == 0:
            return pd.DataFrame({c: pd.Series(dtype="object") for c in bnames + pnames})
        bpdf = bpdf.drop(columns=[_PART_COL])
        ppdf = ppdf.drop(columns=[_PART_COL])
        op = DynamicHybridHashJoin(HHJConfig(**cfg_dict))
        pairs = op.run_collect(records(bpdf, build_key), records(ppdf, probe_key))
        rows = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        return pd.DataFrame({**take(bpdf, bnames, rows[:, 0]),
                             **take(ppdf, pnames, rows[:, 1])})

    return (b.groupBy(_PART_COL)
             .cogroup(p.groupBy(_PART_COL))
             .applyInPandas(join_pair, schema=out_schema))
