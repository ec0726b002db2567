"""The paper's core contribution: the Dynamic Hybrid Hash Join operator."""
from .join import DynamicHybridHashJoin, HHJConfig
from .partitions import (
    DEFAULT_NUM_PARTITIONS,
    TABLE1_FUDGE,
    eq2_disk_partitions,
    robust_num_partitions,
    shapiro_num_partitions,
)
from .split import split_partition, stable_hash
from .stats import JoinStats, WriteOp

__all__ = [
    "DynamicHybridHashJoin",
    "HHJConfig",
    "DEFAULT_NUM_PARTITIONS",
    "TABLE1_FUDGE",
    "eq2_disk_partitions",
    "robust_num_partitions",
    "shapiro_num_partitions",
    "split_partition",
    "stable_hash",
    "JoinStats",
    "WriteOp",
]
