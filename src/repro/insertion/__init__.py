"""Partition-insertion algorithms (paper §5)."""
from .policies import (
    AppendN,
    BestFit,
    FirstFitPct,
    InsertionPolicy,
    NAMES,
    NextFit,
    RandomPct,
    make_policy,
)

__all__ = [
    "AppendN",
    "BestFit",
    "FirstFitPct",
    "InsertionPolicy",
    "NAMES",
    "NextFit",
    "RandomPct",
    "make_policy",
]
