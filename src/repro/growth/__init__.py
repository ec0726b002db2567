"""Growth policies for spilled partitions (paper §6): NG-NS and G-S."""
from .policies import NAMES, GrowSteal, GrowthPolicy, NoGrowNoSteal, make_policy

__all__ = ["NAMES", "GrowSteal", "GrowthPolicy", "NoGrowNoSteal", "make_policy"]
