"""``paper-figs``: one sweep of every artifact group through
``repro.experiments``, at about a quarter of the sizes of
``benchmarks/bench_*.py`` (memory, record counts and byte targets
quartered, Fig 12 only halved: at a quarter its NG-NS versus G-S
ordering no longer holds; the swept parameters and ratios are theirs),
so a 10-second run holds about six sweeps.

The experiments generate their own inputs from the seed they are given,
so the workload passes the benchmark seed to every group that takes one.
Each iteration checks the paper orderings the pytest benchmarks assert
and digests every result table; the digest must repeat exactly.
"""
from __future__ import annotations

import contextlib
import hashlib
import time
from typing import Callable, Dict, List, Optional, Tuple

import pandas as pd

from repro.experiments.fig345 import fig3, fig4, fig5
from repro.experiments.fig678 import fig6_append, fig7_first_fit, fig8_random
from repro.experiments.fig9 import fig9
from repro.experiments.fig1011 import fig10, fig11
from repro.experiments.fig12 import fig12
from repro.experiments.fig13 import fig13a, fig13b
from repro.experiments.fig14_17 import fig14, fig16
from repro.experiments.table1 import table1

from .common import NOMINAL_REFERENCE_S, Sample, reference_s
from .tracer import Tracer

SIZES = (512, 2048, 8192)
COUNTS = (2, 4, 8, 20, 64)
VICTIMS_13 = dict(memory_frames=32, ratios=(1.2, 4.0),
                  policies=("largest-size", "largest-records", "smallest-size",
                            "smallest-records", "median-size", "random"))
VICTIMS_14 = dict(memory_frames=32, ratios=(2.0, 4.0), pcts_large=(0.1, 0.9),
                  policies=("largest-size", "largest-records", "smallest-size",
                            "median-records", "half-empty"))


def _sweep(seed: int) -> List[Tuple[str, str, Callable[[], pd.DataFrame]]]:
    """(group, artifact, thunk) for every artifact of the sweep."""
    return [
        ("table1", "table1", table1),
        ("fig345", "fig3", lambda: fig3(input_sizes_mb=SIZES, partition_counts=COUNTS)),
        ("fig345", "fig4", lambda: fig4(input_sizes_mb=SIZES, partition_counts=COUNTS)),
        ("fig345", "fig5", lambda: fig5(input_sizes_mb=SIZES, partition_counts=COUNTS)),
        ("fig678", "fig6", lambda: fig6_append(ks=(1, 4, 8, 10), n=500, seed=seed)),
        ("fig678", "fig7", lambda: fig7_first_fit(params=(0.1, 0.5, 1.0), n=500, seed=seed)),
        ("fig678", "fig8", lambda: fig8_random(params=(0.1, 0.5, 1.0), n=500, seed=seed)),
        ("fig9", "fig9", lambda: fig9(n=2500, seed=seed)),
        ("fig1011", "fig10", lambda: fig10(n_bytes_target=2 << 20, seed=seed)),
        ("fig1011", "fig11", lambda: fig11(n_bytes_target=2 << 20, seed=seed)),
        ("fig12", "fig12", lambda: fig12(memory_frames=32, ratios=(1.2, 2.0, 10.0),
                                         cache_frames=256, seed=seed)),
        ("fig13", "fig13a", lambda: fig13a(seed=seed, **VICTIMS_13)),
        ("fig13", "fig13b", lambda: fig13b(seed=seed, **VICTIMS_13)),
        ("fig14_17", "fig14", lambda: fig14(seed=seed, **VICTIMS_14)),
        ("fig14_17", "fig16", lambda: fig16(seed=seed, **VICTIMS_14)),
    ]


def check_orderings(out: Dict[str, pd.DataFrame]) -> List[str]:
    """The assertions of ``benchmarks/bench_*.py``, as a list of misses."""
    errors = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            errors.append(what)

    need(bool(out["table1"]["match"].all()), "table1: Eq. 2 mismatch")
    need(len(out["fig3"]) == len(SIZES) * len(COUNTS), "fig3: row count")
    need(bool((out["fig4"]["total_spill_mb"] >= 0).all()), "fig4: negative spill")
    need(bool((out["fig5"]["memory_utilization"] <= 1.0).all()), "fig5: utilization > 1")
    need(len(out["fig6"]) == 3 * 4, "fig6: row count")
    need(len(out["fig7"]) == 3 * 3, "fig7: row count")
    need(len(out["fig8"]) == 3 * 3, "fig8: row count")
    by = out["fig9"].set_index("algorithm")
    need(by.loc["best-fit", "time_hdd_s"] == out["fig9"]["time_hdd_s"].max(),
         "fig9: best-fit not slowest")
    need(by.loc["append(8)", "frames_searched"] < by.loc["best-fit", "frames_searched"],
         "fig9: append(8) searches more than best-fit")
    need(len(out["fig10"]) == 3 * 6, "fig10: row count")
    fullness = out["fig11"].groupby("pct_large")["avg_frame_fullness"].mean()
    need(fullness[0.1] > fullness[0.9], "fig11: fullness does not drop with %large")
    big = out["fig12"][out["fig12"].ratio >= 10].set_index("growth")
    need(big.loc["ng-ns", "rand_write_ops"] > big.loc["g-s", "rand_write_ops"],
         "fig12: NG-NS not more random writes than G-S")
    need(big.loc["g-s", "time_hdd_direct_s"] < big.loc["ng-ns", "time_hdd_direct_s"],
         "fig12: G-S not faster on HDD")
    need(bool((out["fig13a"]["spill_over_ideal"] >= 0.99).all()), "fig13a: below ideal")
    need(bool((out["fig13b"]["spill_over_ideal"] >= 0.99).all()), "fig13b: below ideal")
    need(len(out["fig14"]) == 2 * 2 * 5, "fig14: row count")
    need(bool((out["fig16"]["spill_over_ideal"] > 0).all()), "fig16: zero spill")
    return errors


class FigsWorkload:
    """One full artifact sweep per iteration."""

    runs_in_workers = False
    nominal_reference_s = NOMINAL_REFERENCE_S
    #: ``rows_per_s`` does not apply to a sweep
    rows = 0

    def __init__(self, name: str, seed: int, workspace: str) -> None:
        self.name, self.seed = name, seed

    def prepare(self) -> None:
        self.sweep = _sweep(self.seed)

    #: the fixed Python work every iteration is compared with
    reference = staticmethod(reference_s)

    def warm_up(self) -> Sample:
        return self.iterate()

    def iterate(self, tracer: Optional[Tracer] = None) -> Sample:
        out: Dict[str, pd.DataFrame] = {}
        t0 = time.perf_counter()
        try:
            for group, artifact, thunk in self.sweep:
                span = (tracer.span(f"experiments.{group}") if tracer
                        else contextlib.nullcontext())
                with span:
                    out[artifact] = thunk()
        except Exception as exc:  # a failed sweep is counted, not fatal
            return Sample(time.perf_counter() - t0, [f"sweep raised {exc!r}"], {})
        wall = time.perf_counter() - t0
        digest = hashlib.sha256()
        for artifact, df in out.items():
            digest.update(artifact.encode())
            digest.update(df.to_csv(index=False).encode())
        counts = {"tables_digest": int(digest.hexdigest()[:12], 16)}
        return Sample(wall, check_orderings(out), counts)

    def close(self) -> None:
        self.sweep = []

    @staticmethod
    def shutdown() -> None:
        """Nothing outlives a run: no processes to stop."""
