#!/usr/bin/env python3
"""Benchmark of the Dynamic Hybrid Hash Join reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload op-inmem --seed 1 --seconds 10 --trace 0

Workloads: ``op-inmem``, ``op-spill-skew``, ``spark-tpch``, ``paper-figs``
(see ``perfbench/README.md``). With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics.
Lines before it are a readable report. Scratch files (spill files, Spark
local directories) live in ``.perfbench/`` under the root and are removed
at exit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("op-inmem", "op-spill-skew", "spark-tpch", "paper-figs")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {}
    for section in ("end_to_end", "per_layer"):
        spec[section] = [m["name"] for m in bench[section]]
        spec[f"{section}_units"] = {m["name"]: m["unit"] for m in bench[section]}
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "core", "join.py")):
        print(f"perfbench: no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2

    workspace = os.path.join(ROOT, ".perfbench")
    shutil.rmtree(workspace, ignore_errors=True)
    os.makedirs(os.path.join(workspace, "tmp"))
    # Spark's JVM and Python workers inherit these: workers import repro
    # from src, and every temporary file stays inside the checkout.
    os.environ["TMPDIR"] = os.path.join(workspace, "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [src, ROOT]

    from perfbench.harness import run

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     workspace, _spec())
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
