"""Every ``repro`` module imports on its own, and every name a package
exports in ``__all__`` resolves — so a deleted function left in an
``__init__`` or an import cycle that only bites one import order fails
here, not in a user's first import. Also pins what a reader of the
package surface relies on: the record-level path loads no Spark, and the
parameter lists of the trimmed public functions."""
import dataclasses
import inspect
import os
import pkgutil
import subprocess
import sys

import repro
from repro.core.ideal import ideal_spill_bytes, ideal_spill_frames, spill_ratio
from repro.core.join import HHJConfig
from repro.core.partitions import robust_num_partitions, shapiro_num_partitions
from repro.core.sim_partitions import simulate_join
from repro.core.spark_join import dynamic_hhj_join
from repro.core.stats import JoinStats
from repro.experiments.fig9 import fig9, insertion_runs
from repro.experiments.fig12 import fig12
from repro.experiments.fig13 import victim_experiment
from repro.experiments.fig345 import fig3, fig4, fig5, lower_bound_summary
from repro.experiments.fig1011 import fig10, fig11
from repro.experiments.runner import records_for_ratio, show
from repro.experiments.table1 import table1
from repro.frames.spillfile import DiskSpillFile
from repro.insertion import InsertionPolicy
from repro.insertion import make_policy as make_insertion
from repro.storage.device import response_time
from repro.storage.elevator import elevator_coalesce
from repro.synth_data import wisconsin, wisconsin_record_stream

MODULES = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))

# Runs in a fresh interpreter: each module is imported first, with every
# other ``repro`` module unloaded, then its ``__all__`` is resolved.
CHECK = """
import importlib, sys
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    if missing:
        sys.exit(f"{name}.__all__ names missing attributes: {missing}")
"""


def _fresh_interpreter(code: str, *args: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(repro.__path__[0])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_walk_finds_every_package():
    assert {"repro.core", "repro.frames", "repro.growth", "repro.insertion",
            "repro.victim", "repro.storage", "repro.experiments"} <= set(MODULES)


def test_each_module_imports_alone_and_exports_resolve():
    proc = _fresh_interpreter(CHECK, *MODULES)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_record_level_path_does_not_load_pyspark():
    # the experiments and the operator run without Spark; only
    # ``repro.core.spark_join`` needs it
    modules = [m for m in MODULES if m.startswith("repro.experiments.")]
    modules.append("repro.core.join")
    proc = _fresh_interpreter(
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('pyspark', 'py4j')))",
        *modules)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_hhj_config_has_exactly_its_nine_knobs():
    # a new knob must be added here, in plain view
    assert [f.name for f in dataclasses.fields(HHJConfig)] == [
        "memory_frames", "frame_bytes", "num_partitions", "insertion", "victim",
        "growth", "min_partitions", "use_disk_spill", "spill_dir"]


#: The parameters of the public functions that carry only what some caller
#: sets; one added back must be added here, in plain view.
SIGNATURES = {
    fig3: ["input_sizes_mb", "partition_counts"],
    fig4: ["input_sizes_mb", "partition_counts"],
    fig5: ["input_sizes_mb", "partition_counts"],
    lower_bound_summary: ["df3"],
    fig9: ["n", "seed"],
    insertion_runs: ["build", "probe"],
    fig10: ["n_bytes_target", "pcts_large", "seed"],
    fig11: ["n_bytes_target", "pcts_large", "seed"],
    fig12: ["memory_frames", "ratios", "cache_frames", "seed"],
    victim_experiment: ["dataset", "pct_large", "skew", "memory_frames", "ratios",
                        "policies", "seed"],
    table1: [],
    show: ["title", "df"],
    shapiro_num_partitions: ["build_frames", "memory_frames"],
    robust_num_partitions: ["memory_frames", "build_frames", "lower_bound"],
    simulate_join: ["build_frames", "memory_frames", "first_round_p",
                    "accurate_later_rounds"],
    dynamic_hhj_join: ["build", "probe", "build_key", "probe_key", "cfg",
                       "num_spark_partitions", "size_column"],
    JoinStats.record_write: ["self", "n_frames", "payload_bytes", "phase", "pid",
                             "round_no"],
    response_time: ["stats", "device", "input_bytes", "use_fs_cache", "cache_frames"],
    wisconsin_record_stream: ["n", "dataset", "pct_large", "skew", "seed"],
    wisconsin: ["spark", "n", "dataset", "pct_large", "skew", "seed"],
    InsertionPolicy.notify_inserted: ["self", "index", "size"],
    ideal_spill_frames: ["build_frames", "memory_frames", "fudge"],
    ideal_spill_bytes: ["build_bytes", "memory_frames", "frame_bytes", "fudge"],
    spill_ratio: ["measured_spill_bytes", "build_bytes", "memory_frames", "frame_bytes",
                  "fudge"],
    records_for_ratio: ["ratio", "memory_frames", "avg_record_bytes"],
    elevator_coalesce: ["trace", "cache_frames"],
    make_insertion: ["name", "seed"],
    DiskSpillFile.__init__: ["self", "stats", "phase", "pid", "round_no", "shared", "dir"],
}

#: Functions whose every caller passes every argument: a default added back
#: must be added here, in plain view.
NO_DEFAULTS = (ideal_spill_frames, ideal_spill_bytes, spill_ratio, records_for_ratio,
               elevator_coalesce, make_insertion, DiskSpillFile.__init__)


def test_trimmed_functions_keep_their_parameters():
    def name(fn):
        return f"{fn.__module__}.{fn.__qualname__}"

    assert {name(fn): list(inspect.signature(fn).parameters) for fn in SIGNATURES} == \
        {name(fn): params for fn, params in SIGNATURES.items()}
    assert inspect.signature(JoinStats.record_write).parameters["round_no"].default \
        is inspect.Parameter.empty
    assert {name(fn): [p for p, v in inspect.signature(fn).parameters.items()
                       if v.default is not inspect.Parameter.empty]
            for fn in NO_DEFAULTS} == {name(fn): [] for fn in NO_DEFAULTS}
