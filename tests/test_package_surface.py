"""Every ``repro`` module imports on its own, and every name a package
exports in ``__all__`` resolves — so a deleted function left in an
``__init__`` or an import cycle that only bites one import order fails
here, not in a user's first import."""
import dataclasses
import os
import pkgutil
import subprocess
import sys

import repro
from repro.core.join import HHJConfig

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


def test_walk_finds_every_package():
    assert {"repro.core", "repro.frames", "repro.growth", "repro.insertion",
            "repro.victim", "repro.storage", "repro.experiments"} <= set(MODULES)


def test_each_module_imports_alone_and_exports_resolve():
    src = os.path.dirname(repro.__path__[0])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", CHECK, *MODULES], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_hhj_config_has_exactly_its_nine_knobs():
    # a new knob must be added here, in plain view
    assert [f.name for f in dataclasses.fields(HHJConfig)] == [
        "memory_frames", "frame_bytes", "num_partitions", "insertion", "victim",
        "growth", "min_partitions", "use_disk_spill", "spill_dir"]
