"""Each committed ``results/*.txt`` is exactly what its ``jobs/`` entrypoint
prints today.

The jobs run in-process at their default sizes (about 18 s together),
so a change that moves any reported number, or the write labels the
Fig 12 elevator model groups by, fails here rather than only when the
tables are regenerated by hand. ``fig13`` and ``fig14_17`` (about 32 s
more) are marked ``slow``, which the default run deselects; check them
with ``pytest -m slow tests/test_results_files.py``.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

JOBS = {
    "table1": "table1_partition_counts.py",
    "fig345": "fig345_num_partitions.py",
    "fig678": "fig678_insertion_params.py",
    "fig9": "fig9_insertion_small.py",
    "fig1011": "fig1011_insertion_variable.py",
    "fig12": "fig12_growth_policies.py",
    "fig13": "fig13_victim_skew.py",
    "fig14_17": "fig14_17_victim_variable.py",
}
SLOW = {"fig13", "fig14_17"}


@pytest.mark.parametrize("result", [
    pytest.param(result, marks=pytest.mark.slow) if result in SLOW else result
    for result in sorted(JOBS)])
def test_job_prints_its_results_file(result, monkeypatch, capsys):
    path = ROOT / "jobs" / JOBS[result]
    spec = importlib.util.spec_from_file_location(f"job_{result}", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    monkeypatch.setattr(sys, "argv", [str(path)])   # the job's default sizes
    job.main()
    assert capsys.readouterr().out == (ROOT / "results" / f"{result}.txt").read_text()
