"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent


def test_smoke_every_workload_reports_every_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke: ok")


def test_self_time_subtracts_direct_children_only():
    tr = Tracer()
    outer = tr.open("outer")
    mid = tr.open("mid")
    inner = tr.open("inner")
    tr.close(inner)
    tr.close(mid)
    tr.close(outer)
    tr.start[outer], tr.end[outer] = 0, 100
    tr.start[mid], tr.end[mid] = 10, 60
    tr.start[inner], tr.end[inner] = 20, 30
    assert tr.self_times() == [50, 40, 10]
    assert list(tr.parent) == [-1, 0, 1]


def test_install_rebinds_importers_skips_missing_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    import ldectl.cli  # noqa: F401  (loads every traced module)
    import tracing
    from ldectl import de_core, trainer

    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (("de_core", "no_such_function"),))
    orig = de_core.evolve
    tr = Tracer()
    undo = tracing.install(tr)
    try:
        assert de_core.evolve is not orig
        assert trainer.evolve is de_core.evolve  # rebound where it was imported by name
    finally:
        undo()
    assert de_core.evolve is orig and trainer.evolve is orig
    assert tr.missing == ["de_core.no_such_function"]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "compare",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert not line.startswith("{"), "printed a result without the program"
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]
