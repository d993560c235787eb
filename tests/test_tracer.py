"""The benchmark's tracer still fits the package.

``perfbench/tracing.py`` wraps ldectl's layers by name from the outside.
A renamed layer, a changed signature or a changed batch layout would
leave a benchmark metric silently reading 0 or wrong.  This test installs
the tracer in-process around a tiny train, run and compare and checks
its counts against what the outputs imply.
"""

import csv
import sys
from pathlib import Path

import pytest

from ldectl.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

N, BINS, H, K, L, T = 6, 2, 4, 2, 3, 4  # pop, bins, hidden, functions, rollouts, horizon
D = N + 2 * BINS


@pytest.fixture
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        yield tracing
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_hooks_fit_train_run_and_compare(tracing, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["suite", "--seed", "2", "--dim", "3", "--train", str(K), "--test", "2"]) == 0
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        tr.begin_op()
        assert main(["train", "--seed", "2", "--epochs", "1", "--rollouts", str(L),
                     "--horizon", str(T), "--pop-size", str(N), "--bins", str(BINS),
                     "--window", "2", "--hidden", str(H), "--checkpoint-every", "0",
                     "--jobs", "1"]) == 0
        tr.begin_op()
        assert main(["run", "--seed", "2", "--weights", "trained/weights.bin", "--runs", "2",
                     "--budget", "60", "--jobs", "1"]) == 0
        tr.begin_op()
        tr.begin_call()
        assert main(["compare", "--results", "runs/results.csv", "--out", "cmp"]) == 0
    finally:
        uninstall()
    train_op, run_op, compare_op = tr.op_counts

    assert tr.missing == [] and tr.hook_errors == {}
    ran = set(tr.names)  # the rank-sum hook appends the path taken to its span name
    for short, fname in tracing.TRACED:
        name = f"{short}.{fname}"
        if name != "benchfn.make_suite":  # the suite was made before install
            assert any(n == name or n.startswith(name + ".") for n in ran), f"{name} never ran"
    # multiply-adds of one controller step, whatever the batch size
    assert tr.macs == 4 * H * (H + D) + 2 * N * H
    # train: one shared P0 per function, then horizon x N per rollout
    assert train_op["benchfn.evaluate_batch.rows"] == K * (N + L * T * N)
    assert train_op["de_core.select.rows"] == K * L * T * N
    # run: every run's evals_used, P0 included
    with open("runs/results.csv", newline="") as fh:
        evals = [int(row["evals_used"]) for row in csv.DictReader(fh)]
    assert run_op["benchfn.evaluate_batch.rows"] == sum(evals)
    for op in (train_op, run_op):
        assert 0 < op["de_core.select.accepted"] <= op["de_core.select.rows"]
    # compare: each unordered pair of the 4 algorithms once per function
    assert compare_op["stats.ranksum_test.exact.calls"] == 2 * 6
    assert compare_op["stats.ranksum_test.redundant"] == 0
