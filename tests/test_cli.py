"""Command-line front end: pipeline round trip, precedence, exit codes."""

import csv
import dataclasses
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle_exact_p
from ldectl import cli, neural, runner, stats, trainer
from ldectl.cli import _config_keys, build_parser, main
from ldectl.rng import stream

TINY_TRAIN = [
    "--epochs", "2", "--rollouts", "2", "--horizon", "3",
    "--pop-size", "6", "--bins", "2", "--window", "2", "--hidden", "4",
]


@pytest.fixture
def ws(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _suite(ws, dim=3, train=2, test=2, seed=0):
    assert main(["suite", "--seed", str(seed), "--dim", str(dim),
                 "--train", str(train), "--test", str(test)]) == 0


# ---------------------------------------------------------------- suite
def test_suite_writes_instance_files(ws, capsys):
    _suite(ws, dim=4, train=3, test=2, seed=7)
    files = sorted(p.name for p in (ws / "suite").glob("*.fn"))
    assert len(files) == 5
    assert sum(f.startswith("train-") for f in files) == 3
    assert sum(f.startswith("test-") for f in files) == 2
    out = capsys.readouterr().out
    for f in files:
        assert f.removesuffix(".fn") in out


def test_suite_rerun_identical_files(ws):
    _suite(ws, seed=3)
    first = {p.name: p.read_bytes() for p in (ws / "suite").glob("*.fn")}
    _suite(ws, seed=3)
    second = {p.name: p.read_bytes() for p in (ws / "suite").glob("*.fn")}
    assert first == second


def test_suite_refuses_an_out_holding_another_suites_instances(ws, capsys):
    # train and run load every instance file in a directory
    assert main(["suite", "--seed", "1", "--dim", "2", "--train", "6", "--test", "0",
                 "--out", "s"]) == 0
    before = {p.name: p.read_bytes() for p in (ws / "s").iterdir()}
    assert len(before) == 6
    capsys.readouterr()
    assert main(["suite", "--seed", "2", "--dim", "2", "--train", "2", "--test", "0",
                 "--out", "s"]) == 1
    assert ("usage error: s/train-02-ellipsoid.fn is not an instance of this suite"
            in capsys.readouterr().err)
    assert {p.name: p.read_bytes() for p in (ws / "s").iterdir()} == before


def test_suite_zero_train_count_is_usage_error(ws, capsys):
    assert main(["suite", "--train", "0"]) == 1
    assert "usage error" in capsys.readouterr().err


# suite --out trees recorded while each rotation was orthonormalised alone;
# any changed byte of a shift, f_star or rotation moves a digest.
GOLDEN_SUITE_TREES = {
    ("0", "10", "6", "8"): "0b12808accc87e51c98bbda43a2a5e5817b1ea094cfd951771c74974000c1987",
    ("3", "1", "8", "8"): "cd963d870f686ad95f9a12f2cb164cf456694821bd24d20a3547faaa01d9803c",
    ("5", "30", "3", "5"): "696747f280d7cfdb68daeb90314bab7c5388a0922fc31bee9b5fdfc71524e1b3",
}


@pytest.mark.parametrize("seed, dim, train, test", GOLDEN_SUITE_TREES,
                         ids=["desk", "dim1", "dim30"])
def test_suite_out_tree_keeps_its_bits(ws, seed, dim, train, test):
    assert main(["suite", "--seed", seed, "--dim", dim, "--train", train,
                 "--test", test, "--out", "s"]) == 0
    assert _tree_digest(ws / "s") == GOLDEN_SUITE_TREES[seed, dim, train, test]


@pytest.mark.parametrize("role, argv", [
    ("train", ["train", *TINY_TRAIN, "--out", "out"]),
    ("test", ["run", "--algorithms", "ctpb_fixed", "--runs", "2",
              "--budget", "60", "--pop-size", "6", "--out", "out"]),
], ids=["train", "run"])
def test_two_files_with_one_instance_id_are_refused_before_any_output(ws, capsys, role, argv):
    _suite(ws, dim=2)
    original, copy = Path("suite", f"{role}-00-sphere.fn"), Path("suite", f"{role}-00-copy.fn")
    copy.write_bytes(original.read_bytes())
    capsys.readouterr()
    assert main(argv) == 1
    assert (f"usage error: {copy} and {original} both hold instance {role}-00-sphere"
            in capsys.readouterr().err)
    assert not (ws / "out").exists()


@pytest.mark.parametrize("k, edit, message", [
    (1, lambda ln: ln.rsplit(" ", 1)[0], "line 2: expected 3 numbers, got 2"),
    (3, lambda ln: ln + " 0.5", "line 4: expected 3 numbers, got 4"),
    (2, lambda ln: ln.replace(" ", " x", 1), "line 3: could not convert string to float: 'x"),
], ids=["cut-shift", "ragged-rotation", "bad-token"])
@pytest.mark.parametrize("role, argv", [
    ("train", ["train", *TINY_TRAIN, "--out", "out"]),
    ("test", ["run", "--algorithms", "ctpb_fixed", "--runs", "2",
              "--budget", "60", "--pop-size", "6", "--out", "out"]),
], ids=["train", "run"])
def test_an_instance_file_that_does_not_parse_is_refused_by_name(ws, capsys, role, argv,
                                                                 k, edit, message):
    _suite(ws, dim=3)
    path = Path("suite", f"{role}-01-rastrigin.fn")  # shift line, then 3 rotation rows
    lines = path.read_text().splitlines()
    lines[k] = edit(lines[k])
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(argv) == 1
    assert f"usage error: {path}: {message}" in capsys.readouterr().err
    assert not (ws / "out").exists()


def test_an_instance_file_that_is_not_ascii_is_refused_by_name(ws, capsys):
    _suite(ws, dim=3)
    path = Path("suite", "train-00-sphere.fn")
    path.write_bytes(path.read_bytes().replace(b"sphere ", "sphère ".encode(), 1))
    capsys.readouterr()
    assert main(["train", *TINY_TRAIN, "--out", "out"]) == 1
    assert f"usage error: {path}: 'ascii' codec can't decode" in capsys.readouterr().err
    assert not (ws / "out").exists()


# ---------------------------------------------------------------- train
def test_train_zero_epochs_equals_seeded_init(ws):
    _suite(ws)
    code = main(["train", "--epochs", "0", "--rollouts", "2", "--horizon", "3",
                 "--pop-size", "6", "--bins", "2", "--window", "2",
                 "--hidden", "4", "--seed", "9"])
    assert code == 0
    w, manifest = neural.load_weights(ws / "trained" / "weights.bin")
    ref = neural.init_weights(4, 6 + 2 * 2, 6, stream(9, "weights"))
    for name in neural.FIELD_ORDER:
        assert (getattr(w, name) == getattr(ref, name)).all()
    assert manifest["seed"] == 9 and manifest["H"] == 4
    assert manifest["spec"]["pop_size"] == 6 and manifest["spec"]["bins"] == 2


def test_train_log_has_epoch_by_function_rows(ws):
    _suite(ws, train=2)
    assert main(["train", *TINY_TRAIN]) == 0
    with open(ws / "trained" / "train_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2  # epochs x train functions
    assert set(rows[0]) == {"epoch", "function_id", "mean_return",
                            "return_std", "grad_norm"}
    assert [r["epoch"] for r in rows] == ["0", "0", "1", "1"]


@pytest.mark.parametrize("every", ["-1", "-3"])
def test_train_refuses_negative_checkpoint_every(ws, capsys, every):
    _suite(ws)
    assert main(["train", *TINY_TRAIN, "--checkpoint-every", every]) == 1
    assert f"checkpoint_every must be >= 0 (0 for none), got {every}" in capsys.readouterr().err
    assert not (ws / "trained").exists()


def test_train_timings_flag_adds_wallclock_column(ws):
    _suite(ws)
    assert main(["train", *TINY_TRAIN, "--timings"]) == 0
    with open(ws / "trained" / "train_log.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header[-1] == "wallclock_ms"


def test_train_checkpoint_resume_matches_uninterrupted(ws):
    _suite(ws)
    base = ["train", *TINY_TRAIN]
    assert main([*base, "--epochs", "4", "--out", "full"]) == 0
    assert main([*base, "--epochs", "4", "--checkpoint-every", "2",
                 "--out", "half"]) == 0
    assert main([*base, "--epochs", "4", "--out", "resumed",
                 "--resume", "half/checkpoint_0002.bin"]) == 0
    w_full, _ = neural.load_weights(ws / "full" / "weights.bin")
    w_res, _ = neural.load_weights(ws / "resumed" / "weights.bin")
    for name in neural.FIELD_ORDER:
        assert (getattr(w_full, name) == getattr(w_res, name)).all()


def test_train_resume_dim_mismatch_is_usage_error(ws, capsys):
    _suite(ws)
    assert main(["train", *TINY_TRAIN, "--checkpoint-every", "1",
                 "--out", "ckpt"]) == 0
    code = main(["train", *TINY_TRAIN, "--pop-size", "8",
                 "--resume", "ckpt/checkpoint_0001.bin"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_train_resume_refuses_changed_settings(ws, capsys):
    _suite(ws)
    assert main(["train", *TINY_TRAIN, "--checkpoint-every", "1", "--out", "ckpt"]) == 0
    resume = ["train", *TINY_TRAIN, "--resume", "ckpt/checkpoint_0001.bin"]
    capsys.readouterr()
    assert main([*resume, "--window", "5", "--sigma", "0.1", "--alpha", "0.001",
                 "--seed", "3"]) == 1
    assert "weights were trained with" in capsys.readouterr().err
    for flag, key, value in (
            ("--pop-size", "pop_size", "8"), ("--bins", "bins", "3"),
            ("--window", "window", "5"), ("--sigma", "sigma", "0.1"),
            ("--p-best", "p_best", "0.3"), ("--f-min", "f_min", "0.01"),
            ("--hidden", "hidden", "8"), ("--seed", "seed", "3"),
            ("--horizon", "horizon", "4"), ("--rollouts", "rollouts", "3"),
            ("--alpha", "alpha", "0.001")):
        assert main([*resume, flag, value]) == 1
        assert f"weights were trained with {key}=" in capsys.readouterr().err
    # the suite fixes dim and the function count
    main(["suite", "--dim", "4", "--train", "2", "--test", "0", "--out", "suite4"])
    main(["suite", "--dim", "3", "--train", "3", "--test", "0", "--out", "suite3"])
    capsys.readouterr()
    assert main([*resume, "--suite", "suite4"]) == 1
    assert "weights were trained with dim=3" in capsys.readouterr().err
    assert main([*resume, "--suite", "suite3"]) == 1
    assert "weights were trained with functions=2" in capsys.readouterr().err
    assert not (ws / "trained").exists()


@pytest.mark.parametrize("argv, message", [
    (["--resume", "t/weights.bin", "--epochs", "1"],
     "cannot resume after 2 epochs with epochs = 1: only epochs may grow"),
    (["--suite", "mixed"], "training functions must share dim and bounds"),
], ids=["resume-fewer-epochs", "mixed-dims"])
def test_train_refuses_inputs_train_cannot_use_before_any_output(ws, capsys, argv, message):
    _suite(ws, dim=2, train=1, test=0)
    assert main(["train", *TINY_TRAIN, "--out", "t"]) == 0  # 2 epochs done
    # train-00 at dim 2, train-01 at dim 3
    assert main(["suite", "--dim", "3", "--train", "2", "--test", "0", "--out", "mixed"]) == 0
    fn = "train-00-sphere.fn"
    (ws / "mixed" / fn).write_bytes((ws / "suite" / fn).read_bytes())
    capsys.readouterr()
    assert main(["train", *argv, "--out", "t2"]) == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (ws / "t2").exists()


def test_train_resume_adopts_recorded_settings(ws):
    _suite(ws)
    base = ["train", *TINY_TRAIN, "--epochs", "4", "--sigma", "0.2", "--alpha", "0.05",
            "--seed", "4"]
    assert main([*base, "--out", "full"]) == 0
    assert main([*base, "--checkpoint-every", "2", "--out", "half"]) == 0
    # no setting given: every recorded one is adopted, so the resumed run
    # writes the uninterrupted run's file, manifest included
    assert main(["train", "--epochs", "4", "--resume", "half/checkpoint_0002.bin",
                 "--out", "resumed"]) == 0
    assert ((ws / "resumed" / "weights.bin").read_bytes()
            == (ws / "full" / "weights.bin").read_bytes())


def test_train_jobs_do_not_change_weights(ws):
    _suite(ws)
    for jobs, out in (("1", "j1"), ("2", "j2")):
        assert main(["train", *TINY_TRAIN, "--jobs", jobs, "--out", out]) == 0
    a = (ws / "j1" / "weights.bin").read_bytes()
    b = (ws / "j2" / "weights.bin").read_bytes()
    assert a == b


# A train --out tree (log, one checkpoint, final weights) recorded before
# the log rows were written by column name; any changed byte moves it.
GOLDEN_TRAIN_TREE = "b14b131241204e3d345899df2c795d042bacb89f73d6ecf3dc14423bebdbfba3"


def test_train_out_tree_keeps_its_bits(ws):
    _suite(ws)
    assert main(["train", *TINY_TRAIN, "--checkpoint-every", "1"]) == 0
    assert sorted(p.name for p in (ws / "trained").iterdir()) == [
        "checkpoint_0001.bin", "train_log.csv", "weights.bin"]
    assert _tree_digest(ws / "trained") == GOLDEN_TRAIN_TREE


# ---------------------------------------------------------------- run/compare
def _pipeline(ws, jobs="1", out="runs"):
    _suite(ws)
    assert main(["train", *TINY_TRAIN]) == 0
    assert main(["run", "--weights", "trained/weights.bin", "--role", "test",
                 "--runs", "3", "--budget", "120", "--jobs", jobs,
                 "--out", out]) == 0


def test_run_produces_results_and_traces(ws):
    _pipeline(ws)
    with open(ws / "runs" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 2 * 3  # algorithms x test functions x runs
    assert {r["algorithm_id"] for r in rows} == {
        "lde", "de_rand1_fixed", "ctpb_fixed", "random_params"}
    assert all(float(r["best_error"]) >= 0.0 for r in rows)
    assert all(int(r["evals_used"]) <= 120 for r in rows)
    assert len(list((ws / "runs" / "traces").glob("*.csv"))) == 24


def test_run_defaults_pop_and_bins_from_weight_manifest(ws):
    _pipeline(ws)  # no --pop-size/--bins: must adopt N=6, b=2 from weights
    trace = next((ws / "runs" / "traces").glob("lde__*.csv"))
    first_row = trace.read_text().splitlines()[1]
    assert first_row.split(",")[0] == "6"  # initial population evaluations


def test_run_pop_size_mismatch_with_weights_is_usage_error(ws, capsys):
    _suite(ws)
    assert main(["train", *TINY_TRAIN]) == 0
    code = main(["run", "--weights", "trained/weights.bin", "--pop-size", "9",
                 "--runs", "2", "--budget", "90"])
    assert code == 1
    assert "trained with pop_size=6" in capsys.readouterr().err


def test_run_adopts_controller_settings_from_weight_manifest(ws, capsys):
    _suite(ws)
    assert main(["train", *TINY_TRAIN, "--sigma", "0.2", "--p-best", "0.3",
                 "--f-min", "0.01"]) == 0
    run = ["run", "--weights", "trained/weights.bin", "--algorithms", "lde",
           "--runs", "2", "--budget", "60"]
    assert main([*run, "--out", "adopted"]) == 0
    assert main([*run, "--window", "2", "--sigma", "0.2", "--p-best", "0.3",
                 "--f-min", "0.01", "--out", "explicit"]) == 0
    capsys.readouterr()
    assert ((ws / "adopted" / "results.csv").read_bytes()
            == (ws / "explicit" / "results.csv").read_bytes())
    for flag, value in (("--sigma", "0.1"), ("--window", "5"),
                        ("--p-best", "0.05"), ("--f-min", "0.001")):
        assert main([*run, flag, value, "--out", "refused"]) == 1
        assert "weights were trained with" in capsys.readouterr().err
    assert not (ws / "refused").exists()


def test_run_learned_without_weights_is_usage_error(ws, capsys):
    _suite(ws)
    assert main(["run", "--algorithms", "lde", "--runs", "2",
                 "--budget", "100"]) == 1
    assert "--weights" in capsys.readouterr().err


def test_run_budget_below_population_is_usage_error(ws, capsys):
    _suite(ws)
    code = main(["run", "--algorithms", "ctpb_fixed", "--runs", "2",
                 "--budget", "10", "--pop-size", "20"])
    assert code == 1
    assert "budget" in capsys.readouterr().err


def test_run_zero_runs_is_usage_error_before_any_output(ws, capsys):
    _suite(ws)
    assert main(["run", "--algorithms", "de_rand1_fixed", "--runs", "0",
                 "--budget", "60", "--pop-size", "6"]) == 1
    assert "usage error: runs must be >= 1" in capsys.readouterr().err
    assert not (ws / "runs").exists()


def test_run_rerun_and_jobs_byte_identical(ws):
    _pipeline(ws, jobs="1", out="r1")
    assert main(["run", "--weights", "trained/weights.bin", "--role", "test",
                 "--runs", "3", "--budget", "120", "--jobs", "4",
                 "--out", "r4"]) == 0
    assert (ws / "r1" / "results.csv").read_bytes() == \
        (ws / "r4" / "results.csv").read_bytes()


# A run --out tree (results, error traces, parameter traces) recorded
# before the writers left float formatting to csv: all four algorithms,
# two runs each, on three dim-2 functions; some runs stop at --tol and
# some spend the whole budget.  Any changed byte moves it.
GOLDEN_RUN_TREE = "d92d1d6286c25d8e9d5445d5560e88bc63111929e9b2137b384d9ad04f8243b3"


def test_run_out_tree_keeps_its_bits(ws):
    _suite(ws, dim=2, train=2, test=3)
    assert main(["train", *TINY_TRAIN]) == 0
    assert main(["run", "--weights", "trained/weights.bin", "--runs", "2",
                 "--budget", "300", "--tol", "1e-3", "--param-traces", "--out", "runs"]) == 0
    with open(ws / "runs" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["algorithm_id"] for r in rows} == {runner.LEARNED, *runner.BASELINES}
    stopped = {int(r["evals_used"]) < 300 for r in rows}
    assert stopped == {True, False}
    assert len(list((ws / "runs" / "traces").glob("*__params.csv"))) == len(rows)
    assert _tree_digest(ws / "runs") == GOLDEN_RUN_TREE


# A run --out tree at the edge shapes: dim 1 and N 4, so the pbest bound
# is 1 and there are no crossover uniforms; all four algorithms, two runs
# each, some stopping at the tolerance and some at the budget.  Recorded
# before each chunk's draws were turned into member indices and crossover
# sheets (perfbench's digest rule gives badfcc94655397e1...).  Any changed
# byte moves it.
GOLDEN_EDGE_RUN_TREE = "6fc335658c7a24f627fc724a0a9984d8026f5bd49e9a3b6ab33f1504470a327c"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_edge_shape_run_tree_keeps_its_bits(ws, jobs):
    _suite(ws, dim=1, train=2, test=2, seed=1)
    assert main(["train", "--epochs", "1", "--rollouts", "2", "--horizon", "3",
                 "--hidden", "4", "--pop-size", "4", "--jobs", jobs]) == 0
    assert main(["run", "--weights", "trained/weights.bin", "--role", "test", "--runs", "2",
                 "--budget", "400", "--pop-size", "4", "--jobs", jobs, "--algorithms",
                 "lde,de_rand1_fixed,ctpb_fixed,random_params"]) == 0
    with open(ws / "runs" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["algorithm_id"] for r in rows} == {runner.LEARNED, *runner.BASELINES}
    assert {int(r["evals_used"]) < 400 for r in rows} == {True, False}
    assert _tree_digest(ws / "runs") == GOLDEN_EDGE_RUN_TREE


def test_compare_reads_run_output(ws, capsys):
    _pipeline(ws)
    capsys.readouterr()
    assert main(["compare", "--results", "runs/results.csv",
                 "--out", "cmp"]) == 0
    report = capsys.readouterr().out
    assert "average performance score" in report
    assert "lde" in report
    for name in ("comparison.csv", "marks.csv", "aps.csv", "report.txt"):
        assert (ws / "cmp" / name).exists()
    with open(ws / "cmp" / "aps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(0.0 <= float(r["aps"]) <= 3.0 for r in rows)


def test_compare_exact_p_values_at_the_limit(ws, capsys):
    # 10 runs per pair, the most the exact path takes; some runs solve to 0.0
    rng = np.random.default_rng(11)
    errors = {}
    for fid in ("fn-a", "fn-b"):
        for k, alg in enumerate(("alpha", "beta", "gamma")):
            e = rng.lognormal(k, 1.0, 10)
            e[rng.random(10) < 0.3 * (3 - k)] = 0.0
            errors[fid, alg] = e.tolist()
    with open(ws / "results.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["algorithm_id", "function_id", "seed", "best_error", "evals_used"])
        for (fid, alg), errs in errors.items():
            for seed, err in enumerate(errs):
                wr.writerow([alg, fid, seed, repr(err), 100])
    assert main(["compare", "--results", "results.csv", "--out", "cmp"]) == 0
    capsys.readouterr()
    with open(ws / "cmp" / "marks.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3 * 2
    oracle = {}
    for r in rows:
        fid = r["function_id"]
        a, b = sorted((r["algorithm_a"], r["algorithm_b"]))
        if (fid, a, b) not in oracle:  # the test is symmetric: one oracle run per pair
            oracle[fid, a, b] = oracle_exact_p(errors[fid, a], errors[fid, b])[1]
        assert float(r["p_value"]) == oracle[fid, a, b]
    assert min(oracle.values()) < 0.05 < max(oracle.values())


def _write_results(path, seed, n_fns, runs, algorithms=("lde", "de_rand1_fixed",
                                                       "ctpb_fixed", "random_params"),
                   shuffle=False):
    """A seeded results.csv: per-function levels and per-algorithm offsets on
    a log10 scale, errors below 1e-8 written as exactly 0.0.  ``runs`` is a
    run count, or (function index, algorithm index) -> run count."""
    rng = np.random.default_rng(seed)
    level = rng.uniform(-9.0, 4.0, n_fns)
    rows = []
    for a, alg in enumerate(algorithms):
        for f in range(n_fns):
            n = runs if isinstance(runs, int) else runs(f, a)
            logs = level[f] + rng.normal(0.0, 1.0) + rng.normal(0.0, 0.5, n)
            rows += [[alg, f"fn-{f:02d}", r, repr(float(10.0 ** x) if x > -8.0 else 0.0), 100]
                     for r, x in enumerate(logs)]
    if shuffle:
        rows = [rows[i] for i in rng.permutation(len(rows))]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["algorithm_id", "function_id", "seed", "best_error", "evals_used"])
        wr.writerows(rows)


def _tree_digest(root) -> str:
    """SHA-256 over every file under root: its relative path, then its bytes."""
    h = hashlib.sha256()
    for p in sorted(q for q in Path(root).rglob("*") if q.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


# compare --out trees recorded before the rank-sum pairs of a function were
# computed together; any change to a p-value, mean, std, mark or APS bit
# moves a digest.  "ragged" mixes exact and normal pairs within a function
# (2-29 runs per pair), carries exact zeros at the floor, lists its rows
# shuffled and its algorithms in non-sorted first-seen order.
GOLDEN_COMPARE = {
    "exact": "337ee7a0a988949b3e660a4fcb0bd892367b68d00ba3d2d440adfe622a5694f1",
    "normal": "5a676dbd7b47de24528814cc8bfd221fba4cf64ed30596e2117990708b1de462",
    "ragged": "2d10e5092b478fe0aee1c49f1cd75a99ec41211562068d7afba111b88ec94bd7",
}


def _write_golden_inputs(ws):
    """The results files whose compare --out trees GOLDEN_COMPARE pins."""
    ragged = np.random.default_rng(9).integers(2, 30, size=(6, 4))
    _write_results(ws / "exact.csv", 1, 8, 7)
    _write_results(ws / "normal.csv", 2, 32, 51)
    _write_results(ws / "ragged.csv", 3, 6, lambda f, a: int(ragged[f, a]),
                   algorithms=("zeta", "alpha", "mid", "beta"), shuffle=True)


def test_compare_out_trees_keep_their_bits(ws, capsys):
    _write_golden_inputs(ws)
    got = {}
    for name in GOLDEN_COMPARE:
        assert main(["compare", "--results", f"{name}.csv", "--out", name]) == 0
        assert capsys.readouterr().out == (ws / name / "report.txt").read_text()
        got[name] = _tree_digest(ws / name)
    assert b",0.0," in (ws / "ragged.csv").read_bytes()
    assert got == GOLDEN_COMPARE


def test_compare_out_trees_do_not_depend_on_the_null_count_cache(ws, capsys):
    _write_golden_inputs(ws)
    for warm in (False, True):
        got = {}
        for name in GOLDEN_COMPARE:
            if warm:
                assert main(["compare", "--results", f"{name}.csv"]) == 0
            else:
                stats._null_counts.cache_clear()
            assert main(["compare", "--results", f"{name}.csv", "--out", f"{name}-{warm}"]) == 0
            got[name] = _tree_digest(ws / f"{name}-{warm}")
        capsys.readouterr()
        assert got == GOLDEN_COMPARE
    assert stats._null_counts.cache_info().hits > 0


def test_compare_missing_results_file_is_io_failure(ws, capsys):
    assert main(["compare", "--results", "nothing.csv"]) == 3
    assert "i/o failure" in capsys.readouterr().err


def test_compare_short_row_is_usage_error_naming_the_line(ws, capsys):
    lines = ["algorithm_id,function_id,seed,best_error,evals_used"]
    lines += [f"{alg},fn-a,{seed},{seed + 1.0},100" for alg in ("a", "b") for seed in range(3)]
    lines.insert(4, "b,fn-a,7")  # fewer fields than the header, on line 5
    (ws / "results.csv").write_text("\n".join(lines) + "\n")
    assert main(["compare", "--results", "results.csv"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "results.csv line 5" in err
    assert "Traceback" not in err


def test_compare_non_finite_error_is_usage_error_naming_the_line(ws, capsys):
    lines = ["algorithm_id,function_id,seed,best_error,evals_used"]
    lines += [f"{alg},fn-a,{seed},{seed + 1.0},100" for alg in ("a", "b") for seed in range(3)]
    for cell in ("abc", "nan"):
        bad = list(lines)
        bad[3] = f"a,fn-a,2,{cell},100"  # line 4
        (ws / "results.csv").write_text("\n".join(bad) + "\n")
        assert main(["compare", "--results", "results.csv"]) == 1
        err = capsys.readouterr().err
        assert f"results.csv line 4: best_error '{cell}' is not a finite number" in err
        assert "Traceback" not in err


def test_compare_single_algorithm_is_usage_error(ws, capsys):
    _suite(ws)
    assert main(["run", "--algorithms", "ctpb_fixed", "--runs", "2",
                 "--budget", "60", "--pop-size", "6", "--bins", "2"]) == 0
    assert main(["compare", "--results", "runs/results.csv"]) == 1
    assert "two algorithms" in capsys.readouterr().err


# ---------------------------------------------------------------- gradcheck
def test_gradcheck_default_passes(ws, capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "max rel err" in out


def test_gradcheck_is_deterministic(ws, capsys):
    assert main(["gradcheck", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["gradcheck", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_gradcheck_corrupt_hook_exits_numeric_failure(ws, capsys, monkeypatch):
    real = neural.backward_through_time

    def corrupted(*args):
        g = real(*args)
        g.W_g[0, 0, 0] += 1.0
        return g

    monkeypatch.setattr(neural, "backward_through_time", corrupted)
    assert main(["gradcheck"]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_gradcheck_nan_gradient_exits_numeric_failure(ws, capsys, monkeypatch):
    real = neural.backward_through_time

    def nan_entry(*args):
        g = real(*args)
        g.b_head[0, 5] = np.nan
        return g

    monkeypatch.setattr(neural, "backward_through_time", nan_entry)
    assert main(["gradcheck"]) == 2
    captured = capsys.readouterr()
    assert "FAIL: max rel err nan (worst b_head" in captured.out
    assert "numeric failure" in captured.err


def test_gradcheck_refuses_non_positive_eps(ws, capsys):
    assert main(["gradcheck", "--eps", "0"]) == 1
    err = capsys.readouterr().err
    assert "usage error: eps must be positive" in err and "Traceback" not in err
    (ws / "gc.cfg").write_text("steps = 0\n")
    assert main(["gradcheck", "--config", "gc.cfg"]) == 1
    assert "steps must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["0", "-1e-4", "nan", "inf"])
def test_gradcheck_refuses_a_threshold_no_gradient_can_meet(ws, capsys, threshold):
    # a usage error (1), not a failed check (2)
    assert main(["gradcheck", f"--threshold={threshold}"]) == 1
    captured = capsys.readouterr()
    assert "usage error: threshold must be positive and finite" in captured.err
    assert "FAIL" not in captured.out and "Traceback" not in captured.err


# ---------------------------------------------------------------- config file
def test_config_precedence_flag_beats_file_beats_default(ws):
    (ws / "opts.cfg").write_text("dim = 4\ntrain = 1\ntest = 0\n")
    assert main(["suite", "--config", "opts.cfg"]) == 0
    names = sorted(p.name for p in (ws / "suite").glob("*.fn"))
    assert names == ["train-00-sphere.fn"]  # file beat the 6/8 defaults
    assert main(["suite", "--config", "opts.cfg", "--train", "2",
                 "--out", "s2"]) == 0
    assert len(list((ws / "s2").glob("train-*.fn"))) == 2  # flag beat the file


def test_config_file_comments_and_unknown_keys(ws, capsys):
    (ws / "ok.cfg").write_text("# comment line\ndim = 3  # trailing\n\n")
    assert main(["suite", "--config", "ok.cfg", "--train", "1",
                 "--test", "0"]) == 0
    (ws / "bad.cfg").write_text("dim = 3\nmystery = 1\n")
    assert main(["suite", "--config", "bad.cfg"]) == 1
    assert "unknown config key" in capsys.readouterr().err
    (ws / "noeq.cfg").write_text("just words\n")
    assert main(["suite", "--config", "noeq.cfg"]) == 1
    assert "expected key = value" in capsys.readouterr().err


def test_config_file_bad_value_and_bad_bool(ws, capsys):
    (ws / "badint.cfg").write_text("dim = three\n")
    assert main(["suite", "--config", "badint.cfg"]) == 1
    assert "bad value" in capsys.readouterr().err
    (ws / "badbool.cfg").write_text("timings = maybe\n")
    assert main(["train", "--config", "badbool.cfg"]) == 1
    assert "not a boolean" in capsys.readouterr().err


def test_config_bad_bool_names_the_file_and_line(ws, capsys):
    (ws / "b.cfg").write_text("timings = maybe\n")
    assert main(["train", "--config", "b.cfg"]) == 1
    err = capsys.readouterr().err
    assert "usage error: b.cfg:1: bad value for timings: not a boolean: 'maybe'" in err


def test_config_keys_are_every_commands_flags():
    parser = build_parser()
    keys = _config_keys(parser.commands)
    dests = set()
    for command in parser.commands:
        dests |= set(vars(parser.parse_args([command]))) - {"command"}
    assert set(keys) == dests - {"config"}
    for p in parser.commands.values():  # one type per key, whichever command reads it
        for a in p._actions:
            if a.dest in keys:
                assert (a.type, a.nargs, a.choices) == \
                    (keys[a.dest].type, keys[a.dest].nargs, keys[a.dest].choices), a.dest


class _Resolved(Exception):
    pass


def test_every_flag_is_read_by_its_command(monkeypatch):
    # each command's handler resolves exactly the options its parser offers
    parser = build_parser()
    resolve = cli._resolve

    def spy(*args):
        raise _Resolved(set(resolve(*args)))

    monkeypatch.setattr(cli, "_resolve", spy)
    for command in parser.commands:
        args = parser.parse_args([command])
        with pytest.raises(_Resolved) as got:
            getattr(cli, "cmd_" + command)(args)
        assert got.value.args[0] == set(vars(args)) - {"config", "command"}, command


@pytest.mark.parametrize("argv", [["suite", "--jobs", "2"], ["compare", "--seed", "1"],
                                  ["compare", "--jobs", "2"], ["gradcheck", "--jobs", "2"],
                                  ["gradcheck", "--out", "x"]])
def test_a_flag_its_command_never_reads_is_usage_error(ws, capsys, argv):
    assert main(argv) == 1
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not any(ws.iterdir())


@pytest.mark.parametrize("command, cls", [("train", trainer.TrainConfig),
                                          ("run", runner.RunConfig)])
def test_help_lists_a_flag_per_config_field(capsys, command, cls):
    assert main([command, "--help"]) == 0
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert {"--" + f.name.replace("_", "-") for f in dataclasses.fields(cls)} <= flags


def test_config_choice_is_refused_like_the_flag(ws, capsys):
    _suite(ws)
    assert main(["run", "--role", "bogus"]) == 1
    assert "argument --role: invalid choice: 'bogus'" in capsys.readouterr().err
    (ws / "run.cfg").write_text("runs = 2\nrole = bogus\n")
    assert main(["run", "--config", "run.cfg"]) == 1
    err = capsys.readouterr().err
    assert "run.cfg:2: argument --role: invalid choice: 'bogus'" in err
    assert not (ws / "runs").exists()


def test_missing_config_file_is_io_failure(ws, capsys):
    assert main(["suite", "--config", "absent.cfg"]) == 3
    assert "i/o failure" in capsys.readouterr().err


def test_successive_calls_in_one_process_match_fresh_processes(tmp_path, monkeypatch, capsys):
    """main builds its parser once per process, so no call may leave state
    behind that a later call sees: each call of a sequence run in-process
    prints, exits and writes what a fresh ``python -m ldectl`` does."""
    calls = [
        ["suite", "--seed", "4", "--dim", "2", "--train", "1", "--test", "2", "--out", "s"],
        ["compare", "--config", "c.cfg"],  # alpha_sig, ref and out from the file
        ["run", "--help"],
        ["run", "--instances", "s", "--runs", "two"],
        ["compare", "--results", "r.csv", "--out", "plain"],  # the defaults again
        ["run", "--instances", "s", "--algorithms", "de_rand1_fixed,ctpb_fixed",
         "--runs", "2", "--budget", "40", "--pop-size", "4", "--bins", "2"],
        ["compare", "--results", "runs/results.csv", "--alpha-sig", "0.5"],
        ["suite", "--dim", "0"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    trees = {}
    for side in ("in_process", "fresh"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "c.cfg").write_text("results = r.csv\nalpha_sig = 0.3\n"
                                               "ref = beta\nout = cfg\n")
        _write_results(tmp_path / side / "r.csv", 5, 3, 6, algorithms=("alpha", "beta", "gamma"))
    monkeypatch.chdir(tmp_path / "in_process")
    got = []
    for argv in calls:
        code = main(argv)
        got.append((code, *capsys.readouterr()))
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": os.pathsep.join(
        [str(Path(neural.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    want = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "ldectl", *argv], cwd=tmp_path / "fresh",
                              env=env, capture_output=True, text=True, encoding="utf-8")
        want.append((proc.returncode, proc.stdout, proc.stderr))
    assert [g[0] for g in got] == [0, 0, 0, 1, 0, 0, 0, 1]
    assert got == want
    for side in ("in_process", "fresh"):
        root = tmp_path / side
        trees[side] = {p.relative_to(root): p.read_bytes()
                       for p in sorted(root.rglob("*")) if p.is_file()}
    assert trees["in_process"] == trees["fresh"]
    assert (tmp_path / "fresh" / "cfg" / "report.txt").read_text() != \
        (tmp_path / "fresh" / "plain" / "report.txt").read_text()


# ---------------------------------------------------------------- exit codes
def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "suite" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "pick a command" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["suite", "--does-not-exist", "3"]) == 1


def test_missing_instance_dir_is_io_failure(ws, capsys):
    assert main(["train", "--suite", "void"]) == 3
    assert "i/o failure" in capsys.readouterr().err


def test_train_refuses_jobs_below_one(ws, capsys):
    _suite(ws)
    assert main(["train", *TINY_TRAIN, "--jobs", "-3"]) == 1
    assert "jobs must be >= 1, got -3" in capsys.readouterr().err
    (ws / "train.cfg").write_text("jobs = 0\n")
    assert main(["train", *TINY_TRAIN, "--config", "train.cfg"]) == 1
    assert "jobs must be >= 1, got 0" in capsys.readouterr().err
    assert not (ws / "trained").exists()


def test_run_refuses_jobs_below_one(ws, capsys):
    _suite(ws)
    base = ["run", "--algorithms", "de_rand1_fixed", "--runs", "1", "--budget", "60",
            "--pop-size", "6"]
    assert main([*base, "--jobs", "0"]) == 1
    assert "jobs must be >= 1, got 0" in capsys.readouterr().err
    (ws / "run.cfg").write_text("jobs = -2\n")
    assert main([*base, "--config", "run.cfg"]) == 1
    assert "jobs must be >= 1, got -2" in capsys.readouterr().err
    assert not (ws / "runs").exists()


def _die(payload):
    os._exit(1)  # a worker process dying mid-task, as on a crash or an OOM kill


def test_train_worker_crash_is_worker_failure(ws, capsys, monkeypatch):
    _suite(ws)
    monkeypatch.setattr(trainer, "_rollout_task", _die)
    assert main(["train", *TINY_TRAIN, "--jobs", "2"]) == 4
    assert "worker failure" in capsys.readouterr().err


def test_run_worker_crash_is_worker_failure(ws, capsys, monkeypatch):
    _suite(ws)
    monkeypatch.setattr(runner, "_run_task", _die)
    assert main(["run", "--algorithms", "de_rand1_fixed,ctpb_fixed", "--runs", "2",
                 "--budget", "60", "--pop-size", "6", "--jobs", "2"]) == 4
    assert "worker failure" in capsys.readouterr().err
