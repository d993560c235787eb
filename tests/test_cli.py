"""Command-line front end: pipeline round trip, precedence, exit codes."""

import csv
import os
from pathlib import Path

import pytest

from ldectl import neural, runner, trainer
from ldectl.cli import main
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


def test_suite_zero_train_count_is_usage_error(ws, capsys):
    assert main(["suite", "--train", "0"]) == 1
    assert "usage error" in capsys.readouterr().err


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
    _suite(ws, dim=4, train=2, test=0, seed=0)
    main(["suite", "--dim", "3", "--train", "3", "--test", "0", "--out", "suite3"])
    capsys.readouterr()
    assert main([*resume, "--suite", "suite"]) == 1
    assert "weights were trained with dim=3" in capsys.readouterr().err
    assert main([*resume, "--suite", "suite3"]) == 1
    assert "weights were trained with functions=2" in capsys.readouterr().err
    assert not (ws / "trained").exists()


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


def test_run_rerun_and_jobs_byte_identical(ws):
    _pipeline(ws, jobs="1", out="r1")
    assert main(["run", "--weights", "trained/weights.bin", "--role", "test",
                 "--runs", "3", "--budget", "120", "--jobs", "4",
                 "--out", "r4"]) == 0
    assert (ws / "r1" / "results.csv").read_bytes() == \
        (ws / "r4" / "results.csv").read_bytes()


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


def test_compare_missing_results_file_is_io_failure(ws, capsys):
    assert main(["compare", "--results", "nothing.csv"]) == 3
    assert "i/o failure" in capsys.readouterr().err


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


def test_gradcheck_corrupt_hook_exits_numeric_failure(ws, capsys):
    assert main(["gradcheck", "--corrupt"]) == 2
    assert "numeric failure" in capsys.readouterr().err


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


def test_missing_config_file_is_io_failure(ws, capsys):
    assert main(["suite", "--config", "absent.cfg"]) == 3
    assert "i/o failure" in capsys.readouterr().err


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
