"""The scripts under scripts/: run in-process at a tiny size."""

import csv
import importlib.util
import re
from pathlib import Path

from ldectl import neural

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_pipeline_runs_suite_to_comparison(tmp_path, capsys):
    desk = _load("desk_pipeline")
    out = tmp_path / "desk"
    desk.run(desk.parse_args([
        "--dim", "2", "--train-functions", "2", "--test-functions", "2",
        "--epochs", "1", "--hidden", "4", "--runs", "2", "--budget", "200",
        "--out", str(out)]))
    out_text = capsys.readouterr().out
    assert "report at" in out_text
    stages = re.findall(r"^(\w+) took \d+\.\d{3}s$", out_text, re.MULTILINE)
    assert stages == ["suite", "train", "run", "compare"]

    _, manifest = neural.load_weights(out / "trained" / "weights.bin")
    assert manifest["format_version"] == neural.FORMAT_VERSION
    assert manifest["H"] == 4 and manifest["training_metadata"]["epochs_done"] == 1
    with open(out / "runs" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 2 * 2  # algorithms x test functions x runs
    assert all(int(r["evals_used"]) <= 200 for r in rows)
    for name in ("comparison.csv", "marks.csv", "aps.csv", "report.txt"):
        assert (out / "comparison" / name).stat().st_size > 0


def test_epoch_memory_runs_the_desk_op_and_reads_the_status(tmp_path, capsys):
    mem = _load("epoch_memory")
    assert mem.main(["--ops", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ops 1 seed 0"
    values = {line.split()[0]: line.split(None, 1)[1] for line in lines[1:]}
    assert set(values) == {"VmHWM", "RssAnon", "RssFile"}
    if Path("/proc/self/status").is_file():
        assert all(v.endswith(" kB") and int(v.split()[0]) > 0 for v in values.values())
    assert mem.memory_status(tmp_path / "absent") == dict.fromkeys(values, "n/a")


def test_step_cost_times_every_stage_at_both_batch_sizes(capsys):
    cost = _load("step_cost")
    assert cost.main(["--dim", "2", "--hidden", "4", "--functions", "2", "--rollouts", "2",
                      "--warmup", "2", "--rounds", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "dim 2 N 20 H 4 seed 0 rounds 3"
    assert lines[1].split() == ["stage", "B=1", "us", "calls", "B=4", "us", "calls"]
    rows = {line[:cost.NAME_WIDTH].strip(): line[cost.NAME_WIDTH:].split() for line in lines[2:]}
    runs = ["run_lde / generation", "run_baseline de_rand1_fixed / generation",
            "run_baseline ctpb_fixed / generation", "run_baseline random_params / generation"]
    assert list(rows) == ["assemble_state", "forward_step", "draw / generation",
                          "sample_action", "evolve", "mutate_current_to_pbest",
                          "binomial_crossover_batch", "repair_bounds", "evaluate_batch",
                          "select", "ControllerStep / generation", *runs, "epoch_gradient"]
    # the runs time a batch of one, epoch_gradient an epoch's K * L rows
    only = {**dict.fromkeys(runs, slice(0, 2)), "epoch_gradient": slice(2, 4)}
    for name, cells in rows.items():
        timed = cells[only.get(name, slice(None))]
        assert all(float(us) > 0 and int(calls) > 0 for us, calls in zip(timed[::2], timed[1::2]))
    for name in runs:
        assert rows[name][2:] == ["-", "-"]
    assert rows["epoch_gradient"][:2] == ["-", "-"]
    # the parts of evolve are calls evolve makes
    part_calls = sum(int(rows[name][1]) for name in list(rows)[5:10])
    assert part_calls < int(rows["evolve"][1])


def test_compare_cost_times_every_stage_of_one_call(capsys):
    cost = _load("compare_cost")
    for runs in (12, 7):  # the normal path, then the exact one
        assert cost.main(["--functions", "2", "--algorithms", "3", "--runs", str(runs),
                          "--rounds", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"functions 2 algorithms 3 runs {runs} seed 0 rounds 3"
        assert lines[1].split() == ["stage", "us"]
        rows = {line.split()[0]: float(line.split()[1]) for line in lines[2:]}
        assert list(rows) == ["parse", "table", "table_cold", "ranksum", "render", "write",
                              "compare"]
        assert all(us > 0 for us in rows.values())
