"""The benchmark's workloads: seeded inputs, the CLI calls of one op, and
the checks each call's output must pass.

An op is a fixed list of ``ldectl`` CLI calls.  The benchmark repeats it
in a closed loop, so every repetition does the same work on the same
inputs and must write byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

LDE = "lde"
BASELINES = "de_rand1_fixed,ctpb_fixed,random_params"
ALGORITHMS = (LDE, *BASELINES.split(","))
POP_SIZE = 20  # the CLI default, used by train and run alike


@dataclass(frozen=True)
class Size:
    dim: int
    n_train: int
    n_test: int
    suite_calls: int    # suite calls per train-desk op
    epochs: int         # epochs per train call
    rollouts: int
    horizon: int
    hidden: int
    budget: int         # evaluations per run
    runs: int           # runs per (algorithm, function)
    exact_fns: int      # functions in the exact-path results file
    exact_runs: int     # runs per pair, at most stats.EXACT_LIMIT
    exact_calls: int    # exact-path compare calls per op
    normal_fns: int
    normal_runs: int    # runs per pair, above stats.EXACT_LIMIT
    normal_calls: int   # normal-path compare calls after each exact call
    setup_reps: int     # fresh set-up processes per run


SIZES = {
    # the acceptance fixture's desk scale; budget dim * 10^3 keeps an op to
    # seconds while sphere and ackley still stop early at tol 1e-8.  The
    # host's speed swings within a second, so every call is kept short
    # (7 runs per exact pair, one function per run call) and a run holds
    # many of them.
    "desk": Size(dim=10, n_train=6, n_test=8, suite_calls=10, epochs=1, rollouts=10,
                 horizon=30, hidden=32, budget=10_000, runs=1, exact_fns=8,
                 exact_runs=7, exact_calls=2, normal_fns=32, normal_runs=51,
                 normal_calls=2, setup_reps=9),
    # every path at a size that runs in well under a second
    "tiny": Size(dim=4, n_train=2, n_test=8, suite_calls=1, epochs=1, rollouts=2,
                 horizon=3, hidden=4, budget=100, runs=1, exact_fns=2, exact_runs=4,
                 exact_calls=1, normal_fns=2, normal_runs=11, normal_calls=1, setup_reps=2),
}


class CheckFailed(Exception):
    pass


@dataclass
class Call:
    """One CLI call of an op: argv, the directory it writes, and its check.

    ``check(out)`` raises CheckFailed or returns the call's units of work
    (epochs, generations, or 1), which the timing is divided by.
    """

    key: str
    argv: list
    out: Path
    check: Callable[[Path], float]


def _cli(cli_main, argv):
    code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"ldectl {' '.join(argv)} exited with {code}")


# ---------------------------------------------------------------------------
# inputs made once per run, from the seed alone

def make_inputs(cli_main, root: Path, seed: int, size: Size) -> None:
    """Suite, one directory per test function, seeded untrained weights,
    and synthetic results files."""
    _cli(cli_main, ["suite", "--seed", str(seed), "--dim", str(size.dim),
                    "--train", str(size.n_train), "--test", str(size.n_test),
                    "--out", str(root / "suite")])
    for fn in sorted((root / "suite").glob("test-*.fn")):
        (root / "test_fns" / fn.stem).mkdir(parents=True)
        shutil.copyfile(fn, root / "test_fns" / fn.stem / fn.name)
    _cli(cli_main, ["train", "--seed", str(seed), "--suite", str(root / "suite"),
                    "--epochs", "0", "--hidden", str(size.hidden), "--jobs", "1",
                    "--out", str(root / "untrained")])
    from ldectl.benchfn import FAMILY_CYCLE

    (root / "results").mkdir(parents=True, exist_ok=True)
    write_results(root / "results" / "exact.csv", seed, 1, size.exact_fns,
                  size.exact_runs, FAMILY_CYCLE)
    write_results(root / "results" / "normal.csv", seed, 2, size.normal_fns,
                  size.normal_runs, FAMILY_CYCLE)


def write_results(path: Path, seed: int, label: int, n_fns: int, runs: int,
                  families) -> None:
    """A results.csv whose errors look like real runs.

    Each function gets a difficulty and each algorithm an offset on a log10
    scale; runs scatter around that.  Errors below 1e-8 read exactly 0.0,
    as error_value reports a run that hit the optimum, so easy functions
    carry exact ties at the floor.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(label,)))
    level = rng.uniform(-9.0, 4.0, size=n_fns)
    offset = rng.normal(0.0, 1.0, size=(len(ALGORITHMS), n_fns))
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["algorithm_id", "function_id", "seed", "best_error", "evals_used"])
        for a, alg in enumerate(ALGORITHMS):
            for f in range(n_fns):
                fid = f"test-{f:02d}-{families[f % len(families)]}"
                logs = level[f] + offset[a, f] + rng.normal(0.0, 0.5, size=runs)
                for r, x in enumerate(logs):
                    err = float(10.0 ** x) if x > -8.0 else 0.0
                    evals = 100_000 if err else POP_SIZE * int(rng.integers(1000, 5000))
                    wr.writerow([alg, fid, r, repr(err), evals])


# ---------------------------------------------------------------------------
# output checks

def digest(out: Path) -> str:
    """SHA-256 over every file under ``out``: relative path, then bytes.

    The benchmark never passes --timings, so no file holds a wallclock
    column and the whole tree is deterministic.
    """
    h = hashlib.sha256()
    for p in sorted(q for q in out.rglob("*") if q.is_file()):
        h.update(p.relative_to(out).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def check_suite(out: Path, size: Size) -> float:
    n = len(list(out.glob("*.fn")))
    _require(n == size.n_train + size.n_test, f"{out}: {n} instance files")
    return 1.0


def check_train(out: Path, size: Size) -> float:
    from ldectl.neural import WeightFileError, load_weights

    rows = _rows(out / "train_log.csv")
    _require(len(rows) == size.epochs * size.n_train,
             f"{out}: {len(rows)} log rows, want {size.epochs} x {size.n_train}")
    for row in rows:
        for col in ("mean_return", "return_std", "grad_norm"):
            _require(math.isfinite(float(row[col])), f"{out}: non-finite {col}")
    try:
        load_weights(out / "weights.bin")  # verifies the CRC
    except WeightFileError as exc:
        raise CheckFailed(str(exc)) from None
    return float(size.epochs)


def check_run(out: Path, size: Size, n_algs: int) -> float:
    """Returns generations run: sum of (evals_used - N) / N."""
    rows = _rows(out / "results.csv")
    _require(len(rows) == n_algs * size.runs, f"{out}: {len(rows)} result rows")
    gens = 0
    for row in rows:
        evals = int(row["evals_used"])
        _require(evals <= size.budget and evals % POP_SIZE == 0,
                 f"{out}: evals_used {evals} breaks budget {size.budget} or N {POP_SIZE}")
        gens += (evals - POP_SIZE) // POP_SIZE
        trace = _rows(out / "traces" /
                      f"{row['algorithm_id']}__{row['function_id']}__{int(row['seed']):02d}.csv")
        errs = [float(t["best_error"]) for t in trace]
        _require(all(b <= a for a, b in zip(errs, errs[1:])), f"{out}: trace increases")
        _require(errs[-1] == float(row["best_error"]), f"{out}: trace end != best_error")
    _require(gens > 0, f"{out}: no generations run")
    return float(gens)


def check_compare(out: Path) -> float:
    p = {}
    for row in _rows(out / "marks.csv"):
        v = float(row["p_value"])
        _require(0.0 < v <= 1.0, f"{out}: p-value {v} outside (0, 1]")
        p[(row["function_id"], row["algorithm_a"], row["algorithm_b"])] = v
    for (fid, a, b), v in p.items():
        _require(p.get((fid, b, a)) == v, f"{out}: p({a},{b}) != p({b},{a}) on {fid}")
    aps = _rows(out / "aps.csv")
    k = len(aps)
    for row in aps:
        v = float(row["aps"])
        _require(0.0 <= v <= k - 1, f"{out}: APS {v} outside [0, {k - 1}]")
    _require((out / "report.txt").stat().st_size > 0, f"{out}: empty report")
    return 1.0


# ---------------------------------------------------------------------------
# the op of each workload

def op_calls(workload: str, inputs: Path, work: Path, seed: int, size: Size) -> list:
    s = str(seed)
    if workload == "train-desk":
        suite, trained = work / "suite", work / "trained"
        make_suite = Call("suite", ["suite", "--seed", s, "--dim", str(size.dim),
                                    "--train", str(size.n_train), "--test", str(size.n_test),
                                    "--out", str(suite)], suite, lambda o: check_suite(o, size))
        train = Call("train", ["train", "--seed", s, "--suite", str(suite), "--jobs", "1",
                               "--epochs", str(size.epochs), "--rollouts", str(size.rollouts),
                               "--horizon", str(size.horizon), "--hidden", str(size.hidden),
                               "--pop-size", str(POP_SIZE), "--bins", "5", "--window", "5",
                               "--checkpoint-every", "0", "--out", str(trained)],
                     trained, lambda o: check_train(o, size))
        return [make_suite] * size.suite_calls + [train]
    if workload == "run-desk":
        # one function per call, lde and baselines in turn, so that both
        # calls of a function run close together in time
        calls = []
        for fdir in sorted((inputs / "test_fns").iterdir()):
            common = ["--seed", s, "--instances", str(fdir), "--role", "test",
                      "--runs", str(size.runs), "--budget", str(size.budget), "--jobs", "1"]
            lde, base = work / "lde" / fdir.name, work / "baselines" / fdir.name
            calls += [
                Call("run-lde", ["run", *common, "--algorithms", LDE,
                                 "--weights", str(inputs / "untrained" / "weights.bin"),
                                 "--out", str(lde)], lde, lambda o: check_run(o, size, 1)),
                Call("run-baselines", ["run", *common, "--algorithms", BASELINES,
                                       "--out", str(base)], base,
                     lambda o: check_run(o, size, 3)),
            ]
        return calls
    if workload == "compare":
        exact, normal = work / "cmp_exact", work / "cmp_normal"
        res = inputs / "results"
        normals = [Call("compare-normal", ["compare", "--results", str(res / "normal.csv"),
                                           "--ref", LDE, "--out", str(normal)],
                        normal, check_compare)] * size.normal_calls
        # the two paths take turns, so that both sample the whole op
        return [Call("compare-exact", ["compare", "--results", str(res / "exact.csv"),
                                       "--ref", LDE, "--out", str(exact)], exact, check_compare),
                *normals] * size.exact_calls
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("train-desk", "run-desk", "compare")

# end-to-end path A / path B of each workload: the call key timed, and the
# name the figure has in the printed table
PATHS = {
    "train-desk": (("train", "train_epoch_s", "s"), ("suite", "suite_call_s", "s")),
    "run-desk": (("run-lde", "run_lde_gens_per_s", "1/s"),
                 ("run-baselines", "run_baselines_gens_per_s", "1/s")),
    "compare": (("compare-exact", "compare_exact_s", "s"),
                ("compare-normal", "compare_normal_s", "s")),
}


def expected_rows(workload: str, size: Size, units: dict) -> int:
    """Objective evaluations one op must make, from its outputs.

    run: every run's evals_used, P0 included.  train: one shared P0
    evaluation per function and epoch, plus horizon x N per rollout.
    """
    if workload == "train-desk":
        return size.epochs * size.n_train * POP_SIZE * (1 + size.rollouts * size.horizon)
    if workload == "run-desk":
        runs = size.n_test * size.runs * len(ALGORITHMS)
        return int(sum(units.values())) * POP_SIZE + runs * POP_SIZE
    return 0
