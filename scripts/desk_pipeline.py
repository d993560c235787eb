#!/usr/bin/env python3
"""End-to-end desk experiment: suite -> train -> run -> compare.

Drives the installed CLI so the pipeline exercised here is exactly the one
a user would type.  An option left out keeps the CLI's default; with every
default the pipeline finishes on one core in a few minutes.  See --help for
the knobs.
"""

import argparse
import sys
import time
from pathlib import Path

from ldectl.cli import main as cli


def sh(argv):
    """Run one CLI stage, then print its wallclock as "<stage> took <s>s"."""
    print(f"$ ldectl {' '.join(argv)}", flush=True)
    t0 = time.perf_counter()
    code = cli(argv)
    if code != 0:
        sys.exit(code)
    print(f"{argv[0]} took {time.perf_counter() - t0:.3f}s", flush=True)


def given(**flags) -> list:
    """--flag value for each flag whose value was given (is not None)."""
    return [arg for key, value in flags.items() if value is not None
            for arg in ("--" + key, str(value))]


def run(opts):
    out = Path(opts.out)
    suite_dir = out / "suite"
    trained = out / "trained"
    runs = out / "runs"
    cmp_dir = out / "comparison"
    t0 = time.perf_counter()

    sh(["suite", *given(seed=opts.seed, dim=opts.dim, train=opts.train_functions,
                        test=opts.test_functions), "--out", str(suite_dir)])
    sh(["train", *given(seed=opts.seed, epochs=opts.epochs, hidden=opts.hidden, jobs=opts.jobs),
        "--suite", str(suite_dir), "--out", str(trained)])
    sh(["run", *given(seed=opts.seed, runs=opts.runs, budget=opts.budget, jobs=opts.jobs),
        "--weights", str(trained / "weights.bin"), "--instances", str(suite_dir),
        "--role", "test", "--out", str(runs)])
    sh(["compare", "--results", str(runs / "results.csv"), "--ref", "lde",
        "--out", str(cmp_dir)])

    print(f"\nfinished in {time.perf_counter() - t0:.3f}s; "
          f"report at {cmp_dir / 'report.txt'}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--dim", type=int)
    ap.add_argument("--train-functions", type=int)
    ap.add_argument("--test-functions", type=int)
    ap.add_argument("--epochs", type=int)
    ap.add_argument("--hidden", type=int)
    ap.add_argument("--runs", type=int)
    ap.add_argument("--budget", type=int, help="evaluations per run")
    ap.add_argument("--jobs", type=int)
    ap.add_argument("--out", default="desk_out")
    return ap.parse_args(argv)


if __name__ == "__main__":
    run(parse_args())
