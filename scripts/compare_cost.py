#!/usr/bin/env python3
"""Measure the cost of one ``compare`` call, stage by stage.

The script writes a seeded results.csv (per-function levels and
per-algorithm offsets on a log10 scale, errors below 1e-8 written as
exactly 0.0, as ``run`` reports a solved run), then times in-process the
stages of ``ldectl compare --out``: reading and grouping the file
(``parse``), ``stats.build_comparison`` with the exact null counts
already cached (``table``) and with the cache cleared first
(``table_cold``, what a one-shot ``ldectl compare`` pays), one warm
``stats.ranksum_test`` on the first function's first two algorithms
(``ranksum``: the exact path at ``--runs`` <= 10, the normal path
above), ``stats.render_report`` (``render``), writing the four output files
(``write``) and the whole ``cli.main`` call (``compare``).  Stages are
timed round-robin, one call each per round, and the median over the
rounds is reported in microseconds, so a slow spell of the host hits
every stage alike.  The defaults are the paper's scale: 51 runs per
pair, which takes the normal path; ``--runs 7`` takes the exact one.
Run with ``PYTHONPATH=src``:

    python3 scripts/compare_cost.py --rounds 100
"""

import argparse
import contextlib
import csv
import io
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from ldectl import cli, stats


def write_results(path: Path, seed: int, functions: int, algorithms: int, runs: int) -> None:
    rng = np.random.default_rng(seed)
    level = rng.uniform(-9.0, 4.0, functions)
    offset = rng.normal(0.0, 1.0, (algorithms, functions))
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["algorithm_id", "function_id", "seed", "best_error", "evals_used"])
        for a in range(algorithms):
            for f in range(functions):
                logs = level[f] + offset[a, f] + rng.normal(0.0, 0.5, runs)
                wr.writerows([f"alg-{a}", f"fn-{f:02d}", r,
                              repr(float(10.0 ** x) if x > -8.0 else 0.0), 100]
                             for r, x in enumerate(logs))


def stages(path: Path, out: Path) -> dict:
    """name -> zero-argument call of that stage of one compare call."""
    samples, algorithms = cli._read_results(str(path))
    first = samples[next(iter(samples))]
    pair = first[algorithms[0]], first[algorithms[1]]
    table = stats.build_comparison(samples, algorithms=algorithms)
    report = stats.render_report(table)
    argv = ["compare", "--results", str(path), "--out", str(out / "main")]

    def whole():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    def table_cold():
        stats._null_counts.cache_clear()
        stats.build_comparison(samples, algorithms=algorithms)

    return {
        "parse": lambda: cli._read_results(str(path)),
        "table": lambda: stats.build_comparison(samples, algorithms=algorithms),
        "table_cold": table_cold,
        "ranksum": lambda: stats.ranksum_test(*pair),
        "render": lambda: stats.render_report(table),
        "write": lambda: cli._write_comparison(out / "stages", table, report),
        "compare": whole,
    }


def measure(calls: dict, rounds: int) -> dict:
    """name -> median microseconds per call over ``rounds`` rounds."""
    times = {name: [] for name in calls}
    for _ in range(rounds):
        for name, fn in calls.items():
            t0 = time.perf_counter_ns()
            fn()
            times[name].append(time.perf_counter_ns() - t0)
    return {name: statistics.median(t) / 1e3 for name, t in times.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--functions", type=int, default=32)
    ap.add_argument("--algorithms", type=int, default=4)
    ap.add_argument("--runs", type=int, default=51, help="runs per (function, algorithm)")
    ap.add_argument("--rounds", type=int, default=50, help="timed calls per stage")
    ap.add_argument("--seed", type=int, default=0)
    opts = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        write_results(path, opts.seed, opts.functions, opts.algorithms, opts.runs)
        calls = stages(path, Path(tmp))
        for fn in calls.values():  # warm-up: lazy imports, the parser, the page cache
            fn()
        us = measure(calls, opts.rounds)
    print(f"functions {opts.functions} algorithms {opts.algorithms} runs {opts.runs} "
          f"seed {opts.seed} rounds {opts.rounds}")
    print(f"{'stage':<10}{'us':>12}")
    for name, value in us.items():
        print(f"{name:<10}{value:>12.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
