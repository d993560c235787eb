#!/usr/bin/env python3
"""Acceptance criterion 4's protocol, seed by seed.

For each ``--seeds`` value s the script builds the desk suite (seed s,
dim 10, 6 training and 8 held-out functions), trains the desk controller
(``TrainConfig(seed=s)``: 60 epochs, 10 rollouts, horizon 30, H 32) or
loads ``--weights``, then runs the learned optimizer and random_params
11 times on each held-out function at a budget of dim * 10^4
evaluations, through ``runner.batch_experiment`` with master seed s and
``--jobs`` workers, as criterion 4 does at seed 0.  It prints each
function's median best error for both algorithms and the criterion's
wins/ties line: a tie is both medians at or below the 1e-8 tolerance, a
win a lower learned median that is not a tie; the criterion needs 5
wins.  Run with ``PYTHONPATH=src``:

    python3 scripts/heldout.py --seeds 0 5 6 7 8 9 --jobs 2
"""

import argparse
import time

import numpy as np

from ldectl import neural
from ldectl.benchfn import make_suite
from ldectl.runner import LEARNED, RunConfig, Termination, batch_experiment
from ldectl.trainer import TrainConfig, train

RIVAL = "random_params"


def medians(seed: int, args, loaded=None) -> list:
    """(function id, learned median, random_params median) per held-out
    function of seed's suite, in suite order; ``loaded`` is (weights,
    manifest) as ``neural.load_weights`` returns them, else the desk
    controller is trained on seed's suite."""
    suite = make_suite(seed, args.dim, args.train, args.test)
    if loaded is None:
        cfg = RunConfig()
        weights = train(suite.train, TrainConfig(seed=seed))
    else:
        weights, manifest = loaded
        cfg = RunConfig(**manifest["spec"])
    budget = args.budget or args.dim * 10_000
    errors = {}
    for res in batch_experiment([LEARNED, RIVAL], suite.test, args.runs, Termination(budget),
                                cfg, seed, weights=weights, jobs=args.jobs):
        errors.setdefault((res.algorithm_id, res.function_id), []).append(res.best_error)
    return [(f.id, *(float(np.median(errors[alg, f.id])) for alg in (LEARNED, RIVAL)))
            for f in suite.test]


def tally(rows, tol: float = Termination(1).error_tol) -> tuple:
    """(wins, ties) of the learned optimizer over ``medians`` rows."""
    ties = sum(max(lm, rm) <= tol for _, lm, rm in rows)
    wins = sum(lm < rm and max(lm, rm) > tol for _, lm, rm in rows)
    return wins, ties


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--weights", help="a weights.bin to run instead of training each seed's")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--dim", type=int, default=10)
    ap.add_argument("--train", type=int, default=6, help="training functions")
    ap.add_argument("--test", type=int, default=8, help="held-out functions")
    ap.add_argument("--runs", type=int, default=11)
    ap.add_argument("--budget", type=int, help="evaluations per run (default dim * 10^4)")
    args = ap.parse_args(argv)
    loaded = neural.load_weights(args.weights) if args.weights else None
    for seed in args.seeds:
        t0 = time.perf_counter()
        rows = medians(seed, args, loaded)
        print(f"seed {seed}")
        print(f"  {'function':28s} {LEARNED:>10s} {RIVAL:>14s}")
        for fid, lm, rm in rows:
            print(f"  {fid:28s} {lm:10.3e} {rm:14.3e}")
        wins, ties = tally(rows)
        print(f"  {wins}/{len(rows)} wins, {ties} ties (criterion 4 needs 5 wins); "
              f"{time.perf_counter() - t0:.0f}s", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
