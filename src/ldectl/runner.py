"""Run the learned optimizer or a fixed-parameter baseline to a budget.

Every run shares one harness: initialise uniformly, then loop full
generations until the next one would exceed the evaluation budget or
the best error value drops to the tolerance.  The learned optimizer runs
the trainer's own generation step (``trainer.ControllerStep``), so it
featurises and samples its parameters from N(mu, sigma^2) exactly as in
training (a deterministic mode clips the head means instead).

Baselines:

    de_rand1_fixed   DE/rand/1/bin, F = 0.5, CR = 0.8
    ctpb_fixed       current-to-pbest/1/bin, F = 0.5, CR = 0.9
    random_params    current-to-pbest/1/bin with per-individual
                     F ~ U(f_min, 1], CR ~ U[0, 1] resampled every
                     generation

``batch_experiment`` fans (algorithm, function, run) tasks over a
worker pool, but writes results in task order, so output files are
byte-identical for any worker count.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .benchfn import error_value
from .de_core import (
    ParamSheet,
    Population,
    batch_rows,
    binomial_crossover_batch,
    distinct_indices,
    draw_offsets,
    evolve,
    init_population,
    repair_bounds,
    select,
)
from .neural import ControllerWeights
from .policy import PolicyConfig
from .rng import stream
from .trainer import ControllerStep

BASELINES = ("de_rand1_fixed", "ctpb_fixed", "random_params")
LEARNED = "lde"


@dataclass
class Termination:
    max_evals: int
    error_tol: float = 1e-8

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")
        if self.error_tol < 0.0:
            raise ValueError("error_tol must be non-negative")


@dataclass
class RunConfig(PolicyConfig):
    """The controller spec plus how the learned optimizer is driven."""

    sample_actions: bool = True  # False: use the head means directly
    track_params: bool = False   # record per-tercile mean F / CR per generation


@dataclass
class RunResult:
    algorithm_id: str
    function_id: str
    seed: int                 # run index inside the batch's stream scheme
    best_error: float
    evals_used: int
    error_trace: list         # (evals, best_error), nonincreasing
    param_trace: Optional[list] = None  # (generation, tercile, mean_F, mean_CR)


def _tercile_rows(gen, order, sheet, out):
    groups = np.array_split(order, 3)
    for t, g in enumerate(groups):
        if len(g):
            out.append((gen, t, float(np.mean(sheet.F[0, g])), float(np.mean(sheet.CR[0, g]))))


def _drive(algorithm_id, objective, term: Termination, cfg: RunConfig, rng,
           gen_step, run_seed: int = 0) -> RunResult:
    """Shared budgeted loop over a batch of one; gen_step(pop, rngs) ->
    (new_pop, params), where params carries the generation's
    per-individual F and CR and rngs is [rng]."""
    if term.max_evals < cfg.pop_size:
        raise ValueError(
            f"budget {term.max_evals} cannot cover one evaluation of {cfg.pop_size} members"
        )
    pop = init_population(objective, cfg.pop_size, rng)
    evals = cfg.pop_size
    best = error_value(objective, float(pop.fitness.min()))
    trace = [(evals, best)]
    params = [] if cfg.track_params else None
    gen = 0
    rngs = [rng]
    while evals + cfg.pop_size <= term.max_evals and best > term.error_tol:
        if params is not None:  # terciles of the population the sheet acts on
            order = np.argsort(pop.fitness[0], kind="stable")
        pop, sheet = gen_step(pop, rngs)
        evals += cfg.pop_size
        gen += 1
        if params is not None:
            _tercile_rows(gen, order, sheet, params)
        b = error_value(objective, float(pop.fitness.min()))
        if b < best:
            best = b
            trace.append((evals, b))
    if trace[-1][0] != evals:
        trace.append((evals, best))
    return RunResult(algorithm_id, objective.id, run_seed, best, evals, trace, params)


def run_lde(w: ControllerWeights, objective, term: Termination, cfg: RunConfig,
            rng, run_seed: int = 0) -> RunResult:
    """Drive the learned controller on one function."""
    step = ControllerStep(w, cfg, sample=cfg.sample_actions)

    def gen_step(pop, rngs):
        pop, record = step(pop, objective, rngs)
        return pop, record.action

    return _drive(LEARNED, objective, term, cfg, rng, gen_step, run_seed)


def _mutate_rand1(pop: Population, F: float, rngs) -> np.ndarray:
    # v_i = x_r1 + F (x_r2 - x_r3), r1, r2, r3, i pairwise distinct
    B, N = pop.fitness.shape
    if N < 4:
        raise ValueError(f"population must hold at least 4 members, got {N}")
    X_r1, X_r2, X_r3 = pop.members[batch_rows(B), np.array(distinct_indices(
        draw_offsets(rngs, (N - 1, N - 2, N - 3), N)))]
    return X_r1 + F * (X_r2 - X_r3)


def run_baseline(kind: str, objective, term: Termination, cfg: RunConfig,
                 rng, run_seed: int = 0) -> RunResult:
    """Drive one of the fixed-parameter baselines."""
    n = cfg.pop_size

    if kind == "de_rand1_fixed":
        sheet = ParamSheet(np.full((1, n), 0.5), np.full((1, n), 0.8))

        def gen_step(pop, rngs):
            mutants = _mutate_rand1(pop, 0.5, rngs)
            trials = binomial_crossover_batch(pop.members, mutants, sheet.CR, rngs)
            trials = repair_bounds(trials, objective.bounds)
            return select(pop, trials, objective.evaluate_batch(trials[0])[None]), sheet

    elif kind == "ctpb_fixed":
        sheet = ParamSheet(np.full((1, n), 0.5), np.full((1, n), 0.9))

        def gen_step(pop, rngs):
            return evolve(pop, objective, sheet, cfg.p_best, rngs), sheet

    elif kind == "random_params":

        def gen_step(pop, rngs):
            rng, = rngs
            sheet = ParamSheet(rng.uniform(cfg.f_min, 1.0, size=(1, n)),
                               rng.uniform(0.0, 1.0, size=(1, n)))
            return evolve(pop, objective, sheet, cfg.p_best, rngs), sheet

    else:
        raise ValueError(f"unknown baseline {kind!r}; pick one of {BASELINES}")

    return _drive(kind, objective, term, cfg, rng, gen_step, run_seed)


def _run_task(payload):
    (alg, w, inst, term, cfg, master_seed, run_idx) = payload
    rng = stream(master_seed, "run", alg, inst.id, run_idx)
    if alg == LEARNED:
        return run_lde(w, inst, term, cfg, rng, run_seed=run_idx)
    return run_baseline(alg, inst, term, cfg, rng, run_seed=run_idx)


def _write_trace(out_dir: Path, res: RunResult) -> None:
    tdir = out_dir / "traces"
    tdir.mkdir(parents=True, exist_ok=True)
    stem = f"{res.algorithm_id}__{res.function_id}__{res.seed:02d}"
    with open(tdir / f"{stem}.csv", "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["evals", "best_error"])
        for evals, err in res.error_trace:
            wr.writerow([evals, repr(err)])
    if res.param_trace is not None:
        with open(tdir / f"{stem}__params.csv", "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["generation", "tercile", "mean_F", "mean_CR"])
            for gen, terc, mf, mcr in res.param_trace:
                wr.writerow([gen, terc, repr(mf), repr(mcr)])


def batch_experiment(algorithms, functions, runs: int, term: Termination,
                     cfg: RunConfig, master_seed: int,
                     weights: Optional[ControllerWeights] = None,
                     jobs: int = 1, out_dir=None) -> list:
    """Independent runs of each algorithm on each function.

    Results stream to ``out_dir/results.csv`` (plus per-run traces) in
    task order as they complete, so a crash preserves every finished
    row and re-runs are byte-identical regardless of ``jobs``.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    for alg in algorithms:
        if alg != LEARNED and alg not in BASELINES:
            raise ValueError(f"unknown algorithm {alg!r}")
        if alg == LEARNED and weights is None:
            raise ValueError("the learned optimizer needs weights")
    payloads = [
        (alg, weights if alg == LEARNED else None, fn, term, cfg, master_seed, r)
        for alg in algorithms for fn in functions for r in range(runs)
    ]

    out_path = Path(out_dir) if out_dir is not None else None
    results = []
    writer = None
    fh = None
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        if out_path is not None:
            out_path.mkdir(parents=True, exist_ok=True)
            fh = open(out_path / "results.csv", "w", newline="")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["algorithm_id", "function_id", "seed", "best_error", "evals_used"])
        done = (pool.map(_run_task, payloads, chunksize=1) if pool is not None
                else map(_run_task, payloads))
        for res in done:
            results.append(res)
            if writer is not None:
                writer.writerow([res.algorithm_id, res.function_id, res.seed,
                                 repr(res.best_error), res.evals_used])
                fh.flush()
                _write_trace(out_path, res)
    finally:
        if pool is not None:
            pool.shutdown()
        if fh is not None:
            fh.close()
    return results
