"""The run harness: drive the learned optimizer or a baseline to a budget.

Every run shares one harness: initialise uniformly, then loop full
generations until the next one would exceed the evaluation budget or
the best error value drops to the tolerance.  The learned optimizer runs
the trainer's own generation step (``trainer.ControllerStep``), so it
featurises and samples its parameters from N(mu, sigma^2) exactly as in
training (``RunConfig.deterministic`` clips the head means instead;
``param_traces`` records each fitness tercile's mean F and CR).

Baselines (each generation is ``de_core.evolve`` or ``evolve_rand1``):

    de_rand1_fixed   DE/rand/1/bin, F = 0.5, CR = 0.8
    ctpb_fixed       current-to-pbest/1/bin, F = 0.5, CR = 0.9
    random_params    current-to-pbest/1/bin with per-individual
                     F ~ U(f_min, 1], CR ~ U[0, 1] resampled every
                     generation

Every run takes its draws from one ``de_core.DrawSource``, a chunk of
up to ``de_core.CHUNK_GENERATIONS`` generations ahead, no more than the
budget allows, with the bits of one draw per generation (the learned
optimizer's through its ``ControllerStep``, normals first); a run that
stops at the tolerance part way through a chunk rewinds the rest.

``batch_experiment`` fans (algorithm, function, run) tasks out through
``trainer.worker_map``, the one place where work fans out, and writes
results in task order, so output files are byte-identical for any
worker count.  A ``results.csv`` row holds the ``RESULT_COLUMNS`` fields
of one ``RunResult``; csv writes each float as its shortest round-trip
repr.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .benchfn import error_value
from .de_core import (DrawSource, ParamSheet, evolve, evolve_rand1, init_population,
                      pbest_highs, rand1_highs)
from .neural import ControllerWeights
from .policy import PolicyConfig
from .rng import stream
from .trainer import ControllerStep, worker_map

BASELINES = ("de_rand1_fixed", "ctpb_fixed", "random_params")
LEARNED = "lde"
# the columns of results.csv: RunResult fields, in file order
RESULT_COLUMNS = ("algorithm_id", "function_id", "seed", "best_error", "evals_used")


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

    deterministic: bool = field(default=False,
                                metadata={"help": "use head means instead of sampling"})
    param_traces: bool = False  # record per-tercile mean F / CR per generation


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
           gen_step, draws: DrawSource, run_seed: int = 0) -> RunResult:
    """Shared budgeted loop over a batch of one; gen_step(pop) ->
    (new_pop, params), where params carries the generation's
    per-individual F and CR, drawn from ``draws``, which is rewound when
    the loop ends."""
    if term.max_evals < cfg.pop_size:
        raise ValueError(f"budget {term.max_evals} below one generation ({cfg.pop_size} evals)")
    pop = init_population(objective, cfg.pop_size, rng)
    evals = cfg.pop_size
    best = error_value(objective, float(pop.fitness.min()))
    trace = [(evals, best)]
    params = [] if cfg.param_traces else None
    gen = 0
    while evals + cfg.pop_size <= term.max_evals and best > term.error_tol:
        if params is not None:  # terciles of the population the sheet acts on
            order = np.argsort(pop.fitness[0], kind="stable")
        pop, sheet = gen_step(pop)
        evals += cfg.pop_size
        gen += 1
        if params is not None:
            _tercile_rows(gen, order, sheet, params)
        b = error_value(objective, float(np.minimum.reduce(pop.fitness, axis=None)))
        if b < best:
            best = b
            trace.append((evals, b))
    draws.rewind()
    if trace[-1][0] != evals:
        trace.append((evals, best))
    return RunResult(algorithm_id, objective.id, run_seed, best, evals, trace, params)


def run_lde(w: ControllerWeights, objective, term: Termination, cfg: RunConfig,
            rng, run_seed: int = 0) -> RunResult:
    """Drive the learned controller on one function."""
    step = ControllerStep(w, cfg, [rng], objective.dim, term.max_evals // cfg.pop_size - 1,
                          sample=not cfg.deterministic)

    def gen_step(pop):
        pop, record = step(pop, objective)
        return pop, record.action

    return _drive(LEARNED, objective, term, cfg, rng, gen_step, step.draws, run_seed)


def random_sheet(doubles, N: int, f_min: float) -> ParamSheet:
    """random_params' sheet from 2N uniforms from [0, 1), as numpy's
    ``uniform(f_min, 1.0)`` then ``uniform(0.0, 1.0)`` form it from the same
    doubles: low + (high - low) * double."""
    return ParamSheet(f_min + (1.0 - f_min) * doubles[:, :N], doubles[:, N:])


def run_baseline(kind: str, objective, term: Termination, cfg: RunConfig,
                 rng, run_seed: int = 0) -> RunResult:
    """Drive one of the fixed-parameter baselines, its draws a chunk of
    generations ahead (see the module notes)."""
    N, n = cfg.pop_size, objective.dim
    rngs, lead = [rng], 0  # lead: uniforms each generation draws before evolve's

    if kind == "de_rand1_fixed":
        sheet = ParamSheet(np.full((1, N), 0.5), np.full((1, N), 0.8))
        highs = rand1_highs(N, n)

        def step(pop, draws):
            return evolve_rand1(pop, objective, sheet, rngs, draws), sheet

    elif kind == "ctpb_fixed":
        sheet = ParamSheet(np.full((1, N), 0.5), np.full((1, N), 0.9))
        highs = pbest_highs(N, n, cfg.p_best)

        def step(pop, draws):
            return evolve(pop, objective, sheet, cfg.p_best, rngs, draws), sheet

    elif kind == "random_params":
        highs, lead = pbest_highs(N, n, cfg.p_best), 2 * N

        def step(pop, draws):
            doubles, *draws = draws
            sheet = random_sheet(doubles, N, cfg.f_min)
            return evolve(pop, objective, sheet, cfg.p_best, rngs, draws), sheet

    else:
        raise ValueError(f"unknown baseline {kind!r}; pick one of {BASELINES}")

    draws = DrawSource(rngs, highs, N, n, term.max_evals // N - 1, lead)
    return _drive(kind, objective, term, cfg, rng, lambda pop: step(pop, draws()), draws,
                  run_seed)


def _run_task(payload):
    (alg, w, inst, term, cfg, master_seed, run_idx) = payload
    rng = stream(master_seed, "run", alg, inst.id, run_idx)
    if alg == LEARNED:
        return run_lde(w, inst, term, cfg, rng, run_seed=run_idx)
    return run_baseline(alg, inst, term, cfg, rng, run_seed=run_idx)


def write_csv(path, header, rows) -> None:
    """A CSV file of a header and rows, \\n line ends."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(header)
        wr.writerows(rows)


def _write_trace(out_dir: Path, res: RunResult) -> None:
    tdir = out_dir / "traces"
    tdir.mkdir(parents=True, exist_ok=True)
    stem = f"{res.algorithm_id}__{res.function_id}__{res.seed:02d}"
    write_csv(tdir / f"{stem}.csv", ["evals", "best_error"], res.error_trace)
    if res.param_trace is not None:
        write_csv(tdir / f"{stem}__params.csv", ["generation", "tercile", "mean_F", "mean_CR"],
                  res.param_trace)


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
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if term.max_evals < cfg.pop_size:
        raise ValueError(f"budget {term.max_evals} below one generation ({cfg.pop_size} evals)")
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
    fh = None
    try:
        if out_path is not None:
            out_path.mkdir(parents=True, exist_ok=True)
            fh = open(out_path / "results.csv", "w", newline="")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RESULT_COLUMNS)
        with worker_map(jobs) as fan_out:
            for res in fan_out(_run_task, payloads):
                results.append(res)
                if fh is not None:
                    writer.writerow([getattr(res, c) for c in RESULT_COLUMNS])
                    fh.flush()
                    _write_trace(out_path, res)
    finally:
        if fh is not None:
            fh.close()
    return results
