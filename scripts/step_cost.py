#!/usr/bin/env python3
"""Measure the cost of one generation step, stage by stage.

At desk scale (dim 10, N 20, H 32, b 5, g 5; untrained weights seeded as
``train --epochs 0`` seeds them) the script warms a batch up for some
generations, then times each stage of the generation step in-process:
``assemble_state``, ``forward_step``, the draw (``de_core.DrawSource``:
the action's normals and evolve's integers and uniforms, turned into
member indices and a crossover sheet), ``sample_action``, ``evolve`` with
those draws and its parts (mutation, crossover, repair, evaluation,
selection), the whole ``ControllerStep`` call and, at a batch of one,
``run_lde`` and ``run_baseline`` (de_rand1_fixed, ctpb_fixed and
random_params) per generation.  The draw and the step take a chunk of
max(1, ``CHUNK_GENERATIONS`` // B) generations per timed call, as a run
(64) or a desk epoch (1) takes them, and report per generation.  At the
large batch it also times ``epoch_gradient`` (the backward pass with its
output gradients) over one epoch's K * L rollouts of ``--warmup``
generations.  Stages are timed round-robin, one call each per round, and
the median over the rounds is reported in microseconds, so a slow spell
of the host hits every stage alike.  It also counts the Python-level
calls (cProfile's count, functions and builtins alike) one call of each
stage makes, per generation.

It reports a batch of one (a run) and a batch of K * L rows (a training
epoch's cross-function batch).  Run with ``PYTHONPATH=src``:

    python3 scripts/step_cost.py --rounds 400
"""

import argparse
import cProfile
import pstats
import statistics
import time

import numpy as np

from ldectl import de_core
from ldectl.benchfn import make_suite
from ldectl.neural import forward_step, init_weights
from ldectl.policy import sample_action
from ldectl.rng import stream
from ldectl.runner import RunConfig, Termination, run_baseline, run_lde
from ldectl.state_feat import assemble_state
from ldectl.trainer import (ControllerStep, FunctionBlocks, TrainConfig, epoch_gradient,
                            sample_trajectory)


BASELINE_ROWS = ("de_rand1_fixed", "ctpb_fixed", "random_params")
NAME_WIDTH = 40  # the stage column


def _calls(fn) -> int:
    """Python-level calls (cProfile's count, C functions included) that one
    ``fn()`` makes, the zero-argument wrapper itself excluded."""
    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    return pstats.Stats(prof).total_calls - 2  # less the lambda and disable()


def stages(functions, rollouts: int, cfg: RunConfig, w, seed: int, warmup: int):
    """(name -> zero-argument call of that stage, name -> generations one
    call covers), on a batch of len(functions) * rollouts rows warmed up
    for ``warmup`` generations."""
    B = len(functions) * rollouts
    objective = functions[0] if B == 1 else FunctionBlocks(functions, rollouts)
    rngs = [stream(seed, "step_cost", b) for b in range(B)]
    start = de_core.init_population(functions[0], cfg.pop_size, rngs[0])
    pop = de_core.Population(start.members.repeat(B, axis=0), start.fitness.repeat(B, axis=0))
    pop.fitness[:] = objective.evaluate_batch(pop.members.reshape(B * cfg.pop_size, -1)
                                              ).reshape(B, cfg.pop_size)
    N, n, p = cfg.pop_size, pop.members.shape[2], cfg.p_best
    step = ControllerStep(w, cfg, rngs, n, 10 ** 9)
    for _ in range(warmup):
        pop, record = step(pop, objective)

    # a chunk's generations per call: the draw and the step are timed over
    # whole chunks, as a run or an epoch takes them
    chunk = max(1, de_core.CHUNK_GENERATIONS // B)
    x, mu, sheet = record.tape.z[:, w.hidden:], record.mu, record.action
    source = de_core.DrawSource(rngs, de_core.pbest_highs(N, n, p), N, n, 10 ** 9, normals=2 * N)
    z, *draws = source()
    pbest, members, forced, u = draws
    mutants = de_core.mutate_current_to_pbest(pop, sheet, p, pbest, members)
    trials = de_core.binomial_crossover_batch(pop.members, mutants, sheet.CR, forced, u)
    trials = de_core.repair_bounds(trials, objective.bounds)
    fitness = objective.evaluate_batch(trials.reshape(B * N, n)).reshape(B, N)
    calls = {
        "assemble_state": lambda: assemble_state(pop, step.ring, cfg.bins),
        "forward_step": lambda: forward_step(w, x, step.state),
        "draw / generation": lambda: [source() for _ in range(chunk)],
        "sample_action": lambda: sample_action(mu, cfg, z),
        "evolve": lambda: de_core.evolve(pop, objective, sheet, p, rngs, draws),
        "  mutate_current_to_pbest":
            lambda: de_core.mutate_current_to_pbest(pop, sheet, p, pbest, members),
        "  binomial_crossover_batch":
            lambda: de_core.binomial_crossover_batch(pop.members, mutants, sheet.CR, forced, u),
        "  repair_bounds": lambda: de_core.repair_bounds(trials, objective.bounds),
        "  evaluate_batch": lambda: objective.evaluate_batch(trials.reshape(B * N, n)),
        "  select": lambda: de_core.select(pop, trials, fitness),
        "ControllerStep / generation": lambda: [step(pop, objective) for _ in range(chunk)],
    }
    per_call = {name: chunk for name in calls if name.endswith("/ generation")}
    if B == 1:
        budget = (warmup + 1) * N
        run_rng = stream(seed, "step_cost", "run")
        term = Termination(budget, error_tol=0.0)
        calls["run_lde / generation"] = lambda: run_lde(w, functions[0], term, cfg, run_rng)
        for kind in BASELINE_ROWS:
            calls[f"run_baseline {kind} / generation"] = (
                lambda kind=kind: run_baseline(kind, functions[0], term, cfg, run_rng))
        per_call.update(dict.fromkeys([name for name in calls if name.startswith("run_")],
                                      warmup))
    else:
        tcfg = TrainConfig(**cfg.spec_dict(), rollouts=rollouts, horizon=warmup, hidden=w.hidden)
        pop0 = de_core.Population(start.members.repeat(len(functions), axis=0),
                                  np.array([f.evaluate_batch(start.members[0]) for f in functions]))
        batch = sample_trajectory(w, functions, pop0, tcfg,
                                  [stream(seed, "step_cost", "epoch", b) for b in range(B)])
        calls["epoch_gradient"] = lambda: epoch_gradient(w, [batch], tcfg)
    return calls, per_call


def measure(calls: dict, rounds: int, per_call: dict) -> dict:
    """name -> median microseconds per generation over ``rounds`` rounds."""
    times = {name: [] for name in calls}
    for _ in range(rounds):
        for name, fn in calls.items():
            t0 = time.perf_counter_ns()
            fn()
            times[name].append((time.perf_counter_ns() - t0) / per_call.get(name, 1))
    return {name: statistics.median(t) / 1e3 for name, t in times.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=10)
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--functions", type=int, default=6, help="K of the large batch")
    ap.add_argument("--rollouts", type=int, default=10, help="L of the large batch")
    ap.add_argument("--warmup", type=int, default=30, help="generations before timing")
    ap.add_argument("--rounds", type=int, default=200, help="timed calls per stage")
    ap.add_argument("--seed", type=int, default=0)
    opts = ap.parse_args(argv)

    cfg = RunConfig()
    w = init_weights(opts.hidden, cfg.input_size, cfg.pop_size, stream(opts.seed, "weights"))
    functions = make_suite(opts.seed, opts.dim, opts.functions, 0).train
    batches = {1: stages(functions[:1], 1, cfg, w, opts.seed, opts.warmup),
               opts.functions * opts.rollouts:
                   stages(functions, opts.rollouts, cfg, w, opts.seed, opts.warmup)}
    print(f"dim {opts.dim} N {cfg.pop_size} H {opts.hidden} seed {opts.seed} "
          f"rounds {opts.rounds}")
    columns = []
    for B, (calls, per_call) in batches.items():
        counts = {name: _calls(fn) // per_call.get(name, 1) for name, fn in calls.items()}
        # the stages that take whole chunks get their own rounds: their chunk
        # buffers, between the other stages, would evict those stages' arrays
        # from the caches
        chunked = {name: fn for name, fn in calls.items() if name in per_call}
        rest = {name: fn for name, fn in calls.items() if name not in chunked}
        columns.append(({**measure(rest, opts.rounds, per_call),
                         **measure(chunked, opts.rounds, per_call)}, counts))
    head = "".join(f"{f'B={B} us':>12}{'calls':>7}" for B in batches)
    print(f"{'stage':<{NAME_WIDTH}}{head}")
    for name in dict.fromkeys(name for calls, _ in batches.values() for name in calls):
        cells = "".join(f"{us[name]:>12.1f}{counts[name]:>7}" if name in us
                        else f"{'-':>12}{'-':>7}" for us, counts in columns)
        print(f"{name:<{NAME_WIDTH}}{cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
