"""Policy-gradient training of the controller over a function portfolio.

Each epoch draws one shared random population, evaluates it on every
training function, rolls out L trajectories per function from that
common start (fresh zero controller state each time), and applies a
single averaged REINFORCE ascent step.  Step t's log-density gradient
is scaled by its advantage: the reward-to-go from t (Williams 1992)
minus the mean reward-to-go at t of the function's other L - 1
rollouts, a leave-one-out per-step baseline (Greensmith, Bartlett &
Baxter 2004).  The other rollouts share only the start population with
this one, never its actions, so the baseline leaves the expected
gradient unchanged.  With L = 1 there is nothing to leave out and the
advantage is the plain reward-to-go.  The scaled gradients are chained
through the recurrence by full backpropagation through time.

All of an epoch's rollouts advance together as one batch: each
generation is one ``ControllerStep`` over the K * L rows (the same step
the runner drives the trained controller with, there with a batch of
one), with a single stacked controller step and a single ``evolve``; its
draws come a chunk of generations ahead, as many as
``de_core.CHUNK_ROW_GENERATIONS`` row-generations allow (8 at desk size,
K * L = 60, so a 30-generation horizon draws chunks of 8, 8, 8 and 6).
Rows are function-major, so function k owns the L consecutive rows from
k * L on, and each function evaluates only its own L * N trials, in one
call per generation.  Backpropagation runs once per batch, one time
loop over all its rows, and forms the weight gradients one function's
rows at a time.  With more than one job, the functions are split into
contiguous groups, one batch per worker process; ``worker_map`` is the
one place where work fans out, here and in the runner.

Randomness is addressed per purpose -- ("weights"), ("epoch", e,
"init"), ("epoch", e, "traj", k, l) -- and rollout l of function k draws
only from its own stream, so results are identical for any worker count
and batch layout, and training can resume from a checkpoint bit-exactly.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .benchfn import error_value
from .de_core import DrawSource, Population, evolve, pbest_highs
from .errors import NumericFailure
from .neural import (
    ControllerWeights,
    backward_through_time,
    forward_step,
    grad_norm,
    init_weights,
    sgd_ascent,
    zero_state,
)
from .policy import (
    PolicyConfig,
    clip_action,
    logprob_grad_mu,
    reward,
    sample_action,
    trajectory_return,
)
from .rng import stream
from .state_feat import HistRing, assemble_state


@dataclass
class TrainConfig(PolicyConfig):
    """The controller spec plus the training budget and step size."""

    epochs: int = 60
    rollouts: int = 10       # trajectories per function per epoch
    horizon: int = 30        # generations per trajectory
    hidden: int = 32
    alpha: float = 0.2       # tuned on the paired return of seeds 5-9; see README
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.epochs < 0 or self.horizon < 0:
            raise ValueError("epochs and horizon must be non-negative")
        if self.rollouts < 1:
            raise ValueError("rollouts must be >= 1")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be non-negative and finite, got {self.alpha}")


@dataclass
class StepRecord:
    """One generation of a batch: the controller's tape (``z[:, H:]`` holds
    its (B, N + 2b) input), action and head means, one row per rollout."""

    tape: object
    action: object
    mu: np.ndarray


@dataclass
class RolloutBatch:
    """The rollouts of one or more functions, advanced together.

    Rows are function-major: ``function_ids[k]`` owns the ``rollouts``
    consecutive rows from k * rollouts on, all started from that
    function's shared start.  ``steps`` holds one StepRecord per
    generation; ``rewards`` has shape (B, horizon) and ``total_return``
    shape (B,).
    """

    function_ids: list
    steps: list
    rewards: np.ndarray
    total_return: np.ndarray

    @property
    def size(self) -> int:
        return len(self.rewards)

    @property
    def rollouts(self) -> int:
        """Rollouts per function, L."""
        return self.size // len(self.function_ids)

    def rows(self, k: int) -> slice:
        """The batch rows of function k."""
        return slice(k * self.rollouts, (k + 1) * self.rollouts)


class ControllerStep:
    """One generation of the learned optimizer, for training and running alike.

    Holds the histogram ring, the LSTM state and the draw source of a
    batch of rollouts, one generator per row in ``rngs``, on functions of
    dimension ``dim``; ``generations`` is the most the caller will take,
    which bounds the chunks drawn ahead (``de_core.DrawSource``).  Each
    call featurises the population batch, steps the controller, draws the
    actions (or, with ``sample=False``, clips the head means) and evolves
    one generation with the rest of that generation's draws; it returns
    the next population and the step's record.
    """

    def __init__(self, w: ControllerWeights, spec: PolicyConfig, rngs, dim: int,
                 generations: int, sample: bool = True):
        spec.check_weights(w)
        self.w = w
        self.spec = spec
        self.sample = sample
        self.ring = HistRing(spec.window)
        self.state = zero_state(w.hidden, len(rngs))
        N = spec.pop_size
        self.draws = DrawSource(rngs, pbest_highs(N, dim, spec.p_best), N, dim, generations,
                                normals=2 * N if sample else 0)

    def __call__(self, pop: Population, objective):
        x = assemble_state(pop, self.ring, self.spec.bins)
        mu, self.state, tape = forward_step(self.w, x, self.state)
        draws = self.draws()  # the action's normals first, when sampling
        action = (sample_action(mu, self.spec, draws.pop(0)) if self.sample
                  else clip_action(mu, self.spec))
        pop = evolve(pop, objective, action, self.spec.p_best, draws)
        return pop, StepRecord(tape, action, mu)


class FunctionBlocks:
    """The objective of a cross-function batch.

    Function k owns the ``rows`` consecutive batch rows from k * rows on.
    ``evaluate_batch`` takes the trials of every row, member-major within
    a row, and hands each function the trials of its own rows in one
    call; ``f_star`` holds each row's optimum value.
    """

    def __init__(self, functions, rows: int):
        self.functions = list(functions)
        self.rows = rows
        self.bounds = self.functions[0].bounds
        self.f_star = np.repeat([f.f_star for f in self.functions], rows)

    def evaluate_batch(self, X) -> np.ndarray:
        m = len(X) // len(self.functions)
        return np.concatenate([f.evaluate_batch(X[k * m:(k + 1) * m])
                               for k, f in enumerate(self.functions)])


def _best_errors(objective: FunctionBlocks, pop: Population) -> np.ndarray:
    """error_value of each row's best fitness against its own function,
    over all rows at once."""
    best = pop.fitness.min(axis=1)
    err = best - objective.f_star
    undercut = err <= -1e-12
    if undercut.any():  # error_value raises, naming the first such row's function
        b = undercut.argmax()
        error_value(objective.functions[b // objective.rows], best[b])
    return np.where(err < 0.0, 0.0, err)


def sample_trajectory(w: ControllerWeights, functions, pop0: Population,
                      cfg: TrainConfig, rngs) -> RolloutBatch:
    """Roll the rollouts of every function out together for cfg.horizon
    generations.

    Row k of pop0 is the shared start on functions[k].  ``rngs`` holds
    one generator per rollout, the same number for every function,
    function-major; each rollout draws from its own generator alone.
    """
    K = len(functions)
    if len(pop0.fitness) != K:
        raise ValueError(f"need one start population per function: {len(pop0.fitness)} for {K}")
    if not rngs or len(rngs) % K:
        raise ValueError(f"{len(rngs)} generators do not split evenly over {K} functions")
    L = len(rngs) // K
    objective = FunctionBlocks(functions, L)
    step = ControllerStep(w, cfg, rngs, pop0.members.shape[2], cfg.horizon)
    pop = Population(np.repeat(pop0.members, L, axis=0), np.repeat(pop0.fitness, L, axis=0))
    err_prev = _best_errors(objective, pop)
    rewards = np.empty((K * L, cfg.horizon))
    steps = []
    for t in range(cfg.horizon):
        pop, record = step(pop, objective)
        err_next = _best_errors(objective, pop)
        rewards[:, t] = reward(err_prev, err_next)
        steps.append(record)
        err_prev = err_next
    return RolloutBatch([f.id for f in functions], steps, rewards, trajectory_return(rewards))


def step_advantages(batch: RolloutBatch) -> np.ndarray:
    """Per-step advantages of a batch's rollouts, shape (B, horizon).

    A_{i,t} = G_{i,t} - mean_{j != i} G_{j,t}, where G is the
    reward-to-go and j runs over the other rollouts of row i's function.
    A function with one rollout keeps plain reward-to-go.
    """
    G = np.cumsum(batch.rewards[:, ::-1], axis=1)[:, ::-1]
    L = batch.rollouts
    if L > 1:
        K, T = len(batch.function_ids), G.shape[1]
        G = G.reshape(K, L, T)
        G = (G - (G.sum(axis=1, keepdims=True) - G) / (L - 1)).reshape(K * L, T)
    return G


def epoch_gradient(w: ControllerWeights, batches, cfg: TrainConfig) -> ControllerWeights:
    """Average REINFORCE gradient over one epoch's rollout batches.

    Per-step advantages come from step_advantages.  Each batch's rollouts
    are back-propagated together in one time loop; their weight
    gradients are formed one function's rows at a time and added into
    one vector row by row, in list order, so the result does not depend
    on how the functions were grouped into batches.
    """
    if not batches:
        raise ValueError("epoch_gradient needs at least one rollout batch")
    fids = [fid for batch in batches for fid in batch.function_ids]
    if len(set(fids)) < len(fids):  # their baseline would not pool them
        raise ValueError("each function's rollouts must form one batch")
    acc = np.zeros_like(w.theta)
    count = 0
    for batch in batches:
        adv = step_advantages(batch)
        out_grads = [adv[:, t, None] * logprob_grad_mu(s.action, s.mu, cfg)
                     for t, s in enumerate(batch.steps)]
        backward_through_time(w, [s.tape for s in batch.steps], out_grads,
                              block=batch.rollouts, acc=acc)
        count += batch.size
    acc *= 1.0 / count
    return w.like(acc)


def _rollout_task(payload):
    w, functions, members, cfg, epoch, k0 = payload
    # one shared P0 evaluation per function
    pop0 = Population(np.repeat(members[None], len(functions), axis=0),
                      np.array([f.evaluate_batch(members) for f in functions]))
    rngs = [stream(cfg.seed, "epoch", epoch, "traj", k0 + k, l)
            for k in range(len(functions)) for l in range(cfg.rollouts)]
    return sample_trajectory(w, functions, pop0, cfg, rngs)


def _groups(functions, jobs: int) -> list:
    """min(jobs, K) contiguous groups of the functions, as even as possible,
    each as (index of its first function, its functions)."""
    K = len(functions)
    n = min(jobs, K)
    cuts = [K * g // n for g in range(n + 1)]
    return [(a, functions[a:b]) for a, b in zip(cuts, cuts[1:])]


@contextmanager
def worker_map(jobs: int):
    """An ordered map over ``jobs`` workers: the builtin map for one job,
    else a process pool's map, one task at a time, shut down on exit."""
    if jobs == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield functools.partial(pool.map, chunksize=1)


# The columns of train_log.csv, one per key of a log row; the CLI writes
# wallclock_ms only with --timings.
LOG_COLUMNS = ("epoch", "function_id", "mean_return", "return_std", "grad_norm", "wallclock_ms")


def check_inputs(functions, cfg: TrainConfig, jobs: int = 1, start_epoch: int = 0) -> None:
    """Refuse what train cannot start from: no functions, mixed dims or bounds,
    a start_epoch outside [0, epochs] (only epochs may grow) or jobs below 1."""
    if not functions:
        raise ValueError("training needs at least one function")
    dim, bounds = functions[0].dim, functions[0].bounds
    if any(f.dim != dim or f.bounds != bounds for f in functions):
        raise ValueError("training functions must share dim and bounds")
    if not 0 <= start_epoch <= cfg.epochs:
        raise ValueError(f"cannot resume after {start_epoch} epochs with epochs = {cfg.epochs}: "
                         "only epochs may grow")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def train(functions, cfg: TrainConfig, jobs: int = 1,
          weights: Optional[ControllerWeights] = None, start_epoch: int = 0,
          on_epoch: Optional[Callable] = None) -> ControllerWeights:
    """Train the controller; returns the weights.

    ``functions`` is the training portfolio, checked by ``check_inputs``.
    After each epoch, ``on_epoch(epoch, weights, rows)`` gets that epoch's
    log rows: dicts keyed by ``LOG_COLUMNS``, one per function.
    ``weights``/``start_epoch`` resume from a checkpoint; because every
    epoch's streams are derived from (seed, epoch), a resumed run
    reproduces the uninterrupted one.  Diverging weights raise
    NumericFailure carrying the last good state.
    """
    check_inputs(functions, cfg, jobs, start_epoch)
    w = weights if weights is not None else init_weights(
        cfg.hidden, cfg.input_size, cfg.pop_size, stream(cfg.seed, "weights"))

    lo, hi = functions[0].bounds
    groups = _groups(list(functions), jobs)
    with worker_map(len(groups)) as fan_out:
        for epoch in range(start_epoch, cfg.epochs):
            t0 = time.perf_counter()
            members = stream(cfg.seed, "epoch", epoch, "init").uniform(
                lo, hi, size=(cfg.pop_size, functions[0].dim))
            payloads = [(w, group, members, cfg, epoch, k0) for k0, group in groups]
            batches = list(fan_out(_rollout_task, payloads))

            grad = epoch_gradient(w, batches, cfg)
            gnorm = grad_norm(grad)
            new_w = sgd_ascent(w, grad, cfg.alpha)
            if not np.all(np.isfinite(new_w.theta)):
                raise NumericFailure(
                    f"weights diverged at epoch {epoch}",
                    last_good={"weights": w, "epochs_done": epoch},
                )
            w = new_w

            ms = (time.perf_counter() - t0) * 1000.0
            if on_epoch is not None:
                rows = []
                for batch in batches:
                    for k, fid in enumerate(batch.function_ids):
                        rets = batch.total_return[batch.rows(k)]
                        rows.append(dict(zip(LOG_COLUMNS, (
                            epoch, fid, float(np.mean(rets)), float(np.std(rets)), gnorm, ms))))
                on_epoch(epoch, w, rows)
    return w
