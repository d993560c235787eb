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

A function's L rollouts advance together as one batch: each generation
is one ``ControllerStep`` over all of them (the same step the runner
drives the trained controller with, there with a batch of one), with a
single stacked controller step and a single evaluation of the L * N
trials.  Backpropagation runs over the whole batch at once.  A worker
pool, when used, maps over the functions.

Randomness is addressed per purpose -- ("weights"), ("epoch", e,
"init"), ("epoch", e, "traj", k, l) -- and rollout l of function k draws
only from its own stream, so results are identical for any worker count
and batch layout, and training can resume from a checkpoint bit-exactly.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .benchfn import error_value
from .de_core import Population, evolve
from .errors import NumericFailure
from .neural import (
    FIELD_ORDER,
    ControllerWeights,
    backward_through_time,
    flatten_weights,
    forward_step,
    grad_norm,
    init_weights,
    sgd_ascent,
    weights_add_scaled,
    weights_rows,
    weights_zeros_like,
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
    n_functions: Optional[int] = None  # validated against the suite when set

    def __post_init__(self):
        super().__post_init__()
        if self.epochs < 0 or self.horizon < 0:
            raise ValueError("epochs and horizon must be non-negative")
        if self.rollouts < 1:
            raise ValueError("rollouts must be >= 1")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")
        if self.n_functions is not None and self.n_functions < 1:
            raise ValueError("n_functions must be >= 1 when set")


@dataclass
class StepRecord:
    """One generation of a batch: features, tape, action and head means,
    each with one row per rollout."""

    state: object
    tape: object
    action: object
    mu: np.ndarray


@dataclass
class RolloutBatch:
    """One function's rollouts from a shared start, advanced together.

    ``steps`` holds one StepRecord per generation; ``rewards`` has shape
    (B, horizon) and ``total_return`` shape (B,).
    """

    function_id: str
    steps: list
    rewards: np.ndarray
    total_return: np.ndarray

    @property
    def size(self) -> int:
        return len(self.rewards)


class ControllerStep:
    """One generation of the learned optimizer, for training and running alike.

    Holds the histogram ring and LSTM state of a batch of rollouts.  Each
    call featurises the population batch, steps the controller, draws the
    actions (or, with ``sample=False``, clips the head means) and evolves
    one generation; it returns the next population and the step's record.
    """

    def __init__(self, w: ControllerWeights, spec: PolicyConfig, batch: int = 1,
                 sample: bool = True):
        spec.check_weights(w)
        self.w = w
        self.spec = spec
        self.sample = sample
        self.ring = HistRing(spec.window)
        self.state = zero_state(w.hidden, batch)

    def __call__(self, pop: Population, objective, rngs):
        feat = assemble_state(pop, self.ring, self.spec.bins)
        mu, self.state, tape = forward_step(self.w, feat.as_vector, self.state)
        if self.sample:
            action = sample_action(mu, self.spec, rngs)
        else:
            action = clip_action(mu, self.spec)
        pop = evolve(pop, objective, action.sheet(), self.spec.p_best, rngs)
        return pop, StepRecord(feat, tape, action, mu)


def _best_errors(objective, pop: Population) -> np.ndarray:
    return np.array([error_value(objective, f) for f in pop.fitness.min(axis=1)])


def sample_trajectory(w: ControllerWeights, objective, pop0: Population,
                      cfg: TrainConfig, rngs) -> RolloutBatch:
    """Roll len(rngs) rollouts out together for cfg.horizon generations,
    each from the shared start pop0 (a batch of one) and drawing from its
    own generator."""
    if pop0.batch != 1:
        raise ValueError("the shared start population must be a batch of one")
    B = len(rngs)
    step = ControllerStep(w, cfg, batch=B)
    pop = Population(np.repeat(pop0.members, B, axis=0), np.repeat(pop0.fitness, B, axis=0))
    err_prev = _best_errors(objective, pop)
    rewards = np.empty((B, cfg.horizon))
    steps = []
    for t in range(cfg.horizon):
        pop, record = step(pop, objective, rngs)
        err_next = _best_errors(objective, pop)
        rewards[:, t] = reward(err_prev, err_next)
        steps.append(record)
        err_prev = err_next
    return RolloutBatch(objective.id, steps, rewards, trajectory_return(rewards))


def step_advantages(batch: RolloutBatch) -> np.ndarray:
    """Per-step advantages of one function's rollouts, shape (B, horizon).

    A_{i,t} = G_{i,t} - mean_{j != i} G_{j,t}, where G is the
    reward-to-go and j runs over the batch's other rollouts.  A batch of
    one keeps plain reward-to-go.
    """
    G = np.cumsum(batch.rewards[:, ::-1], axis=1)[:, ::-1]
    if batch.size > 1:
        G = G - (G.sum(axis=0) - G) / (batch.size - 1)
    return G


def epoch_gradient(w: ControllerWeights, batches, cfg: TrainConfig) -> ControllerWeights:
    """Average REINFORCE gradient over one epoch's rollout batches.

    Each batch holds one function's rollouts from one start population;
    its per-step advantages come from step_advantages and its rollouts
    are back-propagated together.  The per-rollout gradients are added
    in list order, so the result does not depend on how the rollouts
    were scheduled.
    """
    if not batches:
        raise ValueError("epoch_gradient needs at least one rollout batch")
    fids = [batch.function_id for batch in batches]
    if len(set(fids)) < len(fids):  # their baseline would not pool them
        raise ValueError("each function's rollouts must form one batch")
    acc = weights_zeros_like(w)
    count = 0
    for batch in batches:
        adv = step_advantages(batch)
        out_grads = [adv[:, t, None] * logprob_grad_mu(s.action, s.mu, cfg)
                     for t, s in enumerate(batch.steps)]
        grads = backward_through_time(w, [s.tape for s in batch.steps], out_grads)
        for g in weights_rows(grads):
            weights_add_scaled(acc, g, 1.0)
        count += batch.size
    for k in FIELD_ORDER:
        getattr(acc, k).__imul__(1.0 / count)
    return acc


def _rollout_task(payload):
    w, inst, members, cfg, epoch, k = payload
    pop0 = Population(members[None], inst.evaluate_batch(members)[None])  # one shared P0 eval
    rngs = [stream(cfg.seed, "epoch", epoch, "traj", k, l) for l in range(cfg.rollouts)]
    return sample_trajectory(w, inst, pop0, cfg, rngs)


def train(functions, cfg: TrainConfig, jobs: int = 1,
          weights: Optional[ControllerWeights] = None, start_epoch: int = 0,
          on_epoch: Optional[Callable] = None):
    """Train the controller; returns (weights, log_rows).

    ``functions`` is the training portfolio (equal dim and bounds).  Log
    rows are dicts, one per (epoch, function).  ``weights``/``start_epoch``
    resume from a checkpoint; because every epoch's streams are derived
    from (seed, epoch), a resumed run reproduces the uninterrupted one.
    Diverging weights raise NumericFailure carrying the last good state.
    """
    if not functions:
        raise ValueError("training needs at least one function")
    if cfg.n_functions is not None and cfg.n_functions != len(functions):
        raise ValueError(
            f"config expects {cfg.n_functions} functions, suite has {len(functions)}"
        )
    dim = functions[0].dim
    bounds = functions[0].bounds
    for f in functions:
        if f.dim != dim or f.bounds != bounds:
            raise ValueError("training functions must share dim and bounds")
    if not 0 <= start_epoch <= cfg.epochs:
        raise ValueError(f"start_epoch {start_epoch} outside [0, {cfg.epochs}]")

    w = weights if weights is not None else init_weights(
        cfg.hidden, cfg.input_size, cfg.pop_size, stream(cfg.seed, "weights"))

    log_rows = []
    lo, hi = bounds
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        for epoch in range(start_epoch, cfg.epochs):
            t0 = time.perf_counter()
            members = stream(cfg.seed, "epoch", epoch, "init").uniform(
                lo, hi, size=(cfg.pop_size, dim))
            payloads = [(w, f, members, cfg, epoch, k) for k, f in enumerate(functions)]
            if pool is not None:
                batches = list(pool.map(_rollout_task, payloads))
            else:
                batches = [_rollout_task(p) for p in payloads]

            grad = epoch_gradient(w, batches, cfg)
            gnorm = grad_norm(grad)
            new_w = sgd_ascent(w, grad, cfg.alpha)
            if not np.all(np.isfinite(flatten_weights(new_w))):
                raise NumericFailure(
                    f"weights diverged at epoch {epoch}",
                    last_good={"weights": w, "epochs_done": epoch, "log_rows": log_rows},
                )
            w = new_w

            ms = (time.perf_counter() - t0) * 1000.0
            epoch_rows = []
            for f, batch in zip(functions, batches):
                rets = batch.total_return
                epoch_rows.append({
                    "epoch": epoch,
                    "function_id": f.id,
                    "mean_return": float(np.mean(rets)),
                    "return_std": float(np.std(rets)),
                    "grad_norm": gnorm,
                    "wallclock_ms": ms,
                })
            log_rows.extend(epoch_rows)
            if on_epoch is not None:
                on_epoch(epoch, w, epoch_rows)
    finally:
        if pool is not None:
            pool.shutdown()
    return w, log_rows
