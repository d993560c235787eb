"""Differential-evolution operators: current-to-pbest/1 mutation, binomial
crossover, clamp repair, and elitist one-to-one selection.

Every operator acts on a batch of B independent populations at once: a
``Population`` holds members of shape (B, N, n), and the learned
optimizer advances one function's rollouts as one batch (a run is a
batch of one).  Only the arithmetic is batched.  Randomness comes from
one generator per batch row (``rngs``), and each row draws from its own
generator in a fixed order, so a row's result does not depend on which
rows share its batch.

All operators are pure (inputs never mutated).  Draw order is part of
the contract; per row it is: mutation consumes three integer batches of
N (pbest picks, then the r1 and r2 offsets), crossover consumes the N
forced coordinates, then one uniform per remaining coordinate, member by
member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class Population:
    """A batch of candidate matrices with per-member fitness.

    Attributes
    ----------
    members : ndarray, shape (B, N, n)
    fitness : ndarray, shape (B, N)
    """

    members: np.ndarray
    fitness: np.ndarray

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=float)
        self.fitness = np.asarray(self.fitness, dtype=float)
        if self.members.ndim != 3:
            raise ValueError("members must be a 3-D array (batch, members, dim)")
        if self.fitness.shape != self.members.shape[:2]:
            raise ValueError("fitness shape must equal members' (batch, members)")

    @property
    def batch(self) -> int:
        return self.members.shape[0]

    @property
    def size(self) -> int:
        """Members over the whole batch, B * N."""
        return self.fitness.size

    @property
    def dim(self) -> int:
        return self.members.shape[2]


@dataclass
class ParamSheet:
    """Per-individual scale factors and crossover rates, shape (B, N) each."""

    F: np.ndarray
    CR: np.ndarray

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)
        self.CR = np.asarray(self.CR, dtype=float)
        if self.F.shape != self.CR.shape or self.F.ndim != 2:
            raise ValueError("F and CR must be 2-D arrays of equal shape")


def init_population(objective, size: int, rng) -> Population:
    """Uniform draw inside the objective's bounds, evaluated; a batch of one."""
    lo, hi = objective.bounds
    members = rng.uniform(lo, hi, size=(size, objective.dim))
    return Population(members[None], objective.evaluate_batch(members)[None])


def _check_rngs(rngs, batch: int) -> None:
    if len(rngs) != batch:
        raise ValueError(f"need one generator per batch row: {len(rngs)} for {batch} rows")


@lru_cache(maxsize=16)
def batch_rows(batch: int) -> np.ndarray:
    """Row index column (B, 1) that pairs with a (B, N) index array."""
    rows = np.arange(batch)[:, None]
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=16)
def _member_index(batch: int, N: int) -> np.ndarray:
    """i for every member of a batch, shape (B, N)."""
    i = np.tile(np.arange(N), (batch, 1))
    i.flags.writeable = False
    return i


def per_row(draws) -> np.ndarray:
    """Stack one draw per batch row along a new leading axis."""
    return draws[0][None] if len(draws) == 1 else np.array(draws)


def draw_offsets(rngs, highs, N: int) -> list:
    """Per generator, one batch of N integers from [0, h) for each h in
    highs, in that order; one (B, N) array per h."""
    if len(rngs) == 1:  # a batch of one: no stacking
        return [rngs[0].integers(0, h, size=N)[None] for h in highs]
    return [np.array([rng.integers(0, h, size=N) for rng in rngs]) for h in highs]


def distinct_indices(offsets) -> list:
    """Index arrays r_1..r_k, each (B, N), with i, r_1, ..., r_k pairwise
    distinct in every column.

    ``offsets[j - 1]`` holds draws from [0, N - j) (see draw_offsets);
    each is shifted past i and r_1..r_{j-1}, so r_j is uniform over the
    indices left.
    """
    taken = [_member_index(*offsets[0].shape)]  # i and the picks so far, ascending in every column
    picks = []
    for j, r in enumerate(offsets):
        for excluded in taken:
            r = r + (r >= excluded)
        picks.append(r)
        if j + 1 < len(offsets):  # insert r into taken, column by column
            merged = []
            for excluded in taken:
                merged.append(np.minimum(excluded, r))
                r = np.maximum(excluded, r)
            taken = merged + [r]
    return picks


def mutate_current_to_pbest(pop: Population, sheet: ParamSheet, p: float, rngs) -> np.ndarray:
    """Mutant array v_i = x_i + F_i (x_pbest - x_i) + F_i (x_r1 - x_r2), per row.

    pbest is drawn per individual from the ceil(N*p) fittest members of
    its own row; r1 and r2 are uniform without replacement over indices
    distinct from each other and from i.
    """
    B, N = pop.fitness.shape
    if N < 4:
        raise ValueError(f"population must hold at least 4 members, got {N}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if sheet.F.shape != (B, N):
        raise ValueError("sheet shape must equal the population's (batch, members)")
    _check_rngs(rngs, B)
    n_pool = math.ceil(N * p)
    pool = np.argsort(pop.fitness, axis=1, kind="stable")[:, :n_pool]
    picks, *offsets = draw_offsets(rngs, (n_pool, N - 1, N - 2), N)
    rows = batch_rows(B)
    X = pop.members
    X_pbest, X_r1, X_r2 = X[rows, np.array([pool[rows, picks], *distinct_indices(offsets)])]
    F = sheet.F[:, :, None]
    return X + F * (X_pbest - X) + F * (X_r1 - X_r2)


def binomial_crossover_batch(targets, mutants, cr, rngs) -> np.ndarray:
    """Member-wise binomial crossover of (B, N, n) arrays; cr holds one rate
    per member, shape (B, N)."""
    T = np.asarray(targets, dtype=float)
    M = np.asarray(mutants, dtype=float)
    cr = np.asarray(cr, dtype=float)
    if T.shape != M.shape or T.ndim != 3 or cr.shape != T.shape[:2]:
        raise ValueError("targets, mutants, and cr have incompatible shapes")
    B, N, n = T.shape
    _check_rngs(rngs, B)
    # every generator draws its forced coordinates before its uniforms;
    # members of all rows are then crossed as one (B * N, n) block
    j_rand = per_row([rng.integers(0, n, size=N) for rng in rngs]).reshape(B * N)
    off = np.arange(n) != j_rand[:, None]
    take = ~off  # the forced coordinates
    if n > 1:  # one uniform per non-forced coordinate, member by member
        u = per_row([rng.random((N, n - 1)) for rng in rngs]).reshape(B * N, n - 1)
        take[off] = (u <= cr.reshape(B * N, 1)).ravel()
    return np.where(take.reshape(B, N, n), M, T)


def repair_bounds(points, bounds) -> np.ndarray:
    """Clamp coordinates onto the box; interior points come back unchanged."""
    lo, hi = bounds
    if not lo < hi:
        raise ValueError(f"bounds must satisfy lo < hi, got {bounds}")
    return np.minimum(np.maximum(np.asarray(points, dtype=float), lo), hi)


def select(pop: Population, trials, trial_fitness) -> Population:
    """Elitist one-to-one replacement: trial wins ties (<=)."""
    trials = np.asarray(trials, dtype=float)
    trial_fitness = np.asarray(trial_fitness, dtype=float)
    if trials.shape != pop.members.shape or trial_fitness.shape != pop.fitness.shape:
        raise ValueError("trial shapes must match the population")
    win = trial_fitness <= pop.fitness
    return Population(
        np.where(win[:, :, None], trials, pop.members),
        np.where(win, trial_fitness, pop.fitness),
    )


def evolve(pop: Population, objective, sheet: ParamSheet, p: float, rngs) -> Population:
    """One full generation of every row: mutate, cross over, repair,
    evaluate all B * N trials in one call, select."""
    mutants = mutate_current_to_pbest(pop, sheet, p, rngs)
    trials = binomial_crossover_batch(pop.members, mutants, sheet.CR, rngs)
    trials = repair_bounds(trials, objective.bounds)
    B, N, n = trials.shape
    fitness = objective.evaluate_batch(trials.reshape(B * N, n)).reshape(B, N)
    return select(pop, trials, fitness)
