"""Differential-evolution operators: current-to-pbest/1 mutation, binomial
crossover, clamp repair, and elitist one-to-one selection.

All operators are pure (inputs never mutated) and draw randomness only
from the generator handed in.  Draw order is part of the contract:
mutation consumes three integer batches (pbest picks, then the r1 and r2
offsets), crossover consumes the forced coordinate then one uniform per
remaining coordinate, row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Population:
    """Candidate matrix with per-row fitness.

    Attributes
    ----------
    members : ndarray, shape (N, n)
    fitness : ndarray, shape (N,)
    generation : int
    """

    members: np.ndarray
    fitness: np.ndarray
    generation: int = 0

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=float)
        self.fitness = np.asarray(self.fitness, dtype=float)
        if self.members.ndim != 2:
            raise ValueError("members must be a 2-D array")
        if self.fitness.shape != (self.members.shape[0],):
            raise ValueError("fitness length must equal the number of members")

    @property
    def size(self) -> int:
        return self.members.shape[0]

    @property
    def dim(self) -> int:
        return self.members.shape[1]


@dataclass
class ParamSheet:
    """Per-individual scale factors and crossover rates for one generation."""

    F: np.ndarray
    CR: np.ndarray

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)
        self.CR = np.asarray(self.CR, dtype=float)
        if self.F.shape != self.CR.shape or self.F.ndim != 1:
            raise ValueError("F and CR must be 1-D arrays of equal length")

    def validate(self):
        """Range check: F in (0, 1], CR in [0, 1]."""
        if np.any(self.F <= 0.0) or np.any(self.F > 1.0):
            raise ValueError("F entries must lie in (0, 1]")
        if np.any(self.CR < 0.0) or np.any(self.CR > 1.0):
            raise ValueError("CR entries must lie in [0, 1]")


def init_population(objective, size: int, rng) -> Population:
    """Uniform draw inside the objective's bounds, evaluated."""
    lo, hi = objective.bounds
    members = rng.uniform(lo, hi, size=(size, objective.dim))
    return Population(members, objective.evaluate_batch(members), generation=0)


def distinct_indices(N: int, k: int, rng) -> list:
    """k index arrays r_1..r_k of length N with i, r_1, ..., r_k pairwise distinct.

    r_j is one batch of N integers drawn from [0, N - j) and shifted past
    i and r_1..r_{j-1}, so it is uniform over the indices left; the
    batches are drawn in order r_1, ..., r_k.
    """
    taken = [np.arange(N)]  # i and the picks so far, ascending in every column
    picks = []
    for j in range(1, k + 1):
        r = rng.integers(0, N - j, size=N)
        for excluded in taken:
            r = r + (r >= excluded)
        picks.append(r)
        if j < k:  # insert r into taken, column by column
            merged = []
            for excluded in taken:
                merged.append(np.minimum(excluded, r))
                r = np.maximum(excluded, r)
            taken = merged + [r]
    return picks


def mutate_current_to_pbest(pop: Population, sheet: ParamSheet, p: float, rng) -> np.ndarray:
    """Mutant matrix v_i = x_i + F_i (x_pbest - x_i) + F_i (x_r1 - x_r2).

    pbest is drawn per individual from the ceil(N*p) fittest members;
    r1 and r2 are uniform without replacement over indices distinct from
    each other and from i.
    """
    N = pop.size
    if N < 4:
        raise ValueError(f"population must hold at least 4 members, got {N}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if sheet.F.shape != (N,):
        raise ValueError("sheet length must equal population size")
    pool = np.argsort(pop.fitness, kind="stable")[: math.ceil(N * p)]
    pbest = pool[rng.integers(0, len(pool), size=N)]
    r1, r2 = distinct_indices(N, 2, rng)

    X = pop.members
    F = sheet.F[:, None]
    return X + F * (X[pbest] - X) + F * (X[r1] - X[r2])


def binomial_crossover_batch(targets, mutants, cr, rng) -> np.ndarray:
    """Row-wise binomial crossover; cr holds one rate per row."""
    T = np.asarray(targets, dtype=float)
    M = np.asarray(mutants, dtype=float)
    cr = np.asarray(cr, dtype=float)
    if T.shape != M.shape or T.ndim != 2 or cr.shape != (T.shape[0],):
        raise ValueError("targets, mutants, and cr have incompatible shapes")
    N, n = T.shape
    j_rand = rng.integers(0, n, size=N)
    take = np.zeros((N, n), dtype=bool)
    if n > 1:
        off = np.arange(n)[None, :] != j_rand[:, None]
        # one uniform per non-forced coordinate, row-major order
        take[off] = (rng.random((N, n - 1)) <= cr[:, None]).ravel()
    take[np.arange(N), j_rand] = True
    return np.where(take, M, T)


def repair_bounds(points, bounds) -> np.ndarray:
    """Clamp coordinates onto the box; interior points come back unchanged."""
    lo, hi = bounds
    if not lo < hi:
        raise ValueError(f"bounds must satisfy lo < hi, got {bounds}")
    return np.clip(np.asarray(points, dtype=float), lo, hi)


def select(pop: Population, trials, trial_fitness) -> Population:
    """Elitist one-to-one replacement: trial wins ties (<=)."""
    trials = np.asarray(trials, dtype=float)
    trial_fitness = np.asarray(trial_fitness, dtype=float)
    if trials.shape != pop.members.shape or trial_fitness.shape != pop.fitness.shape:
        raise ValueError("trial shapes must match the population")
    win = trial_fitness <= pop.fitness
    return Population(
        np.where(win[:, None], trials, pop.members),
        np.where(win, trial_fitness, pop.fitness),
        generation=pop.generation + 1,
    )


def evolve(pop: Population, objective, sheet: ParamSheet, p: float, rng) -> Population:
    """One full generation: mutate, cross over, repair, evaluate, select."""
    mutants = mutate_current_to_pbest(pop, sheet, p, rng)
    trials = binomial_crossover_batch(pop.members, mutants, sheet.CR, rng)
    trials = repair_bounds(trials, objective.bounds)
    return select(pop, trials, objective.evaluate_batch(trials))
