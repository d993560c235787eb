"""Differential-evolution operators: current-to-pbest/1 and rand/1 mutation,
binomial crossover, clamp repair, and elitist one-to-one selection.

Every operator acts on a batch of B independent populations at once: a
``Population`` holds members of shape (B, N, n), and the learned
optimizer advances one function's rollouts as one batch (a run is a
batch of one).  Only the arithmetic is batched.  Randomness comes from
one generator per batch row (``rngs``), and each row draws from its own
generator in a fixed order, so a row's result does not depend on which
rows share its batch.

All operators are pure (inputs never mutated); mutation and crossover
take their random draws as arrays.  Draw order is part of the contract.
A generation draws one block per row (``draw_generation``): N integers
from [0, h) for each bound h in turn -- the pbest picks then the r1 and
r2 offsets (``evolve``) or the r1, r2 and r3 offsets (``evolve_rand1``),
then the crossover's forced coordinates -- then one uniform per
remaining coordinate, member by member.  These are the bits the
generator's own ``integers(0, h, size=N)`` and
``random((N, n - 1))`` calls would consume in that order; a bound of 1
consumes none.

For numpy's default bit generator, PCG64, the block comes from one
``random_raw`` call per row.  numpy's bounded integers are Lemire's
multiply-shift on 32-bit words, the low half of each 64-bit output
first, redrawing a word whose low product half falls below
(2^32 - h) mod h; its uniforms are (raw >> 11) * 2^-53.  Both are
computed over all rows at once.  A row takes the generator's own
``integers``/``random`` calls instead, in the order above, when its bit
generator is not PCG64, when it holds a pending 32-bit half-word, when
the block's integer draws use an odd number of words, or when any word
would be redrawn; such a row is first rewound to where it started.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class Population:
    """A batch of candidate matrices, members (B, N, n), with per-member
    fitness (B, N)."""

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
    def size(self) -> int:
        """Members over the whole batch, B * N."""
        return self.fitness.size


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


@lru_cache(maxsize=16)
def _row_starts(batch: int, N: int) -> np.ndarray:
    """b * N for every row b, shape (B, 1): row b's first flat member index."""
    starts = np.arange(0, batch * N, N)[:, None]
    starts.flags.writeable = False
    return starts


@lru_cache(maxsize=16)
def _member_index(batch: int, N: int) -> np.ndarray:
    """i for every member of a batch, shape (B, N)."""
    i = np.tile(np.arange(N), (batch, 1))
    i.flags.writeable = False
    return i


def gather_members(X, indices) -> np.ndarray:
    """X[b, r[b, i]] for each (B, N) index array r in ``indices``, as one
    take over the (B * N, n) members; shape (len(indices), B, N, n)."""
    B, N, n = X.shape
    flat = np.concatenate(indices).reshape(len(indices), B, N) + _row_starts(B, N)
    return X.reshape(B * N, n).take(flat, axis=0)


@lru_cache(maxsize=16)
def _lemire_bounds(live: tuple, N: int):
    """Per 32-bit word of a block: its bound h, and the low product half
    below which numpy redraws the word, (2^32 - h) mod h."""
    h = np.repeat(np.array(live, dtype=np.uint64), N)
    threshold = ((2 ** 32 - h) % h).astype(np.uint32)
    h.flags.writeable = threshold.flags.writeable = False
    return h, threshold


def draw_generation(rngs, highs, N: int, n: int) -> list:
    """One generation's draws for every batch row, in the documented order.

    Per row: N integers from [0, h) for each h in highs, in that order,
    then N * (n - 1) uniforms from [0, 1), bit for bit the draws of the
    row's own ``integers`` and ``random`` calls (see the module notes).
    Returns one (B, N) integer array per h, then the uniforms, shape
    (B, N, n - 1).
    """
    if min(highs) < 1 or max(highs) > 2 ** 32:
        raise ValueError(f"integer bounds must lie in [1, 2^32], got {highs}")
    B = len(rngs)
    # a bound of 1 draws nothing; built from a list, because tuple() of a
    # generator shrinks a 10-slot tuple, which moves one tuple per call into
    # CPython's free list for the smaller size (up to 2,000 kept)
    live = tuple([h for h in highs if h > 1])
    k = N * len(live)  # 32-bit words of the integer draws
    width = k // 2 + N * (n - 1)
    blocks, own = [], []  # own: rows that make the generator's own calls
    for b, rng in enumerate(rngs):
        bits = getattr(rng, "bit_generator", None)
        if k % 2 == 0 and type(bits) is np.random.PCG64 and not bits.state["has_uint32"]:
            blocks.append(bits.random_raw(width))
        else:
            blocks.append(np.zeros(width, dtype=np.uint64))
            own.append(b)
    if len(own) < B:
        # little-endian views put each output's low 32-bit half first
        raw = (blocks[0][None] if B == 1 else np.array(blocks)).astype("<u8", copy=False)
        h, threshold = _lemire_bounds(live, N)
        # u * h per word: its high half is the draw, its low half the redraw test
        m = raw[:, :k // 2].view("<u4").astype(np.uint64) * h
        ints = (m >> 32).astype(np.int64).reshape(B, len(live), N)
        redrawn = m.astype(np.uint32) < threshold
        if redrawn.any():
            for b in np.flatnonzero(redrawn.any(axis=1)):
                if b not in own:  # rewind the row to where it started
                    rngs[b].bit_generator.advance(-width)
                    own.append(b)
        # raw >> 11 lies below 2^53, so the float conversion is exact
        uniforms = ((raw[:, k // 2:] >> 11).astype(float) * 2.0 ** -53).reshape(B, N, n - 1)
    else:
        ints = np.empty((B, len(live), N), dtype=np.int64)
        uniforms = np.empty((B, N, n - 1))
    for b in own:
        rng = rngs[b]
        drawn = [rng.integers(0, h, size=N) for h in highs]
        if live:
            ints[b] = [d for d, h in zip(drawn, highs) if h > 1]
        if n > 1:
            uniforms[b] = rng.random((N, n - 1))
    per_bound = iter(ints.transpose(1, 0, 2))
    return [next(per_bound) if h > 1 else np.zeros((B, N), dtype=np.int64)
            for h in highs] + [uniforms]


def distinct_indices(offsets) -> list:
    """Index arrays r_1..r_k, each (B, N), with i, r_1, ..., r_k pairwise
    distinct in every column.

    ``offsets[j - 1]`` holds draws from [0, N - j); each is shifted past
    i and r_1..r_{j-1}, so r_j is uniform over the indices left.
    """
    taken = [_member_index(*offsets[0].shape)]  # i and the picks so far, ascending in every column
    picks = []
    for j, r in enumerate(offsets):
        for excluded in taken:  # one dtype per sum: bools cast on the way are slower
            r = r + (r >= excluded).astype(r.dtype)
        picks.append(r)
        if j + 1 < len(offsets):  # insert r into taken, column by column
            merged = []
            for excluded in taken:
                merged.append(np.minimum(excluded, r))
                r = np.maximum(excluded, r)
            taken = merged + [r]
    return picks


def mutate_current_to_pbest(pop: Population, sheet: ParamSheet, p: float,
                            picks, offsets) -> np.ndarray:
    """Mutant array v_i = x_i + F_i (x_pbest - x_i) + F_i (x_r1 - x_r2), per row.

    pbest is member ``picks`` (B, N), drawn from [0, ceil(N*p)), of the
    ceil(N*p) fittest members of its own row, in stable fitness order; r1
    and r2 come from the ``offsets`` pair, draws from [0, N - 1) and
    [0, N - 2), shifted to be distinct from each other and from i (see
    distinct_indices).
    """
    B, N = pop.fitness.shape
    if N < 4:
        raise ValueError(f"population must hold at least 4 members, got {N}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if sheet.F.shape != (B, N):
        raise ValueError("sheet shape must equal the population's (batch, members)")
    order = pop.fitness.argsort(axis=1, kind="stable")
    pbest = order.take(picks + _row_starts(B, N))
    X = pop.members
    X_pbest, X_r1, X_r2 = gather_members(X, [pbest, *distinct_indices(offsets)])
    # same-shape products: the broadcast ones' bits at a lower cost per call
    F = sheet.F[:, :, None].repeat(X.shape[2], axis=2)
    return X + F * (X_pbest - X) + F * (X_r1 - X_r2)


def mutate_rand1(pop: Population, sheet: ParamSheet, offsets) -> np.ndarray:
    """Mutant array v_i = x_r1 + F_i (x_r2 - x_r3), per row; the ``offsets``
    are draws from [0, N - 1), [0, N - 2) and [0, N - 3) (see distinct_indices)."""
    B, N = pop.fitness.shape
    if N < 4:
        raise ValueError(f"population must hold at least 4 members, got {N}")
    if sheet.F.shape != (B, N):
        raise ValueError("sheet shape must equal the population's (batch, members)")
    X_r1, X_r2, X_r3 = gather_members(pop.members, distinct_indices(offsets))
    return X_r1 + sheet.F[:, :, None] * (X_r2 - X_r3)


def binomial_crossover_batch(targets, mutants, cr, j_rand, u) -> np.ndarray:
    """Member-wise binomial crossover of (B, N, n) arrays; cr holds one rate
    per member, shape (B, N).

    Each member takes the mutant at its forced coordinate ``j_rand``
    (B, N) and at each other coordinate, in order, where its uniform in
    ``u`` (B, N, n - 1) is at most its rate.
    """
    T = np.asarray(targets, dtype=float)
    M = np.asarray(mutants, dtype=float)
    cr = np.asarray(cr, dtype=float)
    if T.shape != M.shape or T.ndim != 3 or cr.shape != T.shape[:2]:
        raise ValueError("targets, mutants, and cr have incompatible shapes")
    B, N, n = T.shape
    # members of all rows are crossed as one (B * N, n) block
    off = np.arange(n) != j_rand.reshape(B * N, 1)
    take = ~off  # the forced coordinates
    if n > 1:
        take[off] = (u.reshape(B * N, n - 1) <= cr.reshape(B * N, 1)).ravel()
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


def _generation(pop: Population, objective, sheet: ParamSheet, rngs, highs, mutate) -> Population:
    """Draw, mutate(*integer draws), cross over, repair, evaluate and select every row."""
    B, N, n = pop.members.shape
    if len(rngs) != B:
        raise ValueError(f"need one generator per batch row: {len(rngs)} for {B} rows")
    *ints, j_rand, u = draw_generation(rngs, highs + (n,), N, n)
    trials = binomial_crossover_batch(pop.members, mutate(*ints), sheet.CR, j_rand, u)
    trials = repair_bounds(trials, objective.bounds)
    fitness = objective.evaluate_batch(trials.reshape(B * N, n)).reshape(B, N)
    return select(pop, trials, fitness)


def evolve(pop: Population, objective, sheet: ParamSheet, p: float, rngs) -> Population:
    """One current-to-pbest/1/bin generation of every row."""
    N = pop.members.shape[1]
    return _generation(pop, objective, sheet, rngs, (math.ceil(N * p), N - 1, N - 2),
                       lambda picks, *rs: mutate_current_to_pbest(pop, sheet, p, picks, rs))


def evolve_rand1(pop: Population, objective, sheet: ParamSheet, rngs) -> Population:
    """One DE/rand/1/bin generation of every row."""
    N = pop.members.shape[1]
    return _generation(pop, objective, sheet, rngs, (N - 1, N - 2, N - 3),
                       lambda *offsets: mutate_rand1(pop, sheet, offsets))
