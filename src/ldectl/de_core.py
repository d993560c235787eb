"""Differential-evolution operators: current-to-pbest/1 and rand/1 mutation,
binomial crossover, clamp repair, and elitist one-to-one selection.

Every operator acts on a batch of B independent populations at once: a
``Population`` holds members of shape (B, N, n), and the learned
optimizer advances one function's rollouts as one batch (a run is a
batch of one).  Only the arithmetic is batched.  Randomness comes from
one PCG64 generator per batch row, held by a ``DrawSource``, and each row
draws from its own generator in a fixed order, so a row's result does
not depend on which rows share its batch.

All operators are pure (inputs never mutated) and take only their draws,
as a ``DrawSource`` call derives them a chunk of generations at a time:
flat member indices, a forced-coordinate mask and a full-width uniform
sheet.  ``evolve`` and ``evolve_rand1`` take one such call per
generation and hold no generator.  Draw order is part of the contract.

A generation of a row reads W = normals + lead + k + N(n - 1) raw 64-bit
outputs of its PCG64 bit generator and converts them with the package's
own conversions, each of a fixed consumption, in this order:

- normals: the learned optimizer's 2N standard normals when it samples
  (none otherwise), by Box-Muller: with a the outputs [0, N) and c the
  outputs [N, 2N), rho = sqrt(-2 ln(((a >> 11) + 1) * 2^-53)) and
  theta = (2 pi * 2^-53) * (c >> 11), z = [rho cos theta, rho sin theta]
  (F's N normals, then CR's N);
- lead: random_params' 2N sheet uniforms, each (raw >> 11) * 2^-53;
- integers: N from [0, h) for each bound h > 1 in turn -- the pbest picks,
  then the r1 and r2 offsets (``evolve``) or the r1, r2 and r3 offsets
  (``evolve_rand1``), then the crossover's forced coordinates -- each the
  high word of raw * h, formed from 32-bit halves in uint64, with no
  redraw (its bias is below h / 2^64); a bound of 1 reads nothing;
- uniforms: one per remaining crossover coordinate, N(n - 1), member by
  member, as the lead ones.

Generation g of a row is then outputs [g W, (g + 1) W) of its stream,
whatever the chunk size.  No caller draws anything else between
generations, so a ``DrawSource`` draws a chunk of generations ahead with
one ``random_raw`` call per row (64 for a run, 8 for a desk training
batch of 60 rows: ``CHUNK_GENERATIONS`` generations and at most
``CHUNK_ROW_GENERATIONS`` row-generations).  A caller that stops part
way through a chunk leaves its generators ahead of the generations it
took; no generator is read after its run or rollout.  Suite draws,
``init_population`` and weight initialisation use numpy's own methods.
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


def _uniforms(raw) -> np.ndarray:
    """A double in [0, 1) per raw output, (raw >> 11) * 2^-53 (exact:
    raw >> 11 lies below 2^53)."""
    return (raw >> 11).astype(float) * 2.0 ** -53


def _below(raw, h) -> np.ndarray:
    """An integer in [0, h) per raw output: the high word of raw * h, formed
    from 32-bit halves in uint64 (h <= 2^32, so no product overflows)."""
    return ((raw >> 32) * h + (((raw & 0xFFFFFFFF) * h) >> 32)) >> 32


def _normals(a, c) -> np.ndarray:
    """Box-Muller: [rho cos theta, rho sin theta] along the last axis, rho
    from the outputs a, theta from the outputs c."""
    rho = np.sqrt(-2.0 * np.log(((a >> 11) + 1).astype(float) * 2.0 ** -53))
    theta = (2.0 * np.pi * 2.0 ** -53) * (c >> 11).astype(float)
    return np.concatenate([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)


# a DrawSource chunk holds at most CHUNK_GENERATIONS generations and, over all
# its rows, at most CHUNK_ROW_GENERATIONS row-generations (at least one
# generation): a run (one row) takes 64 generations at a time, a desk training
# batch (60 rows) 8, so a chunk's arrays stay small at any batch size
CHUNK_GENERATIONS = 64
CHUNK_ROW_GENERATIONS = 512


class DrawSource:
    """A batch's draws for successive generations, drawn a chunk ahead.

    ``rngs`` holds one PCG64 generator per row.  ``highs`` bound the
    integer draws: the pbest picks (1 for rand/1, which picks none), the
    member offsets, the forced coordinates (n).  ``draw`` returns a chunk
    as drawn.  A call returns the next generation's draws in the
    operators' form, derived a chunk at a time: the (B, normals) normals
    and (B, lead) leading uniforms, if any, the picks as flat ranks
    b * N + pick (B, N), the offsets as flat member indices (k, B, N) (see
    distinct_indices), a (B, N, n) mask of the forced coordinates, and a
    (B, N, n) sheet of each member's n - 1 uniforms at its other
    coordinates, in order (0.0 at the forced one).  A chunk holds at most
    ``CHUNK_GENERATIONS`` generations, at most ``CHUNK_ROW_GENERATIONS``
    row-generations (but at least one generation), and no more
    generations than the ``generations`` the caller has left to take.
    """

    def __init__(self, rngs, highs: tuple, N: int, n: int, generations: int = 1,
                 lead: int = 0, normals: int = 0):
        if min(highs) < 1 or max(highs) > 2 ** 32:
            raise ValueError(f"integer bounds must lie in [1, 2^32], got {highs}")
        self.bits = [getattr(rng, "bit_generator", None) for rng in rngs]
        if any(type(bits) is not np.random.PCG64 for bits in self.bits):
            raise ValueError("draws are converted from raw PCG64 outputs: "
                             "every generator must have a PCG64 bit generator")
        # per bound its index among the bounds above 1, None for a bound of 1
        self.slots = [sum(b > 1 for b in highs[:i]) if h > 1 else None
                      for i, h in enumerate(highs)]
        self.h = np.repeat(np.array([h for h in highs if h > 1], dtype=np.uint64), N)
        self.N, self.n = N, n
        self.lead, self.normals, self.left = lead, normals, generations
        self.width = normals + lead + len(self.h) + N * (n - 1)  # outputs a generation
        self.chunk = []  # the derived chunk, generation-major
        self.drawn = self.taken = 0  # generations in the chunk, and taken from it

    def __call__(self) -> list:
        if self.taken == self.drawn:
            self.drawn = max(1, min(CHUNK_GENERATIONS, CHUNK_ROW_GENERATIONS // len(self.bits),
                                    self.left))
            self.chunk, self.taken = self._derive(self.draw(self.drawn)), 0
            self.left -= self.drawn
        self.taken += 1
        return [a[self.taken - 1] for a in self.chunk]

    def _derive(self, chunk) -> list:
        """A ``draw`` chunk in a call's form, each array generation-major."""
        h = bool(self.normals) + bool(self.lead)
        heads, (picks, *offsets, j_rand, u) = chunk[:h], chunk[h:]
        B, G, N = picks.shape
        starts = _row_starts(B, N)

        def by_generation(a):
            return np.ascontiguousarray(a.swapaxes(0, 1))

        members = np.empty((G, len(offsets), B, N), dtype=np.int64)
        for j, r in enumerate(distinct_indices([by_generation(r).reshape(G * B, N)
                                                for r in offsets])):
            np.add(r.reshape(G, B, N), starts, out=members[:, j])
        forced = np.eye(self.n, dtype=bool).take(by_generation(j_rand), axis=0)
        sheet = np.zeros(forced.shape)
        sheet[~forced] = by_generation(u).ravel()  # member by member, in coordinate order
        return ([by_generation(a) for a in heads]
                + [by_generation(picks) + starts, members, forced, sheet])

    def draw(self, span: int) -> list:
        """``span`` successive generations' draws as drawn, from one
        ``random_raw`` call per row, each array with a generation axis after
        the row axis: the (B, G, normals) normals and (B, G, lead) leading
        uniforms if any, one (B, G, N) integer array per h in highs, then
        the (B, G, N, n - 1) uniforms."""
        if span < 1:
            raise ValueError(f"generations must be >= 1, got {span}")
        B, N, m, lead, k = len(self.bits), self.N, self.normals, self.lead, len(self.h)
        raw = np.stack([bits.random_raw((span, self.width)) for bits in self.bits])
        heads = []
        if m:
            heads.append(_normals(raw[:, :, :m // 2], raw[:, :, m // 2:m]))
        if lead:
            heads.append(_uniforms(raw[:, :, m:m + lead]))
        ints = _below(raw[:, :, m + lead:m + lead + k], self.h).astype(np.int64)
        ints = ints.reshape(B, span, k // N, N)
        zero = np.zeros((B, span, N), dtype=np.int64)  # the draws of a bound of 1
        uniforms = _uniforms(raw[:, :, m + lead + k:]).reshape(B, span, N, self.n - 1)
        return heads + [zero if s is None else ints[:, :, s] for s in self.slots] + [uniforms]


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
                            pbest, members) -> np.ndarray:
    """Mutant array v_i = x_i + F_i (x_pbest - x_i) + F_i (x_r1 - x_r2), per row.

    pbest is the member of flat rank ``pbest`` (B, N), b * N plus a pick
    from [0, ceil(N*p)), among its own row's members in stable fitness
    order; r1 and r2 are the flat member indices ``members`` (2, B, N),
    distinct from each other and from i (a ``DrawSource`` call derives
    both).
    """
    B, N, n = pop.members.shape
    if N < 4:
        raise ValueError(f"population must hold at least 4 members, got {N}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if sheet.F.shape != (B, N):
        raise ValueError("sheet shape must equal the population's (batch, members)")
    order = pop.fitness.argsort(axis=1, kind="stable") + _row_starts(B, N)
    X = pop.members
    flat = X.reshape(B * N, n)
    X_pbest = flat.take(order.take(pbest), axis=0)
    X_r1, X_r2 = flat.take(members, axis=0)
    # same-shape products: the broadcast ones' bits at a lower cost per call
    F = sheet.F[:, :, None].repeat(n, axis=2)
    return X + F * (X_pbest - X) + F * (X_r1 - X_r2)


def mutate_rand1(pop: Population, sheet: ParamSheet, members) -> np.ndarray:
    """Mutant array v_i = x_r1 + F_i (x_r2 - x_r3), per row; r1, r2 and r3
    are the flat member indices ``members`` (3, B, N), pairwise distinct
    and distinct from i (a ``DrawSource`` call derives them)."""
    B, N, n = pop.members.shape
    if N < 4:
        raise ValueError(f"population must hold at least 4 members, got {N}")
    if sheet.F.shape != (B, N):
        raise ValueError("sheet shape must equal the population's (batch, members)")
    X_r1, X_r2, X_r3 = pop.members.reshape(B * N, n).take(members, axis=0)
    return X_r1 + sheet.F[:, :, None] * (X_r2 - X_r3)


def binomial_crossover_batch(targets, mutants, cr, forced, u) -> np.ndarray:
    """Member-wise binomial crossover of (B, N, n) arrays; cr holds one rate
    per member, shape (B, N).

    Each member takes the mutant where the mask ``forced`` (B, N, n) marks
    its forced coordinate, whatever its rate, and at each other coordinate
    where its uniform in ``u`` (B, N, n) is at most its rate.
    """
    T = np.asarray(targets, dtype=float)
    M = np.asarray(mutants, dtype=float)
    cr = np.asarray(cr, dtype=float)
    if (T.shape != M.shape or T.ndim != 3 or cr.shape != T.shape[:2]
            or forced.shape != T.shape or u.shape != T.shape):
        raise ValueError("targets, mutants, cr and the draws have incompatible shapes")
    # a same-shape compare: the broadcast one's bits at a lower cost per call
    return np.where(forced | (u <= cr[:, :, None].repeat(T.shape[2], axis=2)), M, T)


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


def pbest_highs(N: int, n: int, p: float) -> tuple:
    """The integer bounds of a current-to-pbest/1/bin generation's draws:
    the pbest picks, the r1 and r2 offsets, the forced coordinates."""
    return (math.ceil(N * p), N - 1, N - 2, n)


def rand1_highs(N: int, n: int) -> tuple:
    """The integer bounds of a DE/rand/1/bin generation's draws: no pbest
    picks (a bound of 1 draws nothing), the r1, r2 and r3 offsets, the
    forced coordinates."""
    return (1, N - 1, N - 2, N - 3, n)


def _generation(pop: Population, objective, sheet: ParamSheet, draws, mutate) -> Population:
    """One generation of every row from its ``DrawSource`` call ``draws``:
    mutate(pbest, members), cross over, repair, evaluate and select."""
    B, N, n = pop.members.shape
    pbest, members, forced, u = draws
    trials = binomial_crossover_batch(pop.members, mutate(pbest, members), sheet.CR, forced, u)
    trials = repair_bounds(trials, objective.bounds)
    fitness = objective.evaluate_batch(trials.reshape(B * N, n)).reshape(B, N)
    return select(pop, trials, fitness)


def evolve(pop: Population, objective, sheet: ParamSheet, p: float, draws) -> Population:
    """One current-to-pbest/1/bin generation of every row; ``draws`` is that
    generation's ``DrawSource`` call for ``pbest_highs``."""
    return _generation(pop, objective, sheet, draws,
                       lambda *draws: mutate_current_to_pbest(pop, sheet, p, *draws))


def evolve_rand1(pop: Population, objective, sheet: ParamSheet, draws) -> Population:
    """One DE/rand/1/bin generation of every row; ``draws`` is that
    generation's ``DrawSource`` call for ``rand1_highs``."""
    return _generation(pop, objective, sheet, draws,
                       lambda _, members: mutate_rand1(pop, sheet, members))
