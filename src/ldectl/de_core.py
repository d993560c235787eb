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
take their draws as a ``DrawSource`` call derives them, a chunk of
generations at a time: flat member indices, a forced-coordinate mask and
a full-width uniform sheet.  Draw order is part of the contract.
A generation draws one block per row (``DrawSource``): the learned
optimizer's 2N standard normals first (its action's z, from the row's
own ``standard_normal``), then N integers from [0, h) for each bound h
in turn -- the pbest picks then the r1 and r2 offsets (``evolve``) or
the r1, r2 and r3 offsets (``evolve_rand1``), then the crossover's
forced coordinates -- then one uniform per remaining coordinate, member
by member.  These are the bits the generator's own ``integers(0, h,
size=N)`` and ``random((N, n - 1))`` calls would consume in that order;
a bound of 1 consumes none.  random_params draws 2N uniforms (its
sheet) before the integers.

For numpy's default bit generator, PCG64, a generation's block after the
normals comes from one ``random_raw`` call per row.  numpy's bounded
integers are Lemire's multiply-shift on 32-bit words, the low half of
each 64-bit output first, redrawing a word whose low product half falls
below (2^32 - h) mod h; its uniforms are (raw >> 11) * 2^-53.  Both are
computed over all rows and generations of a chunk at once.  A row takes
the generator's own ``integers``/``random`` calls instead, in the order
above, when its bit generator is not PCG64, when it holds a pending
32-bit half-word, when the block's integer draws use an odd number of
words, or when any word would be redrawn.

No caller draws anything else between generations, so a ``DrawSource``
draws a chunk of generations ahead, per row and generation one
``standard_normal`` and one ``random_raw`` call (one ``random_raw`` call
per chunk without normals), with the bits of one-generation draws.  The
normals take a varying number of outputs, so the source keeps one
``state`` snapshot per row per chunk instead of stepping back with
``advance``: a row is restored to it, and its kept generations drawn
again, when the chunk stops before a generation that some row cannot
take from its block (drawn alone, as above, by the next chunk) and when
the caller stops part way through a chunk (``rewind``).
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


@lru_cache(maxsize=64)
def _draw_plan(highs: tuple, N: int, n: int):
    """What a generation's draws for ``highs`` need, made once per shape.

    Returns, per bound, its index among the bounds above 1 (None for a
    bound of 1, which draws nothing); per 32-bit word of the integer
    draws, its bound h and the low product half below which numpy redraws
    the word, (2^32 - h) mod h; and k, the number of those words.  A bad
    bound raises on every call: lru_cache keeps no exception.
    """
    if min(highs) < 1 or max(highs) > 2 ** 32:
        raise ValueError(f"integer bounds must lie in [1, 2^32], got {highs}")
    slots, live = [], []
    for h in highs:
        slots.append(len(live) if h > 1 else None)
        if h > 1:
            live.append(h)
    h = np.repeat(np.array(live, dtype=np.uint64), N)
    threshold = ((2 ** 32 - h) % h).astype(np.uint32)
    h.flags.writeable = threshold.flags.writeable = False
    return tuple(slots), h, threshold, len(h)


# row-generations a DrawSource draws per chunk at most: a run (one row) takes
# up to this many generations at a time, a batch of B rows 1/B of them
CHUNK_GENERATIONS = 64


class DrawSource:
    """A batch's draws for successive generations, drawn a chunk ahead.

    ``highs`` bound the integer draws: the pbest picks (1 for rand/1,
    which picks none), the member offsets, the forced coordinates (n).
    ``draw`` returns a chunk as drawn.  A call returns the next
    generation's draws in the operators' form, derived a chunk at a time:
    the (B, normals) normals and (B, lead) leading uniforms, if any, the
    picks as flat ranks b * N + pick (B, N), the offsets as flat member
    indices (k, B, N) (see distinct_indices), a (B, N, n) mask of the
    forced coordinates, and a (B, N, n) sheet of each member's n - 1
    uniforms at its other coordinates, in order (0.0 at the forced one).
    A chunk holds at most ``CHUNK_GENERATIONS`` row-generations, and no
    more generations than the ``generations`` the caller has left to take.
    """

    def __init__(self, rngs, highs: tuple, N: int, n: int, generations: int = 1,
                 lead: int = 0, normals: int = 0):
        self.plan = _draw_plan(highs, N, n)
        self.rngs, self.highs, self.N, self.n = rngs, highs, N, n
        self.lead, self.normals, self.left = lead, normals, generations
        self.width = lead + self.plan[3] // 2 + N * (n - 1)  # 64-bit outputs a generation
        self.chunk = []  # the derived chunk, generation-major
        self.snapshots = []  # per row its PCG64 state at the chunk's start, or None
        self.drawn = self.taken = 0  # generations in the chunk, and taken from it

    def __call__(self) -> list:
        if self.taken == self.drawn:
            span = max(1, min(CHUNK_GENERATIONS // len(self.rngs), self.left))
            self.chunk, self.taken = self._derive(self.draw(span)), 0
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

    def rewind(self) -> None:
        """Leave every generator where one draw per generation taken would."""
        if self.taken < self.drawn:
            for b in range(len(self.rngs)):
                self._replay(b, self.taken)
            self.taken = self.drawn

    def _replay(self, b: int, generations: int) -> None:
        """Put row b back at the chunk's start, then past its first ``generations``
        generations (standard_normal takes a varying number of outputs)."""
        rng = self.rngs[b]
        rng.bit_generator.state = self.snapshots[b]
        for _ in range(generations):
            rng.standard_normal(self.normals)
            rng.bit_generator.advance(self.width)

    def draw(self, span: int) -> list:
        """A chunk of 1 to ``span`` successive generations' draws as drawn,
        each array with a generation axis after the row axis: the (B, G,
        normals) normals and (B, G, lead) leading uniforms if any, one (B,
        G, N) integer array per h in highs, then the (B, G, N, n - 1)
        uniforms.  Every generator is left where G one-generation draws
        leave it, and every generation of a chunk of two or more came from
        the raw blocks."""
        if span < 1:
            raise ValueError(f"generations must be >= 1, got {span}")
        slots, h, threshold, k = self.plan
        rngs, N, n, lead, width = self.rngs, self.N, self.n, self.lead, self.width
        B = len(rngs)
        own = []  # rows making the generator's own calls
        self.snapshots = []
        for b, rng in enumerate(rngs):
            bits = getattr(rng, "bit_generator", None)
            state = bits.state if k % 2 == 0 and type(bits) is np.random.PCG64 else None
            if state is None or state["has_uint32"]:
                own.append(b)
                state = None
            self.snapshots.append(state)
        span = 1 if own else span
        z = np.empty((B, span, self.normals))
        count = span  # generations returned
        if len(own) < B:
            # little-endian, so each output's low 32-bit half comes first
            raw = np.zeros((B, span, width), dtype="<u8")
            for b, state in enumerate(self.snapshots):
                if state is not None and self.normals:
                    normal, bits = rngs[b].standard_normal, rngs[b].bit_generator
                    for g in range(span):
                        normal(out=z[b, g])
                        raw[b, g] = bits.random_raw(width)
                elif state is not None:
                    raw[b] = rngs[b].bit_generator.random_raw((span, width))
            # u * h per word: its high half is the draw, its low half the redraw test
            m = raw[:, :, lead:lead + k // 2].view("<u4").astype(np.uint64) * h
            ints = (m >> 32).astype(np.int64).reshape(B, span, k // N, N)
            stop = (m.astype(np.uint32) < threshold).any(axis=2)  # (B, span): a word redrawn
            # raw >> 11 lies below 2^53, so the float conversion is exact
            doubles = (raw >> 11).astype(float) * 2.0 ** -53
            stop[own, 0] = True
            if stop.any():
                first = int(stop.any(axis=0).argmax())
                count = first or 1
                own = np.flatnonzero(stop[:, 0]).tolist() if first == 0 else []
                for b, state in enumerate(self.snapshots):  # to the first generation not
                    if state is not None and (count < span or b in own):  # returned, or to
                        self._replay(b, count - (b in own))  # where the own calls start
        else:
            ints = np.empty((B, 1, k // N, N), dtype=np.int64)
            doubles = np.empty((B, 1, width))
        for b in own:
            rng = rngs[b]
            if self.normals:
                rng.standard_normal(out=z[b, 0])
            if lead:
                doubles[b, 0, :lead] = rng.random(lead)
            drawn = [rng.integers(0, h, size=N) for h in self.highs]
            if k:
                ints[b, 0] = [d for d, h in zip(drawn, self.highs) if h > 1]
            if n > 1:
                doubles[b, 0, width - N * (n - 1):] = rng.random((N, n - 1)).ravel()
        self.left -= count
        self.drawn = count
        uniforms = doubles[:, :count, width - N * (n - 1):].reshape(B, count, N, n - 1)
        zero = np.zeros((B, count, N), dtype=np.int64)  # the draws of a bound of 1
        heads = [a[:, :count] for a, size in ((z, self.normals), (doubles[:, :, :lead], lead))
                 if size]
        return heads + [zero if s is None else ints[:, :count, s] for s in slots] + [uniforms]


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
    return np.where(forced | (u <= cr[:, :, None]), M, T)


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


def _generation(pop: Population, objective, sheet: ParamSheet, rngs, highs, draws,
                mutate) -> Population:
    """Take the generation's draws (a ``DrawSource`` call for ``highs``,
    unless ``draws`` holds one), mutate(pbest, members), cross over,
    repair, evaluate and select every row."""
    B, N, n = pop.members.shape
    if len(rngs) != B:
        raise ValueError(f"need one generator per batch row: {len(rngs)} for {B} rows")
    pbest, members, forced, u = draws or DrawSource(rngs, highs, N, n)()
    trials = binomial_crossover_batch(pop.members, mutate(pbest, members), sheet.CR, forced, u)
    trials = repair_bounds(trials, objective.bounds)
    fitness = objective.evaluate_batch(trials.reshape(B * N, n)).reshape(B, N)
    return select(pop, trials, fitness)


def evolve(pop: Population, objective, sheet: ParamSheet, p: float, rngs,
           draws=None) -> Population:
    """One current-to-pbest/1/bin generation of every row; ``draws``, if
    given, is that generation's ``DrawSource`` call for ``pbest_highs``,
    drawn ahead by the caller."""
    _, N, n = pop.members.shape
    return _generation(pop, objective, sheet, rngs, pbest_highs(N, n, p), draws,
                       lambda *draws: mutate_current_to_pbest(pop, sheet, p, *draws))


def evolve_rand1(pop: Population, objective, sheet: ParamSheet, rngs,
                 draws=None) -> Population:
    """One DE/rand/1/bin generation of every row; ``draws`` as in ``evolve``,
    for ``rand1_highs``."""
    _, N, n = pop.members.shape
    return _generation(pop, objective, sheet, rngs, rand1_highs(N, n), draws,
                       lambda _, members: mutate_rand1(pop, sheet, members))
