"""DE operators: pinned hand-evaluated cases plus structural invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import EvalCounter, ScriptedRng, check_sheet_ranges
from ldectl import de_core
from ldectl.benchfn import FunctionInstance, make_suite
from ldectl.de_core import (
    DrawSource,
    ParamSheet,
    Population,
    binomial_crossover_batch,
    distinct_indices,
    evolve,
    evolve_rand1,
    init_population,
    mutate_current_to_pbest,
    mutate_rand1,
    pbest_highs,
    rand1_highs,
    repair_bounds,
    select,
)


def _sheet(n, f=0.5, cr=0.5, batch=1):
    return ParamSheet(np.full((batch, n), float(f)), np.full((batch, n), float(cr)))


def _pop(members, fitness):
    # a batch of one
    return Population(np.asarray(members, dtype=float)[None],
                      np.asarray(fitness, dtype=float)[None])


# ---------------------------------------------------------------- sampler
def _generations(chunk) -> list:
    """A ``DrawSource.draw`` chunk as one list of (B, ...) arrays per generation."""
    return [[a[:, g] for a in chunk] for g in range(chunk[0].shape[1])]


def _one(rngs, highs, N, n, lead=0) -> list:
    """One generation's draws as drawn, a one-generation chunk."""
    return _generations(DrawSource(rngs, highs, N, n, lead=lead).draw(1))[0]


def _per_call(rng, highs, N, n):
    """The generator's own calls in the documented order: the reference."""
    ints = [rng.integers(0, h, size=N) for h in highs]
    return ints, (rng.random((N, n - 1)) if n > 1 else np.empty((N, 0)))


def _state(rng):
    st = rng.bit_generator.state
    return {k: np.asarray(v).tolist() for k, v in st["state"].items()}, st.get("has_uint32")


def _check_against_per_call(make_rng, highs, N, n, batch, generations=3, seeds=range(8)):
    for seed in seeds:
        rngs = [make_rng(seed, b) for b in range(batch)]
        refs = [make_rng(seed, b) for b in range(batch)]
        for _ in range(generations):
            *ints, u = _one(rngs, highs, N, n)
            assert len(ints) == len(highs) and u.shape == (batch, N, n - 1)
            for b, ref in enumerate(refs):
                want_ints, want_u = _per_call(ref, highs, N, n)
                for got, want in zip(ints, want_ints):
                    assert got.shape == (batch, N)
                    np.testing.assert_array_equal(got[b], want)
                np.testing.assert_array_equal(u[b], want_u)
        assert [_state(r) for r in rngs] == [_state(r) for r in refs]


def _pcg(seed, b):
    return np.random.default_rng([seed, b])


def _pending_half_word(seed, b):
    rng = _pcg(seed, b)
    rng.integers(0, 5)  # one 32-bit word: the other half waits in the generator
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _mt19937(seed, b):
    return np.random.Generator(np.random.MT19937([seed, b]))


def _mixed(seed, b):
    return (_pcg, _pending_half_word, _mt19937)[b % 3](seed, b)


@pytest.mark.parametrize("batch", [1, 3, 10])
@pytest.mark.parametrize("make_rng, highs, N, n", [
    (_pcg, (1, 19, 18, 10), 20, 10),             # desk evolve: n_pool = 1 draws nothing
    (_pcg, (19, 18, 17, 10), 20, 10),            # desk rand/1
    (_pcg, (1,), 20, 1),                         # no bits at all
    (_pcg, (7, 6, 5, 4), 7, 4),                  # odd N, even word count
    (_pcg, (1, 4, 3, 3), 5, 3),                  # odd word count: the generator's own calls
    (_pending_half_word, (1, 19, 18, 10), 20, 10),
    (_pcg, (2 ** 31 + 1, 2 ** 31 + 1), 4, 3),    # about half the words redrawn
    (_pcg, (3, 2, 1, 1), 6, 1),                  # n = 1: no uniforms
    (_mt19937, (1, 19, 18, 10), 20, 10),         # not PCG64
    (_mixed, (2 ** 31 + 1, 4, 3, 5), 6, 5),      # every branch in one batch
])
def test_draw_generation_equals_the_generators_own_calls(make_rng, highs, N, n, batch):
    _check_against_per_call(make_rng, highs, N, n, batch)


def test_draw_generation_takes_one_raw_block_at_desk_size():
    class RawOnly:  # a PCG64 generator whose own draw calls must not be used
        def __init__(self, seed):
            self.bit_generator = np.random.PCG64(seed)

        def integers(self, *args, **kwargs):
            raise AssertionError("per-call draw at a size the raw block covers")

        random = integers

    rngs = [RawOnly(s) for s in range(10)]
    *ints, u = _one(rngs, (1, 19, 18, 10), 20, 10)
    for s, (picks, r1, r2, j_rand) in enumerate(zip(*ints)):
        want_ints, want_u = _per_call(np.random.Generator(np.random.PCG64(s)),
                                      (1, 19, 18, 10), 20, 10)
        for got, want in zip((picks, r1, r2, j_rand), want_ints):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(u[s], want_u)


def test_draw_generation_own_call_order_is_pinned():
    # a generator without a PCG64 bit generator makes its own calls: one
    # integers call of N per bound, a bound of 1 included, then one random
    # call of (N, n - 1)
    rng = ScriptedRng(ints=[[0, 0, 0], [2, 0, 1], [1, 1, 0]],
                      uniforms=[[[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]])
    picks, r1, j_rand, u = _one([rng], (1, 3, 2), 3, 3)
    assert rng.exhausted()
    np.testing.assert_array_equal(picks, [[0, 0, 0]])
    np.testing.assert_array_equal(r1, [[2, 0, 1]])
    np.testing.assert_array_equal(j_rand, [[1, 1, 0]])
    np.testing.assert_array_equal(u, [[[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]])


def test_draw_generation_rejects_empty_bounds():
    with pytest.raises(ValueError):
        DrawSource([np.random.default_rng(0)], (0, 3), 4, 2)


def test_a_bad_bound_is_refused_on_every_call():
    for _ in range(3):  # the draw plan is cached, its refusal is not
        with pytest.raises(ValueError, match="integer bounds"):
            DrawSource([np.random.default_rng(0)], (2 ** 32 + 1, 3), 4, 2)
    with pytest.raises(ValueError, match="generations must be >= 1"):
        DrawSource([np.random.default_rng(0)], (1, 3), 4, 2).draw(0)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("make_rng, highs, N, n, lead", [
    (_pcg, (1, 19, 18, 10), 20, 10, 0),            # desk evolve
    (_pcg, (1, 19, 18, 10), 20, 10, 40),           # desk random_params: 2N sheet uniforms first
    (_pcg, (19, 18, 17, 10), 20, 10, 0),           # desk rand/1
    (_pcg, (3 * 2 ** 30, 19, 18, 10), 20, 10, 4),  # a quarter of the pbest words redrawn
    (_pcg, (2 ** 32 - 2 ** 28, 7, 6, 5), 8, 5, 0),  # a sixteenth: chunks stop part way
    (_pcg, (1, 4, 3, 3), 5, 3, 2),                 # odd word count: the generator's own calls
    (_pending_half_word, (1, 19, 18, 10), 20, 10, 40),
    (_mt19937, (1, 19, 18, 10), 20, 10, 40),       # not PCG64
    (_mixed, (1, 19, 18, 10), 20, 10, 40),
    (_pcg, (3, 2, 1, 1), 6, 1, 0),                 # n = 1: no uniforms
])
def test_a_chunk_is_successive_generations(make_rng, highs, N, n, lead, batch):
    # chunks of up to G generations against one-generation calls, each of
    # which is the generator's own calls; the states must agree after
    # every chunk, so a chunk that stops early rewinds exactly
    for seed in range(4):
        rngs = [make_rng(seed, b) for b in range(batch)]
        ones = [make_rng(seed, b) for b in range(batch)]
        own = [make_rng(seed, b) for b in range(batch)]
        G, got = 40, 0
        while got < G:
            chunk = _generations(DrawSource(rngs, highs, N, n, lead=lead).draw(G - got))
            assert 1 <= len(chunk) <= G - got
            for draws in chunk:
                one = _one(ones, highs, N, n, lead)
                assert len(draws) == len(one) == len(highs) + 1 + bool(lead)
                for a, b in zip(draws, one):
                    assert a.shape == b.shape and a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)
                for b, rng in enumerate(own):
                    leading = rng.random(lead)
                    want_ints, want_u = _per_call(rng, highs, N, n)
                    want = ([leading] if lead else []) + want_ints + [want_u]
                    for a, w in zip(draws, want):
                        np.testing.assert_array_equal(a[b], w)
            got += len(chunk)
            assert [_state(r) for r in rngs] == [_state(r) for r in ones] \
                == [_state(r) for r in own]


def test_a_desk_chunk_comes_from_one_raw_block_per_row():
    class RawOnly:  # a PCG64 generator whose own draw calls must not be used
        def __init__(self, seed):
            self.bit_generator = np.random.PCG64(seed)

        def integers(self, *args, **kwargs):
            raise AssertionError("per-call draw at a size the raw block covers")

        random = integers

    rngs = [RawOnly(s) for s in range(3)]
    chunk = DrawSource(rngs, (1, 19, 18, 10), 20, 10, lead=40).draw(64)
    assert chunk[0].shape == (3, 64, 40)
    width = 40 + 3 * 20 // 2 + 20 * 9  # 64-bit outputs per generation
    for s, rng in enumerate(rngs):
        fresh = np.random.PCG64(s).advance(64 * width)
        assert rng.bit_generator.state == fresh.state
        np.testing.assert_array_equal(chunk[0][s, 5], np.random.Generator(
            np.random.PCG64(s).advance(5 * width)).random(40))


def test_rewind_generations_steps_back_over_a_chunk():
    rngs = [_pcg(0, b) for b in range(2)]
    source = DrawSource(rngs, (1, 19, 18, 10), 20, 10, generations=10, lead=40)
    for _ in range(3):  # the first 3 of a 10-generation chunk
        source()
    assert source.drawn == 10
    source.rewind()
    refs = [_pcg(0, b) for b in range(2)]
    for _ in range(3):
        _one(refs, (1, 19, 18, 10), 20, 10, 40)
    assert [_state(r) for r in rngs] == [_state(r) for r in refs]
    rest = DrawSource(rngs, (1, 19, 18, 10), 20, 10, lead=40).draw(7)
    again = DrawSource(refs, (1, 19, 18, 10), 20, 10, lead=40).draw(7)
    for a, b in zip(rest, again):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("make_rng, highs, N, n", [
    (_pcg, (1, 19, 18, 10), 20, 10),              # desk evolve
    (_pcg, (2 ** 31 + 1, 19, 18, 10), 20, 10),    # about half the pbest words redrawn
    (_pcg, (2 ** 32 - 2 ** 28, 7, 6, 5), 8, 5),   # a sixteenth: chunks stop part way
    (_pcg, (1, 4, 3, 3), 5, 3),                   # odd word count: the generator's own calls
    (_pending_half_word, (1, 19, 18, 10), 20, 10),
    (_mt19937, (1, 19, 18, 10), 20, 10),          # not PCG64
    (_mixed, (1, 19, 18, 10), 20, 10),
])
def test_a_chunk_with_normals_is_standard_normal_then_one_generation(make_rng, highs, N, n,
                                                                    batch, monkeypatch):
    # per generation, each row's 2N standard normals and then its block, as
    # the generator's own calls draw them, in the operators' form; taken
    # short of the horizon and rewound, the states must equal those of the
    # generations taken
    monkeypatch.setattr(de_core, "CHUNK_GENERATIONS", 24)
    for seed in range(3):
        rngs = [make_rng(seed, b) for b in range(batch)]
        refs = [make_rng(seed, b) for b in range(batch)]
        source = DrawSource(rngs, highs, N, n, generations=45, normals=2 * N)
        for _ in range(40):
            z, *draws = source()
            assert z.shape == (batch, 2 * N)
            raw = [[] for _ in range(len(highs) + 1)]
            for b, ref in enumerate(refs):
                np.testing.assert_array_equal(z[b], ref.standard_normal(2 * N))
                want_ints, want_u = _per_call(ref, highs, N, n)
                for into, want in zip(raw, want_ints + [want_u]):
                    into.append(want)
            for got, want in zip(draws, _derived([np.array(a) for a in raw])):
                np.testing.assert_array_equal(got, want)
        source.rewind()
        assert [_state(r) for r in rngs] == [_state(r) for r in refs]


def _crossover_sheet(j_rand, u) -> list:
    """The reference crossover arrays of forced coordinates (B, N) and
    uniforms (B, N, n - 1): a mask of each member's other coordinates,
    which take its uniforms in order.  Returns the forced mask and the
    full-width sheet, 0.0 at the forced coordinates."""
    B, N, n = *j_rand.shape, u.shape[2] + 1
    off = np.arange(n) != j_rand.reshape(B * N, 1)
    sheet = np.zeros((B * N, n))
    sheet[off] = u.reshape(B * N, n - 1).ravel()
    return [~off.reshape(B, N, n), sheet.reshape(B, N, n)]


def _derived(raw) -> list:
    """One generation's raw draws (pbest picks, offsets, forced coordinates,
    uniforms) in the operators' form, by the reference rules: the picks
    and the distinct_indices of the offsets plus each row's start, then
    the crossover arrays of _crossover_sheet."""
    picks, *offsets, j_rand, u = raw
    starts = np.arange(len(picks))[:, None] * picks.shape[1]
    members = np.array([r + starts for r in distinct_indices(offsets)])
    return [picks + starts, members, *_crossover_sheet(j_rand, u)]


@pytest.mark.parametrize("chunk", [1, 64])
@pytest.mark.parametrize("batch", [1, 3, 60])
@pytest.mark.parametrize("N, n", [(4, 2), (5, 10), (20, 1), (20, 10)])
@pytest.mark.parametrize("rule", ["pbest 0.05", "pbest 0.5", "rand1"])
def test_a_call_hands_out_the_derivation_of_its_raw_draws(rule, N, n, batch, chunk, monkeypatch):
    # a source's calls over chunks of `chunk` generations against each
    # generation drawn alone and derived by the reference rules; a pbest
    # rule of 0.05 is a bound of 1 at these sizes
    monkeypatch.setattr(de_core, "CHUNK_GENERATIONS", chunk * batch)
    highs = rand1_highs(N, n) if rule == "rand1" else pbest_highs(N, n, float(rule[6:]))
    G = chunk + 6  # over a chunk's end
    rngs = [_pcg(batch, b) for b in range(batch)]
    refs = [_pcg(batch, b) for b in range(batch)]
    source = DrawSource(rngs, highs, N, n, generations=G)
    spans = set()
    for _ in range(G):
        got = source()
        spans.add(source.drawn)
        want = _derived(_one(refs, highs, N, n))
        assert len(got) == len(want) == 4
        for a, w in zip(got, want):
            assert a.shape == w.shape and a.dtype == w.dtype
            np.testing.assert_array_equal(a, w)
    # an odd number of 32-bit words a generation takes the generator's own calls
    assert max(spans) == (chunk if N * sum(h > 1 for h in highs) % 2 == 0 else 1)
    assert [_state(r) for r in rngs] == [_state(r) for r in refs]


# ---------------------------------------------------------------- mutation
def _prepared(picks, *offsets):
    """Raw pbest picks and offsets of a batch of one as the operators take
    them: a row start of 0, so flat indices are the members' own."""
    return picks, np.stack(distinct_indices(offsets))


def _mutation_draws(rng, N, n_pool):
    """The pbest ranks and (r1, r2) indices, drawn as evolve draws them."""
    return DrawSource([rng], (n_pool, N - 1, N - 2, 1), N, 1)()[:2]


def _ints(*rows):
    return [np.array([row]) for row in rows]  # a batch of one


def test_mutation_pinned_hand_case():
    # members (0,1,2,3) on a line, fitness equal to position, p=0.25 forces
    # the pbest pool to {0}; the offsets make r1=2, r2=3 for i=1, so
    # v_1 = 1 + 0.5*(0-1) + 0.5*(2-3) = 0.
    pop = _pop([[0.0], [1.0], [2.0], [3.0]], [0.0, 1.0, 2.0, 3.0])
    picks, r1, r2 = _ints(
        [0, 0, 0, 0],  # pbest picks within the pool
        [0, 1, 0, 0],  # r1 offsets: i=1 -> draw 1 -> r1=2
        [0, 1, 0, 0],  # r2 offsets: i=1 -> draw 1 shifts past {1,2} -> r2=3
    )
    v = mutate_current_to_pbest(pop, _sheet(4, f=0.5), 0.25, *_prepared(picks, r1, r2))[0]
    assert v[1, 0] == 0.0


def test_mutation_f_zero_returns_members():
    rng = np.random.default_rng(0)
    pop = _pop(rng.normal(size=(6, 3)), rng.normal(size=6))
    v = mutate_current_to_pbest(pop, _sheet(6, f=0.0), 0.3,
                                *_mutation_draws(np.random.default_rng(1), 6, 2))
    np.testing.assert_array_equal(v, pop.members)


def test_mutation_identical_members_fixed_point():
    pop = _pop(np.ones((5, 2)) * 3.25, np.arange(5.0))
    v = mutate_current_to_pbest(pop, _sheet(5, f=0.9), 0.4,
                                *_mutation_draws(np.random.default_rng(2), 5, 2))
    np.testing.assert_array_equal(v, pop.members)


def test_mutation_small_population_rejected():
    pop = _pop(np.zeros((3, 2)), np.zeros(3))
    picks, r1, r2 = _ints([0, 0, 0], [0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        mutate_current_to_pbest(pop, _sheet(3), 0.5, *_prepared(picks, r1, r2))


def test_mutation_validates_p_and_sheet():
    pop = _pop(np.zeros((4, 2)), np.zeros(4))
    draws = _mutation_draws(np.random.default_rng(0), 4, 1)
    with pytest.raises(ValueError):
        mutate_current_to_pbest(pop, _sheet(4), 0.0, *draws)
    with pytest.raises(ValueError):
        mutate_current_to_pbest(pop, _sheet(5), 0.5, *draws)


def test_index_sampler_covers_exactly_the_distinct_pairs():
    # Enumerating every (d1, d2) offset pair must hit every ordered pair
    # (r1, r2) with r1, r2, i pairwise distinct exactly once: the shifted
    # draws are a bijection onto the admissible pairs.
    N = 6
    # one-hot rows: recover indices from the mutant algebra with F=1, pbest=i
    members = np.eye(N) * np.arange(2, N + 2)[:, None]
    fitness = np.arange(float(N))
    pop = _pop(members, fitness)
    for i in range(N):
        seen = set()
        for d1, d2 in itertools.product(range(N - 1), range(N - 2)):
            # the pool is the whole population at p=1
            picks, r1, r2 = _ints([i] * N, [d1] * N, [d2] * N)
            v = mutate_current_to_pbest(pop, _sheet(N, f=1.0), 1.0, *_prepared(picks, r1, r2))[0]
            # with pbest=i: v_i = x_i + (x_r1 - x_r2); one-hot rows make
            # the added/subtracted rows readable off the sign pattern
            delta = v[i] - members[i]
            plus = np.where(delta > 0)[0]
            minus = np.where(delta < 0)[0]
            assert len(plus) == 1 and len(minus) == 1
            r1, r2 = int(plus[0]), int(minus[0])
            assert r1 != i and r2 != i and r1 != r2
            seen.add((r1, r2))
        assert len(seen) == (N - 1) * (N - 2)


def test_pbest_pool_is_the_fittest_ceil_fraction():
    # fitness ranks the members in reverse row order; with p=0.5 the pool is
    # the ceil(N/2) fittest, checked through the pbest term with F=1, r1=r2
    # impossible, so force distinct rows to cancel via identical members.
    N = 5
    fitness = np.array([4.0, 3.0, 2.0, 1.0, 0.0])
    pool_size = math.ceil(N * 0.5)
    for pick in range(pool_size):
        members = np.zeros((N, 1))
        members[:, 0] = np.arange(N)
        pop = _pop(members, fitness)
        picks, r1, r2 = _ints([pick] * N, [0] * N, [0] * N)
        v = mutate_current_to_pbest(pop, _sheet(N, f=1.0), 0.5, *_prepared(picks, r1, r2))[0]
        # fittest rows are at the END here; stable argsort maps pick k to
        # row N-1-k
        expect_pbest = N - 1 - pick
        # for i=0: r1 = 0+(0>=0) = 1, r2 shifts past {0,1} -> 2
        want = members[0] + 1.0 * (members[expect_pbest] - members[0]) \
            + 1.0 * (members[1] - members[2])
        np.testing.assert_array_equal(v[0], want)


def test_mutation_pure_and_seed_deterministic():
    rng = np.random.default_rng(3)
    pop = _pop(rng.normal(size=(8, 4)), rng.normal(size=8))
    before = pop.members.copy()
    a = mutate_current_to_pbest(pop, _sheet(8), 0.2,
                                *_mutation_draws(np.random.default_rng(9), 8, 2))
    b = mutate_current_to_pbest(pop, _sheet(8), 0.2,
                                *_mutation_draws(np.random.default_rng(9), 8, 2))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(pop.members, before)


# ---------------------------------------------------------------- crossover
def _crossover_draws(rng, N, n):
    return _crossover_sheet(*_one([rng], (n,), N, n))  # j_rand, then the uniforms


def test_crossover_pinned_hand_case():
    # forced coordinate 1; uniforms 0.2 (take) and 0.8 (keep) fall on the
    # remaining coordinates in order -> trial (9, 9, 1)
    trial = binomial_crossover_batch(np.ones((1, 1, 3)), np.full((1, 1, 3), 9.0), [[0.5]],
                                     *_crossover_sheet(np.array([[1]]),
                                                       np.array([[[0.2, 0.8]]])))[0]
    np.testing.assert_array_equal(trial, [[9.0, 9.0, 1.0]])


def test_crossover_cr_one_gives_mutant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.normal(size=(1, 1, 6))
        m = rng.normal(size=(1, 1, 6))
        np.testing.assert_array_equal(
            binomial_crossover_batch(t, m, [[1.0]], *_crossover_draws(rng, 1, 6)), m)


def test_crossover_cr_zero_changes_exactly_forced_coordinate():
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = rng.normal(size=5)
        m = rng.normal(size=5)
        trial = binomial_crossover_batch(t[None, None], m[None, None], [[0.0]],
                                         *_crossover_draws(rng, 1, 5))[0, 0]
        changed = np.nonzero(trial != t)[0]
        assert changed.size == 1
        assert trial[changed[0]] == m[changed[0]]


def test_crossover_boundary_uniform_equal_cr_takes_mutant():
    # the comparison is rand <= CR, non-strict
    trial = binomial_crossover_batch(np.zeros((1, 1, 3)), np.ones((1, 1, 3)), [[0.5]],
                                     *_crossover_sheet(np.array([[0]]),
                                                       np.array([[[0.5, 0.5]]])))
    np.testing.assert_array_equal(trial, [[[1.0, 1.0, 1.0]]])


def test_crossover_batch_rowwise_matches_scalar():
    rng = np.random.default_rng(4)
    T = rng.normal(size=(3, 4))
    M = rng.normal(size=(3, 4))
    cr = np.array([0.0, 0.5, 1.0])
    batch = binomial_crossover_batch(T[None], M[None], cr[None],
                                     *_crossover_draws(np.random.default_rng(7), 3, 4))[0]
    # structural: every row mixes only its own target/mutant
    for r in range(3):
        assert np.all((batch[r] == T[r]) | (batch[r] == M[r]))
        assert np.any(batch[r] == M[r])  # forced coordinate
    np.testing.assert_array_equal(batch[2], M[2])  # CR=1 row


def test_crossover_single_coordinate_always_mutant():
    trial = binomial_crossover_batch([[[1.0]]], [[[2.0]]], [[0.0]],
                                     *_crossover_sheet(np.array([[0]]), np.empty((1, 1, 0))))
    assert trial[0, 0, 0] == 2.0


def test_a_nan_rate_takes_the_mutant_at_the_forced_coordinate_only():
    j_rand = np.array([[0, 1, 2, 0]])
    forced, u = _crossover_sheet(j_rand, np.zeros((1, 4, 2)))
    trial = binomial_crossover_batch(np.zeros((1, 4, 3)), np.ones((1, 4, 3)),
                                     np.full((1, 4), np.nan), forced, u)
    np.testing.assert_array_equal(trial, np.eye(3)[j_rand])


def test_crossover_shape_validation():
    forced, u = _crossover_sheet(np.zeros((1, 1), dtype=int), np.zeros((1, 1, 2)))
    with pytest.raises(ValueError):
        binomial_crossover_batch(np.zeros((1, 1, 3)), np.zeros((1, 1, 4)), [[0.5]], forced, u)
    with pytest.raises(ValueError):
        binomial_crossover_batch(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)),
                                 np.zeros((1, 3)), forced, u)
    with pytest.raises(ValueError):  # one member's draws for two
        binomial_crossover_batch(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), [[0.5, 0.5]],
                                 forced, u)


# ---------------------------------------------------------------- repair
def test_repair_bounds_examples():
    b = (-100.0, 100.0)
    np.testing.assert_array_equal(repair_bounds(np.array([1.0, -2.0]), b), [1.0, -2.0])
    np.testing.assert_array_equal(repair_bounds(np.array([150.0]), b), [100.0])
    np.testing.assert_array_equal(repair_bounds(np.array([-200.0]), b), [-100.0])


def test_repair_bounds_validates_order():
    with pytest.raises(ValueError):
        repair_bounds(np.zeros(2), (1.0, -1.0))


# ---------------------------------------------------------------- selection
def test_select_tie_prefers_trial():
    pop = _pop(np.zeros((2, 1)), np.array([5.0, 5.0]))
    out = select(pop, np.ones((1, 2, 1)), np.array([[5.0, 6.0]]))
    np.testing.assert_array_equal(out.members[0], [[1.0], [0.0]])
    np.testing.assert_array_equal(out.fitness[0], [5.0, 5.0])


def test_select_elementwise_example():
    pop = _pop(np.array([[0.0], [1.0]]), np.array([3.0, 5.0]))
    out = select(pop, np.array([[[10.0], [11.0]]]), np.array([[4.0, 1.0]]))
    np.testing.assert_array_equal(out.members[0], [[0.0], [11.0]])
    np.testing.assert_array_equal(out.fitness[0], [3.0, 1.0])


def test_select_all_worse_keeps_population():
    pop = _pop(np.arange(4.0).reshape(2, 2), np.array([1.0, 2.0]))
    out = select(pop, np.zeros((1, 2, 2)), np.array([[9.0, 9.0]]))
    np.testing.assert_array_equal(out.members, pop.members)
    np.testing.assert_array_equal(out.fitness, pop.fitness)


@given(st.integers(0, 1000))
def test_select_never_worsens_any_slot(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    pop = _pop(rng.normal(size=(n, 3)), rng.normal(size=n))
    trials = rng.normal(size=(1, n, 3))
    tfit = rng.normal(size=(1, n))
    out = select(pop, trials, tfit)
    assert np.all(out.fitness <= pop.fitness)
    assert np.all(out.fitness <= tfit)
    taken = out.fitness == tfit
    np.testing.assert_array_equal(out.members[taken], trials[taken])


# ---------------------------------------------------------------- evolve
def test_evolve_accounting_and_monotonicity():
    inst = EvalCounter(make_suite(0, 5, 1, 0).train[0])
    rng = np.random.default_rng(0)
    pop = init_population(inst, 10, rng)
    assert inst.count == 10
    best = pop.fitness.min()
    for g in range(1, 6):
        pop = evolve(pop, inst, _sheet(10), 0.2, [rng])
        assert inst.count == 10 * (g + 1)
        assert pop.fitness.min() <= best
        best = pop.fitness.min()
    np.testing.assert_array_equal(pop.fitness[0], inst.evaluate_batch(pop.members[0]))


def test_evolve_needs_one_generator_per_row():
    inst = make_suite(0, 3, 1, 0).train[0]
    pop = init_population(inst, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        evolve(pop, inst, _sheet(4), 0.5, [np.random.default_rng(0)] * 2)


def test_evolve_respects_bounds():
    inst = FunctionInstance(id="b", dim=3, base="sphere", f_star=0.0,
                            shift=np.zeros(3), bounds=(-1.0, 1.0))
    rng = np.random.default_rng(1)
    pop = init_population(inst, 8, rng)
    for _ in range(10):
        pop = evolve(pop, inst, _sheet(8, f=1.0, cr=1.0), 0.5, [rng])
        assert np.all(pop.members >= -1.0) and np.all(pop.members <= 1.0)


def test_evolve_rand1_takes_f_from_the_sheet():
    # a flat objective keeps every trial, and CR = 1 makes each trial its
    # mutant, so the new members are x_r1 + F (x_r2 - x_r3) for the draws
    class Flat:
        bounds = (-10.0, 10.0)

        def evaluate_batch(self, X):
            return np.zeros(len(X))

    pop = Population(np.random.default_rng(2).uniform(-1.0, 1.0, (1, 6, 3)), np.zeros((1, 6)))
    members = DrawSource([np.random.default_rng(3)], rand1_highs(6, 3), 6, 3)()[1]
    out = []
    for f in (0.5, 0.9):
        sheet = _sheet(6, f=f, cr=1.0)
        out.append(evolve_rand1(pop, Flat(), sheet, [np.random.default_rng(3)]).members)
        np.testing.assert_array_equal(out[-1], mutate_rand1(pop, sheet, members))
    assert not np.array_equal(*out)


def test_param_sheet_validation():
    check_sheet_ranges(ParamSheet(np.array([[0.5]]), np.array([[0.0]])))
    with pytest.raises(ValueError):  # F=0 out of range
        check_sheet_ranges(ParamSheet(np.array([[0.0]]), np.array([[0.5]])))
    with pytest.raises(ValueError):
        check_sheet_ranges(ParamSheet(np.array([[0.5]]), np.array([[1.5]])))
    with pytest.raises(ValueError):
        ParamSheet(np.array([[0.5, 0.5]]), np.array([[0.5]]))
    with pytest.raises(ValueError):  # no batch axis
        ParamSheet(np.array([0.5]), np.array([0.5]))


def test_population_validation():
    with pytest.raises(ValueError):
        Population(np.zeros((3, 2)), np.zeros(3))  # members not 3-D
    with pytest.raises(ValueError):
        Population(np.zeros((1, 3, 2)), np.zeros((1, 2)))


# ---------------------------------------------------------------- same bits
def _reference_distinct(offsets):
    """distinct_indices shifting by the bool comparisons themselves."""
    i = np.tile(np.arange(offsets[0].shape[1]), (offsets[0].shape[0], 1))
    taken, picks = [i], []
    for r in offsets:
        for excluded in taken:
            r = r + (r >= excluded)
        picks.append(r)
        merged = []
        for excluded in taken:
            merged.append(np.minimum(excluded, r))
            r = np.maximum(excluded, r)
        taken = merged + [r]
    return picks


@pytest.mark.parametrize("B, N, n, p", [(1, 20, 10, 0.05), (1, 20, 10, 0.2), (7, 9, 3, 0.5),
                                         (3, 4, 1, 1.0)])
def test_mutation_matches_the_fancy_index_reference(B, N, n, p):
    rng = np.random.default_rng(B * N + n)
    pop = Population(rng.normal(size=(B, N, n)) * 50.0, rng.normal(size=(B, N)))
    sheet = ParamSheet(rng.uniform(0.0, 1.0, (B, N)), rng.uniform(0.0, 1.0, (B, N)))
    rngs = [np.random.default_rng([B, b]) for b in range(B)]
    n_pool = math.ceil(N * p)
    picks, r1, r2 = _one(rngs, (n_pool, N - 1, N - 2, 1), N, 1)[:3]
    rows = np.arange(B)[:, None]
    pool = np.argsort(pop.fitness, axis=1, kind="stable")[:, :n_pool]
    X = pop.members
    X_pbest, X_r1, X_r2 = X[rows, np.array([pool[rows, picks], *_reference_distinct((r1, r2))])]
    F = sheet.F[:, :, None]
    want = X + F * (X_pbest - X) + F * (X_r1 - X_r2)
    twins = [np.random.default_rng([B, b]) for b in range(B)]
    got = mutate_current_to_pbest(pop, sheet, p,
                                  *DrawSource(twins, (n_pool, N - 1, N - 2, 1), N, 1)()[:2])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

