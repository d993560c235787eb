"""DE operators: pinned hand-evaluated cases plus structural invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

from conftest import EvalCounter, check_sheet_ranges
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


def _one(rngs, highs, N, n, lead=0, normals=0) -> list:
    """One generation's draws as drawn, a one-generation chunk."""
    return _generations(DrawSource(rngs, highs, N, n, lead=lead, normals=normals).draw(1))[0]


def _uniform(raw: int) -> float:
    return (raw >> 11) * 2.0 ** -53


def _reference(rng, highs, N, n, lead=0, normals=0) -> list:
    """One generation of one row by the documented layout, from the row's
    own ``random_raw`` call of one generation's width, with Python ints:
    the normals (Box-Muller on the row's arrays), the lead uniforms, N
    integers per bound (none for a bound of 1) and the (N, n - 1)
    crossover uniforms."""
    live = [h for h in highs if h > 1]
    raw = rng.bit_generator.random_raw(normals + lead + N * len(live) + N * (n - 1))
    out = []
    if normals:
        a, c = raw[:normals // 2], raw[normals // 2:normals]
        rho = np.sqrt(-2.0 * np.log(((a >> 11) + 1).astype(float) * 2.0 ** -53))
        theta = (2.0 * np.pi * 2.0 ** -53) * (c >> 11).astype(float)
        out.append(np.concatenate([rho * np.cos(theta), rho * np.sin(theta)]))
    raw = [int(r) for r in raw[normals:]]
    if lead:
        out.append(np.array([_uniform(r) for r in raw[:lead]]))
    ints = raw[lead:lead + N * len(live)]
    for h in highs:
        out.append(np.array([(r * h) >> 64 for r in ints[:N]] if h > 1 else [0] * N))
        ints = ints[N:] if h > 1 else ints
    out.append(np.array([_uniform(r) for r in raw[lead + N * len(live):]]).reshape(N, n - 1))
    return out


def _state(rng):
    return rng.bit_generator.state["state"]


def _check_against_the_reference(make_rng, highs, N, n, batch, draw, lead=0, normals=0,
                                 seeds=range(4)):
    """Successive chunks of ``draw(rngs)`` (an iterator of chunks, each a
    list of (B, ...) arrays per generation) against the reference of one generation at a time, and
    the generator states after every chunk.  A batch holding a row that is
    not PCG64 is refused: the conversions read raw PCG64 outputs."""
    for seed in seeds:
        rngs = [make_rng(seed, b) for b in range(batch)]
        if any(type(r.bit_generator) is not np.random.PCG64 for r in rngs):
            with pytest.raises(ValueError, match="PCG64"):
                DrawSource(rngs, highs, N, n, lead=lead, normals=normals)
            continue
        refs = [make_rng(seed, b) for b in range(batch)]
        for chunk in draw(rngs):
            for draws in chunk:
                assert len(draws) == len(highs) + 1 + bool(lead) + bool(normals)
                for b, ref in enumerate(refs):
                    for got, want in zip(draws, _reference(ref, highs, N, n, lead, normals)):
                        assert got[b].shape == want.shape
                        np.testing.assert_array_equal(got[b], want)
            assert [_state(r) for r in rngs] == [_state(r) for r in refs]


def _pcg(seed, b):
    return np.random.default_rng([seed, b])


def _pending_half_word(seed, b):
    rng = _pcg(seed, b)
    rng.integers(0, 5)  # one 32-bit word: the other half waits in the generator, unread
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
    (_pcg, (1,), 20, 1),                         # no outputs at all
    (_pcg, (7, 6, 5, 4), 7, 4),                  # odd N
    (_pcg, (1, 4, 3, 3), 5, 3),                  # an odd number of integer outputs
    (_pending_half_word, (1, 19, 18, 10), 20, 10),
    (_pcg, (2 ** 31 + 1, 2 ** 31 + 1), 4, 3),    # two equal bounds, each its own outputs
    (_pcg, (3, 2, 1, 1), 6, 1),                  # n = 1: no uniforms
    (_mt19937, (1, 19, 18, 10), 20, 10),         # not PCG64: refused
    (_mixed, (2 ** 31 + 1, 4, 3, 5), 6, 5),      # one such row refuses the batch
])
def test_draw_generation_equals_the_generators_own_calls(make_rng, highs, N, n, batch):
    # three one-generation draws, each against the row's own random_raw call
    _check_against_the_reference(make_rng, highs, N, n, batch,
                                 lambda rngs: ([_one(rngs, highs, N, n)] for _ in range(3)))


class _RawOnly:
    """A PCG64 generator whose own draw methods must not be used."""

    def __init__(self, seed):
        self.bit_generator = np.random.PCG64(seed)

    def integers(self, *args, **kwargs):
        raise AssertionError("a Generator method drew")

    random = standard_normal = integers


def test_draw_generation_takes_one_raw_block_at_desk_size():
    rngs = [_RawOnly(s) for s in range(10)]
    draws = _one(rngs, (1, 19, 18, 10), 20, 10, normals=40)
    for s in range(10):
        want = _reference(np.random.Generator(np.random.PCG64(s)), (1, 19, 18, 10), 20, 10,
                          normals=40)
        for got, w in zip(draws, want):
            np.testing.assert_array_equal(got[s], w)


def test_draw_generation_rejects_empty_bounds():
    with pytest.raises(ValueError):
        DrawSource([np.random.default_rng(0)], (0, 3), 4, 2)


def test_a_bad_bound_is_refused_on_every_call():
    for _ in range(3):
        with pytest.raises(ValueError, match="integer bounds"):
            DrawSource([np.random.default_rng(0)], (2 ** 32 + 1, 3), 4, 2)
    with pytest.raises(ValueError, match="generations must be >= 1"):
        DrawSource([np.random.default_rng(0)], (1, 3), 4, 2).draw(0)


def test_a_source_refuses_a_generator_that_is_not_pcg64():
    for rng in (np.random.Generator(np.random.MT19937(0)),
                np.random.Generator(np.random.Philox(0)), object()):
        with pytest.raises(ValueError, match="PCG64"):
            DrawSource([np.random.default_rng(0), rng], (1, 3), 4, 2)


@pytest.mark.parametrize("raw", [0, 2 ** 64 - 1, 2 ** 32 - 1, 2 ** 32, 0x9E3779B97F4A7C15])
def test_multiply_high_is_the_high_word_of_the_full_product(raw):
    for h in (2, 19, 3 * 2 ** 30, 2 ** 32):
        got = de_core._below(np.array([raw], dtype=np.uint64), np.uint64(h))
        assert got.dtype == np.uint64 and int(got[0]) == (raw * h) >> 64 < h


def _big_chunk(seed=0, N=50, n=3, span=1000):
    """A chunk with every kind of draw: (normals, lead uniforms, integers
    for bounds 7, 19 and 3 * 2^30, crossover uniforms)."""
    source = DrawSource([_pcg(seed, 0)], (7, 19, 3 * 2 ** 30, n), N, n, lead=2 * N,
                        normals=2 * N)
    return source.draw(span)


def test_the_normals_and_uniforms_pass_a_ks_test():
    z, lead, *_, u = _big_chunk()
    assert z.size == lead.size == 100_000 and u.size == 100_000
    assert sps.kstest(z.ravel(), "norm").pvalue > 0.01
    for sample in (lead, u):
        assert sample.min() >= 0.0 and sample.max() < 1.0
        assert sps.kstest(sample.ravel(), "uniform").pvalue > 0.01
    # F's normals and CR's (cos and sin halves of one pair) are uncorrelated
    assert abs(np.corrcoef(z[0, :, :50].ravel(), z[0, :, 50:].ravel())[0, 1]) < 0.01


def test_the_integers_pass_a_chi_square_test():
    _, _, *ints, _ = _big_chunk()
    for a, h, bins in zip(ints, (7, 19, 3 * 2 ** 30, 3), (7, 19, 24, 3)):
        assert a.min() >= 0 and a.max() < h
        counts = np.bincount((a.ravel() * bins) // h, minlength=bins)
        assert len(counts) == bins
        assert sps.chisquare(counts).pvalue > 0.01


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("make_rng, highs, N, n, lead", [
    (_pcg, (1, 19, 18, 10), 20, 10, 0),            # desk evolve
    (_pcg, (1, 19, 18, 10), 20, 10, 40),           # desk random_params: 2N sheet uniforms first
    (_pcg, (19, 18, 17, 10), 20, 10, 0),           # desk rand/1
    (_pcg, (3 * 2 ** 30, 19, 18, 10), 20, 10, 4),  # a bound far above N
    (_pcg, (2 ** 32 - 2 ** 28, 7, 6, 5), 8, 5, 0),
    (_pcg, (1, 4, 3, 3), 5, 3, 2),                 # an odd number of integer outputs
    (_pending_half_word, (1, 19, 18, 10), 20, 10, 40),
    (_mt19937, (1, 19, 18, 10), 20, 10, 40),       # not PCG64: refused
    (_mixed, (1, 19, 18, 10), 20, 10, 40),
    (_pcg, (3, 2, 1, 1), 6, 1, 0),                 # n = 1: no uniforms
])
def test_a_chunk_is_successive_generations(make_rng, highs, N, n, lead, batch):
    # chunks of 1 to 13 generations against the reference one generation
    # at a time; the states must agree after every chunk
    _check_against_the_reference(
        make_rng, highs, N, n, batch,
        lambda rngs: (_generations(DrawSource(rngs, highs, N, n, lead=lead).draw(G))
                      for G in (1, 13, 2, 7)), lead)


@pytest.mark.parametrize("span", [1, 7, 64])
@pytest.mark.parametrize("batch", [1, 3, 60])
def test_a_chunk_equals_successive_one_generation_draws(span, batch, monkeypatch):
    # a source drawing `span` generations a chunk against sources of one
    # generation, normals and lead uniforms included, over a chunk's end
    highs, N, n = (1, 19, 18, 10), 20, 10
    G = 70
    rngs = [_pcg(span, b) for b in range(batch)]
    ones = [_pcg(span, b) for b in range(batch)]
    monkeypatch.setattr(de_core, "CHUNK_GENERATIONS", span)
    monkeypatch.setattr(de_core, "CHUNK_ROW_GENERATIONS", span * batch)
    source = DrawSource(rngs, highs, N, n, G, lead=2 * N, normals=2 * N)
    spans = set()
    for _ in range(G):
        got = source()
        spans.add(source.drawn)
        want = DrawSource(ones, highs, N, n, lead=2 * N, normals=2 * N)()
        for a, w in zip(got, want):
            assert a.shape == w.shape and a.dtype == w.dtype
            np.testing.assert_array_equal(a, w)
    assert max(spans) == span and source.left == 0
    assert [_state(r) for r in rngs] == [_state(r) for r in ones]


def test_a_desk_chunk_comes_from_one_raw_block_per_row():
    rngs = [_RawOnly(s) for s in range(3)]
    chunk = DrawSource(rngs, (1, 19, 18, 10), 20, 10, lead=40).draw(64)
    assert chunk[0].shape == (3, 64, 40)
    width = 40 + 3 * 20 + 20 * 9  # 64-bit outputs per generation
    for s, rng in enumerate(rngs):
        assert rng.bit_generator.state == np.random.PCG64(s).advance(64 * width).state
        fifth = np.random.PCG64(s).advance(5 * width).random_raw(40)
        np.testing.assert_array_equal(chunk[0][s, 5], [_uniform(int(r)) for r in fifth])


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("make_rng, highs, N, n", [
    (_pcg, (1, 19, 18, 10), 20, 10),              # desk evolve
    (_pcg, (2 ** 31 + 1, 19, 18, 10), 20, 10),    # a bound far above N
    (_pcg, (2 ** 32 - 2 ** 28, 7, 6, 5), 8, 5),
    (_pcg, (1, 4, 3, 3), 5, 3),                   # an odd number of integer outputs
    (_pending_half_word, (1, 19, 18, 10), 20, 10),
    (_mt19937, (1, 19, 18, 10), 20, 10),          # not PCG64: refused
    (_mixed, (1, 19, 18, 10), 20, 10),
])
def test_a_chunk_with_normals_is_standard_normal_then_one_generation(make_rng, highs, N, n,
                                                                    batch, monkeypatch):
    # per generation, each row's 2N standard normals and then its block, by
    # the reference, in the operators' form; taken short of the chunk's
    # end, the generators stand at the chunk's end
    monkeypatch.setattr(de_core, "CHUNK_GENERATIONS", 24)
    for seed in range(3):
        rngs = [make_rng(seed, b) for b in range(batch)]
        if any(type(r.bit_generator) is not np.random.PCG64 for r in rngs):
            with pytest.raises(ValueError, match="PCG64"):
                DrawSource(rngs, highs, N, n, generations=45, normals=2 * N)
            continue
        refs = [make_rng(seed, b) for b in range(batch)]
        source = DrawSource(rngs, highs, N, n, generations=45, normals=2 * N)
        for _ in range(40):
            z, *draws = source()
            assert z.shape == (batch, 2 * N)
            raw = [[] for _ in range(len(highs) + 1)]
            for b, ref in enumerate(refs):
                want_z, *want = _reference(ref, highs, N, n, normals=2 * N)
                np.testing.assert_array_equal(z[b], want_z)
                for into, w in zip(raw, want):
                    into.append(w)
            for got, want in zip(draws, _derived([np.array(a) for a in raw])):
                np.testing.assert_array_equal(got, want)
        assert source.drawn == 21 and source.taken == 16  # chunks of 24 and 21
        for ref in refs:
            ref.bit_generator.advance(5 * source.width)
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
    monkeypatch.setattr(de_core, "CHUNK_GENERATIONS", chunk)
    monkeypatch.setattr(de_core, "CHUNK_ROW_GENERATIONS", chunk * batch)
    _check_calls(rule, N, n, batch, chunk)


def test_a_desk_training_batch_takes_the_row_generation_budget_a_chunk():
    # at the default bounds a desk training batch (60 rows, N 20, n 10)
    # draws 512 // 60 = 8 generations a chunk, under the 64-generation cap
    assert de_core.CHUNK_ROW_GENERATIONS // 60 == 8 < de_core.CHUNK_GENERATIONS
    _check_calls("pbest 0.05", 20, 10, 60, 8)


def _check_calls(rule, N, n, batch, chunk):
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
    assert max(spans) == chunk
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
    draws = DrawSource([rng], pbest_highs(10, 5, 0.2), 10, 5, generations=5)
    for g in range(1, 6):
        pop = evolve(pop, inst, _sheet(10), 0.2, draws())
        assert inst.count == 10 * (g + 1)
        assert pop.fitness.min() <= best
        best = pop.fitness.min()
    np.testing.assert_array_equal(pop.fitness[0], inst.evaluate_batch(pop.members[0]))


def test_evolve_refuses_draws_made_for_another_batch_size():
    inst = make_suite(0, 3, 1, 0).train[0]
    start = init_population(inst, 4, np.random.default_rng(0))
    two = Population(start.members.repeat(2, axis=0), start.fitness.repeat(2, axis=0))

    def refused(highs, generation):
        one_row = DrawSource([np.random.default_rng(1)], highs, 4, 3)()
        two_rows = DrawSource([np.random.default_rng(b) for b in (1, 2)], highs, 4, 3)()
        # mutation broadcasts one row's draws over two; the crossover refuses them
        with pytest.raises(ValueError, match="incompatible shapes"):
            generation(two, _sheet(4, batch=2), one_row)
        # two rows' member indices run past one row's members
        with pytest.raises(IndexError):
            generation(start, _sheet(4), two_rows)

    refused(pbest_highs(4, 3, 0.5), lambda pop, sheet, d: evolve(pop, inst, sheet, 0.5, d))
    refused(rand1_highs(4, 3), lambda pop, sheet, d: evolve_rand1(pop, inst, sheet, d))


def test_evolve_respects_bounds():
    inst = FunctionInstance(id="b", dim=3, base="sphere", f_star=0.0,
                            shift=np.zeros(3), bounds=(-1.0, 1.0))
    rng = np.random.default_rng(1)
    pop = init_population(inst, 8, rng)
    draws = DrawSource([rng], pbest_highs(8, 3, 0.5), 8, 3, generations=10)
    for _ in range(10):
        pop = evolve(pop, inst, _sheet(8, f=1.0, cr=1.0), 0.5, draws())
        assert np.all(pop.members >= -1.0) and np.all(pop.members <= 1.0)


def test_evolve_rand1_takes_f_from_the_sheet():
    # a flat objective keeps every trial, and CR = 1 makes each trial its
    # mutant, so the new members are x_r1 + F (x_r2 - x_r3) for the draws
    class Flat:
        bounds = (-10.0, 10.0)

        def evaluate_batch(self, X):
            return np.zeros(len(X))

    pop = Population(np.random.default_rng(2).uniform(-1.0, 1.0, (1, 6, 3)), np.zeros((1, 6)))
    draws = DrawSource([np.random.default_rng(3)], rand1_highs(6, 3), 6, 3)()
    out = []
    for f in (0.5, 0.9):
        sheet = _sheet(6, f=f, cr=1.0)
        out.append(evolve_rand1(pop, Flat(), sheet, draws).members)
        np.testing.assert_array_equal(out[-1], mutate_rand1(pop, sheet, draws[1]))
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

