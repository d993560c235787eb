"""DE operators: pinned hand-evaluated cases plus structural invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import EvalCounter, ScriptedRng, check_sheet_ranges
from ldectl.benchfn import FunctionInstance, make_suite
from ldectl.de_core import (
    ParamSheet,
    Population,
    binomial_crossover_batch,
    evolve,
    init_population,
    mutate_current_to_pbest,
    repair_bounds,
    select,
)


def _sheet(n, f=0.5, cr=0.5, batch=1):
    return ParamSheet(np.full((batch, n), float(f)), np.full((batch, n), float(cr)))


def _pop(members, fitness, generation=0):
    # a batch of one
    return Population(np.asarray(members, dtype=float)[None],
                      np.asarray(fitness, dtype=float)[None], generation)


# ---------------------------------------------------------------- mutation
def test_mutation_pinned_hand_case():
    # members (0,1,2,3) on a line, fitness equal to position, p=0.25 forces
    # the pbest pool to {0}; scripted offsets make r1=2, r2=3 for i=1, so
    # v_1 = 1 + 0.5*(0-1) + 0.5*(2-3) = 0.
    pop = _pop([[0.0], [1.0], [2.0], [3.0]], [0.0, 1.0, 2.0, 3.0])
    rng = ScriptedRng(ints=[
        [0, 0, 0, 0],  # pbest picks within the pool
        [0, 1, 0, 0],  # r1 offsets: i=1 -> draw 1 -> r1=2
        [0, 1, 0, 0],  # r2 offsets: i=1 -> draw 1 shifts past {1,2} -> r2=3
    ])
    v = mutate_current_to_pbest(pop, _sheet(4, f=0.5), 0.25, [rng])[0]
    assert v[1, 0] == 0.0
    assert rng.exhausted()


def test_mutation_f_zero_returns_members():
    rng = np.random.default_rng(0)
    pop = _pop(rng.normal(size=(6, 3)), rng.normal(size=6))
    v = mutate_current_to_pbest(pop, _sheet(6, f=0.0), 0.3, [np.random.default_rng(1)])
    np.testing.assert_array_equal(v, pop.members)


def test_mutation_identical_members_fixed_point():
    pop = _pop(np.ones((5, 2)) * 3.25, np.arange(5.0))
    v = mutate_current_to_pbest(pop, _sheet(5, f=0.9), 0.4, [np.random.default_rng(2)])
    np.testing.assert_array_equal(v, pop.members)


def test_mutation_small_population_rejected():
    pop = _pop(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        mutate_current_to_pbest(pop, _sheet(3), 0.5, [np.random.default_rng(0)])


def test_mutation_validates_p_and_sheet():
    pop = _pop(np.zeros((4, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        mutate_current_to_pbest(pop, _sheet(4), 0.0, [np.random.default_rng(0)])
    with pytest.raises(ValueError):
        mutate_current_to_pbest(pop, _sheet(5), 0.5, [np.random.default_rng(0)])
    with pytest.raises(ValueError):  # one generator per batch row
        mutate_current_to_pbest(pop, _sheet(4), 0.5, [np.random.default_rng(0)] * 2)


def test_index_sampler_covers_exactly_the_distinct_pairs():
    # Enumerating every (d1, d2) script must hit every ordered pair
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
            pbest_draw = [i] * N  # pool is the whole population at p=1
            rng = ScriptedRng(ints=[pbest_draw, [d1] * N, [d2] * N])
            v = mutate_current_to_pbest(pop, _sheet(N, f=1.0), 1.0, [rng])[0]
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
        rng = ScriptedRng(ints=[[pick] * N, [0] * N, [0] * N])
        v = mutate_current_to_pbest(pop, _sheet(N, f=1.0), 0.5, [rng])[0]
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
    a = mutate_current_to_pbest(pop, _sheet(8), 0.2, [np.random.default_rng(9)])
    b = mutate_current_to_pbest(pop, _sheet(8), 0.2, [np.random.default_rng(9)])
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(pop.members, before)


# ---------------------------------------------------------------- crossover
def test_crossover_pinned_hand_case():
    # forced coordinate drawn as index 1; uniforms 0.2 (take) and 0.8 (keep)
    # fall on the remaining coordinates in order -> trial (9, 9, 1)
    rng = ScriptedRng(ints=[[1]], uniforms=[[[0.2, 0.8]]])
    trial = binomial_crossover_batch(np.ones((1, 1, 3)), np.full((1, 1, 3), 9.0), [[0.5]],
                                     [rng])[0]
    np.testing.assert_array_equal(trial, [[9.0, 9.0, 1.0]])
    assert rng.exhausted()


def test_crossover_cr_one_gives_mutant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.normal(size=(1, 1, 6))
        m = rng.normal(size=(1, 1, 6))
        np.testing.assert_array_equal(binomial_crossover_batch(t, m, [[1.0]], [rng]), m)


def test_crossover_cr_zero_changes_exactly_forced_coordinate():
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = rng.normal(size=5)
        m = rng.normal(size=5)
        trial = binomial_crossover_batch(t[None, None], m[None, None], [[0.0]], [rng])[0, 0]
        changed = np.nonzero(trial != t)[0]
        assert changed.size == 1
        assert trial[changed[0]] == m[changed[0]]


def test_crossover_boundary_uniform_equal_cr_takes_mutant():
    # the comparison is rand <= CR, non-strict
    rng = ScriptedRng(ints=[[0]], uniforms=[[[0.5, 0.5]]])
    trial = binomial_crossover_batch(np.zeros((1, 1, 3)), np.ones((1, 1, 3)), [[0.5]], [rng])
    np.testing.assert_array_equal(trial, [[[1.0, 1.0, 1.0]]])


def test_crossover_batch_rowwise_matches_scalar():
    rng = np.random.default_rng(4)
    T = rng.normal(size=(3, 4))
    M = rng.normal(size=(3, 4))
    cr = np.array([0.0, 0.5, 1.0])
    batch = binomial_crossover_batch(T[None], M[None], cr[None], [np.random.default_rng(7)])[0]
    # structural: every row mixes only its own target/mutant
    for r in range(3):
        assert np.all((batch[r] == T[r]) | (batch[r] == M[r]))
        assert np.any(batch[r] == M[r])  # forced coordinate
    np.testing.assert_array_equal(batch[2], M[2])  # CR=1 row


def test_crossover_single_coordinate_always_mutant():
    rng = np.random.default_rng(5)
    assert binomial_crossover_batch([[[1.0]]], [[[2.0]]], [[0.0]], [rng])[0, 0, 0] == 2.0


def test_crossover_shape_validation():
    with pytest.raises(ValueError):
        binomial_crossover_batch(np.zeros((1, 1, 3)), np.zeros((1, 1, 4)), [[0.5]],
                                 [np.random.default_rng(0)])
    with pytest.raises(ValueError):
        binomial_crossover_batch(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)),
                                 np.zeros((1, 3)), [np.random.default_rng(0)])


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


def test_select_all_worse_keeps_population_and_bumps_generation():
    pop = _pop(np.arange(4.0).reshape(2, 2), np.array([1.0, 2.0]), generation=7)
    out = select(pop, np.zeros((1, 2, 2)), np.array([[9.0, 9.0]]))
    np.testing.assert_array_equal(out.members, pop.members)
    assert out.generation == 8


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
        assert pop.generation == g
        assert pop.fitness.min() <= best
        best = pop.fitness.min()
    np.testing.assert_array_equal(pop.fitness[0], inst.evaluate_batch(pop.members[0]))


def test_evolve_respects_bounds():
    inst = FunctionInstance(id="b", dim=3, base="sphere", f_star=0.0,
                            shift=np.zeros(3), bounds=(-1.0, 1.0))
    rng = np.random.default_rng(1)
    pop = init_population(inst, 8, rng)
    for _ in range(10):
        pop = evolve(pop, inst, _sheet(8, f=1.0, cr=1.0), 0.5, [rng])
        assert np.all(pop.members >= -1.0) and np.all(pop.members <= 1.0)


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
