"""REINFORCE trainer: estimator oracle, accounting, determinism, resume."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import EvalCounter, train_logged
from ldectl.benchfn import FunctionInstance, error_value, make_suite
from ldectl.de_core import Population, init_population
from ldectl.errors import ConsistencyError, NumericFailure
from ldectl.neural import (
    FIELD_ORDER,
    backward_through_time,
    forward_step,
    grad_norm,
    init_weights,
    zero_state,
)
from ldectl.policy import clip_action, logprob_grad_mu
from ldectl.rng import stream
from ldectl.trainer import (
    FunctionBlocks,
    RolloutBatch,
    StepRecord,
    TrainConfig,
    _best_errors,
    epoch_gradient,
    sample_trajectory,
    step_advantages,
    train,
)


def _tiny_cfg(**kw):
    base = dict(epochs=2, rollouts=2, horizon=3, pop_size=4, bins=1,
                window=2, hidden=4, seed=7)
    base.update(kw)
    return TrainConfig(**base)


def _instance(f_star):
    return FunctionInstance(id="fs", dim=2, base="sphere", f_star=f_star,
                            shift=np.zeros(2), bounds=(-1.0, 1.0))


@pytest.mark.parametrize("f_star", [0.0, 1.0, -37.25])
def test_best_errors_equal_error_value_row_by_row(f_star):
    # exact hits, -0.0, undercuts inside the 1e-12 slack, NaN, and plain errors
    fitness = f_star + np.array([[2.5, 1.0], [0.0, 3.0], [-5e-13, 7.0], [1e-3, np.nan],
                                 [4.0, 4.0], [-1e-13, -2e-13]])
    if f_star == 0.0:
        fitness[1, 0] = -0.0
    pop = Population(np.zeros(fitness.shape + (2,)), fitness)
    want = np.array([error_value(_instance(f_star), f) for f in fitness.min(axis=1)])
    got = _best_errors(FunctionBlocks([_instance(f_star)], len(fitness)), pop)
    assert got.tobytes() == want.tobytes()


def test_best_errors_name_the_first_undercutting_row():
    inst = _instance(1.0)
    fitness = np.array([[1.5, 2.0], [0.25, 3.0], [-4.0, 1.0]])
    with pytest.raises(ConsistencyError) as want:
        error_value(inst, fitness[1].min())
    with pytest.raises(ConsistencyError) as got:
        _best_errors(FunctionBlocks([inst], 3), Population(np.zeros((3, 2, 2)), fitness))
    assert str(got.value) == str(want.value)


def test_best_errors_name_the_undercutting_rows_own_function():
    # rows 0-1 belong to f, 2-3 to g, 4-5 to h.  Row 2 would undercut f's
    # optimum but not g's; row 3 is the first to undercut its own, and
    # row 4 undercuts h's too.
    f, g, h = (FunctionInstance(id=fid, dim=2, base="sphere", f_star=fs,
                                shift=np.zeros(2), bounds=(-1.0, 1.0))
               for fid, fs in (("f", 1.0), ("g", -37.25), ("h", 5.0)))
    fitness = np.array([[1.5, 2.0], [1.0, 3.0], [-37.0, -30.0], [-40.0, 1.0],
                        [4.0, 6.0], [5.0, 5.5]])
    with pytest.raises(ConsistencyError) as want:
        error_value(g, -40.0)
    with pytest.raises(ConsistencyError) as got:
        _best_errors(FunctionBlocks([f, g, h], 2), Population(np.zeros((6, 2, 2)), fitness))
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("g: value -40.0 undercuts f_star -37.25")


def _tiny_setup(cfg, fn_seed=7):
    f = make_suite(fn_seed, 2, 1, 0).train[0]
    w = init_weights(cfg.hidden, cfg.input_size, cfg.pop_size, stream(cfg.seed, "w"))
    pop0 = init_population(f, cfg.pop_size, stream(cfg.seed, "p0"))
    return f, w, pop0


# ---------------------------------------------------------------- trajectories
def test_trajectory_shape_and_return_consistency():
    cfg = _tiny_cfg(horizon=5)
    f, w, pop0 = _tiny_setup(cfg)
    tr = sample_trajectory(w, [f], pop0, cfg, [stream(0, "t")])
    assert len(tr.steps) == 5 and tr.rewards.shape == (1, 5)
    assert tr.function_ids == [f.id]
    assert abs(tr.total_return[0] - sum(tr.rewards[0])) < 1e-12
    assert np.all((0.0 <= tr.rewards) & (tr.rewards <= 1.0))


def test_trajectory_zero_horizon():
    cfg = _tiny_cfg(horizon=0)
    f, w, pop0 = _tiny_setup(cfg)
    tr = sample_trajectory(w, [f], pop0, cfg, [stream(0, "t")])
    assert tr.steps == [] and tr.total_return.tolist() == [0.0]


def test_trajectory_deterministic_and_pure():
    cfg = _tiny_cfg()
    f, w, pop0 = _tiny_setup(cfg)
    before = pop0.members.copy()
    a = sample_trajectory(w, [f], pop0, cfg, [stream(3, "t")])
    b = sample_trajectory(w, [f], pop0, cfg, [stream(3, "t")])
    np.testing.assert_array_equal(pop0.members, before)
    np.testing.assert_array_equal(a.total_return, b.total_return)
    for sa, sb in zip(a.steps, b.steps):
        np.testing.assert_array_equal(sa.action.raw, sb.action.raw)
        np.testing.assert_array_equal(sa.mu, sb.mu)


def test_trajectory_rows_do_not_depend_on_their_batch():
    # a rollout's draws come from its own stream alone: rolled out with
    # others or alone, it takes the same actions and earns the same rewards
    cfg = _tiny_cfg(horizon=4)
    f, w, pop0 = _tiny_setup(cfg)
    together = sample_trajectory(w, [f], pop0, cfg, [stream(5, "t", l) for l in range(3)])
    for l in range(3):
        alone = sample_trajectory(w, [f], pop0, cfg, [stream(5, "t", l)])
        np.testing.assert_array_equal(together.rewards[l], alone.rewards[0])
        for st, sa in zip(together.steps, alone.steps):
            np.testing.assert_array_equal(st.action.raw[l], sa.action.raw[0])
            np.testing.assert_array_equal(st.mu[l], sa.mu[0])


def test_trajectory_needs_a_start_and_equal_rollouts_per_function():
    cfg = _tiny_cfg()
    f, w, pop0 = _tiny_setup(cfg)
    g = make_suite(7, 2, 2, 0).train[1]
    with pytest.raises(ValueError):  # one start row for two functions
        sample_trajectory(w, [f, g], pop0, cfg, [stream(0, "t", l) for l in range(2)])
    pop2 = Population(np.repeat(pop0.members, 2, axis=0), np.repeat(pop0.fitness, 2, axis=0))
    with pytest.raises(ValueError):  # three rollouts do not split over two functions
        sample_trajectory(w, [f, g], pop2, cfg, [stream(0, "t", l) for l in range(3)])


def test_trajectory_consumes_exactly_n_times_t_evaluations():
    cfg = _tiny_cfg(horizon=6)
    f, w, pop0 = _tiny_setup(cfg)
    counted = EvalCounter(f)
    sample_trajectory(w, [counted], pop0, cfg, [stream(0, "t")])
    assert counted.count == cfg.pop_size * 6
    counted = EvalCounter(f)  # L rollouts: L * N rows per generation
    sample_trajectory(w, [counted], pop0, cfg, [stream(0, "t", l) for l in range(3)])
    assert counted.count == 3 * cfg.pop_size * 6


def test_random_weights_make_progress_on_sphere():
    # even untrained parameter wobble around 0.5 improves sphere at n=2
    cfg = _tiny_cfg(pop_size=8, horizon=20, bins=5, window=5, hidden=8)
    wins = 0
    for seed in range(10):
        suite = make_suite(seed, 2, 1, 0)
        f = suite.train[0]
        assert f.base == "sphere"
        w = init_weights(cfg.hidden, cfg.input_size, cfg.pop_size, stream(seed, "w"))
        pop0 = init_population(f, cfg.pop_size, stream(seed, "p0"))
        tr = sample_trajectory(w, [f], pop0, cfg, [stream(seed, "t")])
        wins += tr.total_return[0] > 0.0
    assert wins >= 9


# ---------------------------------------------------------------- estimator
def _oracle_advantages(batch):
    # straight-line reward-to-go minus the leave-one-out mean over the
    # batch's other rollouts, step by step
    rewards = batch.rewards.tolist()
    out = []
    for i, mine in enumerate(rewards):
        peers = [r for j, r in enumerate(rewards) if j != i]
        adv = []
        for t in range(len(mine)):
            g = sum(mine[t:])
            if peers:
                g -= sum(sum(r[t:]) for r in peers) / len(peers)
            adv.append(g)
        out.append(adv)
    return out


def _replay_logdensity(w, batch, advantages, sigma, hidden):
    # every rollout replayed alone, as a batch of one
    total = 0.0
    for b, adv in enumerate(advantages):
        st = zero_state(hidden, 1)
        for step, a in zip(batch.steps, adv):
            mu, st, _ = forward_step(w, step.tape.z[b:b + 1, hidden:], st)
            total += a * float(np.sum(-((step.action.raw[b] - mu[0]) ** 2))) / (2 * sigma ** 2)
    return total / len(advantages)


@pytest.mark.parametrize("baseline", [False, True])
def test_epoch_gradient_matches_composite_finite_differences(baseline):
    # REINFORCE estimator == d/dW of mean_i sum_t A_it * ln pi(a_it | W)
    # with the sampled actions, states, and advantages held fixed; a single
    # rollout has no leave-one-out baseline and keeps plain reward-to-go
    cfg = _tiny_cfg()
    f, w, pop0 = _tiny_setup(cfg)
    rollouts = 3 if baseline else 1
    batch = sample_trajectory(w, [f], pop0, cfg, [stream(1, "t", l) for l in range(rollouts)])
    advantages = _oracle_advantages(batch)
    np.testing.assert_allclose(step_advantages(batch), advantages, rtol=0.0, atol=1e-12)

    analytic = epoch_gradient(w, [batch], cfg)
    eps = 1e-6
    for k in FIELD_ORDER:
        arr = getattr(w, k)
        numeric = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + eps
            hi = _replay_logdensity(w, batch, advantages, cfg.sigma, cfg.hidden)
            arr[ix] = orig - eps
            lo = _replay_logdensity(w, batch, advantages, cfg.sigma, cfg.hidden)
            arr[ix] = orig
            numeric[ix] = (hi - lo) / (2 * eps)
        a = getattr(analytic, k)
        rel = np.linalg.norm(a - numeric) / max(
            np.linalg.norm(a), np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-5, (k, rel)


def test_epoch_gradient_zero_returns_zero_gradient():
    cfg = _tiny_cfg()
    f, w, pop0 = _tiny_setup(cfg)
    batch = sample_trajectory(w, [f], pop0, cfg, [stream(1, "t", l) for l in range(2)])
    batch.rewards[:] = 0.0  # zero every step reward: every advantage is built from them
    assert grad_norm(epoch_gradient(w, [batch], cfg)) == 0.0


def test_epoch_gradient_baseline_centers_per_function():
    cfg = _tiny_cfg()
    f, w, pop0 = _tiny_setup(cfg)
    # three trajectories of one function with the same per-step rewards:
    # every leave-one-out advantage is zero
    batch = sample_trajectory(w, [f], pop0, cfg, [stream(2, "t", l) for l in range(3)])
    batch.rewards[:] = (0.5, 0.25, 0.125)
    assert grad_norm(epoch_gradient(w, [batch], cfg)) == 0.0


def test_epoch_gradient_single_rollout_falls_back_to_reward_to_go():
    cfg = _tiny_cfg(horizon=4)
    f, w, pop0 = _tiny_setup(cfg)
    g = make_suite(7, 2, 2, 0).train[1]
    assert g.id != f.id
    alone = sample_trajectory(w, [f], pop0, cfg, [stream(3, "t")])
    pair = sample_trajectory(w, [g], pop0, cfg, [stream(3, "u", l) for l in range(2)])
    alone.rewards[:] = (0.5, 0.25, 0.0, 0.125)
    pair.rewards[:] = ((0.5, 0.5, 0.0, 0.0), (0.25, 0.0, 0.0, 0.25))
    np.testing.assert_array_equal(step_advantages(alone), [[0.875, 0.375, 0.125, 0.125]])
    # the pair centres on each other; the lone rollout is not pooled in
    adv = step_advantages(pair)
    np.testing.assert_array_equal(adv[0], [0.5, 0.25, -0.25, -0.25])
    np.testing.assert_array_equal(adv[1], [-0.5, -0.25, 0.25, 0.25])
    assert grad_norm(epoch_gradient(w, [alone], cfg)) > 0.0
    assert grad_norm(epoch_gradient(w, [alone, pair], cfg)) > 0.0


def test_epoch_gradient_requires_one_batch_per_function():
    # a function's rollouts share one baseline, so they must form one batch
    f, w, pop0 = _tiny_setup(_tiny_cfg())
    short = sample_trajectory(w, [f], pop0, _tiny_cfg(horizon=2), [stream(4, "t", 0)])
    long = sample_trajectory(w, [f], pop0, _tiny_cfg(horizon=3), [stream(4, "t", 1)])
    with pytest.raises(ValueError):
        epoch_gradient(w, [short, long], _tiny_cfg())


def test_epoch_gradient_holds_one_functions_rows_at_a_time():
    # the per-rollout gradients are formed one function's L rows at a time,
    # so no (K * L, P) matrix is held however many functions a batch has
    K, L = 12, 2
    cfg = _tiny_cfg(rollouts=L, hidden=16, pop_size=8, bins=2)
    functions = make_suite(7, 2, K, 0).train
    w = init_weights(cfg.hidden, cfg.input_size, cfg.pop_size, stream(cfg.seed, "w"))
    start = init_population(functions[0], cfg.pop_size, stream(cfg.seed, "p0"))
    pop0 = Population(start.members.repeat(K, axis=0),
                      np.array([f.evaluate_batch(start.members[0]) for f in functions]))
    batch = sample_trajectory(w, functions, pop0, cfg, [stream(5, "t", b) for b in range(K * L)])
    epoch_gradient(w, [batch], cfg)  # first-call set-up is not the gradient's
    tracemalloc.start()
    try:
        epoch_gradient(w, [batch], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < batch.size * w.theta.nbytes / 2


def _toy_batch(w, xs, target, cfg, rng, rollouts):
    # inputs are fixed, so mu_t depends on the weights only; the reward
    # -|a_t - target|^2 then has expectation -|mu_t - target|^2 - 2 sigma^2.
    # The rollouts draw from one generator, rollout by rollout.
    state = zero_state(w.hidden, rollouts)
    mus, tapes = [], []
    for x in xs:
        mu, state, tape = forward_step(w, np.tile(x, (rollouts, 1)), state)
        mus.append(mu)
        tapes.append(tape)
    raw = np.array([[rng.normal(mu[b], cfg.sigma) for mu in mus] for b in range(rollouts)])
    rewards = -np.sum((raw - target) ** 2, axis=2)
    steps = [StepRecord(tape, clip_action(raw[:, t], cfg), mu)
             for t, (mu, tape) in enumerate(zip(mus, tapes))]
    return RolloutBatch(["toy"], steps, rewards, rewards.sum(axis=1))


def test_estimator_matches_exact_gradient_with_less_variance():
    cfg = _tiny_cfg(sigma=0.3)
    w = init_weights(3, 2, 1, stream(11, "w"))
    xs = stream(11, "x").normal(0.0, 1.0, (4, 2))
    target = np.array([0.7, 0.2])
    tapes, state, out_grads = [], zero_state(w.hidden, 1), []
    for x in xs:
        mu, state, tape = forward_step(w, x[None], state)
        tapes.append(tape)
        out_grads.append(-2.0 * (mu - target))
    exact = backward_through_time(w, tapes, out_grads).theta[0]

    rng = stream(11, "toy")
    new, whole = [], []
    for _ in range(1000):
        batch = _toy_batch(w, xs, target, cfg, rng, rollouts=4)
        new.append(epoch_gradient(w, [batch], cfg).theta)
        acc = np.zeros_like(exact)
        for row in backward_through_time(
                w, [s.tape for s in batch.steps],
                [batch.total_return[:, None] * logprob_grad_mu(s.action, s.mu, cfg)
                 for s in batch.steps]).theta:
            acc += row
        whole.append(acc / batch.size)
    new, whole = np.asarray(new), np.asarray(whole)
    se = new.std(axis=0, ddof=1) / np.sqrt(len(new))
    z = (new.mean(axis=0) - exact) / se
    assert np.max(np.abs(z)) < 4.5, np.max(np.abs(z))
    # total variance, whole-return estimator as the reference (0.17 of it measured)
    assert new.var(axis=0).sum() < 0.5 * whole.var(axis=0).sum()


def test_epoch_gradient_requires_trajectories():
    with pytest.raises(ValueError):
        epoch_gradient(init_weights(4, 6, 4, stream(0, "w")), [], _tiny_cfg())


# ---------------------------------------------------------------- train
def test_train_zero_epochs_returns_seeded_init():
    cfg = _tiny_cfg(epochs=0)
    suite = make_suite(cfg.seed, 2, 2, 0)
    w, rows = train_logged(suite.train, cfg)
    init = init_weights(cfg.hidden, cfg.input_size, cfg.pop_size,
                        stream(cfg.seed, "weights"))
    np.testing.assert_array_equal(w.theta, init.theta)
    assert rows == []


def test_train_alpha_zero_leaves_weights_unchanged():
    cfg = _tiny_cfg(alpha=0.0, epochs=3)
    suite = make_suite(cfg.seed, 2, 2, 0)
    w, rows = train_logged(suite.train, cfg)
    init = init_weights(cfg.hidden, cfg.input_size, cfg.pop_size,
                        stream(cfg.seed, "weights"))
    np.testing.assert_array_equal(w.theta, init.theta)
    assert len(rows) == 3 * 2  # one row per (epoch, function)


def test_train_evaluation_accounting():
    cfg = _tiny_cfg(epochs=2, rollouts=3, horizon=4, pop_size=5)
    suite = make_suite(cfg.seed, 2, 2, 0)
    counted = [EvalCounter(f) for f in suite.train]
    train(counted, cfg)
    total = sum(c.count for c in counted)
    Q, M, L, N, T = 2, 2, 3, 5, 4
    assert total == Q * M * (L * N * T + N)


def test_train_log_rows_schema_and_order():
    cfg = _tiny_cfg(epochs=2)
    suite = make_suite(cfg.seed, 2, 3, 0)
    _, rows = train_logged(suite.train, cfg)
    assert len(rows) == 2 * 3
    want_keys = {"epoch", "function_id", "mean_return", "return_std",
                 "grad_norm", "wallclock_ms"}
    assert all(set(r) == want_keys for r in rows)
    assert [r["epoch"] for r in rows] == [0, 0, 0, 1, 1, 1]
    assert [r["function_id"] for r in rows[:3]] == [f.id for f in suite.train]
    by_epoch = {r["epoch"]: r["grad_norm"] for r in rows}
    assert all(g > 0 for g in by_epoch.values())


def test_train_worker_count_does_not_change_results():
    cfg = _tiny_cfg(epochs=2, rollouts=3)
    suite = make_suite(cfg.seed, 2, 2, 0)
    w1, rows1 = train_logged(suite.train, cfg, jobs=1)
    w2, rows2 = train_logged(suite.train, cfg, jobs=2)
    np.testing.assert_array_equal(w1.theta, w2.theta)
    for a, b in zip(rows1, rows2):
        for key in ("epoch", "function_id", "mean_return", "return_std", "grad_norm"):
            assert a[key] == b[key]  # wallclock_ms may differ


def test_train_resume_is_bit_exact():
    cfg = _tiny_cfg(epochs=4)
    suite = make_suite(cfg.seed, 2, 2, 0)
    w_full, rows_full = train_logged(suite.train, cfg)

    half = _tiny_cfg(epochs=2)
    w_half, rows_half = train_logged(suite.train, half)
    w_res, rows_res = train_logged(suite.train, cfg, weights=w_half, start_epoch=2)
    np.testing.assert_array_equal(w_full.theta, w_res.theta)
    full_tail = [(r["epoch"], r["mean_return"]) for r in rows_full[4:]]
    res_rows = [(r["epoch"], r["mean_return"]) for r in rows_res]
    assert full_tail == res_rows


def test_train_validation_errors():
    cfg = _tiny_cfg()
    suite = make_suite(cfg.seed, 2, 2, 0)
    with pytest.raises(ValueError):
        train([], cfg)
    mixed = [suite.train[0], make_suite(1, 3, 1, 0).train[0]]
    with pytest.raises(ValueError):
        train(mixed, cfg)
    with pytest.raises(ValueError):
        train(suite.train, cfg, start_epoch=9)
    with pytest.raises(ValueError):
        train(suite.train, cfg, jobs=0)
    wrong = init_weights(cfg.hidden, cfg.input_size + 1, cfg.pop_size, stream(0, "w"))
    with pytest.raises(ValueError):
        train(suite.train, cfg, weights=wrong)


def test_train_divergence_carries_last_good_state():
    cfg = _tiny_cfg(alpha=math.inf, epochs=2)
    suite = make_suite(cfg.seed, 2, 1, 0)
    with pytest.raises(NumericFailure) as err:
        train(suite.train, cfg)
    last_good = err.value.last_good
    assert last_good["epochs_done"] == 0
    init = init_weights(cfg.hidden, cfg.input_size, cfg.pop_size,
                        stream(cfg.seed, "weights"))
    np.testing.assert_array_equal(
        last_good["weights"].theta, init.theta)
