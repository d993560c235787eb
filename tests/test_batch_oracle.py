"""The batched rollout engine against a straight-line per-rollout oracle.

Training advances all of an epoch's rollouts together, K functions of L
rollouts each, function-major: one stacked controller step and one
evolve per generation, each function evaluating only its own L * N
trials, then one backpropagation time loop over every row of the batch,
with the weight gradients formed one function's rows at a time.
The oracle below is the per-rollout loop that engine replaced, kept as
plain scalar code: one rollout at a time on 1-D arrays, matrix-vector
products as W @ v, each function's leave-one-out baseline pooled over
its own rollouts, and the per-trajectory gradients added in list order.
Rewards, raw actions, head means, the epoch gradient and whole training
runs must match it bit for bit, and train output must not depend on
--jobs.  At small and odd widths, the epoch gradient must not depend on
how the functions are grouped into batches.
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import train_logged
from ldectl import cli
from ldectl.benchfn import error_value, make_suite
from ldectl.de_core import Population
from ldectl.neural import (
    FIELD_ORDER,
    ControllerState,
    _stacked,
    forward_step,
    init_weights,
)
from ldectl.rng import stream
from ldectl.trainer import TrainConfig, epoch_gradient, sample_trajectory


# ---------------------------------------------------------------- the oracle
def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward(w, x, h, c):
    z = np.concatenate([h, x])
    H = w.hidden
    a = w.W_g @ z + w.b_g  # gate rows f, i, o, c
    f, i, o = _sigmoid(a[:H]), _sigmoid(a[H:2 * H]), _sigmoid(a[2 * H:3 * H])
    ct = np.tanh(a[3 * H:])
    c_new = f * c + i * ct
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c
    mu_raw = _sigmoid(w.W_head.T @ h_new + w.b_head)
    mu = np.clip(mu_raw, 1e-12, 1.0 - 1e-12)
    tape = dict(z=z, c_prev=c, f=f, i=i, ct=ct, o=o, tanh_c=tanh_c, h=h_new, mu_raw=mu_raw)
    return mu, h_new, c_new, tape


def _features(fitness, ring, bins):
    lo = fitness.min()
    span = fitness.max() - lo
    norm = np.zeros_like(fitness) if span == 0.0 else (fitness - lo) / span
    idx = np.minimum((norm * bins).astype(int), bins - 1)
    hist = np.bincount(idx, minlength=bins).astype(float) / norm.size
    avg = np.mean(np.stack(ring), axis=0) if ring else np.zeros_like(hist)
    ring.append(hist.copy())
    return np.concatenate([norm, hist, avg])


def _evolve(members, fitness, F, CR, p, f, rng):
    N, n = members.shape
    pool = np.argsort(fitness, kind="stable")[: math.ceil(N * p)]
    pbest = pool[rng.integers(0, len(pool), size=N)]
    r1 = rng.integers(0, N - 1, size=N)
    r1 = r1 + (r1 >= np.arange(N))
    lo, hi = np.minimum(np.arange(N), r1), np.maximum(np.arange(N), r1)
    r2 = rng.integers(0, N - 2, size=N)
    r2 = r2 + (r2 >= lo)
    r2 = r2 + (r2 >= hi)
    mut = members + F[:, None] * (members[pbest] - members) \
        + F[:, None] * (members[r1] - members[r2])
    j_rand = rng.integers(0, n, size=N)
    take = np.zeros((N, n), dtype=bool)
    if n > 1:
        off = np.arange(n)[None, :] != j_rand[:, None]
        take[off] = (rng.random((N, n - 1)) <= CR[:, None]).ravel()
    take[np.arange(N), j_rand] = True
    trials = np.clip(np.where(take, mut, members), *f.bounds)
    tf = f.evaluate_batch(trials)
    win = tf <= fitness
    return np.where(win[:, None], trials, members), np.where(win, tf, fitness)


def _rollout(w, f, members, fitness, cfg, rng):
    """One rollout: per step (reward, raw action, mu, tape)."""
    ring = deque(maxlen=cfg.window)
    h, c = np.zeros(w.hidden), np.zeros(w.hidden)
    err_prev = error_value(f, float(fitness.min()))
    steps = []
    for _ in range(cfg.horizon):
        mu, h, c, tape = _forward(w, _features(fitness, ring, cfg.bins), h, c)
        raw = rng.normal(mu, cfg.sigma)
        N = cfg.pop_size
        members, fitness = _evolve(members, fitness, np.clip(raw[:N], cfg.f_min, 1.0),
                                   np.clip(raw[N:], 0.0, 1.0), cfg.p_best, f, rng)
        err_next = error_value(f, float(fitness.min()))
        steps.append((max(0.0, (err_prev - err_next) / (err_prev + 1e-12)), raw, mu, tape))
        err_prev = err_next
    return steps


def _backward(w, tapes, out_grads):
    H, N = w.hidden, w.actions
    das, das_heads = [], []
    dh_next, dc_next = np.zeros(H), np.zeros(H)
    for t, og in zip(reversed(tapes), reversed(out_grads)):
        muF, muC = t["mu_raw"][:N], t["mu_raw"][N:]
        da_heads = np.concatenate([og[:N] * muF * (1.0 - muF), og[N:] * muC * (1.0 - muC)])
        dh = w.W_head @ da_heads + dh_next
        dao = dh * t["tanh_c"] * t["o"] * (1.0 - t["o"])
        dc = dh * t["o"] * (1.0 - t["tanh_c"] ** 2) + dc_next
        daf = dc * t["c_prev"] * t["f"] * (1.0 - t["f"])
        dai = dc * t["ct"] * t["i"] * (1.0 - t["i"])
        dac = dc * t["i"] * (1.0 - t["ct"] ** 2)
        da = np.concatenate([daf, dai, dao, dac])
        dh_next = w.W_g[:, :H].T @ da
        dc_next = dc * t["f"]
        das.append(da)
        das_heads.append(da_heads)
    # weight gradients as one product over the steps, biases summed oldest first
    DA, DA_heads = np.array(das[::-1]), np.array(das_heads[::-1])
    Z, Hs = np.array([t["z"] for t in tapes]), np.array([t["h"] for t in tapes])
    return {"W_g": DA.T @ Z, "b_g": DA.sum(axis=0),
            "W_head": Hs.T @ DA_heads, "b_head": DA_heads.sum(axis=0)}


def _oracle_gradient(w, rollouts, cfg):
    """rollouts: per function, its list of per-rollout step lists."""
    acc = {k: np.zeros_like(getattr(w, k)) for k in FIELD_ORDER}
    count = 0
    for per_fn in rollouts:
        rewards = np.array([[s[0] for s in steps] for steps in per_fn], dtype=float)
        G = np.cumsum(rewards[:, ::-1], axis=1)[:, ::-1]
        if len(per_fn) > 1:
            G = G - (G.sum(axis=0) - G) / (len(per_fn) - 1)
        for steps, adv in zip(per_fn, G):
            out = [a * ((raw - mu) / cfg.sigma ** 2) for a, (_, raw, mu, _) in zip(adv, steps)]
            g = _backward(w, [s[3] for s in steps], out)
            for k in FIELD_ORDER:
                acc[k] += 1.0 * g[k]
            count += 1
    return {k: acc[k] * (1.0 / count) for k in FIELD_ORDER}


def _oracle_train(functions, cfg):
    w = init_weights(cfg.hidden, cfg.input_size, cfg.pop_size, stream(cfg.seed, "weights"))
    lo, hi = functions[0].bounds
    rows = []
    for epoch in range(cfg.epochs):
        members = stream(cfg.seed, "epoch", epoch, "init").uniform(
            lo, hi, size=(cfg.pop_size, functions[0].dim))
        rollouts = []
        for k, f in enumerate(functions):
            fitness0 = f.evaluate_batch(members)
            rollouts.append([_rollout(w, f, members, fitness0, cfg,
                                      stream(cfg.seed, "epoch", epoch, "traj", k, l))
                             for l in range(cfg.rollouts)])
        for per_fn in rollouts:
            rets = [float(np.sum(np.asarray([s[0] for s in steps], dtype=float)))
                    for steps in per_fn]
            rows.append((float(np.mean(rets)), float(np.std(rets))))
        grad = _oracle_gradient(w, rollouts, cfg)
        w = w.like(np.concatenate([(getattr(w, k) + cfg.alpha * grad[k]).ravel()
                                   for k in FIELD_ORDER]))
    return w, rows


# ---------------------------------------------------------------- the checks
# desk scale: dim 10, N 20, b 5, window 5, H 32; all eight families
DESK = dict(pop_size=20, bins=5, window=5, hidden=32, horizon=12, seed=3)


def _check_against_the_oracle(functions, rollouts):
    """One cross-function batch of every function's rollouts, row by row
    and in its epoch gradient, against the per-rollout oracle."""
    cfg = TrainConfig(rollouts=rollouts, **DESK)
    K = len(functions)
    w = init_weights(cfg.hidden, cfg.input_size, cfg.pop_size, stream(cfg.seed, "w"))
    members = stream(cfg.seed, "p0").uniform(-100.0, 100.0, size=(cfg.pop_size, 10))
    pop0 = Population(np.repeat(members[None], K, axis=0),
                      np.array([f.evaluate_batch(members) for f in functions]))
    batch = sample_trajectory(w, functions, pop0, cfg, [
        stream(cfg.seed, "t", k, l) for k in range(K) for l in range(rollouts)])
    assert batch.function_ids == [f.id for f in functions]
    oracle = []
    for k, f in enumerate(functions):
        per_fn = [_rollout(w, f, members, pop0.fitness[k], cfg, stream(cfg.seed, "t", k, l))
                  for l in range(rollouts)]
        for l, steps in enumerate(per_fn):
            b = k * rollouts + l  # function-major rows
            assert batch.rewards[b].tolist() == [s[0] for s in steps], (f.id, l)
            assert batch.total_return[b] == float(np.sum(np.asarray([s[0] for s in steps])))
            for record, (_, raw, mu, _) in zip(batch.steps, steps):
                np.testing.assert_array_equal(record.action.raw[b], raw)
                np.testing.assert_array_equal(record.mu[b], mu)
        oracle.append(per_fn)
    grad = epoch_gradient(w, [batch], cfg)
    for k, want in _oracle_gradient(w, oracle, cfg).items():
        np.testing.assert_array_equal(getattr(grad, k), want, err_msg=k)


@pytest.mark.parametrize("rollouts", [1, 2, 7, 10])
def test_batched_rollouts_match_the_per_rollout_oracle(rollouts):
    # all eight families in one batch
    _check_against_the_oracle(make_suite(DESK["seed"], 10, 8, 0).train, rollouts)


@pytest.mark.parametrize("functions", [1, 2, 6])
def test_cross_function_batch_matches_the_per_function_oracle(functions):
    _check_against_the_oracle(make_suite(DESK["seed"], 10, functions, 0).train, 3)


def test_fused_products_keep_each_gates_bits_at_desk_scale():
    # At desk scale the one 4H-row gate product and the one 2N-column head
    # product give every gate and head the bits of its own product, so a
    # controller runs as it did with one matrix per gate.  This holds
    # where the BLAS kernel's row blocks fall on the gate boundaries: with
    # OpenBLAS on x86-64 when H and N are multiples of 4 (desk: 32 and 20).
    cfg = TrainConfig(**DESK)
    H, N = cfg.hidden, cfg.pop_size
    for seed in range(10):
        rng = stream(seed, "per-gate")
        w = init_weights(H, cfg.input_size, N, rng)
        h, c = rng.uniform(-1, 1, (2, 10, H))
        x = rng.uniform(0, 1, (10, cfg.input_size))
        _, _, tape = forward_step(w, x, ControllerState(h, c))
        for b in range(10):
            z = np.concatenate([h[b], x[b]])
            gates = [w.W_g[k * H:(k + 1) * H] @ z + w.b_g[k * H:(k + 1) * H] for k in range(4)]
            np.testing.assert_array_equal(tape.f[b], _sigmoid(gates[0]))
            np.testing.assert_array_equal(tape.i[b], _sigmoid(gates[1]))
            np.testing.assert_array_equal(tape.o[b], _sigmoid(gates[2]))
            np.testing.assert_array_equal(tape.ctilde[b], np.tanh(gates[3]))
            heads = [w.W_head[:, k * N:(k + 1) * N].T @ tape.h[b] + w.b_head[k * N:(k + 1) * N]
                     for k in range(2)]
            np.testing.assert_array_equal(tape.mu_raw[b], _sigmoid(np.concatenate(heads)))


def test_sliced_dz_product_keeps_the_full_products_bits_at_desk_scale():
    # Backward forms dh_prev from the first H columns of W_g alone.  At
    # desk scale that gives the bits of the whole (H + D)-column product
    # cut to its first H entries, so desk training output is unchanged;
    # with OpenBLAS on x86-64 this holds when H is a multiple of 4.
    cfg = TrainConfig(**DESK)
    H = cfg.hidden
    for seed in range(10):
        rng = stream(seed, "dz")
        w = init_weights(H, cfg.input_size, cfg.pop_size, rng)
        da = rng.normal(0.0, 1.0, (10, 4 * H))
        np.testing.assert_array_equal(_stacked(w.W_g[:, :H].T, da),
                                      _stacked(w.W_g.T, da)[:, :H])


def test_training_matches_the_per_rollout_oracle():
    cfg = TrainConfig(epochs=2, rollouts=3, horizon=6, pop_size=6, bins=2, window=3,
                      hidden=5, seed=11)
    functions = make_suite(cfg.seed, 3, 4, 0).train
    w, rows = train_logged(functions, cfg)
    w_oracle, rows_oracle = _oracle_train(functions, cfg)
    np.testing.assert_array_equal(w.theta, w_oracle.theta)
    assert [(r["mean_return"], r["return_std"]) for r in rows] == rows_oracle


@pytest.mark.parametrize("widths", [
    ["--hidden", "4", "--pop-size", "6", "--bins", "2"],
    ["--hidden", "5", "--pop-size", "7", "--bins", "3"],  # odd widths
], ids=["even", "odd"])
def test_train_output_is_byte_identical_for_any_jobs(tmp_path, widths):
    # five functions: 2, 3, 4 and 8 jobs split them into uneven groups,
    # and 8 is more than there are functions
    assert cli.main(["suite", "--seed", "4", "--dim", "3", "--train", "5", "--test", "0",
                     "--out", str(tmp_path / "suite")]) == 0
    outs = []
    for jobs in ("1", "2", "3", "4", "8"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["train", "--seed", "4", "--suite", str(tmp_path / "suite"),
                         "--epochs", "2", "--rollouts", "3", "--horizon", "5", *widths,
                         "--checkpoint-every", "1", "--jobs", jobs, "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert set(outs[0]) == {"train_log.csv", "weights.bin", "checkpoint_0001.bin"}
    assert all(out == outs[0] for out in outs[1:])


# ------------------------------------------------- grouping at odd widths
def _start(cfg, functions, dim):
    w = init_weights(cfg.hidden, cfg.input_size, cfg.pop_size, stream(cfg.seed, "w"))
    members = stream(cfg.seed, "p0").uniform(*functions[0].bounds, size=(cfg.pop_size, dim))
    return w, members


def _batch(w, functions, members, cfg):
    """The rollouts of the given functions as one batch from one shared
    start; each rollout's stream is keyed by its function, not its row."""
    pop0 = Population(np.repeat(members[None], len(functions), axis=0),
                      np.array([f.evaluate_batch(members) for f in functions]))
    return sample_trajectory(w, functions, pop0, cfg, [
        stream(cfg.seed, "t", f.id, l) for f in functions for l in range(cfg.rollouts)])


@settings(max_examples=150, deadline=None)
@given(N=st.integers(4, 9), H=st.integers(1, 9), bins=st.integers(1, 3),
       K=st.integers(1, 3), L=st.integers(1, 5), seed=st.integers(0, 999))
def test_epoch_gradient_does_not_depend_on_grouping_at_odd_widths(N, H, bins, K, L, seed):
    cfg = TrainConfig(pop_size=N, bins=bins, window=2, hidden=H, rollouts=L, horizon=4,
                      seed=seed)
    functions = make_suite(seed, 3, K, 0).train
    w, members = _start(cfg, functions, 3)
    whole = epoch_gradient(w, [_batch(w, functions, members, cfg)], cfg)
    apart = epoch_gradient(w, [_batch(w, [f], members, cfg) for f in functions], cfg)
    np.testing.assert_array_equal(whole.theta, apart.theta)


def test_odd_width_batch_matches_the_per_rollout_oracle():
    cfg = TrainConfig(pop_size=7, bins=3, window=2, hidden=5, rollouts=3, horizon=6, seed=8)
    functions = make_suite(cfg.seed, 3, 3, 0).train
    w, members = _start(cfg, functions, 3)
    grad = epoch_gradient(w, [_batch(w, functions, members, cfg)], cfg)
    oracle = [[_rollout(w, f, members, f.evaluate_batch(members), cfg,
                        stream(cfg.seed, "t", f.id, l)) for l in range(cfg.rollouts)]
              for f in functions]
    for k, want in _oracle_gradient(w, oracle, cfg).items():
        np.testing.assert_array_equal(getattr(grad, k), want, err_msg=k)
