"""The batched rollout engine against a straight-line per-rollout oracle.

Training advances a function's L rollouts together: one stacked
controller step, one evaluation of the L * N trials and one evolve per
generation, then backpropagation over the whole batch.  The oracle below
is the per-rollout loop that engine replaced, kept as plain scalar code:
one rollout at a time on 1-D arrays, matrix-vector products as W @ v,
and the per-trajectory gradients added in list order.  Rewards, raw
actions, head means, the epoch gradient and whole training runs must
match it bit for bit, and train output must not depend on --jobs.
"""

import math
from collections import deque

import numpy as np
import pytest

from ldectl import cli
from ldectl.benchfn import error_value, make_suite
from ldectl.de_core import Population
from ldectl.neural import FIELD_ORDER, flatten_weights, init_weights
from ldectl.rng import stream
from ldectl.trainer import TrainConfig, epoch_gradient, sample_trajectory, train


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
    f = _sigmoid(w.W_f @ z + w.b_f)
    i = _sigmoid(w.W_i @ z + w.b_i)
    ct = np.tanh(w.W_c @ z + w.b_c)
    o = _sigmoid(w.W_o @ z + w.b_o)
    c_new = f * c + i * ct
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c
    mu_raw = np.concatenate([_sigmoid(w.W_F.T @ h_new + w.b_F),
                             _sigmoid(w.W_C.T @ h_new + w.b_C)])
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
    g = {k: np.zeros_like(getattr(w, k)) for k in FIELD_ORDER}
    dh_next, dc_next = np.zeros(H), np.zeros(H)
    for t, og in zip(reversed(tapes), reversed(out_grads)):
        muF, muC = t["mu_raw"][:N], t["mu_raw"][N:]
        daF = og[:N] * muF * (1.0 - muF)
        daC = og[N:] * muC * (1.0 - muC)
        g["W_F"] += np.outer(t["h"], daF)
        g["b_F"] += daF
        g["W_C"] += np.outer(t["h"], daC)
        g["b_C"] += daC
        dh = w.W_F @ daF + w.W_C @ daC + dh_next
        dao = dh * t["tanh_c"] * t["o"] * (1.0 - t["o"])
        dc = dh * t["o"] * (1.0 - t["tanh_c"] ** 2) + dc_next
        daf = dc * t["c_prev"] * t["f"] * (1.0 - t["f"])
        dai = dc * t["ct"] * t["i"] * (1.0 - t["i"])
        dac = dc * t["i"] * (1.0 - t["ct"] ** 2)
        for k, d in (("f", daf), ("i", dai), ("c", dac), ("o", dao)):
            g["W_" + k] += np.outer(d, t["z"])
            g["b_" + k] += d
        dz = w.W_f.T @ daf + w.W_i.T @ dai + w.W_c.T @ dac + w.W_o.T @ dao
        dh_next = dz[:H]
        dc_next = dc * t["f"]
    return g


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
        w = type(w)(**{k: getattr(w, k) + cfg.alpha * grad[k] for k in FIELD_ORDER})
    return w, rows


# ---------------------------------------------------------------- the checks
# desk scale: dim 10, N 20, b 5, window 5, H 32; all eight families
DESK = dict(pop_size=20, bins=5, window=5, hidden=32, horizon=12, seed=3)


@pytest.mark.parametrize("rollouts", [1, 2, 7, 10])
def test_batched_rollouts_match_the_per_rollout_oracle(rollouts):
    cfg = TrainConfig(rollouts=rollouts, **DESK)
    functions = make_suite(cfg.seed, 10, 8, 0).train
    w = init_weights(cfg.hidden, cfg.input_size, cfg.pop_size, stream(cfg.seed, "w"))
    members = stream(cfg.seed, "p0").uniform(-100.0, 100.0, size=(cfg.pop_size, 10))
    batches, oracle = [], []
    for k, f in enumerate(functions):
        fitness0 = f.evaluate_batch(members)
        rngs = [stream(cfg.seed, "t", k, l) for l in range(rollouts)]
        batch = sample_trajectory(w, f, Population(members[None], fitness0[None]), cfg, rngs)
        per_fn = [_rollout(w, f, members, fitness0, cfg, stream(cfg.seed, "t", k, l))
                  for l in range(rollouts)]
        for l, steps in enumerate(per_fn):
            assert batch.rewards[l].tolist() == [s[0] for s in steps], (f.id, l)
            assert batch.total_return[l] == float(np.sum(np.asarray([s[0] for s in steps])))
            for record, (_, raw, mu, _) in zip(batch.steps, steps):
                np.testing.assert_array_equal(record.action.raw[l], raw)
                np.testing.assert_array_equal(record.mu[l], mu)
        batches.append(batch)
        oracle.append(per_fn)
    grad = epoch_gradient(w, batches, cfg)
    for k, want in _oracle_gradient(w, oracle, cfg).items():
        np.testing.assert_array_equal(getattr(grad, k), want, err_msg=k)


def test_training_matches_the_per_rollout_oracle():
    cfg = TrainConfig(epochs=2, rollouts=3, horizon=6, pop_size=6, bins=2, window=3,
                      hidden=5, seed=11)
    functions = make_suite(cfg.seed, 3, 4, 0).train
    w, rows = train(functions, cfg)
    w_oracle, rows_oracle = _oracle_train(functions, cfg)
    np.testing.assert_array_equal(flatten_weights(w), flatten_weights(w_oracle))
    assert [(r["mean_return"], r["return_std"]) for r in rows] == rows_oracle


def test_train_output_is_byte_identical_for_jobs_1_and_4(tmp_path):
    assert cli.main(["suite", "--seed", "4", "--dim", "3", "--train", "4", "--test", "0",
                     "--out", str(tmp_path / "suite")]) == 0
    outs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["train", "--seed", "4", "--suite", str(tmp_path / "suite"),
                         "--epochs", "2", "--rollouts", "3", "--horizon", "5",
                         "--hidden", "4", "--pop-size", "6", "--bins", "2",
                         "--checkpoint-every", "1", "--jobs", jobs, "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert set(outs[0]) == {"train_log.csv", "weights.bin", "checkpoint_0001.bin"}
    assert outs[0] == outs[1]
