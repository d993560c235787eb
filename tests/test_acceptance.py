"""Acceptance gate: nine end-to-end criteria at pinned small-scale settings.

Each test prints one measured pass/fail line.  Criteria 3 and 4 assert the
stated learning thresholds at the pinned budget (hidden size 32, 60 epochs,
one core); the README says what they measure and what they last read.
"""

import dataclasses
import itertools
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from conftest import check_sheet_ranges
from ldectl import neural
from ldectl.benchfn import error_value, make_suite
from ldectl.cli import main
from ldectl.de_core import (
    ParamSheet,
    Population,
    binomial_crossover_batch,
    mutate_current_to_pbest,
    repair_bounds,
    select,
)
from ldectl.neural import count_macs, forward_step, init_weights, zero_state
from ldectl.policy import PolicyConfig, logprob_grad_mu, reward, sample_action
from ldectl.rng import stream
from ldectl.runner import RunConfig, Termination, run_baseline, run_lde
from ldectl.state_feat import histogram, normalize_fitness
from ldectl.stats import aps_rank, ranksum_test
from ldectl.trainer import TrainConfig, sample_trajectory, train

DESK_SEEDS = 5
DESK_DIM = 10
DESK_TRAIN_FNS = 6
DESK_TEST_FNS = 8
EVAL_STARTS = 10


def _line(criterion, ok, detail):
    text = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(text)
    return text


# ---------------------------------------------------------------- 1
def test_criterion_1_gradient_correctness(capsys):
    t0 = time.perf_counter()
    report = neural.run_gradcheck(hidden=8, actions=4, bins=1, steps=5,
                                  eps=1e-6, threshold=1e-4, seed=0)
    code = main(["gradcheck"])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    ok = report.passed and report.max_rel_err < 1e-4 and code == 0 and elapsed < 10.0
    line = _line(1, ok, f"max rel err {report.max_rel_err:.3e} < 1e-4, "
                 f"exit {code}, {elapsed:.1f}s < 10s")
    assert ok, line


# ---------------------------------------------------------------- 2
def _bandit_final_mu(seed, sigma=0.1, alpha=0.05, updates=4000, tail=2000):
    """One-step scalar REINFORCE on reward -(a - 0.7)^2, mu as the parameter.

    Constant-step stochastic ascent hovers around the optimum, so the
    converged location is read off as the mean over the last `tail` iterates.
    """
    cfg = PolicyConfig(sigma=sigma)
    rng = np.random.default_rng(seed)
    mu = 0.5
    hist = []
    for _ in range(updates):
        a = float(rng.normal(mu, cfg.sigma))
        r = -((a - 0.7) ** 2)
        mu += alpha * r * (a - mu) / cfg.sigma ** 2
        hist.append(mu)
    return float(np.mean(hist[-tail:]))


def test_criterion_2_policy_gradient_bandit():
    t0 = time.perf_counter()
    finals = [_bandit_final_mu(seed) for seed in range(10)]
    hits = sum(abs(mu - 0.7) < 0.05 for mu in finals)
    elapsed = time.perf_counter() - t0
    ok = hits >= 9 and elapsed < 30.0
    line = _line(2, ok, f"|mu - 0.7| < 0.05 in {hits}/10 seeds "
                 f"(need >= 9), {elapsed:.1f}s < 30s")
    assert ok, line


# ---------------------------------------------------------------- 3 & 4
def _eval_return(w, functions, cfg):
    """Mean return of w over a held-fixed evaluation set.

    EVAL_STARTS start populations, each rolled out cfg.rollouts times on
    every function.  The streams are labelled "eval" and so are disjoint
    from the training streams; any two weight sets evaluated with the
    same cfg.seed see the same start populations and the same streams.
    """
    lo, hi = functions[0].bounds
    returns = []
    for e in range(EVAL_STARTS):
        members = stream(cfg.seed, "eval", e, "init").uniform(
            lo, hi, size=(cfg.pop_size, functions[0].dim))
        for k, f in enumerate(functions):
            pop0 = Population(members[None], f.evaluate_batch(members)[None], 0)
            returns.extend(sample_trajectory(
                w, f, pop0, cfg,
                [stream(cfg.seed, "eval", e, "traj", k, l) for l in range(cfg.rollouts)],
            ).total_return)
    return float(np.mean(returns))


@pytest.fixture(scope="session")
def desk_training():
    """Train the controller at the pinned small scale for five master seeds,
    and evaluate the initial and the trained weights on one evaluation set."""
    out = {}
    t0 = time.perf_counter()
    for seed in range(DESK_SEEDS):
        suite = make_suite(seed, DESK_DIM, DESK_TRAIN_FNS, DESK_TEST_FNS)
        cfg = TrainConfig(seed=seed, n_functions=DESK_TRAIN_FNS)
        w0, _ = train(suite.train, dataclasses.replace(cfg, epochs=0))
        w, rows = train(suite.train, cfg)
        per_epoch = np.asarray(
            [r["mean_return"] for r in rows]
        ).reshape(cfg.epochs, DESK_TRAIN_FNS).mean(axis=1)
        out[seed] = {"suite": suite, "weights": w, "epoch_means": per_epoch,
                     "initial_return": _eval_return(w0, suite.train, cfg),
                     "trained_return": _eval_return(w, suite.train, cfg)}
    out["train_seconds"] = time.perf_counter() - t0
    return out


def test_criterion_3_training_improves_return(desk_training):
    # Paired: the same evaluation streams for the initial and the trained
    # weights.  The log statistic (epochs 51-60 against 1-10) is printed
    # alongside but not asserted: each epoch draws its own start
    # population, so with the weights frozen it already "wins" on 2 of 5
    # seeds from the draws alone.
    details = []
    wins = 0
    for seed in range(DESK_SEEDS):
        d = desk_training[seed]
        before, after = d["initial_return"], d["trained_return"]
        wins += after > before
        em = d["epoch_means"]
        details.append(f"seed {seed}: {before:.4f}->{after:.4f} ({after - before:+.4f}; "
                       f"log {em[:10].mean():.4f}->{em[-10:].mean():.4f})")
    elapsed = desk_training["train_seconds"]
    ok = wins >= 4 and elapsed < 1200.0
    line = _line(3, ok, f"trained beats initial weights on held-fixed evaluation "
                 f"streams in {wins}/5 seeds (need >= 4); {'; '.join(details)}; "
                 f"{elapsed:.0f}s < 1200s")
    assert ok, line


def test_criterion_4_learned_beats_random_params(desk_training):
    suite = desk_training[0]["suite"]
    w = desk_training[0]["weights"]
    term = Termination(max_evals=DESK_DIM * 10_000)
    cfg = RunConfig()
    runs = 11
    t0 = time.perf_counter()
    wins = ties = 0
    details = []
    for f in suite.test:
        lde = [run_lde(w, f, term, cfg,
                       stream(0, "run", "lde", f.id, r), r).best_error
               for r in range(runs)]
        rnd = [run_baseline("random_params", f, term, cfg,
                            stream(0, "run", "random_params", f.id, r), r).best_error
               for r in range(runs)]
        lm, rm = float(np.median(lde)), float(np.median(rnd))
        # runs stop at error_tol; a difference below it is overshoot
        tie = max(lm, rm) <= term.error_tol
        ties += tie
        wins += lm < rm and not tie
        details.append(f"{f.id}: {lm:.3e} vs {rm:.3e}{' (tie)' if tie else ''}")
    elapsed = time.perf_counter() - t0
    ok = wins >= 5 and elapsed < 1800.0
    line = _line(4, ok, f"learned optimizer beats random_params on {wins}/8 "
                 f"held-out functions, {ties} tied at or below the tolerance "
                 f"(need >= 5 wins); {'; '.join(details)}; {elapsed:.0f}s < 1800s")
    assert ok, line


# ---------------------------------------------------------------- 5
def _de_core_cases():
    rng = stream(2026, "accept", "de")
    lo, hi = -5.0, 5.0

    def fit_of(M):
        return np.sum(M * M, axis=-1)

    X = rng.uniform(lo, hi, (1, 100, 8))  # a batch of one
    pop = Population(X, fit_of(X))
    cases = 0
    for _ in range(100):
        sheet = ParamSheet(rng.uniform(0.05, 1.0, (1, pop.size)),
                           rng.uniform(0.0, 1.0, (1, pop.size)))
        check_sheet_ranges(sheet)
        mut = mutate_current_to_pbest(pop, sheet, 0.11, [rng])
        assert np.all(np.isfinite(mut))
        trials = binomial_crossover_batch(pop.members, mut, sheet.CR, [rng])
        from_target = trials == pop.members
        from_mutant = trials == mut
        assert np.all(from_target | from_mutant)
        assert np.all(from_mutant.any(axis=-1))  # forced mutant coordinate
        repaired = repair_bounds(trials, (lo, hi))
        assert np.all(repaired >= lo) and np.all(repaired <= hi)
        tf = fit_of(repaired)
        new = select(pop, repaired, tf)
        assert np.all(new.fitness <= pop.fitness)
        assert np.all(new.fitness == np.minimum(pop.fitness, tf))
        cases += pop.size
        pop = new
    return cases


def _state_feat_cases():
    rng = stream(2026, "accept", "sf")
    cases = 0
    for _ in range(10_000):
        fit = rng.normal(0.0, 100.0, int(rng.integers(2, 41)))
        z = normalize_fitness(fit[None])
        assert z.min() == 0.0 and z.max() == 1.0
        assert np.all((z >= 0.0) & (z <= 1.0))
        bins = int(rng.integers(1, 9))
        h = histogram(z, bins)
        assert h.shape == (1, bins) and np.all(h >= 0.0)
        assert np.isclose(h.sum(), 1.0, rtol=0.0, atol=1e-12)
        cases += 1
    return cases


def _policy_cases():
    rng = stream(2026, "accept", "pol")
    cfg = PolicyConfig(sigma=0.1, f_min=1e-3)
    cases = 0
    for _ in range(10_000):
        mu = rng.uniform(-0.5, 1.5, (1, 6))
        act = sample_action(mu, cfg, [rng])
        assert np.all((act.F >= cfg.f_min) & (act.F <= 1.0))
        assert np.all((act.CR >= 0.0) & (act.CR <= 1.0))
        g = logprob_grad_mu(act, mu, cfg)
        assert np.allclose(g, (act.raw - mu) / cfg.sigma ** 2)
        err_prev = float(rng.uniform(0.0, 10.0))
        r = reward(err_prev, err_prev * float(rng.uniform(0.0, 1.0)))
        assert 0.0 <= r <= 1.0
        cases += 1
    return cases


def _benchfn_cases():
    rng = stream(2026, "accept", "bf")
    suite = make_suite(2026, 6, 8, 8)
    cases = 0
    for inst in suite.train + suite.test:
        assert inst.evaluate(inst.shift) == inst.f_star  # exact optimum
        lo, hi = inst.bounds
        X = rng.uniform(lo, hi, (625, inst.dim))
        fx = inst.evaluate_batch(X)
        assert np.all(np.isfinite(fx))
        assert np.all(fx >= inst.f_star)  # shifted optimum is global
        assert all(error_value(inst, v) >= 0.0 for v in fx[:5])
        cases += X.shape[0]
    return cases


def test_criterion_5_operator_invariant_sweep():
    t0 = time.perf_counter()
    counts = {
        "de_core": _de_core_cases(),
        "state_feat": _state_feat_cases(),
        "policy": _policy_cases(),
        "benchfn": _benchfn_cases(),
    }
    elapsed = time.perf_counter() - t0
    ok = all(c == 10_000 for c in counts.values()) and elapsed < 120.0
    line = _line(5, ok, f"cases {counts}, {elapsed:.0f}s < 120s")
    assert ok, line


# ---------------------------------------------------------------- 6
def _oracle_exact_p(a, b):
    pooled = np.concatenate([np.asarray(a, float), np.asarray(b, float)])
    ranks = sps.rankdata(pooled)
    n = len(a)
    mean_w = n * (len(pooled) + 1) / 2.0
    dev = abs(ranks[:n].sum() - mean_w) - 1e-9
    hits = total = 0
    for combo in itertools.combinations(range(len(pooled)), n):
        total += 1
        if abs(ranks[list(combo)].sum() - mean_w) >= dev:
            hits += 1
    return hits / total


def test_criterion_6_ranksum_oracle_equivalence():
    pinned = ranksum_test([1, 2, 3], [4, 5, 6])
    assert pinned.method == "exact" and pinned.p_value == 0.1

    rng = np.random.default_rng(606)
    sizes = list(itertools.product(range(1, 9), range(1, 9)))  # all pairs <= (8,8)
    while len(sizes) < 200:
        sizes.append((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    checked = 0
    for k, (n, m) in enumerate(sizes):
        if k % 2:
            a = rng.integers(0, 5, n).astype(float)  # heavy ties
            b = rng.integers(0, 5, m).astype(float)
        else:
            a = rng.normal(size=n)
            b = rng.normal(size=m)
        res = ranksum_test(a, b)
        assert res.method == "exact"
        assert res.p_value == pytest.approx(_oracle_exact_p(a, b), rel=1e-12)
        checked += 1
    ok = checked == 200
    line = _line(6, ok, f"{checked}/200 seeded datasets match the enumeration "
                 f"oracle; pinned case p = {pinned.p_value}")
    assert ok, line


# ---------------------------------------------------------------- 7
def test_criterion_7_aps_dominance_chain():
    base = [float(i) for i in range(11)]
    per_fn = {
        "first": base,
        "second": [v + 100.0 for v in base],
        "third": [v + 200.0 for v in base],
    }
    scores = aps_rank({"f0": dict(per_fn), "f1": dict(per_fn)})
    ok = scores == {"first": 0.0, "second": 1.0, "third": 2.0}
    line = _line(7, ok, f"dominance chain APS {scores}")
    assert ok, line


# ---------------------------------------------------------------- 8
def _tree_bytes(root):
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_8_jobs_and_rerun_reproducibility(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    tiny_train = ["--epochs", "2", "--rollouts", "2", "--horizon", "3",
                  "--pop-size", "6", "--bins", "2", "--window", "2",
                  "--hidden", "4"]

    def pipeline(tag, jobs):
        assert main(["suite", "--dim", "3", "--train", "2", "--test", "2",
                     "--seed", "1", "--out", f"{tag}/suite"]) == 0
        assert main(["train", *tiny_train, "--seed", "1", "--jobs", jobs,
                     "--suite", f"{tag}/suite", "--out", f"{tag}/trained"]) == 0
        assert main(["run", "--weights", f"{tag}/trained/weights.bin",
                     "--instances", f"{tag}/suite", "--role", "test",
                     "--runs", "3", "--budget", "120", "--seed", "1",
                     "--jobs", jobs, "--out", f"{tag}/runs"]) == 0
        assert main(["compare", "--results", f"{tag}/runs/results.csv",
                     "--out", f"{tag}/cmp"]) == 0
        capsys.readouterr()
        return _tree_bytes(tmp_path / tag)

    first = pipeline("a", "1")
    rerun = pipeline("b", "1")
    parallel = pipeline("c", "4")
    ok = first == rerun == parallel
    line = _line(8, ok, f"{len(first)} output files byte-identical across "
                 f"rerun and --jobs 1 vs 4")
    assert ok, line


# ---------------------------------------------------------------- 9
def test_criterion_9_controller_cost_scaling():
    N, b = 2, 1
    D = N + 2 * b
    sizes = (16, 32, 64, 128)
    costs = []
    for H in sizes:
        w = init_weights(H, D, N, stream(9, "mac", H))
        x = stream(9, "x", H).normal(0.0, 1.0, (1, D))
        with count_macs() as counter:
            forward_step(w, x, zero_state(H, 1))
        assert counter.total == 4 * H * (H + D) + 2 * N * H
        costs.append(counter.total)
    slope = float(np.polyfit(np.log(sizes), np.log(costs), 1)[0])
    ok = 1.8 <= slope <= 2.2
    line = _line(9, ok, f"per-generation cost log-log slope over H={sizes} "
                 f"is {slope:.3f} (need within [1.8, 2.2])")
    assert ok, line
