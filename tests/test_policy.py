"""Controller spec and Gaussian action head: validation, sampling,
log-density gradients, reward shape."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import ScriptedRng, check_sheet_ranges
from ldectl.errors import ConsistencyError
from ldectl.policy import (
    Action,
    PolicyConfig,
    logprob_grad_mu,
    reward,
    sample_action,
    trajectory_return,
)
from ldectl.runner import RunConfig
from ldectl.trainer import TrainConfig


CFG = PolicyConfig(sigma=0.1, f_min=1e-3)  # the examples below are worked at sigma = 0.1


# ---------------------------------------------------------------- sampling
def test_sample_pinned_standard_normal_draw():
    rng = ScriptedRng(normals=[np.full(2, 2.0)])  # z = 2 everywhere
    action = sample_action(np.array([[0.5, 0.5]]), CFG, [rng])
    np.testing.assert_allclose(action.raw, [[0.7, 0.7]], atol=1e-15)
    np.testing.assert_allclose(action.F, [[0.7]], atol=1e-15)
    np.testing.assert_allclose(action.CR, [[0.7]], atol=1e-15)


def test_sample_draws_each_row_from_its_own_generator():
    rngs = [ScriptedRng(normals=[np.full(2, 1.0)]), ScriptedRng(normals=[np.full(2, -1.0)])]
    action = sample_action(np.full((2, 2), 0.5), CFG, rngs)
    np.testing.assert_allclose(action.raw, [[0.6, 0.6], [0.4, 0.4]], atol=1e-15)
    assert all(r.exhausted() for r in rngs)


def test_sample_degenerate_sigma_returns_clamped_mu():
    cfg = PolicyConfig(sigma=1e-12)
    mu = np.array([[0.3, 0.8, 0.1, 0.9]])
    action = sample_action(mu, cfg, [np.random.default_rng(0)])
    np.testing.assert_allclose(action.F, mu[:, :2], atol=1e-9)
    np.testing.assert_allclose(action.CR, mu[:, 2:], atol=1e-9)


def test_sample_clips_f_to_f_min():
    cfg = PolicyConfig(sigma=0.1, f_min=0.01)
    rng = ScriptedRng(normals=[np.array([-8.0, 0.0])])  # raw F = -0.3
    action = sample_action(np.array([[0.5, 0.5]]), cfg, [rng])
    assert action.raw[0, 0] == pytest.approx(-0.3)  # stored pre-clip
    assert action.F[0, 0] == 0.01


def test_sample_halves_map_to_f_then_cr():
    rng = ScriptedRng(normals=[np.zeros(6)])
    mu = np.array([[0.2, 0.3, 0.4, 0.6, 0.7, 0.8]])
    action = sample_action(mu, CFG, [rng])
    np.testing.assert_array_equal(action.F, mu[:, :3])
    np.testing.assert_array_equal(action.CR, mu[:, 3:])


def test_sample_validates_mu_shape():
    with pytest.raises(ValueError):
        sample_action(np.zeros((1, 3)), CFG, [np.random.default_rng(0)])  # odd length
    with pytest.raises(ValueError):
        sample_action(np.zeros(2), CFG, [np.random.default_rng(0)])  # no batch axis
    with pytest.raises(ValueError):
        sample_action(np.zeros((2, 2)), CFG, [np.random.default_rng(0)])  # one generator


@given(st.integers(0, 500), st.sampled_from([0.05, 0.1, 0.2]))
def test_sample_ranges_always_hold(seed, sigma):
    cfg = PolicyConfig(sigma=sigma)
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0, 1, (1, 8))
    action = sample_action(mu, cfg, [rng])
    assert np.all(action.F >= cfg.f_min) and np.all(action.F <= 1.0)
    assert np.all(action.CR >= 0.0) and np.all(action.CR <= 1.0)
    np.testing.assert_array_equal(action.F, np.clip(action.raw[:, :4], cfg.f_min, 1.0))
    np.testing.assert_array_equal(action.CR, np.clip(action.raw[:, 4:], 0.0, 1.0))


# one spec, validated once: every config that extends it rejects the same
# settings, and TrainConfig adds its own
SPEC_REJECTS = [dict(pop_size=3), dict(bins=0), dict(window=0), dict(sigma=0.0),
                dict(p_best=0.0), dict(p_best=1.5), dict(f_min=0.0), dict(f_min=1.0)]
OWN_REJECTS = {
    TrainConfig: [dict(epochs=-1), dict(horizon=-1), dict(rollouts=0), dict(hidden=0),
                  dict(alpha=-0.1), dict(n_functions=0)],
}


@pytest.mark.parametrize("cls", [PolicyConfig, TrainConfig, RunConfig],
                         ids=lambda cls: cls.__name__)
def test_config_rejects_bad_settings(cls):
    for bad in SPEC_REJECTS + OWN_REJECTS.get(cls, []):
        with pytest.raises(ValueError):
            cls(**bad)
    assert cls().input_size == 20 + 2 * 5


# ---------------------------------------------------------------- gradient
def test_logprob_grad_examples():
    mu = np.full((1, 2), 0.5)
    at_mode = Action(raw=mu.copy(), F=np.array([[0.5]]), CR=np.array([[0.5]]))
    np.testing.assert_array_equal(logprob_grad_mu(at_mode, mu, CFG), [[0.0, 0.0]])

    one_sigma = Action(raw=np.array([[0.6, 0.5]]), F=np.array([[0.6]]), CR=np.array([[0.5]]))
    np.testing.assert_allclose(logprob_grad_mu(one_sigma, mu, CFG), [[1.0 / 0.1, 0.0]])

    off = Action(raw=np.array([[0.8, 0.5]]), F=np.array([[0.8]]), CR=np.array([[0.5]]))
    assert logprob_grad_mu(off, mu, CFG)[0, 0] == pytest.approx(30.0)


def test_logprob_grad_uses_raw_not_clipped():
    mu = np.full((1, 2), 0.5)
    action = sample_action(mu, CFG, [ScriptedRng(normals=[np.array([8.0, -8.0])])])
    assert action.F[0, 0] == 1.0 and action.CR[0, 0] == 0.0  # both clipped
    np.testing.assert_allclose(logprob_grad_mu(action, mu, CFG),
                               [[0.8 / 0.01, -0.8 / 0.01]])


def test_logprob_grad_shape_mismatch():
    action = Action(raw=np.zeros((1, 4)), F=np.zeros((1, 2)), CR=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        logprob_grad_mu(action, np.zeros((1, 2)), CFG)


def test_action_sheet_round_trip():
    action = Action(raw=np.array([[0.4, 0.6]]), F=np.array([[0.4]]), CR=np.array([[0.6]]))
    sheet = action.sheet()
    np.testing.assert_array_equal(sheet.F, [[0.4]])
    np.testing.assert_array_equal(sheet.CR, [[0.6]])
    check_sheet_ranges(sheet)


# ---------------------------------------------------------------- reward
def test_reward_examples():
    # (10 - 5) / (10 + 1e-12): the epsilon guard shifts 0.5 by ~5e-14
    assert reward(10.0, 5.0) == pytest.approx(0.5, rel=1e-12)
    assert reward(3.0, 3.0) == 0.0
    assert reward(0.0, 0.0) == 0.0  # epsilon guard at the optimum


def test_reward_worsening_raises():
    with pytest.raises(ConsistencyError):
        reward(1.0, 1.1)


def test_reward_tolerates_tiny_float_worsening():
    assert reward(1.0, 1.0 + 0.9e-9) == 0.0


def test_reward_is_elementwise_over_rollouts():
    np.testing.assert_array_equal(reward(np.array([10.0, 3.0, 1.0]),
                                         np.array([5.0, 3.0, 1.0 + 0.9e-9])),
                                  [(10.0 - 5.0) / (10.0 + 1e-12), 0.0, 0.0])
    with pytest.raises(ConsistencyError):
        reward(np.array([1.0, 1.0]), np.array([0.5, 1.1]))


@given(st.floats(1e-8, 1e8), st.floats(0.0, 1.0))
def test_reward_lies_in_unit_interval(err_prev, frac):
    err_next = err_prev * frac
    r = reward(err_prev, err_next)
    assert 0.0 <= r <= 1.0
    if err_next == err_prev:
        assert r == 0.0


def test_trajectory_return_examples():
    assert trajectory_return([0.5, 0.25]) == 0.75
    assert trajectory_return([]) == 0.0
    assert trajectory_return([0.125]) == 0.125
    np.testing.assert_array_equal(trajectory_return([[0.5, 0.25], [0.125, 0.0]]),
                                  [0.75, 0.125])


# ---------------------------------------------------------------- bandit
def _bandit_final_mu(seed, sigma, alpha=0.05, updates=4000, tail=2000):
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


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.2])
def test_bandit_gradient_points_toward_target(sigma):
    # shorter sweep companion to the acceptance harness: 3 seeds per sigma
    for seed in range(3):
        assert abs(_bandit_final_mu(seed, sigma) - 0.7) < 0.05
