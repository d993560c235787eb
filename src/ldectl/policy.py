"""The controller spec, the Gaussian action head, and the reward.

Actions are raw draws from N(mu, sigma^2) in 2N dimensions; the first
half maps to scale factors (clipped into [f_min, 1]), the second half
to crossover rates (clipped into [0, 1]).  Log-density gradients always
use the raw, pre-clip sample.  The per-generation reward is the
relative drop of the population's best error value, which lands in
[0, 1] under elitist selection regardless of the function's scale.

Actions, head means and rewards carry a leading batch axis, one row per
rollout; each row's normals come from its own generator.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .de_core import ParamSheet
from .errors import ConsistencyError


@dataclass
class PolicyConfig:
    """The settings a controller is trained and run with.

    A policy only carries over to new functions when it sees the same
    featurisation (N fitness values, b-bin histograms averaged over g
    generations) and samples from the same action distribution, so these
    defaults are the single source for training, running and the weight
    manifest.  sigma = 0.3 is near the 0.29 std of a U[0, 1] draw; at 0.1
    the score-function noise (which grows as 1/sigma) swamped the
    learning signal at desk scale.
    """

    pop_size: int = 20
    bins: int = 5
    window: int = 5
    sigma: float = 0.3
    p_best: float = 0.05
    f_min: float = 1e-3

    def __post_init__(self):
        if self.pop_size < 4:
            raise ValueError(f"pop_size must be >= 4, got {self.pop_size}")
        if self.bins < 1 or self.window < 1:
            raise ValueError("bins and window must be >= 1")
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0.0 < self.p_best <= 1.0:
            raise ValueError(f"p_best must lie in (0, 1], got {self.p_best}")
        if not 0.0 < self.f_min < 1.0:
            raise ValueError(f"f_min must lie in (0, 1), got {self.f_min}")

    @property
    def input_size(self) -> int:
        """Controller input length D = N + 2b."""
        return self.pop_size + 2 * self.bins

    def spec_dict(self) -> dict:
        """The spec fields alone, as a weight manifest records them."""
        return {f.name: getattr(self, f.name) for f in fields(PolicyConfig)}

    def check_weights(self, w) -> None:
        """Refuse weights built for another population size or featurisation."""
        if w.actions != self.pop_size:
            raise ValueError(
                f"weights control {w.actions} individuals but pop_size is {self.pop_size}")
        if w.input_size != self.input_size:
            raise ValueError(
                f"weights expect input {w.input_size}, featurisation yields {self.input_size}")


@dataclass
class Action(ParamSheet):
    """One generation's sampled parameters, one row per rollout: the sheet
    F (B, N), raw[:, :N] clipped into [f_min, 1], and CR (B, N), raw[:, N:]
    clipped into [0, 1], with the pre-clip Gaussian sample raw (B, 2N)."""

    raw: np.ndarray


def sample_action(mu, cfg: PolicyConfig, z) -> Action:
    """raw = mu + sigma * z, a draw from N(mu, sigma^2) per row, with the
    two halves clipped into range.

    z holds each row's standard normals, drawn from the row's generator
    (``de_core.DrawSource``, Box-Muller on its raw outputs).
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2 or mu.shape[1] % 2 != 0 or mu.shape[1] == 0:
        raise ValueError(f"mu must be 2-D with even row length, got shape {mu.shape}")
    if np.shape(z) != mu.shape:
        raise ValueError(f"need one normal per head mean: z {np.shape(z)} for mu {mu.shape}")
    return clip_action(mu + cfg.sigma * z, cfg)


def clip_action(raw, cfg: PolicyConfig) -> Action:
    """Map raw (B, 2N) rows onto parameters: F into [f_min, 1], CR into [0, 1].

    np.clip's values, but for a -0.0, which it keeps and this makes +0.0;
    raw never holds one (mu > 0, and mu + sigma * z rounds a zero to +0.0).
    """
    n = raw.shape[1] // 2
    unit = np.minimum(np.maximum(raw, 0.0), 1.0)
    return Action(raw=raw, F=np.maximum(unit[:, :n], cfg.f_min), CR=unit[:, n:])


def logprob_grad_mu(action: Action, mu, cfg: PolicyConfig) -> np.ndarray:
    """Gradient of ln N(raw | mu, sigma^2) with respect to mu: (raw - mu) / sigma^2."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != action.raw.shape:
        raise ValueError("mu and action must have matching shape")
    return (action.raw - mu) / (cfg.sigma ** 2)


def reward(err_prev, err_next):
    """Relative best-error improvement, elementwise over rollouts; 0 when
    stalled or already at zero."""
    err_prev = np.asarray(err_prev, dtype=float)
    err_next = np.asarray(err_next, dtype=float)
    worse = err_next > err_prev + 1e-9
    if np.any(worse):
        raise ConsistencyError(
            f"best error worsened from {err_prev[worse].flat[0]} to {err_next[worse].flat[0]};"
            " selection is elitist"
        )
    r = (err_prev - err_next) / (err_prev + 1e-12)
    return np.where(r > 0.0, r, 0.0)


def trajectory_return(rewards):
    """Undiscounted sum of per-generation rewards over the last axis."""
    return np.sum(np.asarray(rewards, dtype=float), axis=-1)
