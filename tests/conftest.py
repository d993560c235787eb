"""Shared test helpers: an evaluation counter, a parameter-range check,
the brute-force rank-sum oracle, a training call that keeps its log
rows, and hypothesis settings."""

import itertools

import numpy as np
from hypothesis import HealthCheck, settings
from scipy import stats as sps

from ldectl.trainer import train

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


class EvalCounter:
    """Wraps an instance and counts evaluations (one per row in a batch)."""

    def __init__(self, inst):
        self.inst = inst
        self.count = 0

    def evaluate(self, x):
        self.count += 1
        return self.inst.evaluate(x)

    def evaluate_batch(self, X):
        self.count += np.asarray(X).shape[0]
        return self.inst.evaluate_batch(X)

    def __getattr__(self, name):
        return getattr(self.inst, name)


def check_sheet_ranges(sheet):
    """Range check of a ParamSheet: F in (0, 1], CR in [0, 1]."""
    if np.any(sheet.F <= 0.0) or np.any(sheet.F > 1.0):
        raise ValueError("F entries must lie in (0, 1]")
    if np.any(sheet.CR < 0.0) or np.any(sheet.CR > 1.0):
        raise ValueError("CR entries must lie in [0, 1]")


def oracle_exact_p(a, b):
    """Brute force: midranks via scipy, tail mass of |W - E[W]| >= observed."""
    pooled = np.concatenate([np.asarray(a, float), np.asarray(b, float)])
    ranks = sps.rankdata(pooled)
    n = len(a)
    mean_w = n * (len(pooled) + 1) / 2.0
    w_obs = ranks[:n].sum()
    dev = abs(w_obs - mean_w) - 1e-9
    hits = total = 0
    for combo in itertools.combinations(range(len(pooled)), n):
        total += 1
        if abs(ranks[list(combo)].sum() - mean_w) >= dev:
            hits += 1
    return w_obs, hits / total


def train_logged(functions, cfg, **kwargs):
    """trainer.train's weights and every log row it passed to on_epoch."""
    rows = []
    w = train(functions, cfg, on_epoch=lambda epoch, weights, epoch_rows: rows.extend(epoch_rows),
              **kwargs)
    return w, rows
