"""Population-state featurisation fed to the controller.

Per generation the controller sees the min-max normalised fitness
vector, its b-bin frequency histogram, and a moving average of the
histograms from the preceding g generations (zeros at the start, the
mean of whatever is available before the window fills).  Every function
takes a leading batch axis, one row per population of a
``de_core.Population`` batch, and computes each row exactly as it would
alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


def normalize_fitness(fitness) -> np.ndarray:
    """Min-max normalise each row onto [0, 1]; a flat row maps to all zeros."""
    f = np.asarray(fitness, dtype=float)
    if f.ndim != 2 or f.size == 0:
        raise ValueError("fitness must be a non-empty 2-D array (batch, members)")
    lo = f.min(axis=1, keepdims=True)
    span = f.max(axis=1, keepdims=True) - lo
    return np.divide(f - lo, span, out=np.zeros_like(f), where=span != 0.0)


def histogram(norm_fitness, bins: int) -> np.ndarray:
    """Equal-width frequency histogram of each row over [0, 1], last bin
    right-inclusive; shape (B, bins)."""
    v = np.asarray(norm_fitness, dtype=float)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    B, N = v.shape
    idx = np.minimum((v * bins).astype(int), bins - 1)
    if B > 1:  # one bincount over row-offset bins
        idx += bins * np.arange(B)[:, None]
    counts = np.bincount(idx.ravel(), minlength=B * bins).astype(float)
    return counts.reshape(B, bins) / N


class HistRing:
    """Ring buffer holding the last g histogram batches."""

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._buf = deque(maxlen=window)

    def __len__(self):
        return len(self._buf)

    def update_and_average(self, hist) -> np.ndarray:
        """Average of the buffered histograms, then push ``hist``.

        The average never includes the histogram being inserted: an empty
        buffer yields zeros, a partially filled one the mean of what is
        there.
        """
        hist = np.asarray(hist, dtype=float)
        if self._buf:
            # (B, g, bins): each row averages its own contiguous block, as
            # a lone row's (g, bins) stack would
            avg = np.mean(np.stack(self._buf, axis=1), axis=1)
        else:
            avg = np.zeros_like(hist)
        self._buf.append(hist.copy())
        return avg


@dataclass
class StateInput:
    """One generation's controller input, one row per population."""

    norm_fitness: np.ndarray
    hist: np.ndarray
    hist_avg: np.ndarray

    @property
    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.norm_fitness, self.hist, self.hist_avg], axis=1)


def assemble_state(pop, ring: HistRing, bins: int) -> StateInput:
    """Featurise a population batch and advance the histogram ring."""
    norm = normalize_fitness(pop.fitness)
    hist = histogram(norm, bins)
    return StateInput(norm_fitness=norm, hist=hist, hist_avg=ring.update_and_average(hist))
