"""Population-state featurisation fed to the controller.

Per generation the controller sees the min-max normalised fitness
vector, its b-bin frequency histogram, and a moving average of the
histograms from the preceding g generations (zeros at the start, the
mean of whatever is available before the window fills), laid end to end
in one row: ``assemble_state`` returns that (B, N + 2b) array.  Every
function takes a leading batch axis, one row per population of a
``de_core.Population`` batch, and computes each row exactly as it would
alone.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

import numpy as np

_TINY = np.nextafter(0.0, 1.0)  # the least positive subnormal


def normalize_fitness(fitness) -> np.ndarray:
    """Min-max normalise each row onto [0, 1]; a flat row maps to all zeros."""
    f = np.asarray(fitness, dtype=float)
    if f.ndim != 2 or f.size == 0:
        raise ValueError("fitness must be a non-empty 2-D array (batch, members)")
    lo = np.minimum.reduce(f, axis=1, keepdims=True)
    span = np.maximum.reduce(f, axis=1, keepdims=True) - lo
    # a flat row (f - lo == 0) divides by the least subnormal instead; one
    # that mixes -0.0 and +0.0, which no objective yields, keeps its -0.0
    return (f - lo) / np.maximum(span, _TINY)


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
        buf = self._buf
        # summed oldest first: np.mean's order over a stacked window axis (at
        # one bin it sums 8 or more pairwise, but a histogram's bin holds 1.0)
        avg = sum(islice(buf, 1, None), buf[0]) / len(buf) if buf else np.zeros(hist.shape)
        buf.append(hist.copy())
        return avg


def assemble_state(pop, ring: HistRing, bins: int) -> np.ndarray:
    """Featurise a population batch and advance the histogram ring.

    Returns the controller input, shape (B, N + 2 * bins): each row is the
    normalised fitness, then the histogram, then the ring's average.
    """
    norm = normalize_fitness(pop.fitness)
    hist = histogram(norm, bins)
    return np.concatenate([norm, hist, ring.update_and_average(hist)], axis=1)
