"""Shared test helpers: scripted random streams, an evaluation counter, a
parameter-range check, and hypothesis settings."""

import numpy as np
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


class ScriptedRng:
    """Replays pre-written draws in the documented operator draw order.

    ``ints`` feeds successive ``integers`` calls, ``uniforms`` successive
    ``random`` calls, ``normals`` successive standard-normal draws consumed
    through ``standard_normal(size)`` or ``normal(mu, sigma)``.  Exhausting
    a script is an error: tests pin the exact number of draws an operator
    makes.
    """

    def __init__(self, ints=(), uniforms=(), normals=()):
        self._ints = [np.asarray(a) for a in ints]
        self._uniforms = [np.asarray(a, dtype=float) for a in uniforms]
        self._normals = [np.asarray(a, dtype=float) for a in normals]

    def integers(self, low, high, size=None):
        draw = self._ints.pop(0)
        assert draw.shape == ((size,) if np.isscalar(size) else tuple(size or ())), \
            f"scripted integer draw shape {draw.shape} != requested {size}"
        assert np.all((low <= draw) & (draw < high)), "scripted draw out of range"
        return draw

    def random(self, size=None):
        draw = self._uniforms.pop(0)
        want = (size,) if np.isscalar(size) else tuple(size or ())
        assert draw.shape == want, f"scripted uniform shape {draw.shape} != {want}"
        return draw

    def standard_normal(self, size=None):
        draw = self._normals.pop(0)
        want = (size,) if np.isscalar(size) else tuple(size or ())
        assert draw.shape == want, f"scripted normal shape {draw.shape} != {want}"
        return draw

    def normal(self, loc, scale):
        z = self._normals.pop(0)
        return np.asarray(loc, dtype=float) + scale * z

    def exhausted(self) -> bool:
        return not (self._ints or self._uniforms or self._normals)


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
