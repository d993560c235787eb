"""Deterministic random-stream splitting.

Every random draw in the package flows from one master seed through a
named stream.  A stream is addressed by a path of labels, e.g.

    stream(seed, "suite")                  instance generation
    stream(seed, "weights")                controller initialisation
    stream(seed, "epoch", e, "init")       shared population for epoch e
    stream(seed, "epoch", e, "traj", k, l) rollout l on function k in epoch e
    stream(seed, "run", alg, fn, r)        independent run r of alg on fn

Labels are hashed to 32-bit words and fed to numpy's SeedSequence as a
spawn key, so streams are independent, reproducible, and do not depend
on the order in which they are created.  That last property is what
makes worker-pool scheduling irrelevant to the results.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=1024)  # a run's labels are a few purposes, algorithms and functions
def _text_word(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def _label_word(label) -> int:
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"stream labels must be non-negative, got {label}")
        return int(label)
    return _text_word(str(label))


def stream(master_seed: int, *path) -> np.random.Generator:
    """Return the generator for the stream addressed by ``path``."""
    # built from a list: tuple() of a generator shrinks an over-allocated
    # tuple, which leaves one tuple per call in CPython's free list
    key = tuple([_label_word(p) for p in path])
    # what default_rng does with a SeedSequence, without its type checks
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=key)))
