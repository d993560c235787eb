"""Seed-stream addressing: per-purpose generators must be stable and disjoint."""

import hashlib

import numpy as np
import pytest

from ldectl.rng import stream


def test_same_path_same_sequence():
    a = stream(0, "epoch", 3, "traj", 1, 2).random(8)
    b = stream(0, "epoch", 3, "traj", 1, 2).random(8)
    np.testing.assert_array_equal(a, b)


def test_distinct_labels_distinct_sequences():
    draws = {
        name: tuple(stream(0, *path).random(4))
        for name, path in {
            "weights": ("weights",),
            "suite": ("suite", "train", 0),
            "init": ("epoch", 0, "init"),
            "traj": ("epoch", 0, "traj", 0, 0),
        }.items()
    }
    assert len(set(draws.values())) == len(draws)


def test_distinct_master_seeds_differ():
    a = stream(0, "weights").random(4)
    b = stream(1, "weights").random(4)
    assert not np.array_equal(a, b)


def test_integer_labels_not_conflated_with_strings():
    assert not np.array_equal(stream(0, "x", 1).random(4), stream(0, "x", "1").random(4))


def test_stream_scheme_stability_pin():
    # Not a correctness oracle: a regression pin.  Changing the addressing
    # scheme silently would break checkpoint resume and the byte-identity
    # reproducibility contract, so the first draw is frozen here.
    got = stream(0, "weights").random()
    assert got == 0.8731928062714769, got


def _default_rng(master_seed, *path):
    """The documented scheme through default_rng: integer labels as they are,
    any other label as the first 4 bytes of its text's SHA-256, little-endian."""
    key = tuple(int(p) if isinstance(p, (int, np.integer)) else
                int.from_bytes(hashlib.sha256(str(p).encode()).digest()[:4], "little")
                for p in path)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


@pytest.mark.parametrize("master_seed, path", [
    (0, ()),
    (0, ("weights",)),
    (7, ("epoch", 3, "init")),
    (2 ** 40, ("epoch", np.int64(12), "traj", np.uint32(5), 9)),
    (1, ("run", "lde", "test-07-weierstrass_lite", 50)),
    (3, ("run", "random_params", "test-00-sphere", np.int16(0))),
    (5, ("x", 1, "1", 2 ** 31, "é", "")),
])
def test_stream_is_default_rngs_stream(master_seed, path):
    for _ in range(2):  # the second call reads the cached label words
        got, want = stream(master_seed, *path), _default_rng(master_seed, *path)
        assert type(got.bit_generator) is np.random.PCG64
        assert got.bit_generator.state == want.bit_generator.state
        np.testing.assert_array_equal(got.random(5), want.random(5))
