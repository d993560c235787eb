"""Benchmark instances: duplicate-formula oracles, suite generation, text format."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ldectl import benchfn
from ldectl.benchfn import (
    DEFAULT_BOUNDS,
    FAMILY_CYCLE,
    FunctionInstance,
    error_value,
    format_instance,
    load_instance,
    make_suite,
    parse_instance,
    save_instance,
)
from conftest import EvalCounter
from ldectl.errors import ConsistencyError
from ldectl.rng import stream


# ---------------------------------------------------------------- oracles
# Straight-line scalar re-implementations of the classic formulas, written
# independently of the vectorized bodies.  Each family's input is first
# compressed onto its traditional domain (|z| <= 100 maps onto e.g.
# |w| <= 5.12 for rastrigin).

def _oracle(base, z):
    z = list(map(float, z))
    n = len(z)
    if base == "sphere":
        return sum(v * v for v in z)
    if base == "ellipsoid":
        if n == 1:
            return z[0] * z[0]
        return sum(10.0 ** (6.0 * i / (n - 1)) * z[i] * z[i] for i in range(n))
    if base == "rosenbrock":
        w = [v * 0.02048 + 1.0 for v in z]
        if n == 1:
            return (w[0] - 1.0) ** 2
        return sum(100.0 * (w[i + 1] - w[i] ** 2) ** 2 + (w[i] - 1.0) ** 2
                   for i in range(n - 1))
    if base == "rastrigin":
        w = [v * 0.0512 for v in z]
        return sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0 for v in w)
    if base == "ackley":
        w = [v * 0.32768 for v in z]
        q = math.sqrt(sum(v * v for v in w) / n)
        c = sum(math.cos(2.0 * math.pi * v) for v in w) / n
        return -20.0 * math.exp(-0.2 * q) - math.exp(c) + 20.0 + math.e
    if base == "griewank":
        w = [v * 6.0 for v in z]
        s = sum(v * v for v in w) / 4000.0
        p = 1.0
        for i, v in enumerate(w):
            p *= math.cos(v / math.sqrt(i + 1.0))
        return s - p + 1.0
    if base == "schwefel12":
        total, c = 0.0, 0.0
        for v in z:
            c += v
            total += c * c
        return total
    if base == "weierstrass_lite":
        w = [v * 0.005 for v in z]
        total = 0.0
        for v in w:
            for k in range(10):
                total += 0.5 ** k * math.cos(2.0 * math.pi * 3.0 ** k * (v + 0.5))
        const = sum(0.5 ** k * math.cos(2.0 * math.pi * 3.0 ** k * 0.5) for k in range(10))
        return total - n * const
    raise AssertionError(base)


@pytest.mark.parametrize("base", FAMILY_CYCLE)
def test_every_family_matches_duplicate_formula(base):
    rng = np.random.default_rng(42)
    inst = FunctionInstance(id=f"x-{base}", dim=5, base=base, f_star=-300.0,
                            shift=rng.uniform(-80, 80, 5))
    for _ in range(50):
        x = rng.uniform(-100, 100, 5)
        want = _oracle(base, x - inst.shift) + inst.f_star
        np.testing.assert_allclose(inst.evaluate(x), want, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("base", FAMILY_CYCLE)
def test_rotation_applied_before_base(base):
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    shift = rng.uniform(-50, 50, 4)
    inst = FunctionInstance(id=f"r-{base}", dim=4, base=base, f_star=100.0,
                            shift=shift, rotation=q)
    x = rng.uniform(-90, 90, 4)
    want = _oracle(base, q @ (x - shift)) + 100.0
    np.testing.assert_allclose(inst.evaluate(x), want, rtol=1e-12, atol=1e-9)


def test_sphere_optimum_and_unit_displacement():
    inst = FunctionInstance(id="s", dim=2, base="sphere", f_star=-700.0,
                            shift=np.array([3.0, -4.0]))
    assert inst.evaluate(np.array([3.0, -4.0])) == -700.0
    flat = FunctionInstance(id="s0", dim=2, base="sphere", f_star=0.0,
                            shift=np.zeros(2))
    assert flat.evaluate(np.array([1.0, 0.0])) == 1.0


def test_rastrigin_exact_at_shift():
    inst = FunctionInstance(id="ra", dim=3, base="rastrigin", f_star=200.0,
                            shift=np.array([1.0, -2.0, 3.0]))
    assert inst.evaluate(inst.shift) == 200.0


def test_every_generated_instance_exact_at_shift():
    suite = make_suite(3, 10, 8, 8)
    for inst in suite.train + suite.test:
        assert inst.evaluate(inst.shift) == inst.f_star


def test_optimum_is_global_over_random_samples():
    rng = np.random.default_rng(0)
    for inst in make_suite(5, 4, 8, 0).train:
        best = inst.evaluate(inst.shift)
        xs = rng.uniform(-100, 100, size=(1000, 4))
        assert np.all(inst.evaluate_batch(xs) >= best)


def test_evaluate_matches_batch():
    inst = make_suite(1, 6, 1, 0).train[0]
    rng = np.random.default_rng(1)
    X = rng.uniform(-100, 100, size=(9, 6))
    np.testing.assert_array_equal(
        inst.evaluate_batch(X), [inst.evaluate(x) for x in X])


def test_dimension_mismatch_raises():
    inst = make_suite(1, 6, 1, 0).train[0]
    with pytest.raises(ValueError):
        inst.evaluate(np.zeros(5))
    with pytest.raises(ValueError):
        inst.evaluate_batch(np.zeros((3, 7)))


def test_shift_outside_bounds_rejected():
    with pytest.raises(ValueError):
        FunctionInstance(id="bad", dim=2, base="sphere", f_star=0.0,
                         shift=np.array([100.0, 0.0]))


# ---------------------------------------------------------------- suite
def test_make_suite_counts_roles_and_family_cycle():
    suite = make_suite(7, 10, 8, 4)
    assert len(suite.train) == 8 and len(suite.test) == 4
    ids = [i.id for i in suite.train + suite.test]
    assert len(set(ids)) == 12
    for k, inst in enumerate(suite.train):
        assert inst.base == FAMILY_CYCLE[k % len(FAMILY_CYCLE)]
        assert inst.id == f"train-{k:02d}-{inst.base}"
    for k, inst in enumerate(suite.test):
        assert inst.base == FAMILY_CYCLE[k % len(FAMILY_CYCLE)]
        assert inst.id == f"test-{k:02d}-{inst.base}"


def test_make_suite_deterministic_and_disjoint():
    a = make_suite(7, 5, 8, 4)
    b = make_suite(7, 5, 8, 4)
    shifts = []
    for x, y in zip(a.train + a.test, b.train + b.test):
        assert x.id == y.id and x.f_star == y.f_star
        np.testing.assert_array_equal(x.shift, y.shift)
        shifts.append(tuple(x.shift))
    assert len(set(shifts)) == 12  # no shift repeated across roles


def test_suite_instance_invariants_hold():
    lo, hi = DEFAULT_BOUNDS
    for seed in range(13):
        suite = make_suite(seed, 3, 4, 4)
        for inst in suite.train + suite.test:
            assert np.all(np.abs(inst.shift) <= 0.8 * hi)
            assert inst.f_star == int(inst.f_star) and inst.f_star % 100 == 0
            assert abs(inst.f_star) <= 1000
            if inst.base == "sphere":
                assert inst.rotation is None  # rotation-invariant anyway
            else:
                R = inst.rotation
                np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-9)


# ---------------------------------------------------------------- rotations
def _serial_rotation(rng, n):
    """The one-matrix-at-a-time modified Gram-Schmidt the batched kernel
    replaces: redraw on rank loss, 1-D dot per projection."""
    while True:
        A = rng.standard_normal((n, n))
        Q = np.empty_like(A)
        ok = True
        for j in range(n):
            v = A[:, j].copy()
            for k in range(j):
                v -= (Q[:, k] @ v) * Q[:, k]
            norm = np.linalg.norm(v)
            if norm < 1e-12:
                ok = False
                break
            Q[:, j] = v / norm
        if ok:
            return Q


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", range(1, 41))
def test_batched_rotations_match_the_serial_oracle(n):
    for seed in (0, 1, 2):
        for m in (1, 5):
            got = benchfn._random_rotations(
                [np.random.default_rng([seed, n, b]) for b in range(m)], n)
            assert len(got) == m
            for b, Q in enumerate(got):
                _assert_same_bits(Q, _serial_rotation(np.random.default_rng([seed, n, b]), n))


def test_gram_schmidt_flags_only_the_matrix_that_loses_rank():
    A = np.random.default_rng(4).standard_normal((4, 5, 5))
    A[2, :, 3] = A[2, :, 1]  # two equal columns
    Q, lost = benchfn._gram_schmidt(A)
    assert lost.tolist() == [False, False, True, False]
    for b in (0, 1, 3):
        alone, (flag,) = benchfn._gram_schmidt(A[b:b + 1])
        assert not flag
        _assert_same_bits(Q[b], alone[0])
        np.testing.assert_allclose(Q[b].T @ Q[b], np.eye(5), atol=1e-12)


class _SingularFirstDraw:
    """A generator whose first Gaussian matrix repeats a column; every
    draw, that one included, still consumes the wrapped stream."""

    def __init__(self, rng):
        self._rng, self._first = rng, True

    def standard_normal(self, size):
        A = self._rng.standard_normal(size)
        if self._first:
            self._first = False
            A[..., :, 2] = A[..., :, 0]
        return A

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_make_suite_redraws_a_singular_draw_from_its_own_stream(monkeypatch):
    seed, dim, singular = 3, 6, ("suite", "train", 2)
    plain = make_suite(seed, dim, 4, 3)

    def patched(master, *path):
        rng = stream(master, *path)
        return _SingularFirstDraw(rng) if path == singular else rng

    monkeypatch.setattr(benchfn, "stream", patched)
    got = make_suite(seed, dim, 4, 3)
    for a, b in zip(plain.train + plain.test, got.train + got.test):
        assert a.id == b.id
        if a.rotation is None:
            assert b.rotation is None
        elif a.id != "train-02-ellipsoid":
            _assert_same_bits(b.rotation, a.rotation)
    redrawn = got.train[2]
    assert not np.array_equal(redrawn.rotation, plain.train[2].rotation)
    rng = patched(seed, *singular)
    lo, hi = DEFAULT_BOUNDS
    _assert_same_bits(redrawn.shift, rng.uniform(0.8 * lo, 0.8 * hi, size=dim))
    assert redrawn.f_star == 100.0 * float(rng.integers(-10, 11))
    _assert_same_bits(redrawn.rotation, _serial_rotation(rng, dim))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 10, 16, 30])
def test_make_suite_rotations_match_the_serial_oracle(dim):
    lo, hi = DEFAULT_BOUNDS
    for seed in range(3):
        suite = make_suite(seed, dim, 8, 3)
        for role, insts in (("train", suite.train), ("test", suite.test)):
            for index, inst in enumerate(insts):
                rng = stream(seed, "suite", role, index)
                _assert_same_bits(inst.shift, rng.uniform(0.8 * lo, 0.8 * hi, size=dim))
                assert inst.f_star == 100.0 * float(rng.integers(-10, 11))
                if inst.base == "sphere":
                    assert inst.rotation is None
                else:
                    _assert_same_bits(inst.rotation, _serial_rotation(rng, dim))


# ---------------------------------------------------------------- error value
def test_error_value_examples():
    inst = FunctionInstance(id="e", dim=1, base="sphere", f_star=50.0,
                            shift=np.zeros(1))
    assert error_value(inst, 50.0) == 0.0
    assert error_value(inst, 50.0 - 1e-13) == 0.0
    flat = FunctionInstance(id="e0", dim=1, base="sphere", f_star=0.0,
                            shift=np.zeros(1))
    assert error_value(flat, 2.5) == 2.5


def test_error_value_below_optimum_is_inconsistent():
    inst = FunctionInstance(id="e", dim=1, base="sphere", f_star=50.0,
                            shift=np.zeros(1))
    with pytest.raises(ConsistencyError):
        error_value(inst, 49.9)


def test_eval_counter_counts_rows_and_delegates():
    inst = make_suite(1, 3, 1, 0).train[0]
    counter = EvalCounter(inst)
    counter.evaluate(np.zeros(3))
    counter.evaluate_batch(np.zeros((5, 3)))
    assert counter.count == 6
    assert counter.dim == 3 and counter.id == inst.id
    assert counter.bounds == inst.bounds


# ---------------------------------------------------------------- text format
def test_format_parse_round_trip_bitexact():
    for seed in range(6):
        for inst in make_suite(seed, 4, 2, 1).train:
            back = parse_instance(format_instance(inst))
            assert back.id == inst.id and back.base == inst.base
            assert back.f_star == inst.f_star
            np.testing.assert_array_equal(back.shift, inst.shift)
            if inst.rotation is None:
                assert back.rotation is None
            else:
                np.testing.assert_array_equal(back.rotation, inst.rotation)


def test_identity_rotation_omitted_from_text():
    inst = FunctionInstance(id="plain", dim=3, base="sphere", f_star=100.0,
                            shift=np.array([1.5, -2.25, 0.125]))
    text = format_instance(inst)
    assert len(text.strip().splitlines()) == 2  # header + shift only
    assert parse_instance(text).rotation is None


def test_save_load_round_trip(tmp_path):
    inst = make_suite(11, 5, 1, 0).train[0]
    path = tmp_path / "inst.fn"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.id == inst.id
    np.testing.assert_array_equal(back.shift, inst.shift)
    np.testing.assert_array_equal(back.rotation, inst.rotation)
    assert back.evaluate(np.zeros(5)) == inst.evaluate(np.zeros(5))


def test_parse_rejects_malformed_records():
    good = format_instance(make_suite(1, 3, 1, 0).train[0])
    with pytest.raises(ValueError):
        parse_instance("")
    header, rest = good.split("\n", 1)
    with pytest.raises(ValueError):
        parse_instance("one two\n" + rest)  # short header
    with pytest.raises(ValueError):
        parse_instance(good.rsplit("\n", 2)[0])  # truncated rotation block


def test_parse_names_the_line_of_a_short_or_long_vector():
    lines = format_instance(make_suite(0, 3, 2, 0).train[1]).splitlines()
    assert len(lines) == 5  # header, shift, three rotation rows
    for k, cut in ((1, "expected 3 numbers, got 2"), (4, "expected 3 numbers, got 4")):
        bad = list(lines)
        bad[k] = bad[k].rsplit(" ", 1)[0] if k == 1 else bad[k] + " 0.5"
        with pytest.raises(ValueError, match=f"^line {k + 1}: {cut}$"):
            parse_instance("\n".join(bad))
    spaced = "\n\n".join(lines[:3] + [lines[3].rsplit(" ", 1)[0]] + lines[4:])
    with pytest.raises(ValueError, match="^line 7: expected 3 numbers, got 2$"):
        parse_instance(spaced)  # blank lines count: the number is the file's


@given(st.integers(0, 10_000), st.integers(1, 6))
def test_parse_format_round_trip_random_instances(seed, dim):
    inst = make_suite(seed, dim, 1, 1).test[0]
    back = parse_instance(format_instance(inst))
    np.testing.assert_array_equal(back.shift, inst.shift)
    if inst.rotation is not None:
        np.testing.assert_array_equal(back.rotation, inst.rotation)
    x = np.random.default_rng(seed).uniform(-100, 100, dim)
    assert back.evaluate(x) == inst.evaluate(x)


# ---------------------------------------------------------------- same bits
def _reference_body(base, Z):
    """Each family as np.sum, np.mean and np.prod write it."""
    n = Z.shape[1]
    two_pi = 2.0 * math.pi
    if base == "sphere":
        return np.sum(Z * Z, axis=1)
    if base == "ellipsoid":
        return np.sum(10.0 ** (6.0 * np.arange(n) / max(n - 1, 1)) * Z * Z, axis=1)
    if base == "rosenbrock":
        if n == 1:
            return Z[:, 0] ** 2
        Y = Z + 1.0
        a, b = Y[:, 1:] - Y[:, :-1] ** 2, Y[:, :-1] - 1.0
        return np.sum(100.0 * a * a + b * b, axis=1)
    if base == "rastrigin":
        return np.sum(Z * Z - 10.0 * np.cos(two_pi * Z) + 10.0, axis=1)
    if base == "ackley":
        return (-20.0 * np.exp(-0.2 * np.sqrt(np.mean(Z * Z, axis=1)))
                - np.exp(np.mean(np.cos(two_pi * Z), axis=1)) + 20.0 + math.e)
    if base == "griewank":
        j = np.sqrt(np.arange(1, n + 1, dtype=float))
        return np.sum(Z * Z, axis=1) / 4000.0 - np.prod(np.cos(Z / j), axis=1) + 1.0
    if base == "schwefel12":
        C = np.cumsum(Z, axis=1)
        return np.sum(C * C, axis=1)
    k = np.arange(10)
    a, b = 0.5 ** k, 3.0 ** k
    const = float(np.sum(a * np.cos(two_pi * b * 0.5)))
    return np.sum(np.cos(two_pi * b * (Z[..., None] + 0.5)) @ a, axis=1) - n * const


@pytest.mark.parametrize("dim", [1, 2, 10, 30])
def test_every_family_keeps_the_bits_of_its_numpy_wrapper_form(dim):
    rng = np.random.default_rng(dim)
    for inst in make_suite(dim, dim, 0, len(FAMILY_CYCLE)).test:
        X = rng.uniform(*inst.bounds, size=(40, dim))
        Z = X - inst.shift
        if inst.rotation is not None:
            Z = Z @ inst.rotation.T
        body, scale = benchfn._BASES[inst.base]
        if scale != 1.0:
            Z = Z * scale
        want = _reference_body(inst.base, Z) + inst.f_star
        got = inst.evaluate_batch(X)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), inst.base)
