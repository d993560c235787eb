"""Benchmark instances: duplicate-formula oracles, suite generation, text format."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


@given(st.integers(0, 10_000), st.integers(1, 6))
def test_parse_format_round_trip_random_instances(seed, dim):
    inst = make_suite(seed, dim, 1, 1).test[0]
    back = parse_instance(format_instance(inst))
    np.testing.assert_array_equal(back.shift, inst.shift)
    if inst.rotation is not None:
        np.testing.assert_array_equal(back.rotation, inst.rotation)
    x = np.random.default_rng(seed).uniform(-100, 100, dim)
    assert back.evaluate(x) == inst.evaluate(x)
