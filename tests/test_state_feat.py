"""Controller input features: normalisation, histogram, moving window."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ldectl.de_core import Population
from ldectl.state_feat import HistRing, assemble_state, histogram, normalize_fitness


# ---------------------------------------------------------------- normalize
def test_normalize_examples():
    np.testing.assert_array_equal(normalize_fitness([[0.0, 5.0, 10.0]]), [[0.0, 0.5, 1.0]])
    np.testing.assert_array_equal(normalize_fitness([[7.0, 7.0, 7.0]]), [[0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(normalize_fitness([[2.0, 2.0, 4.0]]), [[0.0, 0.0, 1.0]])
    # rows are normalised independently
    np.testing.assert_array_equal(normalize_fitness([[0.0, 5.0, 10.0], [7.0, 7.0, 7.0]]),
                                  [[0.0, 0.5, 1.0], [0.0, 0.0, 0.0]])


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_fitness([[]])
    with pytest.raises(ValueError):
        normalize_fitness(np.zeros(2))  # no batch axis
    with pytest.raises(ValueError):
        normalize_fitness(np.zeros((2, 2, 2)))


@given(
    st.lists(st.integers(-1_000_000, 1_000_000), min_size=2, max_size=30),
    st.integers(1, 1024),
    st.integers(-1_000_000, 1_000_000),
)
def test_normalize_affine_invariance(values, a, c):
    # positive rescaling plus shift of the fitness cannot change the
    # feature; integer inputs keep the float arithmetic exact
    f = np.array([values], dtype=float)
    g = a * f + c
    np.testing.assert_array_equal(normalize_fitness(f), normalize_fitness(g))


@given(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=40))
def test_normalize_range_and_endpoints(values):
    out = normalize_fitness(np.array([values]))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    if np.ptp(values) > 0:
        assert out.min() == 0.0 and out.max() == 1.0


# ---------------------------------------------------------------- histogram
def test_histogram_pinned_case():
    np.testing.assert_array_equal(
        histogram(np.array([[0.0, 0.5, 1.0]]), 5),
        [[1 / 3, 0.0, 1 / 3, 0.0, 1 / 3]])


def test_histogram_all_zero_single_bin():
    np.testing.assert_array_equal(histogram(np.zeros((1, 4)), 5), [[1, 0, 0, 0, 0]])


def test_histogram_right_inclusive_last_bin():
    np.testing.assert_array_equal(histogram(np.array([[1.0]]), 4), [[0, 0, 0, 1]])


def test_histogram_rows_are_independent():
    v = np.array([[0.0, 0.5, 1.0], [1.0, 1.0, 0.1]])
    np.testing.assert_array_equal(histogram(v, 5),
                                  [histogram(v[:1], 5)[0], histogram(v[1:], 5)[0]])


def test_histogram_validates_bins():
    with pytest.raises(ValueError):
        histogram(np.zeros((1, 3)), 0)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50), st.integers(1, 16))
def test_histogram_is_a_distribution(values, bins):
    h = histogram(np.array([values]), bins)[0]
    assert h.shape == (bins,)
    assert np.all(h >= 0.0)
    assert np.isclose(h.sum(), 1.0, atol=1e-12)


@given(st.floats(0.0, 1.0 - 1e-9), st.integers(1, 16))
def test_histogram_bin_placement(v, bins):
    h = histogram(np.array([[v]]), bins)[0]
    assert h[min(int(v * bins), bins - 1)] == 1.0


# ---------------------------------------------------------------- ring
def test_ring_empty_returns_zeros_and_stores():
    ring = HistRing(3)
    h = np.array([0.25, 0.75])
    np.testing.assert_array_equal(ring.update_and_average(h), [0.0, 0.0])
    assert len(ring) == 1


def test_ring_two_entry_mean():
    ring = HistRing(2)
    ring.update_and_average(np.array([1.0, 0.0]))
    avg = ring.update_and_average(np.array([0.0, 1.0]))
    np.testing.assert_array_equal(avg, [1.0, 0.0])  # only first entry buffered
    avg = ring.update_and_average(np.array([0.0, 0.0]))
    np.testing.assert_array_equal(avg, [0.5, 0.5])  # mean of the two buffered


def test_ring_window_eviction():
    ring = HistRing(2)
    a, b, c = (np.array([x]) for x in (1.0, 2.0, 3.0))
    ring.update_and_average(a)
    ring.update_and_average(b)
    np.testing.assert_array_equal(ring.update_and_average(c), [1.5])  # mean(a, b)
    np.testing.assert_array_equal(ring.update_and_average(a), [2.5])  # a evicted
    assert len(ring) == 2


def test_ring_copies_input():
    ring = HistRing(2)
    h = np.array([1.0])
    ring.update_and_average(h)
    h[0] = 99.0
    np.testing.assert_array_equal(ring.update_and_average(np.array([0.0])), [1.0])


def test_ring_validates_window():
    with pytest.raises(ValueError):
        HistRing(0)


# ---------------------------------------------------------------- assemble
def _pop(fitness):
    f = np.asarray(fitness, dtype=float)
    return Population(np.zeros((1, f.size, 2)), f[None])


def test_assemble_vector_layout_and_length():
    ring = HistRing(5)
    x = assemble_state(_pop([0.0, 5.0, 10.0]), ring, 5)
    assert x.shape == (1, 3 + 10)
    # normalised fitness, then the histogram, then the ring's average
    np.testing.assert_array_equal(x[:, :3], [[0.0, 0.5, 1.0]])
    np.testing.assert_array_equal(x[:, 3:8], [[1 / 3, 0, 1 / 3, 0, 1 / 3]])
    np.testing.assert_array_equal(x[:, 8:], np.zeros((1, 5)))


def test_assemble_flat_population():
    x = assemble_state(_pop([3.0, 3.0, 3.0, 3.0]), HistRing(2), 5)
    np.testing.assert_array_equal(x[:, :4], np.zeros((1, 4)))
    np.testing.assert_array_equal(x[:, 4:9], [[1, 0, 0, 0, 0]])


def test_assemble_identical_inputs_identical_outputs():
    a = assemble_state(_pop([1.0, 4.0, 2.0]), HistRing(3), 4)
    b = assemble_state(_pop([1.0, 4.0, 2.0]), HistRing(3), 4)
    np.testing.assert_array_equal(a, b)


def test_assemble_advances_ring():
    ring = HistRing(4)
    pop = _pop([0.0, 1.0])
    first = assemble_state(pop, ring, 2)
    second = assemble_state(pop, ring, 2)
    np.testing.assert_array_equal(first[:, 4:], np.zeros((1, 2)))
    np.testing.assert_array_equal(second[:, 4:], first[:, 2:4])


# ---------------------------------------------------------------- same bits
def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("B", [1, 60])
@pytest.mark.parametrize("bins, window", [(5, 5), (2, 12), (16, 3)])
def test_ring_average_is_the_stacked_mean_bit_for_bit(B, bins, window):
    # random floats, so that a different order of the sum would show; every
    # fill level from 0 to g, then two evictions
    rng = np.random.default_rng(B * 100 + bins)
    hists = [rng.random((B, bins)) * 7.0 for _ in range(window + 2)]
    ring = HistRing(window)
    for k, h in enumerate(hists):
        held = hists[max(0, k - window):k]
        want = np.mean(np.stack(held, axis=1), axis=1) if held else np.zeros((B, bins))
        np.testing.assert_array_equal(_bits(ring.update_and_average(h)), _bits(want))


@pytest.mark.parametrize("B", [1, 60])
def test_ring_average_of_one_bin_histograms_is_the_stacked_mean(B):
    # at one bin np.mean sums 8 or more entries pairwise, but a one-bin
    # histogram is exactly 1.0, so any order gives the same sum
    ring, held = HistRing(12), []
    for k in range(14):
        h = histogram(np.random.default_rng(k).random((B, 20)), 1)
        want = np.mean(np.stack(held, axis=1), axis=1) if held else np.zeros((B, 1))
        np.testing.assert_array_equal(_bits(ring.update_and_average(h)), _bits(want))
        held = (held + [h])[-12:]


def test_normalize_matches_the_masked_division_bit_for_bit():
    rng = np.random.default_rng(4)
    f = np.concatenate([
        rng.standard_normal((40, 20)) * 10.0 ** rng.integers(-300, 300, (40, 1)),
        np.full((2, 20), 7.0), np.zeros((1, 20)),
        np.tile([[np.inf], [-np.inf], [np.nan], [1e308], [5e-324]], (1, 20)),
    ])
    f[-5:, :3] = [[1.0, 2.0, np.inf], [0.0, 1.0, 2.0], [-1e308, 0.0, 1.0], [-1e308, 0.0, 1.0],
                  [0.0, 0.0, 0.0]]
    with np.errstate(invalid="ignore", over="ignore"):
        lo = f.min(axis=1, keepdims=True)
        span = f.max(axis=1, keepdims=True) - lo
        want = np.divide(f - lo, span, out=np.zeros_like(f), where=span != 0.0)
        np.testing.assert_array_equal(_bits(normalize_fitness(f)), _bits(want))
