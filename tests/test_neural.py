"""Controller network: forward oracle, BPTT vs finite differences, weight file."""

import json
import math
import pickle
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from ldectl import cli, neural
from ldectl.errors import NumericFailure
from ldectl.neural import (
    FIELD_ORDER,
    ControllerState,
    ControllerWeights,
    GradCheckReport,
    WeightFileError,
    _sigmoid,
    _stacked,
    backward_through_time,
    count_macs,
    fd_gradient,
    forward_step,
    grad_norm,
    init_weights,
    load_weights,
    rollout_objective,
    run_gradcheck,
    save_weights,
    sgd_ascent,
    zero_state,
)
from ldectl.policy import PolicyConfig
from ldectl.rng import stream


def _zero_weights(H, D, N):
    return ControllerWeights(np.zeros(4 * H * (H + D) + 4 * H + 2 * N * H + 2 * N), H, D, N)


# ---------------------------------------------------------------- forward
def test_forward_zero_weights_zero_state():
    w = _zero_weights(3, 2, 4)
    mu, state, tape = forward_step(w, np.array([[0.7, -0.2]]), zero_state(3, 1))
    np.testing.assert_array_equal(tape.f, np.full((1, 3), 0.5))
    np.testing.assert_array_equal(tape.i, np.full((1, 3), 0.5))
    np.testing.assert_array_equal(tape.o, np.full((1, 3), 0.5))
    np.testing.assert_array_equal(tape.ctilde, np.zeros((1, 3)))
    np.testing.assert_array_equal(state.c, np.zeros((1, 3)))
    np.testing.assert_array_equal(state.h, np.zeros((1, 3)))
    np.testing.assert_array_equal(mu, np.full((1, 8), 0.5))


def test_forward_zero_weights_carried_cell():
    w = _zero_weights(3, 2, 1)
    prev = ControllerState(np.zeros((1, 3)), np.full((1, 3), 2.0))
    mu, state, _ = forward_step(w, np.zeros((1, 2)), prev)
    np.testing.assert_array_equal(state.c, np.ones((1, 3)))  # c = 0.5 * c_prev
    np.testing.assert_allclose(state.h, np.full((1, 3), 0.5 * math.tanh(1.0)), atol=1e-15)
    assert abs(state.h[0, 0] - 0.38079708) < 1e-8
    np.testing.assert_array_equal(mu, np.full((1, 2), 0.5))


def test_forward_matches_straight_line_reimplementation():
    # independent scalar re-derivation of the gated update and the heads
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    H, D, N = 4, 3, 2
    w = init_weights(H, D, N, np.random.default_rng(5))
    x = np.random.default_rng(6).uniform(0, 1, D)
    st0 = ControllerState(np.random.default_rng(7).normal(size=H) * 0.3,
                          np.random.default_rng(8).normal(size=H) * 0.3)

    z = list(st0.h) + list(x)

    def gate(block, r):  # gate rows are stacked f, i, o, c
        row = block * H + r
        return sum(w.W_g[row, k] * z[k] for k in range(H + D)) + w.b_g[row]

    f = [sig(gate(0, r)) for r in range(H)]
    i = [sig(gate(1, r)) for r in range(H)]
    o = [sig(gate(2, r)) for r in range(H)]
    ct = [math.tanh(gate(3, r)) for r in range(H)]
    c = [f[r] * st0.c[r] + i[r] * ct[r] for r in range(H)]
    h = [o[r] * math.tanh(c[r]) for r in range(H)]
    head = [sig(sum(w.W_head[r, j] * h[r] for r in range(H)) + w.b_head[j]) for j in range(2 * N)]
    mu_f, mu_c = head[:N], head[N:]

    mu, state, _ = forward_step(w, x[None], ControllerState(st0.h[None], st0.c[None]))
    np.testing.assert_allclose(state.c[0], c, rtol=1e-12)
    np.testing.assert_allclose(state.h[0], h, rtol=1e-12)
    np.testing.assert_allclose(mu[0], mu_f + mu_c, rtol=1e-12)


def test_forward_validates_input_shape():
    w = init_weights(4, 3, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        forward_step(w, np.zeros((1, 4)), zero_state(4, 1))
    with pytest.raises(ValueError):  # no batch axis
        forward_step(w, np.zeros(3), zero_state(4, 1))


def test_forward_nonfinite_raises_numeric_failure():
    w = init_weights(4, 3, 2, np.random.default_rng(0))
    w.W_g[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericFailure):
        forward_step(w, np.ones((1, 3)), zero_state(4, 1))


def test_forward_outputs_clamped_inside_open_interval():
    w = init_weights(4, 3, 2, np.random.default_rng(0))
    w.b_head[:2] = 1e9   # saturate the scale-factor head
    w.b_head[2:] = -1e9
    mu, _, _ = forward_step(w, np.ones((1, 3)), zero_state(4, 1))
    assert np.all(mu > 0.0) and np.all(mu < 1.0)


# ---------------------------------------------------------------- init / sgd
def test_init_weights_bounds_and_determinism():
    w = init_weights(100, 7, 3, stream(0, "weights"))
    lim = 1.0 / math.sqrt(100)
    for k in FIELD_ORDER:
        arr = getattr(w, k)
        assert np.all(np.abs(arr) <= lim)
        assert np.ptp(arr) > 0  # actually random, not constant
    again = init_weights(100, 7, 3, stream(0, "weights"))
    np.testing.assert_array_equal(w.theta, again.theta)
    other = init_weights(100, 7, 3, stream(1, "weights"))
    assert not np.array_equal(w.theta, other.theta)


def test_init_weights_stacks_the_per_gate_draws():
    # the draws of the one-matrix-per-gate layout, in its order, stacked
    H, D, N = 5, 3, 2
    w = init_weights(H, D, N, stream(4, "weights"))
    rng = stream(4, "weights")
    lim = 1.0 / math.sqrt(H)
    W_f, W_i, W_c, W_o = (rng.uniform(-lim, lim, size=(H, H + D)) for _ in range(4))
    b_f, b_i, b_c, b_o = (rng.uniform(-lim, lim, size=H) for _ in range(4))
    W_F, b_F = rng.uniform(-lim, lim, size=(H, N)), rng.uniform(-lim, lim, size=N)
    W_C, b_C = rng.uniform(-lim, lim, size=(H, N)), rng.uniform(-lim, lim, size=N)
    np.testing.assert_array_equal(w.W_g, np.vstack([W_f, W_i, W_o, W_c]))
    np.testing.assert_array_equal(w.b_g, np.concatenate([b_f, b_i, b_o, b_c]))
    np.testing.assert_array_equal(w.W_head, np.hstack([W_F, W_C]))
    np.testing.assert_array_equal(w.b_head, np.concatenate([b_F, b_C]))
    assert (w.hidden, w.input_size, w.actions) == (H, D, N)


def test_init_weights_validates_dims():
    with pytest.raises(ValueError):
        init_weights(0, 3, 2, np.random.default_rng(0))


def test_sgd_ascent_scalar_example_and_trivials():
    w = _zero_weights(1, 1, 1)
    g = _zero_weights(1, 1, 1)
    w.W_g[0, 0] = 1.0
    g.W_g[0, 0] = 2.0
    out = sgd_ascent(w, g, 0.005)
    assert out.W_g[0, 0] == 1.01
    assert w.W_g[0, 0] == 1.0  # input untouched
    np.testing.assert_array_equal(sgd_ascent(w, g, 0.0).W_g, w.W_g)
    np.testing.assert_array_equal(
        sgd_ascent(w, _zero_weights(1, 1, 1), 0.1).W_g, w.W_g)


def test_theta_arithmetic_and_grad_norm():
    w = init_weights(3, 2, 2, np.random.default_rng(1))
    z = w.like(np.zeros_like(w.theta))
    assert grad_norm(z) == 0.0
    z.theta += 2.0 * w.theta
    np.testing.assert_array_equal(z.W_g, 2.0 * w.W_g)  # the views see the vector
    np.testing.assert_array_equal(z.b_head, 2.0 * w.b_head)
    assert np.isclose(grad_norm(w), np.linalg.norm(w.theta))


def test_views_tile_theta_in_field_order():
    H, D, N = 5, 3, 2
    w = init_weights(H, D, N, np.random.default_rng(2))
    assert w.theta.shape == (4 * H * (H + D) + 4 * H + 2 * N * H + 2 * N,)
    np.testing.assert_array_equal(
        np.concatenate([getattr(w, k).ravel() for k in FIELD_ORDER]), w.theta)
    for k in FIELD_ORDER:
        assert np.shares_memory(getattr(w, k), w.theta), k
    with pytest.raises(ValueError):  # one entry short
        ControllerWeights(w.theta[:-1], H, D, N)


def test_write_through_a_view_shows_in_theta():
    H, D, N = 4, 3, 2
    w = init_weights(H, D, N, np.random.default_rng(0))
    w.W_g[H + 1, 2] = 7.5  # input gate, row 1, column 2
    assert w.theta[(H + 1) * (H + D) + 2] == 7.5
    w.b_head[-1] = -3.0
    assert w.theta[-1] == -3.0


def test_unpickled_views_share_the_unpickled_theta():
    # how --jobs workers receive the weights
    w = init_weights(4, 3, 2, np.random.default_rng(0))
    back = pickle.loads(pickle.dumps(w))
    np.testing.assert_array_equal(back.theta, w.theta)
    for k in FIELD_ORDER:
        assert np.shares_memory(getattr(back, k), back.theta), k
        np.testing.assert_array_equal(getattr(back, k), getattr(w, k))
    back.W_head[0, 0] = 9.0
    assert back.theta[4 * 4 * 7 + 4 * 4] == 9.0


def test_batched_gradient_views_are_per_row():
    H, D, N, B = 4, 3, 2, 3
    w = init_weights(H, D, N, np.random.default_rng(0))
    g = w.like(np.arange(B * w.theta.size, dtype=float).reshape(B, -1))
    assert g.W_g.shape == (B, 4 * H, H + D) and g.b_head.shape == (B, 2 * N)
    for b in range(B):
        row = w.like(g.theta[b])
        for k in FIELD_ORDER:
            np.testing.assert_array_equal(getattr(g, k)[b], getattr(row, k))


# ---------------------------------------------------------------- gradients
def test_bptt_matches_finite_differences_everywhere():
    H, D, N, T = 8, 6, 4, 5
    rng = np.random.default_rng(3)
    w = init_weights(H, D, N, rng)
    xs = [rng.uniform(0, 1, D) for _ in range(T)]
    out_grads = [rng.normal(size=2 * N) for _ in range(T)]

    state = zero_state(H, 1)
    tapes = []
    for x in xs:
        _, state, tape = forward_step(w, x[None], state)
        tapes.append(tape)
    analytic = w.like(backward_through_time(w, tapes, [g[None] for g in out_grads]).theta[0])
    numeric = fd_gradient(w, xs, out_grads, eps=1e-6)

    for k in FIELD_ORDER:
        a, n = getattr(analytic, k), getattr(numeric, k)
        # field-level direction and magnitude
        rel = np.linalg.norm(a - n) / max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
        assert rel < 1e-6, (k, rel)
        # entry-level agreement, absolute floor absorbs FD roundoff
        assert np.all(np.abs(a - n) <= 1e-4 * np.maximum(1.0, np.abs(a))), k


def _bptt_outer_products(w, tapes, out_grads):
    """BPTT with each step's outer products added into the gradient, newest
    step first: the reference for the one-product-over-time form.  Also
    returns, per entry, the sum of its terms' magnitudes."""
    H = w.hidden
    B = len(out_grads[0])
    g = {k: np.zeros((B,) + getattr(w, k).shape) for k in FIELD_ORDER}
    size = {k: np.zeros_like(v) for k, v in g.items()}
    dh_next, dc_next = np.zeros((B, H)), np.zeros((B, H))
    for tape, og in zip(reversed(tapes), reversed(out_grads)):
        da_heads = og * tape.mu_raw * (1.0 - tape.mu_raw)
        dh = _stacked(w.W_head, da_heads) + dh_next
        dc = dh * tape.o * (1.0 - tape.tanh_c ** 2) + dc_next
        da = np.concatenate([dc * tape.c_prev * tape.f * (1.0 - tape.f),
                             dc * tape.ctilde * tape.i * (1.0 - tape.i),
                             dh * tape.tanh_c * tape.o * (1.0 - tape.o),
                             dc * tape.i * (1.0 - tape.ctilde ** 2)], axis=1)
        for k, left, right in (("W_head", tape.h, da_heads), ("W_g", da, tape.z)):
            g[k] += left[:, :, None] * right[:, None, :]
            size[k] += np.abs(left)[:, :, None] * np.abs(right)[:, None, :]
        for k, term in (("b_head", da_heads), ("b_g", da)):
            g[k] += term
            size[k] += np.abs(term)
        dh_next = _stacked(w.W_g[:, :H].T, da)
        dc_next = dc * tape.f
    return g, size


def test_bptt_equals_the_sum_of_outer_products_at_desk_scale():
    H, D, N, T, B = 32, 30, 20, 30, 10
    rng = np.random.default_rng(17)
    w = init_weights(H, D, N, rng)
    state, tapes = zero_state(H, B), []
    for _ in range(T):
        _, state, tape = forward_step(w, rng.uniform(0.0, 1.0, (B, D)), state)
        tapes.append(tape)
    out_grads = [rng.normal(size=(B, 2 * N)) for _ in range(T)]
    got = backward_through_time(w, tapes, out_grads)
    want, size = _bptt_outer_products(w, tapes, out_grads)
    # the two add the same T terms per entry in different orders: they agree
    # to 1e-12 of the terms' magnitudes (an entry whose terms cancel can
    # differ by more than 1e-12 of itself)
    for k in FIELD_ORDER:
        err = np.abs(getattr(got, k) - want[k])
        assert np.all(err <= 1e-12 * size[k]), (k, float(np.max(err / size[k])))


def _rows_of(tape, rows):
    return neural.StepTape(**{k: v[rows] for k, v in vars(tape).items()})


@pytest.mark.parametrize("H, D, N", [(5, 7, 4), (32, 30, 20)])
def test_bptt_rows_do_not_depend_on_the_batch_or_the_block(H, D, N):
    # one call over all B rows gives each row the bits of a separate call
    # on its own row block, whatever block the weight products are formed in
    T, B, L = 6, 12, 3
    rng = np.random.default_rng(23)
    w = init_weights(H, D, N, rng)
    state, tapes = zero_state(H, B), []
    for _ in range(T):
        _, state, tape = forward_step(w, rng.uniform(0.0, 1.0, (B, D)), state)
        tapes.append(tape)
    out_grads = [rng.normal(size=(B, 2 * N)) for _ in range(T)]
    whole = backward_through_time(w, tapes, out_grads).theta
    assert whole.shape == (B, w.theta.size)
    for r0 in range(0, B, L):
        rows = slice(r0, r0 + L)
        apart = backward_through_time(w, [_rows_of(t, rows) for t in tapes],
                                      [og[rows] for og in out_grads])
        np.testing.assert_array_equal(apart.theta, whole[rows])
    for block in (1, L, 5, B):  # 5 leaves a short last block
        np.testing.assert_array_equal(
            backward_through_time(w, tapes, out_grads, block=block).theta, whole)
        # with an accumulator, the rows are added into it one by one, in row order
        start = rng.normal(size=w.theta.size)
        want = start.copy()
        for row in whole:
            want += row
        acc = start.copy()
        got = backward_through_time(w, tapes, out_grads, block=block, acc=acc)
        assert got.theta is acc
        np.testing.assert_array_equal(acc, want)


def test_bptt_into_an_accumulator_holds_one_block_of_rows():
    H, D, N, T, B, L = 16, 10, 8, 4, 30, 3
    rng = np.random.default_rng(5)
    w = init_weights(H, D, N, rng)
    state, tapes = zero_state(H, B), []
    for _ in range(T):
        _, state, tape = forward_step(w, rng.uniform(0.0, 1.0, (B, D)), state)
        tapes.append(tape)
    out_grads = [rng.normal(size=(B, 2 * N)) for _ in range(T)]
    acc = np.zeros_like(w.theta)
    all_rows = B * w.theta.nbytes  # one (B, P) gradient matrix

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: backward_through_time(w, tapes, out_grads)) >= all_rows
    assert peak(lambda: backward_through_time(w, tapes, out_grads, block=L, acc=acc)) \
        < all_rows / 2


def test_bptt_zero_out_grads_zero_gradient():
    H, D, N = 4, 3, 2
    w = init_weights(H, D, N, np.random.default_rng(0))
    state = zero_state(H, 1)
    tapes = []
    for _ in range(3):
        _, state, tape = forward_step(w, np.ones((1, D)) * 0.5, state)
        tapes.append(tape)
    g = backward_through_time(w, tapes, [np.zeros((1, 2 * N))] * 3)
    assert grad_norm(g) == 0.0


def test_bptt_validates_lengths():
    w = init_weights(4, 3, 2, np.random.default_rng(0))
    _, _, tape = forward_step(w, np.zeros((1, 3)), zero_state(4, 1))
    with pytest.raises(ValueError):
        backward_through_time(w, [tape], [np.zeros((1, 4)), np.zeros((1, 4))])
    with pytest.raises(ValueError):  # one output gradient row per rollout
        backward_through_time(w, [tape], [np.zeros(4)])


def test_single_step_head_only_gradient():
    # gradient placed on the heads flows back into the gate matrices only
    # through h; finite differences agree and are nonzero there
    H, D, N = 4, 3, 2
    rng = np.random.default_rng(9)
    w = init_weights(H, D, N, rng)
    x = rng.uniform(0, 1, D)
    _, _, tape = forward_step(w, x[None], zero_state(H, 1))
    og = [rng.normal(size=2 * N)]
    analytic = w.like(backward_through_time(w, [tape], [og[0][None]]).theta[0])
    numeric = fd_gradient(w, [x], og, eps=1e-6)
    assert grad_norm(analytic) > 0
    for k in FIELD_ORDER:
        np.testing.assert_allclose(getattr(analytic, k), getattr(numeric, k),
                                   rtol=1e-4, atol=1e-8)


def test_run_gradcheck_passes_and_reports():
    report = run_gradcheck()
    assert isinstance(report, GradCheckReport)
    assert report.passed
    assert report.max_rel_err < 1e-4
    assert set(report.per_field) == set(FIELD_ORDER)
    assert report.worst_field in FIELD_ORDER


def test_run_gradcheck_detects_corruption(monkeypatch):
    # one wrong entry in each gate block of W_g, in b_g, in each head's
    # half of W_head and in b_head must fail the check on its own
    H = 8  # run_gradcheck's default width, with N = 4 columns per head
    real = neural.backward_through_time
    for field, ix in [("W_g", (0 * H + 1, 2)),    # forget gate
                      ("W_g", (1 * H + 3, 0)),    # input gate
                      ("W_g", (2 * H + 5, 9)),    # output gate
                      ("W_g", (3 * H + 7, 4)),    # cell candidate
                      ("b_g", (3 * H,)),
                      ("W_head", (2, 1)),         # scale-factor head
                      ("W_head", (6, 4 + 3)),     # crossover-rate head
                      ("b_head", (5,))]:
        def corrupted(*args, field=field, ix=ix):
            g = real(*args)
            getattr(g, field)[(0,) + ix] += 1.0
            return g

        monkeypatch.setattr(neural, "backward_through_time", corrupted)
        report = run_gradcheck()
        assert not report.passed and report.worst_field == field, (field, ix)


def test_run_gradcheck_fails_on_a_nan_gradient(monkeypatch):
    real = neural.backward_through_time

    def nan_entry(*args):
        g = real(*args)
        g.b_head[0, 5] = np.nan
        return g

    monkeypatch.setattr(neural, "backward_through_time", nan_entry)
    report = run_gradcheck()
    assert not report.passed
    assert report.worst_field == "b_head" and math.isnan(report.max_rel_err)


@pytest.mark.parametrize("bad", [{"hidden": 0}, {"actions": 0}, {"bins": 0}, {"steps": 0},
                                 {"eps": 0.0}, {"eps": -1e-6}])
def test_run_gradcheck_refuses_bad_arguments(bad):
    with pytest.raises(ValueError, match="must be"):
        run_gradcheck(**bad)


@pytest.mark.parametrize("threshold", [0.0, -1e-4, math.nan, math.inf, -math.inf])
def test_run_gradcheck_refuses_a_threshold_that_is_not_positive_and_finite(threshold):
    # at 0 or NaN no error could pass, so a correct gradient would read FAIL
    with pytest.raises(ValueError, match="threshold must be positive and finite"):
        run_gradcheck(threshold=threshold)


def test_run_gradcheck_deterministic():
    a = run_gradcheck(seed=3)
    b = run_gradcheck(seed=3)
    assert a.max_rel_err == b.max_rel_err and a.per_field == b.per_field


def test_rollout_objective_is_linear_in_out_grads():
    H, D, N = 4, 3, 2
    rng = np.random.default_rng(2)
    w = init_weights(H, D, N, rng)
    xs = [rng.uniform(0, 1, D) for _ in range(4)]
    og = [rng.normal(size=2 * N) for _ in range(4)]
    doubled = [2.0 * g for g in og]
    assert np.isclose(rollout_objective(w, xs, doubled),
                      2.0 * rollout_objective(w, xs, og), rtol=1e-12)


# ---------------------------------------------------------------- MAC count
def test_mac_count_per_forward_step():
    H, D, N = 8, 6, 4
    w = init_weights(H, D, N, np.random.default_rng(0))
    with count_macs() as mc:
        forward_step(w, np.zeros((1, D)), zero_state(H, 1))
    assert mc.total == 4 * H * (H + D) + 2 * N * H
    with count_macs() as batched:  # a step over 7 rollouts counts per rollout
        forward_step(w, np.zeros((7, D)), zero_state(H, 7))
    assert batched.total == mc.total


def test_mac_count_scopes_do_not_leak():
    H, D, N = 4, 3, 2
    w = init_weights(H, D, N, np.random.default_rng(0))
    with count_macs() as outer:
        forward_step(w, np.zeros((1, D)), zero_state(H, 1))
        first = outer.total
        with count_macs() as inner:
            forward_step(w, np.zeros((1, D)), zero_state(H, 1))
        assert inner.total == first
        assert outer.total == first  # inner scope absorbed its own counts
    forward_step(w, np.zeros((1, D)), zero_state(H, 1))  # no active counter: no error


# ---------------------------------------------------------------- weight file
SPEC = PolicyConfig(pop_size=4, bins=1)  # D = 4 + 2 * 1 = 6


def test_save_load_round_trip(tmp_path):
    w = init_weights(8, 6, 4, np.random.default_rng(1))
    path = tmp_path / "w.bin"
    save_weights(w, path, seed=17, spec=SPEC, training_metadata={"epochs_done": 3})
    back, manifest = load_weights(path)
    np.testing.assert_array_equal(back.theta, w.theta)
    assert manifest["format_version"] == 3
    assert manifest["H"] == 8 and manifest["seed"] == 17
    assert manifest["spec"] == {"pop_size": 4, "bins": 1, "window": 5, "sigma": 0.3,
                                "p_best": 0.05, "f_min": 1e-3}
    assert "D" not in manifest and "N" not in manifest  # both follow from the spec
    assert manifest["training_metadata"]["epochs_done"] == 3


def test_blob_holds_the_four_fused_arrays(tmp_path):
    H, N = 8, 4
    D = SPEC.input_size
    w = init_weights(H, D, N, np.random.default_rng(1))
    path = tmp_path / "w.bin"
    save_weights(w, path, seed=0, spec=SPEC)
    _, manifest = load_weights(path)
    assert manifest["blob_bytes"] == 8 * (4 * H * (H + D) + 4 * H + 2 * N * H + 2 * N)
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    assert raw[nl + 1:-4] == w.theta.tobytes()  # the blob is theta, little-endian float64


def test_load_rejects_flipped_blob_byte(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(init_weights(4, 6, 4, np.random.default_rng(0)), path, seed=0, spec=SPEC)
    raw = bytearray(path.read_bytes())
    nl = raw.index(b"\n")
    raw[nl + 10] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(WeightFileError):
        load_weights(path)


def test_load_rejects_truncation(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(init_weights(4, 6, 4, np.random.default_rng(0)), path, seed=0, spec=SPEC)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(WeightFileError):
        load_weights(path)


def test_load_rejects_bad_manifest(tmp_path):
    path = tmp_path / "w.bin"
    path.write_bytes(b"not json at all\n\x00\x01")
    with pytest.raises(WeightFileError):
        load_weights(path)


def test_load_rejects_wrong_version_and_bad_dims(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(init_weights(4, 6, 4, np.random.default_rng(0)), path, seed=0, spec=SPEC)
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    manifest = json.loads(raw[:nl])

    assert cli.main(["suite", "--dim", "2", "--train", "1", "--test", "1",
                     "--out", str(tmp_path / "suite")]) == 0
    for version in (99, 1, 2):
        manifest["format_version"] = version
        path.write_bytes(json.dumps(manifest).encode() + raw[nl:])
        with pytest.raises(WeightFileError):
            load_weights(path)
        assert cli.main(["run", "--weights", str(path), "--instances", str(tmp_path / "suite"),
                         "--algorithms", "lde,ctpb_fixed", "--runs", "1", "--budget", "40",
                         "--out", str(tmp_path / "runs")]) == 3

    manifest["format_version"] = 3
    manifest["spec"]["bins"] = 3  # the spec now implies D = 10; the blob holds D = 6
    path.write_bytes(json.dumps(manifest).encode() + raw[nl:])
    with pytest.raises(WeightFileError):
        load_weights(path)

    manifest["spec"] = {**SPEC.spec_dict(), "pop_size": 3}  # not a valid spec
    path.write_bytes(json.dumps(manifest).encode() + raw[nl:])
    with pytest.raises(WeightFileError):
        load_weights(path)

    manifest["spec"] = SPEC.spec_dict()
    manifest["H"] = "x"
    path.write_bytes(json.dumps(manifest).encode() + raw[nl:])
    with pytest.raises(WeightFileError):
        load_weights(path)


@pytest.mark.parametrize("H", [0, 4.0, 4.5, True])
def test_load_refuses_an_h_that_is_not_a_positive_integer(tmp_path, H):
    # the blob and its checksum fit int(H), so only the H check can refuse the file
    h, D, N = int(H), SPEC.input_size, SPEC.pop_size
    blob = np.zeros(4 * h * (h + D) + 4 * h + 2 * N * h + 2 * N).tobytes()
    manifest = {"format_version": 3, "H": H, "spec": SPEC.spec_dict(), "seed": 0,
                "blob_bytes": len(blob), "training_metadata": {}}
    path = tmp_path / "w.bin"
    path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob
                     + struct.pack("<I", zlib.crc32(blob)))
    with pytest.raises(WeightFileError, match="H must be an integer >= 1"):
        load_weights(path)
    assert cli.main(["suite", "--dim", "2", "--train", "1", "--test", "1",
                     "--out", str(tmp_path / "suite")]) == 0
    assert cli.main(["run", "--weights", str(path), "--instances", str(tmp_path / "suite"),
                     "--algorithms", "lde", "--runs", "1", "--budget", "40",
                     "--out", str(tmp_path / "runs")]) == 3
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key, value", [
    ("seed", "x"), ("seed", 4.5), ("seed", -1), ("seed", True),
    ("training_metadata", []),
    ("training_metadata", {"horizon": "abc"}),
    ("training_metadata", {"epochs_done": "x"}),
    ("training_metadata", {"alpha": False}),
])
def test_load_refuses_a_bad_seed_or_training_metadata(tmp_path, key, value):
    path = tmp_path / "w.bin"
    w = init_weights(4, SPEC.input_size, SPEC.pop_size, np.random.default_rng(0))
    save_weights(w, path, seed=0, spec=SPEC)
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    path.write_bytes(json.dumps({**json.loads(raw[:nl]), key: value}).encode() + raw[nl:])
    with pytest.raises(WeightFileError, match=key):
        load_weights(path)
    suite = str(tmp_path / "suite")
    assert cli.main(["suite", "--dim", "2", "--train", "1", "--test", "1", "--out", suite]) == 0
    assert cli.main(["train", "--resume", str(path), "--suite", suite,
                     "--out", str(tmp_path / "trained")]) == 3
    assert cli.main(["run", "--weights", str(path), "--instances", suite, "--algorithms", "lde",
                     "--runs", "1", "--budget", "40", "--out", str(tmp_path / "runs")]) == 3
    assert not (tmp_path / "trained").exists() and not (tmp_path / "runs").exists()


def test_save_refuses_spec_that_does_not_fit_the_weights(tmp_path):
    w = init_weights(4, 6, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        save_weights(w, tmp_path / "w.bin", seed=0, spec=PolicyConfig(pop_size=4, bins=2))
    with pytest.raises(ValueError):
        save_weights(w, tmp_path / "w.bin", seed=0, spec=PolicyConfig(pop_size=5, bins=1))


def test_load_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_weights(tmp_path / "absent.bin")


def test_sigmoid_matches_the_branch_select_form_bit_for_bit():
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.standard_normal(20000) * s for s in (1e-3, 1.0, 30.0, 800.0)]
                       + [[0.0, -0.0, 5e-324, -5e-324, 709.0, -709.0, 746.0, -746.0,
                           np.inf, -np.inf]]).reshape(-1, 10)
    e = np.exp(-np.abs(z))
    want = np.where(z >= 0, 1.0, e) / (1.0 + e)
    np.testing.assert_array_equal(_sigmoid(z).view(np.uint64), want.view(np.uint64))
    assert np.isnan(_sigmoid(np.array([[np.nan]]))).all()
