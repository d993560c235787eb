"""Controller network: forward oracle, BPTT vs finite differences, weight file."""

import json
import math

import numpy as np
import pytest

from ldectl.errors import NumericFailure
from ldectl.neural import (
    FIELD_ORDER,
    ControllerState,
    ControllerWeights,
    GradCheckReport,
    WeightFileError,
    backward_through_time,
    count_macs,
    fd_gradient,
    flatten_weights,
    forward_step,
    grad_norm,
    init_weights,
    load_weights,
    rollout_objective,
    run_gradcheck,
    save_weights,
    sgd_ascent,
    weights_add_scaled,
    weights_rows,
    weights_zeros_like,
    zero_state,
)
from ldectl.policy import PolicyConfig
from ldectl.rng import stream


def _zero_weights(H, D, N):
    return ControllerWeights(
        W_f=np.zeros((H, H + D)), W_i=np.zeros((H, H + D)),
        W_c=np.zeros((H, H + D)), W_o=np.zeros((H, H + D)),
        b_f=np.zeros(H), b_i=np.zeros(H), b_c=np.zeros(H), b_o=np.zeros(H),
        W_F=np.zeros((H, N)), b_F=np.zeros(N),
        W_C=np.zeros((H, N)), b_C=np.zeros(N),
    )


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
    f = [sig(sum(w.W_f[r, k] * z[k] for k in range(H + D)) + w.b_f[r]) for r in range(H)]
    i = [sig(sum(w.W_i[r, k] * z[k] for k in range(H + D)) + w.b_i[r]) for r in range(H)]
    ct = [math.tanh(sum(w.W_c[r, k] * z[k] for k in range(H + D)) + w.b_c[r]) for r in range(H)]
    o = [sig(sum(w.W_o[r, k] * z[k] for k in range(H + D)) + w.b_o[r]) for r in range(H)]
    c = [f[r] * st0.c[r] + i[r] * ct[r] for r in range(H)]
    h = [o[r] * math.tanh(c[r]) for r in range(H)]
    mu_f = [sig(sum(w.W_F[r, j] * h[r] for r in range(H)) + w.b_F[j]) for j in range(N)]
    mu_c = [sig(sum(w.W_C[r, j] * h[r] for r in range(H)) + w.b_C[j]) for j in range(N)]

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
    w.W_f[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericFailure):
        forward_step(w, np.ones((1, 3)), zero_state(4, 1))


def test_forward_outputs_clamped_inside_open_interval():
    w = init_weights(4, 3, 2, np.random.default_rng(0))
    w.b_F[:] = 1e9   # saturate the scale-factor head
    w.b_C[:] = -1e9
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
    np.testing.assert_array_equal(flatten_weights(w), flatten_weights(again))
    other = init_weights(100, 7, 3, stream(1, "weights"))
    assert not np.array_equal(flatten_weights(w), flatten_weights(other))


def test_init_weights_validates_dims():
    with pytest.raises(ValueError):
        init_weights(0, 3, 2, np.random.default_rng(0))


def test_sgd_ascent_scalar_example_and_trivials():
    w = _zero_weights(1, 1, 1)
    g = _zero_weights(1, 1, 1)
    w.W_f[0, 0] = 1.0
    g.W_f[0, 0] = 2.0
    out = sgd_ascent(w, g, 0.005)
    assert out.W_f[0, 0] == 1.01
    assert w.W_f[0, 0] == 1.0  # input untouched
    np.testing.assert_array_equal(sgd_ascent(w, g, 0.0).W_f, w.W_f)
    np.testing.assert_array_equal(
        sgd_ascent(w, _zero_weights(1, 1, 1), 0.1).W_f, w.W_f)


def test_weight_arithmetic_helpers():
    w = init_weights(3, 2, 2, np.random.default_rng(1))
    z = weights_zeros_like(w)
    assert grad_norm(z) == 0.0
    weights_add_scaled(z, w, 2.0)
    np.testing.assert_allclose(flatten_weights(z), 2.0 * flatten_weights(w))
    assert np.isclose(grad_norm(w), np.linalg.norm(flatten_weights(w)))


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
    analytic, = weights_rows(backward_through_time(w, tapes, [g[None] for g in out_grads]))
    numeric = fd_gradient(w, xs, out_grads, eps=1e-6)

    for k in FIELD_ORDER:
        a, n = getattr(analytic, k), getattr(numeric, k)
        # field-level direction and magnitude
        rel = np.linalg.norm(a - n) / max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
        assert rel < 1e-6, (k, rel)
        # entry-level agreement, absolute floor absorbs FD roundoff
        assert np.all(np.abs(a - n) <= 1e-4 * np.maximum(1.0, np.abs(a))), k


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
    analytic, = weights_rows(backward_through_time(w, [tape], [og[0][None]]))
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


def test_run_gradcheck_detects_corruption():
    report = run_gradcheck(corrupt=True)
    assert not report.passed


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
    np.testing.assert_array_equal(flatten_weights(back), flatten_weights(w))
    assert manifest["format_version"] == 2
    assert manifest["H"] == 8 and manifest["seed"] == 17
    assert manifest["spec"] == {"pop_size": 4, "bins": 1, "window": 5, "sigma": 0.3,
                                "p_best": 0.05, "f_min": 1e-3}
    assert "D" not in manifest and "N" not in manifest  # both follow from the spec
    assert manifest["training_metadata"]["epochs_done"] == 3


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

    for version in (99, 1):
        manifest["format_version"] = version
        path.write_bytes(json.dumps(manifest).encode() + raw[nl:])
        with pytest.raises(WeightFileError):
            load_weights(path)

    manifest["format_version"] = 2
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


def test_save_refuses_spec_that_does_not_fit_the_weights(tmp_path):
    w = init_weights(4, 6, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        save_weights(w, tmp_path / "w.bin", seed=0, spec=PolicyConfig(pop_size=4, bins=2))
    with pytest.raises(ValueError):
        save_weights(w, tmp_path / "w.bin", seed=0, spec=PolicyConfig(pop_size=5, bins=1))


def test_load_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_weights(tmp_path / "absent.bin")
