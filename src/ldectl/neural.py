"""LSTM controller with two sigmoid heads, trained by hand-rolled BPTT.

One forward step consumes the feature vector x_t (length D) and updates
the cell through the usual gates, stacked into one product with the
(4H, H + D) matrix W_g, gate rows in the order f, i, o, c:

    [a_f; a_i; a_o; a_c] = W_g [h; x] + b_g
    f, i, o = sig(a_f), sig(a_i), sig(a_o)      g = tanh(a_c)
    c = f * c_prev + i * g                      h = o * tanh(c)

and emits 2N head outputs mu = sig(W_head^T h + b_head) from the (H, 2N)
matrix W_head: the per-individual scale-factor means in its first N
columns, the crossover-rate means in the last N.  Backward replays the
taped steps in reverse and accumulates exact gradients of
sum_t <out_grad_t, mu_t> with respect to every weight; nothing is
truncated.  A central finite-difference checker covers the whole
parameter vector.

The parameters are one float64 vector theta: W_g, b_g, W_head and b_head
laid end to end, row-major, in FIELD_ORDER.  The steps read them as views
into theta; the ascent step, the checker and the weight file use theta,
which a weight file holds as raw little-endian float64 after a JSON
manifest line and before a CRC32 of it, so a save/load round trip is
bit-exact.

Forward and backward advance a batch of B independent rollouts: inputs,
states, tapes and output gradients carry a leading batch axis, and
backward returns one gradient per rollout, or adds them into one vector
a block of rows at a time.  Every matrix-vector product
is one stacked product (B, 1, K) @ (K, M), which gives each row the bits
of its own W @ v whatever B is; a plain (B, K) @ (K, M) gemm does not.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericFailure
from .policy import PolicyConfig
from .rng import stream

FIELD_ORDER = ("W_g", "b_g", "W_head", "b_head")

# head outputs are clamped strictly inside (0, 1)
_HEAD_EPS = 1e-12

FORMAT_VERSION = 3


class WeightFileError(OSError):
    """Unknown version, malformed manifest, bad sizes, or checksum mismatch."""


def _shapes(hidden: int, input_size: int, actions: int):
    """Shapes of the FIELD_ORDER blocks of theta."""
    return ((4 * hidden, hidden + input_size), (4 * hidden,),
            (hidden, 2 * actions), (2 * actions,))


@dataclass(eq=False)
class ControllerWeights:
    """All trainable parameters as one vector theta, with the blocks as views.

    theta has shape (P,) for weights, or (B, P) for one gradient per
    rollout.  The views, with the same leading axis, are W_g (4H, H + D)
    with gate rows f, i, o, c acting on [h_prev; x], b_g (4H,), W_head
    (H, 2N) with the scale-factor columns first, and b_head (2N,).  A
    write through a view changes theta.
    """

    theta: np.ndarray
    hidden: int      # H
    input_size: int  # D
    actions: int     # individuals controlled, N; the policy emits 2N means

    def __post_init__(self):
        lead, off = self.theta.shape[:-1], 0
        for k, shape in zip(FIELD_ORDER, _shapes(self.hidden, self.input_size, self.actions)):
            size = math.prod(shape)
            setattr(self, k, self.theta[..., off:off + size].reshape(lead + shape))
            off += size
        if off != self.theta.shape[-1]:
            raise ValueError(f"theta has {self.theta.shape[-1]} entries, not {off}")

    def __reduce__(self):
        # pickle theta alone, so the unpickled views share the unpickled vector
        return ControllerWeights, (self.theta, self.hidden, self.input_size, self.actions)

    def like(self, theta) -> "ControllerWeights":
        """Weights of the same sizes holding ``theta``."""
        return ControllerWeights(theta, self.hidden, self.input_size, self.actions)


@dataclass
class ControllerState:
    h: np.ndarray  # (B, H)
    c: np.ndarray  # (B, H)


@dataclass
class StepTape:
    """Everything backward needs to replay one forward step; (B, .) rows."""

    z: np.ndarray        # [h_prev; x]
    c_prev: np.ndarray
    f: np.ndarray
    i: np.ndarray
    ctilde: np.ndarray
    o: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray
    mu_raw: np.ndarray   # head sigmoids before output clamping


def zero_state(hidden: int, batch: int) -> ControllerState:
    return ControllerState(np.zeros((batch, hidden)), np.zeros((batch, hidden)))


def init_weights(hidden: int, input_size: int, actions: int, rng) -> ControllerWeights:
    """Every entry uniform in [-1/sqrt(hidden), +1/sqrt(hidden)].

    Each gate and head is drawn on its own, in the order W_f, W_i, W_c,
    W_o, b_f, b_i, b_c, b_o, W_F, b_F, W_C, b_C, and the draws are then
    stacked into the fused layout.
    """
    if hidden < 1 or input_size < 1 or actions < 1:
        raise ValueError("hidden, input_size, and actions must be positive")
    lim = 1.0 / np.sqrt(hidden)

    def u(*shape):
        return rng.uniform(-lim, lim, size=shape)

    W_f, W_i, W_c, W_o = (u(hidden, hidden + input_size) for _ in range(4))
    b_f, b_i, b_c, b_o = (u(hidden) for _ in range(4))
    W_F, b_F = u(hidden, actions), u(actions)
    W_C, b_C = u(hidden, actions), u(actions)
    # W_g, b_g, W_head, b_head: each flattened row-major, laid end to end
    theta = np.concatenate([W_f, W_i, W_o, W_c, b_f, b_i, b_o, b_c,
                            np.hstack([W_F, W_C]), b_F, b_C], axis=None)
    return ControllerWeights(theta, hidden, input_size, actions)


def _sigmoid(z):
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, both from
    # e = e^-|z| (copysign(z, -1) is -|z|), so neither branch overflows;
    # the numerator, 1 from zero up and e below, is the larger of e and sign(z)
    e = np.exp(np.copysign(z, -1.0))
    return np.maximum(e, np.sign(z)) / (1.0 + e)


# ---------------------------------------------------------------------------
# multiply-add accounting (read by the benchmark's tracer and acceptance criterion 9)

class MacCounter:
    def __init__(self):
        self.total = 0


_mac_counter: Optional[MacCounter] = None


@contextmanager
def count_macs():
    """Count the multiply-adds of the controller steps in scope.

    A step over B rollouts counts once: the total is the cost per
    rollout, 4H(H+D) for the gates plus 2NH for the heads, whatever the
    batch size.
    """
    global _mac_counter
    prev, counter = _mac_counter, MacCounter()
    _mac_counter = counter
    try:
        yield counter
    finally:
        _mac_counter = prev


def _stacked(W, v):
    """W @ v_b for every row v_b of v (B, K), as one stacked product: (B, M)."""
    return (v[:, None, :] @ W.T)[:, 0]


# ---------------------------------------------------------------------------
# forward / backward

def forward_step(w: ControllerWeights, x, state: ControllerState):
    """One controller step of B rollouts.

    Arguments
    ---------
    w : ControllerWeights
    x : ndarray, shape (B, D)
        Feature vectors for the current generation.
    state : ControllerState
        Hidden and cell rows from the previous step, shape (B, H) each.

    Returns
    -------
    mu : ndarray, shape (B, 2N)
        Head outputs, scale-factor means first, clamped inside (0, 1).
    new_state : ControllerState
    tape : StepTape
    """
    x = np.asarray(x, dtype=float)
    H = w.hidden
    if x.ndim != 2 or x.shape[1] != w.input_size:
        raise ValueError(f"input shape {x.shape} != (B, {w.input_size})")
    if _mac_counter is not None:
        _mac_counter.total += w.W_g.size + w.W_head.size
    z = np.concatenate([state.h, x], axis=1)
    a = _stacked(w.W_g, z) + w.b_g
    # the three sigmoid gates in one elementwise pass
    fio = _sigmoid(a[:, :3 * H])
    f, i, o = fio[:, :H], fio[:, H:2 * H], fio[:, 2 * H:]
    ctilde = np.tanh(a[:, 3 * H:])
    c = f * state.c + i * ctilde
    tanh_c = np.tanh(c)
    h = o * tanh_c
    mu_raw = _sigmoid(_stacked(w.W_head.T, h) + w.b_head)
    # h lies in [-1, 1] unless NaN, and a NaN in h reaches every head of its
    # row; mu_raw lies in [0, 1] unless NaN, so its sum is finite exactly
    # when every entry of h and mu_raw is
    if not math.isfinite(np.add.reduce(mu_raw, axis=None)):
        raise NumericFailure("controller produced non-finite activations")
    mu = np.minimum(np.maximum(mu_raw, _HEAD_EPS), 1.0 - _HEAD_EPS)
    tape = StepTape(z=z, c_prev=state.c, f=f, i=i, ctilde=ctilde, o=o,
                    tanh_c=tanh_c, h=h, mu_raw=mu_raw)
    return mu, ControllerState(h, c), tape


def sgd_ascent(w: ControllerWeights, grad: ControllerWeights, alpha: float) -> ControllerWeights:
    """Plain gradient ascent step theta + alpha * grad, in a fresh vector."""
    return w.like(w.theta + alpha * grad.theta)


def grad_norm(g: ControllerWeights) -> float:
    # summed block by block: one sum over theta would move the low bits
    return float(np.sqrt(sum(float(np.sum(getattr(g, k) ** 2)) for k in FIELD_ORDER)))


def backward_through_time(w: ControllerWeights, tapes, out_grads, block: int = 0,
                          acc: Optional[np.ndarray] = None) -> ControllerWeights:
    """Exact gradient of sum_t <out_grads[t], mu_t> over B taped rollouts.

    Arguments
    ---------
    tapes : list of StepTape, oldest first, with (B, .) rows.
    out_grads : list of ndarray, shape (B, 2N)
        Gradient on the head outputs per step (scale-factor half first).
    block : int
        Rows whose weight gradients are formed together; 0 for all B.
    acc : ndarray, shape (P,), optional
        Where to add the per-rollout gradients, one row at a time in row
        order; then only one block's rows are held at a time.

    Returns
    -------
    Without ``acc``, ControllerWeights with theta of shape (B, P): row b
    is the gradient of rollout b alone.  Its weight blocks are one
    product over the steps each, (4H, T) @ (T, H + D) and (H, T) @
    (T, 2N); its bias blocks are sums over the steps, oldest first.
    With ``acc``, the weights holding ``acc``.  The time loop runs once
    over all B rows; each row's bits do not depend on B or ``block``.
    """
    if len(tapes) != len(out_grads):
        raise ValueError("tapes and out_grads must have equal length")
    if not tapes:
        return w.like(np.zeros((0, w.theta.size)) if acc is None else acc)
    H, T, B = w.hidden, len(tapes), len(out_grads[0])
    block = block or B
    # each step's gate and head pre-activation gradients, (T, B, .); the
    # weight gradients are then one product over time per rollout
    da_g = np.empty((T, B) + w.b_g.shape)
    da_h = np.empty((T, B) + w.b_head.shape)
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in reversed(range(T)):
        tape = tapes[t]
        og = np.asarray(out_grads[t], dtype=float)
        if og.shape != da_h.shape[1:]:
            raise ValueError(f"out_grad shape {og.shape} != {da_h.shape[1:]}")
        da_heads = da_h[t]
        da_heads[...] = og * tape.mu_raw * (1.0 - tape.mu_raw)

        dh = _stacked(w.W_head, da_heads) + dh_next
        do = dh * tape.tanh_c
        dao = do * tape.o * (1.0 - tape.o)
        dc = dh * tape.o * (1.0 - tape.tanh_c ** 2) + dc_next
        df = dc * tape.c_prev
        daf = df * tape.f * (1.0 - tape.f)
        di = dc * tape.ctilde
        dai = di * tape.i * (1.0 - tape.i)
        dg = dc * tape.i
        dac = dg * (1.0 - tape.ctilde ** 2)

        da_gates = np.concatenate([daf, dai, dao, dac], axis=1, out=da_g[t])
        dh_next = _stacked(w.W_g[:, :H].T, da_gates)
        dc_next = dc * tape.f
    theta = np.empty((B if acc is None else block, w.theta.size))
    for r0 in range(0, B, block):
        rows = slice(r0, min(r0 + block, B))
        grad = w.like(theta[rows] if acc is None else theta[:rows.stop - r0])
        Z = np.stack([tape.z[rows] for tape in tapes])     # (T, rows, H + D)
        Hs = np.stack([tape.h[rows] for tape in tapes])    # (T, rows, H)
        np.matmul(da_g[:, rows].transpose(1, 2, 0), Z.transpose(1, 0, 2), out=grad.W_g)
        np.matmul(Hs.transpose(1, 2, 0), da_h[:, rows].transpose(1, 0, 2), out=grad.W_head)
        np.sum(da_g[:, rows], axis=0, out=grad.b_g)
        np.sum(da_h[:, rows], axis=0, out=grad.b_head)
        if acc is not None:
            for row in grad.theta:
                acc += row
    return w.like(theta if acc is None else acc)


# ---------------------------------------------------------------------------
# finite-difference checking

def rollout_objective(w: ControllerWeights, xs, out_grads) -> float:
    """sum_t <out_grads[t], mu_t> over one fresh zero-state rollout,
    inputs xs[t] of shape (D,), run as a batch of one."""
    state = zero_state(w.hidden, 1)
    total = 0.0
    for x, og in zip(xs, out_grads):
        mu, state, _ = forward_step(w, np.asarray(x, dtype=float)[None], state)
        total += float(np.dot(og, mu[0]))
    return total


def fd_gradient(w: ControllerWeights, xs, out_grads, eps: float = 1e-6) -> ControllerWeights:
    """Central finite differences of :func:`rollout_objective` over every entry of theta."""
    theta = w.theta
    g = np.empty_like(theta)
    for j in range(theta.size):
        orig = theta[j]
        theta[j] = orig + eps
        hi = rollout_objective(w, xs, out_grads)
        theta[j] = orig - eps
        lo = rollout_objective(w, xs, out_grads)
        theta[j] = orig
        g[j] = (hi - lo) / (2.0 * eps)
    return w.like(g)


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_field: str
    per_field: dict = field(default_factory=dict)
    threshold: float = 1e-4

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.threshold


def run_gradcheck(hidden: int = 8, actions: int = 4, bins: int = 1, steps: int = 5,
                  eps: float = 1e-6, threshold: float = 1e-4, seed: int = 0) -> GradCheckReport:
    """Compare BPTT gradients against central differences on a seeded rollout."""
    if min(hidden, actions, bins, steps) < 1:
        raise ValueError("hidden, actions, bins, and steps must be >= 1")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0.0 < threshold < math.inf:  # no error passes a threshold <= 0 or NaN
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    rng = stream(seed, "gradcheck")
    input_size = actions + 2 * bins
    w = init_weights(hidden, input_size, actions, rng)
    xs = rng.uniform(0.0, 1.0, size=(steps, input_size))
    out_grads = rng.standard_normal((steps, 2 * actions))

    state = zero_state(hidden, 1)
    tapes = []
    for x in xs:
        _, state, tape = forward_step(w, x[None], state)
        tapes.append(tape)
    analytic = w.like(backward_through_time(w, tapes, [og[None] for og in out_grads]).theta[0])
    numeric = fd_gradient(w, xs, out_grads, eps=eps)

    # relative error per parameter matrix: ||a - n|| / max(||a||, ||n||).
    # Entry-wise ratios are meaningless below the finite-difference noise
    # floor (~|J| * eps_machine / eps), while a wrong gradient term shifts
    # whole-matrix norms and trips this metric immediately.
    per_field = {}
    for k in FIELD_ORDER:
        a = getattr(analytic, k)
        n = getattr(numeric, k)
        denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(n)), 1e-12)
        per_field[k] = float(np.linalg.norm(a - n)) / denom
    # a non-finite error (NaN compares false) ranks above every finite one
    worst_field = max(FIELD_ORDER, key=lambda k: (not math.isfinite(per_field[k]), per_field[k]))
    return GradCheckReport(max_rel_err=per_field[worst_field], worst_field=worst_field,
                           per_field=per_field, threshold=threshold)


# ---------------------------------------------------------------------------
# weight files

def save_weights(w: ControllerWeights, path, *, seed: int, spec: PolicyConfig,
                 training_metadata: dict | None = None) -> None:
    """Write manifest line, theta as the blob, and trailing CRC32.

    The manifest records the controller spec once; D and N follow from it.
    """
    spec.check_weights(w)
    blob = w.theta.astype("<f8", copy=False).tobytes()
    manifest = {
        "format_version": FORMAT_VERSION,
        "H": w.hidden,
        "spec": spec.spec_dict(),
        "seed": seed,
        "blob_bytes": len(blob),
        "training_metadata": training_metadata or {},
    }
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(blob)
        fh.write(struct.pack("<I", zlib.crc32(blob)))


def load_weights(path):
    """Read a weight file back; returns (weights, manifest).

    Raises WeightFileError on an unknown format version, a malformed
    manifest or spec, wrong sizes, or a checksum mismatch.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise WeightFileError(f"{path}: missing manifest line")
    try:
        manifest = json.loads(raw[:nl].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WeightFileError(f"{path}: malformed manifest ({exc})") from None
    if not isinstance(manifest, dict):
        raise WeightFileError(f"{path}: manifest is not an object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise WeightFileError(f"{path}: unsupported format_version {version}")
    if not {"H", "spec", "seed", "blob_bytes"} <= set(manifest):
        raise WeightFileError(f"{path}: manifest missing required keys")
    hidden, trained = manifest["H"], manifest.get("training_metadata", {})
    try:
        spec = PolicyConfig(**manifest["spec"])
        for key, low in (("H", 1), ("seed", 0)):  # json gives 4.0 a float, true a bool
            if type(manifest[key]) is not int or manifest[key] < low:
                raise ValueError(f"{key} must be an integer >= {low}, got {manifest[key]!r}")
        if not isinstance(trained, dict):
            raise ValueError(f"training_metadata must be an object, got {trained!r}")
        for key in ("epochs_done", "functions", "dim", "horizon", "rollouts", "alpha"):
            if key in trained and type(trained[key]) not in (int, float if key == "alpha" else int):
                raise ValueError(f"training_metadata {key} has the wrong type: {trained[key]!r}")
    except (TypeError, ValueError) as exc:
        raise WeightFileError(f"{path}: bad manifest ({exc})") from None
    want = sum(math.prod(s) for s in _shapes(hidden, spec.input_size, spec.pop_size)) * 8
    if manifest["blob_bytes"] != want:
        raise WeightFileError(f"{path}: blob_bytes {manifest['blob_bytes']} != expected {want}")
    blob = raw[nl + 1: nl + 1 + want]
    tail = raw[nl + 1 + want:]
    if len(blob) != want or len(tail) != 4:
        raise WeightFileError(f"{path}: truncated blob or checksum")
    if struct.unpack("<I", tail)[0] != zlib.crc32(blob):
        raise WeightFileError(f"{path}: checksum mismatch")
    theta = np.frombuffer(blob, dtype="<f8").astype(float)
    return ControllerWeights(theta, hidden, spec.input_size, spec.pop_size), manifest
