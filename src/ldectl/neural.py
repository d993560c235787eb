"""LSTM controller with two sigmoid heads, trained by hand-rolled BPTT.

One forward step consumes the feature vector x_t (length D), updates the
cell through the usual gates

    f = sig(W_f [h; x] + b_f)      i = sig(W_i [h; x] + b_i)
    g = tanh(W_c [h; x] + b_c)     o = sig(W_o [h; x] + b_o)
    c = f * c_prev + i * g         h = o * tanh(c)

and emits 2N head outputs mu = [sig(h W_F + b_F); sig(h W_C + b_C)],
the per-individual scale-factor and crossover-rate means.  Backward
replays the taped steps in reverse and accumulates exact gradients of
sum_t <out_grad_t, mu_t> with respect to every weight; nothing is
truncated.  A central finite-difference checker covers the whole
parameter vector.

Forward and backward advance a batch of B independent rollouts: inputs,
states, tapes and output gradients carry a leading batch axis, and
backward returns one gradient per rollout.  Every matrix-vector product
is one stacked product (B, 1, K) @ (K, M), which gives each row the bits
of its own W @ v whatever B is; a plain (B, K) @ (K, M) gemm does not.

Weight files are a single JSON manifest line followed by the raw
matrices (row-major little-endian float64, in FIELD_ORDER) and a CRC32
of that blob, so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import json
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericFailure
from .policy import PolicyConfig

FIELD_ORDER = (
    "W_f", "W_i", "W_c", "W_o",
    "b_f", "b_i", "b_c", "b_o",
    "W_F", "b_F", "W_C", "b_C",
)

# head outputs are clamped strictly inside (0, 1)
_HEAD_EPS = 1e-12

FORMAT_VERSION = 2


class WeightFileError(OSError):
    """Unknown version, malformed manifest, bad sizes, or checksum mismatch."""


@dataclass
class ControllerWeights:
    """All trainable parameters; gate matrices act on [h_prev; x]."""

    W_f: np.ndarray
    W_i: np.ndarray
    W_c: np.ndarray
    W_o: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray
    W_F: np.ndarray
    b_F: np.ndarray
    W_C: np.ndarray
    b_C: np.ndarray

    @property
    def hidden(self) -> int:
        return self.b_f.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_f.shape[1] - self.hidden

    @property
    def actions(self) -> int:
        # individuals controlled, i.e. N; the policy emits 2N means
        return self.b_F.shape[0]


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
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray
    mu_raw: np.ndarray   # head sigmoids before output clamping


def zero_state(hidden: int, batch: int) -> ControllerState:
    return ControllerState(np.zeros((batch, hidden)), np.zeros((batch, hidden)))


def init_weights(hidden: int, input_size: int, actions: int, rng) -> ControllerWeights:
    """Every entry uniform in [-1/sqrt(hidden), +1/sqrt(hidden)]."""
    if hidden < 1 or input_size < 1 or actions < 1:
        raise ValueError("hidden, input_size, and actions must be positive")
    lim = 1.0 / np.sqrt(hidden)

    def u(*shape):
        return rng.uniform(-lim, lim, size=shape)

    return ControllerWeights(
        W_f=u(hidden, hidden + input_size), W_i=u(hidden, hidden + input_size),
        W_c=u(hidden, hidden + input_size), W_o=u(hidden, hidden + input_size),
        b_f=u(hidden), b_i=u(hidden), b_c=u(hidden), b_o=u(hidden),
        W_F=u(hidden, actions), b_F=u(actions),
        W_C=u(hidden, actions), b_C=u(actions),
    )


def _sigmoid(z):
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, both from
    # e = e^-|z|, so neither branch overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# multiply-add accounting (used by the cost-scaling harness)

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
        _mac_counter.total += 4 * w.W_f.size + w.W_F.size + w.W_C.size
    z = np.concatenate([state.h, x], axis=1)
    # the three sigmoid gates in one elementwise pass
    fio = _sigmoid(np.concatenate([_stacked(w.W_f, z) + w.b_f, _stacked(w.W_i, z) + w.b_i,
                                   _stacked(w.W_o, z) + w.b_o], axis=1))
    f, i, o = fio[:, :H], fio[:, H:2 * H], fio[:, 2 * H:]
    ctilde = np.tanh(_stacked(w.W_c, z) + w.b_c)
    c = f * state.c + i * ctilde
    tanh_c = np.tanh(c)
    h = o * tanh_c
    mu_raw = _sigmoid(np.concatenate([_stacked(w.W_F.T, h) + w.b_F,
                                      _stacked(w.W_C.T, h) + w.b_C], axis=1))
    # h lies in [-1, 1] and mu_raw in [0, 1]: their sum is finite unless
    # some entry is not
    if not np.isfinite(h.sum() + mu_raw.sum()):
        raise NumericFailure("controller produced non-finite activations")
    mu = np.minimum(np.maximum(mu_raw, _HEAD_EPS), 1.0 - _HEAD_EPS)
    tape = StepTape(z=z, c_prev=state.c, f=f, i=i, ctilde=ctilde, o=o,
                    c=c, tanh_c=tanh_c, h=h, mu_raw=mu_raw)
    return mu, ControllerState(h, c), tape


def weights_zeros_like(w: ControllerWeights) -> ControllerWeights:
    return ControllerWeights(**{k: np.zeros_like(getattr(w, k)) for k in FIELD_ORDER})


def weights_add_scaled(acc: ControllerWeights, g: ControllerWeights, scale: float) -> None:
    """In-place acc += scale * g, field by field."""
    for k in FIELD_ORDER:
        getattr(acc, k).__iadd__(scale * getattr(g, k))


def sgd_ascent(w: ControllerWeights, grad: ControllerWeights, alpha: float) -> ControllerWeights:
    """Plain gradient ascent step, returning fresh arrays."""
    return ControllerWeights(
        **{k: getattr(w, k) + alpha * getattr(grad, k) for k in FIELD_ORDER}
    )


def weights_rows(g: ControllerWeights) -> list:
    """Split weights stacked along a leading batch axis into one per row."""
    return [ControllerWeights(**{k: getattr(g, k)[b] for k in FIELD_ORDER})
            for b in range(g.b_f.shape[0])]


def flatten_weights(w: ControllerWeights) -> np.ndarray:
    return np.concatenate([getattr(w, k).ravel() for k in FIELD_ORDER])


def grad_norm(g: ControllerWeights) -> float:
    return float(np.sqrt(sum(float(np.sum(getattr(g, k) ** 2)) for k in FIELD_ORDER)))


def backward_through_time(w: ControllerWeights, tapes, out_grads) -> ControllerWeights:
    """Exact gradient of sum_t <out_grads[t], mu_t> over B taped rollouts.

    Arguments
    ---------
    tapes : list of StepTape, oldest first, with (B, .) rows.
    out_grads : list of ndarray, shape (B, 2N)
        Gradient on the head outputs per step (scale-factor half first).

    Returns
    -------
    ControllerWeights whose fields carry a leading batch axis: row b is
    the gradient of rollout b alone, summed over its steps newest first.
    """
    if len(tapes) != len(out_grads):
        raise ValueError("tapes and out_grads must have equal length")
    H = w.hidden
    N = w.actions
    B = len(out_grads[0]) if out_grads else 0
    # the gate gradients accumulate as one (B, 4H, H + D) stack, gates in
    # the order f, i, c, o, and the heads as one (B, H, 2N) stack: each
    # entry still sums its own products over the steps, newest first
    g_gates = np.zeros((B, 4 * H, w.W_f.shape[1]))
    outer = np.empty_like(g_gates)  # reused: a fresh (B, 4H, H + D) temporary per step is slower
    g_gate_bias = np.zeros((B, 4 * H))
    g_heads = np.zeros((B, H, 2 * N))
    g_head_bias = np.zeros((B, 2 * N))
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for tape, og in zip(reversed(tapes), reversed(out_grads)):
        og = np.asarray(og, dtype=float)
        if og.shape != (B, 2 * N):
            raise ValueError(f"out_grad shape {og.shape} != ({B}, {2 * N})")
        da_heads = og * tape.mu_raw * (1.0 - tape.mu_raw)
        daF, daC = da_heads[:, :N], da_heads[:, N:]
        g_heads += tape.h[:, :, None] * da_heads[:, None, :]
        g_head_bias += da_heads

        dh = _stacked(w.W_F, daF) + _stacked(w.W_C, daC) + dh_next
        do = dh * tape.tanh_c
        dao = do * tape.o * (1.0 - tape.o)
        dc = dh * tape.o * (1.0 - tape.tanh_c ** 2) + dc_next
        df = dc * tape.c_prev
        daf = df * tape.f * (1.0 - tape.f)
        di = dc * tape.ctilde
        dai = di * tape.i * (1.0 - tape.i)
        dg = dc * tape.i
        dac = dg * (1.0 - tape.ctilde ** 2)

        da_gates = np.concatenate([daf, dai, dac, dao], axis=1)
        g_gates += np.multiply(da_gates[:, :, None], tape.z[:, None, :], out=outer)
        g_gate_bias += da_gates

        dz = (_stacked(w.W_f.T, daf) + _stacked(w.W_i.T, dai)
              + _stacked(w.W_c.T, dac) + _stacked(w.W_o.T, dao))
        dh_next = dz[:, :H]
        dc_next = dc * tape.f
    W_f, W_i, W_c, W_o = np.split(g_gates, 4, axis=1)
    b_f, b_i, b_c, b_o = np.split(g_gate_bias, 4, axis=1)
    return ControllerWeights(
        W_f=W_f, W_i=W_i, W_c=W_c, W_o=W_o, b_f=b_f, b_i=b_i, b_c=b_c, b_o=b_o,
        W_F=g_heads[:, :, :N], b_F=g_head_bias[:, :N],
        W_C=g_heads[:, :, N:], b_C=g_head_bias[:, N:],
    )


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
    """Central finite differences of :func:`rollout_objective` over every entry."""
    g = weights_zeros_like(w)
    for k in FIELD_ORDER:
        arr = getattr(w, k)
        out = getattr(g, k)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + eps
            hi = rollout_objective(w, xs, out_grads)
            arr[ix] = orig - eps
            lo = rollout_objective(w, xs, out_grads)
            arr[ix] = orig
            out[ix] = (hi - lo) / (2.0 * eps)
    return g


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
                  eps: float = 1e-6, threshold: float = 1e-4, seed: int = 0,
                  rng=None, corrupt: bool = False) -> GradCheckReport:
    """Compare BPTT gradients against central differences on a seeded rollout.

    ``corrupt`` deliberately damages one analytic entry first; it exists so
    harnesses can prove the check actually detects wrong gradients.
    """
    if rng is None:
        from .rng import stream
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
    analytic, = weights_rows(backward_through_time(w, tapes, [og[None] for og in out_grads]))
    if corrupt:
        analytic.W_f[0, 0] += 1.0
    numeric = fd_gradient(w, xs, out_grads, eps=eps)

    # relative error per parameter matrix: ||a - n|| / max(||a||, ||n||).
    # Entry-wise ratios are meaningless below the finite-difference noise
    # floor (~|J| * eps_machine / eps), while a wrong gradient term shifts
    # whole-matrix norms and trips this metric immediately.
    per_field = {}
    worst = 0.0
    worst_field = FIELD_ORDER[0]
    for k in FIELD_ORDER:
        a = getattr(analytic, k)
        n = getattr(numeric, k)
        denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(n)), 1e-12)
        rel = float(np.linalg.norm(a - n)) / denom
        per_field[k] = rel
        if rel > worst:
            worst, worst_field = rel, k
    return GradCheckReport(max_rel_err=worst, worst_field=worst_field,
                           per_field=per_field, threshold=threshold)


# ---------------------------------------------------------------------------
# weight files

def _shapes(hidden: int, input_size: int, actions: int):
    z = hidden + input_size
    return (
        (hidden, z), (hidden, z), (hidden, z), (hidden, z),
        (hidden,), (hidden,), (hidden,), (hidden,),
        (hidden, actions), (actions,), (hidden, actions), (actions,),
    )


def save_weights(w: ControllerWeights, path, *, seed: int, spec: PolicyConfig,
                 training_metadata: dict | None = None) -> None:
    """Write manifest line, matrix blob, and trailing CRC32.

    The manifest records the controller spec once; D and N follow from it.
    """
    spec.check_weights(w)
    blob = b"".join(
        np.ascontiguousarray(getattr(w, k), dtype="<f8").tobytes() for k in FIELD_ORDER
    )
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
    try:
        spec = PolicyConfig(**manifest["spec"])
        hidden = int(manifest["H"])
    except (TypeError, ValueError) as exc:
        raise WeightFileError(f"{path}: bad spec or H ({exc})") from None
    shapes = _shapes(hidden, spec.input_size, spec.pop_size)
    want = sum(int(np.prod(s)) for s in shapes) * 8
    if manifest["blob_bytes"] != want:
        raise WeightFileError(f"{path}: blob_bytes {manifest['blob_bytes']} != expected {want}")
    blob = raw[nl + 1: nl + 1 + want]
    tail = raw[nl + 1 + want:]
    if len(blob) != want or len(tail) != 4:
        raise WeightFileError(f"{path}: truncated blob or checksum")
    if struct.unpack("<I", tail)[0] != zlib.crc32(blob):
        raise WeightFileError(f"{path}: checksum mismatch")
    vals = {}
    off = 0
    for k, shape in zip(FIELD_ORDER, shapes):
        cnt = int(np.prod(shape))
        vals[k] = np.frombuffer(blob, dtype="<f8", count=cnt, offset=off).reshape(shape).copy()
        off += cnt * 8
    return ControllerWeights(**vals), manifest
