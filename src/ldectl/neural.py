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
    h: np.ndarray
    c: np.ndarray


@dataclass
class StepTape:
    """Everything backward needs to replay one forward step."""

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


def zero_state(hidden: int) -> ControllerState:
    return ControllerState(np.zeros(hidden), np.zeros(hidden))


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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# multiply-add accounting (used by the cost-scaling harness)

class MacCounter:
    def __init__(self):
        self.total = 0


_mac_counter: Optional[MacCounter] = None


@contextmanager
def count_macs():
    """Count multiply-adds of every matrix-vector product in scope."""
    global _mac_counter
    prev, counter = _mac_counter, MacCounter()
    _mac_counter = counter
    try:
        yield counter
    finally:
        _mac_counter = prev


def _mv(W, v):
    if _mac_counter is not None:
        _mac_counter.total += W.shape[0] * W.shape[1]
    return W @ v


# ---------------------------------------------------------------------------
# forward / backward

def forward_step(w: ControllerWeights, x, state: ControllerState):
    """One controller step.

    Arguments
    ---------
    w : ControllerWeights
    x : ndarray, shape (D,)
        Feature vector for the current generation.
    state : ControllerState
        Hidden and cell vectors from the previous step.

    Returns
    -------
    mu : ndarray, shape (2N,)
        Head outputs, scale-factor means first, clamped inside (0, 1).
    new_state : ControllerState
    tape : StepTape
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (w.input_size,):
        raise ValueError(f"input shape {x.shape} != ({w.input_size},)")
    z = np.concatenate([state.h, x])
    f = _sigmoid(_mv(w.W_f, z) + w.b_f)
    i = _sigmoid(_mv(w.W_i, z) + w.b_i)
    ctilde = np.tanh(_mv(w.W_c, z) + w.b_c)
    o = _sigmoid(_mv(w.W_o, z) + w.b_o)
    c = f * state.c + i * ctilde
    tanh_c = np.tanh(c)
    h = o * tanh_c
    mu_raw = np.concatenate([
        _sigmoid(_mv(w.W_F.T, h) + w.b_F),
        _sigmoid(_mv(w.W_C.T, h) + w.b_C),
    ])
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(mu_raw))):
        raise NumericFailure("controller produced non-finite activations")
    mu = np.clip(mu_raw, _HEAD_EPS, 1.0 - _HEAD_EPS)
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


def flatten_weights(w: ControllerWeights) -> np.ndarray:
    return np.concatenate([getattr(w, k).ravel() for k in FIELD_ORDER])


def grad_norm(g: ControllerWeights) -> float:
    return float(np.sqrt(sum(float(np.sum(getattr(g, k) ** 2)) for k in FIELD_ORDER)))


def backward_through_time(w: ControllerWeights, tapes, out_grads) -> ControllerWeights:
    """Exact gradient of sum_t <out_grads[t], mu_t> over a taped rollout.

    Arguments
    ---------
    tapes : list of StepTape, oldest first.
    out_grads : list of ndarray, shape (2N,)
        Gradient on the head outputs per step (scale-factor half first).

    Returns
    -------
    ControllerWeights holding the accumulated parameter gradients.
    """
    if len(tapes) != len(out_grads):
        raise ValueError("tapes and out_grads must have equal length")
    H = w.hidden
    N = w.actions
    g = weights_zeros_like(w)
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    for tape, og in zip(reversed(tapes), reversed(out_grads)):
        og = np.asarray(og, dtype=float)
        if og.shape != (2 * N,):
            raise ValueError(f"out_grad shape {og.shape} != ({2 * N},)")
        muF, muC = tape.mu_raw[:N], tape.mu_raw[N:]
        daF = og[:N] * muF * (1.0 - muF)
        daC = og[N:] * muC * (1.0 - muC)
        g.W_F += np.outer(tape.h, daF)
        g.b_F += daF
        g.W_C += np.outer(tape.h, daC)
        g.b_C += daC

        dh = w.W_F @ daF + w.W_C @ daC + dh_next
        do = dh * tape.tanh_c
        dao = do * tape.o * (1.0 - tape.o)
        dc = dh * tape.o * (1.0 - tape.tanh_c ** 2) + dc_next
        df = dc * tape.c_prev
        daf = df * tape.f * (1.0 - tape.f)
        di = dc * tape.ctilde
        dai = di * tape.i * (1.0 - tape.i)
        dg = dc * tape.i
        dac = dg * (1.0 - tape.ctilde ** 2)

        g.W_f += np.outer(daf, tape.z)
        g.W_i += np.outer(dai, tape.z)
        g.W_c += np.outer(dac, tape.z)
        g.W_o += np.outer(dao, tape.z)
        g.b_f += daf
        g.b_i += dai
        g.b_c += dac
        g.b_o += dao

        dz = w.W_f.T @ daf + w.W_i.T @ dai + w.W_c.T @ dac + w.W_o.T @ dao
        dh_next = dz[:H]
        dc_next = dc * tape.f
    return g


# ---------------------------------------------------------------------------
# finite-difference checking

def rollout_objective(w: ControllerWeights, xs, out_grads) -> float:
    """sum_t <out_grads[t], mu_t> over a fresh zero-state rollout."""
    state = zero_state(w.hidden)
    total = 0.0
    for x, og in zip(xs, out_grads):
        mu, state, _ = forward_step(w, x, state)
        total += float(np.dot(og, mu))
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

    state = zero_state(hidden)
    tapes = []
    for x in xs:
        _, state, tape = forward_step(w, x, state)
        tapes.append(tape)
    analytic = backward_through_time(w, tapes, list(out_grads))
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
