"""Shifted, rotated benchmark functions with a plain-text instance format.

An instance evaluates ``base(R @ (x - shift)) + f_star`` where ``base``
is one of eight classic families, ``R`` is an orthonormal rotation
(identity when absent) and ``f_star`` is the known optimum value.  Every
base family is non-negative with its minimum of exactly 0 at the origin,
so ``evaluate(shift) == f_star`` and no point scores below ``f_star``.

Multimodal families compress the input so the default [-100, 100] box
maps onto the family's classic domain (e.g. rastrigin onto [-5.12,
5.12]); without that the quadratic term swamps the oscillations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError
from .rng import stream

DEFAULT_BOUNDS = (-100.0, 100.0)

_TWO_PI = 2.0 * math.pi


_sum = np.add.reduce  # np.sum, np.mean and np.prod reduce so, behind a Python wrapper


def _sphere(Z):
    return _sum(Z * Z, axis=1)


def _ellipsoid(Z):
    n = Z.shape[1]
    w = 10.0 ** (6.0 * np.arange(n) / max(n - 1, 1))
    return _sum(w * Z * Z, axis=1)


def _rosenbrock(Z):
    if Z.shape[1] == 1:
        return Z[:, 0] ** 2  # degenerate for one variable, fall back to a bowl
    Y = Z + 1.0  # move the valley's optimum onto the origin
    a = Y[:, 1:] - Y[:, :-1] ** 2
    b = Y[:, :-1] - 1.0
    return _sum(100.0 * a * a + b * b, axis=1)


def _rastrigin(Z):
    return _sum(Z * Z - 10.0 * np.cos(_TWO_PI * Z) + 10.0, axis=1)


def _ackley(Z):
    q = np.sqrt(_sum(Z * Z, axis=1) / Z.shape[1])  # the mean, as np.mean forms it
    c = _sum(np.cos(_TWO_PI * Z), axis=1) / Z.shape[1]
    return -20.0 * np.exp(-0.2 * q) - np.exp(c) + 20.0 + math.e


def _griewank(Z):
    j = np.sqrt(np.arange(1, Z.shape[1] + 1, dtype=float))
    return _sum(Z * Z, axis=1) / 4000.0 - np.multiply.reduce(np.cos(Z / j), axis=1) + 1.0


def _schwefel12(Z):
    C = np.cumsum(Z, axis=1)
    return _sum(C * C, axis=1)


_WEIER_K = np.arange(10)  # series truncated at 10 terms
_WEIER_A = 0.5 ** _WEIER_K
_WEIER_B = 3.0 ** _WEIER_K
_WEIER_2PI_B = _TWO_PI * _WEIER_B
_WEIER_CONST = float(np.sum(_WEIER_A * np.cos(_WEIER_2PI_B * 0.5)))


def _weierstrass_lite(Z):
    phase = _WEIER_2PI_B * (Z[..., None] + 0.5)
    per_dim = np.cos(phase) @ _WEIER_A
    return _sum(per_dim, axis=1) - Z.shape[1] * _WEIER_CONST


# (vectorised body, input compression onto the classic domain)
_BASES = {
    "sphere": (_sphere, 1.0),
    "ellipsoid": (_ellipsoid, 1.0),
    "rosenbrock": (_rosenbrock, 0.02048),
    "rastrigin": (_rastrigin, 0.0512),
    "ackley": (_ackley, 0.32768),
    "griewank": (_griewank, 6.0),
    "schwefel12": (_schwefel12, 1.0),
    "weierstrass_lite": (_weierstrass_lite, 0.005),
}

# suite order interleaves unimodal and multimodal families
FAMILY_CYCLE = (
    "sphere",
    "rastrigin",
    "ellipsoid",
    "ackley",
    "schwefel12",
    "griewank",
    "rosenbrock",
    "weierstrass_lite",
)


@dataclass
class FunctionInstance:
    """One concrete shifted/rotated benchmark function.

    Attributes
    ----------
    id : str
        Unique name, e.g. ``train-03-ackley``.
    dim : int
        Number of decision variables.
    base : str
        Base family key, one of ``_BASES``.
    f_star : float
        Function value at the optimum ``shift``.
    shift : ndarray, shape (dim,)
        Optimum location, strictly inside ``bounds``.
    rotation : ndarray or None
        Orthonormal matrix applied after shifting; None means identity.
    bounds : (float, float)
        Box constraint applied to every coordinate.
    """

    id: str
    dim: int
    base: str
    f_star: float
    shift: np.ndarray
    rotation: np.ndarray | None = None
    bounds: tuple[float, float] = DEFAULT_BOUNDS

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.base not in _BASES:
            raise ValueError(f"unknown base family {self.base!r}")
        self.shift = np.asarray(self.shift, dtype=float)
        if self.shift.shape != (self.dim,):
            raise ValueError(f"shift shape {self.shift.shape} != ({self.dim},)")
        lo, hi = self.bounds
        if not lo < hi:
            raise ValueError(f"bounds must satisfy lo < hi, got {self.bounds}")
        if np.any(self.shift <= lo) or np.any(self.shift >= hi):
            raise ValueError("shift must lie strictly inside bounds")
        if self.rotation is not None:
            self.rotation = np.asarray(self.rotation, dtype=float)
            if self.rotation.shape != (self.dim, self.dim):
                raise ValueError("rotation must be dim x dim")
        if not math.isfinite(self.f_star):
            raise ValueError("f_star must be finite")

    def evaluate(self, x) -> float:
        """Objective value at a single point ``x`` of shape (dim,)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point shape {x.shape} != ({self.dim},)")
        return float(self.evaluate_batch(x[None, :])[0])

    def evaluate_batch(self, X) -> np.ndarray:
        """Objective values for the rows of ``X`` with shape (m, dim)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"batch shape {X.shape} incompatible with dim {self.dim}")
        Z = X - self.shift
        if self.rotation is not None:
            Z = Z @ self.rotation.T
        body, scale = _BASES[self.base]
        if scale != 1.0:
            Z = Z * scale
        return body(Z) + self.f_star


def error_value(inst, f_found: float) -> float:
    """Error of a found value against the instance optimum, never negative."""
    e = float(f_found) - inst.f_star
    if e < 0.0:
        if e > -1e-12:
            return 0.0
        raise ConsistencyError(
            f"{inst.id}: value {f_found} undercuts f_star {inst.f_star} by {-e}"
        )
    return e


def _gram_schmidt(A):
    """Modified Gram-Schmidt on each matrix of the stack A (m, n, n).

    Returns (Q, lost): Q holds the orthonormalised columns, lost marks the
    matrices whose column norm fell below 1e-12 (their Q is garbage).  Every
    projection and norm is one stacked product that numpy forms as one BLAS
    dot per matrix, with the strides of the 1-D ``Q[:, k] @ v`` and
    ``np.linalg.norm(v)``, so each Q has the bits of a matrix done alone.
    """
    Q = np.empty_like(A)
    lost = np.zeros(len(A), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(A.shape[2]):
            v = A[:, :, j].copy()
            for k in range(j):
                v -= (Q[:, None, :, k] @ v[:, :, None])[:, 0] * Q[:, :, k]
            norm = np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
            lost |= norm[:, 0] < 1e-12
            Q[:, :, j] = v / norm
    return Q, lost


def _random_rotations(rngs, n):
    """One rotation per generator: Gram-Schmidt on an (n, n) Gaussian draw
    from each, all at once; a draw that loses rank (measure zero) is
    replaced by its generator's next draw."""
    Q, lost = _gram_schmidt(np.array([rng.standard_normal((n, n)) for rng in rngs])
                            .reshape(-1, n, n))
    for b in np.flatnonzero(lost):
        again = True
        while again:
            q, (again,) = _gram_schmidt(rngs[b].standard_normal((1, n, n)))
        Q[b] = q[0]
    return Q


@dataclass
class Suite:
    """Train/test collections of function instances."""

    train: list = field(default_factory=list)
    test: list = field(default_factory=list)


def make_suite(seed: int, dim: int, count_train: int, count_test: int) -> Suite:
    """Build disjoint train/test instances cycling through the base families.

    Instance i of a role draws its shift, its f_star and then its rotation's
    Gaussian matrix from ``stream(seed, "suite", role, i)``; the rotations of
    all instances are orthonormalised together."""
    if count_train < 0 or count_test < 0:
        raise ValueError("instance counts must be non-negative")
    lo, hi = DEFAULT_BOUNDS
    draws = []
    for role, count in (("train", count_train), ("test", count_test)):
        for index in range(count):
            family = FAMILY_CYCLE[index % len(FAMILY_CYCLE)]
            rng = stream(seed, "suite", role, index)
            shift = rng.uniform(0.8 * lo, 0.8 * hi, size=dim)
            f_star = 100.0 * float(rng.integers(-10, 11))
            draws.append((role, index, family, shift, f_star, rng))
    rotations = iter(_random_rotations(
        [rng for _, _, family, _, _, rng in draws if family != "sphere"], dim))
    suite = Suite()
    for role, index, family, shift, f_star, _ in draws:
        getattr(suite, role).append(FunctionInstance(
            id=f"{role}-{index:02d}-{family}",
            dim=dim,
            base=family,
            f_star=f_star,
            shift=shift,
            rotation=None if family == "sphere" else next(rotations),
        ))
    return suite


def format_instance(inst: FunctionInstance) -> str:
    """Serialise to the plain-text instance format."""
    lines = [f"{inst.id} {inst.dim} {inst.base} {repr(inst.f_star)}"]
    lines.append(" ".join(map(repr, inst.shift.tolist())))
    if inst.rotation is not None:
        lines.extend(" ".join(map(repr, row)) for row in inst.rotation.tolist())
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> FunctionInstance:
    """Inverse of :func:`format_instance`; absent rotation rows mean identity.
    A shift or rotation line that is not ``dim`` numbers is refused with its
    1-based line number."""
    rows = [(i, ln.split()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not rows:
        raise ValueError("empty instance text")
    head = rows[0][1]
    if len(head) != 4:
        raise ValueError(f"malformed header {' '.join(head)!r}")
    inst_id, dim_s, base, fstar_s = head
    dim = int(dim_s)
    body = rows[1:]
    if len(body) not in (1, 1 + dim):
        raise ValueError(f"expected 1 or {1 + dim} data lines, got {len(body)}")

    def numbers(lineno, fields):
        if len(fields) != dim:
            raise ValueError(f"line {lineno}: expected {dim} numbers, got {len(fields)}")
        try:
            return [float(v) for v in fields]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None

    vectors = [numbers(i, fields) for i, fields in body]
    return FunctionInstance(
        id=inst_id, dim=dim, base=base, f_star=float(fstar_s),
        shift=np.array(vectors[0], dtype=float),
        rotation=np.array(vectors[1:], dtype=float) if len(vectors) > 1 else None,
    )


def save_instance(inst: FunctionInstance, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_instance(inst))


def load_instance(path) -> FunctionInstance:
    with open(path, "r", encoding="ascii") as fh:
        return parse_instance(fh.read())
