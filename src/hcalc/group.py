"""Exact arithmetic of the Heisenberg group H^n.

A point of H^n is a flat array ``[a_1..a_n, b_1..b_n, c]`` of length 2n+1;
a horizontal vector is an array ``[h_1..h_2n]`` of coefficients over the
ordered frame of left-invariant fields (X_1..X_n, Y_1..Y_n).  Every
operation broadcasts over leading axes, so a batch of points is simply an
array of shape ``(m, 2n+1)`` and batches never need Python loops.

Points are float arrays, or numpy object arrays of ``Fraction`` (see
:func:`as_exact`).  ``group_mul``, ``group_inv``, ``dilate``,
``vector_at``, ``project``, ``vertical`` and ``horizontal_point`` keep
the kind they are given: float input runs in float64, and exact input
runs the same code in exact rational arithmetic.  Any other input is
converted to float64.

The group law is

    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' - 2(<a, b'> - <b, a'>))

with identity 0 and inverse -x.  Dilations scale the first 2n coordinates
linearly and the last quadratically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "UNIT_TOL",
    "as_exact",
    "group_dim",
    "hdim",
    "project",
    "vertical",
    "group_mul",
    "group_inv",
    "dilate",
    "vector_at",
    "horizontal_point",
    "omega",
    "koranyi_norm",
    "koranyi_dist",
    "HLinearMap",
    "random_points",
    "random_directions",
]

# Absolute tolerance below which a direction counts as unit-normalized.
UNIT_TOL = 1e-12


def _coerce(x) -> np.ndarray:
    """``x`` unchanged when it holds exact numbers (object dtype), else as float64."""
    x = np.asarray(x)
    return x if x.dtype == object else x.astype(float, copy=False)


def as_exact(x) -> np.ndarray:
    """Object array of the exact ``Fraction`` values of ``x`` (floats convert exactly)."""
    x = np.asarray(x)
    return np.array([Fraction(v) for v in x.ravel().tolist()], dtype=object).reshape(x.shape)


def group_dim(x: np.ndarray) -> int:
    """n for a point array of trailing length 2n+1."""
    m = np.asarray(x).shape[-1]
    if m < 3 or m % 2 == 0:
        raise ValueError(f"point arrays need odd trailing length >= 3, got {m}")
    return (m - 1) // 2


def hdim(h: np.ndarray) -> int:
    """n for a horizontal-vector array of trailing length 2n."""
    m = np.asarray(h).shape[-1]
    if m < 2 or m % 2 == 1:
        raise ValueError(f"horizontal vectors need even trailing length >= 2, got {m}")
    return m // 2


def project(x: np.ndarray) -> np.ndarray:
    """Projection onto the first 2n coordinates (a group homomorphism to R^2n)."""
    x = _coerce(x)
    group_dim(x)
    return x[..., :-1]


def vertical(x: np.ndarray) -> np.ndarray:
    """The last coordinate."""
    return _coerce(x)[..., -1]


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``np.add.reduce(a, axis=-1)``, bit for bit, also for object arrays.

    Over a short last axis numpy runs one inner loop per row.  From 128
    rows on, adding the columns in order is faster, and below 8 columns it
    gives numpy's bits: numpy adds fewer than 8 terms in order onto a zero.
    """
    k = a.shape[-1]
    if k >= 8 or a.size < 128 * k:
        return np.add.reduce(a, axis=-1)
    total = 0 + a[..., 0]
    for j in range(1, k):
        total = total + a[..., j]
    return total


def group_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Group product x * y.  Broadcasts over leading axes."""
    x = _coerce(x)
    y = _coerce(y)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    n = group_dim(x)
    # the sum gives every coordinate, the height before its correction:
    # c + c' - 2 cross is evaluated left to right
    out = x + y
    out[..., -1] -= 2 * (_row_sums(x[..., :n] * y[..., n : 2 * n]) - _row_sums(x[..., n : 2 * n] * y[..., :n]))
    return out


def group_inv(x: np.ndarray) -> np.ndarray:
    """Group inverse, which is plain negation."""
    return -_coerce(x)


def dilate(r, x: np.ndarray) -> np.ndarray:
    """Anisotropic dilation: first 2n coordinates scale by r, the last by r^2."""
    r = _coerce(r)
    if np.any(r <= 0):
        raise ValueError("dilation factor must be positive")
    x = _coerce(x)
    n = group_dim(x)
    out = np.empty(np.broadcast_shapes(r.shape, x[..., 0].shape) + (2 * n + 1,), dtype=np.result_type(r, x))
    out[..., : 2 * n] = r[..., None] * x[..., : 2 * n]
    out[..., -1] = r * r * x[..., -1]
    return out


def vector_at(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Value of the horizontal field with frame coefficients h at the point x.

    The first 2n components equal h independently of x; the vertical
    component is 2 * sum_i (h_i b_i - h_{n+i} a_i).
    """
    h = _coerce(h)
    x = _coerce(x)
    n = hdim(h)
    if x.shape[-1] != 2 * n + 1:
        raise ValueError(f"dimension mismatch: direction n={n}, point length {x.shape[-1]}")
    a, b = x[..., :n], x[..., n : 2 * n]
    vert = 2 * (np.sum(h[..., :n] * b, axis=-1) - np.sum(h[..., n:] * a, axis=-1))
    shape = np.broadcast_shapes(h[..., 0].shape, x[..., 0].shape) + (2 * n + 1,)
    out = np.empty(shape, dtype=np.result_type(h, x))
    out[..., : 2 * n] = h
    out[..., -1] = vert
    return out


def horizontal_point(h: np.ndarray) -> np.ndarray:
    """Embed frame coefficients h as the point E(0) = (h, 0)."""
    h = _coerce(h)
    out = np.zeros(h.shape[:-1] + (h.shape[-1] + 1,), dtype=h.dtype)
    out[..., :-1] = h
    return out


def omega(h: np.ndarray) -> np.ndarray:
    """Norm of a horizontal vector (Euclidean norm of its frame coefficients)."""
    return np.linalg.norm(np.asarray(h, dtype=float), axis=-1)


def require_unit(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if np.any(np.abs(omega(h) - 1.0) > UNIT_TOL):
        raise ValueError("direction is not unit-normalized")
    return h


def koranyi_norm(x: np.ndarray) -> np.ndarray:
    """Homogeneous gauge (|p(x)|^4 + c^2)^(1/4)."""
    x = np.asarray(x, dtype=float)
    p2 = np.sum(x[..., :-1] ** 2, axis=-1)
    return (p2 * p2 + x[..., -1] ** 2) ** 0.25


def koranyi_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Left-invariant gauge distance ||x^-1 y||."""
    return koranyi_norm(group_mul(group_inv(x), y))


@dataclass(frozen=True)
class HLinearMap:
    """Scalar group homomorphism x -> lip * <p(x), p(dir)>, homogeneous under dilations.

    ``direction`` must be unit; ``lip`` is its Lipschitz constant with respect
    to the Carnot-Caratheodory distance (exactly lip, attained along the
    direction itself).
    """

    lip: float
    direction: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if self.lip < 0:
            raise ValueError("lip must be nonnegative")
        if abs(omega(d) - 1.0) > UNIT_TOL:
            raise ValueError("direction must be unit-normalized")
        object.__setattr__(self, "direction", d)

    @classmethod
    def from_coeffs(cls, w: np.ndarray) -> "HLinearMap":
        """Build from an arbitrary coefficient vector w: x -> <p(x), w>."""
        w = np.asarray(w, dtype=float)
        s = float(np.linalg.norm(w))
        if s == 0.0:
            d = np.zeros_like(w)
            d[0] = 1.0
            return cls(0.0, d)
        return cls(s, w / s)

    @property
    def coeffs(self) -> np.ndarray:
        return self.lip * self.direction

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.direction.shape[-1] + 1:
            raise ValueError("dimension mismatch between map and point")
        return self.lip * np.sum(x[..., :-1] * self.direction, axis=-1)


def random_points(rng: np.random.Generator, size: int, n: int, scale: float = 1.0) -> np.ndarray:
    """Gaussian cloud of points, used by the verification suites."""
    return scale * rng.standard_normal((size, 2 * n + 1))


def random_directions(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """Uniform unit horizontal directions."""
    h = rng.standard_normal((size, 2 * n))
    return h / np.linalg.norm(h, axis=-1, keepdims=True)
