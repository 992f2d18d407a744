"""The one-pair witness path against a frozen copy of its array-wrapper form.

The ``_ref_*`` functions below are the route of :func:`hcalc.metric.cc_bounds`
and the path build of :class:`hcalc.curves.HorizontalPath` as they stood
before the one-pass rewrite: the same float operations, reached through
np.diff, np.linalg.norm, np.sum, np.stack, np.linspace and _interpolate, with
|p(z)| and the height of z recomputed in each helper.  On every ordinary pair
the rewrite must give the same bits, and on a bad path the same message.
The reference's arc takes the route's bulge, the fitted start of Gaveau's
root, and its stretch to the target's area.
"""

import math

import numpy as np
import pytest

from hcalc.curves import HorizontalPath
from hcalc.group import group_inv, group_mul
from hcalc.metric import _chain_area_coeff_scalar, _gaveau_start, cc_bounds, cc_lower_batch

# -- the reference ----------------------------------------------------------------


def _ref_chords(planar):
    return np.linalg.norm(np.diff(planar, axis=-2), axis=-1)


def _ref_length(planar):
    return float(np.sum(_ref_chords(planar)))


def _ref_lift_heights(planar, c0):
    n = planar.shape[-1] // 2
    da = np.diff(planar[..., :n], axis=-2)
    db = np.diff(planar[..., n:], axis=-2)
    dc = 2 * (np.sum(da * planar[..., :-1, n:], axis=-1) - np.sum(db * planar[..., :-1, :n], axis=-1))
    return c0 + np.concatenate([np.zeros_like(dc[..., :1]), np.cumsum(dc, axis=-1)], axis=-1)


def _ref_path(knots, planar, c0):
    """HorizontalPath's checks and lift: (knots, planar, c0, heights)."""
    knots = np.atleast_1d(np.asarray(knots, dtype=float))
    planar = np.asarray(planar, dtype=float)
    if planar.ndim != 2 or planar.shape[0] != knots.shape[0]:
        raise ValueError("planar must have one row per knot")
    if knots.shape[0] < 2:
        raise ValueError("a path needs at least two knots")
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing")
    if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(planar))):
        raise ValueError("path data must be finite")
    c0 = float(c0)
    n = planar.shape[1] // 2
    if planar.shape[1] != 2 * n or n < 1:
        raise ValueError("planar rows must have even length >= 2")
    return knots, planar, c0, _ref_lift_heights(planar, c0)


def _ref_interpolate(knots, vertices, t):
    j = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
    u = (t - knots[j]) / (knots[j + 1] - knots[j])
    lo, hi = np.take(vertices, j, axis=-2), np.take(vertices, j + 1, axis=-2)
    return lo + np.expand_dims(u, -1) * (hi - lo)


def _ref_arc_chain_2d(D, theta, m):
    if theta <= 0.0:
        return np.array([[0.0, 0.0], [D, 0.0]])
    alphas = np.linspace(-theta, theta, m + 1)
    s = math.sin(theta)
    xs = 0.5 * D * (1.0 + np.sin(alphas) / s)
    ys = (D / s) * np.sin(0.5 * (alphas + theta)) * np.sin(0.5 * (theta - alphas))
    pts = np.stack([xs, ys], axis=1)
    pts[0] = [0.0, 0.0]
    pts[-1] = [D, 0.0]
    return pts


def _ref_circle_chain_2d(area, m):
    rho = math.sqrt(abs(area) / (0.5 * m * math.sin(2.0 * math.pi / m)))
    sgn = 1.0 if area >= 0 else -1.0
    angles = math.pi + sgn * np.arange(m + 1) * (2.0 * math.pi / m)
    pts = np.array([rho, 0.0]) + rho * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts[0] = [0.0, 0.0]
    pts[-1] = [0.0, 0.0]
    return pts


def _ref_embed_chain(chain, w, n):
    D = np.linalg.norm(w)
    if D == 0.0:
        w_hat = np.zeros(2 * n)
        w_hat[0] = 1.0
    else:
        w_hat = w / D
    j_w = np.concatenate([-w_hat[n:], w_hat[:n]])
    return chain[:, :1] * w_hat + chain[:, 1:] * j_w


def _ref_arc_witness(z, n):
    w = z[:-1]
    D = float(np.linalg.norm(w))
    c = float(z[-1])
    target_ccw = -c / 4.0
    if D == 0.0:
        chain = _ref_circle_chain_2d(target_ccw, 1024)
    elif c == 0.0:
        chain = np.array([[0.0, 0.0], [D, 0.0]])
    elif (ratio := abs(target_ccw) / (D * D)) > 1e10:
        circle = _ref_circle_chain_2d(target_ccw, 1024) + np.array([D, 0.0])
        chain = np.vstack([[[0.0, 0.0]], circle])
    else:
        # the fitted start of Gaveau's root at r = 4 ratio, then the stretch
        # that makes the enclosed area |c| / 4
        steep = 4.0 * ratio > 0.5 * math.pi
        t, lo, hi = _gaveau_start(4.0 * ratio, steep)
        t = float(np.clip(t, lo, hi))
        theta = math.pi - t if steep else t
        m = min(max(math.ceil(theta / 0.02), 16), 1024)
        chain = _ref_arc_chain_2d(D, theta, m)
        chain[:, 1] *= math.copysign(ratio / _chain_area_coeff_scalar(theta, m), c)
    rel = _ref_embed_chain(chain, w, n)
    steps = _ref_chords(rel)
    knots = np.concatenate([[0.0], np.cumsum(steps)])
    knots[-1] = float(np.sum(steps))
    return knots, rel


def _ref_cc_upper(x, y):
    """(length, (knots, planar, c0, heights)) of the arc route."""
    z = group_mul(group_inv(x), y)
    D = float(np.linalg.norm(z[:-1]))
    c = float(z[-1])
    if D == 0.0 and c == 0.0:
        return 0.0, _ref_path(np.array([0.0, 1.0]), np.stack([x[:-1]] * 2), float(x[-1]))
    px = x[:-1]
    knots, rel = _ref_arc_witness(z, (len(x) - 1) // 2)
    length = _ref_length(rel + px)
    start = np.append(_ref_interpolate(knots, rel, knots[0]), 0.0)
    return length, _ref_path(knots, rel + px, group_mul(x, start)[-1])


def _ref_cc_lower(x, y):
    z = group_mul(group_inv(x), y)
    p = z[:-1]
    return max(float(np.sqrt(np.vecdot(p, p))), math.sqrt(abs(float(z[-1]))))


# -- the pins -----------------------------------------------------------------------

# relative positions z = (p, c): |p| range, |c| range
SHAPES = {
    "generic": (0.05, 1.5, 0.01, 2.0),
    "vertical": (0.0, 0.0, 0.01, 2.0),  # D = 0
    "horizontal": (0.05, 1.5, 0.0, 0.0),  # c = 0
    "steep": (0.5e-4, 2e-4, 0.25, 2.0),
    "saturated": (0.5e-6, 2e-6, 0.25, 2.0),  # |c| / (4 D^2) > 1e10
    "tiny": (0.05e-6, 1.5e-6, 0.05e-12, 2e-12),
    "large": (0.05 * 2**10, 1.5 * 2**10, 0.01 * 2**20, 2.0 * 2**20),
}


def _relative(rng, n, shape, count):
    p_lo, p_hi, c_lo, c_hi = SHAPES[shape]
    direction = rng.standard_normal((count, 2 * n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    p = direction * rng.uniform(p_lo, p_hi, (count, 1))
    c = rng.choice([-1.0, 1.0], count) * rng.uniform(c_lo, c_hi, count)
    return np.column_stack([p, c])


def _pairs(rng, n, shape, count):
    z = _relative(rng, n, shape, count)
    # base points off the origin, some of them far off
    x = rng.uniform(-1.0, 1.0, (count, 2 * n + 1)) * rng.choice([0.25, 1.0, 8.0], (count, 1))
    return x, group_mul(x, z)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_bracket_and_witness_bits_match_the_reference(n, shape):
    rng = np.random.default_rng([n, list(SHAPES).index(shape)])
    x, y = _pairs(rng, n, shape, 16)
    pairs = list(zip(x, y)) + [(x[0], x[0].copy())]  # and x = y
    if shape == "saturated":
        z = group_mul(group_inv(x), y)
        assert np.all(np.abs(z[:, -1]) / (4.0 * np.vecdot(z[:, :-1], z[:, :-1])) > 1e10)
    for xi, yi in pairs:
        b = cc_bounds(xi, yi)
        up, (knots, planar, c0, heights) = _ref_cc_upper(xi, yi)
        assert b.lower.hex() == _ref_cc_lower(xi, yi).hex()
        assert b.upper.hex() == up.hex()
        w = b.witness
        assert w.knots.tobytes() == knots.tobytes()
        assert w.planar.tobytes() == planar.tobytes()
        assert w.c0.hex() == c0.hex()
        assert np.ascontiguousarray(w.heights).tobytes() == heights.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_bracket_lower_end_is_cc_lower(n, shape):
    # cc_bounds reads the lower end off its route's x^-1 y, D and c
    rng = np.random.default_rng([n, list(SHAPES).index(shape), 7])
    x, y = _pairs(rng, n, shape, 32)
    x[:4] = [np.full(2 * n + 1, v) for v in (0.0, -0.0, 1e-162, 1e150)]
    y[:4] = x[:4] + rng.uniform(-1.0, 1.0, (4, 2 * n + 1)) * np.array([[1.0], [1.0], [1e-162], [1e150]])
    x, y = np.vstack([x, x[:1]]), np.vstack([y, x[:1]])  # and x = y
    lower = cc_lower_batch(x, y)
    for xi, yi, lo in zip(x, y, lower):
        assert cc_bounds(xi, yi).lower.hex() == lo.hex()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_zeros_match_the_reference(n):
    # base points whose heights and coordinates are signed zeros: the start
    # height and the first lift increment keep the reference's zero signs
    rng = np.random.default_rng(30 + n)
    for x in (np.array([1.0] * n + [-1.0] * n + [-0.0]), np.array([-0.0] * n + [0.5] * n + [-0.0]),
              np.array([0.0] * (2 * n) + [-0.0]), np.array([-0.0] * (2 * n + 1))):
        ys = [x.copy()] + [group_mul(x, _relative(rng, n, shape, 1)[0]) for shape in SHAPES]
        for y in ys:
            b = cc_bounds(x, y)
            up, (knots, planar, c0, heights) = _ref_cc_upper(x, y)
            assert b.upper.hex() == up.hex()
            assert b.witness.planar.tobytes() == planar.tobytes()
            assert b.witness.c0.hex() == c0.hex()
            assert np.ascontiguousarray(b.witness.heights).tobytes() == heights.tobytes()


BAD_PATHS = {
    "NaN knot": ([0.0, np.nan, 1.0], np.zeros((3, 2)), 0.0),
    "repeated knot": ([0.0, 0.5, 0.5, 1.0], np.zeros((4, 2)), 0.0),
    "non-finite planar": ([0.0, 1.0], [[0.0, 0.0], [np.inf, 0.0]], 0.0),
    "row-count mismatch": ([0.0, 0.5, 1.0], np.zeros((2, 2)), 0.0),
    "odd row length": ([0.0, 1.0], np.zeros((2, 3)), 0.0),
}


@pytest.mark.parametrize("case", list(BAD_PATHS))
def test_bad_paths_raise_the_reference_message(case):
    args = BAD_PATHS[case]
    with pytest.raises(ValueError) as want:
        _ref_path(*args)
    with pytest.raises(ValueError) as got:
        HorizontalPath(*args)
    assert str(got.value) == str(want.value)
