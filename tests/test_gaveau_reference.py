"""The closed-form kernel against a frozen copy of its six-step form.

The ``_ref_*`` functions below are :func:`hcalc.metric._area_excess`,
``_gaveau_terms`` and ``_gaveau_end`` as they stood before the fitted start:
six Newton steps toward F = 0 from the certified end of the root's bracket,
then certificate re-evaluations that widen the end by 4, 8, 16, ... eps.
The kernel that replaced it must certify a branch row in three evaluations
of its terms, where the reference took 9.75 on average, and stay within
32 eps of the reference's values.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from hcalc import metric
from hcalc.group import group_inv, group_mul
from hcalc.metric import cc_upper_value_batch

EPS = np.finfo(float).eps

# -- the reference ----------------------------------------------------------------


def _ref_area_excess(theta):
    u = 2.0 * theta
    u2 = u * u
    small = u <= 1.0
    series = u * u2 * (1 / 6 - u2 * (1 / 120 - u2 * (1 / 5040 - u2 * (1 / 362880 - u2 * (
        1 / 39916800 - u2 * (1 / 6227020800 - u2 * (1 / 1307674368000 - u2 * (
            1 / 355687428096000 - u2 / 121645100408832000))))))))
    area = 0.5 * np.where(small, series, u - np.sin(u))
    return area, 8.0 * EPS * np.where(small, area, theta)


def _ref_gaveau_terms(t, r, steep, r_err):
    s, co = np.sin(t), np.cos(t)
    if steep:
        area = (math.pi - t) + s * co
        area_err = 8.0 * EPS * area
        co = -co
    else:
        area, area_err = _ref_area_excess(t)
    rs2 = r * s * s
    F = area - rs2
    step = F * s / (2.0 * (s * s * s - co * area))
    return F, area_err + (r_err + 8.0 * EPS) * rs2, step if steep else -step


def _ref_gaveau_end(r, steep, r_err):
    if steep:
        lo, hi = 2.0 * math.pi / (1.0 + np.sqrt(1.0 + 4.0 * math.pi * r)), 0.5 * math.pi
        t = lo
    else:
        lo, hi = r, np.minimum(1.5 * r, 0.5 * math.pi)
        t = hi
    for _ in range(6):
        t = np.clip(t + _ref_gaveau_terms(t, r, steep, r_err)[2], lo, hi)
    todo = np.arange(len(t))
    widen = 4.0 * EPS
    for _ in range(64):
        F, err, _ = _ref_gaveau_terms(t[todo], r[todo], steep, r_err)
        todo = todo[~(F > err)]
        if todo.size == 0:
            return t
        t[todo] = t[todo] / (1.0 + widen) if steep else t[todo] * (1.0 + widen)
        widen *= 2.0
    raise metric.CertificationError(f"no certified root end for r = {r[todo[0]]!r}")


# -- the pins -----------------------------------------------------------------------

# relative positions z = (p, c): |p| range, |c| range
SHAPES = {
    "generic": (0.05, 1.5, 0.01, 2.0),
    "vertical": (0.0, 0.0, 0.01, 2.0),  # D = 0
    "horizontal": (0.05, 1.5, 0.0, 0.0),  # c = 0
    "steep": (0.5e-4, 2e-4, 0.25, 2.0),
    "saturated": (0.5e-6, 2e-6, 0.25, 2.0),
    "tiny": (0.05e-6, 1.5e-6, 0.05e-12, 2e-12),
    "large": (0.05 * 2**10, 1.5 * 2**10, 0.01 * 2**20, 2.0 * 2**20),
}

# r = |c| / D^2 at pi/2, where the branches meet, near the flat and saturated
# cut-offs 2^-30 and 2^100, and beyond them
SPECIAL_RATIOS = (
    [0.5 * math.pi * (1.0 + k * EPS) for k in (-4, -1, 0, 1, 4)]
    + [1e-7, 3e-8, 1e-9, 2.0**-30 * (1 - EPS), 2.0**-30 * (1 + EPS), 1e-12, 1e-40, 1e-300]
    + [1e10, 1e15, 1e25, 2.0**100 * (1 - EPS), 2.0**100, 1e40, 1e200]
)


def _shape_positions(rng, n, count):
    # relative positions x^-1 y of count pairs of every shape, base points in [-1, 1]
    out = []
    for p_lo, p_hi, c_lo, c_hi in SHAPES.values():
        direction = rng.standard_normal((count, 2 * n))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        p = direction * rng.uniform(p_lo, p_hi, (count, 1))
        c = rng.choice([-1.0, 1.0], count) * rng.uniform(c_lo, c_hi, count)
        x = rng.uniform(-1.0, 1.0, (count, 2 * n + 1))
        out.append(group_mul(group_inv(x), group_mul(x, np.column_stack([p, c]))))
    return np.concatenate(out)


def _ratio_positions(rng, n, ratios):
    # relative positions with |c| / |p|^2 = r, |p| in [0.5, 2]
    direction = rng.standard_normal((len(ratios), 2 * n))
    p = direction / np.linalg.norm(direction, axis=1, keepdims=True) * rng.uniform(0.5, 2.0, (len(ratios), 1))
    c = rng.choice([-1.0, 1.0], len(ratios)) * ratios * np.vecdot(p, p)
    return np.column_stack([p, c])


def _reference_values(monkeypatch, z):
    with monkeypatch.context() as m:
        m.setattr(metric, "_gaveau_end", _ref_gaveau_end)
        return cc_upper_value_batch(z)


def _assert_near_reference(monkeypatch, z):
    got, want = cc_upper_value_batch(z), _reference_values(monkeypatch, z)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 32 * EPS * want), float(np.max(np.abs(got / want - 1.0)) / EPS)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_values_stay_near_the_reference_on_the_pair_shapes(n, monkeypatch):
    rng = np.random.default_rng(140 + n)
    _assert_near_reference(monkeypatch, _shape_positions(rng, n, 2000))


def test_values_stay_near_the_reference_over_the_ratio_range(monkeypatch):
    # log-uniform r from 2^-30 to 2^100, both branches end to end, n = 1..3
    rng = np.random.default_rng(150)
    for n in (1, 2, 3):
        _assert_near_reference(monkeypatch, _ratio_positions(rng, n, 2.0 ** rng.uniform(-30, 100, 40_000)))
        _assert_near_reference(monkeypatch, _ratio_positions(rng, n, np.array(SPECIAL_RATIOS)))


def test_branch_rows_cost_three_evaluations(monkeypatch):
    rng = np.random.default_rng(160)
    rows = [0]
    terms = metric._gaveau_terms

    def counted(t, r, steep, r_err):
        rows[0] += np.size(t)
        return terms(t, r, steep, r_err)

    monkeypatch.setattr(metric, "_gaveau_terms", counted)
    branch = 0
    for n in (1, 2, 3):
        z = np.concatenate([_shape_positions(rng, n, 500), _ratio_positions(rng, n, 2.0 ** rng.uniform(-30, 100, 5000))])
        D2 = np.vecdot(z[:, :-1], z[:, :-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.abs(z[:, -1]) / D2
        branch += np.count_nonzero((r > metric._R_FLAT) & (r < metric._R_STEEP))
        cc_upper_value_batch(z)
    assert branch > 20_000
    # two Newton steps and one check: the widening ladder serves the rare
    # row whose check fails, and no more than one in a hundred here
    assert rows[0] <= 3.01 * branch, rows[0] / branch


def _gaveau_F(t, r, steep):
    # F of the equation to 30 digits, which theta - sin theta cos theta ~ theta^3
    # cancels by three times the digits of theta: increasing in theta, so
    # decreasing in phi = pi - theta on the steep branch
    with mp.workdps(30 + 3 * max(0, -math.floor(math.log10(t)))):
        t, r = mp.mpf(float(t)), mp.mpf(float(r))
        area = (mp.pi - t if steep else t) + (1 if steep else -1) * mp.sin(t) * mp.cos(t)
        return area - r * mp.sin(t) ** 2


@pytest.mark.parametrize("steep, ratios, tol", [
    (False, np.concatenate([2.0 ** np.linspace(-40.0, math.log2(0.5 * math.pi), 1500),
                            [r for r in SPECIAL_RATIOS if r <= 0.5 * math.pi]]), 3.1e-5),
    (True, np.concatenate([2.0 ** np.linspace(math.log2(0.5 * math.pi), 110.0, 1500),
                           [r for r in SPECIAL_RATIOS if r >= 0.5 * math.pi]]), 2.2e-6),
])
def test_fitted_start_is_within_its_bound_of_the_root(steep, ratios, tol):
    # the root lies between t (1 - tol) and t (1 + tol) when F changes sign there
    start = metric._gaveau_start(ratios, steep)[0]
    sign = -1 if steep else 1
    for r, t in zip(ratios, start):
        assert sign * _gaveau_F(t * (1.0 - tol), r, steep) < 0 < sign * _gaveau_F(t * (1.0 + tol), r, steep), r


def _ref_gaveau_start(r, steep):
    # the fitted start summed by np.polyval, as it stood before the sum was written out
    if steep:
        base = 2.0 * math.pi / (1.0 + np.sqrt(1.0 + 4.0 * math.pi * r))
        return base * np.polyval(metric._STEEP_START, 1.0 / np.sqrt(r)), base * (1.0 - metric._ROOM), 0.5 * math.pi
    return r * np.polyval(metric._SHALLOW_START, r * r), r, np.minimum(1.5 * r, 0.5 * math.pi) * (1.0 + metric._ROOM)


@pytest.mark.parametrize("steep", [False, True])
def test_fitted_start_is_np_polyval_on_arrays_and_on_floats(steep):
    # the witness calls it on one float, the closed form on arrays of rows
    rng = np.random.default_rng(17)
    side = np.array([r for r in SPECIAL_RATIOS if (r > 0.5 * math.pi) == steep])
    if steep:
        ratios = np.concatenate([0.5 * math.pi * 2.0 ** rng.uniform(0.0, 110.0, 3000), side])
    else:
        ratios = np.concatenate([2.0 ** rng.uniform(-40.0, math.log2(0.5 * math.pi), 3000), side])
    got, want = metric._gaveau_start(ratios, steep), _ref_gaveau_start(ratios, steep)
    for g, w in zip(got, want):
        assert np.asarray(g, dtype=float).tobytes() == np.asarray(w, dtype=float).tobytes()
    for i, r in enumerate(ratios.tolist()):
        one, ref = metric._gaveau_start(r, steep), _ref_gaveau_start(r, steep)
        for g, w, col in zip(one, ref, got):
            assert float(g).hex() == float(w).hex() == float(np.broadcast_to(col, ratios.shape)[i]).hex(), r
