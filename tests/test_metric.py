import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcalc import metric
from hcalc.curves import HorizontalPath, gamma_y, horizontal_length
from hcalc.calculus import sample_unit_ball
from hcalc.group import dilate, group_inv, group_mul, horizontal_point, koranyi_dist, project, vertical
from hcalc.metric import (
    _arc_witness,
    _shortest_route,
    _solve_bulge_scalar,
    Ball,
    ConstantsEstimate,
    DistanceBounds,
    angle_fit,
    cc_bounds,
    cc_lower,
    cc_upper,
    cc_upper_quick,
    cc_upper_value_batch,
    distance_pansu_check,
    holder_fit,
)

ORIGIN = np.zeros(3)


def test_lower_bound_frozen_values():
    assert cc_lower(ORIGIN, ORIGIN) == 0.0
    assert cc_lower(ORIGIN, np.array([0, 0, 4.0])) == pytest.approx(2.0)
    assert cc_lower(ORIGIN, np.array([3, 4, 0.0])) == pytest.approx(5.0)


def test_vertical_upper_route():
    up, witness = cc_upper(ORIGIN, np.array([0, 0, 1.0]))
    # inscribed polygon exceeds the smooth circle only by its defect
    assert math.sqrt(math.pi) <= up <= math.sqrt(math.pi) + 1e-5
    assert np.allclose(witness.end(), [0, 0, 1.0], atol=1e-12)
    assert horizontal_length(witness) == pytest.approx(up, abs=1e-12)
    # the square route (a square of area 1/4, perimeter 2) is a strictly worse competitor
    assert up < 2.0


def test_bracket_collapses_on_horizontal_lines():
    x = np.array([0.3, -0.2, 0.7])
    y = group_mul(x, horizontal_point(np.array([0.37, 0.0])))
    b = cc_bounds(x, y)
    assert b.lower == pytest.approx(0.37, abs=1e-12)
    assert b.upper == pytest.approx(0.37, abs=1e-12)


def test_bracket_ordering_and_witness():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y = rng.standard_normal((2, 3))
        b = cc_bounds(x, y)
        assert b.lower <= b.upper + 1e-12
        assert np.allclose(b.witness.start(), x, atol=1e-9)
        assert np.allclose(b.witness.end(), y, atol=1e-9)
        assert b.upper >= koranyi_dist(x, y) / 4.0  # sanity scale


def test_arc_never_beats_the_lower_bound_and_gamma_route():
    rng = np.random.default_rng(2)
    for _ in range(100):
        z = rng.standard_normal(3)
        if np.linalg.norm(z[:2]) < 1e-6:
            continue
        up, _ = cc_upper(ORIGIN, z)
        assert up >= cc_lower(ORIGIN, z) - 1e-12
        gamma_route = horizontal_length(gamma_y(z))
        assert up <= gamma_route + 1e-12


def test_left_invariance_and_dilation_scaling():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g, x, y = rng.standard_normal((3, 3))
        b1 = cc_bounds(x, y)
        b2 = cc_bounds(group_mul(g, x), group_mul(g, y))
        assert b1.lower == pytest.approx(b2.lower, abs=1e-9)
        assert b1.upper == pytest.approx(b2.upper, abs=1e-9)
        r = float(rng.uniform(0.3, 3.0))
        b3 = cc_bounds(dilate(r, x), dilate(r, y))
        assert b3.lower == pytest.approx(r * b1.lower, abs=1e-9 * max(1, r))
        assert b3.upper == pytest.approx(r * b1.upper, abs=1e-9 * max(1, r))


def test_koranyi_and_bracket_are_uniformly_comparable():
    rng = np.random.default_rng(4)
    ratios = []
    for _ in range(500):
        x, y = rng.standard_normal((2, 3))
        b = cc_bounds(x, y)
        dk = koranyi_dist(x, y)
        if dk > 1e-9:
            ratios.append((b.lower / dk, b.upper / dk))
    los, his = zip(*ratios)
    assert min(los) > 0.3
    assert max(his) < 3.0


def test_batch_value_matches_witness_value():
    rng = np.random.default_rng(5)
    zs = rng.standard_normal((50, 3))
    vals = cc_upper_value_batch(zs)
    for z, v in zip(zs, vals):
        u, _ = cc_upper(ORIGIN, z)
        assert v == pytest.approx(u, rel=3e-4)
        assert v >= cc_lower(ORIGIN, z) - 1e-12


def test_quick_bound_dominates_bracket():
    rng = np.random.default_rng(6)
    zs = rng.standard_normal((50, 3))
    quick = cc_upper_quick(zs)
    for z, q in zip(zs, quick):
        u, _ = cc_upper(ORIGIN, z)
        assert q >= u - 1e-9


def test_distance_bounds_validation():
    with pytest.raises(ValueError):
        DistanceBounds(2.0, 1.0)
    with pytest.raises(ValueError):
        DistanceBounds(-1.0, 1.0)
    path = gamma_y(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        DistanceBounds(0.5, 2.0, witness=path)  # witness length 1 != 2


def test_constants_estimate_validation():
    with pytest.raises(ValueError):
        ConstantsEstimate(c_holder=0.5)
    est = ConstantsEstimate(c_holder=3.0, region="test", samples=10)
    assert (est.c_holder, est.c_angle) == (3.0, 1.0)


def test_holder_fit():
    ball = Ball(np.zeros(3), 2.0)
    est = holder_fit(ball, 500, seed=0)
    assert est.c_holder >= 1.0
    assert est.samples == 500
    with pytest.raises(ValueError):
        holder_fit(ball, 50, seed=0)
    with pytest.raises(ValueError):
        Ball(np.zeros(3), 0.0)


def test_angle_fit_is_at_least_one():
    est = angle_fit(2.0, 50, seed=0)
    assert est.c_angle >= 1.0


# ratios from 1e-14 to 1e10: the bulge runs from the series branch
# (theta < 1e-6, ratio below about 1.67e-7) up to within 1e-5 of pi
BULGE_RATIOS = np.concatenate([
    np.logspace(-14, 10, 97),
    10.0 ** np.random.default_rng(11).uniform(-14, 10, 200),
    [1e-14, 1.6e-7, 1.7e-7, 0.5, 1.0, 3.0e9, 1e10],
])


def _chain_area_coeff(theta, m):
    # enclosed area of the inscribed chain over a unit chord, bulge theta
    s = np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = (m * np.sin(2.0 * theta / m) - np.sin(2.0 * theta)) / (8.0 * s * s)
    small = theta < 1e-6
    if np.any(small):
        coeff = np.where(small, theta * (1.0 - 1.0 / (m * m)) / 6.0, coeff)
    return coeff


def _solve_bulge(area_over_d2, m, iters=90):
    # array bisection of _chain_area_coeff(theta) = area_over_d2 on (0, pi):
    # the reference for _solve_bulge_scalar, and the inscribed-chain solve the
    # witness-free upper value used before the closed form
    lo = np.zeros_like(area_over_d2)
    hi = np.full_like(area_over_d2, math.pi - 1e-12)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        too_small = _chain_area_coeff(mid, m) < area_over_d2
        lo = np.where(too_small, mid, lo)
        hi = np.where(too_small, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("m", [16, 64, 256, 1024])
def test_scalar_bulge_solver_matches_array_solver_bitwise(m):
    batch = _solve_bulge(BULGE_RATIOS, m)
    for ratio, from_batch in zip(BULGE_RATIOS, batch):
        scalar = _solve_bulge_scalar(float(ratio), m)
        assert scalar.hex() == float(_solve_bulge(np.array(ratio), m)).hex()
        assert scalar.hex() == float(from_batch).hex()
    assert batch.min() < 1e-6
    assert batch.max() > math.pi - 1e-5
    # the bisection lands where the area coefficient crosses the ratio
    crossing = BULGE_RATIOS > 1e-3
    coeff = _chain_area_coeff(batch[crossing], m)
    assert np.allclose(coeff, BULGE_RATIOS[crossing], rtol=1e-9)


def _angle_fit_per_trial(trials, seed, n):
    # reference for angle_fit's defaults: one cc_upper_value_batch call per trial
    rng = np.random.default_rng(seed)
    ts = np.linspace(-1.0, 1.0, 33)
    ts = ts[ts != 0.0]
    c_fit = 1.0
    for _ in range(trials):
        A = 10.0 ** rng.uniform(-4, 0)
        h_dir = rng.standard_normal(2 * n)
        h_dir /= np.linalg.norm(h_dir)
        pert = rng.standard_normal(2 * n)
        pert -= (pert @ h_dir) * h_dir
        norm = np.linalg.norm(pert)
        if norm == 0.0:
            continue
        g_dir = h_dir + A * pert / norm
        g_dir /= np.linalg.norm(g_dir)
        offset = float(np.linalg.norm(g_dir - h_dir))
        if offset == 0.0:
            continue
        ga = ts[:, None] * horizontal_point(g_dir)
        ha = ts[:, None] * horizontal_point(h_dir)
        ups = cc_upper_value_batch(group_mul(group_inv(ga), ha))
        c_fit = max(c_fit, float(np.max(ups / (math.sqrt(min(offset, 1.0)) * np.abs(ts)))))
    return c_fit


@pytest.mark.parametrize("n", [1, 2])
def test_batched_angle_fit_matches_per_trial_loop(n):
    for seed in (0, 7):
        est = angle_fit(2.0, 40, seed, n=n)
        assert est.c_angle == _angle_fit_per_trial(40, seed, n)
        assert est.samples == 40


def test_distance_pansu_check_cases():
    u = np.array([1.0, 0.0])
    # z = 0: both sides equal d(u)
    rep = distance_pansu_check(u, np.zeros((1, 3)))
    assert rep.inequality_margins[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.residuals[0] == pytest.approx(0.0, abs=1e-9)
    # along the line the inequality is an equality
    rep2 = distance_pansu_check(u, (0.05 * horizontal_point(u))[None, :])
    assert abs(rep2.inequality_margins[0]) <= 1e-12
    # vertical displacement keeps a nonnegative margin
    rep3 = distance_pansu_check(u, np.array([[0.0, 0.0, 1e-4]]))
    assert rep3.inequality_margins[0] >= -1e-12
    assert rep3.passed
    with pytest.raises(ValueError):
        distance_pansu_check(u, np.zeros((0, 3)))
    with pytest.raises(ValueError):
        distance_pansu_check(np.array([2.0, 0.0]), np.zeros((1, 3)))


# Property tests of the one-pair bracket.  Coordinates lie on a dyadic grid
# (12 fractional bits, |coordinate| <= 8) and dilation factors are multiples of
# 1/16, so the relative position x^-1 y of a pair, of its translate and of its
# dilate are exact in floats.  What is left is the rounding of the bracket
# itself: the witness length sums at most 1026 segment norms of points
# translated by up to S, each off by a few eps * (S + length), and
# 2**16 * eps is over ten times that.
BRACKET_TOL = 2.0**16 * np.finfo(float).eps


def _grid_points(n, count):
    coords = st.integers(-(2**15), 2**15).map(lambda k: k / 2.0**12)
    point = st.lists(coords, min_size=2 * n + 1, max_size=2 * n + 1).map(lambda v: np.array(v, float))
    return st.tuples(*[point] * count)


grid_pairs = st.integers(1, 3).flatmap(lambda n: _grid_points(n, 2))
grid_triples = st.integers(1, 3).flatmap(lambda n: _grid_points(n, 3))


def _close(a, b, *points):
    scale = 1.0 + max(float(np.max(np.abs(p))) for p in points)
    return abs(a - b) <= BRACKET_TOL * (scale + max(a, b))


@settings(max_examples=60, deadline=None)
@given(grid_pairs)
def test_bracket_symmetry(pair):
    x, y = pair
    b1, b2 = cc_bounds(x, y), cc_bounds(y, x)
    assert b1.lower == b2.lower
    assert _close(b1.upper, b2.upper, x, y)


@settings(max_examples=60, deadline=None)
@given(grid_triples)
def test_bracket_left_invariance(triple):
    g, x, y = triple
    gx, gy = group_mul(g, x), group_mul(g, y)
    b1, b2 = cc_bounds(x, y), cc_bounds(gx, gy)
    assert b1.lower == b2.lower
    assert _close(b1.upper, b2.upper, x, y, gx, gy)


@settings(max_examples=60, deadline=None)
@given(grid_pairs, st.integers(1, 160))
def test_bracket_dilation_homogeneity(pair, sixteenths):
    x, y = pair
    r = sixteenths / 16.0
    rx, ry = dilate(r, x), dilate(r, y)
    b1, b2 = cc_bounds(x, y), cc_bounds(rx, ry)
    assert _close(r * b1.lower, b2.lower, rx, ry)
    assert _close(r * b1.upper, b2.upper, rx, ry)


def test_cc_bounds_raises_on_an_inconsistent_lower_bound(monkeypatch):
    # a lower bound above the witness length is a defect, not something to clip
    true_lower = metric.cc_lower
    monkeypatch.setattr(metric, "cc_lower", lambda x, y: 2.0 * true_lower(x, y))
    with pytest.raises(ValueError, match="exceeds upper bound"):
        cc_bounds(ORIGIN, np.array([0.37, 0.0, 0.0]))


# relative positions z = (p, c): |p| range, |c| range
PAIR_SHAPES = {
    "generic": (0.05, 1.5, 0.01, 2.0),
    "vertical": (0.0, 0.0, 0.01, 2.0),  # the D = 0 circle
    "horizontal": (0.05, 1.5, 0.0, 0.0),  # c = 0
    "steep": (0.5e-4, 2e-4, 0.25, 2.0),
    "saturated": (0.5e-6, 2e-6, 0.25, 2.0),  # |c| / (4 D^2) > 1e10
    "tiny": (0.05e-6, 1.5e-6, 0.05e-12, 2e-12),
    "large": (0.05 * 2**10, 1.5 * 2**10, 0.01 * 2**20, 2.0 * 2**20),
}


def _shape_pairs(rng, n, shape, count):
    p_lo, p_hi, c_lo, c_hi = PAIR_SHAPES[shape]
    direction = rng.standard_normal((count, 2 * n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    p = direction * rng.uniform(p_lo, p_hi, (count, 1))
    c = rng.choice([-1.0, 1.0], count) * rng.uniform(c_lo, c_hi, count)
    x = rng.uniform(-1.0, 1.0, (count, 2 * n + 1))
    return x, group_mul(x, np.column_stack([p, c]))


def _cc_upper_translating(x, y):
    # reference: build each candidate at 0, left-translate both, keep the shorter
    z = group_mul(group_inv(x), y)
    if np.linalg.norm(project(z)) == 0.0 and vertical(z) == 0.0:
        return cc_upper(x, y)
    knots, rel = _arc_witness(z, (len(x) - 1) // 2)
    candidates = [HorizontalPath(knots, rel, 0.0).left_translate(x)]
    if np.linalg.norm(project(z)) > 0.0:
        candidates.append(gamma_y(z).left_translate(x))
    best = min(candidates, key=horizontal_length)
    return horizontal_length(best), best


@pytest.mark.parametrize("n", [1, 2, 3])
def test_witness_built_once_matches_translated_candidates(n):
    rng = np.random.default_rng(70 + n)
    for shape in PAIR_SHAPES:
        for x, y in zip(*_shape_pairs(rng, n, shape, 12)):
            up, witness = cc_upper(x, y)
            ref_up, ref = _cc_upper_translating(x, y)
            assert up.hex() == ref_up.hex(), shape
            assert witness.knots.tobytes() == ref.knots.tobytes()
            assert witness.planar.tobytes() == ref.planar.tobytes()
            assert witness.c0.hex() == ref.c0.hex()
            assert np.ascontiguousarray(witness.heights).tobytes() == np.ascontiguousarray(ref.heights).tobytes()
    up, witness = cc_upper(x, x)
    assert up == 0.0 and np.array_equal(witness.start(), x)


def test_non_finite_routes_raise():
    # |p| = 1e160 overflows D^2 in the arc construction; the value-only route
    # must refuse it as the witness does, not return a NaN length
    y = np.array([1e160, 0.0, 1e-300])
    with np.errstate(all="ignore"):
        for route in (cc_upper, _shortest_route):
            with pytest.raises(ValueError, match="finite"):
                route(ORIGIN, y)


def _pansu_per_sample(u_dir, zs):
    # reference: the expansion check one sample at a time, from cc_lower and
    # one-row closed-form calls; each closed-form upper is at most the length
    # of that sample's cc_upper witness
    u = horizontal_point(u_dir)
    origin = np.zeros_like(u)
    out = []
    for z in zs:
        uz = group_mul(u, z)
        ip = float(np.dot(project(z), u_dir))
        lo, up = cc_lower(origin, uz), float(cc_upper_value_batch(uz)[0])
        dz_lo, dz_up = cc_lower(origin, z), float(cc_upper_value_batch(z)[0])
        assert up <= cc_upper(origin, uz)[0]
        assert dz_up <= cc_upper(origin, z)[0]
        worst = max(up - (1.0 + ip), (1.0 + ip) - lo, 0.0)
        out.append((lo - (1.0 + ip), worst / max(dz_lo, 1e-300), dz_up))
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2])
def test_distance_pansu_check_matches_per_sample_cc_upper(n):
    rng = np.random.default_rng(80 + n)
    u_dir = np.zeros(2 * n)
    u_dir[0] = 1.0
    zs = np.concatenate([
        sample_unit_ball(rng, n, 150) * 0.5,
        sample_unit_ball(rng, n, 50) * 1e-3,
        np.zeros((1, 2 * n + 1)),
        (0.01 * horizontal_point(u_dir))[None, :],
        -horizontal_point(u_dir)[None, :],  # u z = 0
    ])
    rep = distance_pansu_check(u_dir, zs)
    ref = _pansu_per_sample(u_dir, zs)
    assert rep.inequality_margins.tobytes() == np.ascontiguousarray(ref[:, 0]).tobytes()
    assert rep.residuals.tobytes() == np.ascontiguousarray(ref[:, 1]).tobytes()
    assert rep.scales.tobytes() == np.ascontiguousarray(ref[:, 2]).tobytes()



# -- the certified closed form of the witness-free upper value --------------------

EPS = np.finfo(float).eps


def _gaveau_distance(z):
    # d(0, z) to 50 digits from the float coordinates of z: D theta / sin(theta)
    # with (theta - sin theta cos theta) / sin^2 theta = |c| / D^2, solved by
    # bisection in theta for r <= pi/2 and in phi = pi - theta above
    with mp.workdps(50):
        D = mp.sqrt(mp.fsum(mp.mpf(float(v)) ** 2 for v in project(z)))
        c = abs(mp.mpf(float(vertical(z))))
        if c == 0:
            return D
        if D == 0:
            return mp.sqrt(mp.pi * c)
        r = c / D / D
        if r <= mp.pi / 2:
            lo, hi = r, min(1.5 * r, mp.pi / 2)
            below = lambda t: t - mp.sin(t) * mp.cos(t) < r * mp.sin(t) ** 2
        else:
            lo, hi = 2 * mp.pi / (1 + mp.sqrt(1 + 4 * mp.pi * r)), mp.asin(min(1, mp.sqrt(mp.pi / r)))
            below = lambda p: mp.pi - p + mp.sin(p) * mp.cos(p) > r * mp.sin(p) ** 2
        while hi - lo > hi * mp.mpf(10) ** -45:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        t = (lo + hi) / 2
        return D * (t if r <= mp.pi / 2 else mp.pi - t) / mp.sin(t)


def _ratio_points(rng, n, ratios, size=(0.5, 2.0)):
    # relative positions z with |c| / |p|^2 = r for each r, |p| drawn from size
    out = []
    for r in ratios:
        direction = rng.standard_normal(2 * n)
        p = direction / np.linalg.norm(direction) * rng.uniform(*size)
        out.append(np.append(p, rng.choice([-1.0, 1.0]) * r * float(np.dot(p, p))))
    return np.array(out)


# r = |c| / D^2 at pi/2, where the shallow and steep branches meet, below 1e-7
# down past the flat cut-off 2^-30, and above 1e10 up past the saturated 2^100
SPECIAL_RATIOS = (
    [0.5 * math.pi * (1.0 + k * EPS) for k in (-4, -1, 0, 1, 4)]
    + [1e-7, 3e-8, 1e-9, 2.0**-30 * (1 - EPS), 2.0**-30 * (1 + EPS), 1e-12, 1e-40, 1e-300]
    + [1e10, 1e15, 1e25, 2.0**100 * (1 - EPS), 2.0**100, 1e40, 1e200]
)


def _shape_positions(rng, n, per_shape):
    # relative positions x^-1 y of per_shape pairs of every shape in PAIR_SHAPES
    pairs = [_shape_pairs(rng, n, shape, per_shape) for shape in PAIR_SHAPES]
    return np.concatenate([group_mul(group_inv(x), y) for x, y in pairs])


def _assert_certified(zs, ups):
    # d <= upper <= d (1 + 1e-13); at c = 0 the value is the float norm |p|,
    # which is d up to its rounding
    for z, up in zip(zs, ups):
        d = _gaveau_distance(z)
        assert math.isfinite(up)
        if vertical(z) == 0.0:
            assert abs(mp.mpf(float(up)) - d) <= len(z) * EPS * d
        else:
            assert d <= up <= d * (1 + mp.mpf(1e-13)), (z, float(up / d - 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_upper_brackets_the_distance(n):
    rng = np.random.default_rng(90 + n)
    zs = np.concatenate([_shape_positions(rng, n, 6), _ratio_points(rng, n, SPECIAL_RATIOS)])
    _assert_certified(zs, cc_upper_value_batch(zs))


def _inscribed_chain_upper(z, m=256):
    # the witness-free upper value before the closed form: the best of the
    # inscribed m-chain arc, the two-leg route and a move then a 1024-gon
    D = np.linalg.norm(project(z), axis=-1)
    c = np.abs(vertical(z))
    rho = np.sqrt((c / 4.0) / (0.5 * 1024 * math.sin(2.0 * math.pi / 1024)))
    circle_len = 2.0 * 1024 * rho * math.sin(math.pi / 1024)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = _solve_bulge(c / (4.0 * D * D), m)
        arc = D * m * np.sin(theta / m) / np.sin(theta)
        legs = D * np.sqrt(1.0 + (c * c) / D**4)
    generic = (D > 0.0) & (c > 0.0) & (c / 4.0 <= 1e10 * D * D)
    best = np.where(generic, np.minimum(np.minimum(arc, legs), D + circle_len), D + circle_len)
    return np.where(c == 0.0, D, best)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_upper_is_below_the_inscribed_chain(n):
    rng = np.random.default_rng(100 + n)
    zs = _shape_positions(rng, n, 200)
    up, chain = cc_upper_value_batch(zs), _inscribed_chain_upper(zs)
    # where |c| / D^2 <= 2^-30 (horizontal pairs, whose height is a rounding
    # residue) d rounds to D, and the chain's value, D to the last bit, is not
    # an upper bound; there the closed form may exceed it by its outward rounding
    flat = np.abs(vertical(zs)) <= 2.0**-30 * np.sum(project(zs) ** 2, axis=-1)
    assert np.all(up[~flat] <= chain[~flat])
    assert np.all(up[flat] <= chain[flat] * (1.0 + (2 * n + 9) * EPS))
    assert np.count_nonzero(~flat) >= 6 * 200


def test_closed_form_upper_at_extreme_scales():
    # |p| = 1e160 overflows |p|^2 and D^2; r = |c| / D^2 under- or overflows
    # at the others
    zs = [
        [1e160, 0.0, 1e-300],
        [1e160, 0.0, 0.0],
        [0.0, 1e160, 3e300],
        [1e160, -1e160, 1e300],
        [1.0, 0.0, 5e-324],
        [1e100, 0.0, 1e-300],
        [1e-300, 0.0, 1.0],
        [5e-324, 0.0, 1e-300],
        [1e-170, 1e-170, 1e-300],
        [1e-170, 0.0, 0.0],
        [0.0, 0.0, 1e300],
        [0.0, 0.0, 5e-324],
        [1e150, 2e150, 0.0, 5e150, -1e150, 1e160, 1e300],
    ]
    for z in map(np.array, zs):
        up = cc_upper_value_batch(z)
        assert not np.isnan(up).any()
        _assert_certified(z[None, :], up)


def test_closed_form_upper_rejects_non_finite_points():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            cc_upper_value_batch(np.array([[0.5, 0.25, 0.1], [bad, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            cc_upper_value_batch(np.array([0.5, 0.25, bad]))


def test_certificate_widens_a_root_end_on_the_wrong_side(monkeypatch):
    # Newton steps biased to end 1e-9 below the root in theta: the sign check
    # must push every end back above it, or the values drop below d
    terms = metric._gaveau_terms

    def biased(t, r, steep, r_err):
        F, err, step = terms(t, r, steep, r_err)
        return F, err, step + (1e-9 if steep else -1e-9) * t

    monkeypatch.setattr(metric, "_gaveau_terms", biased)
    rng = np.random.default_rng(110)
    zs = _ratio_points(rng, 1, 10.0 ** rng.uniform(-8, 29, 60))
    ups = cc_upper_value_batch(zs)
    for z, up in zip(zs, ups):
        d = _gaveau_distance(z)
        assert d <= up <= d * (1 + mp.mpf(1e-8))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_batch_rows_match_one_row_calls_bitwise(n, seed):
    rng = np.random.default_rng(seed)
    x, y = (np.concatenate(a) for a in zip(*(_shape_pairs(rng, n, shape, 4) for shape in PAIR_SHAPES)))
    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    z = group_mul(group_inv(x), y)
    lower, upper = metric.cc_lower_batch(x, y), cc_upper_value_batch(z)
    for i in range(len(x)):
        assert lower[i].hex() == cc_lower(x[i], y[i]).hex()
        assert upper[i].hex() == float(cc_upper_value_batch(z[i])[0]).hex()


def test_lower_bound_keeps_extreme_planar_norms():
    # |p|^2 overflows at 1e160 and underflows at 1e-170: the lower end read
    # inf (above the finite upper end) and 0
    for s in (1e160, 1e-170):
        for z in ([s, 0.0, 0.0], [0.0, s, 0.0], [0.0, 0.0, s, 0.0, 0.0]):
            z = np.array(z)
            with np.errstate(over="raise", under="raise"):
                lower = metric.cc_lower_batch(np.zeros((1, len(z))), z[None, :])[0]
            assert lower == s
            assert cc_lower(np.zeros(len(z)), z).hex() == lower.hex()
            assert lower <= cc_upper_value_batch(z)[0]
    x = np.array([[1e160, 0.0, 0.0], [0.0, 1e-170, 0.0], [3e155, -4e155, 0.0]])
    y = np.array([[-1e160, 0.0, 0.0], [0.0, -1e-170, 0.0], [0.0, 0.0, 0.0]])
    lower = metric.cc_lower_batch(x, y)
    assert lower.tolist() == [2e160, 2e-170, 5e155]
    assert [cc_lower(a, b) for a, b in zip(x, y)] == lower.tolist()


@settings(max_examples=80, deadline=None)
@given(grid_triples)
def test_triangle_inequality_across_brackets(triple):
    # d(x, z) <= d(x, y) + d(y, z), read from the certified ends of each bracket
    x, y, z = triple
    upper = lambda a, b: float(cc_upper_value_batch(group_mul(group_inv(a), b))[0])
    assert metric.cc_lower_batch(x[None], z[None])[0] <= upper(x, y) + upper(y, z)
