import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hcalc import suites
from hcalc.curves import (
    _GAMMA_KNOTS,
    _difference_quotient,
    _gamma_rows,
    _interpolate,
    _lift_vertices,
    _segment_speeds,
    HorizontalPath,
    ModifyLineParams,
    delta_cap,
    gamma_y,
    horizontal_length,
    lift_heights,
    lift_planar,
    line_path,
    lipschitz_constant,
    modify_line,
)
from hcalc.group import _row_sums, as_exact, dilate, group_dim, group_mul, horizontal_point, project, vector_at


def test_flat_segment_lifts_flat():
    path = lift_planar(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros(3))
    assert np.allclose(path.end(), [1.0, 0.0, 0.0], atol=1e-15)


def test_circle_lift_approaches_minus_four_pi():
    # enclosed area converts to height at rate -4; refinement tightens it
    errs = []
    for m in (100, 1000, 10_000):
        th = np.linspace(0.0, 2.0 * math.pi, m + 1)
        circle = np.stack([np.cos(th), np.sin(th)], axis=1)
        path = lift_planar(circle, np.array([1.0, 0.0, 0.0]))
        errs.append(abs(float(path.end()[-1]) + 4.0 * math.pi))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-6


def test_lift_rejects_base_projection_mismatch():
    with pytest.raises(ValueError):
        lift_planar(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.0, 0.0]))


def test_path_rejects_a_lift_that_is_not_finite():
    # the lift's one increment -2e200 * 1e200 * 2 overflows: the heights were [0, -inf];
    # an infinite start height is refused too, and neither is warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for planar, c0 in (([[1e200, 1e200], [-1e200, 1e200]], 0.0), ([[0.0, 0.0], [1.0, 0.0]], math.inf)):
            with pytest.raises(ValueError, match="path data must be finite"):
                HorizontalPath([0.0, 1.0], planar, c0)


def test_zero_motion_keeps_base():
    base = np.array([0.5, 0.5, 0.25])
    path = lift_planar(np.array([[0.5, 0.5], [0.5, 0.5]]), base)
    assert np.allclose(path.end(), base)


def test_lengths_and_speeds():
    path = lift_planar(np.array([[0.0, 0.0], [3.0, 0.0]]), np.zeros(3))
    assert horizontal_length(path) == pytest.approx(3.0)
    two = HorizontalPath(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [2.0, 0.0]]), 0.0)
    assert lipschitz_constant(two) == pytest.approx(2.0)
    line = line_path(np.array([0.3, -0.4, 0.9]), np.array([0.6, 0.8]), -1.0, 2.0)
    assert lipschitz_constant(line) == pytest.approx(1.0)


def test_left_translation_preserves_geometry():
    rng = np.random.default_rng(3)
    planar = np.cumsum(rng.standard_normal((6, 2)), axis=0)
    path = lift_planar(planar, np.concatenate([planar[0], [0.7]]))
    g = rng.standard_normal(3)
    moved = path.left_translate(g)
    assert horizontal_length(moved) == pytest.approx(horizontal_length(path), abs=1e-12)
    assert lipschitz_constant(moved) == pytest.approx(lipschitz_constant(path), abs=1e-12)
    ts = np.linspace(path.t_min, path.t_max, 9)
    assert np.allclose(moved.eval(ts), group_mul(g, path.eval(ts)), atol=1e-10)


class TestGammaY:
    def test_frozen_h1_example(self):
        path = gamma_y(np.array([1.0, 0.0, 1.0]))
        assert np.allclose(path.end(), [1.0, 0.0, 1.0], atol=1e-15)
        assert np.allclose(path.eval(0.5), [0.5, 0.5, 0.0], atol=1e-15)
        assert horizontal_length(path) == pytest.approx(math.sqrt(2.0))
        lip = lipschitz_constant(path)
        assert lip == pytest.approx(math.sqrt(2.0))
        assert lip <= math.sqrt(6.0)
        second_leg, _ = path.derivative(0.75)
        dev = np.linalg.norm(second_leg - np.array([1.0, 0.0, 0.0]))
        assert dev == pytest.approx(math.sqrt(5.0))

    def test_flat_target_collapses_to_chord(self):
        path = gamma_y(np.array([1.0, 0.0, 0.0]))
        assert lipschitz_constant(path) == pytest.approx(1.0)
        ts = np.linspace(0, 1, 7)
        assert np.allclose(path.eval(ts)[:, 1], 0.0)

    def test_rejects_vertical_targets(self):
        with pytest.raises(ValueError):
            gamma_y(np.array([0.0, 0.0, 1.0]))

    def test_posts_on_random_targets(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 3))
            y = rng.standard_normal(2 * n + 1)
            L = np.linalg.norm(y[:-1])
            if L < 1e-3:
                continue
            c = y[-1]
            path = gamma_y(y)
            scale = 1.0 + c * c / L**2 + float(np.max(np.abs(y)))
            assert np.max(np.abs(path.end() - y)) <= 1e-12 * scale
            bound = L * math.sqrt(1 + c**2 / L**4 + 4 * c**2 / L**2)
            assert lipschitz_constant(path) <= bound * (1 + 1e-12)
            dev_bound = abs(c) / L * math.sqrt(1 + 4 * L**2)
            flat = np.concatenate([y[:-1], [0.0]])
            for tq in (0.2, 0.8):
                d, _ = path.derivative(tq)
                assert np.linalg.norm(d - flat) <= dev_bound * (1 + 1e-9) + 1e-12 * scale

    def test_rational_payload(self):
        path = gamma_y([1, 0, 1], rational=True)
        knots, rows, c0 = path.rational
        assert rows[1] == (Fraction(1, 2), Fraction(1, 2))
        assert c0 == 0


class TestModifyLine:
    def params(self, **over):
        defaults = dict(
            x=np.zeros(3),
            u=np.array([0.0, 1.0, 0.0]),
            direction=np.array([1.0, 0.0]),
            r=1e-6,
            delta=1e-5,
            eta=0.1,
        )
        defaults.update(over)
        return ModifyLineParams(**defaults)

    def test_detour_hits_target(self):
        params = self.params()
        path, zeta = modify_line(params)
        target = group_mul(params.x, dilate(params.r, params.u))
        assert np.allclose(path.eval(zeta), target, atol=1e-12)
        assert zeta == pytest.approx(params.r * float(params.u[:2] @ params.direction))

    def test_tails_follow_the_line(self):
        params = self.params(x=np.array([0.2, -0.7, 1.3]))
        path, _ = modify_line(params)
        for t in (-2.0 * params.s, -params.s, params.s, 1.7 * params.s):
            expected = group_mul(params.x, horizontal_point(t * params.direction))
            assert np.allclose(path.eval(t), expected, atol=1e-12)

    def test_speed_bound(self):
        params = self.params()
        path, _ = modify_line(params)
        assert lipschitz_constant(path) <= 1.0 + params.eta * params.delta

    def test_zero_detour_is_the_line(self):
        params = self.params(u=np.zeros(3))
        path, zeta = modify_line(params)
        assert zeta == 0.0
        ts = np.linspace(-params.s, params.s, 17)
        line = np.stack([t * vector_at(params.direction, np.zeros(3)) for t in ts])
        assert np.allclose(path.eval(ts), line, atol=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self.params(r=1e-4)  # r >= delta
        with pytest.raises(ValueError):
            self.params(delta=1e-3)  # above delta_cap(0.1)
        with pytest.raises(ValueError):
            self.params(direction=np.array([1.0, 1.0]))  # not unit
        with pytest.raises(ValueError):
            ModifyLineParams(
                x=np.zeros(3), u=np.array([0.0, 1.0, 0.0]), direction=np.array([1.0, 0.0]),
                r=1e-6, delta=1e-5, eta=0.1, cc_bound_of_u=1.5,
            )
        for bound in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite certified distance bound"):
                self.params(cc_bound_of_u=bound)

    def test_delta_cap(self):
        assert delta_cap(1632.0 * 0.25) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            delta_cap(0.0)

    def test_rational_payload_matches_floats(self):
        params = self.params(r=2.0**-20, delta=2.0**-18)
        path, zeta = modify_line(params, rational=True)
        knots, rows, c0 = path.rational
        assert [float(t) for t in knots] == pytest.approx(path.knots.tolist())
        assert float(c0) == pytest.approx(path.c0)


def test_derivative_reports_knots():
    path = gamma_y(np.array([1.0, 0.0, 1.0]))
    _, at_knot = path.derivative(0.5)
    assert at_knot
    _, interior = path.derivative(0.3)
    assert not interior


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_lift_commutes_with_left_translation(n):
    rng = np.random.default_rng(20 + n)
    e = np.zeros(2 * n)
    e[n - 1], e[-1] = 0.6, 0.8
    y = rng.integers(-16, 17, 2 * n + 1) / 8.0
    y[0] = 1.25  # nonzero projection
    params = ModifyLineParams(
        x=rng.integers(-16, 17, 2 * n + 1) / 8.0, u=rng.integers(-4, 5, 2 * n + 1) / 16.0,
        direction=e, r=2.0**-14, delta=2.0**-11, eta=1.0,
    )
    for path in (gamma_y(y, rational=True), modify_line(params, rational=True)[0]):
        _, rows, c0 = path.rational
        rows = np.array(rows, dtype=object)
        knots = np.column_stack([rows, lift_heights(rows, c0)])
        g = as_exact(rng.integers(-64, 65, 2 * n + 1) / 16.0) + Fraction(1, 3)
        moved = group_mul(g, knots)
        heights = lift_heights(rows + project(g), moved[0, -1])
        assert np.all(heights == moved[:, -1])
        # the float lift is the same recurrence on the rounded rows
        assert np.array_equal(path.heights, lift_heights(path.planar, path.c0))


# -- batched two-leg curves --------------------------------------------------


def _gamma_rows_one(y):
    # reference: the one-point construction, squared norms by the 1-D dot product
    n = group_dim(y)
    a, b, c = y[:n], y[n : 2 * n], y[-1]
    L2 = a @ a + b @ b
    mid = np.concatenate([a - b * c / L2, b + a * c / L2]) / 2
    return np.stack([np.zeros_like(mid), mid, np.concatenate([a, b])])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_gamma_rows_and_heights_match_one_path_at_a_time(n):
    rng = np.random.default_rng(40 + n)
    ys = rng.standard_normal((400, 2 * n + 1)) * rng.uniform(0.5, 2.0, (400, 1))
    ys[:20, -1] = 0.0  # flat targets
    ys[20:40, :-1] *= 1e-4  # steep targets
    rows = _gamma_rows(ys)
    heights = lift_heights(rows, 0.0)
    # what the goodcurve suite evaluates on the batch
    vertices = _lift_vertices(rows, 0.0)
    ends = _interpolate(_GAMMA_KNOTS, vertices, 1.0)
    slopes = [_difference_quotient(_GAMMA_KNOTS, vertices, t) for t in (0.25, 0.75)]
    speeds = _segment_speeds(_GAMMA_KNOTS, rows)
    for i, y in enumerate(ys):
        path = gamma_y(y)
        assert rows[i].tobytes() == path.planar.tobytes() == _gamma_rows_one(y).tobytes()
        assert heights[i].tobytes() == np.ascontiguousarray(path.heights).tobytes()
        assert ends[i].tobytes() == path.end().tobytes()
        assert [d[i].tobytes() for d in slopes] == [path.derivative(t)[0].tobytes() for t in (0.25, 0.75)]
        assert speeds[i].tobytes() == path.segment_speeds().tobytes()


@pytest.mark.filterwarnings("error")
def test_gamma_rows_refuse_squares_that_over_or_underflow():
    # squares near the ends of the normal floats keep the one-point bits
    for y in ([1e-150, 0.0, 1e-140], [1e150, 0.0, 1e150], [1e-100, 0.0, 1e200], [0.0, 3e-154, 1.0]):
        y = np.array(y)
        assert _gamma_rows(y).tobytes() == _gamma_rows_one(y).tobytes()
    for y, message in (
        # an overflow warning in vecdot, then a midpoint off the curve
        ([1e200, 0.0, 1e300], "squares of p\\(y\\) overflow"),
        # refused as a zero projection
        ([1e-300, 0.0, 1.0], "squares of p\\(y\\) underflow"),
        # a subnormal |p(y)|^2, and a midpoint that missed the height c
        ([1e-160, 0.0, 1e-300], "squares of p\\(y\\) underflow"),
        ([1e150, 0.0, 1e300], "midpoint of gamma_y overflows"),
    ):
        # alone, and as one row of a batch
        for ys in (np.array(y), np.array([[1.0, 0.0, 1.0], y])):
            with pytest.raises(ValueError, match=message):
                _gamma_rows(ys)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_gamma_rows_match_the_one_point_construction(n):
    rng = np.random.default_rng(50 + n)
    ys = as_exact(np.round(rng.uniform(-2.0, 2.0, (12, 2 * n + 1)) * 64) / 64)
    ys[0, -1] = Fraction(1, 3)
    batch = _gamma_rows(ys)
    for y, rows in zip(ys, batch):
        assert rows.tolist() == _gamma_rows_one(y).tolist() == _gamma_rows(y).tolist()
        assert all(isinstance(v, Fraction) for v in rows[1:].ravel())
        path = gamma_y(y, rational=True)
        assert path.rational[1] == tuple(tuple(row) for row in _gamma_rows_one(y).tolist())


def _goodcurve_per_trial(cfg, seed):
    # reference: the goodcurve trials one gamma_y path at a time
    rng = np.random.default_rng(seed)
    failures, worst = 0, math.inf
    for n in cfg.n_values:
        for _ in range(cfg.trials // len(cfg.n_values)):
            y = rng.standard_normal(2 * n + 1) * rng.uniform(0.5, 2.0)
            L = float(np.linalg.norm(y[:-1]))
            if L == 0.0:
                continue
            c = float(y[-1])
            path = gamma_y(y)
            scale = 1.0 + max(abs(c), L) ** 2 / L**2 + float(np.max(np.abs(y)))
            end_err = float(np.max(np.abs(path.end() - y))) / scale
            failures += int(end_err > 1e-12)
            worst = min(worst, 1e-12 - end_err)
            failures += int(float(np.max(np.abs(path.start()))) > 1e-12 * scale)
            lip = lipschitz_constant(path)
            lip_bound = L * math.sqrt(1.0 + c * c / L**4 + 4.0 * c * c / L**2)
            failures += int(lip > lip_bound * (1.0 + 1e-12))
            worst = min(worst, (lip_bound - lip) / lip_bound)
            dev_bound = abs(c) / L * math.sqrt(1.0 + 4.0 * L * L)
            flat = np.concatenate([y[:-1], [0.0]])
            for tq in (0.25, 0.75):
                dev = float(np.linalg.norm(path.derivative(tq)[0] - flat))
                failures += int(dev > dev_bound * (1.0 + 1e-9) + 1e-12 * scale)
                worst = min(worst, dev_bound * (1.0 + 1e-9) + 1e-12 * scale - dev)
    return failures, worst


@pytest.mark.parametrize("seed", range(5))
def test_batched_goodcurve_matches_per_trial_loop(seed):
    cfg = suites.RunConfig(trials=2000, n_values=(1, 2, 3))
    result = suites.run_suite("goodcurve", cfg, seed)
    failures, worst = _goodcurve_per_trial(cfg, result.seed)
    # the suite's frozen single-point checks pass and set no margin
    assert result.failures == failures
    assert result.worst_margin.hex() == worst.hex()


# The batched checks rely on numpy's vecdot giving the bits of the 1-D dot
# product that @ and np.linalg.norm use for one vector, and on row norms
# over a batch axis giving the bits of row norms of one path.
@pytest.mark.parametrize("length", range(1, 8))
def test_vecdot_and_row_norms_match_one_vector_at_a_time(length):
    rng = np.random.default_rng(60 + length)
    wide = rng.standard_normal((3000, length + 2)) * 10.0 ** rng.uniform(-3, 3, (3000, 1))
    for v in (np.ascontiguousarray(wide[:, 1:-1]), wide[:, 1:-1]):
        batched = np.vecdot(v, v)
        assert batched.tobytes() == np.array([row @ row for row in v]).tobytes()
        assert np.sqrt(batched).tobytes() == np.array([np.linalg.norm(row) for row in v]).tobytes()
    paths = wide[:, :length].reshape(1000, 3, length)
    norms = np.linalg.norm(paths, axis=-1)
    assert norms.tobytes() == np.stack([np.linalg.norm(p, axis=1) for p in paths]).tobytes()


# _row_sums adds the columns of a long batch in order, which gives
# np.add.reduce's bits only while numpy adds rows of fewer than 8 terms in
# order onto a zero: this pins that, signed zeros included.
@pytest.mark.parametrize("k", range(1, 10))
def test_row_sums_are_add_reduce_bit_for_bit(k):
    rng = np.random.default_rng(90 + k)
    for shape in [(k,), (1, k), (127, k), (128, k), (1025, k), (3, 700, k), (600, 2, k)]:
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        a[rng.random(shape) < 0.2] = -0.0
        a[rng.random(shape) < 0.05] = 0.0
        assert _row_sums(a).tobytes() == np.add.reduce(a, axis=-1).tobytes()
    exact = np.array([[Fraction(j + 1, 3 + i) for j in range(k)] for i in range(200)], dtype=object)
    assert _row_sums(exact).tolist() == np.add.reduce(exact, axis=-1).tolist()
    assert all(isinstance(v, Fraction) for v in _row_sums(exact))
