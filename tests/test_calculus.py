import dataclasses
import math

import numpy as np
import pytest

from hcalc.calculus import (
    MeanValueHypothesisError,
    MeanValueInstance,
    MeanValueSearchError,
    PansuReport,
    ScalarField,
    cc_distance_field,
    compare_pairs,
    curve_directional_consistency,
    directional_derivative,
    directional_derivative_batch,
    hlinear_field,
    koranyi_gauge_field,
    lattice_max,
    lattice_min,
    line_increments,
    lipschitz_estimate,
    mean_value_search,
    pansu_residual,
    sample_unit_ball,
    vertical_coordinate_field,
)
from hcalc import metric, suites
from hcalc.curves import HorizontalPath, line_path
from hcalc.group import HLinearMap, dilate, group_inv, group_mul, horizontal_point, random_directions
from hcalc.maximizer import T_GRID
from hcalc.metric import Ball, cc_upper_quick, cc_upper_value_batch

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestDirectionalDerivative:
    def test_hlinear_is_exact(self):
        f = hlinear_field(HLinearMap(1.0, E1))
        est = directional_derivative(f, np.zeros(3), E1)
        assert est.value == pytest.approx(1.0, abs=1e-10)
        assert est.ok

    def test_vertical_coordinate_vanishes_along_axis(self):
        est = directional_derivative(vertical_coordinate_field(), np.zeros(3), E1)
        assert est.value == pytest.approx(0.0, abs=1e-10)

    def test_constant_field(self):
        f = ScalarField(lambda x: np.full(np.asarray(x).shape[:-1], 3.0), declared_lip=0.0)
        est = directional_derivative(f, np.zeros(3), E1)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_unit_direction(self):
        f = hlinear_field(HLinearMap(1.0, E1))
        with pytest.raises(ValueError):
            directional_derivative(f, np.zeros(3), np.array([1.0, 1.0]))

    def test_rejects_bad_schedule(self):
        f = hlinear_field(HLinearMap(1.0, E1))
        with pytest.raises(ValueError):
            directional_derivative(f, np.zeros(3), E1, steps=np.array([0.1, 0.2, 0.3]))

    def test_odd_symmetry(self):
        f = koranyi_gauge_field(np.array([2.0, 1.0, 0.3]))
        x = np.array([0.2, -0.5, 0.1])
        plus = directional_derivative(f, x, E1)
        minus = directional_derivative(f, x, -E1)
        assert plus.value == pytest.approx(-minus.value, abs=plus.error + minus.error + 1e-12)

    def test_discontinuity_flags_divergence(self):
        f = ScalarField(lambda x: np.sign(x[..., 0]), label="step")
        est = directional_derivative(f, np.zeros(3), E1)
        assert est.diverging
        assert not est.ok

    def test_batch_agrees_with_scalar(self):
        f = koranyi_gauge_field(np.array([3.0, 0.5, -0.2]))
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((8, 3))
        dirs = rng.standard_normal((8, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vals, errs, div = directional_derivative_batch(f, xs, dirs)
        for i in range(8):
            est = directional_derivative(f, xs[i], dirs[i])
            assert vals[i] == pytest.approx(est.value, abs=1e-12)

    def test_translation_invariance_for_composed_homomorphism(self):
        L = HLinearMap(1.0, E1)
        g = np.array([0.4, -0.9, 2.2])
        f_shift = ScalarField(lambda x: L(group_mul(g, x)))
        for e in (E1, E2, np.array([0.6, 0.8])):
            a = directional_derivative(hlinear_field(L), np.zeros(3), e)
            b = directional_derivative(f_shift, np.zeros(3), e)
            assert a.value == pytest.approx(b.value, abs=1e-9)


class TestCurveConsistency:
    def test_identical_curves(self):
        f = koranyi_gauge_field(np.array([2.0, 1.0, 0.5]))
        g = line_path(np.zeros(3), E1, -1.0, 1.0)
        rep = curve_directional_consistency(f, g, g, at=0.2)
        assert rep["consistent"]
        assert rep["gap"] == 0.0

    def test_rejects_mismatched_points(self):
        f = koranyi_gauge_field(np.array([2.0, 1.0, 0.5]))
        g = line_path(np.zeros(3), E1, -1.0, 1.0)
        h = line_path(np.array([0.0, 0.5, 0.0]), E1, -1.0, 1.0)
        with pytest.raises(ValueError):
            curve_directional_consistency(f, g, h, at=0.0)

    def test_rejects_mismatched_derivatives(self):
        f = koranyi_gauge_field(np.array([2.0, 1.0, 0.5]))
        g = line_path(np.zeros(3), E1, -1.0, 1.0)
        h = line_path(np.zeros(3), E2, -1.0, 1.0)
        with pytest.raises(ValueError):
            curve_directional_consistency(f, g, h, at=0.0)


class TestLipschitzEstimate:
    def test_unit_homomorphism(self):
        f = hlinear_field(HLinearMap(1.0, E1))
        rep = lipschitz_estimate(f, Ball(np.zeros(3), 1.0), 2000, 300, seed=0)
        assert 0.9 <= rep["pair_sup"] <= 1.0 + 1e-9
        assert 0.95 <= rep["dir_sup"] <= 1.0 + 1e-6

    def test_constant_field(self):
        f = ScalarField(lambda x: np.zeros(np.asarray(x).shape[:-1]), declared_lip=0.0)
        rep = lipschitz_estimate(f, Ball(np.zeros(3), 1.0), 200, 100, seed=0)
        assert rep["pair_sup"] == 0.0
        assert rep["dir_sup"] == pytest.approx(0.0, abs=1e-12)

    def test_sample_floor(self):
        f = hlinear_field(HLinearMap(1.0, E1))
        with pytest.raises(ValueError):
            lipschitz_estimate(f, Ball(np.zeros(3), 1.0), 50, 100)


class TestPansuResidual:
    def test_homomorphism_is_its_own_derivative(self):
        L = HLinearMap(0.8, np.array([0.6, 0.8]))
        rep = pansu_residual(hlinear_field(L), np.array([0.3, 0.1, -0.7]), L, seed=1)
        assert np.max(rep.residuals) <= 1e-10
        assert rep.accepted

    def test_vertical_coordinate_scales_linearly(self):
        rep = pansu_residual(
            vertical_coordinate_field(), np.zeros(3), HLinearMap.from_coeffs(np.zeros(2)), seed=2
        )
        ratios = rep.residuals[:-1] / rep.residuals[1:]
        assert np.all(np.abs(ratios - 10.0) < 0.5)

    def test_radii_in_one_call_match_one_radius_at_a_time(self):
        f = koranyi_gauge_field(np.array([0.4, -0.3, 0.2]))
        x, L = np.array([0.3, 0.1, -0.7]), HLinearMap(0.8, np.array([0.6, 0.8]))
        rep = pansu_residual(f, x, L, seed=3)
        ws = sample_unit_ball(np.random.default_rng(3), 1, 256)
        f_x, lw = float(f(x)), L(ws)
        loop = [float(np.max(np.abs(f(group_mul(x, dilate(t, ws))) - f_x - t * lw))) / t for t in rep.radii]
        assert rep.residuals.tobytes() == np.array(loop).tobytes()

    def test_report_validation(self):
        with pytest.raises(ValueError):
            PansuReport(np.array([1e-2, 1e-1]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            PansuReport(np.array([1e-1, 1e-2]), np.array([-1.0, 0.0]))

    def test_sampled_points_are_certified(self):
        rng = np.random.default_rng(3)
        ws = sample_unit_ball(rng, 1, 500)
        assert np.all(cc_upper_quick(ws) <= 1.0)


def _triangle_instance(grid_exp=12, slope=0.1, height=0.5, s=1.0, zeta_target=0.25, v=1 / 64, L=2.0):
    rho = s * math.sqrt(s * L / (v * height)) * 1.05
    m = 2**grid_exp
    grid = np.linspace(-rho * 1.01, rho * 1.01, m + 1)
    zeta = float(grid[np.argmin(np.abs(grid - zeta_target))])
    psi = slope * grid
    bump = height * np.clip(np.minimum((grid + s) / (zeta + s), (s - grid) / (s - zeta)), 0.0, None)
    phi = psi + np.where(np.abs(grid) >= s, 0.0, bump)
    sigma = 0.5 * v**3 * (height / (s * L)) ** 2
    return MeanValueInstance(grid, phi, psi, s=s, zeta=zeta, rho=rho, v=v, sigma=sigma, L=L)


@pytest.mark.parametrize("entry", [8253.5, 8253.7, -0.5, math.nan])
def test_a_non_integral_exclusion_is_refused(entry):
    # each was truncated onto a grid index: 8253.5 and 8253.7 excluded index
    # 8253, this instance's tau, and moved the result
    inst = suites._mean_value_instance(np.random.default_rng(0))
    assert inst.index_of(mean_value_search(inst)) == 8253
    with pytest.raises(ValueError, match="exclude must hold integer grid indices"):
        mean_value_search(inst, exclude={entry})
    assert mean_value_search(inst, exclude={8253.0}) == mean_value_search(inst, exclude={8253})


class TestMeanValue:
    def test_triangle_bump_found_on_rising_edge(self):
        inst = _triangle_instance()
        tau = mean_value_search(inst)
        assert -inst.s < tau < inst.s
        assert tau != inst.zeta
        # the derivative bound certifies the conclusion directly
        h = inst.step
        i = inst.index_of(tau)
        phi_p = (inst.phi[i + 1] - inst.phi[i - 1]) / (2 * h)
        need = 0.1 + inst.v * 0.5 / inst.s
        assert phi_p >= need - 1e-9

    def test_exclusion_forces_the_choice(self):
        inst = _triangle_instance()
        iz = inst.index_of(inst.zeta)
        i_lo = int(np.searchsorted(inst.grid, -inst.s)) + 1
        allowed = set(range(i_lo + (iz - i_lo) // 3, i_lo + (iz - i_lo) // 2))
        exclude = set(range(len(inst.grid))) - allowed
        tau = mean_value_search(inst, exclude=exclude)
        assert inst.index_of(tau) in allowed

    def test_exclusions_off_the_grid_are_ignored(self):
        inst = _triangle_instance()
        tau = mean_value_search(inst)
        m = len(inst.grid)
        # tau's index less m would wrap onto tau itself if negatives counted
        off_grid = {-1, -5, m, m + 10, inst.index_of(tau) - m}
        assert mean_value_search(inst, exclude=off_grid) == tau

    def test_equal_functions_violate_hypotheses(self):
        inst = _triangle_instance()
        broken = dataclasses.replace(inst, phi=inst.psi.copy())
        with pytest.raises(MeanValueHypothesisError) as err:
            mean_value_search(broken)
        assert "phi(zeta)" in str(err.value)

    def test_named_hypothesis_failures(self):
        inst = _triangle_instance()
        with pytest.raises(MeanValueHypothesisError):
            mean_value_search(dataclasses.replace(inst, v=0.5))
        with pytest.raises(MeanValueHypothesisError):
            mean_value_search(dataclasses.replace(inst, rho=inst.s * 1.01))
        with pytest.raises(MeanValueHypothesisError):
            mean_value_search(dataclasses.replace(inst, sigma=1.0))
        with pytest.raises(MeanValueHypothesisError):
            mean_value_search(dataclasses.replace(inst, L=1e-6))

    def test_search_failure_reports_best_candidate(self):
        inst = _triangle_instance()
        iz = inst.index_of(inst.zeta)
        exclude = set(range(len(inst.grid))) - {iz}
        with pytest.raises(MeanValueSearchError):
            mean_value_search(inst, exclude=exclude)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            MeanValueInstance(
                np.array([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]),
                np.zeros(9), np.zeros(9), s=1, zeta=0, rho=2, v=0.01, sigma=0.1, L=1,
            )

    def test_a_fine_grid_with_one_long_step_is_not_uniform(self):
        # every step differs from the first by less than np.allclose's default atol of 1e-8
        grid = 1e-9 * np.arange(17.0)
        grid[9:] += 4e-9
        with pytest.raises(ValueError, match="uniform"):
            MeanValueInstance(grid, np.zeros(17), np.zeros(17), s=1e-8, zeta=0, rho=2e-8, v=0.01, sigma=0.1, L=1)
        # a uniform grid of that step is accepted
        MeanValueInstance(1e-9 * np.arange(17.0), np.zeros(17), np.zeros(17), s=1e-8, zeta=0, rho=2e-8, v=0.01,
                          sigma=0.1, L=1)

    @pytest.mark.parametrize("grid", [np.zeros(17), np.full(17, 3.0), np.array([0.0, math.nan, *range(2, 17)]),
                                      np.array([-math.inf, *range(1, 17)])])
    def test_a_grid_that_does_not_move_is_rejected(self, grid):
        with pytest.raises(ValueError, match="finite and nonzero"):
            MeanValueInstance(grid, np.zeros(17), np.zeros(17), s=1, zeta=0, rho=2, v=0.01, sigma=0.1, L=1)


def _mean_value_verify_loop(inst, tau):
    """Reference for ``suites._mean_value_verify``: the grid check one index at a time."""
    h = inst.step
    i_tau, i0, iz = inst.index_of(tau), inst.index_of(0.0), inst.index_of(inst.zeta)
    phi_p = (inst.phi[i_tau + 1] - inst.phi[i_tau - 1]) / (2 * h)
    psi_p0 = (inst.psi[i0 + 1] - inst.psi[i0 - 1]) / (2 * h)
    gap = abs(inst.phi[iz] - inst.psi[iz])
    if not (-inst.s < tau < inst.s) or tau == inst.zeta:
        return False
    if phi_p < psi_p0 + inst.v * gap / inst.s - 1e-12:
        return False
    slope = 4.0 * (1.0 + 20.0 * inst.v) * math.sqrt(max(phi_p - psi_p0, 0.0) * inst.L)
    m = len(inst.grid)
    for k in range(m):
        j = i_tau + k - i0
        if not (0 <= j < m):
            continue
        t = inst.grid[k] - inst.grid[i0]
        lhs = abs((inst.phi[j] - inst.phi[i_tau]) - (inst.psi[k] - inst.psi[i0]))
        if lhs > slope * abs(t) + 1e-9:
            return False
    return True


def test_mean_value_verify_matches_the_index_loop():
    rng = np.random.default_rng(11)
    verdicts = []
    for _ in range(8):
        inst = suites._mean_value_instance(rng, grid_exp=10)
        taus = [inst.grid[i] for i in rng.integers(1, len(inst.grid) - 1, 12)]
        try:
            taus.append(mean_value_search(inst))
        except (MeanValueHypothesisError, MeanValueSearchError):
            pass
        for tau in taus:
            got = suites._mean_value_verify(inst, tau)
            assert got is _mean_value_verify_loop(inst, tau)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_meanvalue_exclusion_case_at_a_negative_bump():
    # base seed 2 draws a negative bump (-0.225) for the exclusion case: its
    # window lies on the falling edge, where phi' exceeds psi'(0)
    result = suites.run_suite("meanvalue", suites.RunConfig(seed=2))
    assert result.failures == 0 and result.passed


def envelope_verdict(f, star, comp, K, t_grid):
    """The envelope check of the iteration: sigma = 0 and lip = Lip(f)."""
    return compare_pairs(f, star, comp[0], comp[1], K=K, t_grid=t_grid, lip=f.declared_lip).verdict[0]


class TestAlmostMaximalCheck:
    def test_reflexive(self):
        f = hlinear_field(HLinearMap(0.5, E1))
        pair = (np.zeros(3), E1)
        grid = np.linspace(-0.9, 0.9, 19)
        assert envelope_verdict(f, pair, pair, K=6.0, t_grid=grid) is True

    def test_equal_derivative_translate(self):
        f = hlinear_field(HLinearMap(0.5, E1))
        grid = np.linspace(-0.9, 0.9, 19)
        star = (np.zeros(3), E1)
        comp = (horizontal_point(0.2 * E1), E1)
        assert envelope_verdict(f, star, comp, K=6.0, t_grid=grid) is True

    def test_smaller_derivative_rejected(self):
        f = hlinear_field(HLinearMap(0.5, E2))
        grid = np.linspace(-0.9, 0.9, 19)
        assert envelope_verdict(f, (np.zeros(3), E2), (np.zeros(3), E1), K=6.0, t_grid=grid) is False

    def test_indeterminate_on_divergent_estimates(self):
        f = ScalarField(lambda x: np.sign(x[..., 0]), declared_lip=1.0)
        grid = np.linspace(-0.9, 0.9, 5)
        out = envelope_verdict(f, (np.zeros(3), E1), (np.zeros(3), E1), K=6.0, t_grid=grid)
        assert out is None

    def test_requires_lip_bound(self):
        f = ScalarField(lambda x: x[..., 0])
        with pytest.raises(ValueError):
            envelope_verdict(f, (np.zeros(3), E1), (np.zeros(3), E1), K=6.0, t_grid=np.array([0.5]))

    def test_t_grid_validation(self):
        f = hlinear_field(HLinearMap(0.5, E1))
        with pytest.raises(ValueError):
            envelope_verdict(f, (np.zeros(3), E1), (np.zeros(3), E1), K=6.0, t_grid=np.array([1.5]))


_HALF_E1 = hlinear_field(HLinearMap(0.5, E1))
_KINK = lattice_max(hlinear_field(HLinearMap(0.5, E1)), hlinear_field(HLinearMap(0.5, -E1)))
# equal derivatives along E1 at (0, 1, 0) and at 0, but past t = 1/2 the increments
# at (0, 1, 0) grow by 1e-4 (t - 1/2): inside the bound the error bars allow,
# outside the one for a zero gap
_LATE_BEND = ScalarField(
    lambda x: 0.5 * x[..., 0] + 1e-4 * np.maximum(x[..., 0] - 0.5, 0.0) * (x[..., 1] > 0.5),
    declared_lip=1.0,
)
_SIGN = ScalarField(lambda x: np.sign(x[..., 0]), declared_lip=1.0)

# id: (field, star, candidate point, candidate direction, sigma, verdict, reason)
COMPARE_CASES = {
    "accepted-reflexive": (_HALF_E1, (np.zeros(3), E1), np.zeros(3), E1, 0.0, True, ""),
    "accepted-translate": (_HALF_E1, (np.zeros(3), E1), horizontal_point(0.3 * E1), E1, 0.1, True, ""),
    "accepted-generous-slack": (_HALF_E1, (np.zeros(3), E2), np.zeros(3), E1, 1.0, True, ""),
    "diverging": (_SIGN, (np.zeros(3), E1), np.zeros(3), E1, 0.0, None, "diverging"),
    "ordering": (_HALF_E1, (np.zeros(3), E1), np.zeros(3), E2, 0.0, False, "ordering"),
    "increment": (_KINK, (horizontal_point(-E1), -E1), horizontal_point(E1), E1, 0.0, False, "increment"),
    "indeterminate": (_LATE_BEND, (np.zeros(3), E1), np.array([0.0, 1.0, 0.0]), E1, 0.0, None, "indeterminate"),
}


@pytest.mark.parametrize("case", sorted(COMPARE_CASES))
def test_compare_pairs_table(case):
    f, star, x, e, sigma, verdict, reason = COMPARE_CASES[case]
    out = compare_pairs(f, star, x, e, K=8.0, t_grid=T_GRID, sigma=sigma)
    assert out.verdict[0] is verdict
    assert out.reason[0] == reason
    if reason in ("diverging", "ordering"):
        assert out.required_sigma[0] == np.inf
    else:
        # the required slack decides the maximizer's admissibility: accepted at sigma
        assert (out.required_sigma[0] <= sigma) == (reason == "")


def test_compare_pairs_validation():
    with pytest.raises(ValueError):
        compare_pairs(_HALF_E1, (np.zeros(3), E1), np.zeros(3), E1, K=8.0, t_grid=T_GRID, sigma=-1.0)
    with pytest.raises(ValueError):
        compare_pairs(_HALF_E1, (np.zeros(3), E1), np.zeros(3), E1, K=8.0, t_grid=np.array([0.5, -1.0]))


@pytest.mark.parametrize("n", [1, 2])
def test_compare_pairs_batch_matches_single_calls(n):
    rng = np.random.default_rng(40 + n)
    e1 = np.zeros(2 * n)
    e1[0] = 1.0
    f = lattice_max(hlinear_field(HLinearMap(0.5, e1)), hlinear_field(HLinearMap(0.5, -e1)))
    star = (horizontal_point(2.0 * e1), e1)
    xs = rng.uniform(-1.5, 1.5, (64, 2 * n + 1))
    es = random_directions(rng, 64, n)
    es[::2] = e1  # along the star: lines crossing the kink at a_1 = 0 fail the increment test
    grid = T_GRID
    batch = compare_pairs(f, star, xs, es, K=8.0, t_grid=grid)
    assert {"", "ordering", "increment"} <= set(batch.reason)
    for i in range(64):
        one = compare_pairs(f, star, xs[i], es[i], K=8.0, t_grid=grid)
        assert one.verdict[0] is batch.verdict[i]
        assert one.reason[0] == batch.reason[i]
        assert one.required_sigma[0].tobytes() == batch.required_sigma[i].tobytes()
        assert one.value[0].tobytes() == batch.value[i].tobytes()


class TestFieldLibrary:
    def test_lattice_bounds(self):
        f = lattice_max(hlinear_field(HLinearMap(0.7, E1)), hlinear_field(HLinearMap(0.4, E2)))
        assert f.declared_lip == pytest.approx(0.7)
        g = lattice_min(hlinear_field(HLinearMap(0.7, E1)), hlinear_field(HLinearMap(0.4, E2)))
        x = np.array([1.0, 1.0, 0.0])
        assert f(x) == pytest.approx(0.7)
        assert g(x) == pytest.approx(0.4)

    def test_cc_distance_field_guard(self):
        f = cc_distance_field(np.zeros(3), max_rel_width=1e-6)
        # wide bracket away from horizontal reach trips the guard
        with pytest.raises(ValueError):
            f(np.array([1.0, 0.0, 1.0]))
        # on a horizontal line through the target the bracket collapses
        tight = cc_distance_field(np.zeros(3), max_rel_width=1e-6)
        assert tight(horizontal_point(0.7 * E1)) == pytest.approx(0.7, abs=1e-9)

    def test_cc_distance_field_builds_no_witness(self, monkeypatch):
        built = []
        init = HorizontalPath.__post_init__

        def counting_init(path):
            built.append(path)
            init(path)

        monkeypatch.setattr(HorizontalPath, "__post_init__", counting_init)
        target = np.array([0.3, -0.2, 0.1])
        f = cc_distance_field(target, max_rel_width=2.0)
        x = np.random.default_rng(8).standard_normal((1000, 3))
        values = f(x)
        assert not built
        assert all(f(x[i : i + 1])[0].hex() == v.hex() for i, v in enumerate(values))
        # the witness-free bracket: certified ends around the value
        z = group_mul(group_inv(np.broadcast_to(target, x.shape)), x)
        assert np.all(values <= cc_upper_value_batch(z))
        assert np.all(values >= metric.cc_lower_batch(np.broadcast_to(target, x.shape), x))

    def test_shifted_field(self):
        f = hlinear_field(HLinearMap(0.5, E1)).shifted(0.25 * E1)
        est = directional_derivative(f, np.zeros(3), E1)
        assert est.value == pytest.approx(0.75, abs=1e-10)
        assert f.declared_lip == pytest.approx(0.75)


def _shape_fields(n):
    e1 = np.zeros(2 * n)
    e1[0] = 1.0
    rng = np.random.default_rng(n)
    half = hlinear_field(HLinearMap(0.5, e1))
    other = hlinear_field(HLinearMap.from_coeffs(rng.standard_normal(2 * n)))
    return {
        "hlinear": other,
        "shifted": half.shifted(rng.standard_normal(2 * n)),
        "koranyi": koranyi_gauge_field(),
        "koranyi@c": koranyi_gauge_field(rng.standard_normal(2 * n + 1)),
        "vertical": vertical_coordinate_field(),
        "max": lattice_max(half.shifted(rng.standard_normal(2 * n)), other),
        "min": lattice_min(half.shifted(rng.standard_normal(2 * n)), koranyi_gauge_field()),
    }


@pytest.mark.parametrize("n", [1, 2])
def test_field_values_do_not_depend_on_the_call_shape(n):
    xs = np.random.default_rng(10 + n).standard_normal((600, 2 * n + 1))
    for name, f in _shape_fields(n).items():
        batch = f(xs)
        assert batch.shape == (600,), name
        assert f(xs.reshape(20, 30, -1)).tobytes() == batch.tobytes(), name
        lone = np.array([f(x) for x in xs])
        rows = np.array([f(xs[i : i + 1])[0] for i in range(len(xs))])
        assert lone.tobytes() == batch.tobytes(), name
        assert rows.tobytes() == batch.tobytes(), name


@pytest.mark.parametrize("n", [1, 2])
def test_line_increments_batch_matches_single_points(n):
    rng = np.random.default_rng(20 + n)
    xs = rng.standard_normal((64, 2 * n + 1))
    e = random_directions(rng, 1, n)[0]
    grid = T_GRID
    for name, f in _shape_fields(n).items():
        batch = line_increments(f, xs, e, grid)
        one = np.stack([line_increments(f, x, e, grid) for x in xs])
        assert one.tobytes() == batch.tobytes(), name


@pytest.mark.parametrize("steps", [None, np.array([0.01, 0.005, 0.0025])])
def test_derivative_is_its_row_of_the_batch(steps):
    rng = np.random.default_rng(30)
    xs = rng.standard_normal((48, 3))
    xs[::4, 0] = 0.0  # on the jump of the sign field: these ladders diverge
    dirs = random_directions(rng, 48, 1)
    fields = dict(_shape_fields(1), sign=ScalarField(lambda x: np.sign(x[..., 0])))
    for name, f in fields.items():
        values, errors, diverging = directional_derivative_batch(f, xs, dirs, steps)
        for i in range(len(xs)):
            est = directional_derivative(f, xs[i], dirs[i], steps)
            assert est.value.hex() == values[i].hex(), name
            assert est.error.hex() == errors[i].hex(), name
            assert est.diverging is bool(diverging[i]), name
    # the sign field comes last: its default ladders diverge, its 3-level ones cannot
    assert np.any(diverging) == (steps is None)


class TestLadderSteps:
    SIGN = ScalarField(lambda x: np.sign(x[..., 0]))

    def test_three_levels_never_flag_divergence(self):
        three = np.array([0.01, 0.005, 0.0025])
        assert directional_derivative(self.SIGN, np.zeros(3), E1).diverging
        assert not directional_derivative(self.SIGN, np.zeros(3), E1, three).diverging
        _, _, diverging = directional_derivative_batch(self.SIGN, np.zeros((2, 3)), np.stack([E1, E2]), three)
        assert not np.any(diverging)

    @pytest.mark.parametrize("steps", [[0.1, 0.2, 0.3], [0.1, 0.05, 0.05], [0.1, 0.0, -0.1], [0.1, 0.05]])
    def test_batch_rejects_bad_steps(self, steps):
        f = hlinear_field(HLinearMap(1.0, E1))
        with pytest.raises(ValueError, match="steps must be"):
            directional_derivative_batch(f, np.zeros((2, 3)), np.stack([E1, E2]), np.array(steps))
        with pytest.raises(ValueError, match="steps must be"):
            compare_pairs(f, (np.zeros(3), E1), np.zeros(3), E2, K=8.0, t_grid=T_GRID,
                          steps=np.array(steps))

    def test_compare_pairs_on_a_three_level_ladder(self):
        f = hlinear_field(HLinearMap(0.5, E1))
        out = compare_pairs(f, (np.zeros(3), E1), np.zeros((2, 3)), np.stack([E1, E2]), K=8.0,
                            t_grid=T_GRID, steps=np.array([0.01, 0.005, 0.0025]))
        assert list(out.reason) == ["", "ordering"]
