"""``calculus.mean_value_search`` against its former full-grid form.

``_ref_search`` below is the search as it was when it differenced the whole
grid and read every increment window through index arrays and masks, kept
verbatim with its two helpers.  The search now differences only the window
|t| < s and reads its windows as slices; on every input, non-finite ones
included, it must give the same tau, or the same error with the same
hypothesis name, ``best_tau`` and message.  ``_ref_instance`` is the
``meanvalue`` suite's instance as it was built before its bump was computed
on |t| < s alone; the instances keep their bits.
"""

import dataclasses
import math

import numpy as np
import pytest

from hcalc import calculus, suites
from hcalc.calculus import MeanValueHypothesisError, MeanValueInstance, MeanValueSearchError


def _ref_central_diff(vals, h):
    d = np.empty_like(vals)
    d[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    d[0] = (vals[1] - vals[0]) / h
    d[-1] = (vals[-1] - vals[-2]) / h
    return d


def _ref_check_hypotheses(inst, margin=1e-9):
    if not (abs(inst.zeta) < inst.s < inst.rho):
        raise MeanValueHypothesisError("|zeta| < s < rho")
    if not (0.0 < inst.v < 1.0 / 32.0):
        raise MeanValueHypothesisError("0 < v < 1/32")
    h = inst.step
    lip_sum = float(np.max(np.abs(np.diff(inst.phi))) + np.max(np.abs(np.diff(inst.psi)))) / h
    if lip_sum > inst.L * (1.0 + 1e-9):
        raise MeanValueHypothesisError("Lip(phi) + Lip(psi) <= L", f"{lip_sum} > {inst.L}")
    outside = np.abs(inst.grid) >= inst.s - 1e-12
    if not np.allclose(inst.phi[outside], inst.psi[outside], rtol=0.0, atol=1e-12):
        raise MeanValueHypothesisError("phi = psi outside [-s, s]")
    iz = inst.index_of(inst.zeta)
    gap = float(inst.phi[iz] - inst.psi[iz])
    if gap == 0.0:
        raise MeanValueHypothesisError("phi(zeta) != psi(zeta)")
    i0 = inst.index_of(0.0)
    psi_p0 = float(_ref_central_diff(inst.psi, h)[i0])
    within = np.abs(inst.grid) <= inst.rho
    lin_err = np.abs(inst.psi[within] - inst.psi[i0] - inst.grid[within] * psi_p0)
    bound = inst.sigma * inst.L * np.abs(inst.grid[within]) + margin
    if np.any(lin_err > bound):
        raise MeanValueHypothesisError("|psi(t) - psi(0) - t psi'(0)| <= sigma L |t|")
    rho_floor = inst.s * math.sqrt(inst.s * inst.L / (inst.v * abs(gap)))
    if inst.rho < rho_floor - margin:
        raise MeanValueHypothesisError("rho >= s sqrt(sL / (v |gap|))", f"{inst.rho} < {rho_floor}")
    sigma_cap = inst.v**3 * (gap / (inst.s * inst.L)) ** 2
    if inst.sigma > sigma_cap + margin:
        raise MeanValueHypothesisError("sigma <= v^3 (gap / (sL))^2", f"{inst.sigma} > {sigma_cap}")
    return gap, psi_p0, i0, iz


def _ref_search(inst, exclude=None):
    exclude = exclude or set()
    gap, psi_p0, i0, iz = _ref_check_hypotheses(inst)
    h = inst.step
    phi_p = _ref_central_diff(inst.phi, h)
    need = psi_p0 + inst.v * abs(gap) / inst.s
    m = len(inst.grid)
    interior = (np.abs(inst.grid) < inst.s) & (np.arange(m) != iz)
    excluded = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
    interior[excluded[(excluded >= 0) & (excluded < m)]] = False
    cand = np.where(interior & (phi_p >= need))[0]
    if len(cand) == 0:
        raise MeanValueSearchError(float(inst.grid[int(np.argmax(np.where(interior, phi_p, -np.inf)))]),
                                   "no grid point reaches the derivative lower bound")
    order = cand[np.argsort(-phi_p[cand])]
    psi_rel = inst.psi - inst.psi[i0]
    best = order[0]
    for idx in order:
        slope = 4.0 * (1.0 + 20.0 * inst.v) * math.sqrt((phi_p[idx] - psi_p0) * inst.L)
        lo = max(0, i0 - idx)
        hi = min(m, m + i0 - idx)
        k = np.arange(lo, hi)
        t_vals = inst.grid[k] - inst.grid[i0]
        lhs = np.abs((inst.phi[k + idx - i0] - inst.phi[idx]) - psi_rel[k])
        if np.all(lhs <= slope * np.abs(t_vals) + 1e-12):
            return float(inst.grid[idx])
    raise MeanValueSearchError(float(inst.grid[best]), "derivative bound reached but increment bound failed")


def _outcome(search, inst, exclude=None):
    """What a search gives: tau as hex, or the error's type, hypothesis, best_tau and message."""
    try:
        with np.errstate(all="ignore"):
            return ("tau", search(inst, exclude).hex())
    except (MeanValueHypothesisError, MeanValueSearchError, ValueError, ZeroDivisionError) as err:
        return (type(err).__name__, getattr(err, "hypothesis", None), repr(getattr(err, "best_tau", None)), str(err))


def _assert_same(inst, exclude=None):
    want = _outcome(_ref_search, inst, exclude)
    assert _outcome(calculus.mean_value_search, inst, exclude) == want
    return want


def _steepened(inst, side):
    """The instance with zeta moved to ``side`` s and L tight; with zeta
    across 0 from the bump's sign, most reach no derivative bound."""
    grid, s = inst.grid, inst.s
    iz = inst.index_of(inst.zeta)
    height = inst.phi[iz] - inst.psi[iz]
    zeta = float(grid[np.argmin(np.abs(grid - side * s))])
    bump = np.clip(np.minimum((grid + s) / (zeta + s), (s - grid) / (s - zeta)), 0.0, None)
    phi = inst.psi + np.where(np.abs(grid) >= s, 0.0, height * bump)
    L = float(np.max(np.abs(np.diff(phi))) + np.max(np.abs(np.diff(inst.psi)))) / inst.step * (1.0 + 1e-7)
    rho = s * math.sqrt(s * L / (inst.v * abs(height))) * 1.05
    sigma = 0.5 * inst.v**3 * (height / (s * L)) ** 2
    return dataclasses.replace(inst, zeta=zeta, phi=phi, L=L, rho=rho, sigma=sigma)


def _spiked():
    """A bump with a dip at every other interior point: the central
    differences do not see the dips, and every candidate's neighbour
    breaks the increment bound."""
    grid = np.linspace(-2.0, 2.0, 1025)
    zeta = float(grid[640])
    phi = 0.5 * np.clip(np.minimum((grid + 1.0) / (zeta + 1.0), (1.0 - grid) / (1.0 - zeta)), 0.0, None)
    phi[257:768:2] -= 0.2  # the first and the last point of (-1, 1)
    L = float(np.max(np.abs(np.diff(phi)))) / (grid[1] - grid[0]) * (1.0 + 1e-6)
    v, gap = 0.01, float(phi[640])
    return MeanValueInstance(grid, phi, np.zeros_like(grid), s=1.0, zeta=zeta, rho=1.05 * math.sqrt(L / (v * gap)),
                             v=v, sigma=0.5 * v**3 * (gap / L) ** 2, L=L)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_search_is_the_full_grid_search_on_suite_instances(seed):
    rng = np.random.default_rng(seed)
    for _ in range(80):
        assert _assert_same(suites._mean_value_instance(rng))[0] == "tau"
    details = set()
    for _ in range(20):
        inst = suites._mean_value_instance(rng, grid_exp=10)
        for side in (-0.97, 0.97):
            details.add(_assert_same(_steepened(inst, side))[-1].rpartition("; ")[2])
    assert "no grid point reaches the derivative lower bound" in details


def test_search_is_the_full_grid_search_when_every_increment_test_fails():
    want = _assert_same(_spiked())
    assert want[0] == "MeanValueSearchError" and want[-1].endswith("increment bound failed")
    # excluding the dipped points leaves points whose neighbours dip
    assert _assert_same(_spiked(), exclude=set(range(257, 768, 2)))[0] == "MeanValueSearchError"


@pytest.mark.parametrize("seed", [4, 5])
def test_search_is_the_full_grid_search_with_exclusions(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        inst = suites._mean_value_instance(rng, grid_exp=10)
        m, iz = len(inst.grid), inst.index_of(inst.zeta)
        tau = _ref_search(inst)
        window = set(range(m)) - set(range(iz // 3, iz))
        for exclude in (
            window,
            {inst.index_of(tau)},
            set(rng.integers(-m, 2 * m, 400).tolist()),
            set(range(m)),  # every candidate excluded
            set(range(m)) - {iz},
            {-1, m, inst.index_of(tau) - m},  # off the grid
        ):
            _assert_same(inst, exclude)


def test_search_is_the_full_grid_search_on_each_named_hypothesis():
    rng = np.random.default_rng(6)
    inst = suites._mean_value_instance(rng, grid_exp=12)
    s, grid = inst.s, inst.grid
    nudged = inst.phi.copy()
    nudged[0] += 1e-9
    curved = 1e-5 * grid**2
    cases = {
        "|zeta| < s < rho": dataclasses.replace(inst, rho=0.5 * s),
        "0 < v < 1/32": dataclasses.replace(inst, v=0.2),
        "Lip(phi) + Lip(psi) <= L": dataclasses.replace(inst, L=1e-6),
        "phi = psi outside [-s, s]": dataclasses.replace(inst, phi=nudged),
        "phi(zeta) != psi(zeta)": dataclasses.replace(inst, phi=inst.psi.copy()),
        "|psi(t) - psi(0) - t psi'(0)| <= sigma L |t|": dataclasses.replace(inst, phi=inst.phi + curved,
                                                                              psi=inst.psi + curved),
        "rho >= s sqrt(sL / (v |gap|))": dataclasses.replace(inst, rho=1.01 * s),
        "sigma <= v^3 (gap / (sL))^2": dataclasses.replace(inst, sigma=1.0),
    }
    for name, case in cases.items():
        want = _assert_same(case)
        assert want[:2] == ("MeanValueHypothesisError", name)


def test_search_is_the_full_grid_search_on_edge_grids():
    rng = np.random.default_rng(7)
    inst = suites._mean_value_instance(rng, grid_exp=10)
    # falling grids, one of them not symmetric about 0
    for cut in (0, 300):
        flipped = dataclasses.replace(inst, grid=inst.grid[cut:][::-1].copy(), phi=inst.phi[cut:][::-1].copy(),
                                      psi=inst.psi[cut:][::-1].copy())
        assert _assert_same(flipped)[0] == "tau"
    # a grid inside (-s, s): the window reaches both ends, where the differences are one-sided
    for top in (0.9, 0.999):
        grid = np.linspace(-top * inst.s, top * inst.s, 1025)
        iz = int(np.argmin(np.abs(grid - inst.zeta)))
        narrow = dataclasses.replace(inst, grid=grid, zeta=float(grid[iz]), phi=np.interp(grid, inst.grid, inst.phi),
                                     psi=np.interp(grid, inst.grid, inst.psi))
        _assert_same(narrow)
        _assert_same(dataclasses.replace(narrow, rho=0.95 * inst.s))
    # psi'(0) at the first and the last grid point
    for grid in (np.linspace(0.0, 2.0, 65), np.linspace(-2.0, 0.0, 65)):
        _assert_same(MeanValueInstance(grid, np.sin(grid), 0.5 * grid, s=1.0, zeta=float(grid[32] / 4),
                                       rho=2.0, v=0.01, sigma=0.1, L=10.0))


def test_search_is_the_full_grid_search_on_non_finite_inputs():
    rng = np.random.default_rng(8)
    for _ in range(40):
        inst = suites._mean_value_instance(rng, grid_exp=10)
        m = len(inst.grid)
        field = dict(zip(("zeta", "s", "rho", "v", "sigma", "L"), (inst.zeta, inst.s, inst.rho, inst.v, inst.sigma,
                                                                     inst.L)))
        name = str(rng.choice(sorted(field)))
        _assert_same(dataclasses.replace(inst, **{name: float(rng.choice([math.nan, math.inf, -math.inf, 0.0]))}))
        for bad in (math.nan, math.inf, -math.inf):
            at = rng.integers(0, m, 3)
            phi, psi = inst.phi.copy(), inst.psi.copy()
            phi[at] = bad
            _assert_same(dataclasses.replace(inst, phi=phi))
            psi[at] = bad
            _assert_same(dataclasses.replace(inst, phi=phi, psi=psi))
            # equal infinities on two neighbours: np.diff gives NaN, so the
            # Lipschitz test passes and the tests after it see them
            both = inst.phi.copy()
            both[:2] = bad
            _assert_same(dataclasses.replace(inst, phi=both, psi=both.copy()))


def _ref_instance(rng, grid_exp=14):
    """``suites._mean_value_instance`` as it was, with the bump over the whole grid, masked."""
    s = float(rng.uniform(0.5, 1.5))
    v = float(rng.uniform(0.005, 1.0 / 33.0))
    slope = float(rng.uniform(-0.3, 0.3))
    height = float(rng.uniform(0.2, 0.8)) * (1 if rng.random() < 0.5 else -1)
    L = 2.0 * (abs(slope) + abs(height) / (0.4 * s)) + 1.0
    rho = s * math.sqrt(s * L / (v * abs(height))) * 1.05
    half = rho * 1.01
    m = 2**grid_exp
    grid = np.linspace(-half, half, m + 1)
    zeta = float(grid[np.argmin(np.abs(grid - rng.uniform(-0.3 * s, 0.3 * s)))])
    psi = slope * grid
    rise = (grid + s) / (zeta + s)
    fall = (s - grid) / (s - zeta)
    bump = height * np.clip(np.minimum(rise, fall), 0.0, None)
    phi = psi + np.where(np.abs(grid) >= s, 0.0, bump)
    sigma = 0.5 * v**3 * (height / (s * L)) ** 2
    return MeanValueInstance(grid, phi, psi, s=s, zeta=zeta, rho=rho, v=v, sigma=sigma, L=L)


@pytest.mark.parametrize("grid_exp", [10, 14])
def test_suite_instances_keep_their_bits(grid_exp):
    for seed in range(3):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(60):
            a, b = suites._mean_value_instance(got, grid_exp), _ref_instance(want, grid_exp)
            for name in ("grid", "phi", "psi"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
            assert [a.s, a.zeta, a.rho, a.v, a.sigma, a.L] == [b.s, b.zeta, b.rho, b.v, b.sigma, b.L]
