"""The maximizer's delta search against the one it replaced.

``_ref_step`` below is the former ``maximizer.step``, kept verbatim in
behaviour: its delta search reads tube distances with the full refinement,
the golden section included, where the current step lets a grid scan that
already fits the ball settle them.  Runs with either step must log the same
states and the same verification report.
"""

import math

import numpy as np
import pytest

from hcalc import maximizer, metric, uds
from hcalc.calculus import compare_pairs, hlinear_field, line_increments
from hcalc.group import HLinearMap, group_inv, group_mul
from hcalc.maximizer import (
    C_ANGLE,
    C_HOLDER,
    K,
    T_GRID,
    IterationState,
    MaximizerConfig,
    Pair,
    _candidate_directions,
    _candidate_points,
    run,
    verify_trajectory,
)
from hcalc.metric import VECTOR_FIELD_LIP, cc_upper_quick
from hcalc.uds import Cover

from test_uds_cover_reference import _bits, _query_points, _ref_refine_pairs


def _ref_step(state, f0, config, cover, rng):
    m = state.m + 1
    accum = state.accum + state.t * state.direction
    f_m = f0.shifted(accum)
    sigma_prev, t_prev, delta_prev = state.sigma, state.t, state.delta
    sigma_m = sigma_prev / 5.0
    t_m = min(t_prev / 2.0, sigma_prev / (4.0 * m)) / 2.0
    lam_m = t_m * sigma_m**4 / (4.0 * C_ANGLE**4)

    n_dirs = max(4, int(math.sqrt(config.budget)))
    n_pts = max(4, config.budget // n_dirs)
    points = _candidate_points(cover, state.x, delta_prev, rng, n_pts)
    dirs = _candidate_directions(state.direction, sigma_prev, rng, n_dirs)
    cand_x = np.repeat(points, len(dirs), axis=0)[: config.budget + 1]
    cand_e = np.tile(dirs, (len(points), 1))[: config.budget + 1]

    cmp = compare_pairs(f_m, (state.x, state.direction), cand_x, cand_e, K, T_GRID, sigma=sigma_prev)
    values, required, d_prev = cmp.value, cmp.required_sigma, cmp.star
    admissible = required < sigma_prev * (1.0 - 1e-9)
    best_seen = np.where(admissible, values, -np.inf)
    best_seen[0] = values[0]
    best_idx = int(np.argmax(best_seen))
    best_required = float(required[best_idx]) if admissible[best_idx] else 0.0
    examined = np.ones(len(values), dtype=bool)
    examined[1:] = ~(values[1:] <= np.maximum.accumulate(best_seen)[:-1])
    inconclusive = examined & ~admissible & ((cmp.reason == "") | (cmp.reason == "indeterminate"))
    indeterminate = int(np.sum((cmp.reason == "diverging") | inconclusive))

    flag = "" if best_idx != 0 else "incumbent retained"
    x_m, e_m = cand_x[best_idx], cand_e[best_idx]
    eps_m = sigma_prev / 2.0 if best_required <= 0.0 else min(sigma_prev / 2.0, (sigma_prev - best_required) / 2.0)

    d_move = float(cc_upper_quick(group_mul(group_inv(state.x), x_m)))
    delta_m = max((delta_prev - d_move) / 4.0, 1e-300)
    e_sel = float(values[best_idx])
    t_abs = np.abs(T_GRID)
    inc_sel = line_increments(f_m, x_m, e_m, T_GRID)
    inc_prev = line_increments(f_m, state.x, state.direction, T_GRID)
    gap_sel = e_sel - d_prev.value + sigma_prev
    radii = cover.radii(min(m, cover.depth))
    dist = None
    for _ in range(600):
        t_range = C_HOLDER**2 * math.sqrt(1.0 + VECTOR_FIELD_LIP) * math.sqrt(delta_m) / eps_m
        sel = t_abs < t_range
        if np.all(np.abs(inc_sel - inc_prev)[sel] <= gap_sel * t_abs[sel] + 1e-12):
            if dist is None:
                dist = cover.upper_distances(x_m[None, :], needed=radii)[0]
            if np.any(dist + delta_m <= radii) and delta_m + d_move < delta_prev:
                break
        delta_m /= 2.0
    else:
        flag = (flag + "; " if flag else "") + "delta search exhausted"

    return IterationState(
        m=m, accum=accum, x=x_m, direction=e_m, sigma=sigma_m, t=t_m, delta=delta_m, lam=lam_m,
        eps=eps_m, e_value=e_sel, candidates=len(cand_x), indeterminate=indeterminate, flag=flag,
    )


@pytest.fixture(scope="module")
def cli_cover():
    # the cover `hcalc maximize` builds for the default config
    return Cover.build(n=1, height=2, depth=12, max_lines=64)


def _logs(monkeypatch, f0, start, config, cover):
    """States and verification report of a run with the current step, then
    with the reference one."""
    out = []
    for reference in (False, True):
        with monkeypatch.context() as mp:
            if reference:
                mp.setattr(maximizer, "step", _ref_step)
            traj = run(f0, start, config, cover)
        out.append(([s.to_json() for s in traj.states], verify_trajectory(traj)))
    return out


# seeds 27, 43 and 48 run a delta search out of its halvings
@pytest.mark.parametrize("seed", [*range(8), 27, 43, 48], ids=lambda k: f"seed{k}")
def test_runs_log_what_the_full_refinement_logs(monkeypatch, cli_cover, seed):
    e1 = np.array([1.0, 0.0])
    f0 = hlinear_field(HLinearMap(0.5, e1))
    start = Pair.in_cover(np.zeros(3), e1, cli_cover, 10)
    new, ref = _logs(monkeypatch, f0, start, MaximizerConfig(seed=seed), cli_cover)
    assert new == ref
    if seed in (27, 43, 48):
        assert any("delta search exhausted" in s["flag"] for s in new[0])


@pytest.mark.parametrize("delta, want", [
    # a ball of radius 0 nests nothing: the search starts at the 1e-300 floor
    # and halves it to 0
    (0.0, 0.0),
    # a ball at the floor: one halving nests the next one inside it
    (1e-300, 5e-301),
])
def test_a_step_at_the_delta_floor_logs_what_the_full_refinement_logs(cli_cover, delta, want):
    f0 = hlinear_field(HLinearMap(0.5, np.array([1.0, 0.0])))
    state = IterationState(m=2, accum=np.array([0.25, 0.0]), x=np.zeros(3), direction=np.array([1.0, 0.0]),
                           sigma=0.08, t=0.05, delta=delta, lam=1e-9, eps=0.02, e_value=0.75)
    new, ref = (fn(state, f0, MaximizerConfig(budget=64), cli_cover, np.random.default_rng(3))
                for fn in (maximizer.step, _ref_step))
    assert new.to_json() == ref.to_json()
    assert new.delta == want
    assert ("delta search exhausted" in new.flag) == (want == 0.0)


def test_an_n2_run_logs_what_the_full_refinement_logs(monkeypatch):
    cover = Cover.build(n=2, height=2, depth=12, max_lines=64)
    x = cover._bases[0] + cover.spans[0].mean() * cover._vecs[0]
    f0 = hlinear_field(HLinearMap(0.5, np.array([0.6, 0.8, 0.0, 0.0])))
    new, ref = _logs(monkeypatch, f0, Pair(x, np.array([1.0, 0.0, 0.0, 0.0])),
                     MaximizerConfig(max_steps=6, budget=128), cover)
    assert new == ref
    assert len({tuple(s["x"]) for s in new[0]}) > 2  # the run moves


def _ref_grid(cover, pts, pi, li):
    """The grid scan's best per pair, before any golden section."""
    us = np.linspace(0.0, 1.0, uds._REFINE_GRID)
    ts = cover.spans[li, 0] + us[:, None] * (cover.spans[li, 1] - cover.spans[li, 0])
    line_pts = cover._bases[li] + ts[:, :, None] * cover._vecs[li]
    return np.min(metric.cc_upper_quick(group_mul(group_inv(line_pts), pts[pi])), axis=0)


@pytest.mark.parametrize("n", [1, 2])
def test_settled_points_keep_their_grid_values(n):
    cover = Cover.build(n=n, height=2, depth=6, max_lines=48)
    pts = _query_points(cover, np.random.default_rng(70 + n), 100)
    needed = cover.radii(1) * 4.0
    pi, li = cover._candidate_pairs(pts, needed)
    full, grid = _ref_refine_pairs(cover, pts, pi, li), _ref_grid(cover, pts, pi, li)
    for slack in (0.0, float(np.median(needed)) / 4.0):
        got = cover.upper_distances(pts, needed, slack=slack)[pi, li]
        settled = np.zeros(len(pts), dtype=bool)
        settled[pi[grid + slack <= needed[li]]] = True
        at = settled[pi]
        assert 0 < settled.sum() < len(np.unique(pi))
        assert _bits(got[~at]) == _bits(full[~at])
        assert _bits(got[at]) == _bits(grid[at])
        assert np.all(got[at] >= full[at])


def test_a_settled_point_takes_one_quick_bound_call(monkeypatch):
    cover = Cover.build(n=1, height=2, depth=6, max_lines=48)
    # a point of line 5 at a grid parameter: the grid scan finds distance 0
    u = np.linspace(0.0, 1.0, uds._REFINE_GRID)[7]
    t = cover.spans[5, 0] + u * (cover.spans[5, 1] - cover.spans[5, 0])
    pt = (cover._bases[5] + t * cover._vecs[5])[None, :]
    needed = cover.radii(3)
    calls = []

    def counted(z):
        calls.append(z.shape)
        return metric.cc_upper_quick(z)

    monkeypatch.setattr(uds, "cc_upper_quick", counted)
    settled = cover.upper_distances(pt, needed, slack=needed[5] / 2.0)
    assert len(calls) == 1 and calls[0][0] == uds._REFINE_GRID
    calls.clear()
    full = cover.upper_distances(pt, needed)
    assert len(calls) == 2 + uds._REFINE_GOLDEN
    assert np.all(settled >= full) and settled[0, 5] + needed[5] / 2.0 <= needed[5]


@pytest.mark.parametrize("slack", [-1e-9, math.nan, math.inf])
def test_a_bad_slack_is_refused(cli_cover, slack):
    with pytest.raises(ValueError, match="slack must be finite and >= 0"):
        cli_cover.upper_distances(np.zeros((1, 3)), cli_cover.radii(1), slack=slack)
