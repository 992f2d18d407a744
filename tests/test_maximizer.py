import dataclasses
import json
import math

import numpy as np
import pytest

from hcalc.calculus import ScalarField, compare_pairs, hlinear_field
from hcalc.group import HLinearMap, group_inv, group_mul, project
from hcalc.maximizer import (
    _candidate_points,
    C_ANGLE,
    C_HOLDER,
    DELTA0,
    IterationState,
    K,
    MU,
    MaximizerConfig,
    Pair,
    T_GRID,
    Trajectory,
    UDS_LEVEL,
    run,
    step,
    verify_trajectory,
)
from hcalc.metric import cc_upper_quick
from hcalc.uds import Cover

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


@pytest.fixture(scope="module")
def cover():
    return Cover.build(n=1, height=2, depth=12, max_lines=64)


@pytest.fixture(scope="module")
def linear_run(cover):
    f0 = hlinear_field(HLinearMap(0.5, E1), label="half-axis")
    cfg = MaximizerConfig(max_steps=6, budget=128, seed=11)
    start = Pair.in_cover(np.zeros(3), E1, cover, 6)
    return run(f0, start, cfg, cover)


class TestConfigAndPair:
    @pytest.mark.parametrize("field, value, message", [
        # budget=0 ran the incumbent alone; budget=-5 failed with "math domain error"
        ("budget", 0, "budget must be at least 1"),
        ("budget", -5, "budget must be at least 1"),
        ("max_steps", -1, "max_steps must be at least 0"),
        # a float budget failed on a slice bound after the cover was built
        ("budget", 64.5, "budget must be an integer, got 64.5"),
        ("max_steps", True, "max_steps must be an integer, got True"),
        ("seed", -1, "seed must be at least 0"),
    ])
    def test_degenerate_values_are_refused(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            MaximizerConfig(**{field: value})

    def test_the_default_config_is_unchanged(self):
        assert MaximizerConfig().to_json() == {"seed": 0, "max_steps": 10, "budget": 512}
        assert MaximizerConfig().uds_level == UDS_LEVEL == 10
        assert (C_ANGLE, C_HOLDER, DELTA0, MU, K) == (2.0, 4.0, 1.0, 0.5, 8.0)
        ts = np.unique(np.concatenate([0.5 ** np.arange(1, 11), np.linspace(0.05, 0.95, 10)]))
        assert T_GRID.tolist() == [*(-ts[::-1]).tolist(), *ts.tolist()]
        assert not T_GRID.flags.writeable

    @pytest.mark.parametrize("name", ["delta0", "mu", "K", "uds_level", "c_angle", "c_holder", "t_grid", "deriv_steps"])
    def test_from_json_refuses_each_retired_field(self, name):
        # each was settable, and t_grid and deriv_steps reached no trajectory header
        with pytest.raises(ValueError, match=f"unknown config fields: \\['{name}'\\]"):
            MaximizerConfig.from_json({name: 1.0})

    def test_from_json_names_an_unknown_field(self):
        assert MaximizerConfig.from_json({"budget": 64}).budget == 64
        with pytest.raises(ValueError, match="unknown config fields: \\['budgte'\\]"):
            MaximizerConfig.from_json({"budgte": 64})

    def test_pair_unit_check(self):
        with pytest.raises(ValueError):
            Pair(np.zeros(3), np.array([1.0, 1.0]))

    def test_pair_cover_membership(self, cover):
        with pytest.raises(ValueError):
            Pair.in_cover(np.array([0.47, 1.93, 8.21]), E1, cover, 6)


def comparison_verdict(f, p1, p2, sigma):
    """The maximizer's comparison p1 <=_sigma p2 (lip = 1)."""
    out = compare_pairs(f, (p1.x, p1.direction), p2.x, p2.direction, K=8.0, t_grid=T_GRID, sigma=sigma)
    return out.verdict[0]


class TestComparison:
    def test_reflexive(self):
        f = hlinear_field(HLinearMap(0.5, E1))
        p = Pair(np.zeros(3), E1)
        assert comparison_verdict(f, p, p, sigma=0.0) is True

    def test_orthogonal_rejected_at_zero_slack(self):
        f = hlinear_field(HLinearMap(0.5, E1))
        p1 = Pair(np.zeros(3), E1)
        p2 = Pair(np.zeros(3), E2)
        assert comparison_verdict(f, p1, p2, sigma=0.0) is False

    def test_generous_slack_admits(self):
        f = hlinear_field(HLinearMap(0.5, E1))
        p1 = Pair(np.zeros(3), E2)
        p2 = Pair(np.zeros(3), E1)
        assert comparison_verdict(f, p1, p2, sigma=1.0) is True

    def test_sigma_validation(self):
        f = hlinear_field(HLinearMap(0.5, E1))
        p = Pair(np.zeros(3), E1)
        with pytest.raises(ValueError):
            comparison_verdict(f, p, p, sigma=-1.0)


class TestRun:
    def test_monotone_derivatives_and_clean_verify(self, linear_run):
        rep = verify_trajectory(linear_run)
        assert rep["clean"], rep["violations"]
        e = rep["e_values"]
        assert all(b > a for a, b in zip(e, e[1:]))
        assert e[0] == pytest.approx(0.5, abs=1e-10)

    def test_direction_locks_onto_the_gradient(self, linear_run):
        assert np.allclose(linear_run.final_pair().direction, E1)

    def test_field_shift_budget(self, linear_run):
        assert linear_run.field_shift_norm() <= MU + 1e-12

    def test_schedules_decay_geometrically(self, linear_run):
        for s in linear_run.states[1:]:
            assert s.sigma <= 2.0 / 4.0**s.m

    def test_zero_steps_returns_start(self, cover):
        f0 = hlinear_field(HLinearMap(0.5, E1))
        start = Pair.in_cover(np.zeros(3), E1, cover, 6)
        traj = run(f0, start, MaximizerConfig(max_steps=0, seed=0), cover)
        assert len(traj.states) == 1
        assert np.array_equal(traj.final_pair().x, start.x)

    def test_negative_start_direction_is_flipped(self, cover):
        f0 = hlinear_field(HLinearMap(0.5, E1))
        start = Pair.in_cover(np.zeros(3), -E1, cover, 6)
        traj = run(f0, start, MaximizerConfig(max_steps=1, budget=32, seed=0), cover)
        assert traj.states[0].direction @ E1 > 0

    def test_requires_declared_lip(self, cover):
        f = ScalarField(lambda x: np.zeros(np.asarray(x).shape[:-1]))
        start = Pair(np.zeros(3), E1)
        with pytest.raises(ValueError):
            run(f, start, MaximizerConfig(max_steps=1), cover)

    def test_fast_fields_are_rescaled(self, cover):
        f = hlinear_field(HLinearMap(2.0, E1))
        start = Pair.in_cover(np.zeros(3), E1, cover, 6)
        traj = run(f, start, MaximizerConfig(max_steps=1, budget=32, seed=0), cover)
        assert traj.f0.declared_lip == pytest.approx(0.5)


class TestVerification:
    def test_corrupted_schedule_is_flagged(self, linear_run):
        states = list(linear_run.states)
        bad = dataclasses.replace(states[2], sigma=states[1].sigma)
        tampered = Trajectory([*states[:2], bad, *states[3:]], linear_run.f0, linear_run.config, linear_run.cover)
        rep = verify_trajectory(tampered)
        assert any("sigma" in v for v in rep["violations"])

    def test_corrupted_ball_is_flagged(self, linear_run):
        states = list(linear_run.states)
        bad = dataclasses.replace(states[2], delta=states[1].delta)
        tampered = Trajectory([*states[:2], bad, *states[3:]], linear_run.f0, linear_run.config, linear_run.cover)
        rep = verify_trajectory(tampered)
        assert any("delta" in v or "nested" in v for v in rep["violations"])

    def test_single_state_trajectory_is_clean(self, linear_run):
        solo = Trajectory(linear_run.states[:1], linear_run.f0, linear_run.config, linear_run.cover)
        rep = verify_trajectory(solo)
        assert rep["clean"]

    def test_empty_trajectory_rejected(self, linear_run):
        with pytest.raises(ValueError):
            verify_trajectory(Trajectory([], linear_run.f0, linear_run.config, linear_run.cover))


class TestStateLog:
    def test_jsonl_roundtrip(self, linear_run, tmp_path):
        out = tmp_path / "traj.jsonl"
        linear_run.write_jsonl(str(out))
        lines = out.read_text().strip().splitlines()
        # the header holds every input the run took
        assert json.loads(lines[0]) == {"config": {"seed": 11, "max_steps": 6, "budget": 128}}
        assert [json.loads(line) for line in lines[1:]] == [s.to_json() for s in linear_run.states]

    def test_step_flags_vacuous_competition(self, cover):
        f0 = hlinear_field(HLinearMap(0.5, E1))
        state0 = IterationState(
            m=0, accum=np.zeros(2), x=np.zeros(3), direction=E1,
            sigma=2.0, t=0.25, delta=1.0, e_value=0.5,
        )
        rng = np.random.default_rng(0)
        nxt = step(state0, f0, MaximizerConfig(budget=16, seed=0), cover, rng)
        assert nxt.m == 1
        assert nxt.e_value > state0.e_value


def _candidate_points_per_line(cover, center, radius, rng, count):
    """Reference: one draw and one distance filter per cover line."""
    pts = [center]
    per_line = max(3, count // max(len(cover.lines), 1))
    p_center = project(center)
    for base, vec, (t0, t1) in zip(cover._bases, cover._vecs, cover.spans):
        h = vec[:-1]
        h2 = float(h @ h)
        t_near = float((p_center - base[:-1]) @ h) / h2
        half = 2.0 * radius / math.sqrt(h2)
        lo = max(t0, t_near - half)
        hi = min(t1, t_near + half)
        if lo >= hi:
            continue
        ts = rng.uniform(lo, hi, per_line)
        cand = base + ts[:, None] * vec
        keep = cc_upper_quick(group_mul(group_inv(center), cand)) < radius
        if np.any(keep):
            pts.append(cand[keep])
    pool = np.vstack([np.atleast_2d(p) for p in pts])
    if len(pool) > count:
        idx = rng.choice(len(pool) - 1, size=count - 1, replace=False) + 1
        pool = np.vstack([pool[:1], pool[idx]])
    return pool


@pytest.mark.parametrize("n", [1, 2])
def test_candidate_points_equal_the_per_line_loop(n):
    cover = Cover.build(n=n, height=2, depth=4, max_lines=64)
    rng = np.random.default_rng(n)
    for trial in range(40):
        center = cover._bases[trial % 64] + rng.uniform(-1, 1) * cover._vecs[trial % 64]
        center = center + rng.normal(scale=10.0 ** rng.uniform(-6, 0), size=center.shape)
        radius = 10.0 ** rng.uniform(-4, 0.5)
        count = int(rng.integers(4, 400))
        ours, ref = np.random.default_rng(trial), np.random.default_rng(trial)
        got = _candidate_points(cover, center, radius, ours, count)
        want = _candidate_points_per_line(cover, center, radius, ref, count)
        assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state
    # a ball that meets no line keeps only its centre
    far, ours, ref = np.full(2 * n + 1, 50.0), np.random.default_rng(0), np.random.default_rng(0)
    assert _candidate_points(cover, far, 1e-3, ours, 16).tolist() == [far.tolist()]
    assert _candidate_points_per_line(cover, far, 1e-3, ref, 16).tolist() == [far.tolist()]
    assert ours.bit_generator.state == ref.bit_generator.state


def test_step_computes_tube_distances_at_most_once(cover, monkeypatch):
    calls = []
    original = Cover.upper_distances

    def counting(self, pts, needed, **kw):
        calls.append(len(np.atleast_2d(pts)))
        return original(self, pts, needed, **kw)

    monkeypatch.setattr(Cover, "upper_distances", counting)
    f0 = hlinear_field(HLinearMap(0.5, E1))
    for seed in range(4):
        cfg = MaximizerConfig(seed=seed, max_steps=5, budget=128)
        state = IterationState(m=0, accum=np.zeros(2), x=np.zeros(3), direction=E1,
                               sigma=2.0, t=0.25, delta=1.0, e_value=0.5)
        rng = np.random.default_rng(seed)
        for _ in range(cfg.max_steps):
            calls.clear()
            state = step(state, f0, cfg, cover, rng)
            assert calls in ([], [1])
