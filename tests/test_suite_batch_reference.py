"""The batched suites against their per-trial loops.

``_ref_newcurveg``, ``_ref_welldefined``, ``_ref_lipschitzhorizontal`` and
``_ref_closedirection`` keep the loops that build one path per trial, and
``_ref_horizontaldistances`` the loop that brackets one pair per trial.  The
last three draw their trials as the suites do, as arrays, and then check
them one at a time.  The batched suites must report the same failures, the
same worst margin to the bit and the same details.
"""

import math

import numpy as np
import pytest

from hcalc import calculus, curves, group, metric, suites, uds
from hcalc.suites import RunConfig, run_suite


def _ref_welldefined(cfg, seed, ledger):
    rng = np.random.default_rng(seed)
    trials = cfg.count(120)
    coarse_gap_max = 0.0
    for n in cfg.n_values:
        for _ in range(trials // len(cfg.n_values)):
            x = rng.standard_normal(2 * n + 1)
            e = rng.standard_normal(2 * n)
            e /= np.linalg.norm(e)
            eta = 10.0 ** rng.uniform(-1, 0)
            delta = 0.5 * curves.delta_cap(eta) * 10.0 ** rng.uniform(-2, 0)
            r = delta * float(rng.uniform(0.05, 0.5))
            u = 0.3 * rng.standard_normal(2 * n + 1)
            du = float(metric.cc_upper_quick(u))
            if du > 1.0:
                u = group.dilate(1.0 / (2.0 * du), u)
                du = float(metric.cc_upper_quick(u))
            params = curves.ModifyLineParams(x=x, u=u, direction=e, r=r, delta=delta, eta=eta, cc_bound_of_u=du)
            span = max(2.0 * params.s, params.s + 0.5)
            detour, _ = curves.modify_line(params, span=span)
            line = curves.HorizontalPath(*curves._line_knots(x, e, -span, span))
            at = -(params.s + float(rng.uniform(0.002, 0.01)))
            fld = calculus.koranyi_gauge_field(x + np.concatenate([np.ones(2 * n), [0.5]]))
            one_line = curves.PathBatch(line.knots[None], line._vertices[None])
            rep = calculus.curve_directional_consistency_batch(
                fld, one_line, curves.PathBatch(detour.knots[None], detour._vertices[None]), np.array([at]))
            ledger.count(not rep["consistent"][0])
            ledger.margin(rep["error_budget"][0] * 4.0 + 1e-12 - rep["gap"][0])
            coarse = abs(float(fld(line.eval(at + 0.015))) - float(fld(detour.eval(at + 0.015))))
            coarse_gap_max = max(coarse_gap_max, coarse)
            shifted = curves.HorizontalPath(line.knots + 0.0, line.planar, line.c0)
            rep2 = calculus.curve_directional_consistency_batch(
                fld, one_line, curves.PathBatch(shifted.knots[None], shifted._vertices[None]), np.array([at]))
            ledger.count(not rep2["consistent"][0] or rep2["gap"][0] > 1e-12)
    return trials, {"max_coarse_disagreement": coarse_gap_max}


def _ref_newcurveg(cfg, seed, ledger):
    trials = cfg.count(1000)
    c_m_per_seed = []
    for rep_i in range(3):
        rng = np.random.default_rng(seed + rep_i)
        c_m = 1.0
        for _ in range(trials // 3):
            n = int(rng.choice(cfg.n_values))
            x = rng.standard_normal(2 * n + 1)
            u = 0.3 * rng.standard_normal(2 * n + 1)
            du = float(metric.cc_upper_quick(u))
            if du > 1.0:
                continue
            e = rng.standard_normal(2 * n)
            e /= np.linalg.norm(e)
            eta = 10.0 ** rng.uniform(-2, 0)
            delta = curves.delta_cap(eta) * 10.0 ** rng.uniform(-4, -0.05)
            r = delta * float(rng.uniform(0.01, 0.99))
            params = curves.ModifyLineParams(x=x, u=u, direction=e, r=r, delta=delta, eta=eta, cc_bound_of_u=du)
            path, zeta = curves.modify_line(params)
            s = params.s
            scale = 1.0 + float(np.max(np.abs(path.planar)))
            tt = np.array([-1.5 * s, 1.5 * s, -s, s])
            err = np.max(np.abs(path.eval(tt) - group.group_mul(x, group.horizontal_point(tt[:, None] * e))), axis=1)
            ledger.check(1e-9 * scale - err)
            target = group.group_mul(x, group.dilate(r, u))
            err = float(np.max(np.abs(path.eval(zeta) - target)))
            ledger.check(1e-9 * scale - err)
            lip = curves.lipschitz_constant(path)
            ledger.check(1.0 + eta * delta - lip)
            vels = np.diff(path.planar, axis=0) / np.diff(path.knots)[:, None]
            dev = float(np.max(np.linalg.norm(vels - e, axis=1)))
            ledger.count(dev > 184.0 * delta)
            c_m = max(c_m, dev / delta)
        c_m_per_seed.append(c_m)
    spread = (max(c_m_per_seed) - min(c_m_per_seed)) / max(c_m_per_seed)
    ledger.check(0.10 - spread)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        params = curves.ModifyLineParams(
            x=np.array([1.0, *([0.0] * 1), 0.5]),
            u=np.array([0.25, 0.5, 0.125]),
            direction=np.array([1.0, 0.0]),
            r=2.0 ** -int(rng.integers(13, 16)),
            delta=2.0 ** -11,
            eta=1.0,
        )
        path, _ = curves.modify_line(params, rational=True)
        cover = uds.Cover.build(n=1, height=2, depth=12, max_lines=48, extra_lines=uds.lines_of_path(path))
        ledger.count(not cover.curve_in_cover(path, cover.depth))
    eta_probe = 0.5
    cap = curves.delta_cap(eta_probe)
    largest_factor = 0.0
    rng = np.random.default_rng(seed + 7)
    for factor in (1.0, 4.0, 16.0, 64.0, 256.0):
        held = True
        for _ in range(40):
            delta = cap * factor * 0.99
            r = delta * float(rng.uniform(0.05, 0.9))
            u = 0.2 * rng.standard_normal(3)
            e = rng.standard_normal(2)
            e /= np.linalg.norm(e)
            # the modified line with no cap on delta, a probe with no admissibility guarantee
            probe = curves.HorizontalPath(*curves._modified_line_knots(
                rng.standard_normal(3), u, e, r, r / delta, float(r * np.dot(u[:-1], e)), 2.0 * (r / delta)))
            if curves.lipschitz_constant(probe) > 1.0 + eta_probe * delta:
                held = False
                break
        if not held:
            break
        largest_factor = factor
    return trials, {
        "c_modify_per_seed": c_m_per_seed,
        "c_modify": max(c_m_per_seed),
        "speed_post_holds_to_cap_factor": largest_factor,
    }


def _ref_horizontaldistances(cfg, seed, ledger):
    rng = np.random.default_rng(seed)
    trials = cfg.count(1000)
    tol = 1e-9
    for n in cfg.n_values:
        m = trials // len(cfg.n_values)
        xs, es = 2.0 * rng.standard_normal((m, 2 * n + 1)), rng.standard_normal((m, 2 * n))
        for x, e, t in zip(xs, es, rng.uniform(-2.0, 2.0, m)):
            y = x + t * group.vector_at(e, x)
            lower = float(metric.cc_lower_batch(x[None], y[None])[0])
            upper = metric.cc_upper_value_batch(group.group_mul(group.group_inv(x), y)[None])[0]
            target = abs(t) * float(np.linalg.norm(e, axis=-1))
            err = max(abs(lower - target), abs(upper - target))
            ledger.check(tol - err)
    return trials, {"tol": tol}


def _ref_lipschitzhorizontal(cfg, seed, ledger):
    rng = np.random.default_rng(seed)
    trials = cfg.count(200)
    for n in cfg.n_values:
        knot_counts = rng.integers(3, 8, trials // len(cfg.n_values))
        for k in range(3, 8):
            m = np.count_nonzero(knot_counts == k)
            if not m:
                continue
            drawn = (rng.standard_normal((m, k, 2 * n)), rng.standard_normal(m), rng.random((m, 12)),
                     2.0 * rng.standard_normal((m, 2 * n + 1)))
            for steps, c0, u, g in zip(*drawn):
                planar = np.cumsum(steps, axis=0)
                path = curves.lift_planar(planar, np.concatenate([planar[0], [c0]]))
                lip = curves.lipschitz_constant(path)
                ts = np.sort(path.t_min + (path.t_max - path.t_min) * u)
                pts = path.eval(ts)
                gaps = np.diff(ts)
                apart = gaps > 1e-12
                lo = metric.cc_lower_batch(pts[:-1][apart], pts[1:][apart])
                ledger.check(lip * gaps[apart] * (1.0 + 1e-9) + 1e-12 - lo)
                speeds = path.segment_speeds()
                j = int(np.argmax(speeds))
                ta = path.knots[j] + 0.25 * (path.knots[j + 1] - path.knots[j])
                tb = path.knots[j] + 0.75 * (path.knots[j + 1] - path.knots[j])
                attain = float(metric.cc_lower_batch(path.eval(ta)[None], path.eval(tb)[None])[0]) / (tb - ta)
                ledger.check(attain - lip * (1.0 - 1e-9))
                moved = path.left_translate(g)
                dlen = abs(curves.horizontal_length(moved) - curves.horizontal_length(path))
                dlip = abs(curves.lipschitz_constant(moved) - lip)
                err = max(dlen, dlip) / (1.0 + lip)
                ledger.check(1e-12 - err)
    return trials, {}


def _ref_angle_fit(trials, seed, n=1):
    rng = np.random.default_rng(seed)
    ts = np.linspace(-1.0, 1.0, 33)
    ts = ts[ts != 0.0]
    amps = 10.0 ** rng.uniform(-4, 0, trials)
    h_dirs = group.random_directions(rng, trials, n)
    perts = rng.standard_normal((trials, 2 * n))
    rel, scales = [], []
    for A, h_dir, pert in zip(amps, h_dirs, perts):
        pert = pert - (pert @ h_dir) * h_dir
        norm = np.linalg.norm(pert, axis=-1)
        if norm == 0.0:
            continue
        g_dir = h_dir + A * pert / norm
        g_dir /= np.linalg.norm(g_dir, axis=-1)
        offset = float(np.linalg.norm(g_dir - h_dir, axis=-1))
        if offset == 0.0:
            continue
        ga = ts[:, None] * group.horizontal_point(g_dir)
        ha = ts[:, None] * group.horizontal_point(h_dir)
        rel.append(group.group_mul(group.group_inv(ga), ha))
        scales.append(math.sqrt(min(offset, 1.0)) * np.abs(ts))
    c_fit = 1.0
    if rel:
        ups = metric.cc_upper_value_batch(np.concatenate(rel)).reshape(len(rel), len(ts))
        c_fit = max(c_fit, float(np.max(ups / np.stack(scales))))
    return c_fit


def _ref_closedirection(cfg, seed, ledger):
    trials = cfg.count(1000)
    fits = [_ref_angle_fit(trials // 3, seed + rep_i, n=cfg.n_values[0]) for rep_i in range(3)]
    c_a = max(fits)
    spread = (max(fits) - min(fits)) / max(fits)
    ledger.check(0.10 - spread)
    rng = np.random.default_rng(seed + 99)
    n = cfg.n_values[0]
    k = 6
    amps = 10.0 ** rng.uniform(-3, 0, 100)
    es = group.random_directions(rng, 100, n)
    perts, amp = rng.standard_normal((100, k, 2 * n)), rng.uniform(0.0, 1.0, (100, k, 1))
    times = rng.uniform(0.05, 1.0, (100, 8))
    knots = np.linspace(0.0, 1.0, k + 1)
    rel = []
    for A, e, pert, a, tts in zip(amps, es, perts, amp, times):
        pert = pert / np.linalg.norm(pert, axis=1, keepdims=True)
        vels = e[None, :] + A * a * pert
        planar_g = np.vstack([np.zeros(2 * n), np.cumsum(vels * np.diff(knots)[:, None], axis=0)])
        g = curves.HorizontalPath(knots, planar_g, 0.0)
        h = curves.HorizontalPath(*curves._line_knots(np.zeros(2 * n + 1), e, 0.0, 1.0))
        rel.append(group.group_mul(group.group_inv(g.eval(tts)), h.eval(tts)))
    ups = metric.cc_upper_value_batch(np.concatenate(rel)).reshape(len(rel), -1)
    margins = (c_a * np.sqrt(amps))[:, None] * times - ups
    ledger.count(np.count_nonzero(margins < -1e-9))
    ledger.margin(margins)
    return trials, {"c_angle_per_seed": fits, "c_angle": c_a}


REFERENCES = {
    "closedirection": _ref_closedirection,
    "horizontaldistances": _ref_horizontaldistances,
    "lipschitzhorizontal": _ref_lipschitzhorizontal,
    "newcurveg": _ref_newcurveg,
    "welldefined": _ref_welldefined,
}


def _summary(result):
    return result.trials, result.failures, float(result.worst_margin).hex(), result.details


def _assert_same(monkeypatch, name, cfg, seed):
    got = run_suite(name, cfg, seed=seed)
    with monkeypatch.context() as patch:
        patch.setitem(suites.SUITES, name, REFERENCES[name])
        want = run_suite(name, cfg, seed=seed)
    assert _summary(got) == _summary(want)


@pytest.mark.parametrize("name", sorted(REFERENCES))
@pytest.mark.parametrize("seed", range(16))
def test_batched_suite_is_the_per_trial_loop(monkeypatch, name, seed):
    _assert_same(monkeypatch, name, RunConfig(), seed)


@pytest.mark.parametrize("name", sorted(REFERENCES))
@pytest.mark.parametrize("cfg", [RunConfig(trials=t) for t in (1, 2, 3, 4)] + [RunConfig(n_values=(1, 2, 3))],
                         ids=["trials1", "trials2", "trials3", "trials4", "n123"])
def test_batched_suite_is_the_per_trial_loop_at_other_configs(monkeypatch, name, cfg):
    for seed in (0, 5):
        _assert_same(monkeypatch, name, cfg, seed)


def _every_margin(monkeypatch, name, cfg, seed, suite):
    """Every margin entry the suite states to its ledger, sorted."""
    seen = []
    record = suites._Ledger.margin

    def margin(self, value):
        seen.append(np.ravel(np.asarray(value, dtype=float)))
        record(self, value)

    with monkeypatch.context() as patch:
        patch.setattr(suites._Ledger, "margin", margin)
        patch.setitem(suites.SUITES, name, suite)
        run_suite(name, cfg, seed=seed)
    return np.sort(np.concatenate(seen))


@pytest.mark.parametrize("name", sorted(REFERENCES))
@pytest.mark.parametrize("seed", [0, 3])
def test_batched_suite_checks_every_margin_of_the_per_trial_loop(monkeypatch, name, seed):
    # the worst margin shows only the binding check; every entry must match
    cfg = RunConfig(n_values=(1, 2, 3))
    got = _every_margin(monkeypatch, name, cfg, seed, suites.SUITES[name])
    want = _every_margin(monkeypatch, name, cfg, seed, REFERENCES[name])
    assert got.tobytes() == want.tobytes()


def _random_modifications(rng, m, n):
    x = rng.standard_normal((m, 2 * n + 1))
    u = 0.3 * rng.standard_normal((m, 2 * n + 1))
    e = rng.standard_normal((m, 2 * n))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    eta = 10.0 ** rng.uniform(-2, 0, m)
    delta = curves.delta_cap(eta) * 10.0 ** rng.uniform(-4, -0.05, m)
    r = delta * rng.uniform(0.01, 0.99, m)
    return x, u, e, eta, delta, r


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_knots_are_the_one_row_calls(n):
    rng = np.random.default_rng(60 + n)
    x, u, e, eta, delta, r = _random_modifications(rng, 300, n)
    s = r / delta
    zeta = r * np.vecdot(u[:, :-1], e)
    span = s * rng.uniform(1.5, 3.0, len(s))
    knots, rows, c0 = curves._modified_line_knots(x, u, e, r, s, zeta, span)
    assert knots.shape == (300, 7) and rows.shape == (300, 7, 2 * n) and c0.shape == (300,)
    for i in range(len(x)):
        k1, r1, c1 = curves._modified_line_knots(x[i], u[i], e[i], float(r[i]), float(s[i]), float(zeta[i]), float(span[i]))
        assert k1.tobytes() == knots[i].tobytes()
        assert r1.tobytes() == rows[i].tobytes()
        assert np.float64(c1).tobytes() == c0[i].tobytes()
    # the suites' batch against the public one-path construction
    batch = curves._modified_line_batch(x, u, e, r, delta, zeta, eta=eta, cc_bound_of_u=np.full(300, 0.5))
    for i in range(0, 300, 7):
        params = curves.ModifyLineParams(x=x[i], u=u[i], direction=e[i], r=r[i], delta=delta[i], eta=eta[i], cc_bound_of_u=0.5)
        path, z = curves.modify_line(params)
        assert z == zeta[i]
        assert path.knots.tobytes() == batch.knots[i].tobytes()
        assert path._vertices.tobytes() == batch.vertices[i].tobytes()
        t = rng.uniform(path.t_min, path.t_max, 5)
        assert path.eval(t).tobytes() == batch.eval(np.broadcast_to(t, (300, 5)))[i].tobytes()


def _one_bad_row(**bad):
    """Three admissible modifications with row 1 replaced by ``bad``; returns batch and row-1 inputs."""
    rng = np.random.default_rng(3)
    x, u, e, eta, delta, r = _random_modifications(rng, 3, 1)
    du = np.full(3, 0.5)
    rows = {"x": x, "u": u, "direction": e, "r": r, "delta": delta, "eta": eta, "cc_bound_of_u": du}
    for key, value in bad.items():
        rows[key][1] = value
    return rows, {key: v[1] for key, v in rows.items()}


@pytest.mark.parametrize("bad, message", [
    ({"direction": [0.6, 0.6]}, "not unit-normalized"),
    ({"r": 1.0}, "need 0 < r < delta"),
    ({"eta": 0.1, "delta": 0.1 / curves.MODIFY_DELTA_DIVISOR, "r": 1e-5}, "delta must be below 6.13e-05"),
    ({"cc_bound_of_u": math.nan}, "got nan"),
    # p(u) = -E / delta, so the left chord s E + r p(u) is zero
    ({"x": [0.0, 0.0, 0.0], "u": [-4096.0, 0.0, 0.0], "direction": [1.0, 0.0], "r": 2.0**-13, "delta": 2.0**-12, "eta": 1.0},
     "zero projection"),
], ids=["non-unit", "r-at-delta", "delta-at-cap", "nan-bound", "zero-chord"])
def test_a_bad_row_raises_its_per_trial_message(bad, message):
    rows, one = _one_bad_row(**bad)
    with pytest.raises(ValueError) as per_trial:
        curves.modify_line(curves.ModifyLineParams(**one))
    zeta = rows["r"] * np.vecdot(rows["u"][:, :-1], rows["direction"])
    with pytest.raises(ValueError) as batched:
        curves._modified_line_batch(rows["x"], rows["u"], rows["direction"], rows["r"], rows["delta"], zeta,
                                    eta=rows["eta"], cc_bound_of_u=rows["cc_bound_of_u"])
    assert message in str(per_trial.value)
    assert str(batched.value) == str(per_trial.value)


def test_batched_consistency_is_the_one_column_calls():
    # column 2 sits near its domain's end and keeps only the fine steps
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3))
    e = rng.standard_normal((4, 2))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    span = np.array([1.0, 0.7, 0.5, 2.0])
    at = np.array([0.1, -0.3, 0.5 - 2.0**-9, 0.0])
    lines = [curves.HorizontalPath(*curves._line_knots(x[i], e[i], -span[i], span[i])) for i in range(4)]
    shifted = [curves.HorizontalPath(p.knots + 0.0, p.planar, p.c0) for p in lines]
    centres = x + 0.75
    batch = calculus.curve_directional_consistency_batch(
        calculus.koranyi_gauge_field(centres),
        curves.PathBatch.lift(*curves._line_knots(x, e, -span, span)),
        curves.PathBatch(np.stack([p.knots for p in shifted]), np.stack([p._vertices for p in shifted])),
        at,
    )
    for i in range(4):
        one = calculus.curve_directional_consistency_batch(
            calculus.koranyi_gauge_field(centres[i]), curves.PathBatch(lines[i].knots[None], lines[i]._vertices[None]),
            curves.PathBatch(shifted[i].knots[None], shifted[i]._vertices[None]), at[i : i + 1])
        assert one.keys() == batch.keys()
        for key, value in one.items():
            assert value.tobytes() == batch[key][i : i + 1].tobytes()
