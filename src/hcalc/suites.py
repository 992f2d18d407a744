"""Registered verification suites and machine-readable reports.

Each suite stresses one quantitative statement at configurable trial
counts and reports a :class:`SuiteResult`: trial count, failure count,
the worst margin observed (positive means the checked inequality held
with room to spare) and enough detail to plot.  All randomness flows from
the suite seed through a single generator, so results are reproducible
and independent of scheduling.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import time
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import calculus, curves, group, maximizer, metric, uds

__all__ = ["RunConfig", "SuiteResult", "SUITES", "run_suite", "emit_report"]


@dataclass
class RunConfig:
    """Harness configuration; JSON round-trippable, env-overridable.

    Environment variables prefixed ``HCALC_`` override scalar fields, e.g.
    ``HCALC_SEED=7`` or ``HCALC_TRIALS=100``.
    """

    schema_version: int = 1
    n_values: tuple = (1, 2)
    seed: int = 20250808
    trials: Optional[int] = None  # scales each suite's default trial count
    jobs: int = 1
    uds_height: int = 8
    uds_depth: int = 12
    uds_max_lines: int = 96
    uds_clip: float = 10.0
    mc_samples: int = 100_000
    max_budget: int = 512
    max_steps: int = 10
    mu: float = 0.5
    K: float = 8.0
    out_dir: str = "."

    def __post_init__(self):
        self.n_values = tuple(int(v) for v in self.n_values)
        if not self.n_values or any(v < 1 for v in self.n_values):
            raise ValueError("n_values must be positive dimensions")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def to_json(self) -> dict:
        data = dataclasses.asdict(self)
        data["n_values"] = list(self.n_values)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        if data.get("schema_version", 1) != 1:
            raise ValueError(f"unsupported config schema version {data.get('schema_version')}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            return cls.from_json(json.load(fh)).with_env_overrides()

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)

    def with_env_overrides(self) -> "RunConfig":
        data = self.to_json()
        casts = {f.name: f.type for f in dataclasses.fields(self)}
        for name in casts:
            env = os.environ.get("HCALC_" + name.upper())
            if env is None:
                continue
            if name == "n_values":
                data[name] = [int(v) for v in env.split(",")]
            elif name == "trials":
                data[name] = int(env)
            elif isinstance(data[name], int) or data[name] is None:
                data[name] = int(env)
            elif isinstance(data[name], float):
                data[name] = float(env)
            else:
                data[name] = env
        return RunConfig.from_json(data)

    def count(self, default: int) -> int:
        return self.trials if self.trials is not None else default


@dataclass
class SuiteResult:
    """Outcome of one suite: pass iff ``failures`` is zero."""

    suite: str
    trials: int
    failures: int
    worst_margin: float
    seed: int
    wall_time_s: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failures == 0 and math.isfinite(self.worst_margin)

    def to_json(self, include_wall_time: bool = True) -> dict:
        data = {
            "suite": self.suite,
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "passed": self.passed,
            "details": self.details,
        }
        if include_wall_time:
            data["wall_time_s"] = self.wall_time_s
        return data


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _margin_update(worst: float, margin: float) -> float:
    return min(worst, float(margin))


# ---------------------------------------------------------------------------
# group arithmetic


def suite_group(cfg: RunConfig, seed: int) -> SuiteResult:
    """Group axioms, dilations, gauge invariance and the line-translation identity."""
    t0 = time.perf_counter()
    trials = cfg.count(10_000)
    rng = _rng(seed)
    tol = 1e-10
    failures = 0
    worst = math.inf
    for n in cfg.n_values:
        m = trials // len(cfg.n_values)
        x = group.random_points(rng, m, n, scale=2.0)
        y = group.random_points(rng, m, n, scale=2.0)
        z = group.random_points(rng, m, n, scale=2.0)
        scale = 1.0 + np.max(np.abs(np.stack([x, y, z])), axis=(0, 2))

        def rel(a, b):
            return np.max(np.abs(a - b), axis=-1) / scale

        checks = [
            rel(group.group_mul(group.group_mul(x, y), z), group.group_mul(x, group.group_mul(y, z))),
            rel(group.group_mul(x, group.group_inv(x)), np.zeros_like(x)),
            rel(group.group_mul(x, np.zeros_like(x)), x),
        ]
        r, s = rng.uniform(0.2, 3.0, m), rng.uniform(0.2, 3.0, m)
        checks.append(rel(group.dilate(r, group.dilate(s, x)), group.dilate(r * s, x)))
        e = group.random_directions(rng, m, n)
        t = rng.uniform(-2.0, 2.0, m)
        lhs = group.group_mul(x, t[:, None] * group.horizontal_point(e))
        rhs = x + t[:, None] * group.vector_at(e, x)
        checks.append(rel(lhs, rhs))
        checks.append(np.max(np.abs(group.project(group.group_mul(x, y)) - group.project(x) - group.project(y)), axis=-1) / scale)
        g = group.random_points(rng, m, n, scale=2.0)
        checks.append(np.abs(group.koranyi_dist(group.group_mul(g, x), group.group_mul(g, y)) - group.koranyi_dist(x, y)) / scale)
        w = group.random_directions(rng, m, n)
        L = [group.HLinearMap(1.0, wi) for wi in w[:50]]
        for Li in L:
            add = np.abs(Li(group.group_mul(x[:50], y[:50])) - Li(x[:50]) - Li(y[:50])) / scale[:50]
            hom = np.abs(Li(group.dilate(r[:50], x[:50])) - r[:50] * Li(x[:50])) / scale[:50]
            checks.extend([add, hom])
        for c in checks:
            failures += int(np.sum(c > tol))
            worst = _margin_update(worst, tol - float(np.max(c)))
    return SuiteResult("group", trials, failures, worst, seed, time.perf_counter() - t0, {"tol": tol})


# ---------------------------------------------------------------------------
# lifting


def suite_lift(cfg: RunConfig, seed: int) -> SuiteResult:
    """Horizontality of constructed paths and closed-form lift exactness."""
    t0 = time.perf_counter()
    rng = _rng(seed)
    failures = 0
    worst = math.inf
    details = {}
    # finite-difference residual of the lift identity on random polylines
    samples = cfg.count(1000)
    tol_fd = 1e-6
    res_max = 0.0
    for n in cfg.n_values:
        for _ in range(6):
            k = int(rng.integers(4, 12))
            planar = np.cumsum(rng.standard_normal((k, 2 * n)), axis=0)
            base = np.concatenate([planar[0], [rng.standard_normal()]])
            path = curves.lift_planar(planar, base)
            span = path.t_max - path.t_min
            ts = rng.uniform(path.t_min + 0.01 * span, path.t_max - 0.01 * span, samples // 12)
            h = 1e-7 * span
            up, down, mid = path.eval(ts + h), path.eval(ts - h), path.eval(ts)
            fd = (up[:, -1] - down[:, -1]) / (2 * h)
            v = (up[:, :-1] - down[:, :-1]) / (2 * h)
            a, b = mid[:, :n], mid[:, n : 2 * n]
            expected = 2.0 * (np.sum(v[:, :n] * b, axis=1) - np.sum(v[:, n:] * a, axis=1))
            sc = 1.0 + np.max(np.abs(mid), axis=1) ** 2
            res = np.abs(fd - expected) / sc
            res_max = max(res_max, float(np.max(res)))
            failures += int(np.sum(res > tol_fd))
    worst = _margin_update(worst, tol_fd - res_max)
    details["fd_residual_max"] = res_max
    # straight segment lifts flat
    seg = curves.lift_planar(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros(3))
    flat = abs(float(seg.end()[-1]))
    failures += int(flat > 1e-12)
    worst = _margin_update(worst, 1e-12 - flat)
    # unit circle at 10^4 segments closes on -4*pi
    m = 10_000
    th = np.linspace(0.0, 2.0 * math.pi, m + 1)
    circle = np.stack([np.cos(th), np.sin(th)], axis=1)
    lifted = curves.lift_planar(circle, np.array([1.0, 0.0, 0.0]))
    err = abs(float(lifted.end()[-1]) + 4.0 * math.pi)
    failures += int(err > 1e-6)
    worst = _margin_update(worst, 1e-6 - err)
    details["circle_error"] = err
    # duplicated vertex keeps the endpoint at the base
    still = curves.lift_planar(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5, 0.25]))
    drift = float(np.max(np.abs(still.end() - np.array([0.5, 0.5, 0.25]))))
    failures += int(drift > 1e-12)
    worst = _margin_update(worst, 1e-12 - drift)
    return SuiteResult("lift", samples, failures, worst, seed, time.perf_counter() - t0, details)


# ---------------------------------------------------------------------------
# distances along horizontal lines


def suite_horizontaldistances(cfg: RunConfig, seed: int) -> SuiteResult:
    """Distance brackets collapse to |t| omega(E) along horizontal lines."""
    t0 = time.perf_counter()
    rng = _rng(seed)
    trials = cfg.count(1000)
    tol = 1e-9
    failures = 0
    worst = math.inf
    for n in cfg.n_values:
        for _ in range(trials // len(cfg.n_values)):
            x = 2.0 * rng.standard_normal(2 * n + 1)
            e = rng.standard_normal(2 * n)
            w = float(np.linalg.norm(e))
            t = float(rng.uniform(-2.0, 2.0))
            y = x + t * group.vector_at(e, x)
            b = metric.cc_bounds(x, y)
            target = abs(t) * w
            err = max(abs(b.lower - target), abs(b.upper - target))
            failures += int(err > tol)
            worst = _margin_update(worst, tol - err)
    return SuiteResult("horizontaldistances", trials, failures, worst, seed, time.perf_counter() - t0, {"tol": tol})


# ---------------------------------------------------------------------------
# Lipschitz constants of horizontal curves


def suite_lipschitzhorizontal(cfg: RunConfig, seed: int) -> SuiteResult:
    """Curve speed equals projected speed: brackets below, attained on segments."""
    t0 = time.perf_counter()
    rng = _rng(seed)
    trials = cfg.count(200)
    failures = 0
    worst = math.inf
    for n in cfg.n_values:
        for _ in range(trials // len(cfg.n_values)):
            k = int(rng.integers(3, 8))
            planar = np.cumsum(rng.standard_normal((k, 2 * n)), axis=0)
            base = np.concatenate([planar[0], [rng.standard_normal()]])
            path = curves.lift_planar(planar, base)
            lip = curves.lipschitz_constant(path)
            ts = np.sort(rng.uniform(path.t_min, path.t_max, 12))
            pts = path.eval(ts)
            for i in range(len(ts) - 1):
                gap = ts[i + 1] - ts[i]
                if gap <= 1e-12:
                    continue
                lo = metric.cc_lower(pts[i], pts[i + 1])
                margin = lip * gap * (1.0 + 1e-9) + 1e-12 - lo
                failures += int(margin < 0)
                worst = _margin_update(worst, margin)
            # the max-speed segment attains the constant
            speeds = path.segment_speeds()
            j = int(np.argmax(speeds))
            ta = path.knots[j] + 0.25 * (path.knots[j + 1] - path.knots[j])
            tb = path.knots[j] + 0.75 * (path.knots[j + 1] - path.knots[j])
            b = metric.cc_bounds(path.eval(ta), path.eval(tb))
            attain = b.lower / (tb - ta)
            margin = attain - lip * (1.0 - 1e-9)
            failures += int(margin < 0)
            worst = _margin_update(worst, margin)
            # left translation preserves length and speed
            g = 2.0 * rng.standard_normal(2 * n + 1)
            moved = path.left_translate(g)
            dlen = abs(curves.horizontal_length(moved) - curves.horizontal_length(path))
            dlip = abs(curves.lipschitz_constant(moved) - lip)
            err = max(dlen, dlip) / (1.0 + lip)
            failures += int(err > 1e-12)
            worst = _margin_update(worst, 1e-12 - err)
    return SuiteResult("lipschitzhorizontal", trials, failures, worst, seed, time.perf_counter() - t0, {})


# ---------------------------------------------------------------------------
# derivative independence of the realizing curve


def suite_welldefined(cfg: RunConfig, seed: int) -> SuiteResult:
    """Composed derivatives agree for curves sharing a point and derivative.

    Pairs a straight line with a detour that splits off just inside the
    comparison window: coarse difference quotients disagree, the
    extrapolated derivatives agree.
    """
    t0 = time.perf_counter()
    rng = _rng(seed)
    trials = cfg.count(120)
    failures = 0
    worst = math.inf
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
            line = curves.line_path(x, e, -span, span)
            # just outside the detour: coarse quotient levels straddle the
            # junction knot, fine levels see only the shared straight germ
            at = -(params.s + float(rng.uniform(0.002, 0.01)))
            fld = calculus.koranyi_gauge_field(x + np.concatenate([np.ones(2 * n), [0.5]]))
            rep = calculus.curve_directional_consistency(fld, line, detour, at=at)
            failures += int(not rep["consistent"])
            worst = _margin_update(worst, rep["error_budget"] * 4.0 + 1e-12 - rep["gap"])
            coarse = abs(float(fld(line.eval(at + 0.015))) - float(fld(detour.eval(at + 0.015))))
            coarse_gap_max = max(coarse_gap_max, coarse)
            # same germ, affinely shifted domain
            shifted = curves.HorizontalPath(line.knots + 0.0, line.planar, line.c0)
            rep2 = calculus.curve_directional_consistency(fld, line, shifted, at=at)
            failures += int(not rep2["consistent"] or rep2["gap"] > 1e-12)
    return SuiteResult(
        "welldefined", trials, failures, worst, seed, time.perf_counter() - t0,
        {"max_coarse_disagreement": coarse_gap_max},
    )


# ---------------------------------------------------------------------------
# Lipschitz constant equals the directional-derivative supremum


def suite_lipismaximal(cfg: RunConfig, seed: int) -> SuiteResult:
    t0 = time.perf_counter()
    rng = _rng(seed)
    trials = cfg.count(10_000)
    failures = 0
    worst = math.inf
    details = {}
    n = cfg.n_values[0]
    ball = metric.Ball(np.zeros(2 * n + 1), 1.5)
    # unit homomorphism: both estimators converge to 1
    e = group.random_directions(rng, 1, n)[0]
    f_lin = calculus.hlinear_field(group.HLinearMap(1.0, e))
    rep = calculus.lipschitz_estimate(f_lin, ball, trials, max(200, trials // 20), seed=seed + 1)
    for key, lo, hi in (("pair_sup", 0.95, 1.0 + 1e-9), ("dir_sup", 0.99, 1.0 + 1e-6)):
        v = rep[key]
        failures += int(not (lo <= v <= hi))
        worst = _margin_update(worst, min(v - lo, hi - v))
    details["hlinear"] = rep
    # declared bounds are never exceeded by sampled directional derivatives
    lattice = calculus.lattice_max(
        calculus.hlinear_field(group.HLinearMap(0.7, e)),
        calculus.hlinear_field(group.HLinearMap(0.4, group.random_directions(rng, 1, n)[0])),
    )
    rep2 = calculus.lipschitz_estimate(lattice, ball, trials // 2, 200, seed=seed + 2)
    cap = lattice.declared_lip * (1.0 + 1e-6)
    failures += int(rep2["dir_sup"] > cap)
    worst = _margin_update(worst, cap - rep2["dir_sup"])
    details["lattice"] = rep2
    # gauge distance away from its singular point: the two estimators agree
    off = np.zeros(2 * n + 1)
    off[0] = 3.0
    rep3 = calculus.lipschitz_estimate(calculus.koranyi_gauge_field(), metric.Ball(off, 1.0), trials, max(200, trials // 20), seed=seed + 3)
    spread = abs(rep3["dir_sup"] - rep3["pair_sup"]) / max(rep3["pair_sup"], 1e-12)
    failures += int(spread > 0.05)
    worst = _margin_update(worst, 0.05 - spread)
    details["gauge"] = rep3
    # constant field
    f_const = calculus.ScalarField(lambda x: np.full(np.asarray(x).shape[:-1], 2.5), declared_lip=0.0)
    rep4 = calculus.lipschitz_estimate(f_const, ball, 200, 100, seed=seed + 4)
    failures += int(rep4["pair_sup"] > 1e-12 or rep4["dir_sup"] > 1e-12)
    return SuiteResult("lipismaximal", trials, failures, worst, seed, time.perf_counter() - t0, details)


# ---------------------------------------------------------------------------
# the two-leg connecting curve


def suite_goodcurve(cfg: RunConfig, seed: int) -> SuiteResult:
    """Endpoint exactness, speed bound and derivative-deviation bound."""
    t0 = time.perf_counter()
    rng = _rng(seed)
    trials = cfg.count(10_000)
    failures = 0
    worst = math.inf
    knots = curves._GAMMA_KNOTS
    for n in cfg.n_values:
        ys = np.empty((trials // len(cfg.n_values), 2 * n + 1))
        for i in range(len(ys)):  # one trial at a time, so the stream is the per-trial one
            ys[i] = rng.standard_normal(2 * n + 1) * rng.uniform(0.5, 2.0)
        L = np.sqrt(np.vecdot(ys[:, :-1], ys[:, :-1]))  # np.linalg.norm of each row
        ys, L = ys[L != 0.0], L[L != 0.0]
        c = ys[:, -1]
        # The gamma_y(y) paths as one batch, evaluated by the helpers behind
        # HorizontalPath.eval, .derivative and .segment_speeds: each trial gets
        # the bits of its own path.
        rows = curves._gamma_rows(ys)
        vertices = curves._lift_vertices(rows, 0.0)
        # scale and lip_bound stay Python floats per trial: Python's x**2 and
        # x**4 call libm pow, which rounds differently from numpy's power.
        top = np.max(np.abs(ys), axis=1)
        scale, lip_bound = np.empty(len(ys)), np.empty(len(ys))
        for i in range(len(ys)):
            Li, ci = float(L[i]), float(c[i])
            scale[i] = 1.0 + max(abs(ci), Li) ** 2 / Li**2 + float(top[i])
            lip_bound[i] = Li * math.sqrt(1.0 + ci * ci / Li**4 + 4.0 * ci * ci / Li**2)
        end_err = np.max(np.abs(curves._interpolate(knots, vertices, knots[-1]) - ys), axis=1) / scale
        failures += int(np.count_nonzero(end_err > 1e-12))
        start_err = np.max(np.abs(curves._interpolate(knots, vertices, knots[0])), axis=1)
        failures += int(np.count_nonzero(start_err > 1e-12 * scale))
        lip = np.max(curves._segment_speeds(knots, rows), axis=1)
        failures += int(np.count_nonzero(lip > lip_bound * (1.0 + 1e-12)))
        margins = [1e-12 - end_err, (lip_bound - lip) / lip_bound]
        dev_slack = np.abs(c) / L * np.sqrt(1.0 + 4.0 * L * L) * (1.0 + 1e-9) + 1e-12 * scale
        flat = np.concatenate([ys[:, :-1], np.zeros((len(ys), 1))], axis=1)
        for tq in (0.25, 0.75):
            d = curves._difference_quotient(knots, vertices, tq) - flat
            dev = np.sqrt(np.vecdot(d, d))  # np.linalg.norm of each row
            failures += int(np.count_nonzero(dev > dev_slack))
            margins.append(dev_slack - dev)
        worst = _margin_update(worst, np.min(np.concatenate(margins), initial=math.inf))
    # frozen single-point checks
    path = curves.gamma_y(np.array([1.0, 0.0, 1.0]))
    checks = [
        abs(curves.lipschitz_constant(path) - math.sqrt(2.0)) < 1e-12,
        curves.lipschitz_constant(path) <= math.sqrt(6.0),
        np.allclose(path.eval(0.5), [0.5, 0.5, 0.0], atol=1e-12),
        np.allclose(path.end(), [1.0, 0.0, 1.0], atol=1e-12),
        abs(curves.horizontal_length(path) - math.sqrt(2.0)) < 1e-12,
        np.linalg.norm(path.derivative(0.75)[0] - np.array([1.0, 0.0, 0.0])) <= math.sqrt(5.0) + 1e-12,
    ]
    failures += sum(not c for c in checks)
    # c = 0 collapses to the straight chord
    straight = curves.gamma_y(np.array([2.0, 0.0, 0.0]))
    failures += int(abs(curves.lipschitz_constant(straight) - 2.0) > 1e-12)
    return SuiteResult("goodcurve", trials, failures, worst, seed, time.perf_counter() - t0, {})


# ---------------------------------------------------------------------------
# comparison with the Euclidean distance


def suite_holder(cfg: RunConfig, seed: int) -> SuiteResult:
    """Two-sided Euclidean comparison on a ball, and the square-root exponent."""
    t0 = time.perf_counter()
    trials = cfg.count(10_000)
    failures = 0
    worst = math.inf
    n = cfg.n_values[0]
    ball = metric.Ball(np.zeros(2 * n + 1), 2.0)
    est = metric.holder_fit(ball, trials, seed)
    c_h = est.c_holder
    failures += int(not math.isfinite(c_h) or c_h < 1.0)
    # verify both inequalities on a fresh draw with the fitted constant
    rng = _rng(seed + 1)
    xs, ys = ball.sample(rng, 2000), ball.sample(rng, 2000)
    eu = np.linalg.norm(xs - ys, axis=1)
    keep = eu > 0.0
    lo = metric.cc_lower_batch(xs[keep], ys[keep])
    up = metric.cc_upper_value_batch(group.group_mul(group.group_inv(xs[keep]), ys[keep]))
    m1 = lo - eu[keep] / (c_h * 1.01)
    m2 = (c_h * 1.01) * np.sqrt(eu[keep]) - up
    failures += int(np.sum(m1 < 0)) + int(np.sum(m2 < 0))
    worst = _margin_update(worst, min(float(np.min(m1)), float(np.min(m2))))
    # vertical pairs pin the 1/2 exponent
    ratios = []
    for eps in np.logspace(-6, -1, 11):
        z = np.zeros(2 * n + 1)
        z[-1] = eps
        lo = metric.cc_lower(np.zeros(2 * n + 1), z)
        up, _ = metric.cc_upper(np.zeros(2 * n + 1), z)
        ratios.append((lo / math.sqrt(eps), up / math.sqrt(eps)))
        failures += int(not (1.0 - 1e-9 <= ratios[-1][0] and ratios[-1][1] <= math.sqrt(math.pi) + 1e-4))
        worst = _margin_update(worst, math.sqrt(math.pi) + 1e-4 - ratios[-1][1])
    return SuiteResult(
        "holder", trials, failures, worst, seed, time.perf_counter() - t0,
        {"c_holder": c_h, "vertical_ratio_range": [min(r[0] for r in ratios), max(r[1] for r in ratios)]},
    )


# ---------------------------------------------------------------------------
# first-order behavior of the distance at horizontal points


def suite_differentiabilityofdistance(cfg: RunConfig, seed: int) -> SuiteResult:
    t0 = time.perf_counter()
    rng = _rng(seed)
    trials = cfg.count(1000)
    tol = 1e-9
    failures = 0
    worst = math.inf
    n = 1
    u_dir = np.zeros(2 * n)
    u_dir[0] = 1.0
    zs = calculus.sample_unit_ball(rng, n, trials) * 0.5
    report = metric.distance_pansu_check(u_dir, zs, tol=tol)
    failures += int(np.sum(report.inequality_margins < -tol))
    worst = _margin_update(worst, float(np.min(report.inequality_margins)) + tol)
    # residual decays through the scales
    scales = (1e-1, 1e-2, 1e-3, 1e-4)
    sups = []
    ws = calculus.sample_unit_ball(rng, n, 100)
    for s in scales:
        zso = np.stack([group.dilate(s / max(float(metric.cc_upper_quick(w)), 1e-9), w) for w in ws])
        rep = metric.distance_pansu_check(u_dir, zso, tol=tol)
        sups.append(float(np.max(rep.residuals)))
    mono = all(sups[i + 1] < sups[i] for i in range(len(sups) - 1))
    failures += int(not mono)
    failures += int(sups[-1] > 1e-2)
    worst = _margin_update(worst, 1e-2 - sups[-1])
    # along the line itself the inequality is tight
    t_small = 0.01
    z_line = t_small * group.horizontal_point(u_dir)
    rep_line = metric.distance_pansu_check(u_dir, z_line[None, :], tol=tol)
    failures += int(abs(float(rep_line.inequality_margins[0])) > 1e-9)
    return SuiteResult(
        "differentiabilityofdistance", trials, failures, worst, seed, time.perf_counter() - t0,
        {"residual_sups": dict(zip((str(s) for s in scales), sups))},
    )


# ---------------------------------------------------------------------------
# maximal directional derivative and the Pansu residual


def suite_maximality(cfg: RunConfig, seed: int) -> SuiteResult:
    """A field with a maximal derivative is differentiable there.

    Checks residual decay for the homomorphism plus a second-order
    perturbation, exactness for plain homomorphisms, and the quadratic
    height example.
    """
    t0 = time.perf_counter()
    failures = 0
    worst = math.inf
    n = cfg.n_values[0]
    e = np.zeros(2 * n)
    e[0] = 1.0
    L = group.HLinearMap(1.0, e)

    def perturbed(x):
        x = np.asarray(x, dtype=float)
        return L(x) + 0.5 * np.minimum(group.koranyi_norm(x) ** 2, 4.0)

    f = calculus.ScalarField(perturbed, label="hlinear+quadratic")
    rep = calculus.pansu_residual(f, np.zeros(2 * n + 1), L, radii=(1e-1, 1e-2, 1e-3, 1e-4), dir_samples=256, seed=seed, tol=1e-3)
    failures += int(not rep.accepted)
    worst = _margin_update(worst, 1e-3 - float(rep.residuals[-1]))
    mono = bool(np.all(np.diff(rep.residuals) < 0))
    failures += int(not mono)
    # homomorphisms are their own derivative everywhere, residual ~ 0
    rng = _rng(seed)
    for _ in range(5):
        x0 = rng.standard_normal(2 * n + 1)
        rep0 = calculus.pansu_residual(calculus.hlinear_field(L), x0, L, dir_samples=128, seed=seed + 1, tol=1e-10)
        failures += int(float(np.max(rep0.residuals)) > 1e-10)
        worst = _margin_update(worst, 1e-10 - float(np.max(rep0.residuals)))
    # quadratic height at the origin: residual at radius t scales like t
    rep_v = calculus.pansu_residual(
        calculus.vertical_coordinate_field(), np.zeros(2 * n + 1),
        group.HLinearMap.from_coeffs(np.zeros(2 * n)), dir_samples=128, seed=seed + 2, tol=1e-3,
    )
    ratio = rep_v.residuals[:-1] / rep_v.residuals[1:]
    failures += int(not np.all(np.abs(ratio - 10.0) < 1.0))
    return SuiteResult(
        "maximality", 4, failures, worst, seed, time.perf_counter() - t0,
        {"radii": rep.radii.tolist(), "residuals": rep.residuals.tolist()},
    )


# ---------------------------------------------------------------------------
# line modification


def suite_newcurveg(cfg: RunConfig, seed: int) -> SuiteResult:
    """All posts of the line modification plus the cover membership clause."""
    t0 = time.perf_counter()
    trials = cfg.count(1000)
    failures = 0
    worst = math.inf
    c_m_per_seed = []
    for rep_i in range(3):
        rng = _rng(seed + rep_i)
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
            # (1) straight tails
            for tt in (-1.5 * s, 1.5 * s, -s, s):
                err = float(np.max(np.abs(path.eval(tt) - group.group_mul(x, group.horizontal_point(tt * e)))))
                failures += int(err > 1e-9 * scale)
                worst = _margin_update(worst, 1e-9 * scale - err)
            # (2) the detour target
            target = group.group_mul(x, group.dilate(r, u))
            err = float(np.max(np.abs(path.eval(zeta) - target)))
            failures += int(err > 1e-9 * scale)
            worst = _margin_update(worst, 1e-9 * scale - err)
            # (3) speed bound
            lip = curves.lipschitz_constant(path)
            failures += int(lip > 1.0 + eta * delta)
            worst = _margin_update(worst, 1.0 + eta * delta - lip)
            # (4) projected derivative deviation, recording the constant
            vels = np.diff(path.planar, axis=0) / np.diff(path.knots)[:, None]
            dev = float(np.max(np.linalg.norm(vels - e, axis=1)))
            failures += int(dev > 184.0 * delta)
            c_m = max(c_m, dev / delta)
        c_m_per_seed.append(c_m)
    spread = (max(c_m_per_seed) - min(c_m_per_seed)) / max(c_m_per_seed)
    failures += int(spread > 0.10)
    worst = _margin_update(worst, 0.10 - spread)
    # rational data: the modified line lives on enumerated lines at all levels
    rng = _rng(seed)
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
        ok = cover.curve_in_cover(path, cover.depth)
        failures += int(not ok)
    # open question probe: how far past the proven cap does the speed
    # post keep holding empirically?  Informational only, never relied on.
    eta_probe = 0.5
    cap = curves.delta_cap(eta_probe)
    largest_factor = 0.0
    rng = _rng(seed + 7)
    for factor in (1.0, 4.0, 16.0, 64.0, 256.0):
        held = True
        for _ in range(40):
            delta = cap * factor * 0.99
            r = delta * float(rng.uniform(0.05, 0.9))
            u = 0.2 * rng.standard_normal(3)
            e = rng.standard_normal(2)
            e /= np.linalg.norm(e)
            probe, _ = curves.modify_line_probe(rng.standard_normal(3), u, e, r, delta)
            if curves.lipschitz_constant(probe) > 1.0 + eta_probe * delta:
                held = False
                break
        if not held:
            break
        largest_factor = factor
    return SuiteResult(
        "newcurveg", trials, failures, worst, seed, time.perf_counter() - t0,
        {
            "c_modify_per_seed": c_m_per_seed,
            "c_modify": max(c_m_per_seed),
            "speed_post_holds_to_cap_factor": largest_factor,
        },
    )


# ---------------------------------------------------------------------------
# divergence of curves with close directions


def suite_closedirection(cfg: RunConfig, seed: int) -> SuiteResult:
    t0 = time.perf_counter()
    trials = cfg.count(1000)
    failures = 0
    worst = math.inf
    fits = []
    for rep_i in range(3):
        est = metric.angle_fit(2.0, trials // 3, seed + rep_i, n=cfg.n_values[0])
        fits.append(est.c_angle)
    c_a = max(fits)
    spread = (max(fits) - min(fits)) / max(fits)
    failures += int(spread > 0.10)
    worst = _margin_update(worst, 0.10 - spread)
    # validation: polyline pairs with controlled derivative offset
    rng = _rng(seed + 99)
    n = cfg.n_values[0]
    amps, times, rel = [], [], []
    for _ in range(100):
        A = 10.0 ** rng.uniform(-3, 0)
        e = rng.standard_normal(2 * n)
        e /= np.linalg.norm(e)
        k = 6
        knots = np.linspace(0.0, 1.0, k + 1)
        pert = rng.standard_normal((k, 2 * n))
        pert /= np.linalg.norm(pert, axis=1, keepdims=True)
        vels = e[None, :] + A * rng.uniform(0.0, 1.0, (k, 1)) * pert
        planar_g = np.vstack([np.zeros(2 * n), np.cumsum(vels * np.diff(knots)[:, None], axis=0)])
        g = curves.HorizontalPath(knots, planar_g, 0.0)
        h = curves.line_path(np.zeros(2 * n + 1), e, 0.0, 1.0)
        tts = rng.uniform(0.05, 1.0, 8)
        amps.append(A)
        times.append(tts)
        rel.append(group.group_mul(group.group_inv(g.eval(tts)), h.eval(tts)))
    ups = metric.cc_upper_value_batch(np.concatenate(rel)).reshape(len(rel), -1)
    margins = (c_a * np.sqrt(amps))[:, None] * np.stack(times) - ups
    failures += int(np.sum(margins < -1e-9))
    worst = _margin_update(worst, float(np.min(margins)))
    return SuiteResult(
        "closedirection", trials, failures, worst, seed, time.perf_counter() - t0,
        {"c_angle_per_seed": fits, "c_angle": c_a},
    )


# ---------------------------------------------------------------------------
# the scalar homomorphisms


def suite_scalarlip(cfg: RunConfig, seed: int) -> SuiteResult:
    t0 = time.perf_counter()
    rng = _rng(seed)
    trials = cfg.count(1000)
    failures = 0
    worst = math.inf
    for n in cfg.n_values:
        m = trials // (2 * len(cfg.n_values))
        e = group.random_directions(rng, 1, n)[0]
        L = group.HLinearMap(1.0, e)
        x = group.random_points(rng, m, n, scale=2.0)
        y = group.random_points(rng, m, n, scale=2.0)
        scale = 1.0 + np.max(np.abs(np.concatenate([x, y], axis=0)))
        add = np.max(np.abs(L(group.group_mul(x, y)) - L(x) - L(y))) / scale
        failures += int(add > 1e-12)
        worst = _margin_update(worst, 1e-12 - add)
        r = rng.uniform(0.1, 4.0, m)
        hom = np.max(np.abs(L(group.dilate(r, x)) - r * L(x))) / scale
        failures += int(hom > 1e-12)
        worst = _margin_update(worst, 1e-12 - hom)
        # unit speed along the defining direction, never above one
        quot = np.abs(L(x) - L(y)) / np.maximum(metric.cc_upper_quick(group.group_mul(group.group_inv(x), y)), 1e-12)
        failures += int(np.max(quot) > 1.0 + 1e-9)
        worst = _margin_update(worst, 1.0 + 1e-9 - float(np.max(quot)))
        b = metric.cc_bounds(np.zeros(2 * n + 1), group.horizontal_point(e))
        attain = (L(group.horizontal_point(e)) - L(np.zeros(2 * n + 1))) / b.upper
        failures += int(abs(attain - 1.0) > 1e-9)
        # directional derivatives equal the frame inner product
        f_l = calculus.hlinear_field(L)
        for _ in range(20):
            x0 = rng.standard_normal(2 * n + 1)
            e2 = group.random_directions(rng, 1, n)[0]
            est = calculus.directional_derivative(f_l, x0, e2)
            err = abs(est.value - float(e2 @ e))
            failures += int(err > 1e-10)
            worst = _margin_update(worst, 1e-10 - err)
    return SuiteResult("scalarlip", trials, failures, worst, seed, time.perf_counter() - t0, {})


# ---------------------------------------------------------------------------
# mean value search


def _mean_value_instance(rng: np.random.Generator, grid_exp: int = 14):
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
    return calculus.MeanValueInstance(grid, phi, psi, s=s, zeta=zeta, rho=rho, v=v, sigma=sigma, L=L)


def _mean_value_verify(inst: calculus.MeanValueInstance, tau: float) -> bool:
    """Independent full-grid check of both conclusions at tau."""
    h = inst.step
    i_tau = inst.index_of(tau)
    i0 = inst.index_of(0.0)
    iz = inst.index_of(inst.zeta)
    phi_p = (inst.phi[i_tau + 1] - inst.phi[i_tau - 1]) / (2 * h)
    psi_p0 = (inst.psi[i0 + 1] - inst.psi[i0 - 1]) / (2 * h)
    gap = abs(inst.phi[iz] - inst.psi[iz])
    if not (-inst.s < tau < inst.s) or tau == inst.zeta:
        return False
    if phi_p < psi_p0 + inst.v * gap / inst.s - 1e-12:
        return False
    slope = 4.0 * (1.0 + 20.0 * inst.v) * math.sqrt(max(phi_p - psi_p0, 0.0) * inst.L)
    # grid indices k with j = k + i_tau - i0 also on the grid
    m = len(inst.grid)
    k = np.arange(max(0, i0 - i_tau), min(m, m + i0 - i_tau))
    j = k + (i_tau - i0)
    t = inst.grid[k] - inst.grid[i0]
    lhs = np.abs((inst.phi[j] - inst.phi[i_tau]) - (inst.psi[k] - inst.psi[i0]))
    return not np.any(lhs > slope * np.abs(t) + 1e-9)


def suite_meanvalue(cfg: RunConfig, seed: int) -> SuiteResult:
    t0 = time.perf_counter()
    rng = _rng(seed)
    trials = cfg.count(100)
    failures = 0
    worst = math.inf
    for _ in range(trials):
        inst = _mean_value_instance(rng)
        try:
            tau = calculus.mean_value_search(inst)
        except (calculus.MeanValueHypothesisError, calculus.MeanValueSearchError):
            failures += 1
            continue
        ok = _mean_value_verify(inst, tau)
        failures += int(not ok)
        worst = _margin_update(worst, 1.0 if ok else -1.0)
    # named hypothesis failures
    inst = _mean_value_instance(rng)
    try:
        calculus.mean_value_search(dataclasses.replace(inst, phi=inst.psi.copy()))
        failures += 1
    except calculus.MeanValueHypothesisError:
        pass
    try:
        calculus.mean_value_search(dataclasses.replace(inst, v=0.2))
        failures += 1
    except calculus.MeanValueHypothesisError:
        pass
    # exclusion set: force the choice into a window on the rising edge
    inst = _mean_value_instance(rng)
    iz = inst.index_of(inst.zeta)
    lo_edge = int(inst.index_of(inst.grid[np.argmin(np.abs(inst.grid + inst.s))]))
    window = set(range(len(inst.grid))) - set(range(lo_edge + (iz - lo_edge) // 3, lo_edge + 2 * (iz - lo_edge) // 3))
    try:
        tau = calculus.mean_value_search(inst, exclude=window)
        failures += int(not _mean_value_verify(inst, tau))
        failures += int(inst.index_of(tau) in window)
    except calculus.MeanValueSearchError:
        failures += 1
    return SuiteResult("meanvalue", trials, failures, worst, seed, time.perf_counter() - t0, {})


# ---------------------------------------------------------------------------
# tube covers


def suite_uds(cfg: RunConfig, seed: int) -> SuiteResult:
    t0 = time.perf_counter()
    rng = _rng(seed)
    failures = 0
    worst = math.inf
    details = {}
    cover = uds.Cover.build(
        n=1, height=cfg.uds_height, depth=cfg.uds_depth,
        clip_half_width=cfg.uds_clip, max_lines=cfg.uds_max_lines,
    )
    # analytic volume bounds hold by construction at every level
    for k, c in enumerate(cover.radii_constants, start=1):
        margin = 2.0**-k - cover.volume_bound(c)
        failures += int(margin < 0)
        worst = _margin_update(worst, margin)
    rc = np.asarray(cover.radii_constants)
    failures += int(np.any(np.diff(rc) > 0))
    # nesting over random and near-line points
    n_query = cfg.count(10_000)
    half = n_query // 2
    pts_far = uds.Box.cube(2.0, 1).sample(rng, half)
    idx = rng.integers(0, len(cover.lines), n_query - half)
    ts = rng.uniform(cover.spans[idx, 0], cover.spans[idx, 1])
    near = cover._bases[idx] + ts[:, None] * cover._vecs[idx]
    near += rng.normal(scale=10.0 ** rng.uniform(-6, -1, (len(near), 1)), size=near.shape)
    pts = np.vstack([pts_far, np.clip(near, -9.9, 9.9)])
    d = cover.upper_distances(pts, needed=cover.radii(1))
    members = np.ones(len(pts), dtype=bool)
    prev_count = len(pts)
    per_level = []
    for k in range(1, cover.depth + 1):
        members = members & np.any(d <= cover.radii(k)[None, :], axis=1)
        count = int(np.sum(members))
        failures += int(count > prev_count)
        per_level.append(count)
        prev_count = count
    details["members_per_level"] = per_level
    # Monte-Carlo measure at a mid level agrees with the analytic bound
    level = min(6, cover.depth)
    est, (ci_lo, ci_hi) = cover.cover_measure_mc(level, uds.Box.cube(2.0, 1), cfg.mc_samples, seed)
    bound = 2.0**-level
    failures += int(ci_lo > bound)
    worst = _margin_update(worst, bound - ci_lo)
    details["mc"] = {"level": level, "estimate": est, "ci": [ci_lo, ci_hi], "bound": bound}
    # exact incidence keeps rational on-line points inside at all depths
    line = cover.lines[0]
    pt = line.point_at(Fraction(1, 7))
    failures += int(not cover.contains(pt, cover.depth))
    # distant points are excluded
    far = np.array([0.47, 1.93, 8.21])
    failures += int(cover.contains(far, min(4, cover.depth)))
    # enumeration contains the first axis line and is height-monotone
    first = list(l for _, l in zip(range(80), uds.enumerate_lines(1, 1)))
    has_axis = any(l.direction == (1, 0) and all(v == 0 for v in l.base) for l in first)
    failures += int(not has_axis)
    # direction rationalization: exact unit, within tolerance
    for _ in range(20):
        e = group.random_directions(rng, 1, 1)[0]
        exact = uds.rationalize_direction(e, 1e-4)
        failures += int(sum(v * v for v in exact) != 1)
        err = float(np.linalg.norm(np.array([float(v) for v in exact]) - e))
        failures += int(err > 1e-4)
        worst = _margin_update(worst, 1e-4 - err)
    failures += int(uds.stereographic_unit([Fraction(1, 2)]) != (Fraction(4, 5), Fraction(-3, 5)))
    details["manifest"] = cover.manifest()
    return SuiteResult("uds", n_query, failures, worst, seed, time.perf_counter() - t0, details)


# ---------------------------------------------------------------------------
# the comparison relation and the envelope check


def suite_almostmax(cfg: RunConfig, seed: int) -> SuiteResult:
    t0 = time.perf_counter()
    rng = _rng(seed)
    failures = 0
    worst = math.inf
    n = cfg.n_values[0]
    e1 = np.zeros(2 * n)
    e1[0] = 1.0
    e2 = np.zeros(2 * n)
    e2[n] = 1.0
    f = calculus.hlinear_field(group.HLinearMap(0.5, e1))
    grid = maximizer.default_t_grid()
    origin = np.zeros(2 * n + 1)
    along = group.horizontal_point(0.3 * e1)

    def verdict(h, star, x, e, sigma=0.0, lip=1.0):
        return calculus.compare_pairs(h, star, x, e, K=8.0, t_grid=grid, sigma=sigma, lip=lip).verdict[0]

    # envelope check (sigma = 0, lip = Lip(f)): reflexive acceptance
    failures += int(verdict(f, (origin, e1), origin, e1, lip=f.declared_lip) is not True)
    # competitor along the gradient at another point: equal derivative, accepted
    failures += int(verdict(f, (origin, e1), along, e1, lip=f.declared_lip) is not True)
    # lower derivative: rejected
    failures += int(verdict(f, (origin, e1), origin, e2, lip=f.declared_lip) is not False)
    # the maximizer's comparison (lip = 1) on the same cases
    failures += int(verdict(f, (origin, e1), origin, e1) is not True)
    failures += int(verdict(f, (origin, e1), along, e1, sigma=0.1) is not True)
    failures += int(verdict(f, (origin, e1), origin, e2) is not False)
    # with generous slack the orthogonal-direction increments are admissible
    failures += int(verdict(f, (origin, e2), origin, e1, sigma=1.0) is not True)
    # a constructed counterexample: equal derivatives, so the sigma=0 bound
    # is zero, but the kink between the base points separates the increments
    g = calculus.lattice_max(
        calculus.hlinear_field(group.HLinearMap(0.5, e1)),
        calculus.hlinear_field(group.HLinearMap(0.5, -e1)),
    )
    failures += int(verdict(g, (group.horizontal_point(-e1), -e1), group.horizontal_point(e1), e1) is not False)
    return SuiteResult("almostmax", 8, failures, worst if worst < math.inf else 1.0, seed, time.perf_counter() - t0, {})


# ---------------------------------------------------------------------------
# the full iteration


def suite_algorithm(cfg: RunConfig, seed: int) -> SuiteResult:
    t0 = time.perf_counter()
    failures = 0
    worst = math.inf
    n = 1
    e1 = np.array([1.0, 0.0])
    cover = uds.Cover.build(n=n, height=2, depth=max(cfg.max_steps + 2, 12), max_lines=64)
    f0 = calculus.hlinear_field(group.HLinearMap(0.5, e1), label="half-first-axis")
    config = maximizer.MaximizerConfig(
        max_steps=cfg.max_steps, budget=cfg.max_budget, uds_level=min(10, cover.depth),
        mu=cfg.mu, K=cfg.K, seed=seed,
    )
    start = maximizer.Pair.in_cover(np.zeros(2 * n + 1), e1, cover, config.uds_level)
    traj = maximizer.run(f0, start, config, cover)
    report = maximizer.verify_trajectory(traj)
    failures += len(report["violations"])
    drift = float(metric.cc_upper_quick(group.group_mul(
        group.group_inv(group.horizontal_point(traj.final_pair().direction)), group.horizontal_point(e1))))
    sigma_last = traj.states[-1].sigma
    failures += int(drift > sigma_last)
    worst = _margin_update(worst, sigma_last - drift)
    shift = traj.field_shift_norm()
    failures += int(shift > cfg.mu)
    worst = _margin_update(worst, cfg.mu - shift)
    e_values = report["e_values"]
    failures += int(not all(b > a for a, b in zip(e_values, e_values[1:])))
    # zero start field: the first perturbation creates a positive derivative
    f_zero = calculus.ScalarField(lambda x: np.zeros(np.asarray(x).shape[:-1]), declared_lip=0.0, label="zero")
    traj0 = maximizer.run(f_zero, start, maximizer.MaximizerConfig(max_steps=3, budget=64, seed=seed + 1), cover)
    rep0 = maximizer.verify_trajectory(traj0)
    failures += len(rep0["violations"])
    failures += int(not rep0["e_values"][-1] > 0.0)
    # no steps: the starting pair is returned untouched
    trajn = maximizer.run(f0, start, maximizer.MaximizerConfig(max_steps=0, seed=seed), cover)
    failures += int(len(trajn.states) != 1)
    failures += int(not np.array_equal(trajn.final_pair().x, start.x))
    return SuiteResult(
        "algorithm", cfg.max_steps, failures, worst, seed, time.perf_counter() - t0,
        {"e_values": e_values, "violations": report["violations"], "sigma_last": sigma_last, "shift": shift},
    )


SUITES: dict = {
    "group": suite_group,
    "lift": suite_lift,
    "horizontaldistances": suite_horizontaldistances,
    "lipschitzhorizontal": suite_lipschitzhorizontal,
    "welldefined": suite_welldefined,
    "lipismaximal": suite_lipismaximal,
    "goodcurve": suite_goodcurve,
    "holder": suite_holder,
    "differentiabilityofdistance": suite_differentiabilityofdistance,
    "maximality": suite_maximality,
    "uds": suite_uds,
    "newcurveg": suite_newcurveg,
    "closedirection": suite_closedirection,
    "scalarlip": suite_scalarlip,
    "meanvalue": suite_meanvalue,
    "almostmax": suite_almostmax,
    "algorithm": suite_algorithm,
}


def run_suite(suite: str, cfg: RunConfig, seed: Optional[int] = None) -> SuiteResult:
    """Run one registered suite with a deterministic per-suite seed."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; registered: {', '.join(sorted(SUITES))}")
    base = cfg.seed if seed is None else seed
    # distinct stream per suite so concurrent execution cannot perturb results
    tag = zlib.crc32(suite.encode("utf-8"))
    sub = int(np.random.SeedSequence([base, tag]).generate_state(1)[0])
    return SUITES[suite](cfg, sub)


def emit_report(results: list, path: str, config: Optional[RunConfig] = None) -> dict:
    """Write the JSON report and CSV sidecars; returns the report dict.

    The JSON payload is byte-deterministic for a fixed config and seed:
    wall times are reported on stdout only, never in the file.
    """
    if not results:
        raise ValueError("no suite results to report")
    config_snapshot = None
    if config is not None:
        config_snapshot = config.to_json()
        # execution details that cannot perturb results stay out of the bytes
        config_snapshot.pop("jobs", None)
        config_snapshot.pop("out_dir", None)
    report = {
        "schema_version": 1,
        "config": config_snapshot,
        "suites": [r.to_json(include_wall_time=False) for r in sorted(results, key=lambda r: r.suite)],
        "aggregate_pass": all(r.passed for r in results),
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    stem = os.path.splitext(path)[0]
    by_name = {r.suite: r for r in results}
    if "maximality" in by_name:
        det = by_name["maximality"].details
        with open(stem + "_residual_vs_radius.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["radius", "residual"])
            for r, s in zip(det.get("radii", []), det.get("residuals", [])):
                w.writerow([repr(r), repr(s)])
    if "uds" in by_name:
        det = by_name["uds"].details
        with open(stem + "_measure_vs_level.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["level", "members"])
            for k, c in enumerate(det.get("members_per_level", []), start=1):
                w.writerow([k, c])
    if "algorithm" in by_name:
        det = by_name["algorithm"].details
        with open(stem + "_derivative_vs_step.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "derivative"])
            for k, v in enumerate(det.get("e_values", [])):
                w.writerow([k, repr(v)])
    return report
