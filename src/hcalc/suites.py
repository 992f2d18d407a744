"""Registered verification suites and machine-readable reports.

Each suite stresses one quantitative statement at configurable trial
counts and reports a :class:`SuiteResult`: trial count, failure count,
the worst margin observed (positive means the checked inequality held
with room to spare) and enough detail to plot.  All randomness flows from
the suite seed through a single generator, so results are reproducible
and do not depend on which other suites run.

A suite states its checks to one ledger, and :func:`run_suite` times the
suite and turns the ledger into its result.  A check whose failure is
exactly "margin < 0" is one :meth:`_Ledger.check` call: every entry of
the margin below zero counts as one failure, and its smallest entry folds
into the worst margin.  A check whose failure test is anything else
records its two halves apart, :meth:`_Ledger.count` for the failures and
:meth:`_Ledger.margin` for the margin.  A NaN margin entry, which no
comparison can pass, counts as one failure and leaves the worst margin
alone, so no NaN reaches a report.

``goodcurve``, ``newcurveg``, ``welldefined``, ``lipschitzhorizontal`` and
``closedirection`` build their curves as batches, and
``horizontaldistances`` its pairs.  They draw trial by trial, so the
random stream is the one of a loop that builds one curve per trial, and
then check each dimension's trials as one batch (``lipschitzhorizontal``
one batch per knot count).  Each trial keeps the bits of its own curve.
``horizontaldistances`` brackets its pairs without witnesses: the lower
end is :func:`metric.cc_lower`'s and the upper end the certified closed
form, one batched call each per dimension.
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
    """Harness configuration: the dimensions, the master seed and a trial
    count; JSON round-trippable, env-overridable.

    Every other parameter of a suite is fixed where the suite states it, or
    is the default of the object it builds (``Cover.build``,
    ``MaximizerConfig``) or a constant of that object's module.
    Environment variables prefixed ``HCALC_`` override fields, e.g.
    ``HCALC_SEED=7`` or ``HCALC_TRIALS=100``.  An ``HCALC_`` variable or a
    config-file key that names no field raises.
    """

    schema_version: int = 1
    n_values: tuple = (1, 2)
    seed: int = 20250808
    trials: Optional[int] = None  # replaces each suite's default trial count

    def __post_init__(self):
        self.n_values = tuple(int(v) for v in self.n_values)
        if not self.n_values or any(v < 1 for v in self.n_values):
            raise ValueError("n_values must be positive dimensions")

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
        known = {"HCALC_" + name.upper() for name in data}
        unknown = sorted(k for k in os.environ if k.startswith("HCALC_") and k not in known)
        if unknown:
            raise ValueError(f"unknown config fields: {unknown}")
        for name in data:
            env = os.environ.get("HCALC_" + name.upper())
            if env is not None:
                data[name] = [int(v) for v in env.split(",")] if name == "n_values" else int(env)
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

    def to_json(self) -> dict:
        """The report record; the wall time stays out, so reports are byte-deterministic."""
        return {
            "suite": self.suite,
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "passed": self.passed,
            "details": self.details,
        }


class _Ledger:
    """Failure count and worst margin of one suite run (rule in the module docstring).

    A lone float (numpy's float64 is one) skips numpy: most checks are
    scalars made once per trial.
    """

    def __init__(self):
        self.failures = 0
        self.worst = math.inf

    def check(self, margin) -> None:
        """One failure per entry below zero or NaN; the smallest entry is a margin."""
        scalar = isinstance(margin, float)
        self.count(margin < 0.0 if scalar else np.count_nonzero(np.less(margin, 0.0)))
        self.margin(margin)

    def count(self, failures) -> None:
        self.failures += int(failures)

    def margin(self, margin) -> None:
        """One failure per NaN entry; the smallest other entry folds into the worst margin."""
        if isinstance(margin, float):
            self.failures += math.isnan(margin)
        else:
            margin = np.ravel(margin)
            self.failures += int(np.count_nonzero(np.isnan(margin)))
            margin = np.fmin.reduce(margin, initial=math.inf)  # passes over NaN entries
        if margin < self.worst:  # False for NaN
            self.worst = float(margin)


# ---------------------------------------------------------------------------
# group arithmetic


def suite_group(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    """Group axioms, dilations, gauge invariance and the line-translation identity."""
    trials = cfg.count(10_000)
    rng = np.random.default_rng(seed)
    tol = 1e-10
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
            ledger.check(tol - c)
    return trials, {"tol": tol}


# ---------------------------------------------------------------------------
# lifting


def suite_lift(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    """Horizontality of constructed paths and closed-form lift exactness."""
    rng = np.random.default_rng(seed)
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
            ledger.check(tol_fd - res)
    details["fd_residual_max"] = res_max
    # straight segment lifts flat
    seg = curves.lift_planar(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros(3))
    flat = abs(float(seg.end()[-1]))
    ledger.check(1e-12 - flat)
    # unit circle at 10^4 segments closes on -4*pi
    m = 10_000
    th = np.linspace(0.0, 2.0 * math.pi, m + 1)
    circle = np.stack([np.cos(th), np.sin(th)], axis=1)
    lifted = curves.lift_planar(circle, np.array([1.0, 0.0, 0.0]))
    err = abs(float(lifted.end()[-1]) + 4.0 * math.pi)
    ledger.check(1e-6 - err)
    details["circle_error"] = err
    # duplicated vertex keeps the endpoint at the base
    still = curves.lift_planar(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5, 0.25]))
    drift = float(np.max(np.abs(still.end() - np.array([0.5, 0.5, 0.25]))))
    ledger.check(1e-12 - drift)
    return samples, details


# ---------------------------------------------------------------------------
# distances along horizontal lines


def suite_horizontaldistances(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    """Distance brackets collapse to |t| omega(E) along horizontal lines."""
    rng = np.random.default_rng(seed)
    trials = cfg.count(1000)
    tol = 1e-9
    for n in cfg.n_values:
        m = trials // len(cfg.n_values)
        x, e, t = np.empty((m, 2 * n + 1)), np.empty((m, 2 * n)), np.empty(m)
        for i in range(m):  # one trial at a time, so the stream is the per-trial one
            x[i] = 2.0 * rng.standard_normal(2 * n + 1)
            e[i] = rng.standard_normal(2 * n)
            t[i] = rng.uniform(-2.0, 2.0)
        y = x + t[:, None] * group.vector_at(e, x)
        # cc_lower's bits below, the certified closed form above: no witness
        upper = metric.cc_upper_value_batch(group.group_mul(group.group_inv(x), y))
        ends = np.stack([metric.cc_lower_batch(x, y), upper], axis=-1)
        # |t| omega(E), with a 1-D norm per trial: it rounds apart from a row-wise one
        target = np.abs(t) * np.array([np.linalg.norm(ei) for ei in e])
        ledger.check(tol - np.max(np.abs(ends - target[:, None]), axis=-1))
    return trials, {"tol": tol}


# ---------------------------------------------------------------------------
# Lipschitz constants of horizontal curves


def suite_lipschitzhorizontal(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    """Curve speed equals projected speed: brackets below, attained on segments."""
    rng = np.random.default_rng(seed)
    trials = cfg.count(200)
    for n in cfg.n_values:
        drawn = {k: [] for k in range(3, 8)}  # trials by knot count
        for _ in range(trials // len(cfg.n_values)):  # one trial at a time, so the stream is the per-trial one
            k = int(rng.integers(3, 8))
            steps = rng.standard_normal((k, 2 * n))
            c0 = rng.standard_normal()
            # the 12 parameters rng.uniform(0, t_max, 12) are 0 + (t_max - 0) u;
            # t_max comes with the batch's knots
            u = rng.random(12)
            drawn[k].append((steps, c0, u, 2.0 * rng.standard_normal(2 * n + 1)))
        for rows in drawn.values():
            if rows:
                _lipschitz_posts(ledger, *(np.array(v) for v in zip(*rows)))
    return trials, {}


def _lipschitz_posts(ledger: _Ledger, steps, c0, u, g) -> None:
    """Check one batch of polylines with equally many knots, lifted from c0, and their translates by g."""
    planar = np.cumsum(steps, axis=-2)
    knots = curves._chord_knots(planar)
    path = curves.PathBatch.lift(knots, planar, c0)
    speeds = curves._segment_speeds(knots, planar)
    lip = np.max(speeds, axis=-1)
    t_min, t_max = knots[:, :1], knots[:, -1:]
    ts = np.sort(t_min + (t_max - t_min) * u, axis=-1)
    # the max-speed segment attains the constant, between its quarter points
    j = np.argmax(speeds, axis=-1)[:, None]
    k0, k1 = np.take_along_axis(knots, j, -1), np.take_along_axis(knots, j + 1, -1)
    ta, tb = k0 + 0.25 * (k1 - k0), k0 + 0.75 * (k1 - k0)
    pts = path.eval(np.concatenate([ts, ta, tb], axis=-1))
    gaps = np.diff(ts, axis=-1)
    apart = gaps > 1e-12
    lo = metric.cc_lower_batch(np.concatenate([pts[:, :11][apart], pts[:, 12]]),
                               np.concatenate([pts[:, 1:12][apart], pts[:, 13]]))
    m = np.count_nonzero(apart)
    ledger.check((lip[:, None] * gaps)[apart] * (1.0 + 1e-9) + 1e-12 - lo[:m])
    ledger.check(lo[m:] / (tb - ta)[:, 0] - lip * (1.0 - 1e-9))
    # left translation preserves length and speed
    moved = path.left_translate(g)
    length, moved_length = (np.add.reduce(curves._chords(p), axis=-1) for p in (planar, moved.planar))
    dlen = np.abs(moved_length - length)
    dlip = np.abs(np.max(curves._segment_speeds(knots, moved.planar), axis=-1) - lip)
    ledger.check(1e-12 - np.maximum(dlen, dlip) / (1.0 + lip))


# ---------------------------------------------------------------------------
# derivative independence of the realizing curve


def suite_welldefined(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    """Composed derivatives agree for curves sharing a point and derivative.

    Pairs a straight line with a detour that splits off just inside the
    comparison window: coarse difference quotients disagree, the
    extrapolated derivatives agree.
    """
    rng = np.random.default_rng(seed)
    trials = cfg.count(120)
    coarse_gap_max = 0.0
    for n in cfg.n_values:
        m = trials // len(cfg.n_values)
        if not m:
            continue
        x, u, e = np.empty((m, 2 * n + 1)), np.empty((m, 2 * n + 1)), np.empty((m, 2 * n))
        eta, shrink, frac, lead = np.empty(m), np.empty(m), np.empty(m), np.empty(m)
        for i in range(m):  # one trial at a time, so the stream is the per-trial one
            x[i] = rng.standard_normal(2 * n + 1)
            e[i] = rng.standard_normal(2 * n)
            e[i] /= np.linalg.norm(e[i])
            eta[i] = 10.0 ** rng.uniform(-1, 0)  # Python's pow, which rounds apart from numpy's
            shrink[i] = 10.0 ** rng.uniform(-2, 0)
            frac[i] = rng.uniform(0.05, 0.5)
            u[i] = 0.3 * rng.standard_normal(2 * n + 1)
            lead[i] = rng.uniform(0.002, 0.01)
        delta = 0.5 * curves.delta_cap(eta) * shrink
        r = delta * frac
        du = metric.cc_upper_quick(u)
        big = du > 1.0
        u[big] = group.dilate(1.0 / (2.0 * du[big]), u[big])
        du[big] = metric.cc_upper_quick(u[big])
        s = r / delta
        span = np.maximum(2.0 * s, s + 0.5)
        zeta = r * np.vecdot(u[:, :-1], e)
        detour = curves._modified_line_batch(x, u, e, r, delta, zeta, span, eta, du)
        knots, planar, c0 = curves._line_knots(x, e, -span, span)
        line = curves.PathBatch.lift(knots, planar, c0)
        # just outside the detour: coarse quotient levels straddle the
        # junction knot, fine levels see only the shared straight germ
        at = -(s + lead)
        fld = calculus.koranyi_gauge_field(x + np.concatenate([np.ones(2 * n), [0.5]]))  # a center per trial
        rep = calculus.curve_directional_consistency_batch(fld, line, detour, at)
        ledger.count(np.count_nonzero(~rep["consistent"]))
        ledger.margin(rep["error_budget"] * 4.0 + 1e-12 - rep["gap"])
        coarse = np.abs(fld(line.eval((at + 0.015)[:, None])[:, 0]) - fld(detour.eval((at + 0.015)[:, None])[:, 0]))
        coarse_gap_max = np.fmax.reduce(coarse, initial=coarse_gap_max)  # Python max's reading of a NaN
        # same germ, affinely shifted domain
        shifted = curves.PathBatch.lift(knots + 0.0, planar, c0)
        rep2 = calculus.curve_directional_consistency_batch(fld, line, shifted, at)
        ledger.count(np.count_nonzero(~rep2["consistent"] | (rep2["gap"] > 1e-12)))
    return trials, {"max_coarse_disagreement": float(coarse_gap_max)}


# ---------------------------------------------------------------------------
# Lipschitz constant equals the directional-derivative supremum


def suite_lipismaximal(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    rng = np.random.default_rng(seed)
    trials = cfg.count(10_000)
    details = {}
    n = cfg.n_values[0]
    ball = metric.Ball(np.zeros(2 * n + 1), 1.5)
    # unit homomorphism: both estimators converge to 1
    e = group.random_directions(rng, 1, n)[0]
    f_lin = calculus.hlinear_field(group.HLinearMap(1.0, e))
    rep = calculus.lipschitz_estimate(f_lin, ball, trials, max(200, trials // 20), seed=seed + 1)
    for key, lo, hi in (("pair_sup", 0.95, 1.0 + 1e-9), ("dir_sup", 0.99, 1.0 + 1e-6)):
        v = rep[key]
        ledger.count(not (lo <= v <= hi))
        ledger.margin(min(v - lo, hi - v))
    details["hlinear"] = rep
    # declared bounds are never exceeded by sampled directional derivatives
    lattice = calculus.lattice_max(
        calculus.hlinear_field(group.HLinearMap(0.7, e)),
        calculus.hlinear_field(group.HLinearMap(0.4, group.random_directions(rng, 1, n)[0])),
    )
    rep2 = calculus.lipschitz_estimate(lattice, ball, trials // 2, 200, seed=seed + 2)
    cap = lattice.declared_lip * (1.0 + 1e-6)
    ledger.check(cap - rep2["dir_sup"])
    details["lattice"] = rep2
    # gauge distance away from its singular point: the two estimators agree
    off = np.zeros(2 * n + 1)
    off[0] = 3.0
    rep3 = calculus.lipschitz_estimate(calculus.koranyi_gauge_field(), metric.Ball(off, 1.0), trials, max(200, trials // 20), seed=seed + 3)
    spread = abs(rep3["dir_sup"] - rep3["pair_sup"]) / max(rep3["pair_sup"], 1e-12)
    ledger.check(0.05 - spread)
    details["gauge"] = rep3
    # constant field
    f_const = calculus.ScalarField(lambda x: np.full(np.asarray(x).shape[:-1], 2.5), declared_lip=0.0)
    rep4 = calculus.lipschitz_estimate(f_const, ball, 200, 100, seed=seed + 4)
    ledger.count(rep4["pair_sup"] > 1e-12 or rep4["dir_sup"] > 1e-12)
    return trials, details


# ---------------------------------------------------------------------------
# the two-leg connecting curve


def suite_goodcurve(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    """Endpoint exactness, speed bound and derivative-deviation bound."""
    rng = np.random.default_rng(seed)
    trials = cfg.count(10_000)
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
        ledger.check(1e-12 - end_err)
        start_err = np.max(np.abs(curves._interpolate(knots, vertices, knots[0])), axis=1)
        ledger.count(np.count_nonzero(start_err > 1e-12 * scale))
        lip = np.max(curves._segment_speeds(knots, rows), axis=1)
        ledger.count(np.count_nonzero(lip > lip_bound * (1.0 + 1e-12)))
        ledger.margin((lip_bound - lip) / lip_bound)
        dev_slack = np.abs(c) / L * np.sqrt(1.0 + 4.0 * L * L) * (1.0 + 1e-9) + 1e-12 * scale
        flat = np.concatenate([ys[:, :-1], np.zeros((len(ys), 1))], axis=1)
        for tq in (0.25, 0.75):
            d = curves._difference_quotient(knots, vertices, tq) - flat
            dev = np.sqrt(np.vecdot(d, d))  # np.linalg.norm of each row
            ledger.check(dev_slack - dev)
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
    ledger.count(sum(not c for c in checks))
    # c = 0 collapses to the straight chord
    straight = curves.gamma_y(np.array([2.0, 0.0, 0.0]))
    ledger.count(abs(curves.lipschitz_constant(straight) - 2.0) > 1e-12)
    return trials, {}


# ---------------------------------------------------------------------------
# comparison with the Euclidean distance


def suite_holder(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    """Two-sided Euclidean comparison on a ball, and the square-root exponent."""
    trials = cfg.count(10_000)
    n = cfg.n_values[0]
    ball = metric.Ball(np.zeros(2 * n + 1), 2.0)
    c_h = metric.holder_fit(ball, trials, seed)
    ledger.count(not math.isfinite(c_h) or c_h < 1.0)
    # verify both inequalities on a fresh draw with the fitted constant
    rng = np.random.default_rng(seed + 1)
    xs, ys = ball.sample(rng, 2000), ball.sample(rng, 2000)
    eu = np.linalg.norm(xs - ys, axis=1)
    keep = eu > 0.0
    lo = metric.cc_lower_batch(xs[keep], ys[keep])
    up = metric.cc_upper_value_batch(group.group_mul(group.group_inv(xs[keep]), ys[keep]))
    m1 = lo - eu[keep] / (c_h * 1.01)
    m2 = (c_h * 1.01) * np.sqrt(eu[keep]) - up
    ledger.check(m1)
    ledger.check(m2)
    # vertical pairs pin the 1/2 exponent; d((0, 0), (0, eps)) = sqrt(pi eps)
    heights = np.logspace(-6, -1, 11)
    z = np.zeros((len(heights), 2 * n + 1))
    z[:, -1] = heights
    lo = metric.cc_lower_batch(np.zeros_like(z), z) / np.sqrt(heights)
    up = metric.cc_upper_value_batch(z) / np.sqrt(heights)
    ledger.count(np.count_nonzero(~((1.0 - 1e-9 <= lo) & (up <= math.sqrt(math.pi) + 1e-4))))
    ledger.margin(math.sqrt(math.pi) + 1e-4 - up)
    return trials, {"c_holder": c_h, "vertical_ratio_range": [float(np.min(lo)), float(np.max(up))]}


# ---------------------------------------------------------------------------
# first-order behavior of the distance at horizontal points


def suite_differentiabilityofdistance(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    rng = np.random.default_rng(seed)
    trials = cfg.count(1000)
    tol = 1e-9
    n = 1
    u_dir = np.zeros(2 * n)
    u_dir[0] = 1.0
    zs = calculus.sample_unit_ball(rng, n, trials) * 0.5
    report = metric.distance_pansu_check(u_dir, zs)
    ledger.check(report.inequality_margins + tol)
    # residual decays through the scales
    scales = (1e-1, 1e-2, 1e-3, 1e-4)
    sups = []
    ws = calculus.sample_unit_ball(rng, n, 100)
    w_upper = np.maximum(metric.cc_upper_quick(ws), 1e-9)
    for s in scales:
        rep = metric.distance_pansu_check(u_dir, group.dilate(s / w_upper, ws))
        sups.append(float(np.max(rep.residuals)))
    mono = all(sups[i + 1] < sups[i] for i in range(len(sups) - 1))
    ledger.count(not mono)
    ledger.check(1e-2 - sups[-1])
    # along the line itself the inequality is tight
    t_small = 0.01
    z_line = t_small * group.horizontal_point(u_dir)
    rep_line = metric.distance_pansu_check(u_dir, z_line[None, :])
    ledger.count(abs(float(rep_line.inequality_margins[0])) > 1e-9)
    return trials, {"residual_sups": dict(zip((str(s) for s in scales), sups))}


# ---------------------------------------------------------------------------
# maximal directional derivative and the Pansu residual


def suite_maximality(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    """A field with a maximal derivative is differentiable there.

    Checks residual decay for the homomorphism plus a second-order
    perturbation, exactness for plain homomorphisms, and the quadratic
    height example.
    """
    n = cfg.n_values[0]
    e = np.zeros(2 * n)
    e[0] = 1.0
    L = group.HLinearMap(1.0, e)

    def perturbed(x):
        x = np.asarray(x, dtype=float)
        return L(x) + 0.5 * np.minimum(group.koranyi_norm(x) ** 2, 4.0)

    f = calculus.ScalarField(perturbed, label="hlinear+quadratic")
    rep = calculus.pansu_residual(f, np.zeros(2 * n + 1), L, radii=(1e-1, 1e-2, 1e-3, 1e-4), dir_samples=256, seed=seed, tol=1e-3)
    ledger.count(not rep.accepted)
    ledger.margin(1e-3 - float(rep.residuals[-1]))
    mono = bool(np.all(np.diff(rep.residuals) < 0))
    ledger.count(not mono)
    # homomorphisms are their own derivative everywhere, residual ~ 0
    rng = np.random.default_rng(seed)
    for _ in range(5):
        x0 = rng.standard_normal(2 * n + 1)
        rep0 = calculus.pansu_residual(calculus.hlinear_field(L), x0, L, dir_samples=128, seed=seed + 1, tol=1e-10)
        ledger.check(1e-10 - float(np.max(rep0.residuals)))
    # quadratic height at the origin: residual at radius t scales like t
    rep_v = calculus.pansu_residual(
        calculus.vertical_coordinate_field(), np.zeros(2 * n + 1),
        group.HLinearMap.from_coeffs(np.zeros(2 * n)), dir_samples=128, seed=seed + 2, tol=1e-3,
    )
    ratio = rep_v.residuals[:-1] / rep_v.residuals[1:]
    ledger.count(not np.all(np.abs(ratio - 10.0) < 1.0))
    return 4, {"radii": rep.radii.tolist(), "residuals": rep.residuals.tolist()}


# ---------------------------------------------------------------------------
# line modification


def _modified_line_posts(ledger: _Ledger, c_m, x, u, e, eta, delta, r, du):
    """Check the posts of the line modification on one batch of trials; returns c_m updated."""
    zeta = r * np.vecdot(u[:, :-1], e)
    path = curves._modified_line_batch(x, u, e, r, delta, zeta, eta=eta, cc_bound_of_u=du)
    s = r / delta
    scale = 1.0 + np.max(np.abs(path.planar), axis=(-2, -1))
    # (1) straight tails
    tt = np.stack([-1.5 * s, 1.5 * s, -s, s], axis=-1)
    line = group.group_mul(x[:, None], group.horizontal_point(tt[..., None] * e[:, None]))
    err = np.max(np.abs(path.eval(tt) - line), axis=-1)
    ledger.check(1e-9 * scale[:, None] - err)
    # (2) the detour target
    target = group.group_mul(x, group.dilate(r, u))
    err = np.max(np.abs(path.eval(zeta[:, None])[:, 0] - target), axis=-1)
    ledger.check(1e-9 * scale - err)
    # (3) speed bound
    lip = np.max(curves._segment_speeds(path.knots, path.planar), axis=-1)
    ledger.check(1.0 + eta * delta - lip)
    # (4) projected derivative deviation, recording the constant
    vels = np.diff(path.planar, axis=-2) / np.diff(path.knots)[..., None]
    dev = np.max(np.linalg.norm(vels - e[:, None], axis=-1), axis=-1)
    ledger.count(np.count_nonzero(dev > 184.0 * delta))
    return np.fmax.reduce(dev / delta, initial=c_m)  # Python max's reading of a NaN


def suite_newcurveg(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    """All posts of the line modification plus the cover membership clause."""
    trials = cfg.count(1000)
    c_m_per_seed = []
    for rep_i in range(3):
        rng = np.random.default_rng(seed + rep_i)
        drawn = {n: [] for n in cfg.n_values}
        for _ in range(trials // 3):  # one trial at a time, so the stream is the per-trial one
            n = int(rng.choice(cfg.n_values))
            x = rng.standard_normal(2 * n + 1)
            u = 0.3 * rng.standard_normal(2 * n + 1)
            du = float(metric.cc_upper_quick(u))
            if du > 1.0:
                continue
            e = rng.standard_normal(2 * n)
            e /= np.linalg.norm(e)
            eta = 10.0 ** rng.uniform(-2, 0)  # Python's pow, which rounds apart from numpy's
            drawn[n].append((x, u, e, eta, 10.0 ** rng.uniform(-4, -0.05), rng.uniform(0.01, 0.99), du))
        c_m = 1.0
        for rows in drawn.values():
            if rows:
                x, u, e, eta, shrink, frac, du = (np.array(v) for v in zip(*rows))
                delta = curves.delta_cap(eta) * shrink
                c_m = _modified_line_posts(ledger, c_m, x, u, e, eta, delta, delta * frac, du)
        c_m_per_seed.append(float(c_m))
    spread = (max(c_m_per_seed) - min(c_m_per_seed)) / max(c_m_per_seed)
    ledger.check(0.10 - spread)
    # rational data: the modified line lives on enumerated lines at all levels
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
        ok = cover.curve_in_cover(path, cover.depth)
        ledger.count(not ok)
    # open question probe: how far past the proven cap does the speed
    # post keep holding empirically?  Informational only, never relied on.
    eta_probe = 0.5
    cap = curves.delta_cap(eta_probe)
    largest_factor = 0.0
    rng = np.random.default_rng(seed + 7)
    for factor in (1.0, 4.0, 16.0, 64.0, 256.0):
        delta = cap * factor * 0.99
        x, u, e, r = np.empty((40, 3)), np.empty((40, 3)), np.empty((40, 2)), np.empty(40)
        for i in range(40):  # draws past a failing trial are never read
            r[i] = delta * float(rng.uniform(0.05, 0.9))
            u[i] = 0.2 * rng.standard_normal(3)
            e[i] = rng.standard_normal(2)
            e[i] /= np.linalg.norm(e[i])
            x[i] = rng.standard_normal(3)
        probe = curves._modified_line_batch(x, u, e, r, delta, r * np.vecdot(u[:, :-1], e))
        if (np.max(curves._segment_speeds(probe.knots, probe.planar), axis=-1) > 1.0 + eta_probe * delta).any():
            break
        largest_factor = factor
    return trials, {
        "c_modify_per_seed": c_m_per_seed,
        "c_modify": max(c_m_per_seed),
        "speed_post_holds_to_cap_factor": largest_factor,
    }


# ---------------------------------------------------------------------------
# divergence of curves with close directions


def suite_closedirection(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    trials = cfg.count(1000)
    fits = []
    for rep_i in range(3):
        fits.append(metric.angle_fit(trials // 3, seed + rep_i, n=cfg.n_values[0]))
    c_a = max(fits)
    spread = (max(fits) - min(fits)) / max(fits)
    ledger.check(0.10 - spread)
    # validation: polyline pairs with controlled derivative offset
    rng = np.random.default_rng(seed + 99)
    n = cfg.n_values[0]
    k = 6
    amps, e, times = np.empty(100), np.empty((100, 2 * n)), np.empty((100, 8))
    pert, amp = np.empty((100, k, 2 * n)), np.empty((100, k, 1))
    for i in range(100):  # one trial at a time, so the stream is the per-trial one
        amps[i] = 10.0 ** rng.uniform(-3, 0)  # Python's pow, which rounds apart from numpy's
        e[i] = rng.standard_normal(2 * n)
        e[i] /= np.linalg.norm(e[i])  # a 1-D norm rounds apart from a row-wise one
        pert[i] = rng.standard_normal((k, 2 * n))
        amp[i] = rng.uniform(0.0, 1.0, (k, 1))
        times[i] = rng.uniform(0.05, 1.0, 8)
    knots = np.broadcast_to(np.linspace(0.0, 1.0, k + 1), (100, k + 1))
    pert /= np.linalg.norm(pert, axis=-1, keepdims=True)
    vels = e[:, None, :] + amps[:, None, None] * amp * pert
    planar_g = np.zeros((100, k + 1, 2 * n))
    np.cumsum(vels * np.diff(knots)[:, :, None], axis=-2, out=planar_g[:, 1:])
    g = curves.PathBatch.lift(knots, planar_g, np.zeros(100))
    h = curves.PathBatch.lift(*curves._line_knots(np.zeros((100, 2 * n + 1)), e, np.zeros(100), np.ones(100)))
    rel = group.group_mul(group.group_inv(g.eval(times)), h.eval(times))
    ups = metric.cc_upper_value_batch(rel.reshape(-1, 2 * n + 1)).reshape(100, -1)
    margins = (c_a * np.sqrt(amps))[:, None] * times - ups
    ledger.count(np.count_nonzero(margins < -1e-9))
    ledger.margin(margins)
    return trials, {"c_angle_per_seed": fits, "c_angle": c_a}


# ---------------------------------------------------------------------------
# the scalar homomorphisms


def suite_scalarlip(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    rng = np.random.default_rng(seed)
    trials = cfg.count(1000)
    for n in cfg.n_values:
        m = trials // (2 * len(cfg.n_values))
        e = group.random_directions(rng, 1, n)[0]
        L = group.HLinearMap(1.0, e)
        x = group.random_points(rng, m, n, scale=2.0)
        y = group.random_points(rng, m, n, scale=2.0)
        scale = 1.0 + np.max(np.abs(np.concatenate([x, y], axis=0)))
        add = np.max(np.abs(L(group.group_mul(x, y)) - L(x) - L(y))) / scale
        ledger.check(1e-12 - add)
        r = rng.uniform(0.1, 4.0, m)
        hom = np.max(np.abs(L(group.dilate(r, x)) - r * L(x))) / scale
        ledger.check(1e-12 - hom)
        # unit speed along the defining direction, never above one
        quot = np.abs(L(x) - L(y)) / np.maximum(metric.cc_upper_quick(group.group_mul(group.group_inv(x), y)), 1e-12)
        ledger.check(1.0 + 1e-9 - float(np.max(quot)))
        upper = metric.cc_upper_value_batch(group.horizontal_point(e))[0]
        attain = (L(group.horizontal_point(e)) - L(np.zeros(2 * n + 1))) / upper
        ledger.count(abs(attain - 1.0) > 1e-9)
        # directional derivatives equal the frame inner product
        f_l = calculus.hlinear_field(L)
        for _ in range(20):
            x0 = rng.standard_normal(2 * n + 1)
            e2 = group.random_directions(rng, 1, n)[0]
            est = calculus.directional_derivative(f_l, x0, e2)
            err = abs(est.value - float(e2 @ e))
            ledger.check(1e-10 - err)
    return trials, {}


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
    # the bump lives on |t| < s, and phi is psi + 0.0 elsewhere
    inside = slice(np.searchsorted(grid, -s, "right"), np.searchsorted(grid, s, "left"))
    t = grid[inside]
    phi = psi + 0.0
    phi[inside] += height * np.clip(np.minimum((t + s) / (zeta + s), (s - t) / (s - zeta)), 0.0, None)
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
    # grid indices k in lo..hi-1 with j = k + shift also on the grid, as slices
    m, shift = len(inst.grid), i_tau - i0
    lo, hi = max(0, -shift), min(m, m - shift)
    phi, psi, grid = inst.phi, inst.psi, inst.grid
    lhs = np.abs((phi[lo + shift : hi + shift] - phi[i_tau]) - (psi[lo:hi] - psi[i0]))
    return not np.any(lhs > slope * np.abs(grid[lo:hi] - grid[i0]) + 1e-9)


def suite_meanvalue(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    rng = np.random.default_rng(seed)
    trials = cfg.count(100)
    for _ in range(trials):
        inst = _mean_value_instance(rng)
        try:
            tau = calculus.mean_value_search(inst)
        except (calculus.MeanValueHypothesisError, calculus.MeanValueSearchError):
            ledger.count(1)
            continue
        ledger.check(1.0 if _mean_value_verify(inst, tau) else -1.0)
    # named hypothesis failures
    inst = _mean_value_instance(rng)
    try:
        calculus.mean_value_search(dataclasses.replace(inst, phi=inst.psi.copy()))
        ledger.count(1)
    except calculus.MeanValueHypothesisError:
        pass
    try:
        calculus.mean_value_search(dataclasses.replace(inst, v=0.2))
        ledger.count(1)
    except calculus.MeanValueHypothesisError:
        pass
    # exclusion set: force the choice into the middle third of the edge where
    # phi' exceeds psi'(0), the rising edge [-s, zeta] of a positive bump or
    # the falling edge [zeta, s] of a negative one
    inst = _mean_value_instance(rng)
    iz = inst.index_of(inst.zeta)
    if inst.phi[iz] >= inst.psi[iz]:
        lo_edge, hi_edge = int(np.argmin(np.abs(inst.grid + inst.s))), iz
    else:
        lo_edge, hi_edge = iz, int(np.argmin(np.abs(inst.grid - inst.s)))
    width = hi_edge - lo_edge
    window = set(range(len(inst.grid))) - set(range(lo_edge + width // 3, lo_edge + 2 * width // 3))
    try:
        tau = calculus.mean_value_search(inst, exclude=window)
        ledger.count(not _mean_value_verify(inst, tau))
        ledger.count(inst.index_of(tau) in window)
    except calculus.MeanValueSearchError:
        ledger.count(1)
    return trials, {}


# ---------------------------------------------------------------------------
# tube covers


def suite_uds(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    rng = np.random.default_rng(seed)
    details = {}
    cover = uds.Cover.build(n=1, max_lines=96)
    # analytic volume bounds hold by construction at every level
    for k, c in enumerate(cover.radii_constants, start=1):
        ledger.check(2.0**-k - cover.volume_bound(c))
    rc = np.asarray(cover.radii_constants)
    ledger.count(np.any(np.diff(rc) > 0))
    # nesting over random and near-line points
    n_query = cfg.count(10_000)
    half = n_query // 2
    pts_far = uds.Box.cube(2.0, 1).sample(rng, half)
    idx = rng.integers(0, len(cover.lines), n_query - half)
    ts = rng.uniform(cover.spans[idx, 0], cover.spans[idx, 1])
    near = cover._bases[idx] + ts[:, None] * cover._vecs[idx]
    near += rng.normal(scale=10.0 ** rng.uniform(-6, -1, (len(near), 1)), size=near.shape)
    pts = np.vstack([pts_far, np.clip(near, -9.9, 9.9)])
    # a point in the level-k union is in every shallower one, as no radius grows with the level
    for k in range(2, cover.depth + 1):
        ledger.count(np.any(cover.radii(k) > cover.radii(k - 1)))
    deepest = cover.deepest_levels(pts)
    details["members_per_level"] = [int(np.count_nonzero(deepest >= k)) for k in range(1, cover.depth + 1)]
    # Monte-Carlo measure at a mid level agrees with the analytic bound
    level = min(6, cover.depth)
    est, (ci_lo, ci_hi) = cover.cover_measure_mc(level, uds.Box.cube(2.0, 1), 100_000, seed)
    bound = 2.0**-level
    ledger.check(bound - ci_lo)
    details["mc"] = {"level": level, "estimate": est, "ci": [ci_lo, ci_hi], "bound": bound}
    # exact incidence keeps rational on-line points inside at all depths
    line = cover.lines[0]
    pt = line.point_at(Fraction(1, 7))
    ledger.count(not cover.contains(pt, cover.depth))
    # distant points are excluded
    far = np.array([0.47, 1.93, 8.21])
    ledger.count(cover.contains(far, min(4, cover.depth)))
    # enumeration contains the first axis line and is height-monotone
    first = list(l for _, l in zip(range(80), uds.enumerate_lines(1, 1)))
    has_axis = any(l.direction == (1, 0) and all(v == 0 for v in l.base) for l in first)
    ledger.count(not has_axis)
    # direction rationalization: exact unit, within tolerance
    for _ in range(20):
        e = group.random_directions(rng, 1, 1)[0]
        exact = uds.rationalize_direction(e, 1e-4)
        ledger.count(sum(v * v for v in exact) != 1)
        err = float(np.linalg.norm(np.array([float(v) for v in exact]) - e))
        ledger.check(1e-4 - err)
    ledger.count(uds.stereographic_unit([Fraction(1, 2)]) != (Fraction(4, 5), Fraction(-3, 5)))
    details["manifest"] = cover.manifest()
    return n_query, details


# ---------------------------------------------------------------------------
# the comparison relation and the envelope check


def suite_almostmax(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    n = cfg.n_values[0]
    e1 = np.zeros(2 * n)
    e1[0] = 1.0
    e2 = np.zeros(2 * n)
    e2[n] = 1.0
    f = calculus.hlinear_field(group.HLinearMap(0.5, e1))
    grid = maximizer.T_GRID
    origin = np.zeros(2 * n + 1)
    along = group.horizontal_point(0.3 * e1)

    def verdict(h, star, x, e, sigma=0.0, lip=1.0):
        return calculus.compare_pairs(h, star, x, e, K=8.0, t_grid=grid, sigma=sigma, lip=lip).verdict[0]

    # envelope check (sigma = 0, lip = Lip(f)): reflexive acceptance
    ledger.count(verdict(f, (origin, e1), origin, e1, lip=f.declared_lip) is not True)
    # competitor along the gradient at another point: equal derivative, accepted
    ledger.count(verdict(f, (origin, e1), along, e1, lip=f.declared_lip) is not True)
    # lower derivative: rejected
    ledger.count(verdict(f, (origin, e1), origin, e2, lip=f.declared_lip) is not False)
    # the maximizer's comparison (lip = 1) on the same cases
    ledger.count(verdict(f, (origin, e1), origin, e1) is not True)
    ledger.count(verdict(f, (origin, e1), along, e1, sigma=0.1) is not True)
    ledger.count(verdict(f, (origin, e1), origin, e2) is not False)
    # with generous slack the orthogonal-direction increments are admissible
    ledger.count(verdict(f, (origin, e2), origin, e1, sigma=1.0) is not True)
    # a constructed counterexample: equal derivatives, so the sigma=0 bound
    # is zero, but the kink between the base points separates the increments
    g = calculus.lattice_max(
        calculus.hlinear_field(group.HLinearMap(0.5, e1)),
        calculus.hlinear_field(group.HLinearMap(0.5, -e1)),
    )
    ledger.count(verdict(g, (group.horizontal_point(-e1), -e1), group.horizontal_point(e1), e1) is not False)
    ledger.margin(1.0)  # a placeholder: no check here computes a margin
    return 8, {}


# ---------------------------------------------------------------------------
# the full iteration


def suite_algorithm(cfg: RunConfig, seed: int, ledger: _Ledger) -> tuple[int, dict]:
    n = 1
    e1 = np.array([1.0, 0.0])
    config = maximizer.MaximizerConfig(seed=seed)
    cover = uds.Cover.build(n=n, height=2, depth=max(config.max_steps + 2, 12), max_lines=64)
    f0 = calculus.hlinear_field(group.HLinearMap(0.5, e1), label="half-first-axis")
    start = maximizer.Pair(np.zeros(2 * n + 1), e1)  # run checks its cover membership
    traj = maximizer.run(f0, start, config, cover)
    report = maximizer.verify_trajectory(traj)
    ledger.count(len(report["violations"]))
    drift = float(metric.cc_upper_quick(group.group_mul(
        group.group_inv(group.horizontal_point(traj.final_pair().direction)), group.horizontal_point(e1))))
    sigma_last = traj.states[-1].sigma
    ledger.check(sigma_last - drift)
    shift = traj.field_shift_norm()
    ledger.check(maximizer.MU - shift)
    e_values = report["e_values"]
    ledger.count(not all(b > a for a, b in zip(e_values, e_values[1:])))
    # zero start field: the first perturbation creates a positive derivative
    f_zero = calculus.ScalarField(lambda x: np.zeros(np.asarray(x).shape[:-1]), declared_lip=0.0, label="zero")
    traj0 = maximizer.run(f_zero, start, maximizer.MaximizerConfig(max_steps=3, budget=64, seed=seed + 1), cover)
    rep0 = maximizer.verify_trajectory(traj0)
    ledger.count(len(rep0["violations"]))
    ledger.count(not rep0["e_values"][-1] > 0.0)
    # no steps: the starting pair is returned untouched
    trajn = maximizer.run(f0, start, maximizer.MaximizerConfig(max_steps=0, seed=seed), cover)
    ledger.count(len(trajn.states) != 1)
    ledger.count(not np.array_equal(trajn.final_pair().x, start.x))
    return config.max_steps, {"e_values": e_values, "violations": report["violations"], "sigma_last": sigma_last, "shift": shift}


# Each suite states its checks to its ledger and returns (trials, details).
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
    """Run one registered suite, timed, with a deterministic per-suite seed."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; registered: {', '.join(sorted(SUITES))}")
    base = cfg.seed if seed is None else seed
    # a distinct stream per suite, so a suite's results do not depend on which others run
    tag = zlib.crc32(suite.encode("utf-8"))
    sub = int(np.random.SeedSequence([base, tag]).generate_state(1)[0])
    ledger = _Ledger()
    t0 = time.perf_counter()
    trials, details = SUITES[suite](cfg, sub, ledger)
    wall_time_s = time.perf_counter() - t0
    return SuiteResult(suite, trials, ledger.failures, ledger.worst, sub, wall_time_s, details)


def emit_report(results: list, path: str, config: Optional[RunConfig] = None) -> dict:
    """Write the JSON report and CSV sidecars; returns the report dict.

    The JSON payload is byte-deterministic for a fixed config and seed:
    wall times are reported on stdout only, never in the file.
    """
    if not results:
        raise ValueError("no suite results to report")
    report = {
        "schema_version": 1,
        "config": None if config is None else config.to_json(),
        "suites": [r.to_json() for r in sorted(results, key=lambda r: r.suite)],
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
