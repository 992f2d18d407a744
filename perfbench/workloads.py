"""The three workloads: inputs made from the workload seed, one pass of the
job, and the correctness checks on every output.

Each workload object makes its inputs in ``__init__`` (untimed), then runs
``run_pass`` any number of times.  A pass does the same fixed job every
time: hcalc receives the same inputs, so counts taken in a traced pass
repeat exactly.  Only the calls into hcalc are timed; checks run outside
the timed regions.  ``figures`` turns the pass timings into the named
metrics the workload reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from fractions import Fraction

import numpy as np

import reference

# -- percentiles ----------------------------------------------------------------

PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def _rank(p: float, count: int) -> int:
    """1-based nearest rank of the p-th percentile among ``count`` samples."""
    return max(1, math.ceil(Fraction(p).limit_denominator(1000) * count / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def reportable_percentile(count: int) -> float | None:
    """The highest of PERCENTILES with at least ten samples beyond it, or None."""
    ok = [p for p in PERCENTILES if count - _rank(p, count) >= 10]
    return max(ok) if ok else None


class Checks:
    """Named correctness checks: how many outputs each looked at and how many failed."""

    def __init__(self):
        self.attempted: dict = {}
        self.failed: dict = {}

    def record(self, name: str, attempted: int, failed: int) -> None:
        self.attempted[name] = self.attempted.get(name, 0) + int(attempted)
        self.failed[name] = self.failed.get(name, 0) + int(failed)

    def totals(self) -> tuple:
        return sum(self.attempted.values()), sum(self.failed.values())


def _median(values) -> float:
    return float(np.median(values))


# -- verify -----------------------------------------------------------------------


class Verify:
    """The default battery of every registered suite, then the report.

    The timed job makes the calls ``hcalc verify --jobs 1`` makes, with the
    default ``RunConfig``.  Its seed stays at the default: at other seeds some
    suites fail and the maximizer in ``algorithm`` can exhaust its delta
    search, which stretches the battery from about 28 s to 52 s.  Those
    suites are re-run untimed at the workload seed (``SEEDED_RECHECK``), so
    their seed-dependent failures still count.
    """

    name = "verify"

    def __init__(self, hcalc, seed: int, out_dir: str):
        self.suites = hcalc.suites
        self.cfg = self.suites.RunConfig()
        self.seeded_cfg = self.suites.RunConfig(seed=seed)
        self.names = sorted(self.suites.SUITES)
        self.report_path = os.path.join(out_dir, "verify_report.json")
        self.checks = Checks()
        self.passes = []
        self.report_sha256 = []

    def run_pass(self) -> dict:
        t0 = time.perf_counter()
        results = [self.suites.run_suite(name, self.cfg) for name in self.names]
        t1 = time.perf_counter()
        report = self.suites.emit_report(results, self.report_path, config=self.cfg)
        t2 = time.perf_counter()
        for r in results:
            self.checks.record(f"suite {r.suite} passed", 1, not r.passed)
        self.checks.record("aggregate_pass agrees", 1, report["aggregate_pass"] != all(r.passed for r in results))
        with open(self.report_path, "rb") as fh:
            self.report_sha256.append(hashlib.sha256(fh.read()).hexdigest())
        # the report is byte-deterministic for a fixed seed, traced or not
        self.checks.record("report identical across passes", 1, self.report_sha256[-1] != self.report_sha256[0])
        if not self.passes:
            # once per run, so a traced pass (never the first) does not see it
            for name in SEEDED_RECHECK:
                result = self.suites.run_suite(name, self.seeded_cfg)
                self.checks.record(f"suite {name} passed at the workload seed", 1, not result.passed)
        timing = {"job_s": t2 - t0, "emit_report_s": t2 - t1, **{f"suite.{r.suite}_s": r.wall_time_s for r in results}}
        self.passes.append(timing)
        return timing

    def figures(self) -> dict:
        return {
            "verify_s": (_median([p["job_s"] for p in self.passes]), "s"),
            **{k: (_median([p[k] for p in self.passes]), "s") for k in self.passes[0] if k.startswith("suite.")},
            "emit_report_s": (_median([p["emit_report_s"] for p in self.passes]), "s"),
            "report_sha256": (self.report_sha256[-1], ""),
        }


# Suites observed to fail at some seeds: holder, meanvalue and newcurveg test
# a statistic of a random sample against a fixed threshold, and algorithm
# runs the maximizer, whose delta search can run out of halvings.
SEEDED_RECHECK = ("algorithm", "holder", "meanvalue", "newcurveg")


# -- brackets ---------------------------------------------------------------------

# Pair geometries: |p| range and quantum, |c| range and quantum of the
# relative position z = x^-1 y.  Base points x have every coordinate in
# [-1, 1] on a 2^-4 grid.  The quanta keep every intermediate of x * z and of
# x^-1 y exactly representable (see _require_exact), so hcalc sees exactly
# the z the reference distance is computed for.
GEOMETRIES = {
    "generic": (0.05, 1.5, 2.0**-12, 0.01, 2.0, 2.0**-24),
    "vertical": (0.0, 0.0, 1.0, 0.01, 2.0, 2.0**-24),  # D = 0
    "horizontal": (0.05, 1.5, 2.0**-12, 0.0, 0.0, 1.0),  # c = 0: a horizontal segment
    "steep": (0.5e-4, 2e-4, 2.0**-30, 0.25, 2.0, 2.0**-24),  # |p| ~ 1e-4
    "saturated": (0.5e-6, 2e-6, 2.0**-40, 0.25, 2.0, 2.0**-24),  # |c| / (4 D^2) > 1e10
    "tiny": (0.05e-6, 1.5e-6, 2.0**-40, 0.05e-12, 2e-12, 2.0**-46),  # scale 1e-6
    "large": (0.05 * 2**10, 1.5 * 2**10, 2.0**-2, 0.01 * 2**20, 2.0 * 2**20, 1.0),  # scale 2^10
}
X_QUANTUM = 2.0**-4
DIMENSIONS = (1, 2, 3)
SINGLE_PER_CLASS = 24  # pairs per (n, geometry) answered one at a time with a witness
BATCH_PER_CLASS = 8192  # pairs per (n, geometry) on the witness-free batch path
BATCH_CHUNK = 4096


def _require_exact(x: np.ndarray, y: np.ndarray, z: np.ndarray, quantum: float) -> None:
    """Raise unless x * z and x^-1 y are exact in double precision.

    Every coordinate is a multiple of ``quantum``, and so is every product
    and partial sum in the group law; all of them are bounded by M below.
    When M < 2^52 quantum, every one is an integer multiple of the quantum
    below 2^52 of them, so no step rounds, in any evaluation order.
    """
    n = (x.shape[-1] - 1) // 2
    ax, bx, ay, by, az, bz = (abs(v[:, sl]) for v in (x, y, z) for sl in (slice(0, n), slice(n, 2 * n)))
    products = np.sum(ax * by + bx * ay + ax * bz + bx * az, axis=1)
    bound = (abs(x[:, -1]) + abs(y[:, -1]) + abs(z[:, -1]) + 2.0 * products
             + np.max(abs(x[:, :-1]), axis=1) + np.max(abs(y[:, :-1]), axis=1) + np.max(abs(z[:, :-1]), axis=1))
    if np.any(bound >= 2.0**52 * quantum):
        raise RuntimeError("brackets inputs are not exactly representable; the geometry table is wrong")


def make_pairs(rng: np.random.Generator, n: int, geometry: str, count: int):
    """(x, y, z) with y = x * z exactly, for one geometry class in H^n."""
    p_lo, p_hi, qp, c_lo, c_hi, qc = GEOMETRIES[geometry]
    direction = rng.standard_normal((count, 2 * n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    p = np.round(direction * rng.uniform(p_lo, p_hi, count)[:, None] / qp) * qp
    c = np.round(rng.choice([-1.0, 1.0], count) * rng.uniform(c_lo, c_hi, count) / qc) * qc
    z = np.concatenate([p, c[:, None]], axis=1)
    x = np.round(rng.uniform(-1.0, 1.0, (count, 2 * n + 1)) / X_QUANTUM) * X_QUANTUM
    y = reference.mul(x, z)
    _require_exact(x, y, z, min(X_QUANTUM * X_QUANTUM, X_QUANTUM * qp, qp, qc))
    return x, y, z


def _mix(rng: np.random.Generator, per_class: int):
    """Every (n, geometry) stratum, shuffled into one order; grouped by n."""
    by_n = {}
    for n in DIMENSIONS:
        parts = [make_pairs(rng, n, g, per_class) for g in GEOMETRIES]
        x, y, z = (np.concatenate(arrs) for arrs in zip(*parts))
        labels = np.repeat(np.array(list(GEOMETRIES)), per_class)
        order = rng.permutation(len(x))
        ref = reference.cc_norm(np.linalg.norm(z[:, :-1], axis=1), z[:, -1])
        by_n[n] = (x[order], y[order], ref[order], labels[order])
    return by_n


def witness_errors(witness, x: np.ndarray, y: np.ndarray, upper: float, dist: float) -> float:
    """Largest ratio of a witness defect to its tolerance; <= 1 passes.

    Defects: start != x, end != y, and horizontal length != upper.  The
    endpoint tolerances allow the rounding of the lift's running height sum,
    which scales with the length and with the base point's size.
    """
    eps = np.finfo(float).eps
    start = np.append(witness.planar[0], witness.heights[0])
    end = np.append(witness.planar[-1], witness.heights[-1])
    size_p = float(np.max(abs(x[:-1])) + np.max(abs(y[:-1])))
    size_c = float(abs(x[-1]) + abs(y[-1]) + size_p * size_p)
    tol_p = 1e-9 * dist + 64.0 * eps * size_p
    tol_c = 1e-9 * dist * (dist + size_p) + 64.0 * eps * size_c * len(witness.knots)
    worst = 0.0
    for got, want in ((start, x), (end, y)):
        worst = max(worst, float(np.max(abs(got[:-1] - want[:-1]))) / tol_p, abs(got[-1] - want[-1]) / tol_c)
    length = float(np.sum(np.linalg.norm(np.diff(witness.planar, axis=0), axis=1)))
    return float(max(worst, abs(length - upper) / (1e-12 * max(upper, 1e-300))))


class Brackets:
    """Single-pair ``cc_bounds`` queries, then the witness-free batch path, on one mix.

    Every bracket must contain the closed-form distance of
    :mod:`reference` up to ``reference.REL_SLACK``; every witness must join
    x to y and have length ``upper``.
    """

    name = "brackets"

    def __init__(self, hcalc, seed: int, out_dir: str):
        self.metric = hcalc.metric
        rng = np.random.default_rng([seed, 1])
        self.single = _mix(rng, SINGLE_PER_CLASS)
        self.batch = _mix(rng, BATCH_PER_CLASS)
        self.checks = Checks()
        self.latencies_s = {g: [] for g in GEOMETRIES}
        self.passes = []
        self.worst_gap = {"lower": -math.inf, "upper": math.inf, "witness": 0.0}

    def _check_bracket(self, name: str, lower, upper, ref) -> None:
        lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
        ok = np.isfinite(lower) & np.isfinite(upper) & (lower <= upper * (1.0 + 1e-12))
        ok &= lower <= ref * (1.0 + reference.REL_SLACK)
        ok &= upper >= ref * (1.0 - reference.REL_SLACK)
        self.checks.record(name, ok.size, int(np.sum(~ok)))
        self.worst_gap["lower"] = max(self.worst_gap["lower"], float(np.max(lower / ref - 1.0)))
        self.worst_gap["upper"] = min(self.worst_gap["upper"], float(np.min(upper / ref - 1.0)))

    def run_pass(self) -> dict:
        cc_bounds = self.metric.cc_bounds
        clock = time.perf_counter
        single_s = 0.0
        for xs, ys, refs, labels in self.single.values():
            lowers, uppers, defects = [], [], []
            for x, y, ref, label in zip(xs, ys, refs, labels):
                t0 = clock()
                b = cc_bounds(x, y)
                dt = clock() - t0
                single_s += dt
                self.latencies_s[label].append(dt)
                lowers.append(b.lower)
                uppers.append(b.upper)
                defects.append(witness_errors(b.witness, x, y, b.upper, ref))
            self._check_bracket("single bracket contains reference", lowers, uppers, refs)
            self.checks.record("witness joins x to y with length upper", len(xs), sum(d > 1.0 for d in defects))
            self.worst_gap["witness"] = max(self.worst_gap["witness"], max(defects))
        batch_s = 0.0
        for xs, ys, refs, _ in self.batch.values():
            for i in range(0, len(xs), BATCH_CHUNK):
                x, y = xs[i : i + BATCH_CHUNK], ys[i : i + BATCH_CHUNK]
                t0 = clock()
                lower = self.metric.cc_lower_batch(x, y)
                upper = self.metric.cc_upper_value_batch(self.metric.group_mul(self.metric.group_inv(x), y))
                batch_s += clock() - t0
                self._check_bracket("batch bracket contains reference", lower, upper, refs[i : i + BATCH_CHUNK])
        timing = {"job_s": single_s + batch_s, "single_s": single_s, "batch_s": batch_s}
        self.passes.append(timing)
        return timing

    def figures(self) -> dict:
        singles = sum(len(v[0]) for v in self.single.values())
        batches = sum(len(v[0]) for v in self.batch.values())
        lat_ms = [1e3 * t for ts in self.latencies_s.values() for t in ts]
        top = reportable_percentile(len(lat_ms))
        out = {
            "brackets_per_s": (singles / _median([p["single_s"] for p in self.passes]), "1/s"),
            "bracket_p50_ms": (percentile(lat_ms, 50.0), "ms"),
        }
        if top is not None and top > 50.0:
            out[f"bracket_p{top:g}_ms"] = (percentile(lat_ms, top), "ms")
        out["bracket_samples"] = (len(lat_ms), "count")
        for geometry, ts in self.latencies_s.items():
            out[f"bracket_p50_ms.{geometry}"] = (1e3 * percentile(ts, 50.0), "ms")
        out["batch_brackets_per_s"] = (batches / _median([p["batch_s"] for p in self.passes]), "1/s")
        out["worst_lower_gap"] = (self.worst_gap["lower"], "ratio")
        out["worst_upper_gap"] = (self.worst_gap["upper"], "ratio")
        out["worst_witness_defect"] = (self.worst_gap["witness"], "of tolerance")
        return out


# -- cover -------------------------------------------------------------------------

BUILDS = (
    {"n": 1, "height": 8, "depth": 12, "max_lines": 96},
    {"n": 2, "height": 8, "depth": 12, "max_lines": 96},
    # fails today: NaN volume bounds once the radii go subnormal (ROADMAP item 4)
    {"n": 1, "height": 8, "depth": 12, "max_lines": 1100},
)
MC_LEVEL = 6
MC_SAMPLES = 50_000
MC_HALF_WIDTH = 2.0
# Seed 0 is what ``hcalc maximize`` runs by default.  The maximizer's delta
# search runs out of halvings for some seeds (3 of seeds 0-59) and a run
# then takes 12-34 s instead of 0.3 s, so the seeds are fixed rather than
# drawn from the workload seed; verify re-checks the maximizer at the
# workload seed through the algorithm suite.
MAXIMIZE_SEEDS = (0, 1, 2, 3)


class Cover:
    """Tube covers: build (writes covers), Monte-Carlo query (reads them), maximize.

    The maximize inputs are those of ``hcalc maximize`` and the ``algorithm``
    suite: the linear field of Lipschitz constant 1/2 along e1, started at
    the origin, on the 64-line height-2 cover the command builds.  The
    workload seed drives the Monte-Carlo points.
    """

    name = "cover"

    def __init__(self, hcalc, seed: int, out_dir: str):
        self.hcalc = hcalc
        self.mc_seed = int(np.random.SeedSequence([seed, 2]).generate_state(1)[0])
        self.out_dir = out_dir
        self.checks = Checks()
        self.passes = []
        self.defects = {}

    def _check_manifest(self, index: int, path: str) -> None:
        with open(path) as fh:
            manifest = json.load(fh)
        bounds = np.asarray(manifest["volume_bounds"], dtype=float)
        targets = np.asarray(manifest["volume_targets"], dtype=float)
        nonfinite = int(np.sum(~np.isfinite(bounds)))
        over = int(np.sum(bounds > targets))
        self.defects[f"build {index}: non-finite volume bounds"] = nonfinite
        self.defects[f"build {index}: bounds above 2^-k"] = over
        self.checks.record(f"manifest {index} volume bounds finite and within 2^-k", 1, nonfinite + over > 0)

    def run_pass(self) -> dict:
        uds, maximizer = self.hcalc.uds, self.hcalc.maximizer
        clock = time.perf_counter
        covers, build_s = [], 0.0
        for i, spec in enumerate(BUILDS):
            path = os.path.join(self.out_dir, f"cover_manifest_{i}.json")
            t0 = clock()
            cover = uds.Cover.build(**spec)
            cover.save_manifest(path)
            build_s += clock() - t0
            self._check_manifest(i, path)
            self.defects[f"build {i}: lines with zero level-1 radius"] = int(np.sum(cover.radii(1) == 0.0))
            covers.append(cover)
        query_s = 0.0
        for cover in covers[:2]:
            region = uds.Box.cube(MC_HALF_WIDTH, cover.n)
            t0 = clock()
            _, (ci_lo, _) = cover.cover_measure_mc(MC_LEVEL, region, MC_SAMPLES, self.mc_seed)
            query_s += clock() - t0
            self.checks.record(f"MC lower end at level {MC_LEVEL} within 2^-{MC_LEVEL}", 1, ci_lo > 2.0**-MC_LEVEL)
        t0 = clock()
        runs = self._maximize()
        maximize_s = clock() - t0
        self.checks.record("trajectory has no violations", len(runs), sum(not r["clean"] for r in runs))
        timing = {"job_s": build_s + query_s + maximize_s, "build_s": build_s, "query_s": query_s,
                  "maximize_s": maximize_s}
        self.passes.append(timing)
        return timing

    def _maximize(self) -> list:
        hc = self.hcalc
        e1 = np.array([1.0, 0.0])
        f0 = hc.calculus.hlinear_field(hc.group.HLinearMap(0.5, e1))
        reports = []
        for seed in MAXIMIZE_SEEDS:
            config = hc.maximizer.MaximizerConfig(seed=seed)
            cover = hc.uds.Cover.build(n=1, height=2, depth=max(config.max_steps + 2, 12), max_lines=64)
            start = hc.maximizer.Pair.in_cover(np.zeros(3), e1, cover, min(config.uds_level, cover.depth))
            traj = hc.maximizer.run(f0, start, config, cover)
            reports.append(hc.maximizer.verify_trajectory(traj))
        return reports

    def figures(self) -> dict:
        med = {k: _median([p[k] for p in self.passes]) for k in ("build_s", "query_s", "maximize_s")}
        return {
            "cover_build_s": (med["build_s"], "s"),
            "mc_points_per_s": (2 * MC_SAMPLES / med["query_s"], "1/s"),
            "maximize_s": (med["maximize_s"], "s"),
            **{k: (v, "count") for k, v in self.defects.items()},
        }


WORKLOADS = {cls.name: cls for cls in (Verify, Brackets, Cover)}

# Failures the benchmark expects at the seed commit.  They still count in
# ``failed``, but they alone do not make a run incorrect.  Remove an entry
# once its defect is fixed.
KNOWN_DEFECTS = {
    "verify": {f"suite {name} passed at the workload seed" for name in SEEDED_RECHECK},
    # the 1100-line build writes NaN volume bounds once its radii go subnormal
    "cover": {"manifest 2 volume bounds finite and within 2^-k"},
}
