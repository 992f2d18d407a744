"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one ``PASS``/``FAIL`` line (run with ``pytest -s`` to see
them live).  The full default suite battery runs once in a module fixture;
criterion 13 re-runs it to check wall time and byte-identical reports.
"""

import math
import time

import pytest

from hcalc.maximizer import MU, MaximizerConfig
from hcalc.suites import SUITES, RunConfig, emit_report, run_suite

CONFIG = RunConfig()  # the default configuration is the acceptance target


def _show(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  {criterion}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def battery():
    results = {}
    t0 = time.perf_counter()
    for name in sorted(SUITES):
        results[name] = run_suite(name, CONFIG)
    results["_wall"] = time.perf_counter() - t0
    return results


def test_criterion_01_group_axioms(battery):
    r = battery["group"]
    ok = r.failures == 0 and r.trials >= 10_000 and r.worst_margin >= 0 and r.wall_time_s < 5.0
    _show(
        "criterion 1: group axioms + line-translation identity at 1e-10 over 1e4 draws, < 5 s",
        ok,
        f"failures={r.failures}, margin={r.worst_margin:.2e}, {r.wall_time_s:.2f}s",
    )


def test_criterion_02_lift_identity(battery):
    r = battery["lift"]
    ok = r.failures == 0 and r.details["circle_error"] <= 1e-6 and r.details["fd_residual_max"] <= 1e-6
    _show(
        "criterion 2: lift identity residual <= 1e-6; circle height -4*pi to 1e-6 at 1e4 segments",
        ok,
        f"circle_err={r.details['circle_error']:.2e}, fd={r.details['fd_residual_max']:.2e}",
    )


def test_criterion_03_line_bracket_collapse(battery):
    r = battery["horizontaldistances"]
    ok = r.failures == 0 and r.trials >= 1000 and r.worst_margin >= 0
    _show(
        "criterion 3: bracket collapses to |t| omega(E) within 1e-9 on 1e3 draws",
        ok,
        f"failures={r.failures}, margin={r.worst_margin:.2e}",
    )


def test_criterion_04_connecting_curve(battery):
    r = battery["goodcurve"]
    ok = r.failures == 0 and r.trials >= 10_000 and r.worst_margin >= 0
    _show(
        "criterion 4: two-leg curve posts (endpoint, speed, deviation) on 1e4 draws; sqrt(6)/sqrt(5) example",
        ok,
        f"failures={r.failures}, margin={r.worst_margin:.2e}",
    )


def test_criterion_05_holder_comparison(battery):
    r = battery["holder"]
    lo, hi = r.details["vertical_ratio_range"]
    ok = r.failures == 0 and r.trials >= 10_000 and 1.0 - 1e-9 <= lo and hi <= math.sqrt(math.pi) + 1e-4
    _show(
        "criterion 5: both Euclidean-comparison inequalities with one fitted constant;"
        " vertical ratio bounded over eps in [1e-6, 1e-1]",
        ok,
        f"C_H={r.details['c_holder']:.3f}, vertical ratios in [{lo:.6f}, {hi:.6f}]",
    )


def test_holder_vertical_ratio_is_the_closed_form(battery):
    # d((0, 0), (0, eps)) = sqrt(pi eps), and the certified closed form is
    # within 1e-14 of it; a 1024-gon's length is 1.6e-6 above
    lo, hi = battery["holder"].details["vertical_ratio_range"]
    assert lo == 1.0
    assert math.sqrt(math.pi) <= hi <= math.sqrt(math.pi) * (1.0 + 1e-14)


def test_criterion_06_distance_expansion(battery):
    r = battery["differentiabilityofdistance"]
    sups = [r.details["residual_sups"][k] for k in ("0.1", "0.01", "0.001", "0.0001")]
    ok = (
        r.failures == 0
        and all(b < a for a, b in zip(sups, sups[1:]))
        and sups[-1] <= 1e-2
        and r.worst_margin >= -1e-9
    )
    _show(
        "criterion 6: distance lower expansion holds (margin >= -1e-9); residual decays below 1e-2",
        ok,
        "residuals " + " > ".join(f"{s:.2e}" for s in sups),
    )


def test_criterion_07_maximal_derivative_residual(battery):
    r = battery["maximality"]
    ok = r.failures == 0 and r.details["residuals"][-1] <= 1e-3 and r.details["radii"][-1] == 1e-4
    _show(
        "criterion 7: perturbed-homomorphism residual < 1e-3 at radius 1e-4",
        ok,
        f"residual={r.details['residuals'][-1]:.2e}",
    )


def test_criterion_08_line_modification(battery):
    r = battery["newcurveg"]
    fits = r.details["c_modify_per_seed"]
    spread = (max(fits) - min(fits)) / max(fits)
    ok = r.failures == 0 and r.trials >= 1000 and spread <= 0.10
    _show(
        "criterion 8: all four modification posts on 1e3 draws; rational outputs in cover;"
        " fitted constant stable",
        ok,
        f"C_m={r.details['c_modify']:.3f}, seed spread={spread:.1%}",
    )


def test_criterion_09_close_directions(battery):
    r = battery["closedirection"]
    fits = r.details["c_angle_per_seed"]
    spread = (max(fits) - min(fits)) / max(fits)
    ok = r.failures == 0 and spread <= 0.10
    _show(
        "criterion 9: divergence bound with fitted constant on 1e3 pairs; stable across seeds",
        ok,
        f"C_a={r.details['c_angle']:.3f}, seed spread={spread:.1%}",
    )


def test_criterion_10_mean_value_search(battery):
    r = battery["meanvalue"]
    ok = r.failures == 0 and r.trials >= 100
    _show(
        "criterion 10: mean-value search satisfies both conclusions on 100 instances, zero failures",
        ok,
        f"failures={r.failures}",
    )


def test_criterion_11_maximization_run(battery):
    r = battery["algorithm"]
    ok = (
        r.failures == 0
        and not r.details["violations"]
        and r.details["shift"] <= MU
        and len(r.details["e_values"]) == MaximizerConfig().max_steps + 1
    )
    _show(
        "criterion 11: 10-step run verifies clean (nesting, schedules, drift, monotone derivative)",
        ok,
        f"final derivative={r.details['e_values'][-1]:.6f}, shift={r.details['shift']:.3f}",
    )


def test_criterion_12_tube_cover(battery):
    r = battery["uds"]
    man = r.details["manifest"]
    bounds_ok = all(b <= 2.0**-k for k, b in enumerate(man["volume_bounds"], start=1))
    mc = r.details["mc"]
    ok = r.failures == 0 and bounds_ok and man["depth"] >= 12 and mc["ci"][0] <= mc["bound"]
    _show(
        "criterion 12: analytic tube volume <= 2^-k for k <= 12; MC CI consistent at 1e5 samples;"
        " nesting clean on 1e4 points",
        ok,
        f"mc estimate={mc['estimate']:.2e} vs bound={mc['bound']:.2e}",
    )


def test_criterion_13_end_to_end_determinism(battery, tmp_path):
    wall_first = battery["_wall"]
    results_a = [battery[name] for name in sorted(SUITES)]
    t0 = time.perf_counter()
    results_b = [run_suite(name, CONFIG) for name in sorted(SUITES)]
    wall_second = time.perf_counter() - t0
    path_a, path_b = tmp_path / "report_a.json", tmp_path / "report_b.json"
    rep_a = emit_report(results_a, str(path_a), config=CONFIG)
    rep_b = emit_report(results_b, str(path_b), config=CONFIG)
    identical = path_a.read_bytes() == path_b.read_bytes()
    ok = rep_a["aggregate_pass"] and rep_b["aggregate_pass"] and identical and max(wall_first, wall_second) < 600.0
    _show(
        "criterion 13: default run passes, repeats bit-identically, finishes under 10 minutes",
        ok,
        f"walls {wall_first:.0f}s/{wall_second:.0f}s, identical={identical}",
    )
