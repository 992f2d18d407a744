"""Percentile rule, exact brackets inputs, and agreement with BENCHMARK.json and hcalc."""

import json
import os
from fractions import Fraction

import numpy as np
import pytest

import layers
import reference
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize(
    "count, expected",
    [(1000, 99.0), (999, 90.0), (100, 90.0), (99, 50.0), (20, 50.0), (19, None), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert workloads.reportable_percentile(count) == expected


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert workloads.percentile(values, 50.0) == 50
    assert workloads.percentile(values, 99.0) == 99
    assert workloads.percentile(values, 100.0) == 100
    assert workloads.percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        workloads.percentile([], 50.0)


@pytest.mark.parametrize("geometry", list(workloads.GEOMETRIES))
@pytest.mark.parametrize("n", workloads.DIMENSIONS)
def test_pairs_are_exact_and_in_their_class(geometry, n):
    x, y, z = workloads.make_pairs(np.random.default_rng(n), n, geometry, 64)
    exact_y = reference.mul(np.vectorize(Fraction)(x).astype(object), np.vectorize(Fraction)(z).astype(object))
    assert np.all(np.vectorize(Fraction)(y) == exact_y)
    assert np.array_equal(reference.mul(reference.inv(x), y), z)
    D = np.linalg.norm(z[:, :-1], axis=1)
    c = np.abs(z[:, -1])
    if geometry == "vertical":
        assert np.all(D == 0.0) and np.all(c > 0.0)
    elif geometry == "horizontal":
        assert np.all(D > 0.0) and np.all(c == 0.0)
    else:
        assert np.all(D > 0.0) and np.all(c > 0.0)
    if geometry == "saturated":
        assert np.all(c / (4.0 * D * D) > 1e10)
    if geometry == "steep":
        assert np.all((D > 0.4e-4) & (D < 2.1e-4)) and np.all(c / (4.0 * D * D) < 1e10)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.PER_LAYER.items()
    ]
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "peak_rss_mb", "job_s"}


def test_suite_names_match_the_registry():
    from hcalc import suites

    assert tuple(sorted(suites.SUITES)) == layers.SUITE_NAMES


def test_instrument_traces_every_binding_and_restores_hcalc():
    import hcalc
    import hcalc.suites  # noqa: F401  (binds every layer on the package)

    from spans import Tracer

    before = {(layer, k): v for layer in layers.LAYERS for k, v in vars(getattr(hcalc, layer)).items()}
    post_init = hcalc.curves.HorizontalPath.__dict__["__post_init__"]
    tracer = Tracer()
    layers.instrument(tracer, hcalc)
    try:
        assert hcalc.metric.group_mul is not hcalc.group.group_mul  # one wrapper per binding
        x = np.array([0.25, -0.5, 0.125])
        y = np.array([0.75, 0.25, -1.0])
        bounds = hcalc.metric.cc_bounds(x, y)
        hcalc.uds.Cover.build(n=1, height=1, depth=2, max_lines=4)
    finally:
        tracer.uninstall()
    after = {(layer, k): v for layer in layers.LAYERS for k, v in vars(getattr(hcalc, layer)).items()}
    assert after == before
    assert hcalc.curves.HorizontalPath.__dict__["__post_init__"] is post_init
    names = {tracer.names[i] for i in tracer.name_id}
    assert {"metric.cc_bounds", "metric.cc_upper", "group.group_mul", "curves.HorizontalPath.__post_init__",
            "uds.Cover.build", "uds.Cover.__init__", "uds.enumerate_lines"} <= names
    values = layers.layer_metrics(tracer, 2.0, 1.0)
    assert list(values) == list(layers.PER_LAYER)
    assert values["metric.cc_upper.calls"] == 1
    assert values["metric.witness_knots"] == len(bounds.witness.knots)
    assert values["uds.lines_enumerated"] == 5  # Cover.build reads one line past max_lines
    assert values["trace.overhead_frac"] == 1.0
