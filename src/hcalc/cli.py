"""Command line driver: verification suites, distance queries, curve
construction, cover builds and maximizer runs.

Reports are machine-readable (JSON plus CSV sidecars); stdout carries a
human-readable summary only.  Exit status of ``verify`` is zero exactly
when every executed suite passed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys
import time

import click
import numpy as np

from . import calculus, curves, group, maximizer, metric, suites, uds


def _parse_vector(text: str) -> np.ndarray:
    return np.asarray(json.loads(text), dtype=float)


@contextlib.contextmanager
def _usage_errors():
    """Report a ``ValueError`` of bad input as a usage error (exit 2), not a traceback."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _out_option(**kwargs):
    """The ``--out`` option of a command that writes a file.

    A path in a directory that does not exist, or a path that is a
    directory, is a usage error (exit 2) that names it, raised while the
    command line is parsed, before any work.
    """

    def existing_directory(ctx, param, value):
        if value is not None and not os.path.isdir(os.path.dirname(value) or "."):
            raise click.BadParameter(f"the directory of {value!r} does not exist", ctx=ctx, param=param)
        return value

    return click.option("--out", "out_path", type=click.Path(dir_okay=False), callback=existing_directory, **kwargs)


@click.group()
def main():
    """Numerical calculus on the Heisenberg group."""


@main.command()
@click.option("--suite", "suite_names", multiple=True, help="Suite to run (repeatable); default: all registered.")
@click.option("--seed", type=int, default=None, help="Master seed override.")
@click.option("--trials", type=int, default=None, help="Trial-count override for every suite.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="RunConfig JSON.")
@_out_option(default="hcalc_report.json", show_default=True)
def verify(suite_names, seed, trials, config_path, out_path):
    """Run verification suites and write the JSON report."""
    with _usage_errors():
        cfg = suites.RunConfig.load(config_path) if config_path else suites.RunConfig().with_env_overrides()
        overrides = {"seed": seed, "trials": trials}
        cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    names = list(suite_names) if suite_names else sorted(suites.SUITES)
    for name in names:
        if name not in suites.SUITES:
            raise click.ClickException(f"unknown suite {name!r}; registered: {', '.join(sorted(suites.SUITES))}")
    t0 = time.perf_counter()
    results = [suites.run_suite(s, cfg) for s in names]
    report = suites.emit_report(results, out_path, config=cfg)
    for r in sorted(results, key=lambda r: r.suite):
        status = "pass" if r.passed else "FAIL"
        click.echo(
            f"{status}  {r.suite:28s} trials={r.trials:<7d} failures={r.failures:<4d} "
            f"worst_margin={r.worst_margin:.3e}  {r.wall_time_s:.1f}s"
        )
    click.echo(f"aggregate: {'pass' if report['aggregate_pass'] else 'FAIL'} "
               f"({time.perf_counter() - t0:.1f}s total, report at {out_path})")
    sys.exit(0 if report["aggregate_pass"] else 1)


def _bracket(x, y) -> dict:
    """The response record of cc_bounds for two points read from JSON; ValueError on bad input."""
    points = []
    for value in (x, y):
        try:
            point = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            point = None
        if point is None or point.ndim != 1:
            raise ValueError(f"a point must be a flat array of numbers, got {json.dumps(value)}")
        if not np.all(np.isfinite(point)):
            raise ValueError(f"point coordinates must be finite, got {json.dumps(value)}")
        points.append(point)
    b = metric.cc_bounds(*points)
    return {"lower": b.lower, "upper": b.upper}


@main.command()
@click.option("--x", "x_text", default=None, help="Point as a JSON array [a..., b..., c].")
@click.option("--y", "y_text", default=None, help="Point as a JSON array.")
@click.option("--batch", "batch_path", type=click.Path(exists=True), default=None,
              help='JSON-lines file, each line {"x": [...], "y": [...]}.')
@_out_option(default=None, help="Response JSON-lines path.")
def dist(x_text, y_text, batch_path, out_path):
    """Distance bracket for one pair or a batch file.

    A malformed point, points of different lengths, a non-finite
    coordinate, a batch line without "x" and "y", and a pair with no
    witness in floats at x are usage errors (exit 2); a batch names the line.
    """
    if batch_path is not None:
        lines_out = []
        with open(batch_path) as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    if not (isinstance(rec, dict) and "x" in rec and "y" in rec):
                        raise ValueError('need an object {"x": [...], "y": [...]}')
                    lines_out.append(json.dumps(_bracket(rec["x"], rec["y"])))
                except ValueError as exc:
                    raise click.UsageError(f"{batch_path} line {number}: {exc}") from exc
        payload = "\n".join(lines_out) + "\n"
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(payload)
            click.echo(f"{len(lines_out)} brackets written to {out_path}")
        else:
            click.echo(payload, nl=False)
        return
    if x_text is None or y_text is None:
        raise click.UsageError("need --x and --y, or --batch")
    with _usage_errors():
        rec = _bracket(json.loads(x_text), json.loads(y_text))
    click.echo(json.dumps(rec))


@main.group()
def curve():
    """Explicit horizontal curve constructions."""


@curve.command("gamma-y")
@click.option("--y", "y_text", required=True, help="Target point as a JSON array.")
@_out_option(default=None)
def curve_gamma(y_text, out_path):
    """Two-leg curve from the origin to a point with nonzero projection.

    Malformed JSON, a point of even length and a point with zero projection
    are usage errors (exit 2).
    """
    with _usage_errors():
        path = curves.gamma_y(_parse_vector(y_text))
    payload = json.dumps(path.to_json(), sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload + "\n")
        click.echo(f"curve written to {out_path}")
    else:
        click.echo(payload)


@curve.command("modify")
@click.option("--x", "x_text", required=True, help="Base point (JSON array).")
@click.option("--u", "u_text", required=True, help="Detour target in unit coordinates (JSON array).")
@click.option("--direction", "e_text", required=True, help="Unit direction coefficients (JSON array).")
@click.option("--r", type=float, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--eta", type=float, required=True)
@_out_option(default=None)
def curve_modify(x_text, u_text, e_text, r, delta, eta, out_path):
    """Modify the horizontal line through x to pass through x * dil_r(u)."""
    try:
        u = _parse_vector(u_text)
        params = curves.ModifyLineParams(
            x=_parse_vector(x_text), u=u, direction=_parse_vector(e_text),
            r=r, delta=delta, eta=eta, cc_bound_of_u=float(metric.cc_upper_quick(u)),
        )
        path, zeta = curves.modify_line(params)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    payload = json.dumps({"zeta": zeta, "path": path.to_json()}, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload + "\n")
        click.echo(f"curve written to {out_path} (zeta={zeta:g})")
    else:
        click.echo(payload)


@main.group("uds")
def uds_group():
    """Tube covers over rational horizontal lines."""


@uds_group.command("build")
@click.option("--n", type=int, default=1, show_default=True)
@click.option("--height", type=int, default=8, show_default=True)
@click.option("--depth", type=int, default=12, show_default=True)
@click.option("--max-lines", type=int, default=96, show_default=True)
@click.option("--clip", type=float, default=10.0, show_default=True)
@_out_option(default="cover_manifest.json", show_default=True)
def uds_build(n, height, depth, max_lines, clip, out_path):
    """Build a cover and write its manifest."""
    with _usage_errors():
        cover = uds.Cover.build(n=n, height=height, depth=depth, clip_half_width=clip, max_lines=max_lines)
    cover.save_manifest(out_path)
    click.echo(f"{len(cover.lines)} lines, depth {depth}; manifest at {out_path}")


@uds_group.command("measure")
@click.option("--n", type=int, default=1, show_default=True)
@click.option("--height", type=int, default=8, show_default=True)
@click.option("--depth", type=int, default=12, show_default=True)
@click.option("--max-lines", type=int, default=96, show_default=True)
@click.option("--level", type=int, default=6, show_default=True)
@click.option("--samples", type=int, default=100_000, show_default=True)
@click.option("--region-half-width", type=float, default=2.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def uds_measure(n, height, depth, max_lines, level, samples, region_half_width, seed):
    """Monte-Carlo volume of a tube union level."""
    with _usage_errors():
        cover = uds.Cover.build(n=n, height=height, depth=depth, max_lines=max_lines)
        est, (lo, hi) = cover.cover_measure_mc(level, uds.Box.cube(region_half_width, n), samples, seed)
    click.echo(json.dumps({
        "level": level, "estimate": est, "ci95": [lo, hi], "analytic_bound": 2.0**-level,
    }, sort_keys=True))


@uds_group.command("query")
@click.option("--point", "point_text", required=True, help="Point as a JSON array.")
@click.option("--level", type=int, required=True)
@click.option("--n", type=int, default=1, show_default=True)
@click.option("--height", type=int, default=8, show_default=True)
@click.option("--depth", type=int, default=12, show_default=True)
@click.option("--max-lines", type=int, default=96, show_default=True)
def uds_query(point_text, level, n, height, depth, max_lines):
    """Cover membership of a point at a level."""
    with _usage_errors():
        cover = uds.Cover.build(n=n, height=height, depth=depth, max_lines=max_lines)
        member = cover.contains(_parse_vector(point_text), level)
    click.echo(json.dumps({"member": bool(member), "level": level}))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help='Maximizer config JSON: any of "seed", "max_steps" and "budget".')
@_out_option(default="trajectory.jsonl", show_default=True)
def maximize(config_path, out_path):
    """Run the derivative-maximization iteration on the default linear field."""
    n = 1
    with _usage_errors():
        kwargs = {}
        if config_path:
            with open(config_path) as fh:
                kwargs = json.load(fh)
        config = maximizer.MaximizerConfig.from_json(kwargs)
        # the cover has a level per step: too many steps for its deepest build is a usage error
        cover = uds.Cover.build(n=n, height=2, depth=max(config.max_steps + 2, 12), max_lines=64)
    e1 = np.zeros(2 * n)
    e1[0] = 1.0
    f0 = calculus.hlinear_field(group.HLinearMap(0.5, e1))
    start = maximizer.Pair(np.zeros(2 * n + 1), e1)  # run checks its cover membership
    traj = maximizer.run(f0, start, config, cover)
    traj.write_jsonl(out_path)
    report = maximizer.verify_trajectory(traj)
    click.echo(json.dumps({
        "steps": len(traj.states) - 1,
        "final_derivative": report["e_values"][-1],
        "violations": report["violations"],
        "clean": report["clean"],
        "trajectory": out_path,
    }, sort_keys=True))
    sys.exit(0 if report["clean"] else 1)


# the fields of a suite record, their JSON types (a bool is none of them) and
# their names in a usage error
_RECORD_FIELDS = {
    "suite": (str, "a string"),
    "trials": (int, "an integer"),
    "failures": (int, "an integer"),
    "worst_margin": ((int, float), "a number"),
    "seed": (int, "an integer"),
}


@main.command()
@click.option("--from", "from_path", type=click.Path(exists=True), required=True,
              help="Existing report JSON.")
@_out_option(required=True)
def report(from_path, out_path):
    """Re-emit a report (and its CSV sidecars) from an existing report file.

    Malformed JSON, input that is not a JSON object, a ``suites`` entry
    that is not a list of objects, a suite record missing a field or
    holding one of the wrong type, and a config block that is not an
    object or names a field ``RunConfig`` does not have are usage errors
    (exit 2).
    """
    with _usage_errors():
        with open(from_path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"a report is a JSON object, got {type(data).__name__}")
        records = data.get("suites", [])
        if not (isinstance(records, list) and all(isinstance(rec, dict) for rec in records)):
            raise ValueError("'suites' must be a list of suite records (JSON objects)")
        if data.get("config") and not isinstance(data["config"], dict):
            raise ValueError("'config' must be a JSON object")
        for rec in records:
            for name, (kinds, what) in _RECORD_FIELDS.items():
                if name not in rec:
                    raise ValueError(f"a suite record has no {name!r} field")
                if isinstance(rec[name], bool) or not isinstance(rec[name], kinds):
                    raise ValueError(f"a suite record's {name!r} must be {what}, got {json.dumps(rec[name])}")
        results = [
            suites.SuiteResult(**{name: rec[name] for name in _RECORD_FIELDS}, wall_time_s=0.0,
                               details=rec.get("details", {}))
            for rec in records
        ]
        cfg = suites.RunConfig.from_json(data["config"]) if data.get("config") else None
    if not results:
        raise click.ClickException("no suite records in the input report")
    out = suites.emit_report(results, out_path, config=cfg)
    click.echo(f"aggregate: {'pass' if out['aggregate_pass'] else 'FAIL'}; report at {out_path}")


if __name__ == "__main__":
    main()
