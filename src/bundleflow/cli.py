"""Command-line front end: config loading, run persistence, static plots.

Verbs:

    bundleflow run <config.json> [--out DIR]
    bundleflow analyze <rundir>
    bundleflow plot <rundir> [--field NAME]

Exit codes: 0 on success, 2 on validation failures (bad config, bad initial
data, malformed run directory), 3 when the integrator halts abnormally (a
partial trace is still persisted).

A run directory contains trace.csv and boundary.csv (fixed column
contracts), snapshots/snap_NNNNN.json, report.json, config.json (the
validated input config, byte-preserved for reproducibility) and
manifest.json with sha256 digests of every artifact.  All floats are
written with Python repr, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (FlowTrace, SingularityReport, analyze_run,
                       boundary_columns, li_yau_monitor, trace_columns)
from .evolution import FlowConfig, FlowHalt, InvalidInitialState, arclength, \
    run_flow
from .geometry import BundleSpec, ProfileState
from .initial_data import (PRESETS, ProfileTemplate, build_general_profile,
                           build_kahler_profile)

TOP_SECTIONS = {"bundle", "initial", "flow", "analysis", "output"}
ANALYSIS_DEFAULTS = {"plateau_factor": 2.0, "decades": 2.0,
                     "floor_multiple": 10.0, "liyau_c0": None}

SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
              "#8c564b"]


class ConfigError(ValueError):
    """Configuration rejected; message carries the offending field path."""


@dataclass
class RunConfig:
    """Validated run description with defaults applied."""

    spec: BundleSpec
    state0: ProfileState
    flow: FlowConfig
    analysis: dict
    out_dir: str
    raw: dict


def _expect_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    return obj


def _reject_unknown(obj, allowed, path):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key '{path}.{unknown[0]}'"
                          if path else f"unknown key '{unknown[0]}'")


def _number(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path} must be a number")
    # JSON integers are unbounded; one past the float range is infinite.
    v = float(v) if abs(v) <= sys.float_info.max else math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{path} must be a finite number")
    return v


def _integer(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path} must be an integer")
    # The flow computes with integers as floats.
    if abs(v) > sys.float_info.max:
        raise ConfigError(f"{path} is too large")
    return v


def _number_list(v, path):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path} must be a nonempty array of numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _parse_bundle(section):
    b = _expect_mapping(section, "bundle")
    _reject_unknown(b, {"n", "k", "q", "lambda"}, "bundle")
    for key in ("n", "k", "q"):
        if key not in b:
            raise ConfigError(f"bundle.{key} is required")
    n = [_integer(v, f"bundle.n[{i}]") for i, v in enumerate(b["n"])] \
        if isinstance(b["n"], list) and b["n"] else None
    if n is None:
        raise ConfigError("bundle.n must be a nonempty array of integers")
    q = [_integer(v, f"bundle.q[{i}]") for i, v in enumerate(b["q"])] \
        if isinstance(b["q"], list) and b["q"] else None
    if q is None:
        raise ConfigError("bundle.q must be a nonempty array of integers")
    for i, v in enumerate(q):
        if v == 0:
            raise ConfigError(f"bundle.q[{i}] must be nonzero")
    k = _number_list(b["k"], "bundle.k")
    lam = None
    if "lambda" in b:
        lam = _number_list(b["lambda"], "bundle.lambda")
    try:
        return BundleSpec(n=tuple(n), k=tuple(k), q=tuple(q),
                          lam=None if lam is None else tuple(lam))
    except ValueError as exc:
        raise ConfigError(f"bundle: {exc}") from exc


def _parse_flow(section):
    fl = _expect_mapping(section, "flow")
    allowed = {"cells", "cfl", "t_end", "stop_floor", "snapshot_every",
               "regrid_threshold", "trace_every"}
    _reject_unknown(fl, allowed, "flow")
    kwargs = {}
    for key in ("cells", "snapshot_every", "trace_every"):
        if key in fl:
            kwargs[key] = _integer(fl[key], f"flow.{key}")
    for key in ("cfl", "t_end", "stop_floor", "regrid_threshold"):
        if key in fl:
            kwargs[key] = _number(fl[key], f"flow.{key}")
    try:
        return FlowConfig(**kwargs)
    except ValueError as exc:
        # FlowConfig's messages begin with the offending field's name.
        raise ConfigError(f"flow.{exc}") from exc


def _parse_template(section, spec, cells):
    t = _expect_mapping(section, "initial.template")
    allowed = {"length", "h", "mode", "f0", "f_templates"}
    _reject_unknown(t, allowed, "initial.template")
    if "length" not in t:
        raise ConfigError("initial.template.length is required")
    length = _number(t["length"], "initial.template.length")
    h = t.get("h", "sinusoidal")
    if isinstance(h, list):
        h = np.array(_number_list(h, "initial.template.h"))
    elif not isinstance(h, str):
        raise ConfigError("initial.template.h must be a name or an array")
    mode = t.get("mode", "kahler")
    if mode not in ("kahler", "general"):
        raise ConfigError("initial.template.mode must be 'kahler' "
                          "or 'general'")
    f0 = None
    if "f0" in t:
        f0 = tuple(_number_list(t["f0"], "initial.template.f0"))
    f_templates = None
    if "f_templates" in t:
        rows = t["f_templates"]
        if not isinstance(rows, list) or not rows:
            raise ConfigError("initial.template.f_templates must be an "
                              "array of per-factor sample arrays")
        f_templates = np.array(
            [_number_list(row, f"initial.template.f_templates[{i}]")
             for i, row in enumerate(rows)])
    try:
        tmpl = ProfileTemplate(length=length, h_template=h, f0=f0,
                               mode=mode, f_templates=f_templates)
        if mode == "kahler":
            return build_kahler_profile(spec, tmpl, cells)
        return build_general_profile(spec, tmpl, cells)
    except (ValueError, FloatingPointError) as exc:
        raise ConfigError(f"initial.template: {exc}") from exc


# Initial data whose construction overflows is a config error, not inf.
@np.errstate(over="raise", divide="raise", invalid="raise")
def _parse_initial(section, bundle_section, cells):
    if section is None:
        raise ConfigError("initial section is required")
    init = _expect_mapping(section, "initial")
    _reject_unknown(init, {"preset", "params", "template"}, "initial")
    preset = init.get("preset")
    template = init.get("template")
    if (preset is None) == (template is None):
        raise ConfigError("initial must give exactly one of 'preset' "
                          "or 'template'")
    if preset is not None:
        if bundle_section is not None:
            raise ConfigError("bundle section conflicts with initial.preset "
                              "(presets fix their own bundle)")
        if not isinstance(preset, str) or preset not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError(f"initial.preset '{preset}' unknown "
                              f"(available: {known})")
        params = _expect_mapping(init.get("params", {}), "initial.params")
        for key, v in params.items():
            _number(v, f"initial.params.{key}")
        try:
            return PRESETS[preset](cells, **params)
        except (ValueError, TypeError, FloatingPointError) as exc:
            raise ConfigError(f"initial.params: {exc}") from exc
    if "params" in init:
        raise ConfigError("initial.params is only valid with a preset")
    if bundle_section is None:
        raise ConfigError("template initial data needs a bundle section")
    spec = _parse_bundle(bundle_section)
    return spec, _parse_template(template, spec, cells)


def _parse_analysis(section):
    an = _expect_mapping(section, "analysis")
    _reject_unknown(an, ANALYSIS_DEFAULTS, "analysis")
    out = dict(ANALYSIS_DEFAULTS)
    for key in ("plateau_factor", "decades", "floor_multiple"):
        if key in an:
            v = _number(an[key], f"analysis.{key}")
            if v <= 0.0:
                raise ConfigError(f"analysis.{key} must be positive")
            out[key] = v
    # classify_singularity_type's window spans 10 ** decades in tau.
    try:
        10.0 ** out["decades"]
    except OverflowError:
        raise ConfigError("analysis.decades is too large: 10 ** decades "
                          "overflows") from None
    if "liyau_c0" in an and an["liyau_c0"] is not None:
        out["liyau_c0"] = _number(an["liyau_c0"], "analysis.liyau_c0")
    return out


def _parse_output(section):
    o = _expect_mapping(section, "output")
    _reject_unknown(o, {"dir"}, "output")
    d = o.get("dir")
    if d is not None and not isinstance(d, str):
        raise ConfigError("output.dir must be a string")
    return d


def load_config(path) -> RunConfig:
    """Read, validate and normalize a run configuration file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not UTF-8 text: {exc}") \
            from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config top level must be an object")
    _reject_unknown(raw, TOP_SECTIONS, "")
    flow = _parse_flow(raw.get("flow", {}))
    spec, state0 = _parse_initial(raw.get("initial"), raw.get("bundle"),
                                  flow.cells)
    analysis = _parse_analysis(raw.get("analysis", {}))
    out_dir = _parse_output(raw.get("output", {}))
    return RunConfig(spec=spec, state0=state0, flow=flow,
                     analysis=analysis, out_dir=out_dir, raw=raw)


# ----------------------------------------------------------------------
# Persistence.


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def _json_dump(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def report_to_dict(report: SingularityReport) -> dict:
    return {
        "T_hat": report.t_hat,
        "typeI_sup": report.typei_sup,
        "verdict": report.verdict,
        "schwarz_C": report.schwarz_c,
        "case": report.case,
        "rescale_factors": list(report.rescale_factors),
        "t_floor": report.t_floor,
        "t_kappa": report.t_kappa,
        "plateau_ratio": report.plateau_ratio,
        "growth_ratio": report.growth_ratio,
    }


def write_outputs(trace: FlowTrace, snapshots, report: SingularityReport,
                  out_dir, raw_config: dict) -> dict:
    """Persist a run directory; returns the manifest mapping.

    ``raw_config`` (the validated input config) is written as config.json.
    Snapshot files this call did not write are deleted.  The manifest
    digests every artifact with sha256.
    """
    out = Path(out_dir)
    snapdir = out / "snapshots"
    snapdir.mkdir(parents=True, exist_ok=True)
    files = []

    _write_csv(out / "trace.csv", trace_columns(trace.r), trace.rows)
    files.append("trace.csv")
    _write_csv(out / "boundary.csv", boundary_columns(trace.r),
               trace.boundary)
    files.append("boundary.csv")

    snap_names = []
    for idx, snap in enumerate(snapshots):
        payload = {
            "t": snap.t,
            "cells": snap.cells,
            "sigma": snap.sigma.tolist(),
            "a": snap.a.tolist(),
            "h": snap.h.tolist(),
            "f": snap.f.tolist(),
        }
        name = f"snapshots/snap_{idx:05d}.json"
        _json_dump(out / name, payload)
        snap_names.append(name)
    # A shorter rerun into the same directory must not leave the earlier
    # run's later snapshots behind for analyze and plot to pick up.
    keep = set(snap_names)
    for path in _snapshot_paths(out):
        if f"snapshots/{path.name}" not in keep:
            path.unlink()
    files += snap_names

    _json_dump(out / "report.json", report_to_dict(report))
    _json_dump(out / "config.json", raw_config)
    files += ["report.json", "config.json"]
    return _write_manifest(out, _digests(out, files))


def _digests(out: Path, files) -> dict:
    """sha256 hex digest of each named artifact of the run directory."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in files}


def _write_manifest(out: Path, digests) -> dict:
    """Write the artifact digests, sorted by name, into manifest.json."""
    manifest = {"tool": "bundleflow", "version": __version__,
                "files": dict(sorted(digests.items()))}
    _json_dump(out / "manifest.json", manifest)
    return manifest


def _verify_manifest(out: Path, digests):
    """Check manifest.json against the digests of the run's inputs.

    Every input must be listed with its digest and every listed file must
    be an input, except report.json, which analyze recomputes.  Any
    difference, and a missing or malformed manifest, is a ConfigError that
    names the file.
    """
    path = out / "manifest.json"
    try:
        listed = _read_json(path).get("files")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(listed, dict) or not all(
            isinstance(v, str) for v in listed.values()):
        raise ConfigError(f"{path}: 'files' must map file names to "
                          f"sha256 digests")
    extra = sorted(set(listed) - set(digests) - {"report.json"})
    if extra:
        raise ConfigError(f"{path} lists {out / extra[0]}, which is not in "
                          f"the run directory")
    for name, digest in sorted(digests.items()):
        if name not in listed:
            raise ConfigError(f"{out / name} is not listed in {path}")
        if listed[name] != digest:
            raise ConfigError(f"{out / name} does not match its digest "
                              f"in {path}")


def _read_json(path: Path) -> dict:
    """Parse a JSON object stored in a run directory.

    Malformed JSON or a top level that is not an object is a ConfigError.
    """
    try:
        obj = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return obj


def read_trace(out_dir) -> FlowTrace:
    """Load trace.csv and boundary.csv back into a FlowTrace."""
    out = Path(out_dir)
    try:
        header, rows = _read_csv(out / "trace.csv")
        bheader, brows = _read_csv(out / "boundary.csv")
    except OSError as exc:
        raise ConfigError(f"cannot read run directory {out}: {exc}") from exc
    except (StopIteration, ValueError) as exc:
        raise ConfigError(f"malformed trace CSV in {out}: {exc!r}") from exc
    width = len(header)
    if width < 12 or (width - 8) % 4:
        raise ConfigError("trace.csv does not match the column contract")
    r = (width - 8) // 4
    if header != trace_columns(r):
        raise ConfigError("trace.csv does not match the column contract")
    if bheader != boundary_columns(r):
        raise ConfigError("boundary.csv does not match the column contract")
    try:
        rows_arr = np.array(rows, float) if rows else np.zeros((0, width))
        brows_arr = np.array(brows, float) if brows \
            else np.zeros((0, 1 + 2 * r))
        trace = FlowTrace(r=r, rows=rows_arr, boundary=brows_arr)
        trace.validate()
    except ValueError as exc:
        raise ConfigError(f"malformed trace in {out}: {exc}") from exc
    return trace


def _snapshot_paths(out_dir):
    """Stored snapshot files, ordered by index."""
    return sorted((Path(out_dir) / "snapshots").glob("snap_*.json"))


def read_snapshot(path) -> ProfileState:
    """Load one stored snapshot file."""
    d = _read_json(Path(path))
    try:
        return ProfileState(
            t=d["t"], sigma=np.array(d["sigma"], float),
            a=np.array(d["a"], float), h=np.array(d["h"], float),
            f=np.array(d["f"], float))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} is not a snapshot: {exc!r}") from exc


def read_snapshots(out_dir):
    """Load every stored snapshot, ordered by index."""
    return [read_snapshot(path) for path in _snapshot_paths(out_dir)]


# ----------------------------------------------------------------------
# SVG emission.


def _svg_plot(path, series, title, xlabel, ylabel):
    """Write a minimal standalone SVG line plot.

    Each entry of ``series`` is (label, x array, y array).  Data points are
    emitted untransformed inside a matrix()-transformed group, so the
    polyline coordinates in the file are the raw data values.
    """
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    plot_w = width - ml - mr
    plot_h = height - mt - mb

    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        keep = np.isfinite(x) & np.isfinite(y)
        if keep.any():
            cleaned.append((label, x[keep], y[keep]))
    if not cleaned:
        return False
    x_min = min(s[1].min() for s in cleaned)
    x_max = max(s[1].max() for s in cleaned)
    y_min = min(s[2].min() for s in cleaned)
    y_max = max(s[2].max() for s in cleaned)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    sx = plot_w / (x_max - x_min)
    sy = plot_h / (y_max - y_min)
    tx = ml - sx * x_min
    ty = mt + plot_h + sy * y_min

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" '
        f'fill="white"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" '
        f'y2="{mt + plot_h}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + plot_h}" '
        f'stroke="black"/>',
        f'<text x="{ml + plot_w / 2}" y="{height - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f'{xlabel}</text>',
        f'<text x="16" y="{mt + plot_h / 2}" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {mt + plot_h / 2})" '
        f'text-anchor="middle">{ylabel}</text>',
        f'<text x="{ml}" y="{height - 32}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x_min:.6g}</text>',
        f'<text x="{ml + plot_w}" y="{height - 32}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x_max:.6g}</text>',
        f'<text x="{ml - 6}" y="{mt + plot_h}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y_min:.6g}</text>',
        f'<text x="{ml - 6}" y="{mt + 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y_max:.6g}</text>',
    ]
    for idx, (label, _, _) in enumerate(cleaned):
        color = SVG_COLORS[idx % len(SVG_COLORS)]
        parts.append(
            f'<text x="{ml + plot_w - 8}" y="{mt + 16 + 14 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{color}">{label}</text>')
    for idx, (_, x, y) in enumerate(cleaned):
        color = SVG_COLORS[idx % len(SVG_COLORS)]
        points = " ".join(f"{repr(float(a))},{repr(float(b))}"
                          for a, b in zip(x, y))
        parts.append(
            f'<g transform="matrix({sx:.10g} 0 0 {-sy:.10g} {tx:.10g} '
            f'{ty:.10g})">'
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'vector-effect="non-scaling-stroke" points="{points}"/></g>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
    return True


def render_plots(out_dir, field=None):
    """Emit the standard SVG plots for a persisted run; returns paths.

    Plots: final profiles H and F_i against arclength; the Type I quantity
    (T_hat - t) kappa against log10(T_hat - t) when a singular time is on
    record; the boundary f_i^2 series; optionally one named trace column
    against t.  An empty trace produces no files and an explicit message.
    """
    out = Path(out_dir)
    trace = read_trace(out)
    if trace.rows.shape[0] == 0:
        print("no plots written: trace is empty")
        return []
    written = []

    snap_paths = _snapshot_paths(out)
    if snap_paths:
        final = read_snapshot(snap_paths[-1])
        s, _ = arclength(final)
        series = [("H", s, final.h)]
        for i in range(final.r):
            series.append((f"F{i + 1}", s, final.f[i]))
        if _svg_plot(out / "profiles.svg", series,
                     f"profiles at t = {final.t:.6g}", "arclength s",
                     "profile value"):
            written.append(out / "profiles.svg")

    report_path = out / "report.json"
    t_hat = None
    if report_path.exists():
        t_hat = _read_json(report_path).get("T_hat")
    if t_hat is not None:
        t_hat = _number(t_hat, f"{report_path}: T_hat")
        t = trace.column("t")
        kappa = trace.column("kappa")
        tau = t_hat - t
        keep = tau > 0.0
        if keep.any():
            x = np.log10(tau[keep])
            # A far-off T_hat overflows the product to inf, which _svg_plot
            # drops like any other non-finite point.
            with np.errstate(over="ignore"):
                y = tau[keep] * kappa[keep]
            if _svg_plot(out / "typeI.svg",
                         [("(T_hat - t) kappa", x, y)],
                         "Type I quantity", "log10(T_hat - t)",
                         "(T_hat - t) kappa"):
                written.append(out / "typeI.svg")

    t = trace.bcolumn("t")
    series = []
    for i in range(1, trace.r + 1):
        for side in ("left", "right"):
            series.append((f"f{i}^2 {side}", t,
                           trace.bcolumn(f"f{i}sq_{side}")))
    if _svg_plot(out / "boundary.svg", series, "endpoint values of f^2",
                 "t", "f^2 at endpoint"):
        written.append(out / "boundary.svg")

    if field is not None:
        if field not in trace.columns:
            raise ConfigError(f"unknown trace column '{field}' "
                              f"(available: {', '.join(trace.columns)})")
        if _svg_plot(out / f"field_{field}.svg",
                     [(field, trace.column("t"), trace.column(field))],
                     field, "t", field):
            written.append(out / f"field_{field}.svg")
    return [str(p) for p in written]


# ----------------------------------------------------------------------
# Entry points.


def _print_report(report: SingularityReport, trace: FlowTrace):
    t = trace.column("t")
    if t.size:
        print(f"trace: {t.size} rows, t in [{t[0]:.6g}, {t[-1]:.6g}]")
    else:
        print("trace: empty")
    if report.t_hat is None:
        print("singular time: none detected")
    else:
        print(f"singular time estimate: {report.t_hat:.6g} "
              f"(floor {report.t_floor}, kappa {report.t_kappa})")
    print(f"verdict: {report.verdict}")
    if report.typei_sup is not None:
        print(f"type I sup: {report.typei_sup:.6g}")
    if report.schwarz_c is not None:
        print(f"schwarz constant: {report.schwarz_c:.6g}")
    print(f"degeneration case: {report.case}")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out or cfg.out_dir
    if out_dir is None:
        raise ConfigError("no output directory: set output.dir in the "
                          "config or pass --out")
    kwargs = {k: v for k, v in cfg.analysis.items() if k != "liyau_c0"}
    try:
        trace, snapshots = run_flow(cfg.spec, cfg.state0, cfg.flow)
    except InvalidInitialState as exc:
        print(f"error: initial data rejected: {exc}", file=sys.stderr)
        return 2
    except FlowHalt as halt:
        trace = halt.trace
        snapshots = halt.snapshots or []
        report = analyze_run(trace, snapshots, cfg.flow.stop_floor,
                             **kwargs)
        write_outputs(trace, snapshots, report, out_dir,
                      raw_config=cfg.raw)
        print(f"error: flow halted: {halt}", file=sys.stderr)
        print(f"partial results written to {out_dir}", file=sys.stderr)
        return 3
    report = analyze_run(trace, snapshots, cfg.flow.stop_floor, **kwargs)
    write_outputs(trace, snapshots, report, out_dir, raw_config=cfg.raw)
    _print_report(report, trace)
    bound, exceeded = li_yau_monitor(trace, cfg.analysis["liyau_c0"])
    if exceeded:
        print(f"li-yau monitor: bound {bound:.6g} exceeded at "
              f"{len(exceeded)} times (first t = {exceeded[0]:.6g})")
    print(f"outputs written to {out_dir}")
    return 0


def _cmd_analyze(args) -> int:
    """Recompute report.json and manifest.json; nothing else is rewritten.

    Parse errors are reported first, then any difference between the
    inputs and manifest.json; either exits 2 before anything is written.
    """
    out = Path(args.rundir)
    trace = read_trace(out)
    snapshots = read_snapshots(out)
    config_path = out / "config.json"
    stop_floor = FlowConfig().stop_floor
    analysis = dict(ANALYSIS_DEFAULTS)
    files = ["trace.csv", "boundary.csv"]
    files += [f"snapshots/{path.name}" for path in _snapshot_paths(out)]
    if config_path.exists():
        files.append("config.json")
        raw = _read_json(config_path)
        try:
            stop_floor = _parse_flow(raw.get("flow", {})).stop_floor
            analysis = _parse_analysis(raw.get("analysis", {}))
        except ConfigError as exc:
            raise ConfigError(f"{config_path}: {exc}") from exc
    digests = _digests(out, files)
    _verify_manifest(out, digests)
    kwargs = {k: v for k, v in analysis.items() if k != "liyau_c0"}
    report = analyze_run(trace, snapshots, stop_floor, **kwargs)
    _json_dump(out / "report.json", report_to_dict(report))
    digests.update(_digests(out, ["report.json"]))
    _write_manifest(out, digests)
    _print_report(report, trace)
    return 0


def _cmd_plot(args) -> int:
    written = render_plots(args.rundir, field=args.field)
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bundleflow",
        description="Simulate and analyze the reduced flow on circle-bundle "
                    "ansatz metrics.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="integrate a configured flow")
    p_run.add_argument("config", help="path to a JSON run configuration")
    p_run.add_argument("--out", default=None,
                       help="output directory (overrides output.dir)")
    p_analyze = sub.add_parser("analyze",
                               help="recompute the report for a run dir")
    p_analyze.add_argument("rundir", help="existing run directory")
    p_plot = sub.add_parser("plot", help="emit SVG plots for a run dir")
    p_plot.add_argument("rundir", help="existing run directory")
    p_plot.add_argument("--field", default=None,
                        help="also plot this trace column against t")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_plot(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
