"""Command-line front end: config loading, run persistence, static plots.

Verbs:

    bundleflow run <config.json> [--out DIR]
    bundleflow analyze <rundir>
    bundleflow plot <rundir> [--field NAME]

Exit codes: 0 on success, 2 on validation failures (bad config, bad initial
data, malformed run directory), 3 when the integrator halts abnormally (a
partial trace is still persisted).

A run directory contains trace.csv and boundary.csv (fixed column
contracts; the two split one trace table, so they share their rows and
times), snapshots/snap_NNNNN.json, report.json, config.json (the
validated input config, re-encoded rather than copied byte for byte) and
manifest.json with sha256 digests of every artifact.  Each JSON artifact
is one line with sorted keys and no whitespace.  All floats are written
with Python repr, so identical runs produce byte-identical files.
"""

import atexit
import errno
import gc
import json
import math
import os
import sys
from collections import namedtuple
from pathlib import Path
from stat import S_ISDIR

from . import __version__, _lazy_import
from .analysis import FlowTrace, analyze_run, boundary_columns, \
    estimate_singular_time, trace_columns
from .evolution import CFL_MAX, FlowConfig, FlowHalt, InvalidInitialState, \
    run_flow
from .geometry import BundleSpec, arclength_row
from .initial_data import PRESETS, build_general_profile, \
    build_kahler_profile

np = _lazy_import("numpy")

TOP_SECTIONS = {"bundle", "initial", "flow", "output"}

SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
              "#8c564b"]

# The largest flow.cells: the step count grows as cells^2 (dt is capped at
# STEP_CAP dsigma^2), so a larger grid cannot finish, and a far larger one
# would not fit in memory.
MAX_CELLS = 10 ** 5


class ConfigError(ValueError):
    """Configuration rejected; message carries the offending field path."""


RunConfig = namedtuple("RunConfig", "spec state0 flow out_dir raw")
RunConfig.__doc__ = "Validated run description with defaults applied."


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


def _number_list(v, path, ndim=1):
    """v, a config or snapshot array, once checked to be a nonempty JSON
    array of finite numbers (ndim 2: a nonempty array of such arrays).

    A clean row costs two builtin scans; in any other row _number names the
    first bad entry.  Entries keep their JSON type: callers convert.
    """
    rows = [(path, v)]
    if ndim == 2:
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{path} must be a nonempty array of arrays")
        rows = [(f"{path}[{i}]", row) for i, row in enumerate(v)]
    for where, row in rows:
        if not isinstance(row, list) or not row:
            raise ConfigError(f"{where} must be a nonempty array of numbers")
        try:
            clean = (set(map(type, row)) <= {float, int}
                     and all(map(math.isfinite, row)))
        except OverflowError:  # An integer past the float range.
            clean = False
        if not clean:
            for j, x in enumerate(row):
                _number(x, f"{where}[{j}]")
    return v


def _integer_list(v, path):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path} must be a nonempty array of integers")
    return [_integer(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _parse_bundle(section):
    b = _expect_mapping(section, "bundle")
    _reject_unknown(b, {"n", "k", "q", "lambda"}, "bundle")
    for key in ("n", "k", "q"):
        if key not in b:
            raise ConfigError(f"bundle.{key} is required")
    n = _integer_list(b["n"], "bundle.n")
    q = _integer_list(b["q"], "bundle.q")
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
    """(cells, FlowConfig) of the flow section; flow.cfl is range-checked
    so that existing configs load, and otherwise ignored."""
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
    cells = kwargs.pop("cells", 400)
    if cells < 8:
        raise ConfigError("flow.cells must be an integer >= 8")
    if cells > MAX_CELLS:
        raise ConfigError(f"flow.cells must be at most {MAX_CELLS}")
    if not 0.0 < kwargs.pop("cfl", CFL_MAX) <= CFL_MAX:
        raise ConfigError(f"flow.cfl must lie in (0, {CFL_MAX}]")
    try:
        return cells, FlowConfig(**kwargs)
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
        h = np.array(_number_list(h, "initial.template.h"), float)
    elif not isinstance(h, str):
        raise ConfigError("initial.template.h must be a name or an array")
    mode = t.get("mode", "kahler")
    if mode not in ("kahler", "general"):
        raise ConfigError("initial.template.mode must be 'kahler' "
                          "or 'general'")
    key, other = (("f0", "f_templates") if mode == "kahler"
                  else ("f_templates", "f0"))
    if other in t:
        raise ConfigError(f"initial.template.{other} is not valid with "
                          f"mode '{mode}'")
    if key not in t:
        raise ConfigError(f"initial.template.{key} is required")
    if mode == "kahler":
        build = build_kahler_profile
        samples = _number_list(t["f0"], "initial.template.f0")
    else:
        build = build_general_profile
        rows = _number_list(t["f_templates"], "initial.template.f_templates",
                            ndim=2)
        if len({len(row) for row in rows}) > 1:
            raise ConfigError("initial.template.f_templates rows must all "
                              "have the same length")
        samples = np.array(rows, float)
    try:
        return build(spec, length, h, samples, cells)
    except (ValueError, FloatingPointError) as exc:
        raise ConfigError(f"initial.template: {exc}") from exc


def _parse_initial(raw, cells):
    # A section or key that is present but null counts as present.
    if "initial" not in raw:
        raise ConfigError("initial section is required")
    init = _expect_mapping(raw["initial"], "initial")
    _reject_unknown(init, {"preset", "params", "template"}, "initial")
    if ("preset" in init) == ("template" in init):
        raise ConfigError("initial must give exactly one of 'preset' "
                          "or 'template'")
    if "preset" in init:
        preset = init["preset"]
        if "bundle" in raw:
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
    if "bundle" not in raw:
        raise ConfigError("template initial data needs a bundle section")
    spec = _parse_bundle(raw["bundle"])
    return spec, _parse_template(init["template"], spec, cells)


def _parse_output(section):
    o = _expect_mapping(section, "output")
    _reject_unknown(o, {"dir"}, "output")
    d = o.get("dir")
    if d is not None and not isinstance(d, str):
        raise ConfigError("output.dir must be a string")
    return d


def load_config(path) -> RunConfig:
    """Read (by _read_json, as run directories are read), validate and
    normalize a run configuration file."""
    raw = _read_json(path)
    _reject_unknown(raw, TOP_SECTIONS, "")
    cells, flow = _parse_flow(raw.get("flow", {}))
    # Initial data whose construction overflows is a config error, not inf.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        spec, state0 = _parse_initial(raw, cells)
    out_dir = _parse_output(raw.get("output", {}))
    return RunConfig(spec=spec, state0=state0, flow=flow, out_dir=out_dir,
                     raw=raw)


# ----------------------------------------------------------------------
# Persistence.


def _csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _read_csv(path):
    # _write_csv's format: unquoted names and repr floats, comma separated.
    with open(path) as fh:
        header = next(fh, None)
        if header is None:
            raise ValueError("empty file")
        header = header.rstrip("\n").split(",")
        try:
            rows = [[float(v) for v in line.split(",")] for line in fh]
        except ValueError:
            # float accepts the newline that ends each row's last cell but
            # quotes it in its message.  The rows without it fail on the
            # same cell, with the cell as the file holds it.
            fh.seek(0)
            next(fh)
            for line in fh:
                for v in line.rstrip("\n").split(","):
                    float(v)
            raise
    return header, rows


def _json_bytes(obj) -> bytes:
    # One line without whitespace: json's C encoder, and no indentation
    # bytes in the run directory.
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def _json_dump(path, obj):
    Path(path).write_bytes(_json_bytes(obj))


def _sha256(data: bytes) -> str:
    import hashlib  # Loads OpenSSL; only the manifest needs it.
    return hashlib.sha256(data).hexdigest()


def _store(out: Path, name, data: bytes, digests: dict):
    """Write the artifact ``name`` of the run directory and record the
    sha256 digest of the bytes written in ``digests``."""
    (out / name).write_bytes(data)
    digests[name] = _sha256(data)


def write_outputs(trace: FlowTrace, snapshots, report: dict, out_dir,
                  raw_config: dict) -> dict:
    """Persist a run directory; returns the manifest mapping.

    The trace table is split into its two files, trace.csv with the
    columns of trace_columns and boundary.csv with those of
    boundary_columns.  ``report`` (the mapping of analysis.analyze_run) is
    written as report.json and ``raw_config`` (the validated input config)
    as config.json.  Snapshot files this call did not write are deleted,
    and so are the plots of render_plots, which show the run the directory
    held before.  Each artifact is encoded once, and the manifest holds the
    sha256 digest of the bytes written.
    """
    out = Path(out_dir)
    snapdir = out / "snapshots"
    snapdir.mkdir(parents=True, exist_ok=True)
    digests = {}

    # The table holds trace.csv's columns, then boundary.csv's after its t.
    k = len(trace_columns(trace.r))
    for name, columns, rows in (
            ("trace.csv", trace_columns(trace.r),
             [row[:k] for row in trace.rows]),
            ("boundary.csv", boundary_columns(trace.r),
             [row[:1] + row[k:] for row in trace.rows])):
        _store(out, name, _csv_bytes(columns, rows), digests)
    for idx, snap in enumerate(snapshots):
        payload = {
            "t": snap.t,
            "a": snap.a.tolist(),
            "h": snap.h.tolist(),
            "f": snap.f.tolist(),
        }
        _store(out, f"snapshots/snap_{idx:05d}.json", _json_bytes(payload),
               digests)
    # A shorter rerun into the same directory must not leave the earlier
    # run's later snapshots behind for analyze and plot to pick up.
    for path in _snapshot_paths(out):
        if f"snapshots/{path.name}" not in digests:
            path.unlink()
    for path in _figure_paths(out):
        path.unlink()

    _store(out, "report.json", _json_bytes(report), digests)
    _store(out, "config.json", _json_bytes(raw_config), digests)
    return _write_manifest(out, digests)


def _digests(out: Path, files) -> dict:
    """sha256 hex digest of each named artifact of the run directory."""
    return {name: _sha256((out / name).read_bytes()) for name in files}


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
    listed = _read_json(path).get("files")
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


def _read_json(path) -> dict:
    """Parse the JSON object stored in a config file or a run directory.

    A file that cannot be read, is not UTF-8 text or not valid JSON, or
    whose top level is not an object, is a ConfigError that names it.
    """
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return obj


def read_trace(out_dir) -> FlowTrace:
    """Join trace.csv and boundary.csv into the table of a FlowTrace.

    The number r of base factors is the count of grad_sup_i columns in the
    header, which must then be trace_columns(r), the one layout that
    write_outputs writes.  boundary.csv must have the header
    boundary_columns(r) and share the rows of trace.csv: as many rows,
    with the same times.
    """
    out = Path(out_dir)
    tables = []
    try:
        for path in (out / "trace.csv", out / "boundary.csv"):
            tables.append(_read_csv(path))
    except OSError as exc:
        raise ConfigError(f"cannot read run directory {out}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed trace CSV {path}: {exc}") from exc
    (header, rows), (bheader, brows) = tables
    r = sum(name.startswith("grad_sup_") for name in header)
    if not r or header != trace_columns(r):
        raise ConfigError("trace.csv does not match the column contract")
    if bheader != boundary_columns(r):
        raise ConfigError("boundary.csv does not match the column contract")
    try:
        # The same times, a NaN matching a NaN; validate then refuses both.
        if len(brows) != len(rows) or any(
                len(ends) != len(bheader)
                or not (ends[0] == row[0]
                        or math.isnan(ends[0]) and math.isnan(row[0]))
                for row, ends in zip(rows, brows)):
            raise ValueError("boundary.csv does not share the rows of "
                             "trace.csv")
        trace = FlowTrace(r=r, rows=[row + ends[1:]
                                     for row, ends in zip(rows, brows)])
        trace.validate()
    except ValueError as exc:
        raise ConfigError(f"malformed trace in {out}: {exc}") from exc
    return trace


def _snapshot_paths(out_dir):
    """Stored snapshot files, ordered by index."""
    return sorted((Path(out_dir) / "snapshots").glob("snap_*.json"))


def _figure_paths(out: Path):
    """The figures of render_plots that the run directory holds."""
    return [path for pattern in ("profiles.svg", "typeI.svg", "boundary.svg",
                                 "field_*.svg") for path in out.glob(pattern)]


def _snapshot_fields(path):
    """(t, a, h, f) of one stored snapshot file: t a float, a and h lists
    of numbers and f a list of such rows.

    ``t`` must be a finite number, and ``a``, ``h`` and ``f`` pass
    _number_list (ndim 2 for ``f``), the rule and messages of config
    arrays, with ``h`` and each row of ``f`` as long as ``a`` and at least
    4 cells (ProfileState's shape rules); anything else is a ConfigError
    that names the file.  Other keys are ignored, so snapshots that also
    store the grid (``sigma`` and ``cells``) read the same.  Positivity is
    not checked: a run that stops at the floor snapshots its stop state.
    No numpy is involved.
    """
    d = _read_json(path)
    try:
        t = _number(d["t"], "t")
        a, h, f = (_number_list(d[key], key, 2 if key == "f" else 1)
                   for key in ("a", "h", "f"))
        if len(h) != len(a):
            raise ConfigError("a and h must be rows of one length")
        if any(len(row) != len(a) for row in f):
            raise ConfigError("f must have shape (r, cells)")
        if len(a) < 4:
            raise ConfigError("need at least 4 cells")
    except ConfigError as exc:
        # The field and shape checks word their errors as sentences.
        raise ConfigError(f"{path} is not a snapshot: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"{path} is not a snapshot: {exc!r}") from exc
    return t, a, h, f


def read_snapshots(out_dir):
    """Check every stored snapshot, ordered by index, as _snapshot_fields
    does; returns their times, which is all that the report reads."""
    return [_snapshot_fields(path)[0] for path in _snapshot_paths(out_dir)]


# ----------------------------------------------------------------------
# SVG emission.


def _svg_plot(path, series, title, xlabel, ylabel):
    """Write a minimal standalone SVG line plot.

    Each entry of ``series`` is (label, x values, y values).  Points with
    a non-finite coordinate are dropped; the rest are emitted untransformed
    inside a matrix()-transformed group, so the polyline coordinates in
    the file are the raw data values.  Returns whether a file was written.
    """
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    plot_w = width - ml - mr
    plot_h = height - mt - mb

    cleaned = []
    for label, x, y in series:
        kept = [(float(a), float(b)) for a, b in zip(x, y)
                if math.isfinite(a) and math.isfinite(b)]
        if kept:
            cleaned.append((label, *zip(*kept)))
    if not cleaned:
        return False
    x_min = min(min(s[1]) for s in cleaned)
    x_max = max(max(s[1]) for s in cleaned)
    y_min = min(min(s[2]) for s in cleaned)
    y_max = max(max(s[2]) for s in cleaned)
    # Pad a degenerate axis by max(1, |v|): v + 1 == v once |v| >= 2^53.
    if x_max == x_min:
        x_max = x_min + max(1.0, abs(x_min))
    if y_max == y_min:
        y_max = y_min + max(1.0, abs(y_min))
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
        points = " ".join(f"{a!r},{b!r}" for a, b in zip(x, y))
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
    (T_hat - t) kappa against log10(T_hat - t) when the trace gives a
    singular time, T_hat read off the trace by estimate_singular_time as
    analyze_run does (report.json is not read); the boundary f_i^2 series;
    optionally one named trace column against t.  A field that is not a
    trace column is a ConfigError before any file is written.  An empty
    trace produces no files and an explicit message; a final snapshot
    whose arclength overflows is a ConfigError naming it.  The final
    snapshot is read as lists, and every series is computed on Python
    floats, so plot loads no numpy.
    """
    out = Path(out_dir)
    trace = read_trace(out)
    fields = trace_columns(trace.r)
    if field is not None and field not in fields:
        raise ConfigError(f"unknown trace column '{field}' "
                          f"(available: {', '.join(fields)})")
    if not trace.rows:
        print("no plots written: trace is empty")
        return []
    written = []

    snap_paths = _snapshot_paths(out)
    if snap_paths:
        t_final, a, h, f = _snapshot_fields(snap_paths[-1])
        s = arclength_row(a)
        if not all(map(math.isfinite, s)):
            raise ConfigError(f"{snap_paths[-1]}: the arclength of its "
                              f"lapse a is not finite")
        series = [("H", s, h)] + [(f"F{i}", s, row)
                                  for i, row in enumerate(f, 1)]
        if _svg_plot(out / "profiles.svg", series,
                     f"profiles at t = {t_final:.6g}", "arclength s",
                     "profile value"):
            written.append(out / "profiles.svg")

    t = trace.column("t")
    t_hat = estimate_singular_time(trace)
    if t_hat is not None:
        # Every row lies before T_hat, so every T_hat - t is positive.
        tau = [t_hat - ti for ti in t]
        x = [math.log10(v) for v in tau]
        # A kappa near the float maximum overflows the product to inf,
        # which _svg_plot drops like any other non-finite point.
        y = [v * k for v, k in zip(tau, trace.column("kappa"))]
        if _svg_plot(out / "typeI.svg", [("(T_hat - t) kappa", x, y)],
                     "Type I quantity", "log10(T_hat - t)",
                     "(T_hat - t) kappa"):
            written.append(out / "typeI.svg")

    series = []
    for i in range(1, trace.r + 1):
        for side in ("left", "right"):
            series.append((f"f{i}^2 {side}", t,
                           trace.column(f"f{i}sq_{side}")))
    if _svg_plot(out / "boundary.svg", series, "endpoint values of f^2",
                 "t", "f^2 at endpoint"):
        written.append(out / "boundary.svg")

    if field is not None:
        if _svg_plot(out / f"field_{field}.svg",
                     [(field, trace.column("t"), trace.column(field))],
                     field, "t", field):
            written.append(out / f"field_{field}.svg")
    return [str(p) for p in written]


# ----------------------------------------------------------------------
# Entry points.


def _print_report(report: dict, trace: FlowTrace):
    t = trace.column("t")
    if t:
        print(f"trace: {len(t)} rows, t in [{t[0]:.6g}, {t[-1]:.6g}]")
        print(f"residuals: max kahler_res "
              f"{max(trace.column('kahler_res')):.6g}, max heat_res "
              f"{max(trace.column('heat_res')):.6g}")
    else:
        print("trace: empty")
    if report["T_hat"] is None:
        print("singular time: none detected")
    else:
        print(f"singular time estimate: {report['T_hat']:.6g}")
    print(f"verdict: {report['verdict']}")
    if report["typeI_sup"] is not None:
        print(f"type I sup: {report['typeI_sup']:.6g}")
    if report["schwarz_C"] is not None:
        print(f"schwarz constant: {report['schwarz_C']:.6g}")
    print(f"degeneration case: {report['case']}")


def _cmd_run(config, out) -> int:
    cfg = load_config(config)
    out_dir = out or cfg.out_dir
    if out_dir is None:
        raise ConfigError("no output directory: set output.dir in the "
                          "config or pass --out")
    # An output path that write_outputs would fail on is refused here,
    # before the flow is integrated, with the error that write_outputs
    # would give; the check creates nothing.  Besides the artifacts it
    # writes, write_outputs overwrites or deletes every stored snapshot and
    # deletes every figure, so none of those may be a directory either.
    out_path = Path(out_dir)
    for name in ("snapshots", "trace.csv", "boundary.csv", "report.json",
                 "config.json", "manifest.json"):
        path = out_path / name
        try:
            is_dir = S_ISDIR(path.stat().st_mode)
        except FileNotFoundError:
            continue
        if is_dir != (name == "snapshots"):
            code = errno.EISDIR if is_dir else errno.EEXIST
            raise OSError(code, os.strerror(code), str(path))
    for path in _snapshot_paths(out_path) + _figure_paths(out_path):
        if path.is_dir():
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    halt = None
    try:
        trace, snapshots = run_flow(cfg.spec, cfg.state0, cfg.flow)
    except InvalidInitialState as exc:
        print(f"error: initial data rejected: {exc}", file=sys.stderr)
        return 2
    except FlowHalt as exc:
        halt, trace, snapshots = exc, exc.trace, exc.snapshots
    report = analyze_run(trace, [s.t for s in snapshots],
                         cfg.flow.stop_floor)
    write_outputs(trace, snapshots, report, out_dir, raw_config=cfg.raw)
    if halt is not None:
        print(f"error: flow halted: {halt}", file=sys.stderr)
        print(f"partial results written to {out_dir}", file=sys.stderr)
        return 3
    _print_report(report, trace)
    print(f"outputs written to {out_dir}")
    return 0


def _cmd_analyze(rundir) -> int:
    """Recompute report.json and manifest.json; nothing else is rewritten.

    Parse errors are reported first, then any difference between the
    inputs and manifest.json, then a snapshot whose time is not a trace
    row time, then a report number that is not finite; each exits 2
    before anything is written.  Every snapshot is parsed in full, as part
    of that check, although the report reads only their times.  Each
    blow-up factor is a row's kappa, which read_trace has checked to be
    finite, so only the report's scalars are checked here.  config.json
    is required, as the label depends on its flow.stop_floor; that is all
    that is read from it, but a top-level section or flow key that run
    rejects is an error here too.
    """
    out = Path(rundir)
    trace = read_trace(out)
    snapshot_times = read_snapshots(out)
    config_path = out / "config.json"
    raw = _read_json(config_path)
    try:
        _reject_unknown(raw, TOP_SECTIONS, "")
        stop_floor = _parse_flow(raw.get("flow", {}))[1].stop_floor
    except ConfigError as exc:
        raise ConfigError(f"{config_path}: {exc}") from exc
    files = ["trace.csv", "boundary.csv", "config.json"]
    files += [f"snapshots/{path.name}" for path in _snapshot_paths(out)]
    digests = _digests(out, files)
    _verify_manifest(out, digests)
    try:
        report = analyze_run(trace, snapshot_times, stop_floor)
    except ValueError as exc:
        raise ConfigError(f"malformed run in {out}: {exc}") from exc
    # Positive but subnormal trace values overflow the analysis to inf,
    # which this check refuses.
    for key, value in report.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{out / 'trace.csv'} gives the report a "
                              f"non-finite {key} ({value})")
    _store(out, "report.json", _json_bytes(report), digests)
    _write_manifest(out, digests)
    _print_report(report, trace)
    return 0


def _cmd_plot(rundir, field) -> int:
    written = render_plots(rundir, field=field)
    for path in written:
        print(f"wrote {path}")
    return 0


def _parse_args(argv):
    """Split argv into a verb's command and its keyword arguments.

    -h or --help prints the usage and exits 0.  A missing or unknown verb,
    a missing or extra positional argument, an unknown option and an
    option without a value or with an empty one print the usage to stderr
    and exit 2.  An option takes its value as the next argument or after
    '=', before or after the positional one; option names are not
    abbreviated.
    """
    usage = """\
usage: bundleflow run CONFIG [--out DIR]
       bundleflow analyze RUNDIR
       bundleflow plot RUNDIR [--field NAME]

Simulate and analyze the reduced flow on circle-bundle ansatz metrics.

  run      integrate the flow that the JSON file CONFIG describes; --out
           overrides its output.dir
  analyze  recompute report.json and manifest.json of a run directory
  plot     write SVG plots of a run directory; --field also plots that
           trace column against t
"""

    def fail(message):
        print(f"{usage}\nbundleflow: error: {message}", file=sys.stderr)
        raise SystemExit(2)

    if "-h" in argv or "--help" in argv:
        print(usage, end="")
        raise SystemExit(0)
    # Each verb's command, its positional argument, then its options.
    verbs = {"run": (_cmd_run, "config", "out"),
             "analyze": (_cmd_analyze, "rundir"),
             "plot": (_cmd_plot, "rundir", "field")}
    if not argv or argv[0] not in verbs:
        fail(f"expected a verb, run, analyze or plot, not "
             f"{repr(argv[0]) if argv else 'nothing'}")
    command, name, *options = verbs[argv[0]]
    kwargs, positional, args = dict.fromkeys(options), [], iter(argv[1:])
    for arg in args:
        if not arg.startswith("-"):
            positional.append(arg)
            continue
        option, eq, value = arg.partition("=")
        if not option.startswith("--") or option[2:] not in kwargs:
            fail(f"unrecognized option '{option}'")
        value = value if eq else next(args, None)
        if not value:
            fail(f"option {option} expects a value")
        kwargs[option[2:]] = value
    if len(positional) != 1:
        fail(f"{argv[0]} takes one {name.upper()} argument, not "
             f"{len(positional)}")
    kwargs[name] = positional[0]
    return command, kwargs


def main(argv=None) -> int:
    # gc.freeze at exit leaves finalization's collections nothing to
    # traverse.  Cyclic garbage then goes unfinalized, which is safe: every
    # file the package opens is closed before its verb returns.
    atexit.unregister(gc.freeze)  # one callback however often main runs
    atexit.register(gc.freeze)
    command, kwargs = _parse_args(sys.argv[1:] if argv is None
                                  else list(argv))
    try:
        return command(**kwargs)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
