"""bundleflow benchmark: time to verdict through the real CLI verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  One iteration runs ``bundleflow run`` on a fresh run
directory, then ``bundleflow analyze`` and ``bundleflow plot --field
kappa`` on it, then analyze and plot once more (they are short, so each
iteration takes two samples of them).  Each verb runs in its own process,
one process at a time: a closed loop with one client.  Iterations repeat
for about S seconds (at least MIN_ITERATIONS).  Every iteration's outputs
are checked; an iteration fails when a verb exits nonzero or a check
fails, and the failed/attempted counts of the last output line count
iterations.

The seed makes the inputs: seed 0 is the configuration written in
WORKLOADS, any other seed scales the listed inputs by factors drawn
uniformly within +-PERTURBATION.  bundleflow receives only the generated
config file.  All iterations of one invocation use the same seed, so their
artifacts must match byte for byte.

With --trace 0 the last line reports the end-to-end metrics (medians over
the passing iterations).  Times are wall times scaled to a reference host
speed (see REFERENCE_S); the raw wall medians are printed beside them.
With --trace 1 traced and untraced iterations alternate; the last line
reports per-layer metrics from the traced ones (spans recorded by
perfbench/child.py) and the tracing overhead, traced minus untraced median
run_s.  Human-readable lines before the last one name every metric with
its unit and sample count, failed_ratio and the environment record.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import signal
import sys
import threading
import time
from pathlib import Path

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402  (after the thread pinning above)

from child import MONITOR_FUNCTIONS  # noqa: E402  (perfbench/child.py)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ITERATIONS = 3
# No iteration starts later than this, and a verb still running at
# HARD_LIMIT_S is killed, so one invocation ends within 180 s.
START_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0
PERTURBATION = 0.02
# The host's speed drifts by tens of percent over seconds to minutes
# (other tenants).  Wall times are therefore scaled by REFERENCE_S / (the
# mean wall time of REFERENCE_PROGRAM, run in a fresh interpreter just
# before and just after them), which reports them in seconds at the speed
# where the reference takes REFERENCE_S.  Like a verb, the reference starts
# an interpreter, imports numpy and loops over small arrays, so it slows
# down with the host much as the verbs do.  It is benchmark code: a program
# change moves the scaled time exactly as it moves the wall time.  Raw
# medians are printed next to the scaled ones.
REFERENCE_S = 0.15
REFERENCE_PROGRAM = """\
import numpy as np
a = np.linspace(1.0, 2.0, 64)
s = 0.0
for i in range(3000):
    b = np.sqrt(a * a + 1.0)
    s += float(b[1:].sum() - b[:-1].sum())
    for j in range(10):
        s += j * 0.5
"""
# Criteria 03 and 04 (residuals) and 05 (boundary slopes, relative to
# 2(|q| + |k|)) of the acceptance suite.
RESIDUAL_BOUND = 1e-3
SLOPE_REL_TOL = 0.01
T_END_ABS_TOL = 1e-10

# The canonical and Calabi workloads are the acceptance fixtures (400
# cells) and the two-factor one a Kahler template run, all on coarser grids
# so that a run takes about a second and each invocation collects a dozen
# samples.  The horizons (t_end, or the singular time) are kept, so step
# counts fall as cells^2; the split of run_flow between RHS stages, monitor
# and loop is the same as at 400 cells.  "perturb" lists the config inputs
# a nonzero seed scales.
WORKLOADS = {
    "canonical_80": {
        "why": "canonical data to t 0.3 with a monitor row every step: "
               "monitor and trace-CSV work is large, no regrids, two "
               "snapshots",
        "config": {
            "bundle": {"n": [1], "k": [2.0], "q": [2], "lambda": [1.0]},
            "initial": {"template": {"length": math.pi, "h": "sinusoidal",
                                     "f0": [2.0]}},
            "flow": {"cells": 80, "cfl": 0.2, "t_end": 0.3,
                     "stop_floor": 1e-3, "trace_every": 1,
                     "snapshot_every": 4000}},
        "perturb": [("initial", "template", "f0")],
        "expect": {"verdict": "TypeI", "case": "Indeterminate",
                   "reaches_t_end": True},
        "smoke_flow": {"cells": 24},
    },
    "calabi_48": {
        "why": "Calabi collapse to the floor near t 0.5 with a trace row "
               "every 10 steps: stepping-bound (RHS stages), ends in a "
               "real Type I fiber collapse",
        "config": {
            "initial": {"preset": "calabi",
                        "params": {"n": 2, "k_lens": 1, "f0": 6.0}},
            "flow": {"cells": 48, "cfl": 0.35, "t_end": 1.0,
                     "stop_floor": 1e-3, "trace_every": 10,
                     "snapshot_every": 4000}},
        "perturb": [("initial", "params", "f0")],
        "expect": {"verdict": "TypeI", "case": "FiberCollapse",
                   "reaches_t_end": False, "t_hat": (0.5, 1e-3)},
        "smoke_flow": {"cells": 24},
    },
    "twofactor_64": {
        "why": "two base factors (4-row stacks, cross-factor terms), "
               "regrids at threshold 1.05 and persists ~160 JSON snapshots "
               "that analyze and plot read back",
        "config": {
            "bundle": {"n": [1, 1], "k": [2.0, 1.0], "q": [2, 1]},
            "initial": {"template": {"length": math.pi, "h": "sinusoidal",
                                     "f0": [2.0, 3.0]}},
            "flow": {"cells": 64, "cfl": 0.2, "t_end": 0.3,
                     "stop_floor": 1e-3, "trace_every": 1,
                     "snapshot_every": 6, "regrid_threshold": 1.05}},
        "perturb": [("initial", "template", "f0"), ("bundle", "k")],
        "expect": {"verdict": "TypeI", "case": "Indeterminate",
                   "reaches_t_end": True},
        "smoke_flow": {"cells": 24, "snapshot_every": 2},
    },
}

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("analyze_s", "s"),
              ("plot_s", "s"), ("steps", "count"), ("rhs_evals", "count"),
              ("peak_rss_mb", "MiB"), ("run_dir_bytes", "bytes")]

PER_LAYER = (
    [("evolution.stage.calls", "count"), ("evolution.stage.busy_s", "s"),
     ("evolution.stage.self_s", "s"), ("evolution.stage.us_per_call", "us"),
     ("evolution.stage.share", "ratio"),
     ("geometry.stacked_derivs.busy_s", "s"),
     ("geometry.stacked_derivs.us_per_call", "us"),
     ("evolution.rhs_core.busy_s", "s"),
     ("evolution.rhs_core.us_per_call", "us"),
     ("evolution.dt_bound.calls", "count"),
     ("evolution.dt_bound.us_per_call", "us"),
     ("evolution.monitor.rows", "count"), ("evolution.monitor.busy_s", "s"),
     ("evolution.monitor.us_per_row", "us"),
     ("evolution.monitor.share", "ratio")]
    + [(f"geometry.{fn}.us_per_call", "us") for fn in MONITOR_FUNCTIONS]
    + [("evolution.regrid_uniform.calls", "count"),
       ("evolution.regrid_uniform.busy_s", "s"),
       ("evolution.run_flow.busy_s", "s"), ("evolution.run_flow.self_s", "s"),
       ("initial_data.validate_closing.busy_s", "s"),
       ("initial_data.build.busy_s", "s"), ("cli.load_config.busy_s", "s"),
       ("cli.write_outputs.calls", "count"),
       ("cli.write_outputs.busy_s", "s"),
       ("cli.write_outputs.bytes", "bytes"),
       ("cli.read_trace.busy_s", "s"), ("cli.read_snapshots.busy_s", "s"),
       ("cli.read_snapshots.bytes", "bytes"),
       ("cli.svg_plot.calls", "count"), ("cli.svg_plot.busy_s", "s"),
       ("cli.svg_plot.bytes", "bytes"),
       ("analysis.analyze_run.busy_s", "s"),
       ("trace.run_s", "s"), ("trace.untraced_run_s", "s"),
       ("trace.overhead_s", "s"), ("trace.uncovered_s", "s"),
       ("trace.covered_share", "ratio")])


class BenchError(Exception):
    """The benchmark cannot run at all (no result is printed)."""


# ----------------------------------------------------------------------
# Inputs.


def make_config(name: str, seed: int, smoke: bool = False) -> dict:
    """The workload's config for ``seed``; seed 0 is the config as listed."""
    spec = WORKLOADS[name]
    cfg = json.loads(json.dumps(spec["config"]))
    if seed:
        rng = random.Random(f"{name}:{seed}")

        def jitter(v):
            return v * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION))

        for path in spec["perturb"]:
            node = cfg
            for key in path[:-1]:
                node = node[key]
            value = node[path[-1]]
            node[path[-1]] = ([jitter(v) for v in value]
                              if isinstance(value, list) else jitter(value))
    if smoke:
        cfg["flow"].update(spec["smoke_flow"])
    return cfg


def factor_constants(cfg: dict):
    """(q_i, k_i) of every factor, as bundleflow derives them."""
    if "bundle" in cfg:
        return list(zip(cfg["bundle"]["q"], cfg["bundle"]["k"]))
    params = cfg["initial"]["params"]  # calabi preset: q = k_lens, k = 2n
    return [(params["k_lens"], 2.0 * params["n"])]


# ----------------------------------------------------------------------
# Processes.


def child_env():
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def timed_process(cmd, deadline, **popen_kwargs):
    """Run ``cmd`` to completion; returns (exit code, wall seconds, start).

    The wait blocks in waitpid, so the wall time ends when the process
    does.  (Popen.wait with a timeout polls in steps of up to 50 ms, which
    would quantize every measurement.)  A timer kills the process if it
    outlives ``deadline`` (a time.monotonic value), and an exception here,
    such as SIGTERM turned into SystemExit, kills and reaps it too.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), **popen_kwargs)
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.daemon = True
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return code, time.monotonic() - t0, t0


def reference_s(deadline) -> float:
    """Wall time of REFERENCE_PROGRAM in a fresh interpreter."""
    code, wall, _ = timed_process([sys.executable, "-c", REFERENCE_PROGRAM],
                                  deadline)
    if code != 0:
        raise BenchError(f"reference program exited with {code}")
    return wall


def run_verb(argv, report_path, traced, log_prefix, deadline):
    """Run one bundleflow verb in a fresh process; returns its record."""
    cmd = [sys.executable, str(HERE / "child.py"), str(report_path),
           "1" if traced else "0", "--"] + argv
    with open(f"{log_prefix}.out", "w") as out, \
            open(f"{log_prefix}.err", "w") as err:
        code, wall, t0 = timed_process(cmd, deadline, stdout=out,
                                       stderr=err, cwd=str(ROOT))
    report = None
    if report_path.exists():
        report = json.loads(report_path.read_text())
    return {"code": code, "wall": wall, "t0": t0, "report": report,
            "stderr": Path(f"{log_prefix}.err").read_text()[-2000:]}


# ----------------------------------------------------------------------
# Output checks.


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array(rows[1:], float).reshape(len(rows) - 1, len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def manifest_problems(rundir: Path, ignore_suffix=".svg"):
    """Digests in manifest.json against the files on disk."""
    manifest = json.loads((rundir / "manifest.json").read_text())
    listed = manifest["files"]
    problems = []
    on_disk = sorted(p.relative_to(rundir).as_posix()
                     for p in rundir.rglob("*") if p.is_file()
                     and p.name != "manifest.json"
                     and p.suffix != ignore_suffix)
    if sorted(listed) != on_disk:
        problems.append("manifest file set differs from the run directory")
    for name, digest in listed.items():
        path = rundir / name
        if not path.is_file() or \
                hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"manifest digest mismatch for {name}")
    return problems, listed


def output_problems(name: str, cfg: dict, rundir: Path):
    """Checks on a finished run directory (criteria 03-05 and the verdict)."""
    expect = WORKLOADS[name]["expect"]
    problems = []
    report = json.loads((rundir / "report.json").read_text())
    for key in ("verdict", "case"):
        if report[key] != expect[key]:
            problems.append(f"{key} {report[key]!r}, expected "
                            f"{expect[key]!r}")
    if "t_hat" in expect:
        want, tol = expect["t_hat"]
        if report["T_hat"] is None or abs(report["T_hat"] - want) > tol:
            problems.append(f"T_hat {report['T_hat']}, expected {want}")
    trace = _read_csv(rundir / "trace.csv")
    for col in ("kahler_res", "heat_res"):
        worst = float(trace[col].max())
        if not worst <= RESIDUAL_BOUND:
            problems.append(f"max {col} {worst:.3g} > {RESIDUAL_BOUND:g}")
    t_last, t_end = float(trace["t"][-1]), cfg["flow"]["t_end"]
    if expect["reaches_t_end"]:
        if abs(t_last - t_end) > T_END_ABS_TOL:
            problems.append(f"final t {t_last!r} != t_end {t_end!r}")
    elif not t_last < t_end:
        problems.append(f"final t {t_last!r} reached t_end; expected a "
                        f"stop at the floor")
    boundary = _read_csv(rundir / "boundary.csv")
    for i, (q, k) in enumerate(factor_constants(cfg), start=1):
        scale = 2.0 * (abs(q) + abs(k))
        for side, slope in (("left", 2.0 * q - 2.0 * k),
                            ("right", -2.0 * q - 2.0 * k)):
            fitted = float(np.polyfit(boundary["t"],
                                      boundary[f"f{i}sq_{side}"], 1)[0])
            if not abs(fitted - slope) <= SLOPE_REL_TOL * scale:
                problems.append(f"factor {i} {side} slope {fitted:.6g}, "
                                f"expected {slope:.6g}")
    return problems, report


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# Per-layer aggregation of spans.


def process_layers(doc):
    """Per span name: [calls, busy, self, bytes]; plus top-level busy.

    Calls of the monitor functions count only directly under run_flow
    (the monitor row); the same functions also serve regridding and
    plotting.
    """
    names, spans = doc["names"], doc["spans"]
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    acc, top = {}, 0.0
    for i, (n, _, _, parent, nbytes) in enumerate(spans):
        name = names[n]
        if name.startswith("geometry.") and name != "geometry.stacked_derivs":
            if parent < 0 or names[spans[parent][0]] != "evolution.run_flow":
                continue
        entry = acc.setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += dur[i]
        entry[2] += dur[i] - child[i]
        entry[3] += nbytes
        if parent < 0:
            top += dur[i]
    return acc, top


def layer_metrics(docs, run_s):
    """Per-layer metrics of one traced iteration (run, analyze, plot).

    ``run_s`` is the raw wall time of the run process, so shares compare
    spans and wall time taken at the same host speed.
    """
    acc = {}
    for doc in docs:
        for name, vals in process_layers(doc)[0].items():
            entry = acc.setdefault(name, [0, 0.0, 0.0, 0])
            for j in range(4):
                entry[j] += vals[j]
    covered = process_layers(docs[0])[1]

    def get(name):
        return acc.get(name, [0, 0.0, 0.0, 0])

    def per_call(name):
        calls, busy = get(name)[:2]
        return 1e6 * busy / calls if calls else 0.0

    out = {}
    for name in ("evolution.stage", "geometry.stacked_derivs",
                 "evolution.rhs_core", "evolution.dt_bound",
                 "evolution.regrid_uniform", "evolution.run_flow",
                 "initial_data.validate_closing", "initial_data.build",
                 "cli.load_config", "cli.write_outputs", "cli.read_trace",
                 "cli.read_snapshots", "cli.svg_plot",
                 "analysis.analyze_run"):
        calls, busy, self_s, nbytes = get(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_s"] = busy
        out[f"{name}.self_s"] = self_s
        out[f"{name}.us_per_call"] = per_call(name)
        out[f"{name}.bytes"] = nbytes
    monitor = [f"geometry.{fn}" for fn in MONITOR_FUNCTIONS]
    for name in monitor:
        out[f"{name}.us_per_call"] = per_call(name)
    rows = get("geometry.curvature_sup_proxy")[0]
    busy = sum(get(name)[1] for name in monitor)
    out["evolution.monitor.rows"] = rows
    out["evolution.monitor.busy_s"] = busy
    out["evolution.monitor.us_per_row"] = 1e6 * busy / rows if rows else 0.0
    out["evolution.monitor.share"] = busy / run_s
    out["evolution.stage.share"] = out["evolution.stage.busy_s"] / run_s
    out["trace.uncovered_s"] = run_s - covered
    out["trace.covered_share"] = covered / run_s
    return out


# ----------------------------------------------------------------------
# One iteration and the measurement loop.


def iteration(name, cfg_path, cfg, workdir, idx, traced, deadline):
    """One run, then analyze and plot twice; returns (record, run dir)."""
    rundir = workdir / f"run{idx}"
    rec = {"traced": traced, "problems": []}
    docs = []
    analyze = ("analyze", ["analyze", str(rundir)])
    plot = ("plot", ["plot", str(rundir), "--field", "kappa"])
    groups = [[("run", ["run", str(cfg_path), "--out", str(rundir)])],
              [analyze, plot, analyze, plot]]
    speed = [reference_s(deadline)]
    for group in groups:
        walls = []
        for verb, argv in group:
            prefix = workdir / f"{len(docs)}-{verb}{idx}"
            res = run_verb(argv, prefix.with_suffix(".json"), traced, prefix,
                           deadline)
            if res["code"] != 0 or res["report"] is None:
                rec["problems"].append(f"{verb} exited with {res['code']}: "
                                       f"{res['stderr'].strip()[-500:]}")
                return rec, rundir
            docs.append(res["report"])
            walls.append((verb, res["wall"]))
            try:
                check_verb(verb, name, cfg, rundir, res, rec)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                rec["problems"].append(f"{verb} outputs unreadable: "
                                       f"{exc!r}")
                return rec, rundir
        speed.append(reference_s(deadline))
        scale = 2.0 * REFERENCE_S / (speed[-2] + speed[-1])
        if "setup_raw_s" in rec and "setup_s" not in rec:
            rec["setup_s"] = [rec["setup_raw_s"][0] * scale]
        for verb, wall in walls:
            rec.setdefault(f"{verb}_s", []).append(wall * scale)
            rec.setdefault(f"{verb}_raw_s", []).append(wall)
    if traced:
        # One run, analyze and plot: the layers of one user workflow.
        rec["layers"] = layer_metrics(docs[:3], rec["run_raw_s"][0])
        rec["layers"]["trace.run_s"] = rec["run_s"][0]
    return rec, rundir


def check_verb(verb, name, cfg, rundir, res, rec):
    """Record the verb's metrics in ``rec`` and append its problems."""
    if verb == "run":
        first = res["report"]["first_rhs"]
        if first is None:
            rec["problems"].append("run made no RHS evaluation")
            return
        rec["setup_raw_s"] = [first - res["t0"]]
        rec["steps"] = res["report"]["counts"]["steps"]
        rec["rhs_evals"] = res["report"]["counts"]["rhs_evals"]
        rec["peak_rss_mb"] = res["report"]["maxrss_kib"] / 1024.0
        rec["run_dir_bytes"] = dir_bytes(rundir)
        problems, rec["digests"] = manifest_problems(rundir)
        rec["problems"] += problems
        problems, rec["report"] = output_problems(name, cfg, rundir)
        rec["problems"] += problems
    elif verb == "analyze":
        problems, _ = manifest_problems(rundir)
        rec["problems"] += problems
        again = json.loads((rundir / "report.json").read_text())
        if again != rec["report"]:
            rec["problems"].append("analyze changed report.json")
    else:
        svg = rundir / "field_kappa.svg"
        if not svg.is_file() or svg.stat().st_size == 0:
            rec["problems"].append("plot wrote no field_kappa.svg")


def measure(name, seed, seconds, traced_mode, smoke=False):
    """Run iterations for ``seconds``; returns the list of records."""
    if not (SRC / "bundleflow" / "cli.py").is_file():
        raise BenchError(f"bundleflow sources not found under {SRC}")
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    cfg = make_config(name, seed, smoke)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    records = []
    try:
        last = 0.0
        while True:
            elapsed = time.monotonic() - started
            # Stop at the iteration boundary nearest to ``seconds``.
            if len(records) >= MIN_ITERATIONS and \
                    elapsed + last / 2.0 >= seconds:
                break
            if elapsed + last > START_LIMIT_S:
                break
            t0 = time.monotonic()
            traced = traced_mode and len(records) % 2 == 1
            rec, rundir = iteration(name, cfg_path, cfg, workdir,
                                    len(records), traced,
                                    started + HARD_LIMIT_S)
            shutil.rmtree(rundir, ignore_errors=True)
            if records and not rec["problems"]:
                first = records[0]
                for key in ("steps", "rhs_evals", "run_dir_bytes",
                            "digests"):
                    if first.get(key) is not None and \
                            rec.get(key) != first[key]:
                        rec["problems"].append(
                            f"{key} differs from the first repeat")
            for problem in rec["problems"]:
                print(f"# FAIL {name} iteration {len(records)}: "
                      f"{problem}", file=sys.stderr)
            records.append(rec)
            last = time.monotonic() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return records


def summarize(name, records, traced_mode):
    """Medians over passing iterations; prints lines; returns the result."""
    failed = sum(1 for r in records if r["problems"])
    good = [r for r in records if not r["problems"]] or records
    metrics = {}

    def add(metric, unit, values, raw=None):
        values = [v for v in values if v is not None]
        if not values:
            return
        value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
        note = ""
        if raw:
            note = f"; raw wall median {statistics.median(raw):.6g} s"
        print(f"{name} {metric} = {value:.6g} {unit} "
              f"(median of {len(values)}{note})")

    def samples(recs, key):
        out = []
        for r in recs:
            value = r.get(key)
            out += value if isinstance(value, list) else [value]
        return out

    untraced = [r for r in good if not r["traced"]]
    for metric, unit in END_TO_END:
        raw = samples(untraced, metric[:-2] + "_raw_s")
        add(metric, unit, samples(untraced, metric),
            [v for v in raw if v is not None])
    e2e = {m: metrics.pop(m) for m, _ in END_TO_END if m in metrics}
    print(f"{name} failed_ratio = {failed / len(records):.6g} ratio "
          f"({failed} of {len(records)} iterations)")
    if not traced_mode:
        return {"correct": failed == 0, "attempted": len(records),
                "failed": failed, "metrics": e2e}
    traced = [r for r in good if r["traced"] and "layers" in r]
    for metric, unit in PER_LAYER:
        if metric in ("trace.untraced_run_s", "trace.overhead_s"):
            continue
        add(metric, unit, [r["layers"][metric] for r in traced])
    if "run_s" in e2e and "trace.run_s" in metrics:
        base = e2e["run_s"]["value"]
        overhead = metrics["trace.run_s"]["value"] - base
        metrics["trace.untraced_run_s"] = {"value": base, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"{name} trace.untraced_run_s = {base:.6g} s (median of "
              f"{len(untraced)})")
        print(f"{name} trace.overhead_s = {overhead:.6g} s (traced minus "
              f"untraced median run_s)")
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed, "metrics": metrics}


def environment_record():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit, "threads": THREAD_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="24-cell grids, for perfbench/selftest.py")
    args = parser.parse_args(argv)
    # Let a SIGTERM unwind, so the running verb is killed and reaped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        records = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), smoke=args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = summarize(args.workload, records, bool(args.trace))
    wanted = PER_LAYER if args.trace else END_TO_END
    if set(result["metrics"]) != {m for m, _ in wanted}:
        print("error: no iteration produced every metric", file=sys.stderr)
        return 1
    print("env " + json.dumps(environment_record(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
