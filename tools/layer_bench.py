"""In-process layer timings of run_flow on a perfbench workload config.

    python tools/layer_bench.py [--workload canonical_80] [--seed 1]
                                [--repeats 7] [--against DIR]

First the start-up cost that every verb process pays: in each of
``--repeats`` fresh interpreters, the wall time of the three imports
that perfbench/child.py makes before it runs a verb (``bundleflow.cli``,
``bundleflow.evolution`` and ``bundleflow.initial_data``), with numpy not
imported before, whether numpy's code was loaded by them (the package
registers numpy lazily, so it should not be), and the modules outside
the package that they add.  The median time is printed with the
modules of the last interpreter.  When the interpreter writes no
bytecode cache, the time includes compiling the package.  Last, the two
verbs that read a run directory back, ``analyze`` and ``plot --field
kappa``, on the run directory that the persistence timing leaves, and
``run`` on the workload config, each in ``--repeats`` fresh interpreters
after the same imports: the median wall time of ``cli.main``, whether
numpy was loaded after it (analyze and plot do not compute with numpy,
so it should not be), and the median teardown, from ``cli.main``
returning to the parent's wait for the process returning, read on the
system-wide monotonic clock.

The config comes from ``make_config`` in perfbench/run.py, which is
imported as is (importing it pins BLAS to one thread, as the benchmark
does).  Each repeat runs ``evolution.run_flow`` twice in this process with
timers around the module attributes run_flow calls.  The first run times
``_stage`` (one RHS evaluation), ``rkl2_step`` (one step, its s - 1 inner
stages included) and ``_monitor_block`` (one flush, which fills every
column of its trace rows); the second times the two layers inside a
stage, ``stacked_derivs`` (the stencils) and ``_rhs_core`` (the RHS from
the stencils' derivatives), so their timers do not add to the first
run's.  The step bookkeeping is the first run's wall time outside
``_stage`` and ``_monitor_block`` per step: the min/max pass, the stop
tests, dt and the stage count, ``rkl2_step``'s updates between its
stages, the snapshots and the timers' own calls.  The persistence layer
is timed the same way on the last run's trace and snapshots:
``cli.write_outputs`` into a temporary run directory, then
``cli.read_snapshots`` on that directory, with the bytes the write
leaves there.  The first repeat warms caches and is dropped;
medians over the rest are printed as us per call (ms for the persistence
calls), and the trace-row cost as flush time / trace rows.

``--against DIR`` compares this tree with another checkout in one
process, where the host's drift between processes cannot swamp the
difference: DIR/src/bundleflow is imported under a second package name,
each tree loads the config with its own ``cli.load_config``, and the two
``run_flow`` calls, untimed inside, alternate for ``--repeats`` rounds,
the first a warm-up, the order swapped each round.  Printed are both
trees' steps and RHS evaluations (``rkl2_step`` and ``_stage`` calls,
counted in one more run of DIR's), both medians, the median of the
per-round ratio this / DIR and the number of rounds each side was faster.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

STARTUP_PROBE = """
import sys
import time
before = set(sys.modules)
start = time.perf_counter()
import bundleflow.cli
import bundleflow.evolution
import bundleflow.initial_data
elapsed = time.perf_counter() - start
added = sorted(name for name in set(sys.modules) - before
               if name.partition(".")[0] != "bundleflow")
loaded = any(name.startswith("numpy.") for name in sys.modules)
print(1e3 * elapsed, loaded, *added)
"""

VERB_PROBE = """
import sys
import time
import bundleflow.cli
import bundleflow.evolution
import bundleflow.initial_data
start = time.perf_counter()
code = bundleflow.cli.main(sys.argv[1:])
returned = time.monotonic()
elapsed = time.perf_counter() - start
print(1e3 * elapsed, any(name.startswith("numpy.") for name in sys.modules),
      returned)
sys.exit(code)
"""


def fresh_interpreters(script, repeats, *args):
    """For each of ``repeats`` fresh interpreters that import this tree's
    package and run ``script``: the fields of the last line it prints and
    the monotonic time at which the wait for it returned; a nonzero exit
    raises."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    runs = []
    for _ in range(repeats):
        stdout = subprocess.run([sys.executable, "-c", script, *args],
                                env=env, capture_output=True, text=True,
                                check=True).stdout
        runs.append((stdout.splitlines()[-1].split(), time.monotonic()))
    return runs


def startup(repeats):
    """(median ms of the imports, whether numpy was loaded, the modules
    they add) over fresh interpreters."""
    lines = [fields for fields, _ in fresh_interpreters(STARTUP_PROBE,
                                                        repeats)]
    _, loaded, *added = lines[-1]
    return (statistics.median(float(line[0]) for line in lines),
            loaded == "True", added)


def verb(argv, repeats):
    """(median ms of cli.main(argv), whether numpy was loaded after any
    call, median ms from cli.main returning to the wait for the process
    returning) over fresh interpreters."""
    runs = fresh_interpreters(VERB_PROBE, repeats, *argv)
    return (statistics.median(float(ms) for (ms, _, _), _ in runs),
            any(loaded == "True" for (_, loaded, _), _ in runs),
            statistics.median(1e3 * (ended - float(returned))
                              for (_, _, returned), ended in runs))


def load_tree(src, name):
    """Import the bundleflow package under the source directory ``src`` as
    the package ``name``, whose submodules then import by that name."""
    init = src / "bundleflow" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])


def alternate(runs, repeats):
    """Wall ms of each of the two callables ``runs`` over ``repeats``
    rounds, the order swapped each round and the first round dropped."""
    times = ([], [])
    for i in range(repeats):
        for side in (i % 2, 1 - i % 2):
            start = time.perf_counter()
            runs[side]()
            times[side].append(1e3 * (time.perf_counter() - start))
    return times[0][1:], times[1][1:]


def load_perfbench():
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling child
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Timers:
    """Inclusive wall time and call count per wrapped attribute, until
    ``restore`` puts the original attributes back."""

    def __init__(self, module, names):
        self.busy = dict.fromkeys(names, 0.0)
        self.calls = dict.fromkeys(names, 0)
        self.module = module
        self.originals = {name: getattr(module, name) for name in names}
        for name, fn in self.originals.items():
            setattr(module, name, self._wrap(fn, name))

    def restore(self):
        for name, fn in self.originals.items():
            setattr(self.module, name, fn)

    def _wrap(self, fn, name):
        busy, calls, clock = self.busy, self.calls, time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += clock() - start
                calls[name] += 1

        return timed



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="canonical_80")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--against", type=Path, metavar="DIR")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 (the first is warm-up)")
    if args.against and not (args.against / "src" / "bundleflow"
                             / "__init__.py").is_file():
        parser.error(f"{args.against} has no src/bundleflow package")

    startup_ms, numpy_loaded, startup_added = startup(args.repeats)
    run = load_perfbench()
    if args.workload not in run.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(sorted(run.WORKLOADS))}")
    sys.path.insert(0, str(ROOT / "src"))
    from bundleflow import evolution
    from bundleflow.analysis import analyze_run
    from bundleflow.cli import load_config, read_snapshots, write_outputs

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        config_text = json.dumps(run.make_config(args.workload, args.seed))
        path.write_text(config_text)
        cfg = load_config(path)
        if args.against:
            load_tree(args.against / "src", "bundleflow_against")
            other_cfg = importlib.import_module(
                "bundleflow_against.cli").load_config(path)
            other = importlib.import_module("bundleflow_against.evolution")

    def timed_run(names):
        timers = Timers(evolution, names)
        try:
            start = time.perf_counter()
            result = evolution.run_flow(cfg.spec, cfg.state0, cfg.flow)
            wall = time.perf_counter() - start
        finally:
            timers.restore()
        return result, wall, timers.busy, timers.calls

    def per_call(busy, calls, name):
        return 1e6 * busy[name] / max(calls[name], 1)

    samples = {key: [] for key in ("run_flow_ms", "stage_us", "step_us",
                                   "bookkeeping_us", "row_us", "derivs_us",
                                   "rhs_core_us")}
    for _ in range(args.repeats):
        (trace, snapshots), wall, busy, calls = timed_run(
            ("_stage", "rkl2_step", "_monitor_block"))
        rows = len(trace.rows)
        samples["run_flow_ms"].append(1e3 * wall)
        samples["stage_us"].append(per_call(busy, calls, "_stage"))
        samples["step_us"].append(per_call(busy, calls, "rkl2_step"))
        samples["bookkeeping_us"].append(
            1e6 * (wall - busy["_stage"] - busy["_monitor_block"])
            / max(calls["rkl2_step"], 1))
        samples["row_us"].append(1e6 * busy["_monitor_block"] / rows)
        _, _, inner, inner_calls = timed_run(("stacked_derivs", "_rhs_core"))
        samples["derivs_us"].append(
            per_call(inner, inner_calls, "stacked_derivs"))
        samples["rhs_core_us"].append(
            per_call(inner, inner_calls, "_rhs_core"))

    report = analyze_run(trace, [s.t for s in snapshots],
                         cfg.flow.stop_floor)
    samples["write_ms"], samples["read_ms"] = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.repeats):
            start = time.perf_counter()
            write_outputs(trace, snapshots, report, tmp, raw_config=cfg.raw)
            samples["write_ms"].append(1e3 * (time.perf_counter() - start))
            start = time.perf_counter()
            read_snapshots(tmp)
            samples["read_ms"].append(1e3 * (time.perf_counter() - start))
        written = sum(p.stat().st_size for p in Path(tmp).rglob("*")
                      if p.is_file())
        snap_bytes = sum(p.stat().st_size
                         for p in Path(tmp).glob("snapshots/*.json"))
        verbs = {name: verb(argv, args.repeats) for name, argv in (
            ("analyze", ["analyze", tmp]),
            ("plot --field kappa", ["plot", tmp, "--field", "kappa"]))}
        path = Path(tmp) / "workload.json"
        path.write_text(config_text)
        verbs["run"] = verb(["run", str(path), "--out", str(Path(tmp, "run"))],
                            args.repeats)

    med = {key: statistics.median(vals[1:]) for key, vals in samples.items()}
    print(f"workload {args.workload} seed {args.seed}: trace rows {rows}, "
          f"steps {calls['rkl2_step']}, RHS evaluations {calls['_stage']}, "
          f"flushes {calls['_monitor_block']} (at most "
          f"{evolution.MONITOR_BLOCK} rows each); medians of "
          f"{args.repeats - 1} runs after one warm-up")
    print(f"startup             {startup_ms:9.2f} ms import bundleflow.cli, "
          f"evolution and initial_data without numpy (median of "
          f"{args.repeats} interpreters); numpy loaded: "
          f"{'yes' if numpy_loaded else 'no'}; adds "
          f"{' '.join(startup_added) or 'nothing'}")
    print(f"run_flow            {med['run_flow_ms']:9.2f} ms")
    print(f"_stage              {med['stage_us']:9.2f} us per call")
    print(f"stacked_derivs      {med['derivs_us']:9.2f} us per call "
          f"(timed in a second run)")
    print(f"_rhs_core           {med['rhs_core_us']:9.2f} us per call "
          f"(timed in a second run)")
    print(f"rkl2_step           {med['step_us']:9.2f} us per call "
          f"(inner stages included)")
    print(f"step bookkeeping    {med['bookkeeping_us']:9.2f} us per step "
          f"(run_flow - _stage - _monitor_block)")
    print(f"trace row           {med['row_us']:9.2f} us per row "
          f"(flush time / rows)")
    print(f"write_outputs       {med['write_ms']:9.2f} ms per call "
          f"({written} bytes, {len(snapshots)} snapshots)")
    print(f"read_snapshots      {med['read_ms']:9.2f} ms per call "
          f"({snap_bytes} bytes)")
    for name, (ms, loaded, _) in verbs.items():
        print(f"{name:<20}{ms:9.2f} ms in cli.main after those imports "
              f"(median of {args.repeats} interpreters); numpy loaded: "
              f"{'yes' if loaded else 'no'}")
    for name, (_, _, exit_ms) in verbs.items():
        print(f"exit {name:<15}{exit_ms:9.2f} ms from cli.main returning to "
              f"the wait for its process returning (median of "
              f"{args.repeats} interpreters)")
    if args.against:
        this_ms, other_ms = alternate(
            (lambda: evolution.run_flow(cfg.spec, cfg.state0, cfg.flow),
             lambda: other.run_flow(other_cfg.spec, other_cfg.state0,
                                    other_cfg.flow)),
            args.repeats)
        ratio = statistics.median(a / b for a, b in zip(this_ms, other_ms))
        won = sum(a < b for a, b in zip(this_ms, other_ms))
        lost = sum(a > b for a, b in zip(this_ms, other_ms))
        counters = Timers(other, ("rkl2_step", "_stage"))
        try:
            other.run_flow(other_cfg.spec, other_cfg.state0, other_cfg.flow)
        finally:
            counters.restore()
        print(f"against             {args.against}: run_flow alternated "
              f"in this process, {len(this_ms)} rounds after one warm-up")
        print(f"work                steps {calls['rkl2_step']} this, "
              f"{counters.calls['rkl2_step']} against; RHS evaluations "
              f"{calls['_stage']} this, {counters.calls['_stage']} against")
        print(f"run_flow this       {statistics.median(this_ms):9.2f} ms")
        print(f"run_flow against    {statistics.median(other_ms):9.2f} ms")
        print(f"paired ratio        {ratio:9.3f} this / against (median); "
              f"faster in {won} rounds this, {lost} against")
    return 0


if __name__ == "__main__":
    sys.exit(main())
