"""Run one bundleflow CLI verb in this process, with benchmark hooks.

    python3 perfbench/child.py REPORT_JSON TRACE -- <bundleflow arguments>

The verb runs through ``bundleflow.cli.main``, the function behind the
``bundleflow`` console script.  Hooks replace module attributes at the call
sites bundleflow's own modules use: ``evolution`` imports
``curvature_sup_proxy`` and friends by name, so the hook for that call
lives on ``bundleflow.evolution``, not on ``bundleflow.geometry``.  No
program file changes.

Always installed (TRACE 0 and 1): counters of flow-RHS evaluations
(``evolution._stage``) and accepted steps (``evolution._dt_bound``, called
once per step taken), and the monotonic time of the first RHS evaluation,
which ends set-up.  With TRACE 1 every hooked layer call also records a
span (name, start, end, parent span) in memory.  REPORT_JSON is written
when the verb returns, together with this process's peak resident memory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

MONITOR_FUNCTIONS = ("curvature_sup_proxy", "kahler_defect", "laplacian_f2",
                     "cumulative_from_left", "endpoint_even")


def _write_outputs_bytes(args, kwargs, manifest):
    out = Path(args[3] if len(args) > 3 else kwargs["out_dir"])
    names = list(manifest["files"]) + ["manifest.json"]
    return sum((out / name).stat().st_size for name in names)


def _snapshot_bytes(args, kwargs, states):
    snapdir = Path(args[0] if args else kwargs["out_dir"]) / "snapshots"
    return sum(p.stat().st_size for p in snapdir.glob("snap_*.json"))


def _svg_bytes(args, kwargs, written):
    return Path(args[0]).stat().st_size if written else 0


class Recorder:
    """Counters, the set-up mark and (when traced) spans of one process."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.first_rhs = None
        self.counts = {"rhs_evals": 0, "steps": 0}
        self.names = []
        self.spans = []  # [name index, start, end, parent index, bytes]
        self._stack = []

    def install(self, cli, evolution, initial_data):
        self._count(evolution, "_dt_bound", "steps")
        self._count(evolution, "_stage", "rhs_evals", mark=True)
        if not self.traced:
            return
        hooks = [
            (cli, "load_config", "cli.load_config", None),
            (cli, "build_kahler_profile", "initial_data.build", None),
            (cli, "build_general_profile", "initial_data.build", None),
            (evolution, "validate_closing",
             "initial_data.validate_closing", None),
            (cli, "run_flow", "evolution.run_flow", None),
            (evolution, "_stage", "evolution.stage", None),
            (evolution, "stacked_derivs", "geometry.stacked_derivs", None),
            (evolution, "_rhs_core", "evolution.rhs_core", None),
            (evolution, "_dt_bound", "evolution.dt_bound", None),
            (evolution, "regrid_uniform", "evolution.regrid_uniform", None),
            (cli, "analyze_run", "analysis.analyze_run", None),
            (cli, "write_outputs", "cli.write_outputs",
             _write_outputs_bytes),
            (cli, "read_trace", "cli.read_trace", None),
            (cli, "read_snapshots", "cli.read_snapshots", _snapshot_bytes),
            (cli, "render_plots", "cli.render_plots", None),
            (cli, "_svg_plot", "cli.svg_plot", _svg_bytes),
        ] + [(evolution, fn, f"geometry.{fn}", None)
             for fn in MONITOR_FUNCTIONS]
        for module, attr, name, measure in hooks:
            setattr(module, attr,
                    self._span(getattr(module, attr), name, measure))
        # cli looks presets up in this same dict object.
        for key, factory in list(initial_data.PRESETS.items()):
            initial_data.PRESETS[key] = self._span(
                factory, "initial_data.build", None)

    def _count(self, module, attr, key, mark=False):
        fn = getattr(module, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            if mark and self.first_rhs is None:
                self.first_rhs = time.monotonic()
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, counted)

    def _span(self, fn, name, measure):
        if name not in self.names:
            self.names.append(name)
        name_idx = self.names.index(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(spans)
            span = [name_idx, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, result)
            return result

        return spanned

    def dump(self, path):
        doc = {"first_rhs": self.first_rhs, "counts": self.counts,
               "maxrss_kib": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss}
        if self.traced:
            doc["names"] = self.names
            doc["spans"] = self.spans
        Path(path).write_text(json.dumps(doc))


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print("usage: child.py REPORT_JSON TRACE -- <bundleflow arguments>",
              file=sys.stderr)
        return 2
    report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[4:]
    import bundleflow.cli as cli
    import bundleflow.evolution as evolution
    import bundleflow.initial_data as initial_data

    recorder = Recorder(traced)
    recorder.install(cli, evolution, initial_data)
    try:
        return cli.main(argv)
    finally:
        recorder.dump(report_path)


if __name__ == "__main__":
    sys.exit(main())
