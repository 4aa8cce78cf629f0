"""Fast self-test of the benchmark on 24-cell grids (about a minute).

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py in smoke mode twice with one
seed and once traced, and asserts that:

- every end-to-end metric (and, traced, every per-layer metric) of
  BENCHMARK.json is printed by name with its unit, and failed_ratio is too;
- failed_ratio is 0, that is every iteration passed its output checks;
- two same-seed invocations give identical steps, rhs_evals and
  run_dir_bytes.  Identical artifact digests across the repeats of one
  invocation are among the output checks, so failed_ratio 0 covers them.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LINE = re.compile(r"^(\S+) (\S+) = (\S+) (\S+) \(")


def smoke(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match and match.group(1) == workload:
            printed[match.group(2)] = (float(match.group(3)),
                                       match.group(4))
    return printed, json.loads(lines[-1]), proc.stderr


def check_printed(printed, result, metrics):
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        assert printed.get(name, (None, None))[1] == unit, (name, printed)
        assert result["metrics"][name]["unit"] == unit, name
    assert set(result["metrics"]) == {m["name"] for m in metrics}


def main() -> int:
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = []
        for _ in range(2):
            printed, result, stderr = smoke(workload, 7, trace=0)
            check_printed(printed, result, BENCH["end_to_end"])
            assert printed["failed_ratio"] == (0.0, "ratio"), stderr
            assert result["correct"] and result["failed"] == 0, stderr
            runs.append(result["metrics"])
        for name in ("steps", "rhs_evals", "run_dir_bytes"):
            assert runs[0][name] == runs[1][name], (workload, name)
        printed, result, stderr = smoke(workload, 7, trace=1)
        check_printed(printed, result, BENCH["per_layer"])
        assert printed["failed_ratio"] == (0.0, "ratio"), stderr
        assert result["correct"] and result["failed"] == 0, stderr
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
