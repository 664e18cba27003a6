"""oscbath benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload fig4 --seed 0 --seconds 30 --trace 0

Runs from the root of a checkout and uses the package in its src/.  The
workload runs in a fresh process of its own (worker.py) as a closed loop:
one caller, each operation starting when the previous one has finished.
Set-up time is measured from process start to the first operation being
ready, in that process and in SETUP_PROBES more that only set up; the
median is reported.  Every time is scaled to the reference machine speed
by calibrations taken next to it in the same process (calibration.py).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones (medians over the
run's operations), with --trace 1 the per-layer ones from tracer-wrapped
operations.  The line before it records the environment: Python, numpy,
scipy and BLAS versions, the BLAS thread count, nproc and the git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

from calibration import CALIB_REF_S  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

NAMES = ("fig4", "comb-cat", "comb-oracle")
SETUP_PROBES = 3
DEADLINE_S = 170.0

END_TO_END = {"run_s": "s", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**{name: unit for name, (unit, _) in PER_LAYER.items()},
                   "trace.overhead_s": "s"}


class BenchError(RuntimeError):
    pass


def git_commit():
    """HEAD of the checkout if it is a git work tree of its own, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def spawn(args, deadline, setup_only):
    """Run worker.py to completion; returns (its JSON, raw set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, result["ready"] - start


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="oscbath benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "oscbath" / "__init__.py").is_file():
        print(f"benchmark: no oscbath package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = 0 if args.trace else SETUP_PROBES
        runs = [spawn(args, deadline, setup_only=True) for _ in range(probes)]
        runs.append(spawn(args, deadline, setup_only=False))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    result = runs[-1][0]
    raw_setups = [setup for _, setup in runs]
    setups = [setup * CALIB_REF_S / r["setup_calib_s"] for r, setup in runs]
    if not result["run_s"]:
        print("benchmark: no operation completed", file=sys.stderr)
        return 3

    if args.trace:
        layer = result["per_layer"]
        overhead = (statistics.median(result["traced_run_s"])
                    - statistics.median(result["run_s"])) if result["traced_run_s"] else None
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            value = overhead if name == "trace.overhead_s" else layer[name]
            metrics[name] = metric(value, unit)
            if value is None:
                metrics[name]["absent"] = True
    else:
        values = {"run_s": statistics.median(result["run_s"]),
                  "solve_s": statistics.median(result["solve_s"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}

    env = dict(result["environment"], git_commit=git_commit())
    print(json.dumps({"environment": env}))
    samples = {k: result[k] for k in ("run_s", "solve_s", "traced_run_s", "raw_run_s",
                                      "raw_solve_s", "calib_s")}
    print(json.dumps({"samples": dict(samples, setup_s=setups, raw_setup_s=raw_setups),
                      "check_failures": result["failures"]}))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
