"""One workload process: set up, run operations in a closed loop, check them.

Started by run.py, never by hand.  It pins the BLAS/OpenMP thread count
before numpy is imported, imports oscbath from the checkout's src/ (and
refuses any other copy), builds and validates the workload's configs, then
runs one operation after another until the timed operations add up to
about --seconds.  Every operation's artifacts are hashed; a digest that differs
from the first operation's counts that operation as failed, since reruns
of one config must be byte-identical.  Each other operation is checked
against its oracle outside the timed region.

Operation times are scaled to the reference machine speed (calibration.py)
by a calibration right before and right after each operation.  Prints one
JSON object on stdout:
    ready, setup_calib_s    time.monotonic() when set-up finished, and the
                            calibration taken right after it
    attempted, failed, correct, failures
    run_s, solve_s, traced_run_s    per-operation seconds, scaled
    raw_run_s, raw_solve_s, calib_s     wall seconds and calibrations
    per_layer   tracer metrics per traced operation (--trace 1)
    peak_rss_mb, environment
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import CALIB_REF_S, timed_calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_OPS = 2


def _import_package():
    sys.path.insert(0, str(SRC))
    import oscbath

    where = Path(oscbath.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"oscbath was imported from {where}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _run_one(workload, tracer, work_dir, out):
    """Run one operation, calibrate, then hash and check the operation.

    The calibration before it is the last one in out["calib_s"].  Returns
    the operation's raw measured seconds.
    """
    from workloads import artifact_digest

    before = out["calib_s"][-1]
    op_dir = tempfile.mkdtemp(dir=work_dir)
    try:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                op = workload.operation(op_dir)
            else:
                with tracer:
                    op = workload.operation(op_dir)
        except Exception:  # a failing operation is counted, not fatal
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            out["failed"] += 1
            out["calib_s"].append(timed_calibration())
            return elapsed
        after = timed_calibration()
        out["calib_s"].append(after)
        digest = artifact_digest(op.files)
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)
    scale = CALIB_REF_S / (0.5 * (before + after))
    if tracer is None:
        out["raw_run_s"].append(op.run_s)
        out["raw_solve_s"].append(op.solve_s)
        out["run_s"].append(op.run_s * scale)
        out["solve_s"].append(op.solve_s * scale)
    else:
        out["traced_run_s"].append(op.run_s * scale)
    reference = out.setdefault("digest", digest)
    if digest != reference:
        out["failed"] += 1
        print(f"operation {out['attempted']}: artifact digest {digest[:16]} "
              f"differs from {reference[:16]}", file=sys.stderr)
    else:
        out["failures"] += workload.check(op)
    return op.run_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    import workloads
    from tracing import Tracer

    workload = workloads.make(args.workload, args.seed)
    workload.configs()
    ready = time.monotonic()
    setup_calib = timed_calibration()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_calib_s": setup_calib}))
        return 0

    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK)
    tracer = Tracer() if args.trace else None
    out = {"ready": ready, "setup_calib_s": setup_calib, "calib_s": [setup_calib],
           "attempted": 0, "failed": 0, "failures": [],
           "run_s": [], "solve_s": [], "traced_run_s": [], "raw_run_s": [], "raw_solve_s": []}
    # A traced run alternates an untraced and a traced operation, so that
    # the tracing overhead is measured in the same process on the same inputs.
    round_ = (None, tracer) if tracer else (None,)
    measured, rounds = 0.0, 0
    try:
        # Whole rounds until the measured time is within half a round of
        # --seconds, so a run measures about --seconds, never much more.
        while (rounds * len(round_) < MIN_OPS
               or measured + 0.5 * measured / rounds < args.seconds):
            for t in round_:
                measured += _run_one(workload, t, work_dir, out)
                out["attempted"] += 1
            rounds += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    out.pop("digest", None)
    out["correct"] = not out["failures"]
    if tracer is not None:
        out["per_layer"] = tracer.metrics(len(out["traced_run_s"]))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
