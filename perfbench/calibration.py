"""Machine-speed calibration for the benchmark's time metrics.

The speed of the shared machine the benchmark was built on drifts by
±20-30 % over tens of seconds: back-to-back operations of one process
were measured with a coefficient of variation of 17 % and a lag-1
autocorrelation of 0.67, so one run's median can sit 25 % off the next
run's on identical work.  A fixed kernel that does not touch the package
is timed right before and right after every operation; the operation's
time is scaled by CALIB_REF_S over the mean of the two, which reports it
at the reference speed.  Raw wall times are printed beside the result.
"""

from __future__ import annotations

import time

# About the median duration of calibrate() on the reference machine (README.md).
CALIB_REF_S = 0.5


def calibrate():
    """Fixed work whose mix follows the workloads.

    40x40 complex matrix products (Fock generators), exponentials over
    201-element arrays (comb bath functions) and float formatting (CSV
    artifacts).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
    qd = q.conj().T
    s = np.diag(np.linspace(0.0, 1.0, 40)).astype(complex)
    for _ in range(6000):
        s = (q @ s) @ qd
    x = np.linspace(0.0, 1.0, 201)
    acc = 0j
    for k in range(6000):
        acc += np.sum(np.exp(-1j * x * k) - 1.0)
    rows = [f"{k * 0.1!r},{k / 3.0!r}" for k in range(120000)]
    return s, acc, rows


def timed_calibration() -> float:
    """Seconds one calibrate() call takes now."""
    t0 = time.perf_counter()
    calibrate()
    return time.perf_counter() - t0
