"""Per-layer counters and timers, installed by patching the package at run time.

The tracer wraps public functions of bath, cumulant, fock, wavepacket and
scenarios by replacing module and class attributes, and restores them on
uninstall; no source file of the package changes.  A wrapped name that no
longer exists is skipped, and every metric that depends on it is reported
as absent, so the traced run goes on after a rename.

fock imports gamma_functions by name, so it is wrapped in both bath and
fock.  Nested calls of the config builders (fig4_config calls
ScenarioConfig.from_dict) are timed once, at the outermost call.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from collections import defaultdict

# Dims whose Liouvillian.apply cost is reported per call.
APPLY_DIMS = (30, 40)

# Each per-layer metric: name -> (unit, names of the wrapped targets it needs).
PER_LAYER = {
    "bath.gamma_functions.calls": ("count", ("gamma_functions",)),
    "bath.gamma_functions.s": ("s", ("gamma_functions",)),
    "bath.modes_arrays.calls": ("count", ("arrays",)),
    "cumulant.evolve.calls": ("count", ("evolve_cumulants",)),
    "cumulant.rhs_evals": ("count", ("relaxation_coefficients",)),
    "cumulant.evolve.self_s": ("s", ("evolve_cumulants", "gamma_functions")),
    "fock.apply.calls": ("count", ("apply",)),
    "fock.apply.s": ("s", ("apply",)),
    **{f"fock.apply.us_per_call.d{d}": ("us", ("apply",)) for d in APPLY_DIMS},
    "fock.integrate.calls": ("count", ("integrate",)),
    "fock.integrate.self_s": ("s", ("integrate", "apply")),
    "fock.steps.accepted": ("count", ("integrate",)),
    "fock.steps.rejected": ("count", ("integrate",)),
    "fock.steps.acceptance": ("ratio", ("integrate",)),
    "fock.position_density.calls": ("count", ("position_density",)),
    "fock.position_density.ms_per_frame": ("ms", ("position_density",)),
    "wavepacket.density_frame.calls": ("count", ("density_frame",)),
    "wavepacket.density_frame.s": ("s", ("density_frame",)),
    "scenarios.write_result.s": ("s", ("write_result",)),
    "scenarios.artifact_mb": ("MB", ("write_result",)),
    "scenarios.write_mb_per_s": ("MB/s", ("write_result",)),
    "scenarios.config.s": ("s", ("from_dict", "fig4_config")),
}


class Tracer:
    """Counts calls and sums wall time at the package's layer boundaries."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.secs = defaultdict(float)
        self.missing = set()
        self._saved = []
        self._config_depth = 0

    # -- patching ----------------------------------------------------------
    def install(self):
        from oscbath import bath, cumulant, fock, scenarios, wavepacket

        self._wrap(bath, "gamma_functions", self._timed("gamma_functions"))
        self._wrap(fock, "gamma_functions", self._timed("gamma_functions"))
        self._wrap(getattr(bath, "DiscreteModes", None), "arrays",
                   self._timed("arrays"))
        self._wrap(bath, "relaxation_coefficients", self._coefficients)
        self._wrap(cumulant, "evolve_cumulants", self._evolve)
        self._wrap(getattr(fock, "Liouvillian", None), "apply", self._apply)
        self._wrap(fock, "integrate", self._integrate)
        self._wrap(fock, "position_density", self._timed("position_density"))
        self._wrap(wavepacket, "density_frame", self._timed("density_frame"))
        self._wrap(scenarios, "write_result", self._write)
        self._wrap(scenarios, "fig4_config", self._config)
        self._wrap_classmethod(getattr(scenarios, "ScenarioConfig", None), "from_dict",
                               self._config)

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, owner, name, make_wrapper):
        fn = getattr(owner, name, None) if owner is not None else None
        if not callable(fn):
            self.missing.add(name)
            return
        self._saved.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, functools.wraps(fn)(make_wrapper(fn)))

    def _wrap_classmethod(self, owner, name, make_wrapper):
        raw = owner.__dict__.get(name) if owner is not None else None
        if not isinstance(raw, classmethod):
            self.missing.add(name)
            return
        self._saved.append((owner, name, raw))
        setattr(owner, name, classmethod(functools.wraps(raw.__func__)(
            make_wrapper(raw.__func__))))

    # -- wrappers ----------------------------------------------------------
    def _timed(self, key):
        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.secs[key] += time.perf_counter() - t0
                    self.calls[key] += 1
            return wrapper
        return make_wrapper

    def _coefficients(self, fn):
        def count_mu(mu):
            def wrapper(t):
                self.calls["rhs"] += 1
                return mu(t)
            return wrapper

        def wrapper(*args, **kwargs):
            coeffs = fn(*args, **kwargs)
            return dataclasses.replace(coeffs, mu=count_mu(coeffs.mu))
        return wrapper

    def _evolve(self, fn):
        def wrapper(*args, **kwargs):
            g0 = self.secs["gamma_functions"]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.calls["evolve"] += 1
                self.secs["evolve_self"] += dt - (self.secs["gamma_functions"] - g0)
        return wrapper

    def _apply(self, fn):
        def wrapper(liouvillian, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(liouvillian, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                key = f"apply.d{getattr(liouvillian, 'dim', 0)}"
                self.secs["apply"] += dt
                self.calls["apply"] += 1
                self.secs[key] += dt
                self.calls[key] += 1
        return wrapper

    def _integrate(self, fn):
        def wrapper(*args, **kwargs):
            a0 = self.secs["apply"]
            t0 = time.perf_counter()
            traj = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            self.calls["integrate"] += 1
            self.secs["integrate_self"] += dt - (self.secs["apply"] - a0)
            self.calls["accepted"] += getattr(traj, "n_accepted", 0)
            self.calls["rejected"] += getattr(traj, "n_rejected", 0)
            return traj
        return wrapper

    def _write(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            files = fn(*args, **kwargs)
            self.secs["write"] += time.perf_counter() - t0
            self.calls["write_bytes"] += sum(os.path.getsize(p) for p in files)
            return files
        return wrapper

    def _config(self, fn):
        def wrapper(*args, **kwargs):
            self._config_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._config_depth -= 1
                if self._config_depth == 0:
                    self.secs["config"] += time.perf_counter() - t0
        return wrapper

    # -- results -----------------------------------------------------------
    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics per traced operation; absent ones map to None.

        A ratio whose base is zero (no calls in this workload) reads 0.
        """
        c, s, n = self.calls, self.secs, max(n_ops, 1)

        def per_call(key, scale):
            return s[key] / c[key] * scale if c[key] else 0.0

        steps = c["accepted"] + c["rejected"]
        mb = c["write_bytes"] / 1e6
        values = {
            "bath.gamma_functions.calls": c["gamma_functions"] / n,
            "bath.gamma_functions.s": s["gamma_functions"] / n,
            "bath.modes_arrays.calls": c["arrays"] / n,
            "cumulant.evolve.calls": c["evolve"] / n,
            "cumulant.rhs_evals": c["rhs"] / n,
            "cumulant.evolve.self_s": s["evolve_self"] / n,
            "fock.apply.calls": c["apply"] / n,
            "fock.apply.s": s["apply"] / n,
            **{f"fock.apply.us_per_call.d{d}": per_call(f"apply.d{d}", 1e6)
               for d in APPLY_DIMS},
            "fock.integrate.calls": c["integrate"] / n,
            "fock.integrate.self_s": s["integrate_self"] / n,
            "fock.steps.accepted": c["accepted"] / n,
            "fock.steps.rejected": c["rejected"] / n,
            "fock.steps.acceptance": c["accepted"] / steps if steps else 0.0,
            "fock.position_density.calls": c["position_density"] / n,
            "fock.position_density.ms_per_frame": per_call("position_density", 1e3),
            "wavepacket.density_frame.calls": c["density_frame"] / n,
            "wavepacket.density_frame.s": s["density_frame"] / n,
            "scenarios.write_result.s": s["write"] / n,
            "scenarios.artifact_mb": mb / n,
            "scenarios.write_mb_per_s": mb / s["write"] if s["write"] else 0.0,
            "scenarios.config.s": s["config"] / n,
        }
        for name, (_, needs) in PER_LAYER.items():
            if self.missing.intersection(needs):
                values[name] = None
        return values
