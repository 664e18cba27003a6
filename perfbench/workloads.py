"""The benchmark's workloads: configs, the timed operation, and its checks.

An operation is the path a user runs: build the scenario config, solve it,
and write its artifacts with scenarios.write_result into a fresh
directory.  Each workload is built from a seed: seed 0 gives the shipped
presets, any other seed shifts the amplitudes, phases and rates within the
ranges given in README.md.  The shifts are small so that the work per
operation stays close to the preset's, and every Fock basis stays
untruncated.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np
from oscbath import bath, fock
from oscbath import scenarios as sc

import checks

NAMES = ("fig4", "comb-cat", "comb-oracle")

# Flat comb of 201 modes around the system frequency; the Markov-limit
# decay rate is pi * total_coupling_sq / width ~ 0.0201.
COMB = {"center": 1.0, "width": 1.0, "n_modes": 201,
        "total_coupling_sq": 0.0064, "occupation": 0.5}
# Spans are short enough that a 30-second run holds several operations.
COMB_SPAN = {"comb-cat": 12.0, "comb-oracle": 10.0}
COMB_POINTS = 400
ORACLE_DIM = 30
# The Fock oracle of comb-cat covers the frames with t <= ORACLE_SPAN.
ORACLE_SPAN = 5.0


def _scale(rng, value, rel):
    return value * rng.uniform(1.0 - rel, 1.0 + rel)


@dataclass
class Operation:
    """Timings, results and written files of one operation."""

    solve_s: float = 0.0
    run_s: float = 0.0
    configs: list = field(default_factory=list)
    results: list = field(default_factory=list)
    files: List[str] = field(default_factory=list)


@dataclass
class Workload:
    """One scenario run or more, each as (config builder, solver)."""

    name: str
    runs: list
    check: Callable[[Operation], List[str]]

    def configs(self):
        """Build and validate every config (part of set-up)."""
        return [make() for make, _ in self.runs]

    def operation(self, out_dir: str) -> Operation:
        op = Operation()
        for make, solve in self.runs:
            t0 = time.perf_counter()
            config = make()
            result = solve(config)
            t1 = time.perf_counter()
            op.files += sc.write_result(result, out_dir)
            t2 = time.perf_counter()
            op.solve_s += t1 - t0
            op.run_s += t2 - t0
            op.configs.append(config)
            op.results.append(result)
        return op


def artifact_digest(files) -> str:
    """SHA-256 over the names and bytes of an operation's artifacts."""
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def make(name: str, seed: int, small: bool = False) -> Workload:
    """Build a workload; small=True shrinks grids and spans for tests."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = random.Random(seed)
    if name == "fig4":
        return _fig4(rng, seed, small)
    return _comb(name, rng, seed, small)


def _fig4(rng, seed, small):
    overrides = {}
    if seed:
        raw = sc.fig4_config().raw
        a, bc = raw["a"], raw["bc"]
        overrides = {
            "a": {"alpha0": _scale(rng, a["alpha0"], 0.02),
                  "gamma": _scale(rng, a["gamma"], 0.03),
                  "Gamma": _scale(rng, a["Gamma"], 0.03)},
            "bc": {"alpha": _scale(rng, bc["alpha"], 0.02),
                   "phi": rng.uniform(-0.1, 0.1),
                   "gamma": _scale(rng, bc["gamma"], 0.03),
                   "Gamma": _scale(rng, bc["Gamma"], 0.03)},
        }
    if small:
        overrides.setdefault("a", {}).update(span=3.0, points=20, dim=20)
        overrides.setdefault("bc", {}).update(span=2.0, points=30, dim=30)
        overrides["qgrid"] = {"points": 256}
    return Workload(
        name="fig4",
        runs=[(lambda: sc.fig4_config(overrides), sc.run_fig4)],
        check=lambda op: checks.check_fig4(op.results[0], op.configs[0].raw))


def _comb(name, rng, seed, small):
    comb = dict(COMB)
    alpha, phi = 2.0, 0.0
    if seed:
        alpha = _scale(rng, alpha, 0.02)
        phi = rng.uniform(-0.1, 0.1)
        comb["total_coupling_sq"] = _scale(rng, comb["total_coupling_sq"], 0.03)
        comb["occupation"] = _scale(rng, comb["occupation"], 0.03)
    span, points, qpoints = COMB_SPAN[name], COMB_POINTS, 1024
    if small:
        comb["n_modes"] = 21
        span, points, qpoints = 2.0, 20, 256
    base = {
        "omega": 1.0,
        "bath": {"kind": "discrete-modes", "comb": comb},
        "time": {"span": span, "points": points},
        "qgrid": {"min": -12.0, "max": 12.0, "points": qpoints},
    }
    if name == "comb-cat":
        tree = dict(base, scenario="comb-cat",
                    initial={"kind": "cat", "alpha": alpha, "phi": phi},
                    solver={"kind": "cumulant"})
        oracle = {}

        def check(op):
            if "frames" not in oracle:
                oracle["frames"] = _fock_cat_frames(tree)
            return checks.check_comb_cat(op.results[0], oracle["frames"], points)

        return Workload(name=name, runs=[_scenario_run(tree)], check=check)

    initial = {"kind": "coherent", "alpha": alpha}
    trees = [dict(base, scenario=f"comb-oracle-{kind}", initial=initial,
                  solver=solver, emit_frames=False)
             for kind, solver in (
                 ("fock", {"kind": "fock", "dissipator": "time-dependent",
                           "dim": ORACLE_DIM}),
                 ("cumulant", {"kind": "cumulant"}))]
    return Workload(name=name, runs=[_scenario_run(t) for t in trees],
                    check=lambda op: checks.check_comb_oracle(*op.results))


def _scenario_run(tree):
    return (lambda: sc.ScenarioConfig.from_dict(tree), sc.run_scenario)


def _fock_cat_frames(tree):
    """Fock time-dependent densities of the comb-cat state for t <= ORACLE_SPAN.

    Built from the comb and cat parameters directly, not from the scenario
    pipeline that produced the frames under test.
    """
    c = tree["bath"]["comb"]
    comb = bath.flat_comb(center=c["center"], width=c["width"], n_modes=c["n_modes"],
                          total_coupling_sq=c["total_coupling_sq"],
                          occupation=c["occupation"])
    times = np.linspace(0.0, tree["time"]["span"], tree["time"]["points"])
    times = times[times <= ORACLE_SPAN]
    q = tree["qgrid"]
    grid = np.linspace(q["min"], q["max"], q["points"])
    omega = float(tree["omega"])
    sigma0 = fock.cat_density_matrix(tree["initial"]["alpha"], tree["initial"]["phi"],
                                     ORACLE_DIM)
    traj = fock.integrate(fock.TimeDependent(bath=comb), sigma0, omega, times)
    return [fock.position_density(fock.FockDensityMatrix(dim=ORACLE_DIM, sigma=s),
                                  grid).density
            for s in traj.states]
