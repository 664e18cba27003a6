"""Scenario configs, figure presets, and artifact emission.

A scenario wires a bath, an initial state, and one solver into a run that
emits CSV/JSON artifacts.  Configs are plain JSON trees; the CLI can
override any leaf with --set dotted.key=value.  Identical configs produce
byte-identical outputs: floats are written with repr (shortest
round-trip), iteration orders are fixed, and nothing draws randomness.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import bath as bath_mod
from . import cumulant as cum
from . import fock as fock_mod
from . import wavepacket as wp
from .errors import ConfigError

BATH_KINDS = ("linear-markov", "quadratic-markov", "early-time", "discrete-modes")
SOLVER_KINDS = ("cumulant", "analytic", "fock")
INITIAL_KINDS = ("coherent", "cat", "number")
# fig4's sub-run tables (numeric leaves; dim and points are integers)
FIG4_SUBRUNS = ("a", "bc")
# Fock dissipator name -> (bath kind, constructor from the built bath); the
# first name listed for a bath kind is its default.
FOCK_DISSIPATORS = {
    "linear-nonrwa": ("linear-markov", lambda b: fock_mod.LinearNonRWA(b.gamma, b.nbar)),
    "linear-rwa": ("linear-markov", lambda b: fock_mod.LinearRWA(b.gamma, b.nbar)),
    "quadratic-lindblad": ("quadratic-markov",
                           lambda b: fock_mod.QuadraticLindblad(b.Gamma, b.nbar2)),
    "quadratic-literal": ("quadratic-markov",
                          lambda b: fock_mod.QuadraticLiteral(b.Gamma, b.nbar2)),
    "time-dependent": ("discrete-modes", lambda b: fock_mod.TimeDependent(b)),
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (raw tree kept for provenance)."""

    raw: dict

    # convenience accessors -------------------------------------------------
    @property
    def scenario(self) -> str:
        return self.raw.get("scenario", "custom")

    @property
    def omega(self) -> float:
        return float(self.raw.get("omega", 1.0))

    @property
    def bath(self) -> dict:
        return self.raw.get("bath", {})

    @property
    def initial(self) -> dict:
        return self.raw.get("initial", {})

    @property
    def solver(self) -> dict:
        return self.raw.get("solver", {})

    @property
    def dissipators(self) -> Tuple[str, ...]:
        """Fock dissipators allowed for this bath, the default first."""
        bkind = self.bath.get("kind")
        return tuple(name for name, (b, _) in FOCK_DISSIPATORS.items() if b == bkind)

    @property
    def dissipator(self) -> Optional[str]:
        return self.solver.get("dissipator", next(iter(self.dissipators), None))

    @property
    def time_span(self) -> float:
        return float(self.raw.get("time", {}).get("span", 10.0))

    @property
    def time_points(self) -> int:
        return _integer("time.points", self.raw.get("time", {}).get("points", 400))

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.time_span, self.time_points)

    @property
    def q_bounds(self) -> Tuple[float, float]:
        q = self.raw.get("qgrid", {})
        return float(q.get("min", -12.0)), float(q.get("max", 12.0))

    @property
    def q_points(self) -> int:
        return _integer("qgrid.points", self.raw.get("qgrid", {}).get("points", 2048))

    def q_grid(self) -> np.ndarray:
        return np.linspace(*self.q_bounds, self.q_points)

    @classmethod
    def from_dict(cls, tree: dict, overrides: Optional[dict] = None) -> "ScenarioConfig":
        cfg = cls(raw=_merge(tree, overrides or {}))
        cfg.validate()
        return cfg

    # validation ------------------------------------------------------------
    def validate(self) -> None:
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ConfigError(f"omega must be finite and > 0, got {self.omega}")
        if not (math.isfinite(self.time_span) and self.time_span > 0):
            raise ConfigError(f"time.span must be finite and > 0, got {self.time_span}")
        if self.time_points < 2:
            raise ConfigError("time.points must be >= 2")
        self.q_points  # raises ConfigError unless a finite integer
        for key in ("alpha", "phi"):
            if key in self.initial:
                _finite(f"initial.{key}", self.initial[key])
        for label in FIG4_SUBRUNS:
            sub = self.raw.get(label, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"{label} must be a table of sub-run settings")
            for key, value in sub.items():
                check = _integer if key in ("dim", "points") else _finite
                check(f"{label}.{key}", value)
        q_min, q_max = self.q_bounds
        if not (math.isfinite(q_min) and math.isfinite(q_max) and q_min < q_max):
            raise ConfigError(
                f"qgrid.min and qgrid.max must be finite with min < max, "
                f"got min={q_min}, max={q_max}")
        bkind = self.bath.get("kind")
        if bkind not in BATH_KINDS:
            raise ConfigError(f"bath.kind must be one of {BATH_KINDS}, got {bkind!r}")
        ikind = self.initial.get("kind")
        if ikind not in INITIAL_KINDS:
            raise ConfigError(f"initial.kind must be one of {INITIAL_KINDS}, got {ikind!r}")
        skind = self.solver.get("kind")
        if skind not in SOLVER_KINDS:
            raise ConfigError(f"solver.kind must be one of {SOLVER_KINDS}, got {skind!r}")

        if skind in ("cumulant", "analytic") and ikind == "number":
            raise ConfigError(
                f"initial state 'number' is not a Gaussian branch; "
                f"the {skind} solver cannot represent it -- use solver.kind='fock'")
        if skind == "cumulant" and bkind == "quadratic-markov":
            raise ConfigError(
                "the two-quantum bath has no Gaussian cumulant dynamics; "
                "use solver.kind='fock' with dissipator 'quadratic-lindblad'")
        if skind == "analytic" and bkind != "linear-markov":
            raise ConfigError(
                f"the analytic solver covers only the linear Markov bath, "
                f"not {bkind!r}")
        if skind == "fock":
            _integer("solver.dim", self.solver.get("dim", 30))
            if ikind == "number":
                _integer("initial.k", self.initial.get("k", 0))
            diss = self.dissipator
            if diss is None:
                raise ConfigError(
                    "the early-time bath is a closed-form limit with no Fock "
                    "dissipator; use solver.kind='cumulant' or 'analytic'")
            if diss not in FOCK_DISSIPATORS:
                raise ConfigError(
                    f"solver.dissipator must be one of {tuple(FOCK_DISSIPATORS)}, "
                    f"got {diss!r}")
            allowed = self.dissipators
            if diss not in allowed:
                raise ConfigError(
                    f"dissipator {diss!r} does not match bath {bkind!r}; "
                    f"allowed: {allowed}")
        built = build_bath(self.bath, self.omega)  # parameter-level validation
        if isinstance(built, bath_mod.LinearMarkov) and built.gamma >= self.omega:
            raise ConfigError(
                f"linear bath requires the underdamped regime gamma < omega "
                f"(gamma={built.gamma}, omega={self.omega})")


def _finite(key: str, value) -> complex:
    try:
        x = _cplx(value)
    except (TypeError, ValueError):
        x = complex("nan")
    if not cmath.isfinite(x):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return x


def _real(key: str, value) -> float:
    x = _finite(key, value)
    if x.imag != 0:
        raise ConfigError(f"{key} must be a finite real number, got {value!r}")
    return x.real


def _integer(key: str, value) -> int:
    x = _finite(key, value)
    if x.imag != 0 or not x.real.is_integer():
        raise ConfigError(f"{key} must be a finite integer, got {value!r}")
    return int(x.real)


# ---------------------------------------------------------------------------
# config -> domain objects

def build_bath(cfg: dict, omega: float) -> bath_mod.BathModel:
    kind = cfg.get("kind")
    try:
        if kind == "linear-markov":
            nbar = _occupation(cfg, omega)
            return bath_mod.LinearMarkov(gamma=_real("bath.gamma", cfg["gamma"]),
                                         nbar=nbar)
        if kind == "quadratic-markov":
            nbar2 = _occupation(cfg, 2 * omega, key="nbar2")
            return bath_mod.QuadraticMarkov(Gamma=_real("bath.Gamma", cfg["Gamma"]),
                                            nbar2=nbar2)
        if kind == "early-time":
            return bath_mod.EarlyTime(Gamma0=_real("bath.Gamma0", cfg["Gamma0"]))
        if kind == "discrete-modes":
            if "comb" in cfg:
                c = cfg["comb"]
                return bath_mod.flat_comb(
                    center=float(c["center"]), width=float(c["width"]),
                    n_modes=int(c["n_modes"]),
                    total_coupling_sq=float(c["total_coupling_sq"]),
                    occupation=float(c.get("occupation", 0.0)))
            modes = tuple(bath_mod.Mode(float(m[0]), float(m[1]),
                                        float(m[2]) if len(m) > 2 else 0.0)
                          for m in cfg["modes"])
            return bath_mod.DiscreteModes(modes)
    except KeyError as exc:
        raise ConfigError(f"bath config for {kind!r} is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown bath kind {kind!r}")


def _occupation(cfg: dict, at_omega: float, key: str = "nbar") -> float:
    if key in cfg:
        return _real(f"bath.{key}", cfg[key])
    if "kT" in cfg:
        return bath_mod.bose_occupation(at_omega, _real("bath.kT", cfg["kT"]))
    return 0.0


def build_superposition(cfg: dict, omega: float) -> cum.SuperpositionState:
    kind = cfg.get("kind")
    if kind == "coherent":
        return cum.coherent_state(_cplx(cfg.get("alpha", 1.0)), system_omega=omega)
    if kind == "cat":
        return cum.make_cat(_cplx(cfg.get("alpha", 2.0)),
                            float(cfg.get("phi", 0.0)), system_omega=omega)
    raise ConfigError(f"initial kind {kind!r} has no Gaussian-branch form")


def build_fock_state(cfg: dict, dim: int) -> fock_mod.FockDensityMatrix:
    kind = cfg.get("kind")
    if kind == "coherent":
        return fock_mod.coherent_density_matrix(_cplx(cfg.get("alpha", 1.0)), dim)
    if kind == "cat":
        return fock_mod.cat_density_matrix(_cplx(cfg.get("alpha", 2.0)),
                                           float(cfg.get("phi", 0.0)), dim)
    if kind == "number":
        return fock_mod.number_state_density_matrix(int(cfg.get("k", 0)), dim)
    raise ConfigError(f"unknown initial kind {kind!r}")


def _cplx(v) -> complex:
    try:
        if isinstance(v, (list, tuple)) and len(v) == 2:
            return complex(float(v[0]), float(v[1]))
        return complex(v)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"expected a number or [re, im], got {v!r}") from exc


# ---------------------------------------------------------------------------
# generic scenario pipeline

@dataclass
class ScenarioResult:
    name: str
    times: np.ndarray
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    frames: List[wp.WavepacketFrame] = field(default_factory=list)
    extra_frames: Dict[str, List[wp.WavepacketFrame]] = field(default_factory=dict)
    # series groups on their own time axis: label -> (times, {name: values})
    extra_series: Dict[str, Tuple[np.ndarray, Dict[str, np.ndarray]]] = \
        field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run one validated config end to end (no files written)."""
    omega = config.omega
    bath = build_bath(config.bath, omega)
    times = config.time_grid()
    grid = config.q_grid()
    skind = config.solver.get("kind")
    emit_frames = bool(config.raw.get("emit_frames", True))
    result = ScenarioResult(name=config.scenario, times=times)

    if skind == "cumulant":
        state = build_superposition(config.initial, omega)
        coeffs = bath_mod.relaxation_coefficients(bath, omega)
        rtol = float(config.solver.get("rtol", 1e-10))
        atol = float(config.solver.get("atol", 1e-12))
        evolved = cum.evolve_superposition(state, coeffs, times, rtol=rtol, atol=atol)
        _cumulant_series(result, state, evolved)
        if emit_frames:
            result.frames = [
                wp.density_frame(state, [evolved[b][i] for b in range(len(state.branches))],
                                 grid, t)
                for i, t in enumerate(times)]
    elif skind == "analytic":
        state = build_superposition(config.initial, omega)
        _analytic_run(result, config, bath, state, grid)
    elif skind == "fock":
        dim = int(config.solver.get("dim", 30))
        kind = FOCK_DISSIPATORS[config.dissipator][1](bath)
        sigma0 = build_fock_state(config.initial, dim)
        if isinstance(kind, fock_mod.TimeDependent):
            rtol = float(config.solver.get("rtol", 1e-8))
            atol = float(config.solver.get("atol", 1e-10))
            traj = fock_mod.integrate(kind, sigma0, omega, times, rtol=rtol, atol=atol)
        else:
            traj = fock_mod.propagate(kind, sigma0, omega, times)
        result.series.update(fock_mod.trajectory_observables(traj))
        result.meta["n_accepted"] = traj.n_accepted
        result.meta["n_rejected"] = traj.n_rejected
        result.meta["truncation_flagged"] = traj.truncation_flagged
        result.meta["positivity_flagged"] = traj.positivity_flagged
        if emit_frames:
            result.frames = fock_mod.trajectory_frames(traj, grid)
        result.meta["trajectory"] = traj
    else:
        raise ConfigError(f"unknown solver kind {skind!r}")
    return result


def _cumulant_series(result, state, evolved):
    nb = len(state.branches)
    nt = len(evolved[0])
    meanQ = np.zeros(nt)
    V = np.zeros(nt)
    for i in range(nt):
        meanQ[i] = sum((state.branches[b].weight * evolved[b][i].center).real
                       for b in range(nb))
        V[i] = evolved[0][i].variance_param.real  # branch-independent
    result.series["meanQ"] = meanQ
    result.series["V"] = V


def _analytic_run(result, config, bath, state, grid):
    omega = config.omega
    gamma, nbar = bath.gamma, bath.nbar
    times = result.times
    _, Vs, _ = cum.analytic_markov(1.0, gamma, omega, nbar, times)
    result.series["V"] = Vs
    kind0 = config.initial.get("kind")
    if kind0 == "coherent":
        alpha0 = _cplx(config.initial.get("alpha", 1.0))
        Q, _, _ = cum.analytic_markov(alpha0, gamma, omega, nbar, times)
        result.series["meanQ"] = Q
    else:
        result.series["meanQ"] = np.zeros_like(times)
    if bool(config.raw.get("emit_frames", True)):
        coeffs = bath_mod.relaxation_coefficients(bath, omega)
        evolved = cum.evolve_superposition(state, coeffs, times)
        result.frames = [
            wp.density_frame(state, [evolved[b][i] for b in range(len(state.branches))],
                             grid, t)
            for i, t in enumerate(times)]


# ---------------------------------------------------------------------------
# figure presets

def fig1_config(overrides: Optional[dict] = None) -> ScenarioConfig:
    """Coherent-state relaxation: gamma=0.1 w, kT=3, Q0=4 (alpha0=2)."""
    tree = {
        "scenario": "fig1",
        "omega": 1.0,
        "bath": {"kind": "linear-markov", "gamma": 0.1, "kT": 3.0},
        "initial": {"kind": "coherent", "alpha": 2.0},
        "solver": {"kind": "cumulant"},
        # five periods and Q in [-8, 8] are display choices, not pinned values
        "time": {"span": 5 * 2 * math.pi, "points": 400},
        "qgrid": {"min": -8.0, "max": 8.0, "points": 1024},
    }
    return ScenarioConfig.from_dict(tree, overrides)


def run_fig1(config: Optional[ScenarioConfig] = None) -> ScenarioResult:
    config = config or fig1_config()
    return run_scenario(config)


def fig2_config(overrides: Optional[dict] = None) -> ScenarioConfig:
    """Cat-state decoherence: gamma=0.01 w, n=0, alpha=2, phi=pi/2."""
    tree = {
        "scenario": "fig2",
        "omega": 1.0,
        "bath": {"kind": "linear-markov", "gamma": 0.01, "nbar": 0.0},
        "initial": {"kind": "cat", "alpha": 2.0, "phi": math.pi / 2},
        "solver": {"kind": "cumulant"},
        "time": {"span": 2 * 2 * math.pi, "points": 400},
        "qgrid": {"min": -10.0, "max": 10.0, "points": 1024},
    }
    return ScenarioConfig.from_dict(tree, overrides)


def run_fig2(config: Optional[ScenarioConfig] = None) -> ScenarioResult:
    config = config or fig2_config()
    result = run_scenario(config)
    bath = build_bath(config.bath, config.omega)
    alpha = _cplx(config.initial["alpha"])
    phi = float(config.initial["phi"])
    times = result.times
    # at phi = pi/2 the central fringe is a node, so emit the envelope too
    grid = config.q_grid()
    result.series["P_int_q0"] = np.array([
        wp.interference_term(alpha, phi, bath.gamma, config.omega, bath.nbar, 0.0, t)
        for t in times])
    result.series["P_int_max"] = np.array([
        np.abs(wp.interference_term(alpha, phi, bath.gamma, config.omega,
                                    bath.nbar, grid, t)).max()
        for t in times])
    result.series["significance"] = np.array([
        wp.significance_ratio(alpha, bath.gamma, config.omega, bath.nbar, t)
        for t in times])
    fit = wp.fit_interference_decay(alpha, phi, bath.gamma, config.omega, bath.nbar)
    result.meta["envelope_rate"] = fit.rate
    result.meta["rate_law_2a2g"] = wp.decoherence_rate(alpha, bath.gamma)
    result.meta["rate_ratio"] = fit.ratio_to_law
    return result


def fig3_config(overrides: Optional[dict] = None) -> ScenarioConfig:
    """Interference comparison: gamma=0.25 w, n=0.4, alpha=2, phi=0, Q at 0."""
    span = 4 * 2 * math.pi
    gamma, nbar = 0.25, 0.4
    # the early-time reference needs a coherence window >= the displayed span;
    # Gamma0 = gamma (2n+1) dW / pi with dW = 1/(2 span) (presentation choice)
    gamma0 = gamma * (2 * nbar + 1) / (math.pi * 2 * span)
    tree = {
        "scenario": "fig3",
        "omega": 1.0,
        "bath": {"kind": "linear-markov", "gamma": gamma, "nbar": nbar},
        "initial": {"kind": "cat", "alpha": 2.0, "phi": 0.0},
        "solver": {"kind": "fock", "dissipator": "linear-rwa", "dim": 30},
        "time": {"span": span, "points": 400},
        "qgrid": {"min": -10.0, "max": 10.0, "points": 1024},
        "early_gamma0": gamma0,
        "emit_frames": False,
    }
    return ScenarioConfig.from_dict(tree, overrides)


def _early_interference_q0(alpha: complex, phi: float, Gamma0: float,
                           omega: float, t) -> float:
    """Early-stage interference at Q=0: no amplitude decay, V = 1/2 + G0 t^2."""
    a2 = abs(alpha) ** 2
    n2 = cum.cat_norm2(alpha, phi)
    V = 0.5 + Gamma0 * t * t
    y_half = np.imag(alpha * np.exp(1j * omega * t))
    return float((1.0 / n2) / math.sqrt(math.pi * V)
                 * math.exp(-2.0 * a2 + y_half**2 / V) * math.cos(phi))


def run_fig3(config: Optional[ScenarioConfig] = None) -> ScenarioResult:
    """Three P_int(Q=0, t) series: Markov non-RWA, Fock RWA, early-time."""
    config = config or fig3_config()
    omega = config.omega
    bath = build_bath(config.bath, omega)
    gamma, nbar = bath.gamma, bath.nbar
    alpha = _cplx(config.initial["alpha"])
    phi = float(config.initial["phi"])
    times = config.time_grid()
    result = ScenarioResult(name=config.scenario, times=times)

    # solid: closed-form Markov (non-RWA) interference
    result.series["P_int_markov"] = np.array([
        wp.interference_term(alpha, phi, gamma, omega, nbar, 0.0, t) for t in times])

    # bullets: early-time kinematics
    g0 = float(config.raw["early_gamma0"])
    result.series["P_int_early"] = np.array([
        _early_interference_q0(alpha, phi, g0, omega, t) for t in times])
    result.meta["early_gamma0"] = g0

    # boxes: Fock RWA run; interference = P(0) minus the RWA mixture Gaussians
    dim = int(config.solver.get("dim", 30))
    cat = fock_mod.cat_density_matrix(alpha, phi, dim)
    kind = fock_mod.LinearRWA(gamma=gamma, nbar=nbar)
    traj = fock_mod.propagate(kind, cat, omega, times)
    p_fock = np.array([f.density[0]
                       for f in fock_mod.trajectory_frames(traj, np.array([0.0]))])
    n2 = cum.cat_norm2(alpha, phi)
    V_rwa = 0.5 + nbar * (1.0 - np.exp(-2 * gamma * times))
    centers = 2.0 * np.real(alpha * np.exp(-1j * omega * times)) * np.exp(-gamma * times)
    mixture0 = (2.0 / n2) / (2.0 * np.sqrt(math.pi * V_rwa)) \
        * np.exp(-centers**2 / (4.0 * V_rwa))
    result.series["P_int_rwa"] = p_fock - mixture0
    result.meta["trajectory"] = traj
    return result


def fig4_config(overrides: Optional[dict] = None) -> ScenarioConfig:
    """Bath-type discrimination presets (three sub-runs share this tree).

    Sub-run (a) compares zero-temperature baths (the freeze-out of the
    two-quantum decay needs an unoccupied bath); (b)/(c) run the alpha=2
    cat at kT = 2w/ln 3, i.e. n(w)=1.366 and n(2w)=0.5.
    """
    tree = {
        "scenario": "fig4",
        "omega": 1.0,
        "a": {"alpha0": -1.1, "gamma": 0.15, "Gamma": 0.5, "dim": 30,
              "span": 30.0, "points": 400},
        "bc": {"alpha": 2.0, "phi": 0.0, "gamma": 0.005, "Gamma": 0.005,
               "kT": 2.0 / math.log(3.0), "dim": 40,
               "span": 2 * math.pi, "points": 200},
        "qgrid": {"min": -12.0, "max": 12.0, "points": 1024},
        # keep ScenarioConfig.validate() satisfied; sub-runs build their own
        "bath": {"kind": "linear-markov", "gamma": 0.15},
        "initial": {"kind": "coherent", "alpha": -1.1},
        "solver": {"kind": "fock", "dim": 30},
        "time": {"span": 30.0, "points": 400},
    }
    return ScenarioConfig.from_dict(tree, overrides)


def run_fig4(config: Optional[ScenarioConfig] = None) -> ScenarioResult:
    config = config or fig4_config()
    omega = config.omega
    a_cfg = config.raw["a"]
    bc = config.raw["bc"]
    times_a = np.linspace(0.0, float(a_cfg["span"]), int(a_cfg["points"]))
    result = ScenarioResult(name="fig4", times=times_a)

    # (a) coherent state, linear vs two-quantum bath
    dim_a = int(a_cfg["dim"])
    alpha0 = _cplx(a_cfg["alpha0"])
    s0 = fock_mod.coherent_density_matrix(alpha0, dim_a)
    tr_lin = fock_mod.propagate(
        fock_mod.LinearNonRWA(gamma=float(a_cfg["gamma"]), nbar=0.0),
        s0, omega, times_a)
    tr_quad = fock_mod.propagate(
        fock_mod.QuadraticLindblad(Gamma=float(a_cfg["Gamma"]), nbar2=0.0),
        s0, omega, times_a)
    result.series["meanQ_linear"] = fock_mod.trajectory_observables(tr_lin)["meanQ"]
    result.series["meanQ_quadratic"] = fock_mod.trajectory_observables(tr_quad)["meanQ"]
    result.meta["a_trajectories"] = (tr_lin, tr_quad)

    # (b)/(c) cat under the two baths at kT = 2/ln 3
    kT = float(bc["kT"])
    n1 = bath_mod.bose_occupation(omega, kT)
    n2occ = bath_mod.bose_occupation(2 * omega, kT)
    dim = int(bc["dim"])
    alpha = _cplx(bc["alpha"])
    phi = float(bc["phi"])
    times_bc = np.linspace(0.0, float(bc["span"]), int(bc["points"]))
    grid = config.q_grid()
    kinds = {
        "b_linear": fock_mod.LinearNonRWA(gamma=float(bc["gamma"]), nbar=n1),
        "c_quadratic": fock_mod.QuadraticLindblad(Gamma=float(bc["Gamma"]), nbar2=n2occ),
    }
    vis = {}
    for label, kind in kinds.items():
        run = fock_mod.cat_visibility(kind, alpha, phi, omega, dim, times_bc)
        result.extra_frames[label] = fock_mod.trajectory_frames(run.cat, grid)
        vis[label] = run.visibility
        result.meta[f"{label}_trajectory"] = run.cat
        i_col = run.i_collision
        result.meta[f"{label}_first_collision_t"] = float(times_bc[i_col])
        result.meta[f"{label}_first_collision_visibility"] = float(run.visibility[i_col])
    result.extra_series["bc"] = (times_bc, {
        "visibility_linear": vis["b_linear"],
        "visibility_quadratic": vis["c_quadratic"]})
    return result


FIGURES = {"fig1": run_fig1, "fig2": run_fig2, "fig3": run_fig3, "fig4": run_fig4}
FIGURE_CONFIGS = {"fig1": fig1_config, "fig2": fig2_config,
                  "fig3": fig3_config, "fig4": fig4_config}


# ---------------------------------------------------------------------------
# artifact writing

def _series_rows(times: np.ndarray, series: Dict[str, np.ndarray]):
    names = sorted(k for k, v in series.items()
                   if isinstance(v, np.ndarray) and v.shape == times.shape)
    for name in names:
        vals = series[name]
        for t, v in zip(times, vals):
            yield float(t), name, float(v)


def write_series_csv(path, times, series) -> None:
    with open(path, "w") as fh:
        fh.write("t,observable,value\n")
        for t, name, v in _series_rows(times, series):
            fh.write(f"{t!r},{name},{v!r}\n")


def write_result(result: ScenarioResult, out_dir: str, fmt: str = "csv",
                 gnuplot: bool = False) -> List[str]:
    """Emit a scenario's artifacts; returns the list of files written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    base = os.path.join(out_dir, result.name)
    if fmt == "csv":
        series_path = f"{base}_series.csv"
        write_series_csv(series_path, result.times, result.series)
        written.append(series_path)
        for label, (ts, group) in sorted(result.extra_series.items()):
            p = f"{base}_{label}_series.csv"
            write_series_csv(p, ts, group)
            written.append(p)
        if result.frames:
            frames_path = f"{base}_frames.csv"
            wp.frames_to_csv(result.frames, frames_path)
            written.append(frames_path)
        for label, frames in sorted(result.extra_frames.items()):
            p = f"{base}_{label}_frames.csv"
            wp.frames_to_csv(frames, p)
            written.append(p)
    elif fmt == "json":
        payload = {
            "scenario": result.name,
            "times": [float(t) for t in result.times],
            "series": {k: [float(x) for x in v]
                       for k, v in sorted(result.series.items())
                       if isinstance(v, np.ndarray)},
            "extra_series": {
                label: {"times": [float(t) for t in ts],
                        "series": {k: [float(x) for x in v]
                                   for k, v in sorted(group.items())}}
                for label, (ts, group) in sorted(result.extra_series.items())},
        }
        if result.frames:
            payload["frames"] = [
                {"t": float(f.time), "Q": [float(q) for q in f.grid],
                 "P": [float(p) for p in f.density]}
                for f in result.frames]
        path = f"{base}.json"
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        written.append(path)
    else:
        raise ConfigError(f"unknown output format {fmt!r} (use csv or json)")
    if gnuplot and fmt == "csv":
        written.append(_write_gnuplot(result, base))
    return written


def _write_gnuplot(result: ScenarioResult, base: str) -> str:
    name = os.path.basename(base)
    lines = [
        "set datafile separator ','",
        f"set title '{name}'",
        "set key outside",
    ]
    series_names = sorted(k for k, v in result.series.items()
                          if isinstance(v, np.ndarray) and v.shape == result.times.shape)
    plots = [
        f"'{name}_series.csv' using 1:(strcol(2) eq '{s}' ? $3 : 1/0) "
        f"with lines title '{s}'"
        for s in series_names]
    if plots:
        lines.append("plot \\")
        lines.append(", \\\n".join("  " + p for p in plots))
    if result.frames:
        sel = [result.frames[0], result.frames[len(result.frames) // 2],
               result.frames[-1]]
        lines += ["", "pause -1 'press enter for density frames'",
                  "set xlabel 'Q'", "set ylabel 'P'"]
        fplots = [
            f"'{name}_frames.csv' using (strcol(1) eq '{float(f.time)!r}' ? $2 : 1/0):3 "
            f"with lines title 't={f.time:.3g}'"
            for f in sel]
        lines.append("plot \\")
        lines.append(", \\\n".join("  " + p for p in fplots))
    lines.append("pause -1 'press enter to close'")
    path = f"{base}.gp"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
