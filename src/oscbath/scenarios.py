"""Scenario configs, figure presets, and artifact emission.

A scenario wires a bath, an initial state, and one solver into a run that
emits CSV/JSON artifacts.  Configs are plain JSON trees; the CLI can
override any leaf with --set dotted.key=value.  Every leaf is read through
ScenarioConfig.leaf, which holds its one default and names the key of a
bad value.  Identical configs produce byte-identical outputs: floats are
written with repr (shortest round-trip), iteration orders are fixed, and
nothing draws randomness.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import bath as bath_mod
from . import cumulant as cum
from . import fock as fock_mod
from . import wavepacket as wp
from .errors import ConfigError

BATH_KINDS = ("linear-markov", "quadratic-markov", "early-time", "discrete-modes")
SOLVER_KINDS = ("cumulant", "fock")
INITIAL_KINDS = ("coherent", "cat", "number")
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
# default of a leaf that must be present
_REQUIRED = object()
# Upper bounds on counts, far above every preset (400 time points, 2048
# q-points, 201 comb modes), so that a mistyped count is a config error and
# not an allocation of terabytes.
MAX_POINTS = 10_000             # time.points, a.points, bc.points
MAX_QGRID_POINTS = 65_536       # qgrid.points
MAX_STACK_VALUES = 10_000_000   # frames x q-points, or frames x dim^2, of a stack
MAX_COMB_MODES = 10_000         # bath.comb.n_modes
MAX_DIM = 1_000                 # solver.dim, a.dim, bc.dim
# Largest omega * time.span of a cumulant solve, 318 periods (the presets
# take at most 10).  The solve steps through the counter-rotating phase
# e^{-2i omega t}, so its cost grows with omega * span; at this bound and
# the default tolerances it takes at most about 2/3 of the solver's own
# step budget (cumulant.MAX_RHS_EVALS) on the baths tried.
MAX_ROTATION = 2000.0
# Smallest cat normalisation N^2 = 2 + 2 cos(phi) e^{-2|alpha|^2}: it is a
# difference of numbers near 2, so below this it keeps under four digits.
MIN_CAT_NORM2 = 1e-12
_POINTS = f">= 2 and <= {MAX_POINTS}"
_DIM = f">= 2 and <= {MAX_DIM}"
_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and k in out and isinstance(out[k], dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _finite(key: str, value) -> complex:
    """A finite number, given as a number, a numeric string or [re, im]."""
    try:
        if isinstance(value, bool):
            raise TypeError
        if isinstance(value, (list, tuple)) and len(value) == 2:
            x = complex(float(value[0]), float(value[1]))
        else:
            x = complex(value)
    except (TypeError, ValueError, OverflowError):
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


def _typed(kind: type, text: str):
    def check(key: str, value):
        if not isinstance(value, kind):
            raise ConfigError(f"{key} must be {text}, got {value!r}")
        return value
    return check


_flag, _text, _table = (_typed(bool, "true or false"), _typed(str, "a string"),
                        _typed(dict, "a table"))


def _file_name(key: str, value) -> str:
    """A string usable as a file name inside the output directory."""
    name = _text(key, value)
    if name in (".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"{key} must be a plain file name (no path separator, "
                          f"not '.' or '..'), got {value!r}")
    return name


def _cat_amplitude(key: str, value) -> complex:
    """A finite non-zero alpha: a cat of zero amplitude is not a state."""
    x = _finite(key, value)
    if x == 0:
        raise ConfigError(f"{key} must be finite and non-zero for a cat state, "
                          f"got {value!r}")
    return x


def _check_stack(keys: str, n: int, m: int, what: str) -> None:
    """Refuse a stack of n arrays of m values each beyond MAX_STACK_VALUES."""
    if n * m > MAX_STACK_VALUES:
        raise ConfigError(f"{keys} must be <= {MAX_STACK_VALUES} {what}, "
                          f"got {n} * {m}")


def _check_cat_norm(key: str, alpha: complex, phi: float) -> None:
    """Refuse a cat whose normalisation N^2 rounds to (near) zero."""
    if cum.cat_norm2(alpha, phi) <= MIN_CAT_NORM2:
        raise ConfigError(f"{key} gives a cat normalisation N^2 <= {MIN_CAT_NORM2:g} "
                          f"with phi={phi!r}; use a larger |alpha| or another phi")


def _modes(key: str, value) -> Tuple[bath_mod.Mode, ...]:
    """[[omega, coupling], ...] or [[omega, coupling, occupation], ...] as modes."""
    if not (isinstance(value, list) and value
            and all(isinstance(m, list) and len(m) in (2, 3) for m in value)):
        raise ConfigError(f"{key} must be a non-empty list of [omega, coupling] or "
                          f"[omega, coupling, occupation], got {value!r}")
    values = [[_real(f"{key}[{i}]", x) for x in m] for i, m in enumerate(value)]
    try:
        return tuple(bath_mod.Mode(*m) for m in values)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario description: the merged JSON tree and checked views of it.

    `raw` is the tree as given (kept for provenance); every value a run
    uses comes from `leaf` or from the properties built on it.
    """

    raw: dict

    def leaf(self, key: str, default=_REQUIRED, check=_real, bound: str = ""):
        """The checked value of the dotted leaf `key`, or `default` if absent.

        `check(key, value)` converts the value or raises ConfigError; a
        tuple in its place lists the allowed values.  `bound` is a range
        such as "> 0", ">= 2" or ">= 2 and <= 10000".  The default is
        checked like a given value, except None, which marks an optional
        leaf and is returned as it is.  Every error names the key.
        """
        value = self.raw
        for part in key.split("."):
            if not isinstance(value, dict):
                raise ConfigError(f"{key}: its parent must be a table, got {value!r}")
            if part not in value:
                if default is _REQUIRED:
                    raise ConfigError(f"{key} is missing")
                if default is None:
                    return None
                value = default
                break
            value = value[part]
        if isinstance(check, tuple):
            if value not in check:
                raise ConfigError(f"{key} must be one of {check}, got {value!r}")
            return value
        x = check(key, value)
        for clause in bound.split(" and ") if bound else ():
            op, limit = clause.split()
            if not _COMPARE[op](x, float(limit)):
                raise ConfigError(f"{key} must be finite and {bound}, got {value!r}")
        return x

    # checked views -----------------------------------------------------------
    @property
    def scenario(self) -> str:
        return self.leaf("scenario", "custom", _file_name)

    @property
    def omega(self) -> float:
        return self.leaf("omega", 1.0, bound="> 0")

    @property
    def emit_frames(self) -> bool:
        return self.leaf("emit_frames", True, _flag)

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.leaf("time.span", 10.0, bound="> 0"),
                           self.leaf("time.points", 400, _integer, _POINTS))

    def q_grid(self) -> np.ndarray:
        q_min, q_max = self.leaf("qgrid.min", -12.0), self.leaf("qgrid.max", 12.0)
        if not q_min < q_max:
            raise ConfigError(f"qgrid.min must be below qgrid.max, "
                              f"got min={q_min}, max={q_max}")
        return np.linspace(q_min, q_max, self.leaf("qgrid.points", 2048, _integer,
                                                   f">= 2 and <= {MAX_QGRID_POINTS}"))

    @property
    def initial_kind(self) -> str:
        return self.leaf("initial.kind", check=INITIAL_KINDS)

    @property
    def alpha(self) -> complex:
        if self.initial_kind == "cat":
            alpha = self.leaf("initial.alpha", 2.0, _cat_amplitude)
            _check_cat_norm("initial.alpha", alpha, self.phi)
            return alpha
        return self.leaf("initial.alpha", 1.0, _finite)

    @property
    def phi(self) -> float:
        return self.leaf("initial.phi", 0.0)

    @property
    def k(self) -> int:
        return self.leaf("initial.k", 0, _integer, ">= 0")

    @property
    def solver_kind(self) -> str:
        return self.leaf("solver.kind", check=SOLVER_KINDS)

    @property
    def dim(self) -> int:
        return self.leaf("solver.dim", 30, _integer, _DIM)

    @property
    def tolerances(self) -> Tuple[float, float]:
        """(solver.rtol, solver.atol); the defaults depend on solver.kind."""
        rtol, atol = (1e-8, 1e-10) if self.solver_kind == "fock" else (1e-10, 1e-12)
        return (self.leaf("solver.rtol", rtol, bound="> 0"),
                self.leaf("solver.atol", atol, bound="> 0"))

    @property
    def bath_kind(self) -> str:
        return self.leaf("bath.kind", check=BATH_KINDS)

    @property
    def dissipator(self) -> str:
        """The Fock dissipator, by default the first one the bath allows."""
        bkind = self.bath_kind
        allowed = tuple(name for name, (b, _) in FOCK_DISSIPATORS.items() if b == bkind)
        if not allowed:
            raise ConfigError(
                "the early-time bath is a closed-form limit with no Fock "
                "dissipator; use solver.kind='cumulant'")
        diss = self.leaf("solver.dissipator", allowed[0], tuple(FOCK_DISSIPATORS))
        if diss not in allowed:
            raise ConfigError(f"solver.dissipator {diss!r} does not match bath "
                              f"{bkind!r}; allowed: {allowed}")
        return diss

    @cached_property
    def bath(self) -> bath_mod.BathModel:
        """The bath model, built once per config."""
        kind, read = self.bath_kind, self.leaf
        if kind == "linear-markov":
            return bath_mod.LinearMarkov(read("bath.gamma", bound=">= 0"),
                                         self._occupation("nbar", self.omega))
        if kind == "quadratic-markov":
            return bath_mod.QuadraticMarkov(read("bath.Gamma", bound=">= 0"),
                                            self._occupation("nbar2", 2 * self.omega))
        if kind == "early-time":
            return bath_mod.EarlyTime(read("bath.Gamma0", bound=">= 0"))
        if read("bath.comb", None, _table) is None:
            return bath_mod.DiscreteModes(read("bath.modes", check=_modes))
        comb = dict(
            center=read("bath.comb.center", bound="> 0"),
            width=read("bath.comb.width", bound="> 0"),
            n_modes=read("bath.comb.n_modes", check=_integer,
                         bound=f">= 2 and <= {MAX_COMB_MODES}"),
            total_coupling_sq=read("bath.comb.total_coupling_sq", bound=">= 0"),
            occupation=read("bath.comb.occupation", 0.0, bound=">= 0"))
        try:
            return bath_mod.flat_comb(**comb)
        except ValueError as exc:
            raise ConfigError(f"bath.comb.center and bath.comb.width: {exc}") from exc

    def _occupation(self, key: str, at_omega: float) -> float:
        """bath.<key> if given, else the Bose occupation at bath.kT (default 0)."""
        nbar = self.leaf(f"bath.{key}", None, bound=">= 0")
        if nbar is None:
            nbar = bath_mod.bose_occupation(at_omega, self.leaf("bath.kT", 0.0, bound=">= 0"))
        return nbar

    @classmethod
    def from_dict(cls, tree: dict, overrides: Optional[dict] = None) -> "ScenarioConfig":
        cfg = cls(raw=_merge(tree, overrides or {}))
        cfg.validate()
        return cfg

    # validation ------------------------------------------------------------
    def validate(self) -> None:
        """Read every leaf a scenario run needs; a bad one raises ConfigError."""
        # each view reads and checks its leaves
        self.scenario, self.omega, self.alpha, self.phi, self.tolerances
        times, n_points = self.time_grid(), self.q_grid().size
        n_frames = times.size
        if self.emit_frames:
            _check_stack("time.points * qgrid.points", n_frames, n_points,
                         "when frames are written")
        bkind, ikind, skind = self.bath_kind, self.initial_kind, self.solver_kind
        if skind == "cumulant":
            span = float(times[-1])
            if self.omega * span > MAX_ROTATION:
                raise ConfigError(
                    f"omega * time.span must be <= {MAX_ROTATION:g} for the "
                    f"cumulant solve, got {self.omega!r} * {span!r}")
            if ikind == "number":
                raise ConfigError(
                    "initial.kind 'number' is not a Gaussian branch; solver.kind "
                    "'cumulant' cannot represent it -- use solver.kind='fock'")
            if bkind == "quadratic-markov":
                raise ConfigError(
                    "the two-quantum bath has no Gaussian cumulant dynamics; "
                    "use solver.kind='fock' with dissipator 'quadratic-lindblad'")
        else:
            dim, _ = self.dim, self.dissipator
            _check_stack("time.points * solver.dim^2", n_frames, dim * dim,
                         "for the Fock state stack")
            if ikind == "number" and self.k >= dim:
                raise ConfigError(f"initial.k must be below solver.dim={dim}, "
                                  f"got {self.k}")
        built = self.bath
        if isinstance(built, bath_mod.LinearMarkov) and built.gamma >= self.omega:
            raise ConfigError(
                f"linear bath requires the underdamped regime bath.gamma < omega "
                f"(bath.gamma={built.gamma}, omega={self.omega})")
        if isinstance(built, bath_mod.DiscreteModes):
            # the system-bath Hamiltonian is bounded below only while this
            # sum is below 1; past it the exact dynamics has a growing mode
            om, k2, _ = built.arrays()
            load = float(np.sum(4.0 * k2 / (self.omega * om)))
            if load >= 1.0:
                keys = ("bath.modes" if self.leaf("bath.comb", None, _table) is None
                        else "bath.comb.center, bath.comb.width and "
                             "bath.comb.total_coupling_sq")
                raise ConfigError(
                    f"omega and {keys} give sum 4 K^2/(omega omega_xi) = {load:g} "
                    f">= 1: the coupled oscillator has no ground state; lower "
                    f"the coupling")


# ---------------------------------------------------------------------------
# config -> domain objects

def build_superposition(config: ScenarioConfig) -> cum.SuperpositionState:
    kind = config.initial_kind
    if kind == "coherent":
        return cum.coherent_state(config.alpha, system_omega=config.omega)
    if kind == "cat":
        return cum.make_cat(config.alpha, config.phi, system_omega=config.omega)
    raise ConfigError(f"initial.kind {kind!r} has no Gaussian-branch form")


def build_fock_state(config: ScenarioConfig) -> fock_mod.FockDensityMatrix:
    kind, dim = config.initial_kind, config.dim
    if kind == "coherent":
        return fock_mod.coherent_density_matrix(config.alpha, dim)
    if kind == "cat":
        return fock_mod.cat_density_matrix(config.alpha, config.phi, dim)
    return fock_mod.number_state_density_matrix(config.k, dim)


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
    omega, bath, skind = config.omega, config.bath, config.solver_kind
    times, grid = config.time_grid(), config.q_grid()
    result = ScenarioResult(name=config.scenario, times=times)

    if skind == "fock":
        kind = FOCK_DISSIPATORS[config.dissipator][1](bath)
        sigma0 = build_fock_state(config)
        if isinstance(kind, fock_mod.TimeDependent):
            traj = fock_mod.integrate(kind, sigma0, omega, times, *config.tolerances)
        else:
            traj = fock_mod.propagate(kind, sigma0, omega, times)
        result.series.update(fock_mod.trajectory_observables(traj))
        result.meta["n_accepted"] = traj.n_accepted
        result.meta["n_rejected"] = traj.n_rejected
        result.meta["truncation_flagged"] = traj.truncation_flagged
        result.meta["positivity_flagged"] = traj.positivity_flagged
        if config.emit_frames:
            result.frames = fock_mod.trajectory_frames(traj, grid)
        result.meta["trajectory"] = traj
        return result

    state = build_superposition(config)
    coeffs = bath_mod.relaxation_coefficients(bath, omega)
    evolved = cum.evolve_superposition(state, coeffs, times, *config.tolerances)
    pairs = list(zip(state.branches, evolved))
    meanQ = np.array([sum((br.weight * ev[i].center).real for br, ev in pairs)
                      for i in range(len(times))])
    # V = Var(Q)/2 of the whole state: the branch widths plus the spread of
    # the branch centres (exactly 0 for one coherent branch)
    result.series["meanQ"] = meanQ
    result.series["V"] = np.array([
        sum((br.weight * ev[i].variance_param).real for br, ev in pairs)
        + 0.5 * (sum((br.weight * ev[i].center ** 2).real for br, ev in pairs)
                 - meanQ[i] ** 2)
        for i in range(len(times))])
    if config.emit_frames:
        result.frames = [wp.density_frame(state, [ev[i] for ev in evolved], grid, t)
                         for i, t in enumerate(times)]
    return result


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
    omega, bath, alpha, phi = config.omega, config.bath, config.alpha, config.phi
    result = run_scenario(config)
    times = result.times
    # at phi = pi/2 the central fringe is a node, so emit the envelope too
    grid = config.q_grid()
    result.series["P_int_q0"] = np.array([
        wp.interference_term(alpha, phi, bath.gamma, omega, bath.nbar, 0.0, t)
        for t in times])
    result.series["P_int_max"] = np.array([
        np.abs(wp.interference_term(alpha, phi, bath.gamma, omega,
                                    bath.nbar, grid, t)).max()
        for t in times])
    result.series["significance"] = np.array([
        wp.significance_ratio(alpha, bath.gamma, omega, bath.nbar, t)
        for t in times])
    fit = wp.fit_interference_decay(alpha, phi, bath.gamma, omega, bath.nbar)
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
    diss = config.dissipator
    if diss != "linear-rwa":
        # the boxes subtract the RWA mixture in closed form
        raise ConfigError(f"fig3 needs solver.dissipator 'linear-rwa', got {diss!r}")
    omega, bath, alpha, phi = config.omega, config.bath, config.alpha, config.phi
    gamma, nbar = bath.gamma, bath.nbar
    kind = FOCK_DISSIPATORS[diss][1](bath)
    g0 = config.leaf("early_gamma0", bound=">= 0")
    cat = fock_mod.cat_density_matrix(alpha, phi, config.dim)
    times = config.time_grid()
    result = ScenarioResult(name=config.scenario, times=times)

    # solid: closed-form Markov (non-RWA) interference
    result.series["P_int_markov"] = np.array([
        wp.interference_term(alpha, phi, gamma, omega, nbar, 0.0, t) for t in times])

    # bullets: early-time kinematics
    result.series["P_int_early"] = np.array([
        _early_interference_q0(alpha, phi, g0, omega, t) for t in times])
    result.meta["early_gamma0"] = g0

    # boxes: Fock RWA run; interference = P(0) minus the RWA mixture Gaussians
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
    omega, read = config.omega, config.leaf
    times_a = np.linspace(0.0, read("a.span", bound="> 0"),
                          read("a.points", check=_integer, bound=_POINTS))
    dim_a = read("a.dim", check=_integer, bound=_DIM)
    _check_stack("a.points * a.dim^2", times_a.size, dim_a * dim_a,
                 "for the Fock state stack")
    alpha0 = read("a.alpha0", check=_finite)
    kinds_a = (fock_mod.LinearNonRWA(gamma=read("a.gamma", bound=">= 0"), nbar=0.0),
               fock_mod.QuadraticLindblad(Gamma=read("a.Gamma", bound=">= 0"), nbar2=0.0))
    kT = read("bc.kT", bound=">= 0")
    kinds_bc = {
        "b_linear": fock_mod.LinearNonRWA(gamma=read("bc.gamma", bound=">= 0"),
                                          nbar=bath_mod.bose_occupation(omega, kT)),
        "c_quadratic": fock_mod.QuadraticLindblad(
            Gamma=read("bc.Gamma", bound=">= 0"),
            nbar2=bath_mod.bose_occupation(2 * omega, kT)),
    }
    dim = read("bc.dim", check=_integer, bound=_DIM)
    alpha, phi = read("bc.alpha", check=_cat_amplitude), read("bc.phi")
    _check_cat_norm("bc.alpha", alpha, phi)
    times_bc = np.linspace(0.0, read("bc.span", bound="> 0"),
                           read("bc.points", check=_integer, bound=_POINTS))
    _check_stack("bc.points * bc.dim^2", times_bc.size, dim * dim,
                 "for the Fock state stack")
    grid = config.q_grid()
    _check_stack("bc.points * qgrid.points", times_bc.size, grid.size,
                 "when frames are written")
    result = ScenarioResult(name="fig4", times=times_a)

    # (a) coherent state, linear vs two-quantum bath
    s0 = fock_mod.coherent_density_matrix(alpha0, dim_a)
    tr_lin, tr_quad = (fock_mod.propagate(kind, s0, omega, times_a) for kind in kinds_a)
    result.series["meanQ_linear"] = fock_mod.trajectory_observables(tr_lin)["meanQ"]
    result.series["meanQ_quadratic"] = fock_mod.trajectory_observables(tr_quad)["meanQ"]
    result.meta["a_trajectories"] = (tr_lin, tr_quad)

    # (b)/(c) cat under the two baths at kT = 2/ln 3
    vis = {}
    for label, kind in kinds_bc.items():
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
