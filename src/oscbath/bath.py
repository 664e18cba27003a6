"""Bath models and their time-dependent relaxation functions.

A bath is either an analytic limit (Markov or early-time) or an explicit
list of discrete modes.  For discrete modes the four relaxation functions

    gamma_{n+1}(t) = sum_xi K^2 (n_xi+1) (e^{-i(w_xi-w)t} - 1)/(-i(w_xi-w))
    gamma_n(t)     = sum_xi K^2  n_xi    (e^{-i(w_xi-w)t} - 1)/(-i(w_xi-w))
    gtilde_{n+1}(t)= sum_xi K^2 (n_xi+1) (e^{-i(w_xi+w)t} - 1)/(-i(w_xi+w))
    gtilde_n(t)    = sum_xi K^2  n_xi    (e^{-i(w_xi+w)t} - 1)/(-i(w_xi+w))

are evaluated in closed form; they are the running integrals of the bath
correlation functions R_n, R_{n+1} (times e^{-2iwt} for the tilde pair).
Each phase integral is written in its sinc form

    (e^{-i d t} - 1)/(-i d) = t e^{-iy} sin(y)/y,   y = d t / 2,

which is exact, has no cancellation at small d t, and needs no special case
at resonance (sin(y)/y = 1 at y = 0).  The half detunings (w_xi -+ w)/2 and
the 4 x 2M matrix of mode weights are built once per (bath, w), so a call
is one vector of phases and one mat-vec.

The derived pair feeding the cumulant equations is

    nu(t) = conj(gamma_n(t)) + gtilde_{n+1}(t)
    mu(t) = gamma_{n+1}(t) + conj(gtilde_n(t)) - conj(nu(t))

which reduces to the constants (gamma, gamma*nbar) in the Markov limit and
to (0, Gamma0*t) at early times, Gamma0 = sum_xi K^2 (2 n_xi + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Tuple, Union

import numpy as np


def check_nonnegative(**values: float) -> None:
    """Raise ValueError naming the first value that is not finite and >= 0.

    NaN compares false with everything, so a bare `x < 0` test lets it pass.
    """
    for name, x in values.items():
        if not (math.isfinite(x) and x >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {x}")


@dataclass(frozen=True)
class LinearMarkov:
    """Flat bath around the system frequency; constant decay rate gamma.

    gamma is the amplitude decay rate (units of the system frequency),
    nbar the mean thermal occupation at that frequency.
    """

    gamma: float
    nbar: float = 0.0

    def __post_init__(self):
        check_nonnegative(gamma=self.gamma, nbar=self.nbar)


@dataclass(frozen=True)
class QuadraticMarkov:
    """Two-quantum bath at twice the system frequency.

    Gamma is the two-quantum decay rate, nbar2 the occupation at 2w.
    Its dynamics are not Gaussian; only the Fock solver accepts it.
    """

    Gamma: float
    nbar2: float = 0.0

    def __post_init__(self):
        check_nonnegative(Gamma=self.Gamma, nbar2=self.nbar2)


@dataclass(frozen=True)
class EarlyTime:
    """Idealized coherent-bath limit: mu = 0, nu(t) = Gamma0 * t."""

    Gamma0: float

    def __post_init__(self):
        check_nonnegative(Gamma0=self.Gamma0)


@dataclass(frozen=True)
class Mode:
    """One bath oscillator: frequency, coupling, mean occupation."""

    omega: float
    coupling: float
    occupation: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"mode frequency must be finite and > 0, got {self.omega}")
        check_nonnegative(coupling=self.coupling, occupation=self.occupation)


@dataclass(frozen=True)
class DiscreteModes:
    """Explicit finite mode list; keeps the mode sums exactly computable."""

    modes: Tuple[Mode, ...]
    _arrays: Tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _kernels: Dict[float, Tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.modes) == 0:
            raise ValueError("DiscreteModes needs at least one mode")
        object.__setattr__(self, "modes", tuple(self.modes))
        om = np.array([m.omega for m in self.modes])
        k2 = np.array([m.coupling for m in self.modes]) ** 2
        occ = np.array([m.occupation for m in self.modes])
        for arr in (om, k2, occ):
            arr.flags.writeable = False
        object.__setattr__(self, "_arrays", (om, k2, occ))
        object.__setattr__(self, "_kernels", {})

    def arrays(self):
        """(omegas, couplings^2, occupations) as read-only numpy arrays.

        Built once per instance; every call returns the same arrays.
        """
        return self._arrays

    def kernel_constants(self, system_omega: float) -> Tuple[np.ndarray, np.ndarray]:
        """(half detunings, weights) of gamma_functions at one system frequency.

        half = ((w_xi - w)/2 for every mode, then (w_xi + w)/2), length 2M;
        weights is 4 x 2M, one row per GammaFunctions field: K^2 n and
        K^2 (n+1) on the resonant half, then the same on the anti-resonant
        half.  Built once per frequency and read-only.
        """
        found = self._kernels.get(system_omega)
        if found is None:
            om, k2, occ = self._arrays
            half = 0.5 * np.concatenate([om - system_omega, om + system_omega])
            zero = np.zeros_like(om)
            w_n, w_n1 = k2 * occ, k2 * (occ + 1)
            weights = np.array([np.concatenate(row) for row in (
                (w_n, zero), (w_n1, zero), (zero, w_n), (zero, w_n1))])
            for arr in (half, weights):
                arr.flags.writeable = False
            found = self._kernels[system_omega] = (half, weights)
        return found

    def early_time_constant(self) -> float:
        """Gamma0 = sum K^2 (2 n + 1)."""
        _, k2, occ = self.arrays()
        return float(np.sum(k2 * (2 * occ + 1)))

    def correlation_time(self) -> float:
        """tau_c ~ 1/(spectral width); diagnostic only."""
        om, _, _ = self.arrays()
        width = float(om.max() - om.min())
        if width == 0.0:
            return math.inf
        return 1.0 / width


BathModel = Union[LinearMarkov, QuadraticMarkov, EarlyTime, DiscreteModes]


class GammaFunctions(NamedTuple):
    gamma_n: complex
    gamma_n1: complex
    gtilde_n: complex
    gtilde_n1: complex


@dataclass(frozen=True)
class RelaxationCoefficients:
    """The complex pair (mu(t), nu(t)) driving the cumulant equations."""

    mu: Callable[[float], complex]
    nu: Callable[[float], complex]


def bose_occupation(omega: float, kT: float) -> float:
    """Mean occupation n = 1/(e^{omega/kT} - 1), hbar = k_B = 1.

    Returns 0 at kT = 0.  Raises for omega <= 0 or kT < 0.
    """
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if kT < 0:
        raise ValueError(f"kT must be >= 0, got {kT}")
    if kT == 0:
        return 0.0
    x = omega / kT
    if x > 700.0:  # expm1 overflows near 709; the occupation underflows anyway
        return 0.0
    return 1.0 / math.expm1(x)


def gamma_functions(bath: DiscreteModes, system_omega: float, t):
    """Evaluate (gamma_n, gamma_{n+1}, gtilde_n, gtilde_{n+1}) at time t.

    t may be a scalar or an array; t >= 0.  The mode sums are closed-form,
    so this is exact up to rounding (no quadrature).
    """
    if not isinstance(bath, DiscreteModes):
        raise TypeError("gamma_functions needs a DiscreteModes bath")
    t_arr = np.asarray(t, dtype=float)
    if (t_arr < 0).any():
        raise ValueError("t must be >= 0")
    half, weights = bath.kernel_constants(system_omega)
    tt = t_arr.reshape(-1)
    y = np.multiply.outer(half, tt)
    s = np.sin(y)
    # phase integral t e^{-iy} sin(y)/y per (mode half, time), as complex
    # numbers whose (re, im) pairs one real mat-vec sums
    f = tt * np.divide(s, y, out=np.ones_like(y), where=y != 0)
    phase = np.empty(y.shape, dtype=complex)
    np.multiply(np.cos(y), f, out=phase.real)
    np.multiply(s, -f, out=phase.imag)
    g = (weights @ phase.view(float)).view(complex).reshape((4,) + t_arr.shape)
    if t_arr.ndim == 0:
        return GammaFunctions(*g.tolist())
    return GammaFunctions(*g)


def relaxation_coefficients(bath: BathModel, system_omega: float) -> RelaxationCoefficients:
    """Build the (mu, nu) pair for a bath paired with a system at system_omega.

    LinearMarkov maps to constants (gamma, gamma*nbar) -- Lamb-shift-like
    imaginary parts are dropped, consistent with a real decay rate.
    EarlyTime maps to (0, Gamma0*t).  DiscreteModes composes the gamma
    functions.  QuadraticMarkov is rejected: two-quantum relaxation is not
    Gaussian and lives in the Fock solver.
    """
    if system_omega <= 0:
        raise ValueError(f"system_omega must be > 0, got {system_omega}")
    if isinstance(bath, LinearMarkov):
        if bath.gamma >= system_omega:
            raise ValueError(
                f"underdamped regime requires gamma < omega "
                f"(gamma={bath.gamma}, omega={system_omega})")
        mu_c = complex(bath.gamma)
        nu_c = complex(bath.gamma * bath.nbar)
        return RelaxationCoefficients(mu=lambda t: mu_c, nu=lambda t: nu_c)
    if isinstance(bath, EarlyTime):
        g0 = bath.Gamma0
        return RelaxationCoefficients(mu=lambda t: 0j, nu=lambda t: complex(g0 * t))
    if isinstance(bath, DiscreteModes):
        return _discrete_coefficients(bath, system_omega)
    if isinstance(bath, QuadraticMarkov):
        raise ValueError(
            "QuadraticMarkov has no Gaussian relaxation functions; "
            "use the Fock solver (quadratic dissipator)")
    raise TypeError(f"unknown bath model {bath!r}")


def _discrete_coefficients(bath: DiscreteModes,
                           system_omega: float) -> RelaxationCoefficients:
    """(mu, nu) of a mode list, sharing one mode sum per distinct t.

    The cumulant RHS asks for mu(t) and then nu(t) at the same t; both come
    from one gamma_functions call.  The last evaluation is kept as a single
    (t, mu, nu) tuple, replaced whole, so a concurrent reader sees either
    the old or the new entry and never a mu of one t beside a nu of another.
    Array arguments bypass the memo.
    """
    last = (None, 0j, 0j)

    def pair(t):
        nonlocal last
        scalar = np.ndim(t) == 0
        entry = last
        if scalar and entry[0] == t:
            return entry
        g = gamma_functions(bath, system_omega, t)
        nu_val = np.conj(g.gamma_n) + g.gtilde_n1
        mu_val = g.gamma_n1 + np.conj(g.gtilde_n) - np.conj(nu_val)
        entry = (t, mu_val, nu_val)
        if scalar:
            last = entry
        return entry

    return RelaxationCoefficients(mu=lambda t: pair(t)[1], nu=lambda t: pair(t)[2])


def flat_comb(center: float, width: float, n_modes: int,
              total_coupling_sq: float, occupation: float = 0.0) -> DiscreteModes:
    """Uniform mode comb over [center-width/2, center+width/2].

    total_coupling_sq is sum K^2 over the comb; equal couplings.  The
    density of states is n_modes/width, so the Markov-limit decay rate is
    pi * K^2 * g = pi * total_coupling_sq / width.
    """
    if n_modes < 2:
        raise ValueError("n_modes must be >= 2")
    if center - width / 2 <= 0:
        raise ValueError("comb extends to non-positive frequencies")
    oms = np.linspace(center - width / 2, center + width / 2, n_modes)
    k = math.sqrt(total_coupling_sq / n_modes)
    return DiscreteModes(tuple(Mode(float(w), k, occupation) for w in oms))
