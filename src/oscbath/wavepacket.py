"""Coordinate-space densities, interference diagnostics, decoherence fits.

Every branch contributes a (generally complex) Gaussian

    P^(a,b)(Q) = (2 sqrt(pi V))^-1 exp(-(Q - Q_c)^2 / (4V))

with Q_c = K10 + K01 and V = 1/2 + K11 + K20 + K02.  Diagonal branches
have real centers; off-diagonal (interference) branches have purely
imaginary centers and appear in conjugate pairs, so the summed density is
real.  Densities are assembled in log space: the exp((Im Q_c)^2 / 4V)
growth of an interference branch cancels against its e^{-2|alpha|^2}
weight, and exponentiating once avoids the intermediate overflow.

The Markov-stage interference term at the point Q is, in closed form,

    P_int = N^-2 (pi V)^-1/2
            exp(-2|a|^2 + [4 (Im a z)^2 e^{-2gt} - Q^2] / (4V))
            cos(phi + Q Im(a z) e^{-gt} / V)

with z(t) the Markov phase factor.  The sign of the cosine argument is
fixed by which off-diagonal branch carries the e^{+i phi} weight (the one
centered at +2i Im(a z) e^{-gt}); this matches the exact branch sum for
every phi.  It decays between packet collisions at the rate
4 |alpha|^2 gamma e^{-2 gamma t} -- twice the often-quoted 2|alpha|^2
gamma at early times; see fit_interference_decay.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .cumulant import (BranchCumulants, SuperpositionState, analytic_markov,
                       cat_norm2, effective_frequency)
from .errors import IntegrationError


@dataclass
class WavepacketFrame:
    """Density P(Q) on an ordered grid at one time."""

    time: float
    grid: np.ndarray
    density: np.ndarray
    warnings: Tuple[str, ...] = field(default_factory=tuple)

    def norm(self) -> float:
        """Trapezoidal integral of P over the grid."""
        return float(np.trapezoid(self.density, self.grid))


def branch_density(Q, center: complex, V: complex, weight: complex):
    """Complex density w P^(a,b)(Q) of one branch, vectorized over Q.

    center is Q_c = K10 + K01 and V = 1/2 + K11 + K20 + K02 (see the module
    docstring); Re V must exceed 1e-12.  Computed as
    exp(log w - (Q-c)^2/4V - log(2 sqrt(pi V))) so that large imaginary
    centers cancel against exponentially small weights before
    exponentiation.
    """
    if V.real <= 1e-12:
        raise ValueError(f"degenerate variance: Re V = {V.real:g} <= 1e-12")
    Q = np.asarray(Q, dtype=float)
    if weight == 0:
        return np.zeros(Q.shape, dtype=complex) if Q.ndim else 0j
    log_w = cmath.log(weight)
    log_norm = cmath.log(2.0 * cmath.sqrt(cmath.pi * V))
    expo = log_w - (Q - center) ** 2 / (4.0 * V) - log_norm
    out = np.exp(expo)
    if Q.ndim == 0:
        return complex(out)
    return out


def density_frame(state: SuperpositionState,
                  evolved: Sequence[BranchCumulants],
                  grid, time: float) -> WavepacketFrame:
    """Sum the branch Gaussians of an evolved superposition on a grid.

    evolved holds one BranchCumulants per branch of state, all at the same
    time.  Conjugate-paired branches combine to a real result; the residual
    imaginary part is checked.
    """
    if len(evolved) != len(state.branches):
        raise ValueError("one evolved BranchCumulants per branch is required")
    grid = np.asarray(grid, dtype=float)
    total = np.zeros(grid.shape, dtype=complex)
    for b, c in zip(state.branches, evolved):
        total += branch_density(grid, c.center, c.variance_param, b.weight)
    scale = max(float(np.abs(total.real).max(initial=0.0)), 1e-300)
    warnings = ()
    if float(np.abs(total.imag).max(initial=0.0)) > 1e-9 * scale:
        warnings = ("imaginary-residual",)
    return WavepacketFrame(time=float(time), grid=grid, density=total.real,
                           warnings=warnings)


def interference_term(alpha: complex, phi: float, gamma: float, omega: float,
                      nbar: float, Q, t: float):
    """Closed-form Markov interference density at (Q, t); vectorized over Q.

    Agrees with the off-diagonal branch sum of density_frame to better
    than 1e-10 under constant-coefficient (Markov) evolution.
    """
    _, V, z = analytic_markov(alpha, gamma, omega, nbar, float(t))
    Q = np.asarray(Q, dtype=float)
    a2 = abs(alpha) ** 2
    n2 = cat_norm2(alpha, phi)
    y_half = np.imag(alpha * z) * math.exp(-gamma * t)  # = Im(a z) e^{-gt}
    expo = -2.0 * a2 + (4.0 * y_half**2 - Q * Q) / (4.0 * V)
    val = (1.0 / n2) / math.sqrt(math.pi * V) * np.exp(expo) \
        * np.cos(phi + Q * y_half / V)
    if Q.ndim == 0:
        return float(val)
    return val


def significance_ratio(alpha: complex, gamma: float, omega: float, nbar: float,
                       t: float) -> float:
    """([Im(a z)]^2 e^{-2gt} / V) / (2|a|^2); ~1 flags visible interference."""
    _, V, z = analytic_markov(alpha, gamma, omega, nbar, float(t))
    a2 = abs(alpha) ** 2
    if a2 == 0:
        raise ValueError("significance ratio needs |alpha| > 0")
    num = (np.imag(alpha * z)) ** 2 * math.exp(-2.0 * gamma * t) / V
    return float(num / (2.0 * a2))


def decoherence_rate(alpha: complex, gamma: float) -> float:
    """Reference decoherence rate 2 |alpha|^2 gamma."""
    if abs(alpha) == 0:
        return 0.0
    return 2.0 * abs(alpha) ** 2 * gamma


def find_collision_times(gamma: float, omega: float, nbar: float,
                         n_collisions: int, alpha: complex = 1.0) -> np.ndarray:
    """Times t_i of maximal packet overlap (z(t_i) ~ +-i).

    Located by maximizing the interference exponent
    (Im(a z))^2 e^{-2gt} / V near w~ t = pi/2 + k pi.
    """
    from scipy.optimize import minimize_scalar

    wt = effective_frequency(omega, gamma)

    def neg_exponent(t):
        _, V, z = analytic_markov(alpha, gamma, omega, nbar, t)
        return -((np.imag(alpha * z)) ** 2 * math.exp(-2.0 * gamma * t) / V)

    times = []
    for k in range(n_collisions):
        t0 = (math.pi / 2 + k * math.pi) / wt
        half = 0.45 * math.pi / wt
        res = minimize_scalar(neg_exponent, bounds=(t0 - half, t0 + half),
                              method="bounded", options={"xatol": 1e-10})
        times.append(res.x)
    return np.array(times)


@dataclass(frozen=True)
class DecayFit:
    """Result of the interference-envelope fit."""

    rate: float
    ratio_to_law: float
    collision_times: np.ndarray
    peak_values: np.ndarray
    r_squared: float


def fit_interference_decay(alpha: complex, phi: float, gamma: float, omega: float,
                           nbar: float, n_collisions: int = 4) -> DecayFit:
    """Exponential fit to the interference maxima at packet collisions.

    Fits log P_int(0, t_i) linearly in t_i over the first n_collisions
    collisions and reports the decay rate and its ratio to the reference
    law 2 |alpha|^2 gamma.  The envelope is not a single exponential: the
    local rate is 4 |alpha|^2 gamma e^{-2 gamma t}, so the fitted value
    depends on the window and sits near twice the reference law for early
    windows (gamma t << 1).
    """
    if n_collisions < 2:
        raise ValueError("need at least 2 collisions to fit a rate")
    times = find_collision_times(gamma, omega, nbar, n_collisions, alpha=alpha)
    peaks = np.array([
        abs(interference_term(alpha, phi, gamma, omega, nbar, 0.0, t))
        if abs(math.cos(phi)) > 1e-12 else
        _peak_over_q(alpha, phi, gamma, omega, nbar, t)
        for t in times
    ])
    if np.any(peaks <= 0):
        raise IntegrationError("interference maxima vanished; cannot fit a rate")
    logs = np.log(peaks)
    slope, intercept = np.polyfit(times, logs, 1)
    pred = slope * times + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    law = decoherence_rate(alpha, gamma)
    return DecayFit(rate=float(-slope), ratio_to_law=float(-slope / law) if law else math.inf,
                    collision_times=times, peak_values=peaks, r_squared=r2)


def _peak_over_q(alpha, phi, gamma, omega, nbar, t):
    # cos(phi) ~ 0: the central fringe sits off Q = 0; scan a small window.
    q = np.linspace(-4.0, 4.0, 801)
    return float(np.max(np.abs(interference_term(alpha, phi, gamma, omega, nbar, q, t))))


def frames_to_csv(frames: Sequence[WavepacketFrame], path) -> None:
    """Write a frame stack as long-format CSV with columns t,Q,P.

    Frames of a stack share one grid array, so the grid's repr strings are
    formatted again only when the grid object changes; each frame is
    written with a single join.
    """
    grid, q_strs = None, []
    with open(path, "w") as fh:
        fh.write("t,Q,P\n")
        for frame in frames:
            if frame.grid is not grid:
                grid = frame.grid
                q_strs = [repr(q) for q in grid.tolist()]
            prefix = f"{float(frame.time)!r},"
            fh.write("".join(f"{prefix}{q},{p!r}\n"
                             for q, p in zip(q_strs, frame.density.tolist())))
