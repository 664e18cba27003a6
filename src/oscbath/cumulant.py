"""First- and second-cumulant dynamics of Gaussian wave-packet branches.

Each branch (alpha, beta) of a superposition carries five cumulants
K10, K01, K11, K20, K02 of the normally ordered characteristic function

    F = exp(K10 l - K01 l* - K11 l l* + K20 l^2 + K02 l*^2),

with initial values K10 = alpha, K01 = beta, second cumulants zero.
They obey the linear system (mu, nu are the bath relaxation functions)

    dK10 = ( iw - mu*) K10 + mu  K01
    dK01 = -( iw + mu ) K01 + mu* K10
    dK11 = 2 Re nu - 2 Re mu K11 + 2 mu K02 + 2 mu* K20
    dK20 = -nu* + mu  K11 + 2 ( iw - mu*) K20
    dK02 = -nu  + mu* K11 - 2 ( iw + mu ) K02

The first-cumulant pair is linear and never sees K11/K20/K02, and the
second cumulants never see K10/K01 and start at zero for every branch, so
every branch shares them.  For real w and any complex mu(t), if (x, y)
solves the (K10, K01) pair from (1, 0), then (conj(y), conj(x)) solves it
from (0, 1).  evolve_superposition therefore integrates the single unit
branch (1, 0) and builds branch (alpha, beta) as

    K10 = alpha x + beta conj(y),   K01 = alpha y + beta conj(x),

with the unit branch's second cumulants: one solve for any number of
branches, exact up to the integrator's tolerance.

evolve_cumulants integrates the cumulants in the frame rotating at w,

    k10 = e^{-iwt} K10,  k01 = e^{iwt} K01,  k11 = K11,
    k20 = e^{-2iwt} K20, k02 = e^{2iwt} K02,

which with e = e^{-2iwt} obey

    dk10 = -mu* k10 + mu e k01
    dk01 = -mu  k01 + mu* e* k10
    dk11 = 2 Re nu - 2 Re mu k11 + 2 mu e k02 + 2 mu* e* k20
    dk20 = e (-nu* + mu k11) - 2 mu* k20
    dk02 = e* (-nu + mu* k11) - 2 mu k02

The free rotation drops out, so the adaptive steps follow the relaxation
and the counter-rotating couplings, which carry e times a rate; the results
are rotated back at the grid points.  Those couplings still make the steps
resolve the period pi/w of e, so the number of steps grows with w * span:
100 to 320 right-hand sides per radian at the default tolerances on a
comb or early-time bath.  A scenario config therefore bounds w * time.span
(scenarios.MAX_ROTATION), and a solve that still makes more than
MAX_RHS_EVALS evaluations ends with IntegrationError naming the time
reached.

Note the sign of mu in the K02 damping term: it is the complex conjugate
of the K20 equation, as it must be for K02 = conj(K20) (and hence a real
packet width) to be preserved.  Writing it with the opposite sign breaks
conjugation symmetry and disagrees with the closed-form Markov solution
by orders of magnitude after a few periods.

The Markov closed form for a coherent branch is

    Q(t) = 2 Re(alpha0 z*(t)) e^{-gamma t}
    V(t) = 1/2 + n - n e^{-2 gamma t} [1 + (g/w~)^2 (1 - cos 2w~t)
                                         + (g/w~) sin 2w~t]
    z(t) = cos w~t + (g/w~) sin w~t + i (w/w~) sin w~t,  w~ = sqrt(w^2-g^2)

and the idealized early-time bath (mu=0, nu=Gamma0 t) has the exact
solution V(t) = 1/2 + Gamma0 t^2 - (Gamma0/w^2) sin^2(wt); the widely
quoted quadratic law keeps only the first term and holds pointwise within
5% once wt >~ 4.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .bath import RelaxationCoefficients
from .errors import IntegrationError

# Right-hand-side evaluations one evolve_cumulants call may make, read at
# each call.  The largest solve of any preset or acceptance criterion takes
# 5 186 (criterion 3, ten periods at rtol 1e-10), under 1 % of it; a 5-mode
# comb over w * span = 2000 takes 633 000.  At 20-50 us per evaluation the
# budget runs out within a minute.
MAX_RHS_EVALS = 1_000_000


@dataclass(frozen=True)
class BranchCumulants:
    """Cumulants of one (alpha, beta) branch at a single time."""

    alpha: complex
    beta: complex
    K10: complex
    K01: complex
    K11: complex
    K20: complex
    K02: complex

    @classmethod
    def initial(cls, alpha: complex, beta: complex) -> "BranchCumulants":
        return cls(alpha=complex(alpha), beta=complex(beta),
                   K10=complex(alpha), K01=complex(beta),
                   K11=0j, K20=0j, K02=0j)

    @property
    def center(self) -> complex:
        """Packet center Q^{(a,b)} = K10 + K01 (imaginary for off-diagonal)."""
        return self.K10 + self.K01

    @property
    def variance_param(self) -> complex:
        """V = 1/2 + K11 + K20 + K02; the Gaussian has variance 2V."""
        return 0.5 + self.K11 + self.K20 + self.K02


@dataclass(frozen=True)
class Branch:
    """Label pair plus the complex weight c(alpha, beta)."""

    alpha: complex
    beta: complex
    weight: complex

    def is_diagonal(self, tol: float = 1e-12) -> bool:
        return abs(self.beta - self.alpha.conjugate()) <= tol * max(1.0, abs(self.beta))


@dataclass(frozen=True)
class SuperpositionState:
    """Weighted list of coherent branches; weights are constants of motion."""

    branches: Tuple[Branch, ...]
    system_omega: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))


def coherent_state(alpha0: complex, system_omega: float = 1.0) -> SuperpositionState:
    """Single diagonal branch representing |alpha0>."""
    a0 = complex(alpha0)
    return SuperpositionState(
        branches=(Branch(alpha=a0.conjugate(), beta=a0, weight=1.0 + 0j),),
        system_omega=system_omega)


def cat_norm2(alpha: complex, phi: float) -> float:
    """Cat normalisation N^2 = 2 + 2 cos(phi) e^{-2|alpha|^2}."""
    return 2.0 + 2.0 * math.cos(phi) * math.exp(-2.0 * abs(alpha) ** 2)


def make_cat(alpha: complex, phi: float, system_omega: float = 1.0) -> SuperpositionState:
    """Four-branch superposition N^-1(|alpha> + e^{i phi}|-alpha>).

    Branch labels (a*, a), (-a*, -a), (a*, -a), (-a*, a) with weights
    N^-2 {1, 1, e^{-2|a|^2} e^{i phi}, e^{-2|a|^2} e^{-i phi}}, N^2 from
    cat_norm2.
    """
    a = complex(alpha)
    if abs(a) == 0:
        raise ValueError("cat state needs |alpha| > 0")
    overlap = math.exp(-2 * abs(a) ** 2)
    n2 = cat_norm2(a, phi)
    w_diag = 1.0 / n2
    w_off = overlap * cmath.exp(1j * phi) / n2
    return SuperpositionState(
        branches=(
            Branch(alpha=a.conjugate(), beta=a, weight=w_diag),
            Branch(alpha=-a.conjugate(), beta=-a, weight=w_diag),
            Branch(alpha=a.conjugate(), beta=-a, weight=w_off),
            Branch(alpha=-a.conjugate(), beta=a, weight=w_off.conjugate()),
        ),
        system_omega=system_omega)


def evolve_cumulants(initial: BranchCumulants, coeffs: RelaxationCoefficients,
                     omega: float, times: Sequence[float],
                     rtol: float = 1e-10, atol: float = 1e-12) -> List[BranchCumulants]:
    """Integrate the cumulant system on a caller-supplied grid.

    times must be strictly increasing and start at 0.  Internally the
    integrator takes adaptive substeps (explicit 4th/5th-order pair) on
    the rotating-frame cumulants (see the module docstring) and reports
    only at the grid points, rotated back.  More than MAX_RHS_EVALS
    evaluations of the right-hand side raise IntegrationError at the time
    reached.
    """
    from scipy.integrate import solve_ivp

    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("times must be a 1-d grid")
    if t[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing")

    y0 = np.array([initial.K10, initial.K01, initial.K11, initial.K20, initial.K02],
                  dtype=complex)
    if t.size == 1:
        return [initial]
    mu_f, nu_f = coeffs.mu, coeffs.nu
    n_evals = 0

    def rhs(s, y):
        nonlocal n_evals
        n_evals += 1
        if n_evals > MAX_RHS_EVALS:
            raise IntegrationError(
                f"cumulant step budget of {MAX_RHS_EVALS} evaluations exhausted "
                f"at t={s:g}", time=s)
        k10, k01, k11, k20, k02 = y
        mu = mu_f(s)
        nu = nu_f(s)
        mu_c = np.conj(mu)
        e = cmath.exp(-2j * omega * s)
        e_c = e.conjugate()
        return [-mu_c * k10 + mu * e * k01,
                -mu * k01 + mu_c * e_c * k10,
                2 * np.real(nu) - 2 * np.real(mu) * k11 + 2 * mu * e * k02
                + 2 * mu_c * e_c * k20,
                e * (-np.conj(nu) + mu * k11) - 2 * mu_c * k20,
                e_c * (-nu + mu_c * k11) - 2 * mu * k02]

    sol = solve_ivp(rhs, (0.0, float(t[-1])), y0, t_eval=t, method="RK45",
                    rtol=rtol, atol=atol)
    if not sol.success:
        bad_t = sol.t[-1] if sol.t.size else 0.0
        raise IntegrationError(
            f"cumulant integration failed near t={bad_t:g}: {sol.message}", time=bad_t)
    rot = np.exp(1j * omega * t)
    rot2 = rot * rot
    k10, k01, k11, k20, k02 = sol.y
    lab = (k10 * rot, k01 * rot.conj(), k11, k20 * rot2, k02 * rot2.conj())
    return [BranchCumulants(alpha=initial.alpha, beta=initial.beta,
                            K10=complex(K10), K01=complex(K01), K11=complex(K11),
                            K20=complex(K20), K02=complex(K02))
            for K10, K01, K11, K20, K02 in zip(*lab)]


def evolve_superposition(state: SuperpositionState, coeffs: RelaxationCoefficients,
                         times: Sequence[float], rtol: float = 1e-10,
                         atol: float = 1e-12) -> List[List[BranchCumulants]]:
    """Evolve every branch from one shared solve; returns [branch][time] cumulants.

    The unit branch (1, 0) is integrated once.  With its first cumulants
    (x, y), branch (alpha, beta) has K10 = alpha x + beta conj(y) and
    K01 = alpha y + beta conj(x), and every branch shares its second
    cumulants (see the module docstring).
    """
    unit = evolve_cumulants(BranchCumulants.initial(1.0, 0.0), coeffs,
                            state.system_omega, times, rtol=rtol, atol=atol)
    out = []
    for b in state.branches:
        a, c = complex(b.alpha), complex(b.beta)
        out.append([replace(u, alpha=a, beta=c,
                            K10=a * u.K10 + c * u.K01.conjugate(),
                            K01=a * u.K01 + c * u.K10.conjugate())
                    for u in unit])
    return out


def effective_frequency(omega: float, gamma: float) -> float:
    """w~ = sqrt(w^2 - g^2); requires the underdamped regime gamma < omega."""
    if gamma >= omega:
        raise ValueError(f"overdamped regime (gamma={gamma} >= omega={omega}) "
                         "is out of scope")
    return math.sqrt(omega * omega - gamma * gamma)


def markov_z(gamma: float, omega: float, t):
    """z(t) = cos w~t + (g/w~) sin w~t + i (w/w~) sin w~t."""
    wt = effective_frequency(omega, gamma)
    t = np.asarray(t, dtype=float)
    s, c = np.sin(wt * t), np.cos(wt * t)
    return c + (gamma / wt) * s + 1j * (omega / wt) * s


def analytic_markov(alpha0: complex, gamma: float, omega: float, nbar: float, t):
    """Closed-form Markov relaxation of a coherent branch.

    Returns (Q, V, z) with Q = 2 Re(alpha0 z*(t)) e^{-gamma t}, the mean
    coordinate the cumulant system gives for a coherent branch |alpha0>.
    Vectorized over t.
    """
    wt = effective_frequency(omega, gamma)
    t = np.asarray(t, dtype=float)
    z = markov_z(gamma, omega, t)
    Q = 2.0 * np.real(alpha0 * np.conj(z)) * np.exp(-gamma * t)
    r = gamma / wt
    V = 0.5 + nbar - nbar * np.exp(-2 * gamma * t) * (
        1.0 + r * r * (1.0 - np.cos(2 * wt * t)) + r * np.sin(2 * wt * t))
    if t.ndim == 0:
        return float(Q), float(V), complex(z)
    return Q, V, z


def early_time_exact_variance(Gamma0: float, omega: float, t):
    """Exact V(t) for mu = 0, nu = Gamma0 t: 1/2 + G0 t^2 - (G0/w^2) sin^2 wt."""
    t = np.asarray(t, dtype=float)
    V = 0.5 + Gamma0 * t * t - (Gamma0 / omega**2) * np.sin(omega * t) ** 2
    if t.ndim == 0:
        return float(V)
    return V
