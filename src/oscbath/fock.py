"""Truncated number-basis density-matrix solvers.

Implements the reduced-density-matrix generators on a finite level basis
(a|n> = sqrt(n)|n-1>, Q = a + a^+) and evolves them two ways:

* integrate: classic fourth-order Runge-Kutta under step-doubling error
  control, for any kind and the only path for the time-dependent kernel.
  It steps the state in the frame rotating at w, y_mn = e^{iw(m-n)t}
  sigma_mn, whose generator is the dissipator alone, P(t) D(conj(P(t)) y, t)
  with P_mn = e^{iw(m-n)t}; the free rotation, known exactly, then costs no
  steps.  |y_mn| = |sigma_mn| and y is a unitary similarity of sigma, so the
  error control and every monitor read the same in either frame.  After
  every accepted step the state is re-symmetrized, y <- (y + y^+)/2;
  herm_drift is the largest correction of a reporting interval.  Each
  recorded frame is rotated back, sigma = conj(P) y.
* propagate: exp(L t) sigma0 on a uniform grid, for the time-independent
  kinds.  When the generator keeps the coherence order m - n (RWA and both
  two-quantum forms) it splits into 2 dim - 1 blocks of size <= dim, each
  exponentiated once at the grid step; otherwise (non-RWA) each grid step
  applies s truncated Taylor sums of exp(h S / s) (Al-Mohy & Higham 2011),
  their degree m and s fixed once per call from the exact |h S|_1.  The
  frames are exact propagations of sigma0 with no re-symmetrization in between,
  so herm_drift is each frame's own defect |sigma - sigma^+|_max before
  the recorded state is symmetrized.

Neither renormalizes the trace, so trace drift is a genuine quality metric.

Every dissipator kind is a list of terms of two shapes (both exactly
trace-free, since tr[A,B] = 0 termwise):

* Lindblad channel (rate, L, L^+, L^+L):
      rate (2 L s L^+ - L^+L s - s L^+L) = rate D[L]s;
* commutator sandwich (rate, C, Y, D):
      rate ([C s, Y] + [Y, s D]) = rate [C s - s D, Y],
  four dense products per sandwich.

The kinds, with X = a + a^+:

* phase-sensitive linear coupling (non-RWA), B = gamma ((n+1) a + n a^+):
  the sandwich (1, B, X, B^+).  The second slot carries B^+, not B: with
  B in both slots the mean coordinate never decays, contradicting the
  damped-oscillator limit the same coupling produces for the Gaussian
  solvers.
* RWA damped oscillator, normalized so <a> decays as e^{-gamma t}:
  channels gamma (n+1) on a and gamma n on a^+.
* two-quantum bath, standardized dissipator (default): channels
  Gamma (n+1) on a^2 and Gamma n on (a^+)^2.
* two-quantum bath, literal commutator form (kept for comparison; at
  n = 0 it pumps |1> -> |3>, so it is not the default): the sandwiches
  (Gamma (n+1), a^2, a^+2, a^2) and (Gamma n, a^+2, a^2, a^+2).
* time-dependent second-order kernel: the sandwich (1, C(t), X, C(t)^+)
  with C(t) = (gamma_{n+1} + conj(gtilde_n)) a + (conj(gamma_n)
  + gtilde_{n+1}) a^+ from the bath gamma functions, built once per
  distinct t and kept for the last SANDWICH_CACHE_SIZE of them.

Terms with a zero rate are left out.
"""

from __future__ import annotations

import math
import mmap
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .bath import DiscreteModes, check_nonnegative, gamma_functions
from .cumulant import cat_norm2
from .errors import IntegrationError, TruncationError
from .wavepacket import WavepacketFrame


# Largest trace deficit of an initial state: the state builders raise
# TruncationError above it, integrate and propagate refuse such a state.
TRUNCATION_DEFICIT = 1e-9
# Per-frame monitors: top-level population that flags / aborts a run, and
# the minimum eigenvalue below which positivity is flagged.
TOP_WARN = 1e-6
TOP_ERROR = 1e-3
POSITIVITY_THRESHOLD = -1e-6
# Most time-dependent sandwiches (one per distinct t) a Liouvillian keeps.
SANDWICH_CACHE_SIZE = 8
# theta_m of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 2011) for a unit
# roundoff of 2^-53: s Taylor sums of degree m give exp(A) v to that
# backward error when |A|_1 <= s theta_m.  Degrees up to 30 are Higham's
# "Functions of Matrices" table A.3, the rest the paper's table 3.1.
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


# ---------------------------------------------------------------------------
# ladder operators and states

def build_ladder(dim: int):
    """(a, a^+, Q) matrices on dim levels; a|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    n = np.arange(1, dim)
    a = np.zeros((dim, dim))
    a[n - 1, n] = np.sqrt(n)
    ad = a.T.copy()
    return a, ad, a + ad


@dataclass
class FockDensityMatrix:
    """Complex Hermitian matrix sigma_mn = <m|sigma|n> on dim levels."""

    dim: int
    sigma: np.ndarray

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=complex)
        if self.sigma.shape != (self.dim, self.dim):
            raise ValueError(f"sigma must be {self.dim}x{self.dim}")

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.sigma - self.sigma.conj().T).max())

    def trace_defect(self) -> float:
        return abs(complex(np.trace(self.sigma)) - 1.0)


def coherent_density_matrix(alpha: complex, dim: int) -> FockDensityMatrix:
    """|alpha><alpha| truncated to dim levels.

    Raises TruncationError if the truncated trace deficit exceeds
    TRUNCATION_DEFICIT (the Poisson tail of |<n|alpha>|^2 beyond the basis).
    """
    c = coherent_vector(alpha, dim)
    deficit = 1.0 - float(np.vdot(c, c).real)
    if deficit > TRUNCATION_DEFICIT:
        raise TruncationError(
            f"coherent state alpha={alpha} loses {deficit:.3e} probability "
            f"on {dim} levels; enlarge dim")
    return FockDensityMatrix(dim=dim, sigma=np.outer(c, c.conj()))


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """<n|alpha> = e^{-|a|^2/2} a^n / sqrt(n!), by stable recurrence."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    c = np.zeros(dim, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c


def cat_density_matrix(alpha: complex, phi: float, dim: int) -> FockDensityMatrix:
    """Density matrix of N^-1(|alpha> + e^{i phi} |-alpha>)."""
    if abs(alpha) == 0:
        raise ValueError("cat state needs |alpha| > 0")
    psi = coherent_vector(alpha, dim) + np.exp(1j * phi) * coherent_vector(-alpha, dim)
    sigma = np.outer(psi, psi.conj()) / cat_norm2(alpha, phi)
    deficit = 1.0 - float(np.trace(sigma).real)
    if deficit > TRUNCATION_DEFICIT:
        raise TruncationError(
            f"cat state alpha={alpha} loses {deficit:.3e} probability "
            f"on {dim} levels; enlarge dim")
    return FockDensityMatrix(dim=dim, sigma=sigma)


def number_state_density_matrix(k: int, dim: int) -> FockDensityMatrix:
    if not 0 <= k < dim:
        raise ValueError(f"level k={k} outside basis of {dim} levels")
    sigma = np.zeros((dim, dim), dtype=complex)
    sigma[k, k] = 1.0
    return FockDensityMatrix(dim=dim, sigma=sigma)


# ---------------------------------------------------------------------------
# dissipator kinds

def _constant(sandwiches):
    return lambda t: sandwiches


def _thermal_pair(rate, nbar, down, up):
    """Terms rate (n+1) down + rate n up, leaving out zero rates."""
    terms = []
    if rate > 0:
        terms.append((rate * (nbar + 1),) + down)
        if nbar > 0:
            terms.append((rate * nbar,) + up)
    return tuple(terms)


@dataclass(frozen=True)
class LinearNonRWA:
    gamma: float
    nbar: float = 0.0

    def __post_init__(self):
        check_nonnegative(gamma=self.gamma, nbar=self.nbar)

    def terms(self, a, ad, X, omega):
        if self.gamma == 0:
            return (), _constant(())
        B = self.gamma * ((self.nbar + 1) * a + self.nbar * ad)
        return (), _constant(((1.0, B, X, B.conj().T),))


@dataclass(frozen=True)
class LinearRWA:
    gamma: float
    nbar: float = 0.0

    def __post_init__(self):
        check_nonnegative(gamma=self.gamma, nbar=self.nbar)

    def terms(self, a, ad, X, omega):
        channels = _thermal_pair(self.gamma, self.nbar, (a, ad, ad @ a), (ad, a, a @ ad))
        return channels, _constant(())


@dataclass(frozen=True)
class QuadraticLindblad:
    Gamma: float
    nbar2: float = 0.0

    def __post_init__(self):
        check_nonnegative(Gamma=self.Gamma, nbar2=self.nbar2)

    def terms(self, a, ad, X, omega):
        A, Ad = a @ a, ad @ ad
        channels = _thermal_pair(self.Gamma, self.nbar2, (A, Ad, Ad @ A), (Ad, A, A @ Ad))
        return channels, _constant(())


@dataclass(frozen=True)
class QuadraticLiteral:
    Gamma: float
    nbar2: float = 0.0

    def __post_init__(self):
        check_nonnegative(Gamma=self.Gamma, nbar2=self.nbar2)

    def terms(self, a, ad, X, omega):
        A, Ad = a @ a, ad @ ad
        return (), _constant(_thermal_pair(self.Gamma, self.nbar2, (A, Ad, A), (Ad, A, Ad)))


@dataclass(frozen=True)
class TimeDependent:
    bath: DiscreteModes

    def __post_init__(self):
        if not isinstance(self.bath, DiscreteModes):
            raise ValueError("TimeDependent requires a DiscreteModes bath")

    def terms(self, a, ad, X, omega):
        # one sandwich per distinct t, the oldest dropped first: a trial step
        # of integrate asks for five stage times, all of which stay cached
        cache: OrderedDict = OrderedDict()

        def sandwiches(t):
            if t < 0:
                raise ValueError("time-dependent kernel is defined for t >= 0 only")
            found = cache.get(t)
            if found is None:
                g = gamma_functions(self.bath, omega, t)
                C = (g.gamma_n1 + np.conj(g.gtilde_n)) * a \
                    + (np.conj(g.gamma_n) + g.gtilde_n1) * ad
                found = cache[t] = ((1.0, C, X, C.conj().T),)
                if len(cache) > SANDWICH_CACHE_SIZE:
                    cache.popitem(last=False)
            return found

        sandwiches.cache = cache
        return (), sandwiches


DissipatorKind = Union[LinearNonRWA, LinearRWA, QuadraticLindblad,
                       QuadraticLiteral, TimeDependent]


class Liouvillian:
    """Precomputed generator action d sigma/dt = L(sigma, t).

    kind.terms(a, a^+, X, omega) gives the kind's Lindblad channels and a
    function of t returning its commutator sandwiches; apply adds both to
    the Hamiltonian phase, superoperator builds the same sum as a matrix.
    """

    def __init__(self, kind: DissipatorKind, omega: float, dim: int):
        self.kind = kind
        self.omega = omega
        self.dim = dim
        a, ad, X = build_ladder(dim)
        levels = np.arange(dim)
        # -i w [a^+a, sigma] acts elementwise as -i w (m - n) sigma_mn
        self._ham_phase = -1j * omega * (levels[:, None] - levels[None, :])
        self._channels, self._sandwiches = kind.terms(a, ad, X, omega)

    def apply(self, sigma: np.ndarray, t: float = 0.0) -> np.ndarray:
        out = self._ham_phase * sigma
        for rate, L, Ld, LdL in self._channels:
            out += rate * (2.0 * (L @ sigma) @ Ld - LdL @ sigma - sigma @ LdL)
        for rate, C, Y, D in self._sandwiches(t):
            M = C @ sigma - sigma @ D
            out += rate * (M @ Y - Y @ M)
        return out

    def superoperator(self, t: float = 0.0):
        """Sparse CSR matrix S with vec(apply(sigma, t)) = S vec(sigma).

        vec is row-major, vec(sigma)[m dim + n] = sigma_mn, so that
        vec(A sigma B) = kron(A, B^T) vec(sigma).
        """
        import scipy.sparse

        def kron(A, B):
            return scipy.sparse.kron(scipy.sparse.csr_array(A),
                                     scipy.sparse.csr_array(B), format="csr")

        eye = np.eye(self.dim)
        diag = np.arange(self.dim * self.dim)
        S = scipy.sparse.coo_array((self._ham_phase.ravel(), (diag, diag))).tocsr()
        for rate, L, Ld, LdL in self._channels:
            S = S + rate * (2.0 * kron(L, Ld.T) - kron(LdL, eye) - kron(eye, LdL.T))
        for rate, C, Y, D in self._sandwiches(t):
            S = S + rate * (kron(C, Y.T) - kron(Y @ C, eye)
                            + kron(Y, D.T) - kron(eye, (D @ Y).T))
        S.eliminate_zeros()
        return S


# ---------------------------------------------------------------------------
# trajectories: adaptive RK4 and the exact propagator

@dataclass
class FockTrajectory:
    """Trajectory at grid points plus per-frame health diagnostics."""

    times: np.ndarray
    states: List[np.ndarray]
    dim: int
    omega: float
    trace: np.ndarray
    herm_drift: np.ndarray          # pre-symmetrization defect per frame (see module)
    min_eigenvalue: np.ndarray
    top_population: np.ndarray
    n_accepted: int
    n_rejected: int
    truncation_flagged: bool
    positivity_flagged: bool


def _rk4(f, t, y, h, k1=None):
    if k1 is None:
        k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _checked_grid(t_grid: Sequence[float], sigma0: FockDensityMatrix) -> np.ndarray:
    """The input checks integrate and propagate share; returns the grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a 1-d grid")
    if t_grid[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if t_grid.size > 1 and np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if sigma0.hermiticity_defect() > 1e-10:
        raise ValueError("initial state is not Hermitian")
    if sigma0.trace_defect() > TRUNCATION_DEFICIT:
        raise ValueError("initial state is not unit trace")
    return t_grid


def _top_population_error(top: float, limit: float, t: float) -> TruncationError:
    return TruncationError(f"top-level population {top:.3e} exceeded "
                           f"{limit:g} at t={t:g}; enlarge dim")


def integrate(kind: DissipatorKind, sigma0: FockDensityMatrix, omega: float,
              t_grid: Sequence[float], rtol: float = 1e-8, atol: float = 1e-10,
              max_steps: int = 5_000_000) -> FockTrajectory:
    """Adaptive step-doubling RK4 trajectory reported at grid points.

    The steps are taken in the frame rotating at omega (see the module
    docstring); each right-hand side calls Liouvillian.apply once and takes
    the Hamiltonian phase back off its result.  Each accepted step takes
    one h-step and two h/2-steps, combines them with local extrapolation,
    and re-symmetrizes the state; the
    pre-symmetrization defect is logged per reporting interval.  The
    top-level population is watched: above TOP_WARN the run is flagged,
    above TOP_ERROR it aborts.  The minimum eigenvalue is monitored per
    frame (never clipped); dips below POSITIVITY_THRESHOLD set a flag.
    """
    t_grid = _checked_grid(t_grid, sigma0)

    L = Liouvillian(kind, omega, sigma0.dim)
    levels = np.arange(sigma0.dim)

    def phases(t):
        """P(t), P_mn = e^{i w (m - n) t}: the lab frame state is conj(P) y."""
        u = np.exp(1j * omega * t * levels)
        return np.multiply.outer(u, u.conj())

    def f(t, y):
        # dy/dt = P (L sigma - H sigma), H sigma the Hamiltonian phase term
        P = phases(t)
        sigma = P.conj() * y
        return P * (L.apply(sigma, t) - L._ham_phase * sigma)

    y = sigma0.sigma.copy()
    t = 0.0
    h = 1e-3 / omega
    n_acc = n_rej = 0
    trunc_flag = False

    states: List[np.ndarray] = []
    traces: List[float] = []
    drifts: List[float] = []
    mins: List[float] = []
    tops: List[float] = []

    def record(frame_drift):
        sigma = phases(t).conj() * y
        states.append(sigma)
        traces.append(float(np.trace(sigma).real))
        drifts.append(frame_drift)
        eigmin = float(np.linalg.eigvalsh(0.5 * (sigma + sigma.conj().T)).min())
        mins.append(eigmin)
        tops.append(float(sigma[-1, -1].real))

    frame_drift = 0.0
    record(0.0)
    for target in t_grid[1:]:
        while True:
            remaining = target - t
            if remaining <= 1e-12 * max(1.0, target):
                t = target
                break
            if n_acc + n_rej > max_steps:
                raise IntegrationError(
                    f"step budget exhausted at t={t:g}", time=t)
            landing = h >= remaining
            h_step = remaining if landing else h
            if h_step < 1e-14 * max(1.0, target):
                raise IntegrationError(
                    f"step size underflow at t={t:g}", time=t)
            k1 = f(t, y)
            y_big = _rk4(f, t, y, h_step, k1=k1)
            y_half = _rk4(f, t, y, 0.5 * h_step, k1=k1)
            y_two = _rk4(f, t + 0.5 * h_step, y_half, 0.5 * h_step)
            delta = y_two - y_big
            scale = atol + rtol * np.abs(y_two)
            ratio = float(np.max(np.abs(delta) / scale)) / 15.0
            if ratio <= 1.0:
                y = y_two + delta / 15.0
                t = target if landing else t + h_step
                n_acc += 1
                defect = float(np.abs(y - y.conj().T).max())
                frame_drift = max(frame_drift, defect)
                y = 0.5 * (y + y.conj().T)
                top = float(y[-1, -1].real)
                if top > TOP_ERROR:
                    raise _top_population_error(top, TOP_ERROR, t)
                if top > TOP_WARN:
                    trunc_flag = True
                if not landing:
                    grow = 0.9 * ratio ** -0.2 if ratio > 0 else 5.0
                    h = h_step * min(5.0, max(0.2, grow))
            else:
                n_rej += 1
                h = h_step * max(0.2, 0.9 * ratio ** -0.25)
        record(frame_drift)
        frame_drift = 0.0

    traj = FockTrajectory(
        times=t_grid.copy(), states=states, dim=sigma0.dim, omega=omega,
        trace=np.array(traces), herm_drift=np.array(drifts),
        min_eigenvalue=np.array(mins), top_population=np.array(tops),
        n_accepted=n_acc, n_rejected=n_rej,
        truncation_flagged=trunc_flag,
        positivity_flagged=bool(np.min(mins) < POSITIVITY_THRESHOLD))
    return traj


def _coherence_blocks(S, dim: int):
    """S split by coherence order q = m - n, or None if it couples orders.

    Returns (blocks, gather, scatter): blocks[q + dim - 1] is the block of
    S on the entries sigma_mn with m - n = q, entry (m, n) at row min(m, n),
    zero-padded to dim x dim; vec(sigma)[gather] stacks the entries by
    block, and the flattened block stack indexed by scatter is vec(sigma)
    again.
    """
    m, n = np.divmod(np.arange(dim * dim), dim)
    block = m - n + dim - 1
    slot = np.minimum(m, n)
    S = S.tocoo()
    S.sum_duplicates()
    rows, cols = S.row, S.col
    if np.any(block[rows] != block[cols]):
        return None
    blocks = np.zeros((2 * dim - 1, dim, dim), dtype=complex)
    blocks[block[rows], slot[rows], slot[cols]] = S.data
    gather = np.zeros((2 * dim - 1, dim), dtype=np.intp)
    gather[block, slot] = np.arange(dim * dim)
    return blocks, gather, block * dim + slot


def _frame_stack(n: int, dim: int) -> np.ndarray:
    """Zeroed complex (n, dim, dim) array in an anonymous memory map.

    A trajectory's frames take megabytes and live as long as its caller
    keeps them.  Kept in the malloc heap, freed stacks left holes there
    that raised the peak RSS of repeated fig4 runs by 7-8 %; a map of its
    own goes back to the system when the last view of it is dropped.
    """
    buffer = mmap.mmap(-1, n * dim * dim * np.dtype(complex).itemsize)
    return np.frombuffer(buffer, dtype=complex).reshape(n, dim, dim)


def propagate(kind: DissipatorKind, sigma0: FockDensityMatrix, omega: float,
              t_grid: Sequence[float]) -> FockTrajectory:
    """exp(L t) sigma0 at the points of a uniform grid, for a constant L.

    The grid must be uniform to rounding (any np.linspace(0, T, n)).  The
    generator is Liouvillian.superoperator(); when no entry of it couples
    different coherence orders, each order's block is exponentiated once at
    the grid step and the frames follow by block mat-vecs.  Otherwise each
    grid step h takes s truncated Taylor sums of exp(h S / s), the degree m
    and s chosen once from |h S|_1 and TAYLOR_THETA to minimize m s, each
    sum stopped once two successive terms fall below 2^-53 of it.  The
    frames are never re-symmetrized in between, so the states
    are exp(L t) sigma0 as computed, symmetrized only when recorded.
    The monitors are integrate's,
    evaluated per frame: trace, pre-symmetrization defect (herm_drift),
    minimum eigenvalue and top-level population, which flags the run above
    TOP_WARN and raises TruncationError above TOP_ERROR.  n_accepted counts
    the grid intervals; nothing is ever rejected.
    """
    import scipy.linalg

    if isinstance(kind, TimeDependent):
        raise ValueError("propagate needs a time-independent generator; "
                         "use integrate for TimeDependent")
    t_grid = _checked_grid(t_grid, sigma0)
    n_t, dim = t_grid.size, sigma0.dim
    t_end = float(t_grid[-1])
    if np.abs(t_grid - np.linspace(0.0, t_end, n_t)).max() > 1e-12 * t_end:
        raise ValueError("propagate needs a uniform time grid")

    S = Liouvillian(kind, omega, dim).superoperator()
    split = _coherence_blocks(S, dim)
    frames = _frame_stack(n_t, dim)
    frames[0] = sigma0.sigma
    flat = frames.reshape(n_t, dim * dim)
    h = t_end / max(n_t - 1, 1)
    if split is not None:
        blocks, gather, scatter = split
        # in place, one block at a time: blocks[b] becomes exp(h S_b)
        for b, size in enumerate(dim - np.abs(np.arange(1 - dim, dim))):
            blocks[b, :size, :size] = scipy.linalg.expm(h * blocks[b, :size, :size])
        for k in range(1, n_t):
            stacked = np.matmul(blocks, flat[k - 1][gather][..., None])
            flat[k] = stacked.reshape(-1)[scatter]
    else:
        norm = h * float(abs(S).sum(axis=0).max())
        m, s = min(((m, math.ceil(norm / theta)) for m, theta in TAYLOR_THETA.items()),
                   key=lambda ms: ms[0] * ms[1])
        v = flat[0]
        for k in range(1, n_t):
            for _ in range(s):
                term, prev = v, np.abs(v).max()
                for j in range(1, m + 1):
                    term = (h / (s * j)) * (S @ term)
                    size = np.abs(term).max()
                    v = v + term
                    if prev + size <= 2.0 ** -53 * np.abs(v).max():
                        break
                    prev = size
            flat[k] = v

    drifts = np.empty(n_t)
    for k, s in enumerate(frames):
        drifts[k] = np.abs(s - s.conj().T).max()
        s[...] = 0.5 * (s + s.conj().T)
    tops = frames[:, -1, -1].real.copy()
    over = np.flatnonzero(tops > TOP_ERROR)
    if over.size:
        k = over[0]
        raise _top_population_error(tops[k], TOP_ERROR, t_grid[k])
    mins = np.linalg.eigvalsh(frames).min(axis=1)
    return FockTrajectory(
        times=t_grid.copy(), states=list(frames), dim=dim, omega=omega,
        trace=np.trace(frames, axis1=1, axis2=2).real, herm_drift=drifts,
        min_eigenvalue=mins, top_population=tops,
        n_accepted=n_t - 1, n_rejected=0,
        truncation_flagged=bool(np.any(tops > TOP_WARN)),
        positivity_flagged=bool(mins.min() < POSITIVITY_THRESHOLD))


# ---------------------------------------------------------------------------
# observables and coordinate densities

def observables(sigma: FockDensityMatrix) -> dict:
    """{meanQ, V, populations, parity, purity}; V = Var(Q)/2."""
    s = sigma.sigma
    _, _, X = build_ladder(sigma.dim)
    meanQ = float(np.trace(s @ X).real)
    meanQ2 = float(np.trace(s @ (X @ X)).real)
    pops = np.real(np.diag(s)).copy()
    signs = np.where(np.arange(sigma.dim) % 2 == 0, 1.0, -1.0)
    return {
        "meanQ": meanQ,
        "V": 0.5 * (meanQ2 - meanQ * meanQ),
        "populations": pops,
        "parity": float(np.sum(signs * pops)),
        "purity": float(np.vdot(s, s).real),
    }


def hermite_functions(dim: int, grid) -> np.ndarray:
    """psi_n(Q) for n < dim, normalized so the ground state has Var(Q) = 1.

    psi_0(Q) = (2 pi)^{-1/4} e^{-Q^2/4}; stable upward recurrence
    psi_{n+1} = (Q psi_n - sqrt(n) psi_{n-1}) / sqrt(n+1).
    """
    grid = np.asarray(grid, dtype=float)
    psi = np.zeros((dim, grid.size))
    psi[0] = (2.0 * math.pi) ** -0.25 * np.exp(-grid**2 / 4.0)
    if dim > 1:
        psi[1] = grid * psi[0]
    for n in range(1, dim - 1):
        psi[n + 1] = (grid * psi[n] - math.sqrt(n) * psi[n - 1]) / math.sqrt(n + 1)
    return psi


def position_density(sigma: FockDensityMatrix, grid) -> WavepacketFrame:
    """P(Q) = sum_mn sigma_mn psi_m(Q) psi_n(Q) on the grid."""
    grid = np.asarray(grid, dtype=float)
    return _density_frame(sigma.sigma, grid, hermite_functions(sigma.dim, grid))


def _density_frame(s: np.ndarray, grid: np.ndarray, psi: np.ndarray,
                   time: float = 0.0) -> WavepacketFrame:
    """position_density of the matrix s with the basis psi on grid given."""
    # psi is real, so Re sum_mn s_mn psi_m psi_n needs only Re s
    density = np.einsum("mj,mj->j", psi, s.real @ psi)
    warnings: Tuple[str, ...] = ()
    pops = np.real(np.diag(s))
    occupied = np.nonzero(pops > 1e-6)[0]
    if occupied.size and grid.size > 1:
        n_top = int(occupied.max())
        k_max = math.sqrt((2 * n_top + 1) / 2.0)
        dq = float(np.max(np.diff(grid)))
        if dq > math.pi / k_max:
            warnings = ("fringe-nyquist",)
    return WavepacketFrame(time=time, grid=grid, density=density, warnings=warnings)


def trajectory_frames(traj: FockTrajectory, grid) -> List[WavepacketFrame]:
    """position_density of every state, stamped with its time.

    The Hermite basis is built once for all frames; each frame's density
    has the same bytes as position_density of the same state.
    """
    grid = np.asarray(grid, dtype=float)
    psi = hermite_functions(traj.dim, grid)
    return [_density_frame(s, grid, psi, float(t))
            for t, s in zip(traj.times, traj.states)]


class CatVisibility(NamedTuple):
    cat: FockTrajectory
    mixture: FockTrajectory
    visibility: np.ndarray
    i_collision: int


def cat_visibility(kind: DissipatorKind, alpha: complex, phi: float,
                   omega: float, dim: int, times) -> CatVisibility:
    """Fringe contrast at Q=0 of a cat against its incoherent mixture.

    Runs the cat and (|alpha><alpha| + |-alpha><-alpha|)/2 under the same
    generator; visibility = (P_cat(0) - s P_mix(0)) / (s P_mix(0)) per frame
    with s = 2/N^2.  The first collision is the first maximum of the
    mixture density at Q=0.
    """
    mix = FockDensityMatrix(dim=dim, sigma=0.5 * (
        coherent_density_matrix(alpha, dim).sigma
        + coherent_density_matrix(-alpha, dim).sigma))
    tr_cat = propagate(kind, cat_density_matrix(alpha, phi, dim), omega, times)
    tr_mix = propagate(kind, mix, omega, times)
    q0 = np.array([0.0])
    pc, pm = (np.array([f.density[0] for f in trajectory_frames(tr, q0)])
              for tr in (tr_cat, tr_mix))
    mix_scale = 2.0 / cat_norm2(alpha, phi)
    return CatVisibility(cat=tr_cat, mixture=tr_mix,
                         visibility=(pc - mix_scale * pm) / (mix_scale * pm),
                         i_collision=int(np.argmax(pm)))


def trajectory_observables(traj: FockTrajectory) -> dict:
    """Per-frame observable series as arrays keyed by name."""
    names = ("meanQ", "V", "parity", "purity")
    series = {k: np.empty(len(traj.states)) for k in names}
    for i, s in enumerate(traj.states):
        obs = observables(FockDensityMatrix(dim=traj.dim, sigma=s))
        for k in names:
            series[k][i] = obs[k]
    series["trace"] = traj.trace.copy()
    series["min_eigenvalue"] = traj.min_eigenvalue.copy()
    series["top_population"] = traj.top_population.copy()
    return series

