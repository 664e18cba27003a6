"""Correctness checks of one benchmark operation.

Every check compares an output with a computation made apart from the
solver that produced it, or with a property the method must have.  The
closed forms below are written out here in plain numpy, not taken from
the package, so that a fault in the package's own closed forms cannot
hide a fault in the solver they check.  Each check returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances; none is looser than the test suite's oracle tolerance for the
# same comparison (see README.md, "Checks").
TRACE_TOL = 1e-9            # suite: trace defect of Fock trajectories
PARITY_TOL = 1e-10          # suite: two-quantum parity leakage
FRAME_NORM_TOL = 1e-6       # acceptance criterion 9: frame norm defect
LINEAR_MEANQ_TOL = 1e-6     # suite: Fock <a> against the Markov closed form
VISIBILITY_REL_TOL = 1e-6   # fig4 (b) against its closed form, relative
FRAME_ORACLE_TOL = 1e-7     # cumulant frames against Fock frames, absolute
SERIES_ORACLE_TOL = 1e-4    # suite: Fock time-dependent against cumulant


def markov_closed_form(alpha0, gamma, omega, nbar, t):
    """Centre Q(t), width V(t) and phase factor z(t) of a coherent branch.

    Markov-stage solution of the linear non-RWA bath: with
    w~ = sqrt(w^2 - g^2), z = cos w~t + (g/w~) sin w~t + i (w/w~) sin w~t,
    Q = 2 Re(alpha0 z) e^{-gt} and
    V = 1/2 + n - n e^{-2gt} [1 + (g/w~)^2 (1 - cos 2w~t) + (g/w~) sin 2w~t].
    """
    t = np.asarray(t, dtype=float)
    wt = math.sqrt(omega * omega - gamma * gamma)
    r = gamma / wt
    s, c = np.sin(wt * t), np.cos(wt * t)
    z = c + r * s + 1j * (omega / wt) * s
    Q = 2.0 * np.real(alpha0 * z) * np.exp(-gamma * t)
    V = 0.5 + nbar - nbar * np.exp(-2.0 * gamma * t) * (
        1.0 + r * r * (1.0 - np.cos(2.0 * wt * t)) + r * np.sin(2.0 * wt * t))
    return Q, V, z


def cat_visibility_q0(alpha, phi, gamma, omega, nbar, t):
    """Fringe visibility at Q=0 of a cat under the Markov bath.

    Interference over mixture density at Q=0:
    cos(phi) exp(-2|a|^2 + (y^2 + Qc^2/4) / V), y = Im(a z) e^{-gt}, with Qc
    the centre of the diagonal branches.  At a packet collision Qc = 0 and
    this is exp(-2a^2 + (Im a z)^2 e^{-2gt}/V).
    """
    Qc, V, z = markov_closed_form(alpha, gamma, omega, nbar, t)
    y = np.imag(alpha * z) * np.exp(-gamma * np.asarray(t, dtype=float))
    return math.cos(phi) * np.exp(-2.0 * abs(alpha) ** 2 + (y * y + 0.25 * Qc * Qc) / V)


def cat_parity(alpha, phi):
    """<(-1)^n> of N^-1 (|a> + e^{i phi} |-a>)."""
    ov = math.exp(-2.0 * abs(alpha) ** 2)
    return (2.0 * ov + 2.0 * math.cos(phi)) / (2.0 + 2.0 * math.cos(phi) * ov)


def bose_occupation(omega, kT):
    return 1.0 / math.expm1(omega / kT)


def parity(sigma):
    pops = np.real(np.diag(sigma))
    return float(np.sum(pops[0::2]) - np.sum(pops[1::2]))


def check_traces(label, trajectory):
    dev = float(np.max(np.abs(np.asarray(trajectory.trace) - 1.0)))
    if dev > TRACE_TOL:
        return [f"{label}: trace deviates from 1 by {dev:.3e} > {TRACE_TOL:g}"]
    return []


def check_parity(label, trajectory, expected):
    dev = max(abs(parity(s) - expected) for s in trajectory.states)
    if dev > PARITY_TOL:
        return [f"{label}: parity leaves {expected:.12g} by {dev:.3e} > {PARITY_TOL:g}"]
    return []


def check_frames(label, frames, n_expected):
    """There are n_expected frames; each integrates to 1 and carries no warning."""
    out = []
    if len(frames) != n_expected:
        out.append(f"{label}: {len(frames)} frames, expected {n_expected}")
    for f in frames:
        norm = float(np.trapezoid(f.density, f.grid))
        if abs(norm - 1.0) > FRAME_NORM_TOL:
            out.append(f"{label}: frame t={f.time:.6g} integrates to {norm:.9f}")
        if f.warnings:
            out.append(f"{label}: frame t={f.time:.6g} warns {f.warnings}")
        if len(out) >= 3:
            break
    return out


def check_close(label, got, want, tol):
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not dev <= tol:
        return [f"{label}: deviates by {dev:.3e} > {tol:g}"]
    return []


def check_fig4(result, tree):
    """The fig4 preset: (a) linear and two-quantum coherent runs, (b)/(c) cat."""
    omega = float(tree["omega"])
    a, bc = tree["a"], tree["bc"]
    alpha0 = float(a["alpha0"])
    tr_lin, tr_quad = result.meta["a_trajectories"]
    tr_b = result.meta["b_linear_trajectory"]
    tr_c = result.meta["c_quadratic_trajectory"]
    fails = []
    Q, _, _ = markov_closed_form(alpha0, float(a["gamma"]), omega, 0.0, result.times)
    fails += check_close("fig4 (a) linear <Q> vs Markov closed form",
                         result.series["meanQ_linear"], Q, LINEAR_MEANQ_TOL)
    fails += check_parity("fig4 (a) two-quantum coherent", tr_quad,
                          parity(tr_quad.states[0]))
    alpha, phi = float(bc["alpha"]), float(bc["phi"])
    fails += check_parity("fig4 (c) two-quantum cat", tr_c, cat_parity(alpha, phi))
    for label, tr in (("(a) linear", tr_lin), ("(a) two-quantum", tr_quad),
                      ("(b) linear cat", tr_b), ("(c) two-quantum cat", tr_c)):
        fails += check_traces(f"fig4 {label}", tr)
    for label in ("b_linear", "c_quadratic"):
        fails += check_frames(f"fig4 {label}", result.extra_frames.get(label, []),
                              int(bc["points"]))
    t1 = result.meta["b_linear_first_collision_t"]
    got = result.meta["b_linear_first_collision_visibility"]
    nbar = bose_occupation(omega, float(bc["kT"]))
    want = float(cat_visibility_q0(alpha, phi, float(bc["gamma"]), omega, nbar, t1))
    rel = abs(got - want) / abs(want)
    if not rel <= VISIBILITY_REL_TOL:
        fails.append(f"fig4 (b) first-collision visibility {got:.9g} vs closed form "
                     f"{want:.9g}: relative {rel:.3e} > {VISIBILITY_REL_TOL:g}")
    return fails


def check_comb_cat(result, oracle_frames, n_frames):
    """Cumulant cat frames: n_frames of them, unit norm, real, and equal to
    the Fock oracle's frames on the prefix of the time grid it covers."""
    fails = check_frames("comb-cat", result.frames, n_frames)
    for mine, ref in zip(result.frames, oracle_frames):
        fails += check_close(f"comb-cat frame t={mine.time:.6g} vs Fock oracle",
                             mine.density, ref, FRAME_ORACLE_TOL)
        if len(fails) >= 3:
            break
    return fails


def check_comb_oracle(fock_result, cumulant_result):
    """The Fock time-dependent and cumulant series of one coherent state agree."""
    fails = []
    for name in ("meanQ", "V"):
        fails += check_close(f"comb-oracle {name} Fock vs cumulant",
                             fock_result.series[name], cumulant_result.series[name],
                             SERIES_ORACLE_TOL)
    dev = float(np.max(np.abs(fock_result.series["trace"] - 1.0)))
    if dev > TRACE_TOL:
        fails.append(f"comb-oracle Fock trace deviates by {dev:.3e}")
    if fock_result.meta.get("truncation_flagged"):
        fails.append("comb-oracle Fock basis flagged as truncated")
    return fails
