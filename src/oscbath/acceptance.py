"""Acceptance gate: ten numbered cross-validation criteria.

Each criterion runs at its stated tolerance and reports measured values.
Three of them (5, 8, 10) encode reference formulas whose stated
thresholds disagree with the exact dynamics of the very equations they
summarize; they are computed faithfully and reported as failures, with
the analysis in the `note` field:

* #5  The interference-peak envelope decays at the local rate
      4|alpha|^2 gamma e^{-2 gamma t} (the collision-peak ratio law
      exp(2 a^2 (e^{-2g t2} - e^{-2g t1})) holds to ~1e-9), so an
      early-window exponential fit sits near twice the quoted reference
      rate 2|alpha|^2 gamma.  The |alpha|^2-linearity clause does hold.
* #8  At kT = 2/ln 3 the linear-bath first-collision visibility is
      exp(-2a^2 + (Im a z)^2 e^{-2gt1}/V(t1)) ~ 0.64 (thermal V-growth
      is the only suppression that fast), so the quad/linear ratio at
      the first collision is ~1.6, not >= 4; the ratio passes 4 only
      around the third collision.
* #10 V - 1/2 = Gamma0 t^2 is not a solution of the cumulant system:
      the counter-rotating second-cumulant response cancels the K11
      growth exactly at short times (exact idealized solution
      Gamma0 t^2 - (Gamma0/w^2) sin^2 wt) and caps the coefficient at
      sum K^2 n (not sum K^2 (2n+1)) in the window 1/w << t << tau_c.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import bath as bath_mod
from . import cumulant as cum
from . import fock as fock_mod
from . import wavepacket as wp


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    measured: dict
    thresholds: dict
    note: str = ""
    runtime_s: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.cid:2d}: {self.title} ({self.runtime_s:.1f}s)"


@dataclass
class ConservationLog:
    """Trace/Hermiticity/normalization records from criteria 1-8 runs."""

    trace_defect: float = 0.0
    herm_drift: float = 0.0
    frame_norm_defect: float = 0.0
    n_trajectories: int = 0
    n_frames: int = 0

    def watch(self, traj: fock_mod.FockTrajectory) -> None:
        self.trace_defect = max(self.trace_defect, float(np.abs(traj.trace - 1.0).max()))
        self.herm_drift = max(self.herm_drift, float(traj.herm_drift.max()))
        self.n_trajectories += 1

    def watch_frame(self, frame: wp.WavepacketFrame) -> None:
        self.frame_norm_defect = max(self.frame_norm_defect, abs(frame.norm() - 1.0))
        self.n_frames += 1


def _fock_frames_norm(traj: fock_mod.FockTrajectory, log: ConservationLog,
                      n_samples: int = 5) -> None:
    """Sample frames on a grid wide enough for the 1e-6 normalization check."""
    idx = np.linspace(0, len(traj.states) - 1, n_samples).astype(int)
    center_max = 0.0
    v_max = 0.5
    for i in idx:
        obs = fock_mod.observables(
            fock_mod.FockDensityMatrix(dim=traj.dim, sigma=traj.states[i]))
        center_max = max(center_max, abs(obs["meanQ"]))
        v_max = max(v_max, obs["V"])
    half = 2.0 * center_max + 10.0 * math.sqrt(2.0 * v_max)
    grid = np.linspace(-half, half, 4096)
    for i in idx:
        frame = fock_mod.position_density(
            fock_mod.FockDensityMatrix(dim=traj.dim, sigma=traj.states[i]), grid)
        log.watch_frame(frame)


class AcceptanceSuite:
    """Runs the ten criteria; shares trajectories where criteria overlap."""

    def __init__(self):
        self.conservation = ConservationLog()

    # -- 1 ------------------------------------------------------------------
    def criterion_1(self) -> CriterionResult:
        from scipy.optimize import curve_fit

        t0 = time.perf_counter()
        omega, gamma, nbar = 1.0, 0.25, 0.4
        target = math.sqrt(omega**2 - gamma**2)
        s0 = fock_mod.coherent_density_matrix(1.0, 30)
        times = np.linspace(0.0, 4 * 2 * math.pi / target, 400)
        traj = fock_mod.propagate(fock_mod.LinearNonRWA(gamma=gamma, nbar=nbar),
                                  s0, omega, times)
        self.conservation.watch(traj)
        _fock_frames_norm(traj, self.conservation)
        q = fock_mod.trajectory_observables(traj)["meanQ"]

        def model(t, A, g, w, ph):
            return A * np.exp(-g * t) * np.cos(w * t + ph)

        popt, _ = curve_fit(model, times, q, p0=(2.0, gamma, omega, 0.0))
        freq = abs(popt[2])
        rel = abs(freq - target) / target
        rt = time.perf_counter() - t0
        return CriterionResult(
            cid=1, title="effective-frequency shift (non-RWA Fock run)",
            passed=bool(rel <= 5e-3 and rt < 10.0),
            measured={"fitted_frequency": freq, "relative_error": rel,
                      "runtime_s": rt},
            thresholds={"frequency": 0.96825, "relative_tolerance": 5e-3,
                        "runtime_s": 10.0},
            runtime_s=rt)

    # -- 2 ------------------------------------------------------------------
    def criterion_2(self) -> CriterionResult:
        t0 = time.perf_counter()
        omega, gamma = 1.0, 0.05
        times = np.linspace(0.0, 10 * 2 * math.pi, 200)
        s0 = fock_mod.coherent_density_matrix(1.0, 30)
        traj = fock_mod.propagate(fock_mod.LinearNonRWA(gamma=gamma, nbar=0.0),
                                  s0, omega, times)
        self.conservation.watch(traj)
        _fock_frames_norm(traj, self.conservation)
        obs = fock_mod.trajectory_observables(traj)
        coeffs = bath_mod.relaxation_coefficients(
            bath_mod.LinearMarkov(gamma=gamma, nbar=0.0), omega)
        branches = cum.evolve_cumulants(
            cum.BranchCumulants.initial(1.0, 1.0), coeffs, omega, times)
        qc = np.array([b.center.real for b in branches])
        vc = np.array([b.variance_param.real for b in branches])
        dq = float(np.abs(obs["meanQ"] - qc).max())
        dv = float(np.abs(obs["V"] - vc).max())
        rt = time.perf_counter() - t0
        return CriterionResult(
            cid=2, title="oracle equivalence (cumulant vs Fock)",
            passed=bool(dq <= 1e-4 and dv <= 1e-4),
            measured={"max_dQ": dq, "max_dV": dv},
            thresholds={"max_dQ": 1e-4, "max_dV": 1e-4},
            runtime_s=rt)

    # -- 3 ------------------------------------------------------------------
    def criterion_3(self) -> CriterionResult:
        t0 = time.perf_counter()
        omega, gamma = 1.0, 0.1
        nbar = bath_mod.bose_occupation(omega, 3.0)
        alpha0 = 2.0
        times = np.linspace(0.0, 10 * 2 * math.pi, 500)
        coeffs = bath_mod.relaxation_coefficients(
            bath_mod.LinearMarkov(gamma=gamma, nbar=nbar), omega)
        branches = cum.evolve_cumulants(
            cum.BranchCumulants.initial(alpha0, alpha0), coeffs, omega, times)
        q = np.array([b.center.real for b in branches])
        v = np.array([b.variance_param.real for b in branches])
        qa, va, _ = cum.analytic_markov(alpha0, gamma, omega, nbar, times)
        dev = max(float(np.abs(q - qa).max()), float(np.abs(v - va).max()))
        rt = time.perf_counter() - t0
        return CriterionResult(
            cid=3, title="analytic consistency (cumulant ODE vs closed form)",
            passed=bool(dev <= 1e-8),
            measured={"max_deviation": dev},
            thresholds={"max_deviation": 1e-8},
            runtime_s=rt)

    # -- 4 ------------------------------------------------------------------
    def criterion_4(self) -> CriterionResult:
        from scipy.optimize import curve_fit

        t0 = time.perf_counter()
        omega, gamma = 1.0, 0.1
        nbar = bath_mod.bose_occupation(omega, 3.0)
        target_v = 0.5 + nbar
        s0 = fock_mod.coherent_density_matrix(2.0, 40)
        span, npts = 40.0, 400
        times = np.linspace(0.0, span, npts)
        traj = fock_mod.propagate(fock_mod.LinearNonRWA(gamma=gamma, nbar=nbar),
                                  s0, omega, times)
        self.conservation.watch(traj)
        _fock_frames_norm(traj, self.conservation)
        v = fock_mod.trajectory_observables(traj)["V"]
        v_inf = float(v[times > 30.0].mean())
        rel = abs(v_inf - target_v) / target_v

        def trend(t, a, b, c):
            return a + b * np.exp(-c * t)

        popt, _ = curve_fit(trend, times, v, p0=(target_v, -nbar, 2 * gamma),
                            maxfev=20000)
        resid = (v - trend(times, *popt)) * np.hanning(npts)
        freqs = np.fft.rfftfreq(npts, d=times[1] - times[0]) * 2 * math.pi
        peak = float(freqs[int(np.argmax(np.abs(np.fft.rfft(resid))))])
        two_wt = 2 * math.sqrt(omega**2 - gamma**2)
        bin_w = float(freqs[1])
        rt = time.perf_counter() - t0
        return CriterionResult(
            cid=4, title="broadening saturation and 2w~ oscillation",
            passed=bool(rel <= 0.01 and abs(peak - two_wt) <= bin_w and rt < 60.0),
            measured={"V_infinity": v_inf, "relative_error": rel,
                      "fft_peak": peak, "fft_bin": bin_w, "runtime_s": rt},
            thresholds={"V_infinity": target_v, "relative_tolerance": 0.01,
                        "fft_target": two_wt, "fft_within": bin_w,
                        "runtime_s": 60.0},
            runtime_s=rt)

    # -- 5 ------------------------------------------------------------------
    def criterion_5(self) -> CriterionResult:
        t0 = time.perf_counter()
        gamma, omega = 0.02, 1.0
        alphas = (1.0, 1.5, 2.0)
        rates = []
        ratios = []
        for a in alphas:
            fit = wp.fit_interference_decay(a, 0.0, gamma, omega, 0.0,
                                            n_collisions=4)
            rates.append(fit.rate)
            ratios.append(fit.ratio_to_law)
        a2 = np.array([a * a for a in alphas])
        r = np.array(rates)
        coef = np.polyfit(a2, r, 1)
        pred = np.polyval(coef, a2)
        ss_res = float(np.sum((r - pred) ** 2))
        ss_tot = float(np.sum((r - r.mean()) ** 2))
        r_squared = 1.0 - ss_res / ss_tot
        ratio_ok = all(0.9 <= x <= 1.1 for x in ratios)
        lin_ok = r_squared >= 0.99
        rt = time.perf_counter() - t0
        return CriterionResult(
            cid=5, title="decoherence-rate law (envelope fit vs 2|a|^2 g)",
            passed=bool(ratio_ok and lin_ok),
            measured={"rate_ratios": [float(x) for x in ratios],
                      "linearity_r_squared": r_squared,
                      "fitted_rates": [float(x) for x in rates]},
            thresholds={"rate_ratio_range": [0.9, 1.1],
                        "linearity_r_squared": 0.99},
            note=("linearity holds; the envelope's early-window rate is "
                  "4|a|^2 g e^{-2gt} (twice the reference law), so the "
                  "ratio clause fails by construction"),
            runtime_s=rt)

    # -- 6 ------------------------------------------------------------------
    def criterion_6(self) -> CriterionResult:
        t0 = time.perf_counter()
        omega, G = 1.0, 0.5
        dim = 20
        s1 = fock_mod.number_state_density_matrix(1, dim)
        times = np.linspace(0.0, 10.0 / G, 100)
        tr1 = fock_mod.propagate(fock_mod.QuadraticLindblad(Gamma=G, nbar2=0.0),
                                 s1, omega, times)
        self.conservation.watch(tr1)
        _fock_frames_norm(tr1, self.conservation, n_samples=3)
        p11 = np.array([s[1, 1].real for s in tr1.states])
        d11 = float(np.abs(p11 - 1.0).max())

        s2 = fock_mod.number_state_density_matrix(2, dim)
        t2 = np.linspace(0.0, 2.0, 80)
        tr2 = fock_mod.propagate(fock_mod.QuadraticLindblad(Gamma=G, nbar2=0.0),
                                 s2, omega, t2)
        self.conservation.watch(tr2)
        _fock_frames_norm(tr2, self.conservation, n_samples=3)
        p22 = np.array([s[2, 2].real for s in tr2.states])
        fitted = -float(np.polyfit(t2, np.log(p22), 1)[0])

        # brute-force matrix-element oracle, built independently of fock.py
        a = np.zeros((dim, dim))
        for n in range(1, dim):
            a[n - 1, n] = math.sqrt(n)
        A = a @ a
        Ad = A.T
        sig = np.zeros((dim, dim))
        sig[2, 2] = 1.0
        r_sig = G * (2.0 * A @ sig @ Ad - Ad @ A @ sig - sig @ Ad @ A)
        oracle = -float(r_sig[2, 2])
        rel = abs(fitted - oracle) / oracle
        rt = time.perf_counter() - t0
        return CriterionResult(
            cid=6, title="parity selection (two-quantum bath)",
            passed=bool(d11 <= 1e-8 and rel <= 0.01),
            measured={"max_dev_sigma11": d11, "fitted_rate": fitted,
                      "oracle_rate": oracle, "rate_relative_error": rel},
            thresholds={"max_dev_sigma11": 1e-8, "rate_relative_error": 0.01},
            runtime_s=rt)

    # -- 7 ------------------------------------------------------------------
    def criterion_7(self) -> CriterionResult:
        t0 = time.perf_counter()
        omega = 1.0
        s0 = fock_mod.coherent_density_matrix(-1.1, 30)
        times = np.linspace(0.0, 30.0, 600)
        tr_quad = fock_mod.propagate(
            fock_mod.QuadraticLindblad(Gamma=0.5, nbar2=0.0), s0, omega, times)
        self.conservation.watch(tr_quad)
        _fock_frames_norm(tr_quad, self.conservation, n_samples=3)
        q_quad = fock_mod.trajectory_observables(tr_quad)["meanQ"]
        tp, vp = _abs_peaks(times, q_quad)
        rates = -np.diff(np.log(vp)) / np.diff(tp)
        early = float(rates[0])
        late = float(np.mean(rates[-3:]))
        ratio = early / late if late > 0 else math.inf

        tr_lin = fock_mod.propagate(
            fock_mod.LinearNonRWA(gamma=0.15, nbar=0.0), s0, omega, times)
        self.conservation.watch(tr_lin)
        _fock_frames_norm(tr_lin, self.conservation, n_samples=3)
        q_lin = fock_mod.trajectory_observables(tr_lin)["meanQ"]
        tp2, vp2 = _abs_peaks(times, q_lin)
        logs = np.log(vp2)
        coef = np.polyfit(tp2, logs, 1)
        resid = logs - np.polyval(coef, tp2)
        resid_frac = float(np.sqrt(np.mean(resid**2)) / (logs.max() - logs.min()))
        rt = time.perf_counter() - t0
        return CriterionResult(
            cid=7, title="bath discrimination (two-quantum freeze-out)",
            passed=bool(ratio >= 3.0 and resid_frac < 0.02),
            measured={"early_rate": early, "late_rate": late,
                      "early_late_ratio": ratio,
                      "linear_slope": -float(coef[0]),
                      "linear_residual_fraction": resid_frac},
            thresholds={"early_late_ratio": 3.0, "linear_residual_fraction": 0.02},
            runtime_s=rt)

    # -- 8 ------------------------------------------------------------------
    def criterion_8(self) -> CriterionResult:
        t0 = time.perf_counter()
        omega, alpha, phi = 1.0, 2.0, 0.0
        kT = 2.0 / math.log(3.0)
        n1 = bath_mod.bose_occupation(omega, kT)
        n2 = bath_mod.bose_occupation(2 * omega, kT)
        dim = 40
        times = np.linspace(0.0, 2.2, 120)
        vis = {}
        for label, kind in (
                ("linear", fock_mod.LinearNonRWA(gamma=0.005, nbar=n1)),
                ("quadratic", fock_mod.QuadraticLindblad(Gamma=0.005, nbar2=n2))):
            run = fock_mod.cat_visibility(kind, alpha, phi, omega, dim, times)
            for tr in (run.cat, run.mixture):
                self.conservation.watch(tr)
                _fock_frames_norm(tr, self.conservation, n_samples=3)
            # fringe contrast at Q=0 at the first packet collision
            vis[label] = float(run.visibility[run.i_collision])
            vis[label + "_t"] = float(times[run.i_collision])
        ratio = vis["quadratic"] / vis["linear"]
        rt = time.perf_counter() - t0
        return CriterionResult(
            cid=8, title="superposition conservation (quad vs linear bath)",
            passed=bool(ratio >= 4.0),
            measured={"visibility_linear": vis["linear"],
                      "visibility_quadratic": vis["quadratic"],
                      "ratio": float(ratio),
                      "collision_time": vis["linear_t"]},
            thresholds={"ratio": 4.0},
            note=("exact first-collision linear visibility is "
                  "exp(-2a^2+(Im az)^2 e^{-2gt1}/V(t1)) ~ 0.64 at these "
                  "parameters (Fock and closed form agree to 4 digits), so "
                  "the ratio is ~1.6 at the first collision and reaches 4 "
                  "only around the third"),
            runtime_s=rt)

    # -- 9 ------------------------------------------------------------------
    def criterion_9(self) -> CriterionResult:
        log = self.conservation
        passed = (log.trace_defect <= 1e-9 and log.herm_drift <= 1e-10
                  and log.frame_norm_defect <= 1e-6)
        return CriterionResult(
            cid=9, title="conservation suite (trace, Hermiticity, norm)",
            passed=bool(passed),
            measured={"max_trace_defect": log.trace_defect,
                      "max_herm_drift": log.herm_drift,
                      "max_frame_norm_defect": log.frame_norm_defect,
                      "n_trajectories": log.n_trajectories,
                      "n_frames": log.n_frames},
            thresholds={"max_trace_defect": 1e-9, "max_herm_drift": 1e-10,
                        "max_frame_norm_defect": 1e-6},
            runtime_s=0.0)

    # -- 10 -----------------------------------------------------------------
    def criterion_10(self) -> CriterionResult:
        t0 = time.perf_counter()
        omega = 1.0
        comb = bath_mod.flat_comb(center=omega, width=0.01, n_modes=201,
                                  total_coupling_sq=1.25e-4, occupation=1.0)
        gamma0 = comb.early_time_constant()
        tau_c = comb.correlation_time()
        times = np.linspace(0.0, 0.1 * tau_c, 201)
        coeffs = bath_mod.relaxation_coefficients(comb, omega)
        branches = cum.evolve_cumulants(
            cum.BranchCumulants.initial(1.0, 1.0), coeffs, omega, times,
            rtol=1e-9, atol=1e-11)
        v = np.array([b.variance_param.real for b in branches])
        law = gamma0 * times**2
        rel = np.abs((v[1:] - 0.5) - law[1:]) / law[1:]
        max_rel = float(rel.max())
        occ = 1.0
        rt = time.perf_counter() - t0
        return CriterionResult(
            cid=10, title="early-time quadratic broadening law (mode comb)",
            passed=bool(max_rel <= 0.05),
            measured={"max_relative_deviation": max_rel,
                      "Gamma0": gamma0, "tau_c": tau_c,
                      "window_coefficient_ratio": float(
                          (v[-1] - 0.5) / law[-1]),
                      "expected_window_ratio_n_over_2n_plus_1":
                          occ / (2 * occ + 1)},
            thresholds={"max_relative_deviation": 0.05},
            note=("V - 1/2 = Gamma0 t^2 is not a solution of the cumulant "
                  "system: the K20+K02 response cancels the K11 growth at "
                  "wt << 1 and caps the window coefficient at sum K^2 n "
                  "= Gamma0 n/(2n+1); measured accordingly"),
            runtime_s=rt)

    def run_all(self) -> List[CriterionResult]:
        results = []
        for k in range(1, 9):
            results.append(getattr(self, f"criterion_{k}")())
        results.append(self.criterion_9())
        results.append(self.criterion_10())
        return results


def _abs_peaks(times: np.ndarray, q: np.ndarray):
    """Local maxima of |q|, including the t=0 endpoint (the global start)."""
    aq = np.abs(q)
    idx = [0] if aq[0] >= aq[1] else []
    idx += [i for i in range(1, len(times) - 1)
            if aq[i] >= aq[i - 1] and aq[i] >= aq[i + 1] and aq[i] > 1e-9]
    return times[idx], aq[idx]


def run_acceptance(out_path: Optional[str] = None,
                   echo=print) -> Dict:
    """Execute all criteria; returns the report dict (and writes JSON)."""
    suite = AcceptanceSuite()
    results = suite.run_all()
    for r in results:
        echo(r.line())
    report = {
        "passed": all(r.passed for r in results),
        "n_passed": sum(r.passed for r in results),
        "n_total": len(results),
        "criteria": [
            {"id": r.cid, "title": r.title, "passed": r.passed,
             "measured": r.measured, "thresholds": r.thresholds,
             "note": r.note, "runtime_s": round(r.runtime_s, 3)}
            for r in results],
    }
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return report
