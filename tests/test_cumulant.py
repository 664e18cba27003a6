import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscbath import bath, cumulant as cum
from oscbath.bath import RelaxationCoefficients


def constant_coeffs(mu, nu):
    return RelaxationCoefficients(mu=lambda t: complex(mu), nu=lambda t: complex(nu))


cplx = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


class TestFreeEvolution:
    def test_rotating_first_cumulants(self):
        alpha, omega = 1.3, 1.0
        ts = np.linspace(0, 2 * math.pi, 40)
        tr = cum.evolve_cumulants(cum.BranchCumulants.initial(alpha, alpha),
                                  constant_coeffs(0, 0), omega, ts,
                                  rtol=1e-12, atol=1e-14)
        for t, c in zip(ts, tr):
            assert c.K10 == pytest.approx(alpha * cmath.exp(1j * omega * t), abs=1e-10)
            assert c.K01 == pytest.approx(alpha * cmath.exp(-1j * omega * t), abs=1e-10)
            assert abs(c.K11) < 1e-12 and abs(c.K20) < 1e-12 and abs(c.K02) < 1e-12


class TestMarkovStage:
    def test_matches_closed_form(self):
        omega, gamma = 1.0, 0.1
        nbar = bath.bose_occupation(omega, 3.0)
        ts = np.linspace(0, 10 * 2 * math.pi, 250)
        co = constant_coeffs(gamma, gamma * nbar)
        tr = cum.evolve_cumulants(cum.BranchCumulants.initial(2.0, 2.0), co, omega, ts)
        q = np.array([c.center.real for c in tr])
        v = np.array([c.variance_param.real for c in tr])
        qa, va, _ = cum.analytic_markov(2.0, gamma, omega, nbar, ts)
        assert np.abs(q - qa).max() < 1e-8
        assert np.abs(v - va).max() < 1e-8

    @pytest.mark.parametrize("alpha0", [1 + 1j, -0.4 + 1.3j, 2.0])
    def test_complex_alpha_matches_superposition(self, alpha0):
        # Q = 2 Re(alpha0 z*) e^{-gamma t}; with z in place of z* a complex
        # alpha0 is off by up to 3.45 at alpha0 = 1 + i
        omega, gamma = 1.0, 0.1
        ts = np.linspace(0, 30, 300)
        state = cum.coherent_state(alpha0, system_omega=omega)
        coeffs = bath.relaxation_coefficients(bath.LinearMarkov(gamma, 0.0), omega)
        (branch,) = cum.evolve_superposition(state, coeffs, ts)
        q = np.array([c.center.real for c in branch])
        qa, _, _ = cum.analytic_markov(alpha0, gamma, omega, 0.0, ts)
        assert np.abs(q - qa).max() < 1e-8

    def test_initial_values(self):
        q, v, z = cum.analytic_markov(1.5 + 0.5j, 0.2, 1.0, 0.7, 0.0)
        assert q == pytest.approx(2 * 1.5)
        assert v == pytest.approx(0.5)
        assert z == pytest.approx(1.0)

    def test_long_time_variance(self):
        nbar = 2.5
        _, v, _ = cum.analytic_markov(1.0, 0.1, 1.0, nbar, 400.0)
        assert v == pytest.approx(0.5 + nbar, rel=1e-8)

    def test_effective_frequency_value(self):
        assert cum.effective_frequency(1.0, 0.25) == pytest.approx(0.9682458366, rel=1e-9)

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError):
            cum.analytic_markov(1.0, 1.2, 1.0, 0.0, 1.0)

    def test_variance_bounds(self):
        # never below the ground-state width; bounded above by the thermal cap
        for gamma in (0.05, 0.2, 0.3):
            nbar = 1.7
            wt = cum.effective_frequency(1.0, gamma)
            ts = np.linspace(0, 80, 4000)
            _, v, _ = cum.analytic_markov(1.0, gamma, 1.0, nbar, ts)
            assert v.min() >= 0.5 - 1e-12
            cap = 0.5 + nbar * (1 + (gamma / wt) ** 2 + gamma / wt)
            assert v.max() <= cap + 1e-12


class TestEarlyTime:
    def test_reference_points(self):
        # the quadratic-broadening reference law V = 1/2 + G0 t^2 is the
        # exact variance less (G0/w^2) sin^2(wt), which vanishes at wt = k pi
        for t in (0.0, math.pi):
            assert cum.early_time_exact_variance(0.3, 1.0, t) \
                == pytest.approx(0.5 + 0.3 * t * t, abs=1e-12)

    def test_evolution_matches_exact_variance(self):
        # mu = 0, nu = G0 t has the exact solution
        # V = 1/2 + G0 t^2 - (G0/w^2) sin^2(wt)
        omega, g0 = 1.0, 0.3
        co = bath.relaxation_coefficients(bath.EarlyTime(Gamma0=g0), omega)
        ts = np.linspace(0, 12.0, 120)
        tr = cum.evolve_cumulants(cum.BranchCumulants.initial(2.0, 2.0), co, omega, ts,
                                  rtol=1e-12, atol=1e-14)
        v = np.array([c.variance_param.real for c in tr])
        v_exact = cum.early_time_exact_variance(g0, omega, ts)
        assert np.abs(v - v_exact).max() < 1e-9

    def test_small_time_growth_is_quartic(self):
        # the K20+K02 response cancels the K11 growth at wt << 1, leaving
        # V - 1/2 = G0 w^2 t^4 / 3 -- not the quadratic reference law
        omega, g0 = 1.0, 0.3
        co = bath.relaxation_coefficients(bath.EarlyTime(Gamma0=g0), omega)
        ts = np.array([0.0, 0.02, 0.05, 0.1])
        tr = cum.evolve_cumulants(cum.BranchCumulants.initial(1.0, 1.0), co, omega, ts,
                                  rtol=1e-12, atol=1e-14)
        for t, c in zip(ts[1:], tr[1:]):
            second_sum = (c.K11 + c.K20 + c.K02).real
            assert second_sum == pytest.approx(g0 * omega**2 * t**4 / 3.0, rel=0.01)

    def test_quadratic_law_holds_beyond_a_few_cycles(self):
        # pointwise within 5% once wt >~ 4
        omega, g0 = 1.0, 0.2
        for wt in (4.0, 6.0, 10.0):
            v = cum.early_time_exact_variance(g0, omega, wt / omega)
            assert v - 0.5 == pytest.approx(g0 * (wt / omega) ** 2, rel=0.05)


class TestBranchSymmetries:
    @given(alpha=cplx, beta=cplx, mu=cplx, nu=cplx)
    @settings(max_examples=15, deadline=None)
    def test_conjugation_symmetry(self, alpha, beta, mu, nu):
        # branch (a, b) and branch (b*, a*) are conjugate mirrors:
        # K10 <-> K01*, K20 <-> K02*, K11 <-> K11*
        mu *= 0.2
        nu *= 0.2
        ts = np.linspace(0, 3.0, 7)
        co = constant_coeffs(mu, nu)
        tr1 = cum.evolve_cumulants(cum.BranchCumulants.initial(alpha, beta),
                                   co, 1.0, ts)
        tr2 = cum.evolve_cumulants(
            cum.BranchCumulants.initial(beta.conjugate(), alpha.conjugate()),
            co, 1.0, ts)
        for c1, c2 in zip(tr1, tr2):
            assert c1.K10 == pytest.approx(c2.K01.conjugate(), abs=1e-9)
            assert c1.K20 == pytest.approx(c2.K02.conjugate(), abs=1e-9)
            assert c1.K11 == pytest.approx(c2.K11.conjugate(), abs=1e-9)

    def test_diagonal_branch_stays_physical(self):
        alpha0 = 1.1 - 0.6j
        co = constant_coeffs(0.08, 0.08 * 1.3)
        ts = np.linspace(0, 40.0, 80)
        tr = cum.evolve_cumulants(
            cum.BranchCumulants.initial(alpha0.conjugate(), alpha0), co, 1.0, ts)
        for c in tr:
            assert abs(c.K10 - c.K01.conjugate()) < 1e-10
            assert abs(c.K11.imag) < 1e-10
            assert abs(c.variance_param.imag) < 1e-10

    def test_offdiagonal_center_purely_imaginary(self):
        alpha = 1.7
        co = constant_coeffs(0.1, 0.1 * 0.5)
        ts = np.linspace(0, 30.0, 60)
        tr = cum.evolve_cumulants(
            cum.BranchCumulants.initial(alpha, -alpha), co, 1.0, ts)
        for c in tr:
            assert abs(c.center.real) < 1e-10


class TestMakeCat:
    def test_normalization_constants(self):
        s = cum.make_cat(2.0, math.pi / 2)
        total = sum(b.weight for b in s.branches)
        assert sum(b.weight for b in s.branches if b.is_diagonal()).real \
            == pytest.approx(2 / 2.0, rel=1e-12)  # N^2 = 2 at phi = pi/2
        s0 = cum.make_cat(2.0, 0.0)
        n2 = 2 + 2 * math.exp(-8.0)
        diag = [b for b in s0.branches if b.is_diagonal()]
        assert diag[0].weight.real == pytest.approx(1 / n2, rel=1e-12)
        assert abs(total.imag) < 1e-15

    def test_branch_labels(self):
        a = 1.2 + 0.4j
        s = cum.make_cat(a, 0.7)
        labels = {(b.alpha, b.beta) for b in s.branches}
        assert labels == {(a.conjugate(), a), (-a.conjugate(), -a),
                          (a.conjugate(), -a), (-a.conjugate(), a)}

    def test_offdiagonal_weights_conjugate_paired(self):
        s = cum.make_cat(1.5, 1.234)
        off = [b for b in s.branches if not b.is_diagonal()]
        assert len(off) == 2
        assert off[0].weight == pytest.approx(off[1].weight.conjugate(), rel=1e-12)

    def test_large_amplitude_suppression(self):
        s = cum.make_cat(4.0, 0.3)
        off = [b for b in s.branches if not b.is_diagonal()]
        for b in off:
            assert abs(b.weight) == pytest.approx(math.exp(-32.0) / 2.0, rel=1e-10)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            cum.make_cat(0.0, 0.0)


def lab_frame_rhs(t, y, omega, coeffs):
    """The module docstring's cumulant system, written out in the lab frame."""
    K10, K01, K11, K20, K02 = y
    mu, nu = coeffs.mu(t), coeffs.nu(t)
    mu_c = np.conj(mu)
    return [(1j * omega - mu_c) * K10 + mu * K01,
            -(1j * omega + mu) * K01 + mu_c * K10,
            2 * nu.real - 2 * mu.real * K11 + 2 * mu * K02 + 2 * mu_c * K20,
            -np.conj(nu) + mu * K11 + 2 * (1j * omega - mu_c) * K20,
            -nu + mu_c * K11 - 2 * (1j * omega + mu) * K02]


class TestRotatingFrame:
    def test_matches_lab_frame_solve_ivp(self):
        from scipy.integrate import solve_ivp

        comb = bath.flat_comb(center=1.0, width=1.0, n_modes=21,
                              total_coupling_sq=0.02, occupation=0.5)
        omega = 1.0
        coeffs = bath.relaxation_coefficients(comb, omega)
        ts = np.linspace(0.0, 10.0, 41)
        initial = cum.BranchCumulants.initial(1.1 + 0.4j, 0.7 - 0.2j)
        y0 = [initial.K10, initial.K01, 0j, 0j, 0j]
        ref = solve_ivp(lab_frame_rhs, (0.0, ts[-1]), np.array(y0), t_eval=ts,
                        method="DOP853", rtol=1e-13, atol=1e-15,
                        args=(omega, coeffs))
        assert ref.success
        got = cum.evolve_cumulants(initial, coeffs, omega, ts)
        mine = np.array([[c.K10, c.K01, c.K11, c.K20, c.K02] for c in got]).T
        assert np.abs(mine - ref.y).max() <= 1e-9
        # the comb leaves a visible imprint: the second cumulants are not small
        assert np.abs(ref.y[2:]).max() > 1e-2

    def test_step_budget_reported_with_time(self, monkeypatch):
        from oscbath.errors import IntegrationError

        monkeypatch.setattr(cum, "MAX_RHS_EVALS", 30)
        co = constant_coeffs(0.1, 0.05)
        with pytest.raises(IntegrationError) as exc:
            cum.evolve_cumulants(cum.BranchCumulants.initial(1, 1), co, 1.0,
                                 np.linspace(0.0, 50.0, 11))
        assert exc.value.time is not None and 0.0 < exc.value.time < 50.0
        assert f"t={exc.value.time:g}" in str(exc.value)


class TestGridValidation:
    def test_grid_must_start_at_zero(self):
        co = constant_coeffs(0, 0)
        with pytest.raises(ValueError):
            cum.evolve_cumulants(cum.BranchCumulants.initial(1, 1), co, 1.0,
                                 np.array([1.0, 2.0]))

    def test_grid_must_increase(self):
        co = constant_coeffs(0, 0)
        with pytest.raises(ValueError):
            cum.evolve_cumulants(cum.BranchCumulants.initial(1, 1), co, 1.0,
                                 np.array([0.0, 2.0, 1.0]))

    def test_single_point_grid(self):
        co = constant_coeffs(0, 0)
        tr = cum.evolve_cumulants(cum.BranchCumulants.initial(1, 1), co, 1.0,
                                  np.array([0.0]))
        assert len(tr) == 1 and tr[0].K10 == 1.0


def test_branches_evolve_independently_in_parallel():
    # branch evolutions are pure; threaded and serial runs agree exactly
    from concurrent.futures import ThreadPoolExecutor

    state = cum.make_cat(2.0, 0.7)
    co = constant_coeffs(0.05, 0.05 * 0.4)
    ts = np.linspace(0, 6.0, 13)

    def run(branch):
        return cum.evolve_cumulants(cum.BranchCumulants.initial(branch.alpha,
                                                                branch.beta),
                                    co, 1.0, ts)

    serial = [run(b) for b in state.branches]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(run, state.branches))
    for s_tr, p_tr in zip(serial, parallel):
        for a, b in zip(s_tr, p_tr):
            assert a == b


SHARED_SOLVE_BATHS = {
    "markov": (bath.LinearMarkov(gamma=0.1, nbar=0.6), np.linspace(0, 20.0, 21)),
    "early-time": (bath.EarlyTime(Gamma0=0.3), np.linspace(0, 12.0, 25)),
    "comb": (bath.flat_comb(center=1.0, width=1.0, n_modes=21,
                            total_coupling_sq=0.0064, occupation=0.5),
             np.linspace(0, 6.0, 13)),
}


def per_branch(state, coeffs, ts):
    """The oracle: one independent integration per branch."""
    return [cum.evolve_cumulants(cum.BranchCumulants.initial(b.alpha, b.beta),
                                 coeffs, state.system_omega, ts)
            for b in state.branches]


class TestSharedSolve:
    @pytest.mark.parametrize("kind", sorted(SHARED_SOLVE_BATHS))
    @given(alpha=cplx, beta=cplx)
    @settings(max_examples=6, deadline=None)
    def test_matches_per_branch_oracle(self, kind, alpha, beta):
        model, ts = SHARED_SOLVE_BATHS[kind]
        coeffs = bath.relaxation_coefficients(model, 1.0)
        state = cum.SuperpositionState(branches=(
            cum.Branch(alpha=alpha, beta=beta, weight=1.0),
            cum.Branch(alpha=beta, beta=alpha, weight=1.0)))
        shared = cum.evolve_superposition(state, coeffs, ts)
        oracle = per_branch(state, coeffs, ts)
        # the floor only matters for subnormal amplitudes
        first_tol = 1e-10 * (abs(alpha) + abs(beta)) + 1e-300
        for b, s_tr, o_tr in zip(state.branches, shared, oracle):
            for s, o in zip(s_tr, o_tr):
                assert (s.alpha, s.beta) == (b.alpha, b.beta)
                assert abs(s.K10 - o.K10) <= first_tol
                assert abs(s.K01 - o.K01) <= first_tol
                second_tol = 1e-10 * max(1.0, abs(o.variance_param))
                for k in ("K11", "K20", "K02"):
                    assert abs(getattr(s, k) - getattr(o, k)) <= second_tol

    def test_one_integration_for_all_branches(self, monkeypatch):
        calls = []
        real = cum.evolve_cumulants

        def counting(initial, *args, **kwargs):
            calls.append((initial.K10, initial.K01))
            return real(initial, *args, **kwargs)

        monkeypatch.setattr(cum, "evolve_cumulants", counting)
        out = cum.evolve_superposition(cum.make_cat(2.0, 0.3),
                                       constant_coeffs(0.05, 0.02),
                                       np.linspace(0, 3.0, 7))
        assert calls == [(1.0, 0.0)]
        assert len(out) == 4 and all(len(tr) == 7 for tr in out)

    def test_initial_values_are_the_branch_labels(self):
        state = cum.make_cat(1.2 + 0.4j, 0.7)
        out = cum.evolve_superposition(state, constant_coeffs(0.05, 0.02),
                                       np.linspace(0, 1.0, 3))
        for b, tr in zip(state.branches, out):
            assert tr[0] == cum.BranchCumulants.initial(b.alpha, b.beta)

    def test_one_mode_sum_per_distinct_time(self, monkeypatch):
        calls = []
        real = bath.gamma_functions

        def counting(modes, omega, t):
            calls.append(t)
            return real(modes, omega, t)

        monkeypatch.setattr(bath, "gamma_functions", counting)
        model, ts = SHARED_SOLVE_BATHS["comb"]
        coeffs = bath.relaxation_coefficients(model, 1.0)
        seen = []
        mu, nu = coeffs.mu, coeffs.nu
        coeffs = RelaxationCoefficients(mu=lambda t: seen.append(t) or mu(t),
                                        nu=lambda t: seen.append(t) or nu(t))
        cum.evolve_superposition(cum.make_cat(2.0, 0.0), coeffs, ts)
        # RK45 asks for the same t in consecutive stages (c = 1 twice), and
        # mu and nu of one stage share a time: each run of equal t is one call
        distinct = [t for i, t in enumerate(seen) if i == 0 or t != seen[i - 1]]
        assert calls == distinct and len(calls) > 0
