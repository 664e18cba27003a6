import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from oscbath import bath


SQRT3 = math.sqrt(3.0)


def reference_gamma_functions(modes, omega, t):
    """The four mode sums with (e^{-i d t} - 1)/(-i d) per mode, and its
    series t (1 - ix/2 - x^2/6 + ix^3/24), x = d t, where |x| < 1e-6."""
    om, k2, occ = modes.arrays()
    t = np.asarray(t, dtype=float)[..., np.newaxis]

    def phase_integral(d):
        x = d * t
        small = np.abs(x) < 1e-6
        with np.errstate(invalid="ignore", divide="ignore"):
            exact = (np.exp(-1j * x) - 1.0) / (-1j * np.where(small, 1.0, d))
        series = t * (1.0 - 0.5j * x - x**2 / 6.0 + 1j * x**3 / 24.0)
        return np.where(small, series, exact)

    res, anti = phase_integral(om - omega), phase_integral(om + omega)
    w_n, w_n1 = k2 * occ, k2 * (occ + 1)
    return np.array([np.sum(w * p, axis=-1)
                     for w, p in ((w_n, res), (w_n1, res), (w_n, anti), (w_n1, anti))])


class TestBoseOccupation:
    def test_half_quantum_at_double_frequency(self):
        # kT = 2/ln 3 puts exactly half a quantum at omega = 2
        assert bath.bose_occupation(2.0, 2.0 / math.log(3.0)) == pytest.approx(0.5, abs=1e-15)

    def test_caption_value(self):
        n = bath.bose_occupation(1.0, 2.0 / math.log(3.0))
        assert n == pytest.approx(1.0 / (SQRT3 - 1.0), rel=1e-14)
        assert round(n, 2) == 1.37  # quoted as 1.36-1.37 depending on rounding

    def test_zero_temperature(self):
        assert bath.bose_occupation(1.0, 0.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bath.bose_occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            bath.bose_occupation(-1.0, 1.0)
        with pytest.raises(ValueError):
            bath.bose_occupation(1.0, -0.5)

    # bose_occupation is exactly 0 once omega/kT > 700, so the strict
    # monotonicity holds only while the larger occupation is positive

    @given(kt1=st.floats(0.01, 50), kt2=st.floats(0.01, 50),
           w=st.floats(0.1, 10))
    @example(kt1=0.01, kt2=0.0105, w=8.0)
    @settings(max_examples=50, deadline=None)
    def test_increasing_in_temperature(self, kt1, kt2, w):
        lo, hi = sorted((kt1, kt2))
        if hi - lo < 1e-9:
            return
        n_lo, n_hi = bath.bose_occupation(w, lo), bath.bose_occupation(w, hi)
        if n_hi > 0:
            assert n_lo < n_hi
        else:
            assert n_lo == n_hi == 0.0

    @given(w1=st.floats(0.1, 10), w2=st.floats(0.1, 10),
           kt=st.floats(0.01, 50))
    @example(w1=8.0, w2=7.5, kt=0.01)
    @settings(max_examples=50, deadline=None)
    def test_decreasing_in_frequency(self, w1, w2, kt):
        lo, hi = sorted((w1, w2))
        if hi - lo < 1e-9:
            return
        n_lo, n_hi = bath.bose_occupation(lo, kt), bath.bose_occupation(hi, kt)
        if n_lo > 0:
            assert n_hi < n_lo
        else:
            assert n_lo == n_hi == 0.0


class TestGammaFunctions:
    def test_zero_at_t0(self):
        modes = bath.DiscreteModes((bath.Mode(1.3, 0.2, 0.7),
                                    bath.Mode(0.8, 0.1, 0.0)))
        g = bath.gamma_functions(modes, 1.0, 0.0)
        assert g.gamma_n == 0 and g.gamma_n1 == 0
        assert g.gtilde_n == 0 and g.gtilde_n1 == 0

    def test_resonant_mode_linear_growth(self):
        # a mode exactly at the system frequency integrates to K^2 (n+1) t
        K, nocc, t = 0.3, 1.5, 7.0
        modes = bath.DiscreteModes((bath.Mode(1.0, K, nocc),))
        g = bath.gamma_functions(modes, 1.0, t)
        assert g.gamma_n1 == pytest.approx(K**2 * (nocc + 1) * t, rel=1e-12)
        assert g.gamma_n == pytest.approx(K**2 * nocc * t, rel=1e-12)

    def test_against_quadrature_oracle(self):
        # independent oracle: integrate the correlation functions directly
        modes = bath.DiscreteModes((bath.Mode(1.7, 0.21, 0.4),
                                    bath.Mode(0.6, 0.13, 1.2),
                                    bath.Mode(2.9, 0.08, 0.0)))
        omega, t = 1.0, 5.0
        om, k2, occ = modes.arrays()

        def corr(tau, weights, extra_phase):
            z = np.sum(weights * np.exp(-1j * ((om - omega) * tau))) \
                * np.exp(-1j * extra_phase * tau)
            return z

        def integral(weights, extra_phase):
            re, _ = quad(lambda s: corr(s, weights, extra_phase).real, 0, t,
                         epsabs=1e-13, epsrel=1e-13, limit=400)
            im, _ = quad(lambda s: corr(s, weights, extra_phase).imag, 0, t,
                         epsabs=1e-13, epsrel=1e-13, limit=400)
            return re + 1j * im

        g = bath.gamma_functions(modes, omega, t)
        assert abs(g.gamma_n - integral(k2 * occ, 0.0)) < 1e-10
        assert abs(g.gamma_n1 - integral(k2 * (occ + 1), 0.0)) < 1e-10
        assert abs(g.gtilde_n - integral(k2 * occ, 2 * omega)) < 1e-10
        assert abs(g.gtilde_n1 - integral(k2 * (occ + 1), 2 * omega)) < 1e-10

    @given(st.lists(st.tuples(st.floats(0.2, 5.0), st.floats(0.01, 0.5)),
                    min_size=1, max_size=5),
           st.floats(0.1, 8.0))
    @settings(max_examples=30, deadline=None)
    def test_tilde_is_sign_flipped_resonant(self, mode_params, t):
        # at n_xi = 0: gtilde_{n+1}(omega) == gamma_{n+1}(-omega) structurally
        modes = bath.DiscreteModes(tuple(bath.Mode(w, k, 0.0)
                                         for w, k in mode_params))
        omega = 1.0
        g_plus = bath.gamma_functions(modes, -omega, t)
        g = bath.gamma_functions(modes, omega, t)
        assert g.gtilde_n1 == pytest.approx(g_plus.gamma_n1, rel=1e-12, abs=1e-14)

    def test_markov_plateau(self):
        # 201-mode comb spanning +-2 around resonance: Re gamma_{n+1}
        # plateaus at pi K^2 g (n+1) once t >> tau_c
        omega, nocc = 5.0, 0.8
        comb = bath.flat_comb(center=omega, width=4.0, n_modes=201,
                              total_coupling_sq=0.02, occupation=nocc)
        om, k2, _ = comb.arrays()
        spacing = om[1] - om[0]
        plateau = math.pi * k2[0] * (1.0 / spacing) * (nocc + 1)
        g = bath.gamma_functions(comb, omega, 10.0)
        assert g.gamma_n1.real == pytest.approx(plateau, rel=0.05)

    def test_continuity_bound(self):
        modes = bath.DiscreteModes((bath.Mode(1.5, 0.3, 0.6),
                                    bath.Mode(0.9, 0.2, 1.1)))
        _, k2, occ = modes.arrays()
        C = float(np.sum(k2 * (occ + 1)))
        rng = np.random.default_rng(7)
        for t in rng.uniform(0, 10, 20):
            delta = 1e-6
            g1 = bath.gamma_functions(modes, 1.0, t)
            g2 = bath.gamma_functions(modes, 1.0, t + delta)
            for a, b in zip(g1, g2):
                assert abs(b - a) <= C * delta * (1 + 1e-9)

    def test_rejects_negative_time(self):
        modes = bath.DiscreteModes((bath.Mode(1.0, 0.1, 0.0),))
        with pytest.raises(ValueError):
            bath.gamma_functions(modes, 1.0, -0.1)

    def test_sinc_form_matches_reference_sum(self):
        # t e^{-iy} sin(y)/y against the quotient-plus-series form, with a
        # mode exactly at resonance, on one bath called at two frequencies
        # in turn (w = -1 puts the resonant mode in the tilde sums)
        comb = bath.flat_comb(center=1.0, width=1.0, n_modes=41,
                              total_coupling_sq=0.0064, occupation=0.5)
        modes = bath.DiscreteModes(comb.modes + (bath.Mode(1.0, 0.05, 0.2),))
        ts = np.concatenate([[0.0, 1e-12, 1e-7], np.linspace(0.0, 60.0, 601)])
        for omega in (1.0, -1.0, 1.0):
            ref = reference_gamma_functions(modes, omega, ts)
            got = np.array(bath.gamma_functions(modes, omega, ts))
            scalar = np.array([bath.gamma_functions(modes, omega, t) for t in ts]).T
            for g in (got, scalar):
                assert np.all(np.abs(g - ref) <= 1e-12 * np.abs(ref))
        grid = np.array([[0.5, 3.0], [1e-7, 60.0]])
        assert np.array(bath.gamma_functions(modes, 1.0, grid)).shape == (4, 2, 2)


class TestRelaxationCoefficients:
    def test_linear_markov_constants(self):
        co = bath.relaxation_coefficients(bath.LinearMarkov(gamma=0.1, nbar=2.5277), 1.0)
        for t in (0.0, 1.0, 33.3):
            assert co.mu(t) == pytest.approx(0.1)
            assert co.nu(t) == pytest.approx(0.25277)

    def test_early_time_pair(self):
        co = bath.relaxation_coefficients(bath.EarlyTime(Gamma0=0.3), 1.0)
        assert co.mu(2.0) == 0
        assert co.nu(2.0) == pytest.approx(0.6)

    def test_discrete_modes_small_time_limit(self):
        # broadband comb: nu(t)/t -> sum K^2 (2n+1) within 1% for t <= 0.01 tau_c
        comb = bath.flat_comb(center=3.0, width=5.0, n_modes=101,
                              total_coupling_sq=0.01, occupation=0.7)
        gamma0 = comb.early_time_constant()
        tau_c = comb.correlation_time()
        co = bath.relaxation_coefficients(comb, 1.0)
        for t in (0.2 * 0.01 * tau_c, 0.01 * tau_c):
            assert co.nu(t).real / t == pytest.approx(gamma0, rel=0.01)
        # and mu stays comparatively tiny there
        t = 0.01 * tau_c
        assert abs(co.mu(t)) < 0.02 * gamma0 * t

    def test_discrete_mu_nu_match_gamma_functions(self):
        modes = bath.DiscreteModes((bath.Mode(1.2, 0.2, 0.5),
                                    bath.Mode(0.7, 0.15, 0.2)))
        co = bath.relaxation_coefficients(modes, 1.0)
        g = bath.gamma_functions(modes, 1.0, 3.0)
        nu = np.conj(g.gamma_n) + g.gtilde_n1
        mu = g.gamma_n1 + np.conj(g.gtilde_n) - np.conj(nu)
        assert co.nu(3.0) == pytest.approx(nu)
        assert co.mu(3.0) == pytest.approx(mu)

    def test_quadratic_rejected(self):
        with pytest.raises(ValueError, match="[Ff]ock"):
            bath.relaxation_coefficients(bath.QuadraticMarkov(Gamma=0.5), 1.0)

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError, match="underdamped"):
            bath.relaxation_coefficients(bath.LinearMarkov(gamma=1.5), 1.0)


class TestValidation:
    def test_negative_parameters(self):
        with pytest.raises(ValueError):
            bath.LinearMarkov(gamma=-0.1)
        with pytest.raises(ValueError):
            bath.LinearMarkov(gamma=0.1, nbar=-1.0)
        with pytest.raises(ValueError):
            bath.QuadraticMarkov(Gamma=-0.2)
        with pytest.raises(ValueError):
            bath.EarlyTime(Gamma0=-0.3)
        with pytest.raises(ValueError):
            bath.Mode(omega=-1.0, coupling=0.1)
        with pytest.raises(ValueError):
            bath.Mode(omega=1.0, coupling=-0.1)
        with pytest.raises(ValueError):
            bath.Mode(omega=1.0, coupling=0.1, occupation=-0.1)
        with pytest.raises(ValueError):
            bath.DiscreteModes(())

    def test_comb_helpers(self):
        comb = bath.flat_comb(center=2.0, width=1.0, n_modes=11,
                              total_coupling_sq=0.011, occupation=0.5)
        assert len(comb.modes) == 11
        assert comb.early_time_constant() == pytest.approx(0.011 * 2.0)
        assert comb.correlation_time() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            bath.flat_comb(center=0.4, width=1.0, n_modes=11,
                           total_coupling_sq=0.01)


class TestSharedModeSums:
    def test_arrays_built_once_and_read_only(self):
        comb = bath.flat_comb(center=1.0, width=1.0, n_modes=21,
                              total_coupling_sq=0.0064, occupation=0.5)
        first, again = comb.arrays(), comb.arrays()
        assert all(a is b for a, b in zip(first, again))
        for arr in first:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        om, k2, occ = first
        np.testing.assert_array_equal(om, [m.omega for m in comb.modes])
        np.testing.assert_array_equal(k2, [m.coupling ** 2 for m in comb.modes])
        np.testing.assert_array_equal(occ, [m.occupation for m in comb.modes])

    def test_kernel_constants_cached_per_frequency_and_read_only(self):
        comb = bath.flat_comb(center=1.0, width=1.0, n_modes=21,
                              total_coupling_sq=0.0064, occupation=0.5)
        half, weights = comb.kernel_constants(1.0)
        assert comb.kernel_constants(1.0)[1] is weights
        assert comb.kernel_constants(-1.0)[0] is not half
        assert half.shape == (42,) and weights.shape == (4, 42)
        for arr in (half, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        om, k2, occ = comb.arrays()
        np.testing.assert_array_equal(half, np.concatenate([om - 1.0, om + 1.0]) / 2)
        w_n, w_n1, zero = k2 * occ, k2 * (occ + 1), np.zeros(21)
        np.testing.assert_array_equal(weights, [np.concatenate(row) for row in (
            (w_n, zero), (w_n1, zero), (zero, w_n), (zero, w_n1))])
        assert comb == bath.flat_comb(center=1.0, width=1.0, n_modes=21,
                                      total_coupling_sq=0.0064, occupation=0.5)

    def test_cached_arrays_leave_equality_alone(self):
        modes = (bath.Mode(1.2, 0.2, 0.5), bath.Mode(0.7, 0.15, 0.2))
        assert bath.DiscreteModes(modes) == bath.DiscreteModes(modes)
        assert "_arrays" not in repr(bath.DiscreteModes(modes))

    def test_mu_and_nu_share_one_call_per_time(self, monkeypatch):
        calls = []
        real = bath.gamma_functions
        monkeypatch.setattr(bath, "gamma_functions",
                            lambda *args: calls.append(args[2]) or real(*args))
        modes = bath.DiscreteModes((bath.Mode(1.2, 0.2, 0.5),
                                    bath.Mode(0.7, 0.15, 0.2)))
        co = bath.relaxation_coefficients(modes, 1.0)
        for t in (0.5, 0.5, 1.5, 1.5, 0.5):
            co.mu(t)
            co.nu(t)
        assert calls == [0.5, 1.5, 0.5]

    def test_memo_pairs_mu_and_nu_of_one_time_across_threads(self):
        # threads share one memo; a torn (t, mu, nu) entry would hand a
        # thread the value of another thread's t
        import sys
        from concurrent.futures import ThreadPoolExecutor

        comb = bath.flat_comb(center=1.0, width=1.0, n_modes=21,
                              total_coupling_sq=0.0064, occupation=0.5)
        co = bath.relaxation_coefficients(comb, 1.0)
        ts = np.linspace(0.0, 5.0, 400)
        expected = [(bath.relaxation_coefficients(comb, 1.0).mu(t),
                     bath.relaxation_coefficients(comb, 1.0).nu(t)) for t in ts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda t: (co.mu(t), co.nu(t)), t) for t in ts]
                got = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    def test_array_times_bypass_the_memo(self):
        modes = bath.DiscreteModes((bath.Mode(1.2, 0.2, 0.5),))
        co = bath.relaxation_coefficients(modes, 1.0)
        ts = np.array([0.5, 1.5])
        assert np.allclose(co.nu(ts), [co.nu(0.5), co.nu(1.5)], rtol=0, atol=1e-15)


class TestNonFinite:
    @pytest.mark.parametrize("make", [
        lambda x: bath.LinearMarkov(gamma=x),
        lambda x: bath.LinearMarkov(gamma=0.1, nbar=x),
        lambda x: bath.QuadraticMarkov(Gamma=x),
        lambda x: bath.QuadraticMarkov(Gamma=0.1, nbar2=x),
        lambda x: bath.EarlyTime(Gamma0=x),
        lambda x: bath.Mode(omega=x, coupling=0.1),
        lambda x: bath.Mode(omega=1.0, coupling=x),
        lambda x: bath.Mode(omega=1.0, coupling=0.1, occupation=x),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejected(self, make, value):
        with pytest.raises(ValueError, match="finite"):
            make(value)
