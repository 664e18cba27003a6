import math

import numpy as np
import pytest
from scipy.integrate import quad

from oscbath import bath, cumulant as cum, fock, wavepacket as wp
from oscbath.bath import RelaxationCoefficients


def constant_coeffs(mu, nu):
    return RelaxationCoefficients(mu=lambda t: complex(mu), nu=lambda t: complex(nu))


def evolve_cat(alpha, phi, gamma, omega, nbar, times):
    state = cum.make_cat(alpha, phi, system_omega=omega)
    co = constant_coeffs(gamma, gamma * nbar)
    return state, cum.evolve_superposition(state, co, times)


def branch_frame(state, at_t, grid, t, diagonal):
    """density_frame of the diagonal (mixture) or off-diagonal branches only."""
    kept = [(b, c) for b, c in zip(state.branches, at_t) if b.is_diagonal() == diagonal]
    part = cum.SuperpositionState(tuple(b for b, _ in kept), state.system_omega)
    return wp.density_frame(part, [c for _, c in kept], grid, t)


class TestBranchDensity:
    def test_ground_state_peak(self):
        assert wp.branch_density(0.0, 0.0, 0.5, 1.0).real \
            == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_displaced_packet_peaks_at_center(self):
        q = np.linspace(-8, 8, 1601)
        d = wp.branch_density(q, 4.0, 0.5, 1.0).real
        assert q[np.argmax(d)] == pytest.approx(4.0, abs=0.02)

    def test_imaginary_center_against_fourier_oracle(self):
        # oracle: P(Q) = (1/2pi) int dl e^{-ilQ} e^{il c - l^2 V}
        c = 2.4j
        V = 0.62
        for Q in (0.0, 0.5, 1.3):
            def integrand_re(lam):
                return (np.exp(-1j * lam * Q + 1j * lam * c - lam * lam * V)).real

            def integrand_im(lam):
                return (np.exp(-1j * lam * Q + 1j * lam * c - lam * lam * V)).imag

            re, _ = quad(integrand_re, -60, 60, epsabs=1e-13, limit=400)
            im, _ = quad(integrand_im, -60, 60, epsabs=1e-13, limit=400)
            oracle = (re + 1j * im) / (2 * math.pi)
            val = wp.branch_density(Q, c, V, 1.0)
            assert abs(val - oracle) < 1e-10
        # magnitude is maximal at Q = 0 with an oscillatory phase
        q = np.linspace(-3, 3, 301)
        mags = np.abs(wp.branch_density(q, c, V, 1.0))
        assert q[np.argmax(mags)] == pytest.approx(0.0, abs=0.02)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            wp.branch_density(0.0, 0.0, 1e-13, 1.0)

    def test_log_space_handles_large_imaginary_center(self):
        # weight e^{-2|a|^2} cancels the exp((Im c)^2/4V) growth; no overflow
        a = 6.0
        val = wp.branch_density(0.0, 2j * a, 0.5, math.exp(-2 * a * a))
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        assert abs(val) == pytest.approx(math.exp(-2 * a * a + a * a * 2)
                                         / math.sqrt(2 * math.pi), rel=1e-9)


class TestDensityFrame:
    def test_single_coherent_branch(self):
        state = cum.coherent_state(2.0)
        grid = np.linspace(-12, 12, 2048)
        evolved = [cum.BranchCumulants.initial(2.0, 2.0)]
        frame = wp.density_frame(state, evolved, grid, 0.0)
        assert frame.norm() == pytest.approx(1.0, abs=1e-9)
        assert grid[np.argmax(frame.density)] == pytest.approx(4.0, abs=0.02)

    def test_cat_initial_frame(self):
        times = np.array([0.0])
        state, evolved = evolve_cat(2.0, math.pi / 2, 0.01, 1.0, 0.0, times)
        grid = np.linspace(-12, 12, 2048)
        frame = wp.density_frame(state, [e[0] for e in evolved], grid, 0.0)
        assert frame.norm() == pytest.approx(1.0, abs=1e-6)
        d = frame.density
        i_plus = np.argmin(np.abs(grid - 4.0))
        i_zero = np.argmin(np.abs(grid))
        assert d[np.argmax(d)] == pytest.approx(d[i_plus], rel=0.01)
        assert d[i_zero] < 2e-3 * d[i_plus]  # suppressed by ~e^{-8}

    def test_mixture_nonnegative_total_bounded_below(self):
        gamma, omega, nbar = 0.02, 1.0, 0.0
        times = np.linspace(0, 3.2, 9)
        state, evolved = evolve_cat(2.0, 0.0, gamma, omega, nbar, times)
        grid = np.linspace(-14, 14, 2048)
        for i in range(len(times)):
            at_t = [e[i] for e in evolved]
            mix = branch_frame(state, at_t, grid, times[i], diagonal=True)
            tot = wp.density_frame(state, at_t, grid, times[i])
            assert mix.density.min() >= 0.0
            assert tot.density.min() >= -1e-9
            assert tot.norm() == pytest.approx(1.0, abs=1e-6)

    def test_collision_frame_against_fock_oracle(self):
        # independent path: truncated-basis integration of the same generator
        alpha, gamma, omega = 1.5, 0.05, 1.0
        t_col = math.pi / 2 / math.sqrt(1 - gamma**2)
        times = np.array([0.0, t_col])
        state, evolved = evolve_cat(alpha, 0.0, gamma, omega, 0.0, times)
        grid = np.linspace(-10, 10, 1024)
        frame = wp.density_frame(state, [e[1] for e in evolved], grid, t_col)
        sigma0 = fock.cat_density_matrix(alpha, 0.0, 30)
        traj = fock.integrate(fock.LinearNonRWA(gamma=gamma, nbar=0.0),
                              sigma0, omega, times)
        frame_fock = fock.position_density(
            fock.FockDensityMatrix(dim=30, sigma=traj.states[1]), grid)
        assert np.abs(frame.density - frame_fock.density).max() < 1e-5

    def test_wrong_branch_count_rejected(self):
        state = cum.coherent_state(1.0)
        with pytest.raises(ValueError):
            wp.density_frame(state, [], np.linspace(-5, 5, 32), 0.0)


class TestInterferenceTerm:
    def test_matches_branch_sum(self):
        gamma, omega, nbar = 0.05, 1.0, 0.3
        grid = np.linspace(-8, 8, 257)
        for phi in (0.0, math.pi / 2, 1.234):
            times = np.array([0.0, 1.3, math.pi / 2 / math.sqrt(1 - gamma**2), 4.0])
            state, evolved = evolve_cat(2.0, phi, gamma, omega, nbar, times)
            for i, t in enumerate(times):
                closed = wp.interference_term(2.0, phi, gamma, omega, nbar, grid, t)
                branch = branch_frame(state, [e[i] for e in evolved], grid, t,
                                      diagonal=False)
                assert np.abs(closed - branch.density).max() < 1e-10

    def test_initial_value(self):
        alpha = 2.0
        n2 = 2 + 2 * math.exp(-2 * alpha**2)
        expected = math.exp(-2 * alpha**2) / (n2 * math.sqrt(math.pi * 0.5))
        assert wp.interference_term(alpha, 0.0, 0.1, 1.0, 0.0, 0.0, 0.0) \
            == pytest.approx(expected, rel=1e-12)

    def test_strong_damping_series_shape(self):
        # gamma = 0.25, n = 0.4, alpha = 2, phi = 0: P_int(0, t) over four
        # periods peaks near the packet collisions and its envelope decays
        gamma, omega, nbar, alpha = 0.25, 1.0, 0.4, 2.0
        wt = math.sqrt(omega**2 - gamma**2)
        ts = np.linspace(0, 4 * 2 * math.pi, 2000)
        p = np.array([wp.interference_term(alpha, 0.0, gamma, omega, nbar, 0.0, t)
                      for t in ts])
        idx = [i for i in range(1, len(ts) - 1)
               if p[i] >= p[i - 1] and p[i] >= p[i + 1] and p[i] > 1e-12]
        assert len(idx) >= 4
        # strong damping pulls the maxima slightly ahead of the collisions
        for k, i in enumerate(idx[:4]):
            assert ts[i] == pytest.approx((math.pi / 2 + k * math.pi) / wt, abs=0.5)
        peaks = p[idx]
        assert np.all(np.diff(peaks) < 0)


class TestSignificance:
    def test_zero_at_start(self):
        assert wp.significance_ratio(2.0, 0.01, 1.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_first_collision_expansion(self):
        # ~ 1 - 2 gamma t at the collision for n = 0
        gamma = 0.01
        t = math.pi / 2
        r = wp.significance_ratio(2.0, gamma, 1.0, 0.0, t)
        assert r == pytest.approx(1 - 2 * gamma * t, abs=1e-3)

    def test_thermal_reduction_factor(self):
        gamma, omega = 0.01, 1.0
        t = math.pi / 2
        r0 = wp.significance_ratio(2.0, gamma, omega, 0.0, t)
        rn = wp.significance_ratio(2.0, gamma, omega, 2.5, t)
        _, v_n, _ = cum.analytic_markov(2.0, gamma, omega, 2.5, t)
        assert rn / r0 == pytest.approx(0.5 / v_n, rel=1e-10)


class TestDecoherenceRate:
    def test_reference_values(self):
        assert wp.decoherence_rate(2.0, 0.01) == pytest.approx(0.08)
        assert wp.decoherence_rate(0.0, 0.5) == 0.0

    def test_peak_ratio_law(self):
        # consecutive collision peaks obey exp(2a^2 (e^{-2g t2} - e^{-2g t1}))
        alpha, gamma = 1.5, 0.02
        fit = wp.fit_interference_decay(alpha, 0.0, gamma, 1.0, 0.0, n_collisions=5)
        t, p = fit.collision_times, fit.peak_values
        for i in range(len(t) - 1):
            law = math.exp(2 * alpha**2 * (math.exp(-2 * gamma * t[i + 1])
                                           - math.exp(-2 * gamma * t[i])))
            assert p[i + 1] / p[i] == pytest.approx(law, rel=1e-6)

    def test_fitted_rate_is_twice_the_reference_law_early(self):
        # the envelope's local rate is 4|a|^2 g e^{-2gt}; early-window fits
        # land well above the 2|a|^2 g reference value
        for alpha in (1.0, 1.5, 2.0):
            fit = wp.fit_interference_decay(alpha, 0.0, 0.02, 1.0, 0.0,
                                            n_collisions=4)
            assert 1.4 <= fit.ratio_to_law <= 2.05

    def test_rate_scales_linearly_with_alpha_squared(self):
        alphas = (1.0, 1.5, 2.0)
        rates = [wp.fit_interference_decay(a, 0.0, 0.02, 1.0, 0.0).rate
                 for a in alphas]
        a2 = np.array([a * a for a in alphas])
        coef = np.polyfit(a2, rates, 1)
        pred = np.polyval(coef, a2)
        ss_res = np.sum((rates - pred) ** 2)
        ss_tot = np.sum((rates - np.mean(rates)) ** 2)
        assert 1 - ss_res / ss_tot >= 0.99

    def test_collision_times_near_half_periods(self):
        gamma, omega = 0.02, 1.0
        wt = math.sqrt(omega**2 - gamma**2)
        times = wp.find_collision_times(gamma, omega, 0.0, 4)
        for k, t in enumerate(times):
            assert t == pytest.approx((math.pi / 2 + k * math.pi) / wt, abs=0.1)


class TestVarianceOscillation:
    def test_fft_peak_at_twice_effective_frequency(self):
        # V(t) oscillates at 2 w~; exponential detrend then FFT
        from scipy.optimize import curve_fit

        omega, gamma, nbar = 1.0, 0.1, 2.0
        wt = math.sqrt(omega**2 - gamma**2)
        npts = 400
        ts = np.linspace(0, 40.0, npts)
        _, v, _ = cum.analytic_markov(1.0, gamma, omega, nbar, ts)

        def trend(t, a, b, c):
            return a + b * np.exp(-c * t)

        popt, _ = curve_fit(trend, ts, v, p0=(2.5, -2.0, 0.2), maxfev=20000)
        resid = (v - trend(ts, *popt)) * np.hanning(npts)
        freqs = np.fft.rfftfreq(npts, d=ts[1] - ts[0]) * 2 * math.pi
        peak = freqs[np.argmax(np.abs(np.fft.rfft(resid)))]
        assert abs(peak - 2 * wt) <= freqs[1]


class TestFrameCsv:
    def test_stack_matches_row_by_row_formatter(self, tmp_path):
        # two frames share one grid object, a third has its own grid
        shared = np.linspace(-2, 2, 9)
        other = np.linspace(-1, 1, 5) / 3.0
        frames = [
            wp.WavepacketFrame(time=0.1, grid=shared, density=np.exp(-shared**2) / 7),
            wp.WavepacketFrame(time=2 / 3, grid=shared, density=np.cos(shared) * 1e-300),
            wp.WavepacketFrame(time=1.0, grid=other, density=np.full(5, -0.0)),
        ]
        reference = "t,Q,P\n" + "".join(
            f"{float(f.time)!r},{float(q)!r},{float(p)!r}\n"
            for f in frames for q, p in zip(f.grid, f.density))
        path = tmp_path / "stack.csv"
        wp.frames_to_csv(frames, path)
        assert path.read_bytes() == reference.encode()

    def test_stack_roundtrip_exact(self, tmp_path):
        grid = np.linspace(-2, 2, 9)
        frames = [wp.WavepacketFrame(time=t, grid=grid, density=np.cos(grid) + t)
                  for t in (0.0, 0.25)]
        path = tmp_path / "stack.csv"
        wp.frames_to_csv(frames, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,Q,P"
        assert len(rows) == 1 + 2 * len(grid)
        t0, q0, p0 = rows[1].split(",")
        assert float(t0) == 0.0 and float(q0) == grid[0] and float(p0) == frames[0].density[0]
