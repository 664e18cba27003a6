import math

import numpy as np
import pytest
from scipy.optimize import curve_fit

from oscbath import bath, cumulant as cum, fock
from oscbath.errors import TruncationError


def random_hermitian_state(dim, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    sigma = m @ m.conj().T
    sigma /= np.trace(sigma).real
    return fock.FockDensityMatrix(dim=dim, sigma=sigma)


ALL_KINDS = [
    fock.LinearNonRWA(gamma=0.1, nbar=0.7),
    fock.LinearRWA(gamma=0.1, nbar=0.7),
    fock.QuadraticLindblad(Gamma=0.3, nbar2=0.4),
    fock.QuadraticLiteral(Gamma=0.3, nbar2=0.4),
    fock.TimeDependent(bath=bath.DiscreteModes((bath.Mode(1.2, 0.2, 0.5),
                                                bath.Mode(0.8, 0.1, 0.0)))),
]


class TestLadder:
    def test_matrix_elements(self):
        a, ad, Q = fock.build_ladder(3)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(math.sqrt(2))
        assert np.allclose(ad, a.T)

    def test_q_real_symmetric(self):
        _, _, Q = fock.build_ladder(8)
        assert np.allclose(Q, Q.T)
        assert np.isrealobj(Q)

    def test_canonical_commutator_below_truncation(self):
        dim = 9
        a, ad, _ = fock.build_ladder(dim)
        comm = a @ ad - ad @ a
        assert np.allclose(comm[:dim - 1, :dim - 1], np.eye(dim - 1))
        assert comm[dim - 1, dim - 1] == pytest.approx(1 - dim)  # truncation artifact

    def test_minimum_dim(self):
        with pytest.raises(ValueError):
            fock.build_ladder(1)


class TestStates:
    def test_vacuum(self):
        s = fock.coherent_density_matrix(0.0, 5)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        assert np.allclose(s.sigma, expected)

    def test_coherent_mean_and_trace(self):
        s = fock.coherent_density_matrix(2.0, 30)
        assert s.trace_defect() < 1e-10
        assert fock.observables(s)["meanQ"] == pytest.approx(4.0, abs=1e-9)

    def test_truncation_tail_error(self):
        with pytest.raises(TruncationError):
            fock.coherent_density_matrix(2.0, 8)
        with pytest.raises(TruncationError):
            fock.cat_density_matrix(2.0, math.pi / 2, 8)

    def test_one_truncation_tolerance(self):
        # |alpha|^2 = 1.21 on 12 levels loses 6.8e-9, between the builders'
        # former 1e-8 and the 1e-9 trace check of the solvers: the builder
        # must refuse it as truncation, not hand it on
        with pytest.raises(TruncationError, match="enlarge dim"):
            fock.coherent_density_matrix(-1.1, 12)
        s = fock.coherent_density_matrix(-1.1, 13)
        assert s.trace_defect() <= fock.TRUNCATION_DEFICIT
        fock.propagate(fock.LinearRWA(gamma=0.1), s, 1.0, np.linspace(0, 1.0, 3))

    def test_cat_parity_oracle(self):
        # direct number-basis sum vs N^-2 (2 cos phi + 2 e^{-2|a|^2})
        for phi in (0.0, math.pi / 2, 2.0):
            alpha = 2.0
            s = fock.cat_density_matrix(alpha, phi, 30)
            obs = fock.observables(s)
            n2 = 2 + 2 * math.cos(phi) * math.exp(-2 * alpha**2)
            expected = (2 * math.cos(phi) + 2 * math.exp(-2 * alpha**2)) / n2
            assert obs["parity"] == pytest.approx(expected, abs=1e-9)
            assert obs["meanQ"] == pytest.approx(0.0, abs=1e-9)

    def test_number_state(self):
        s = fock.number_state_density_matrix(3, 6)
        assert s.sigma[3, 3] == 1.0
        with pytest.raises(ValueError):
            fock.number_state_density_matrix(6, 6)


def dense_generator(kind, sigma, omega, t):
    """Module-docstring generators from ladder matrices built here."""
    dim = sigma.shape[0]
    a = np.zeros((dim, dim))
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    ad = a.T
    X = a + ad

    def comm(A, B):
        return A @ B - B @ A

    def D(L):
        Ld = L.conj().T
        return 2 * L @ sigma @ Ld - Ld @ L @ sigma - sigma @ Ld @ L

    def sandwich(C, Y, Dm):
        return comm(C @ sigma, Y) + comm(Y, sigma @ Dm)

    out = -1j * omega * comm(ad @ a, sigma)
    if isinstance(kind, fock.LinearNonRWA):
        B = kind.gamma * ((kind.nbar + 1) * a + kind.nbar * ad)
        return out + sandwich(B, X, B.conj().T)
    if isinstance(kind, fock.LinearRWA):
        return out + kind.gamma * ((kind.nbar + 1) * D(a) + kind.nbar * D(ad))
    A, Ad = a @ a, ad @ ad
    if isinstance(kind, fock.QuadraticLindblad):
        return out + kind.Gamma * ((kind.nbar2 + 1) * D(A) + kind.nbar2 * D(Ad))
    if isinstance(kind, fock.QuadraticLiteral):
        return out + kind.Gamma * ((kind.nbar2 + 1) * sandwich(A, Ad, A)
                                   + kind.nbar2 * sandwich(Ad, A, Ad))
    g = bath.gamma_functions(kind.bath, omega, t)
    C = (g.gamma_n1 + np.conj(g.gtilde_n)) * a + (np.conj(g.gamma_n) + g.gtilde_n1) * ad
    return out + sandwich(C, X, C.conj().T)


class TestLiouvillian:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
    def test_matches_dense_oracle(self, kind):
        sigma = random_hermitian_state(12, seed=7)
        ds = fock.Liouvillian(kind, 1.3, 12).apply(sigma.sigma, 0.7)
        expected = dense_generator(kind, sigma.sigma, 1.3, 0.7)
        assert np.abs(ds - expected).max() < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
    def test_trace_free(self, kind):
        sigma = random_hermitian_state(12, seed=3)
        ds = fock.Liouvillian(kind, 1.0, 12).apply(sigma.sigma, 0.7)
        assert abs(np.trace(ds)) < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS[:3] + ALL_KINDS[4:],
                             ids=lambda k: type(k).__name__)
    def test_preserves_hermiticity(self, kind):
        sigma = random_hermitian_state(12, seed=4)
        ds = fock.Liouvillian(kind, 1.0, 12).apply(sigma.sigma, 0.7)
        assert np.abs(ds - ds.conj().T).max() < 1e-12

    def test_literal_form_breaks_hermiticity_on_coherences(self):
        # the verbatim commutator form has S - S^+ = [[a^2, a^+2], sigma];
        # another reason it is kept only for comparison
        sigma = random_hermitian_state(12, seed=4)
        G = 0.3
        ds = fock.Liouvillian(fock.QuadraticLiteral(Gamma=G, nbar2=0.0),
                              0.0, 12).apply(sigma.sigma)
        a, ad, _ = fock.build_ladder(12)
        D = (a @ a) @ (ad @ ad) - (ad @ ad) @ (a @ a)
        expected_defect = G * (D @ sigma.sigma - sigma.sigma @ D)
        assert np.abs((ds - ds.conj().T) - expected_defect).max() < 1e-12

    def test_nonrwa_ground_state_stationary_at_zero_temperature(self):
        sigma = fock.number_state_density_matrix(0, 10)
        kind = fock.LinearNonRWA(gamma=0.3, nbar=0.0)
        ds = fock.Liouvillian(kind, 1.0, 10).apply(sigma.sigma)
        assert np.abs(ds).max() < 1e-14

    def test_quadratic_first_level_dark(self):
        sigma = fock.number_state_density_matrix(1, 12)
        ds = fock.Liouvillian(fock.QuadraticLindblad(Gamma=0.5), 1.0, 12).apply(sigma.sigma)
        assert np.abs(ds).max() < 1e-14

    def test_quadratic_second_level_rates(self):
        # brute-force oracle: 2 a^2 s a+2 - a+2 a^2 s - s a+2 a^2 on |2><2|
        G, dim = 0.5, 12
        sigma = fock.number_state_density_matrix(2, dim)
        ds = fock.Liouvillian(fock.QuadraticLindblad(Gamma=G), 1.0, dim).apply(sigma.sigma)
        assert ds[2, 2].real == pytest.approx(-4 * G, rel=1e-12)
        assert ds[0, 0].real == pytest.approx(4 * G, rel=1e-12)

    def test_literal_form_pumps_upward(self):
        # the verbatim commutator form moves |1><1| to |3><3| at nbar2 = 0,
        # which is why it is not the default two-quantum dissipator
        G = 0.5
        sigma = fock.number_state_density_matrix(1, 12)
        ds = fock.Liouvillian(fock.QuadraticLiteral(Gamma=G), 1.0, 12).apply(sigma.sigma)
        assert ds[3, 3].real == pytest.approx(6 * G, rel=1e-12)
        assert ds[1, 1].real == pytest.approx(-6 * G, rel=1e-12)
        assert abs(np.trace(ds)) < 1e-12

    def test_time_dependent_rejects_negative_time(self):
        L = fock.Liouvillian(ALL_KINDS[-1], 1.0, 6)
        sigma = fock.number_state_density_matrix(0, 6)
        with pytest.raises(ValueError):
            L.apply(sigma.sigma, -0.5)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
    def test_matches_six_product_sandwich(self, kind):
        # apply writes [C s, Y] + [Y, s D] as [C s - s D, Y]; the same terms
        # with both commutators multiplied out agree to rounding
        L = fock.Liouvillian(kind, 1.3, 30)
        sigma = random_hermitian_state(30, seed=5).sigma
        for t in (0.0, 0.7, 12.5):
            expected = L._ham_phase * sigma
            for rate, A, Ad, AdA in L._channels:
                expected += rate * (2.0 * (A @ sigma) @ Ad - AdA @ sigma - sigma @ AdA)
            for rate, C, Y, D in L._sandwiches(t):
                Cs, sD = C @ sigma, sigma @ D
                expected += rate * (Cs @ Y - Y @ Cs + Y @ sD - sD @ Y)
            got = L.apply(sigma, t)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_time_dependent_sandwich_cache(self, monkeypatch):
        # one gamma_functions call per distinct t while it is cached, and
        # never more than SANDWICH_CACHE_SIZE sandwiches held
        calls = []
        real = fock.gamma_functions
        monkeypatch.setattr(fock, "gamma_functions",
                            lambda *args: calls.append(args[2]) or real(*args))
        L = fock.Liouvillian(ALL_KINDS[-1], 1.0, 8)
        sigma = random_hermitian_state(8, seed=2).sigma
        size = fock.SANDWICH_CACHE_SIZE
        stages = (0.0, 0.5, 1.0, 0.25, 0.75)
        for t in stages + stages[::-1]:
            L.apply(sigma, t)
        assert calls == list(stages)
        for t in np.linspace(2.0, 9.0, 3 * size):
            L.apply(sigma, t)
            assert len(L._sandwiches.cache) <= size
        assert len(L._sandwiches.cache) == size
        assert len(calls) == len(stages) + 3 * size


class TestIntegrate:
    def test_rwa_coherent_decay(self):
        omega, gamma = 1.0, 0.05
        s0 = fock.coherent_density_matrix(1.0, 25)
        ts = np.linspace(0, 12.0, 25)
        traj = fock.integrate(fock.LinearRWA(gamma=gamma, nbar=0.0), s0, omega, ts)
        a, _, _ = fock.build_ladder(25)
        for t, s in zip(ts, traj.states):
            mean_a = complex(np.trace(s @ a))
            assert abs(mean_a - np.exp(-(1j * omega + gamma) * t)) < 1e-6

    def test_nonrwa_oscillates_at_effective_frequency(self):
        omega, gamma, nbar = 1.0, 0.25, 0.4
        wt = math.sqrt(omega**2 - gamma**2)
        s0 = fock.coherent_density_matrix(1.0, 30)
        ts = np.linspace(0, 3 * 2 * math.pi / wt, 300)
        traj = fock.integrate(fock.LinearNonRWA(gamma=gamma, nbar=nbar),
                              s0, omega, ts)
        q = fock.trajectory_observables(traj)["meanQ"]

        def model(t, A, g, w, ph):
            return A * np.exp(-g * t) * np.cos(w * t + ph)

        popt, _ = curve_fit(model, ts, q, p0=(2.0, gamma, omega, 0.0))
        assert abs(popt[2]) == pytest.approx(wt, rel=5e-3)

    def test_rwa_vs_nonrwa_frequency_discrimination(self):
        # fitted frequencies differ by far more than 3 fit standard errors
        omega, gamma = 1.0, 0.25
        s0 = fock.coherent_density_matrix(1.0, 25)
        ts = np.linspace(0, 20.0, 300)

        def fit(kind):
            traj = fock.integrate(kind, s0, omega, ts)
            q = fock.trajectory_observables(traj)["meanQ"]

            def model(t, A, g, w, ph):
                return A * np.exp(-g * t) * np.cos(w * t + ph)

            popt, pcov = curve_fit(model, ts, q, p0=(2.0, gamma, omega, 0.0))
            return abs(popt[2]), math.sqrt(pcov[2, 2])

        w_rwa, se_rwa = fit(fock.LinearRWA(gamma=gamma, nbar=0.0))
        w_non, se_non = fit(fock.LinearNonRWA(gamma=gamma, nbar=0.0))
        assert w_rwa == pytest.approx(omega, rel=1e-3)
        assert abs(w_rwa - w_non) > 3 * math.hypot(se_rwa, se_non)

    def test_parity_sector_decoupled(self):
        G, dim = 0.5, 16
        s0 = fock.number_state_density_matrix(1, dim)
        ts = np.linspace(0, 10 / G, 50)
        traj = fock.integrate(fock.QuadraticLindblad(Gamma=G, nbar2=0.0),
                              s0, 1.0, ts)
        for s in traj.states:
            even = np.real(np.diag(s))[::2].sum()
            assert even <= 1e-10
        assert np.abs(traj.trace - 1.0).max() < 1e-9

    def test_time_dependent_matches_cumulant_solver(self):
        # same comb bath through both routes
        comb = bath.flat_comb(center=1.0, width=1.6, n_modes=31,
                              total_coupling_sq=0.005, occupation=0.3)
        omega = 1.0
        ts = np.linspace(0, 8.0, 40)
        s0 = fock.coherent_density_matrix(1.0, 25)
        traj = fock.integrate(fock.TimeDependent(bath=comb), s0, omega, ts)
        obs = fock.trajectory_observables(traj)
        co = bath.relaxation_coefficients(comb, omega)
        branches = cum.evolve_cumulants(cum.BranchCumulants.initial(1.0, 1.0),
                                        co, omega, ts)
        qc = np.array([b.center.real for b in branches])
        vc = np.array([b.variance_param.real for b in branches])
        assert np.abs(obs["meanQ"] - qc).max() < 1e-4
        assert np.abs(obs["V"] - vc).max() < 1e-4

    @pytest.mark.parametrize("kind, state", [
        (fock.LinearNonRWA(gamma=0.1, nbar=0.4), "coherent"),
        (fock.LinearRWA(gamma=0.1, nbar=0.4), "coherent"),
        (fock.QuadraticLindblad(Gamma=0.1, nbar2=0.4), "coherent"),
        # not Hermiticity-preserving on coherences (see test_matches_rk4)
        (fock.QuadraticLiteral(Gamma=0.005, nbar2=0.4), "mixture"),
        (fock.TimeDependent(bath=bath.flat_comb(
            center=1.0, width=1.0, n_modes=21, total_coupling_sq=0.02,
            occupation=0.5)), "coherent"),
    ], ids=["LinearNonRWA", "LinearRWA", "QuadraticLindblad", "QuadraticLiteral",
            "TimeDependent"])
    def test_matches_lab_frame_rk4(self, kind, state):
        # integrate steps the rotating-frame state; a fixed-step RK4 on
        # Liouvillian.apply in the lab frame is the reference
        dim, omega = 14, 1.0
        if state == "coherent":
            s0 = fock.coherent_density_matrix(0.9 + 0.6j, dim)
        else:
            pops = np.zeros(dim)
            pops[:4] = (0.4, 0.3, 0.2, 0.1)
            s0 = fock.FockDensityMatrix(dim=dim, sigma=np.diag(pops))
        ts = np.linspace(0.0, 3.0, 7)
        L = fock.Liouvillian(kind, omega, dim)
        y, ref, n_sub = s0.sigma.copy(), [s0.sigma], 500
        for t0, t1 in zip(ts[:-1], ts[1:]):
            h = (t1 - t0) / n_sub
            for k in range(n_sub):
                t = t0 + k * h
                k1 = L.apply(y, t)
                k2 = L.apply(y + 0.5 * h * k1, t + 0.5 * h)
                k3 = L.apply(y + 0.5 * h * k2, t + 0.5 * h)
                k4 = L.apply(y + h * k3, t + h)
                y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            ref.append(y)
        traj = fock.integrate(kind, s0, omega, ts)
        dev = max(np.abs(a - b).max() for a, b in zip(traj.states, ref))
        assert dev <= 1e-7
        if state == "coherent":
            # the coherences rotate in the lab frame, so the check has teeth
            assert np.abs(ref[-1] - ref[-2]).max() > 1e-2

    def test_truncation_error_on_overflowing_basis(self):
        s0 = fock.number_state_density_matrix(3, 5)
        kind = fock.LinearRWA(gamma=0.2, nbar=1.0)
        with pytest.raises(TruncationError):
            fock.integrate(kind, s0, 1.0, np.linspace(0, 20, 10))

    def test_conservation_and_drift_logs(self):
        s0 = fock.coherent_density_matrix(1.0, 20)
        ts = np.linspace(0, 10.0, 20)
        traj = fock.integrate(fock.LinearNonRWA(gamma=0.1, nbar=0.5),
                              s0, 1.0, ts)
        assert np.abs(traj.trace - 1.0).max() < 1e-9
        assert traj.herm_drift.max() < 1e-11
        assert traj.min_eigenvalue.min() > -1e-6
        assert not traj.truncation_flagged

    @pytest.mark.parametrize("make", [
        lambda x: fock.LinearNonRWA(gamma=x),
        lambda x: fock.LinearNonRWA(gamma=0.1, nbar=x),
        lambda x: fock.LinearRWA(gamma=x),
        lambda x: fock.LinearRWA(gamma=0.1, nbar=x),
        lambda x: fock.QuadraticLindblad(Gamma=x),
        lambda x: fock.QuadraticLindblad(Gamma=0.1, nbar2=x),
        lambda x: fock.QuadraticLiteral(Gamma=x),
        lambda x: fock.QuadraticLiteral(Gamma=0.1, nbar2=x),
        lambda x: fock.TimeDependent(
            bath=bath.DiscreteModes((bath.Mode(1.0, x, 0.0),))),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
    def test_dissipator_rates_finite_and_nonnegative(self, make, value):
        with pytest.raises(ValueError):
            make(value)

    def test_input_validation(self):
        s0 = fock.coherent_density_matrix(1.0, 15)
        kind = fock.LinearRWA(gamma=0.1)
        with pytest.raises(ValueError):
            fock.integrate(kind, s0, 1.0, np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            fock.integrate(kind, s0, 1.0, np.array([0.0, 2.0, 1.0]))
        bad = fock.FockDensityMatrix(dim=10, sigma=np.eye(10) * 0.1 + 0.05j)
        with pytest.raises(ValueError):
            fock.integrate(kind, bad, 1.0, np.array([0.0, 1.0]))

    def test_step_budget_reported_with_time(self):
        from oscbath.errors import IntegrationError

        s0 = fock.coherent_density_matrix(1.0, 15)
        kind = fock.LinearNonRWA(gamma=0.1, nbar=0.5)
        with pytest.raises(IntegrationError) as exc:
            fock.integrate(kind, s0, 1.0, np.array([0.0, 50.0]), max_steps=5)
        assert exc.value.time is not None and exc.value.time < 50.0

    def test_parallel_trajectories_match_serial(self):
        # distinct trajectories share no mutable state
        from concurrent.futures import ThreadPoolExecutor

        ts = np.linspace(0, 5.0, 11)
        kinds = [fock.LinearNonRWA(gamma=g, nbar=0.2) for g in (0.05, 0.1, 0.2)]
        s0 = fock.coherent_density_matrix(1.0, 20)

        def run(kind):
            return fock.integrate(kind, s0, 1.0, ts).states[-1]

        serial = [run(k) for k in kinds]
        with ThreadPoolExecutor(max_workers=3) as pool:
            parallel = list(pool.map(run, kinds))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)


class TestPropagate:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
    def test_superoperator_matches_apply(self, kind):
        sigma = random_hermitian_state(12, seed=5).sigma
        L = fock.Liouvillian(kind, 1.3, 12)
        ds = (L.superoperator(0.7) @ sigma.ravel()).reshape(12, 12)
        assert np.abs(ds - L.apply(sigma, 0.7)).max() < 1e-12

    @pytest.mark.parametrize("make, state", [
        (lambda n: fock.LinearRWA(gamma=0.1, nbar=n), "coherent"),
        (lambda n: fock.LinearNonRWA(gamma=0.1, nbar=n), "coherent"),
        (lambda n: fock.QuadraticLindblad(Gamma=0.1, nbar2=n), "coherent"),
        # the literal form is not Hermiticity-preserving on coherences, which
        # integrate projects out at every step; diagonal states stay Hermitian
        (lambda n: fock.QuadraticLiteral(Gamma=0.005, nbar2=n), "mixture"),
    ], ids=["LinearRWA", "LinearNonRWA", "QuadraticLindblad", "QuadraticLiteral"])
    @pytest.mark.parametrize("nbar", [0.0, 0.4])
    def test_matches_rk4(self, make, state, nbar):
        dim = 24
        if state == "coherent":
            s0 = fock.coherent_density_matrix(0.9 + 0.6j, dim)
        else:
            pops = np.zeros(dim)
            pops[:4] = (0.4, 0.3, 0.2, 0.1)
            s0 = fock.FockDensityMatrix(dim=dim, sigma=np.diag(pops))
        ts = np.linspace(0.0, 6.0, 31)
        exact = fock.propagate(make(nbar), s0, 1.0, ts)
        rk4 = fock.integrate(make(nbar), s0, 1.0, ts)
        dev = max(np.abs(a - b).max() for a, b in zip(exact.states, rk4.states))
        assert dev <= 1e-7
        assert np.abs(exact.trace - 1.0).max() <= 1e-9
        assert exact.herm_drift.max() <= 1e-12
        assert exact.n_accepted == len(ts) - 1 and exact.n_rejected == 0
        assert exact.truncation_flagged == rk4.truncation_flagged
        assert not exact.positivity_flagged

    @pytest.mark.parametrize("kind, span", [
        (fock.QuadraticLindblad(Gamma=0.3, nbar2=0.5), 3.0),
        # the literal form pumps upward, out of the basis, within a few units
        (fock.QuadraticLiteral(Gamma=0.02, nbar2=0.5), 1.0),
    ], ids=["QuadraticLindblad", "QuadraticLiteral"])
    def test_two_quantum_parity(self, kind, span):
        # a^2 and a^+2 move two levels at a time: the level parity is exact
        dim = 30
        s0 = fock.number_state_density_matrix(3, dim)
        traj = fock.propagate(kind, s0, 1.0, np.linspace(0.0, span, 60))
        for s in traj.states:
            assert np.real(np.diag(s))[::2].sum() <= 1e-10
        assert np.abs(traj.trace - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("omega, h, multi",
                             [(1.0, 30.0 / 399, False), (5.0, 0.3, True)],
                             ids=["fig4-step", "substeps"])
    def test_taylor_matches_dense_expm(self, omega, h, multi):
        # non-RWA frames against powers of the dense exp(h S); the second
        # case has |h S|_1 above the largest theta_m, so each grid step
        # takes more than one Taylor sum
        import scipy.linalg

        dim, n_t = 20, 20
        kind = fock.LinearNonRWA(gamma=0.15, nbar=0.3)
        s0 = fock.coherent_density_matrix(0.8 - 0.5j, dim)
        S = fock.Liouvillian(kind, omega, dim).superoperator()
        norm = h * abs(S).sum(axis=0).max()
        assert (norm > max(fock.TAYLOR_THETA.values())) == multi
        traj = fock.propagate(kind, s0, omega, np.linspace(0.0, h * (n_t - 1), n_t))
        step = scipy.linalg.expm(h * S.toarray())
        v = s0.sigma.ravel()
        for s in traj.states:
            exact = v.reshape(dim, dim)
            assert np.abs(s - 0.5 * (exact + exact.conj().T)).max() < 1e-12
            v = step @ v

    def test_block_and_sparse_paths(self):
        # the coherence-order test picks the path: every time-independent
        # kind but non-RWA splits into blocks, and non-RWA's Taylor frames
        # agree with a single expm_multiply call over the whole grid
        import scipy.sparse.linalg

        for kind in ALL_KINDS[1:4]:
            S = fock.Liouvillian(kind, 1.0, 12).superoperator()
            assert fock._coherence_blocks(S, 12) is not None
        S = fock.Liouvillian(ALL_KINDS[0], 1.0, 30).superoperator()
        assert fock._coherence_blocks(S, 30) is None
        s0 = fock.coherent_density_matrix(1.0, 30)
        ts = np.linspace(0.0, 3.0, 150)
        traj = fock.propagate(ALL_KINDS[0], s0, 1.0, ts)
        whole = scipy.sparse.linalg.expm_multiply(
            S, s0.sigma.ravel(), start=0.0, stop=3.0, num=150, endpoint=True)
        assert np.abs(np.stack(traj.states).reshape(150, -1) - whole).max() < 1e-12

    def test_reruns_identical_and_random_stream_untouched(self):
        # propagate never touches np.random: reruns under numpy seeds 0 and
        # 5 are byte-identical, and the caller's stream is left where it was
        kind = fock.LinearNonRWA(gamma=0.209, nbar=0.84)
        s0 = fock.coherent_density_matrix(1.0, 18)
        ts = np.linspace(0.0, 12.5, 131)
        runs = []
        for seed in (0, 5):
            np.random.seed(seed)
            runs.append(fock.propagate(kind, s0, 1.62, ts))
            after = np.random.random()
            np.random.seed(seed)
            assert np.random.random() == after
        for a, b in zip(*(run.states for run in runs)):
            assert np.array_equal(a, b)

    def test_rejects_time_dependent_and_nonuniform_grids(self):
        s0 = fock.coherent_density_matrix(1.0, 15)
        with pytest.raises(ValueError, match="time-independent"):
            fock.propagate(ALL_KINDS[-1], s0, 1.0, np.linspace(0.0, 1.0, 5))
        with pytest.raises(ValueError, match="uniform"):
            fock.propagate(fock.LinearRWA(gamma=0.1), s0, 1.0,
                           np.array([0.0, 0.5, 1.2, 1.5]))
        with pytest.raises(ValueError):
            fock.propagate(fock.LinearRWA(gamma=0.1), s0, 1.0, np.array([0.5, 1.0]))

    def test_truncation_error_on_overflowing_basis(self):
        s0 = fock.number_state_density_matrix(3, 5)
        kind = fock.LinearRWA(gamma=0.2, nbar=1.0)
        with pytest.raises(TruncationError, match="enlarge dim"):
            fock.propagate(kind, s0, 1.0, np.linspace(0, 20, 10))


class TestObservablesAndDensity:
    def test_hermite_orthonormal(self):
        grid = np.linspace(-20, 20, 4001)
        psi = fock.hermite_functions(12, grid)
        overlaps = np.trapezoid(psi[:, None, :] * psi[None, :, :], grid, axis=2)
        assert np.abs(overlaps - np.eye(12)).max() < 1e-8

    def test_ground_state_density_matches_branch_gaussian(self):
        from oscbath import wavepacket as wp

        s = fock.number_state_density_matrix(0, 10)
        grid = np.linspace(-6, 6, 301)
        frame = fock.position_density(s, grid)
        ref = wp.branch_density(grid, 0.0, 0.5, 1.0).real
        assert np.abs(frame.density - ref).max() < 1e-12

    def test_coherent_density_is_shifted_gaussian(self):
        s = fock.coherent_density_matrix(1.5, 25)
        grid = np.linspace(-8, 8, 801)
        frame = fock.position_density(s, grid)
        ref = np.exp(-(grid - 3.0) ** 2 / 2) / math.sqrt(2 * math.pi)
        assert np.abs(frame.density - ref).max() < 1e-9

    def test_observable_values(self):
        s = fock.coherent_density_matrix(1.0 + 0.5j, 25)
        obs = fock.observables(s)
        assert obs["meanQ"] == pytest.approx(2.0, abs=1e-9)
        assert obs["V"] == pytest.approx(0.5, abs=1e-9)
        assert obs["purity"] == pytest.approx(1.0, abs=1e-9)
        assert obs["populations"][0] == pytest.approx(math.exp(-1.25), rel=1e-9)

    def test_trajectory_frames_equal_position_density(self):
        s0 = fock.cat_density_matrix(1.5, 0.3, 24)
        ts = np.linspace(0.0, 3.0, 7)
        traj = fock.propagate(fock.LinearNonRWA(gamma=0.1, nbar=0.5), s0, 1.0, ts)
        grid = np.linspace(-8, 8, 257)
        frames = fock.trajectory_frames(traj, grid)
        assert [f.time for f in frames] == list(ts)
        for f, s in zip(frames, traj.states):
            one = fock.position_density(fock.FockDensityMatrix(dim=24, sigma=s), grid)
            assert f.density.tobytes() == one.density.tobytes()
            assert f.warnings == one.warnings

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "complex"])
    def test_density_has_the_bytes_of_the_complex_product(self, hermitian):
        # psi is real, so only Re sigma reaches P(Q); on this grid the real
        # product gives the bytes of the complex one (on some other grid
        # sizes the BLAS kernels round the two apart in the last bit)
        dim = 30
        if hermitian:
            s = random_hermitian_state(dim, seed=11).sigma
        else:
            rng = np.random.default_rng(12)
            s = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        grid = np.linspace(-12.0, 12.0, 1024)
        psi = fock.hermite_functions(dim, grid)
        sigma = fock.FockDensityMatrix(dim=dim, sigma=s)
        density = fock.position_density(sigma, grid).density
        assert np.array_equal(density, np.einsum("mj,mj->j", psi, s @ psi).real)

    def test_thermal_variance_saturation(self):
        omega, gamma = 1.0, 0.1
        nbar = bath.bose_occupation(omega, 3.0)
        s0 = fock.coherent_density_matrix(2.0, 40)
        ts = np.linspace(0, 40.0, 80)
        traj = fock.integrate(fock.LinearNonRWA(gamma=gamma, nbar=nbar),
                              s0, omega, ts)
        v = fock.trajectory_observables(traj)["V"]
        assert v[-1] == pytest.approx(0.5 + nbar, rel=0.01)

    def test_nyquist_warning_on_coarse_grid(self):
        s = fock.number_state_density_matrix(15, 20)
        coarse = np.linspace(-10, 10, 12)
        frame = fock.position_density(s, coarse)
        assert "fringe-nyquist" in frame.warnings
        fine = np.linspace(-10, 10, 512)
        assert fock.position_density(s, fine).warnings == ()
