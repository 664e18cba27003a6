import copy
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscbath import cli, fock, scenarios as sc
from oscbath.errors import ConfigError


def run_child(*args, timeout=60):
    """The interpreter with args in a child process, this package on its path."""
    src = os.path.dirname(os.path.dirname(sc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=env)


# --set tables holding a cat of amplitude 1e-9 and phase pi, whose
# normalisation N^2 = 2 + 2 cos(phi) e^{-2|alpha|^2} rounds to 0
TINY_CATS = ('initial={"kind": "cat", "alpha": 1e-9, "phi": 3.141592653589793}',
             'bc={"alpha": 1e-9, "phi": 3.141592653589793}')
# a --set table for a comb coupled too strongly for the oscillator to keep a
# ground state: sum 4 K^2/(omega omega_xi) is about 8.8
STRONG_COMB = ('bath={"kind": "discrete-modes", "comb": {"center": 1.0, "width": 1.0, '
               '"n_modes": 5, "total_coupling_sq": 2}}')


def base_tree(**kw):
    tree = {
        "scenario": "custom",
        "omega": 1.0,
        "bath": {"kind": "linear-markov", "gamma": 0.05, "nbar": 0.0},
        "initial": {"kind": "coherent", "alpha": 1.0},
        "solver": {"kind": "cumulant"},
        "time": {"span": 2.0, "points": 20},
        "qgrid": {"min": -8.0, "max": 8.0, "points": 256},
    }
    return sc.ScenarioConfig.from_dict(tree, kw)


BATHS = {
    "linear-markov": {"kind": "linear-markov", "gamma": 0.05, "nbar": 0.2},
    "quadratic-markov": {"kind": "quadratic-markov", "Gamma": 0.1, "nbar2": 0.0},
    "early-time": {"kind": "early-time", "Gamma0": 0.1},
    "discrete-modes": {"kind": "discrete-modes",
                       "modes": [[1.2, 0.1, 0.0], [0.9, 0.05, 0.3]]},
}
COMB = {"center": 1.0, "width": 1.0, "n_modes": 5, "total_coupling_sq": 0.0064}
# configs that between them hold every leaf ScenarioConfig.from_dict reads
FUZZ_TREES = [
    {"scenario": "a", "omega": 1.0, "emit_frames": True,
     "bath": {"kind": "linear-markov", "gamma": 0.05, "kT": 2.0},
     "initial": {"kind": "cat", "alpha": 1.5, "phi": 0.3},
     "solver": {"kind": "cumulant", "rtol": 1e-9, "atol": 1e-11},
     "time": {"span": 2.0, "points": 20},
     "qgrid": {"min": -8.0, "max": 8.0, "points": 256}},
    {"bath": {"kind": "linear-markov", "gamma": 0.05, "nbar": 0.2},
     "initial": {"kind": "coherent", "alpha": [0.5, 0.5]},
     "solver": {"kind": "cumulant"}},
    {"bath": {"kind": "quadratic-markov", "Gamma": 0.1, "nbar2": 0.1},
     "initial": {"kind": "number", "k": 2},
     "solver": {"kind": "fock", "dissipator": "quadratic-literal", "dim": 12}},
    {"bath": {"kind": "discrete-modes", "comb": dict(COMB, occupation=0.5)},
     "initial": {"kind": "coherent", "alpha": 0.5},
     "solver": {"kind": "fock", "dissipator": "time-dependent", "dim": 12,
                "rtol": 1e-7, "atol": 1e-9}},
    {"bath": {"kind": "discrete-modes", "modes": BATHS["discrete-modes"]["modes"]},
     "initial": {"kind": "coherent", "alpha": 0.5}, "solver": {"kind": "cumulant"}},
    {"bath": {"kind": "early-time", "Gamma0": 0.1},
     "initial": {"kind": "coherent", "alpha": 0.5}, "solver": {"kind": "cumulant"}},
]
# not file names, zero cat amplitudes and counts far above their bounds
PATHS = (".", "..", "../escape", "a/b")
ZERO = (0, [0, 0])
HUGE = 10**12
BAD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None]),
    st.sampled_from(PATHS + ZERO + (HUGE,)),
    st.text(alphabet="abefijnty", max_size=8),
    st.lists(st.one_of(st.floats(), st.text("ab", max_size=2)), max_size=3),
    st.integers(-10**6, -1),
    st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
)


def leaf_keys(tree, prefix=""):
    for k, v in tree.items():
        if isinstance(v, dict):
            yield from leaf_keys(v, f"{prefix}{k}.")
        else:
            yield prefix + k


VALID_PAIRS = {
    ("linear-markov", "cumulant"), ("linear-markov", "fock"),
    ("quadratic-markov", "fock"),
    ("early-time", "cumulant"),
    ("discrete-modes", "cumulant"), ("discrete-modes", "fock"),
}


class TestConfigValidation:
    @pytest.mark.parametrize("bath_kind", sorted(BATHS))
    # "analytic" is a retired kind, refused on every bath
    @pytest.mark.parametrize("solver_kind", sc.SOLVER_KINDS + ("analytic",))
    def test_pairing_matrix(self, bath_kind, solver_kind):
        tree = {
            "bath": BATHS[bath_kind],
            "initial": {"kind": "coherent", "alpha": 0.5},
            "solver": {"kind": solver_kind, "dim": 16},
            "time": {"span": 1.0, "points": 5},
        }
        if (bath_kind, solver_kind) in VALID_PAIRS:
            sc.ScenarioConfig.from_dict(tree)
        else:
            with pytest.raises(ConfigError):
                sc.ScenarioConfig.from_dict(tree)

    def test_number_state_requires_fock(self):
        with pytest.raises(ConfigError, match="fock"):
            sc.ScenarioConfig.from_dict({
                "bath": BATHS["linear-markov"],
                "initial": {"kind": "number", "k": 1},
                "solver": {"kind": "cumulant"},
                "time": {"span": 1.0, "points": 5}})

    def test_mismatched_dissipator_rejected(self):
        with pytest.raises(ConfigError, match="does not match bath"):
            sc.ScenarioConfig.from_dict({
                "bath": BATHS["linear-markov"],
                "initial": {"kind": "coherent", "alpha": 0.5},
                "solver": {"kind": "fock", "dissipator": "quadratic-lindblad"},
                "time": {"span": 1.0, "points": 5}})

    @pytest.mark.parametrize("bath_kind, default", [
        ("linear-markov", fock.LinearNonRWA),
        ("quadratic-markov", fock.QuadraticLindblad),
        ("discrete-modes", fock.TimeDependent),
        ("early-time", None),
    ])
    def test_dissipator_table(self, bath_kind, default, monkeypatch):
        built = []

        def capture(real):
            def run(kind, *args, **kwargs):
                built.append(kind)
                return real(kind, *args, **kwargs)
            return run

        # constant kinds go through propagate, TimeDependent through integrate
        for solver in ("integrate", "propagate"):
            monkeypatch.setattr(fock, solver, capture(getattr(fock, solver)))
        tree = {
            "bath": BATHS[bath_kind],
            "initial": {"kind": "coherent", "alpha": 0.3},
            "solver": {"kind": "fock", "dim": 16},
            "time": {"span": 0.5, "points": 5},
            "emit_frames": False,
        }
        if default is None:
            with pytest.raises(ConfigError, match="closed-form limit"):
                sc.ScenarioConfig.from_dict(tree)
            return
        sc.run_scenario(sc.ScenarioConfig.from_dict(tree))
        assert type(built.pop()) is default
        names = {"linear-nonrwa": fock.LinearNonRWA, "linear-rwa": fock.LinearRWA,
                 "quadratic-lindblad": fock.QuadraticLindblad,
                 "quadratic-literal": fock.QuadraticLiteral,
                 "time-dependent": fock.TimeDependent}
        allowed = [n for n, (b, _) in sc.FOCK_DISSIPATORS.items() if b == bath_kind]
        assert allowed and set(sc.FOCK_DISSIPATORS) == set(names)
        for name in allowed:
            tree["solver"]["dissipator"] = name
            sc.run_scenario(sc.ScenarioConfig.from_dict(tree))
            assert type(built.pop()) is names[name]

    def test_bad_fields_rejected(self):
        with pytest.raises(ConfigError):
            base_tree(**{"omega": -1.0})
        with pytest.raises(ConfigError):
            base_tree(**{"time": {"span": -2.0}})
        with pytest.raises(ConfigError):
            base_tree(**{"bath": {"kind": "nonsense"}})
        with pytest.raises(ConfigError, match="missing"):
            sc.ScenarioConfig.from_dict({
                "bath": {"kind": "linear-markov"},  # no gamma
                "initial": {"kind": "coherent", "alpha": 1.0},
                "solver": {"kind": "cumulant"},
                "time": {"span": 1.0, "points": 5}})
        # values of the wrong type are config errors too, not TypeErrors
        with pytest.raises(ConfigError):
            base_tree(**{"bath": {"kind": "discrete-modes",
                                  "modes": [[1.0, [0.1]]]}})
        with pytest.raises(ConfigError):
            sc.build_superposition(sc.ScenarioConfig(
                raw={"initial": {"kind": "coherent", "alpha": [[1.0], 2.0]}}))

    @pytest.mark.parametrize("override, key", [
        ({"omega": math.nan}, "omega"),
        ({"omega": math.inf}, "omega"),
        ({"time": {"span": math.inf}}, "time.span"),
        ({"time": {"span": math.nan}}, "time.span"),
        ({"qgrid": {"min": -math.inf}}, "qgrid"),
        ({"qgrid": {"max": math.nan}}, "qgrid"),
        ({"qgrid": {"min": 3.0, "max": -3.0}}, "qgrid"),
        ({"bath": {"gamma": math.nan}}, "gamma"),
        ({"bath": {"nbar": math.inf}}, "nbar"),
        ({"initial": {"alpha": math.nan}}, "initial.alpha"),
        ({"initial": {"alpha": [1.0, math.inf]}}, "initial.alpha"),
        ({"initial": {"kind": "cat", "phi": math.nan}}, "initial.phi"),
        ({"time": {"points": math.nan}}, "time.points"),
        ({"time": {"points": 20.5}}, "time.points"),
        ({"qgrid": {"points": math.inf}}, "qgrid.points"),
        ({"solver": {"kind": "fock", "dim": math.nan}}, "solver.dim"),
        ({"solver": {"kind": "fock", "dim": 12.5}}, "solver.dim"),
        ({"solver": {"kind": "fock"}, "initial": {"kind": "number", "k": math.inf}},
         "initial.k"),
        ({"bath": {"kind": "discrete-modes", "comb": dict(COMB, n_modes=math.nan)}},
         "bath.comb.n_modes"),
        ({"bath": {"kind": "discrete-modes", "comb": dict(COMB, width=math.nan)}},
         "bath.comb.width"),
        ({"emit_frames": "no"}, "emit_frames"),
        ({"solver": {"kind": "fock", "dim": 8}, "initial": {"kind": "number", "k": 8}},
         "initial.k"),
        ({"scenario": "../escape"}, "scenario"),
        ({"scenario": ".."}, "scenario"),
        ({"scenario": "."}, "scenario"),
        ({"initial": {"kind": "cat", "alpha": 0}}, "initial.alpha"),
        ({"initial": {"kind": "cat", "alpha": [0.0, 0.0]}}, "initial.alpha"),
        ({"time": {"points": HUGE}}, "time.points"),
        ({"qgrid": {"points": HUGE}}, "qgrid.points"),
        ({"bath": {"kind": "discrete-modes", "comb": dict(COMB, n_modes=HUGE)}},
         "bath.comb.n_modes"),
    ])
    def test_non_finite_fields_rejected(self, override, key):
        with pytest.raises(ConfigError, match=key):
            base_tree(**override)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_leaf_is_config_error(self, data):
        # one leaf at a time; no other exception type may escape validation
        tree = copy.deepcopy(data.draw(st.sampled_from(FUZZ_TREES)))
        key = data.draw(st.sampled_from(sorted(leaf_keys(tree))))
        *parents, last = key.split(".")
        node = tree
        for part in parents:
            node = node[part]
        value = node[last] = data.draw(BAD_VALUES)
        must_fail = ((key == "scenario" and value in PATHS)
                     or (key in ("time.points", "qgrid.points", "bath.comb.n_modes",
                                 "solver.dim") and value == HUGE)
                     or (key == "initial.alpha" and value in ZERO
                         and tree["initial"].get("kind") == "cat"))
        try:
            sc.ScenarioConfig.from_dict(tree)
        except ConfigError as exc:
            assert key in str(exc)
        else:
            assert not must_fail

    def test_counts_bounded_above(self):
        # each bound admits its own value; the frame bound holds only when
        # frames are written
        base_tree(time={"points": sc.MAX_POINTS}, emit_frames=False)
        base_tree(qgrid={"points": sc.MAX_QGRID_POINTS}, time={"points": 2})
        for leaf, limit in (("time", sc.MAX_POINTS), ("qgrid", sc.MAX_QGRID_POINTS)):
            with pytest.raises(ConfigError, match=f"{leaf}.points must be finite"):
                base_tree(**{leaf: {"points": limit + 1}})
        frames = {"time": {"points": 5000}, "qgrid": {"points": 2001}}
        assert 5000 * 2001 > sc.MAX_STACK_VALUES
        with pytest.raises(ConfigError, match="when frames are written"):
            base_tree(**frames)
        base_tree(**frames, emit_frames=False)
        with pytest.raises(ConfigError, match="bc.points"):
            sc.run_fig4(sc.fig4_config({"bc": {"points": 5000},
                                        "qgrid": {"points": 2001}}))
        # the basis size, and a Fock run's states: points x dim^2 values
        fock_run = {"kind": "fock", "dim": sc.MAX_DIM}
        points = sc.MAX_STACK_VALUES // sc.MAX_DIM**2
        base_tree(solver=fock_run, time={"points": points}, emit_frames=False)
        with pytest.raises(ConfigError, match="solver.dim must be finite"):
            base_tree(solver=dict(fock_run, dim=sc.MAX_DIM + 1), emit_frames=False,
                      time={"points": 2})
        with pytest.raises(ConfigError, match="solver.dim\\^2 must be"):
            base_tree(solver=fock_run, time={"points": points + 1}, emit_frames=False)

    def test_rotation_bounded_for_cumulant_solve(self):
        # omega * time.span bounds every cumulant run, with or without
        # frames, and no Fock run
        at_bound = {"omega": 2.0, "time": {"span": sc.MAX_ROTATION / 2}}
        over = {"omega": 2.0, "time": {"span": sc.MAX_ROTATION / 2 * (1 + 1e-12)}}
        base_tree(**at_bound)
        for frames in (True, False):
            with pytest.raises(ConfigError, match=r"omega \* time.span must be"):
                base_tree(**over, emit_frames=frames)
        base_tree(**over, solver={"kind": "fock"})

    def test_kT_to_occupation(self):
        def bath(cfg):
            return sc.ScenarioConfig(raw={"omega": 1.0, "bath": cfg}).bath

        b = bath({"kind": "linear-markov", "gamma": 0.1, "kT": 3.0})
        assert b.nbar == pytest.approx(1 / (math.exp(1 / 3) - 1), rel=1e-12)
        b2 = bath({"kind": "quadratic-markov", "Gamma": 0.1, "kT": 2 / math.log(3)})
        assert b2.nbar2 == pytest.approx(0.5, rel=1e-12)
        # an explicit occupation wins over kT when both are present
        b3 = bath({"kind": "linear-markov", "gamma": 0.1, "kT": 3.0, "nbar": 0.7})
        assert b3.nbar == 0.7


class TestSeriesNames:
    @pytest.mark.parametrize("bath, initial", [
        ({"gamma": 0.05, "nbar": 0.2}, {"kind": "coherent", "alpha": [1.0, 0.5]}),
        ({"gamma": 0.01, "nbar": 0.0}, {"kind": "cat", "alpha": 2.0, "phi": math.pi / 2}),
        ({"gamma": 0.1, "nbar": 0.4}, {"kind": "cat", "alpha": [1.0, 1.0], "phi": 0.3}),
    ], ids=["coherent", "cat-fig2", "cat-complex"])
    def test_routes_agree_on_shared_names(self, bath, initial):
        # a series name means one thing on every route; for a cat V is
        # Var(Q)/2 of the whole state, not the width of one branch
        series = [sc.run_scenario(sc.ScenarioConfig.from_dict({
            "bath": dict(bath, kind="linear-markov"), "initial": initial,
            "solver": solver, "time": {"span": 2 * math.pi, "points": 41},
            "emit_frames": False})).series
            for solver in ({"kind": "cumulant"}, {"kind": "fock", "dim": 40})]
        shared = set(series[0]) & set(series[1])
        assert {"meanQ", "V"} <= shared
        for name in shared:
            assert np.abs(series[0][name] - series[1][name]).max() < 1e-7, name


class TestFig1:
    def test_longest_supported_span_completes(self):
        # 318 periods, the most omega * time.span allows, within the
        # cumulant step budget; V relaxes to the thermal 1/2 + n
        cfg = sc.fig1_config({"time": {"span": sc.MAX_ROTATION},
                              "emit_frames": False})
        V = sc.run_fig1(cfg).series["V"]
        assert V[-1] == pytest.approx(0.5 + cfg.bath.nbar, abs=1e-6)

    def test_variance_relaxation(self):
        result = sc.run_fig1()
        v = result.series["V"]
        assert v[0] == pytest.approx(0.5, abs=1e-9)
        target = 0.5 + 1 / (math.exp(1 / 3) - 1)
        assert v[-1] == pytest.approx(target, rel=0.01)

    def test_variance_oscillates_at_2wt(self):
        from scipy.optimize import curve_fit

        result = sc.run_fig1()
        ts, v = result.times, result.series["V"]

        def trend(t, a, b, c):
            return a + b * np.exp(-c * t)

        popt, _ = curve_fit(trend, ts, v, p0=(3.0, -2.5, 0.2), maxfev=20000)
        resid = (v - trend(ts, *popt)) * np.hanning(len(ts))
        freqs = np.fft.rfftfreq(len(ts), d=ts[1] - ts[0]) * 2 * math.pi
        peak = freqs[np.argmax(np.abs(np.fft.rfft(resid)))]
        assert abs(peak - 2 * math.sqrt(1 - 0.01)) <= freqs[1]


@pytest.fixture(scope="module")
def fig2_result():
    cfg = sc.fig2_config({"time": {"span": 2 * 2 * math.pi, "points": 200},
                          "qgrid": {"points": 512}})
    return sc.run_fig2(cfg)


@pytest.fixture(scope="module")
def fig3_result():
    return sc.run_fig3()


@pytest.fixture(scope="module")
def fig4_result():
    cfg = sc.fig4_config({"a": {"span": 16.0, "points": 320},
                          "bc": {"span": 2.0, "points": 60, "dim": 40},
                          "qgrid": {"points": 256}})
    return sc.run_fig4(cfg)


class TestFig2:
    @pytest.fixture
    def result(self, fig2_result):
        return fig2_result

    def test_initial_peaks(self, result):
        frame = result.frames[0]
        d, q = frame.density, frame.grid
        top = q[np.argsort(d)[-2:]]
        assert sorted(np.round(np.abs(top), 1)) == [4.0, 4.0]

    def test_significance_first_collision(self, result):
        ts = result.times
        i = np.argmin(np.abs(ts - math.pi / 2))
        expected = 1 - 2 * 0.01 * ts[i]
        assert result.series["significance"][i] == pytest.approx(expected, abs=2e-3)

    def test_envelope_rate_reported(self, result):
        assert result.meta["rate_law_2a2g"] == pytest.approx(0.08)
        # early-window envelope rate sits near twice the reference law
        assert 1.4 * 0.08 <= result.meta["envelope_rate"] <= 2.1 * 0.08


class TestFig3:
    @pytest.fixture
    def result(self, fig3_result):
        return fig3_result

    def test_all_series_coincide_at_t0(self, result):
        v0 = {k: result.series[k][0]
              for k in ("P_int_markov", "P_int_rwa", "P_int_early")}
        ref = v0["P_int_markov"]
        for v in v0.values():
            assert v == pytest.approx(ref, rel=1e-6, abs=1e-9)

    def test_peak_time_drift_grows(self, result):
        # non-RWA peaks at w~ collisions, RWA at w collisions; drift ~ linear
        ts = result.times
        wt = math.sqrt(1 - 0.25**2)
        drifts = []
        for k in (0, 5):
            t_non = (math.pi / 2 + k * math.pi) / wt
            t_rwa = (math.pi / 2 + k * math.pi) / 1.0
            win = (ts > t_rwa - 1.2) & (ts < t_non + 1.2)
            tw = ts[win]
            i_non = np.argmax(result.series["P_int_markov"][win])
            i_rwa = np.argmax(np.abs(result.series["P_int_rwa"][win]))
            drifts.append(tw[i_non] - tw[i_rwa])
        assert drifts[1] > drifts[0] + 0.3

    def test_late_time_ordering(self, result):
        # the early-time reference has no amplitude decay, so at late times
        # its envelope exceeds the damped non-RWA one
        ts = result.times
        last = ts > ts[-1] - 2 * math.pi
        assert result.series["P_int_early"][last].max() \
            > result.series["P_int_markov"][last].max()


class TestFig4:
    @pytest.fixture
    def result(self, fig4_result):
        return fig4_result

    def test_linear_envelope_is_exponential(self, result):
        ts, q = result.times, result.series["meanQ_linear"]
        aq = np.abs(q)
        idx = [0] + [i for i in range(1, len(ts) - 1)
                     if aq[i] >= aq[i - 1] and aq[i] >= aq[i + 1] and aq[i] > 1e-6]
        logs = np.log(aq[idx])
        coef = np.polyfit(ts[idx], logs, 1)
        assert -coef[0] == pytest.approx(0.15, rel=0.05)

    def test_quadratic_bath_freezes(self, result):
        # fast first-stage decay of the |<Q>| peak envelope, then a much
        # slower tail (peak-to-peak local rates)
        ts, q = result.times, result.series["meanQ_quadratic"]
        aq = np.abs(q)
        idx = [0] + [i for i in range(1, len(ts) - 1)
                     if aq[i] >= aq[i - 1] and aq[i] >= aq[i + 1] and aq[i] > 1e-6]
        tp, vp = ts[idx], aq[idx]
        rates = -np.diff(np.log(vp)) / np.diff(tp)
        assert rates[0] > 3 * abs(rates[-1])

    def test_visibility_ordering(self, result):
        assert result.meta["c_quadratic_first_collision_visibility"] \
            > result.meta["b_linear_first_collision_visibility"]
        assert result.meta["c_quadratic_first_collision_visibility"] > 0.9


class TestArtifacts:
    def test_csv_determinism(self, tmp_path):
        cfg = {"time": {"span": 3.0, "points": 24}, "qgrid": {"points": 128}}
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            sc.write_result(sc.run_fig2(sc.fig2_config(cfg)), str(out))
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_series_csv_roundtrip(self, tmp_path):
        # the Fock run writes its trajectory observables too
        for solver in ("cumulant", "fock"):
            cfg = sc.fig1_config({"time": {"span": 2.0, "points": 10},
                                  "solver": {"kind": solver}, "emit_frames": False})
            result = sc.run_fig1(cfg)
            files = sc.write_result(result, str(tmp_path / solver))
            rows = open(files[0]).read().strip().splitlines()
            assert rows[0] == "t,observable,value"
            parsed = {}
            for line in rows[1:]:
                t, name, v = line.split(",")
                parsed.setdefault(name, []).append((float(t), float(v)))
            assert set(parsed) == set(result.series)
            for name, pairs in parsed.items():
                for (t, v), tv, vv in zip(pairs, result.times, result.series[name]):
                    assert t == tv and v == vv
        assert {"meanQ", "V", "parity", "purity", "trace"} <= set(parsed)

    def test_json_output(self, tmp_path):
        cfg = sc.fig1_config({"time": {"span": 2.0, "points": 10},
                              "qgrid": {"points": 64}})
        result = sc.run_fig1(cfg)
        files = sc.write_result(result, str(tmp_path), fmt="json")
        payload = json.load(open(files[0]))
        assert payload["scenario"] == "fig1"
        assert payload["series"]["V"][0] == 0.5
        assert len(payload["frames"]) == 10

    def test_gnuplot_script(self, tmp_path):
        cfg = sc.fig1_config({"time": {"span": 2.0, "points": 10},
                              "qgrid": {"points": 64}})
        files = sc.write_result(sc.run_fig1(cfg), str(tmp_path), gnuplot=True)
        gp = [f for f in files if f.endswith(".gp")]
        assert gp and "fig1_series.csv" in open(gp[0]).read()


class TestCli:
    def test_fig_run_and_exit_codes(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        rc = cli.main(["fig1", "--out", out, "--set", "time.span=2.0",
                       "--set", "time.points=10", "--set", "qgrid.points=64"])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "fig1_series.csv"))

    def test_set_override_changes_physics(self, tmp_path):
        base = sc.fig1_config({"time": {"span": 2.0, "points": 10},
                               "emit_frames": False})
        changed = sc.fig1_config({"time": {"span": 2.0, "points": 10},
                                  "emit_frames": False,
                                  "bath": {"gamma": 0.3}})
        v1 = sc.run_fig1(base).series["V"][-1]
        v2 = sc.run_fig1(changed).series["V"][-1]
        assert v1 != v2

    def test_validation_error_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "bath": {"kind": "quadratic-markov", "Gamma": 0.1},
            "initial": {"kind": "coherent", "alpha": 1.0},
            "solver": {"kind": "cumulant"},
            "time": {"span": 1.0, "points": 5}}))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 1

    def test_numerical_failure_exit_2(self, tmp_path):
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps({
            "bath": {"kind": "linear-markov", "gamma": 0.05, "nbar": 0.0},
            "initial": {"kind": "cat", "alpha": 2.0, "phi": 0.0},
            "solver": {"kind": "fock", "dim": 8},
            "time": {"span": 1.0, "points": 5}}))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2

    def test_bad_set_syntax_exit_1(self, tmp_path):
        assert cli.main(["fig1", "--out", str(tmp_path), "--set", "oops"]) == 1

    def test_overdamped_override_exit_1(self, tmp_path, capsys):
        rc = cli.main(["fig1", "--out", str(tmp_path), "--set", "bath.gamma=2.0"])
        assert rc == 1
        assert "underdamped" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ("bath.gamma=NaN", "gamma"),
        ("time.span=Infinity", "time.span"),
        ("initial.alpha=NaN", "initial.alpha"),
        ("initial.phi=NaN", "initial.phi"),
        ("time.points=NaN", "time.points"),
        ("bath.gamma=[1]", "bath.gamma"),
        ("a.dim=NaN", "a.dim"),
        ("bc.points=NaN", "bc.points"),
        ("solver.rtol=NaN", "solver.rtol"),
        ("solver.atol=-1", "solver.atol"),
        ("early_gamma0=NaN", "early_gamma0"),
        ("bc.kT=-1", "bc.kT"),
        ("a.points=1", "a.points"),
        ("scenario=../escape", "scenario"),
        ("initial.alpha=0", "initial.alpha"),
        ("bc.alpha=0", "bc.alpha"),
        ("time.points=1e12", "time.points"),
        ("qgrid.points=1e9", "qgrid.points"),
        ("bc.points=1e12", "bc.points"),
        ("time.points=10000", "qgrid.points"),
        ("solver.dim=1e6", "solver.dim"),
        ("solver.dim=200", "solver.dim"),
        ("a.dim=1001", "a.dim"),
        ("a.dim=1", "a.dim"),
        ("bc.dim=300", "bc.dim"),
        ("omega=1e6", "omega * time.span"),
        (TINY_CATS[0], "initial.alpha"),
        (TINY_CATS[1], "bc.alpha"),
        ("solver.kind=analytic", "solver.kind"),
        (STRONG_COMB, "bath.comb.total_coupling_sq"),
    ])
    def test_non_finite_override_fails_fast(self, tmp_path, override, key):
        # run in a child process: before validation caught these, some hung
        # the solver, some wrote outside --out, others failed with a
        # misleading message or none; early_gamma0 belongs to fig3, the a.*
        # and bc.* leaves to fig4, fig2's initial state is a cat and fig3 is
        # a Fock run
        figure = {"initial.alpha=0": "fig2", "solver.dim=1e6": "fig3",
                  "solver.dim=200": "fig3"}.get(override) or {
            "early_gamma0": "fig3", "a": "fig4", "bc": "fig4"}.get(
            override.split("=")[0].split(".")[0], "fig1")
        text = {"scenario=../escape": "plain file name",
                "time.points=10000": "when frames are written",
                "solver.dim=200": "Fock state stack",
                "bc.dim=300": "Fock state stack",
                "omega=1e6": "cumulant solve",
                "solver.kind=analytic": "must be one of",
                STRONG_COMB: "no ground state"}.get(
            override, "normalisation" if override in TINY_CATS else "finite")
        proc = run_child("-m", "oscbath.cli", figure, "--out",
                         str(tmp_path / "inner"), "--set", override)
        assert proc.returncode == 1
        assert key in proc.stderr and text in proc.stderr
        assert os.listdir(tmp_path) == []

    def test_cumulant_step_budget_exit_2_naming_t(self, tmp_path, capsys,
                                                  monkeypatch):
        # the budget backs up the omega * time.span bound: a solve that
        # still runs out of evaluations is a numerical failure
        import oscbath.cumulant as cum

        monkeypatch.setattr(cum, "MAX_RHS_EVALS", 30)
        rc = cli.main(["fig1", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "step budget" in err and "at t=" in err
        assert not (tmp_path / "o").exists()

    def test_integrate_and_optimize_imported_lazily(self, tmp_path):
        # a config error loads none of the scipy subpackages the solvers use
        code = (
            "import sys\n"
            "import oscbath.cli\n"
            "lazy = ('scipy.integrate', 'scipy.optimize', 'scipy.linalg',\n"
            "        'scipy.sparse')\n"
            "print(sorted(set(lazy) & set(sys.modules)))\n"
            "rc = oscbath.cli.main(['fig1', '--out', sys.argv[1],\n"
            "                       '--set', 'bath.gamma=NaN'])\n"
            "print(rc, sorted(set(lazy) & set(sys.modules)))\n")
        proc = run_child("-c", code, str(tmp_path / "o"))
        assert proc.stdout.splitlines() == ["[]", "1 []"], proc.stderr

    def test_fig3_needs_rwa_dissipator(self, tmp_path, capsys):
        # fig3 subtracts the RWA mixture in closed form, so another
        # dissipator would give a wrong interference series
        out = tmp_path / "o"
        rc = cli.main(["fig3", "--out", str(out), "--set",
                       "solver.dissipator=linear-nonrwa"])
        assert rc == 1
        assert "solver.dissipator" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_fig4_basis_exit_2(self, tmp_path, capsys):
        # alpha0 = -1.1 loses 6.8e-9 of its probability on 12 levels: a
        # truncation, not a malformed state
        rc = cli.main(["fig4", "--out", str(tmp_path), "--set", "a.dim=12"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "enlarge dim" in err and "unit trace" not in err

    def test_missing_config_exit_1(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "none.json")]) == 1

    def test_acceptance_exit_codes(self, tmp_path, monkeypatch):
        # wiring only; the criteria themselves run in test_acceptance.py
        import oscbath.acceptance as acc

        def fake_run(out_path=None, echo=print):
            report = {"passed": False, "n_passed": 7, "n_total": 10,
                      "criteria": []}
            if out_path:
                with open(out_path, "w") as fh:
                    json.dump(report, fh)
            return report

        monkeypatch.setattr(acc, "run_acceptance", fake_run)
        assert cli.main(["acceptance", "--out", str(tmp_path)]) == 3
        monkeypatch.setattr(acc, "run_acceptance",
                            lambda out_path=None, echo=print: {
                                "passed": True, "n_passed": 10, "n_total": 10,
                                "criteria": []})
        assert cli.main(["acceptance", "--out", str(tmp_path)]) == 0

    def test_run_custom_config(self, tmp_path):
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps({
            "scenario": "demo",
            "bath": {"kind": "linear-markov", "gamma": 0.05, "nbar": 0.1},
            "initial": {"kind": "coherent", "alpha": 1.0},
            "solver": {"kind": "cumulant"},
            "time": {"span": 2.0, "points": 10},
            "qgrid": {"points": 64}}))
        out = str(tmp_path / "o")
        assert cli.main(["run", str(cfg), "--out", out, "--format", "json"]) == 0
        assert os.path.exists(os.path.join(out, "demo.json"))
