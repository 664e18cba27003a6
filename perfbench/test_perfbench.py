"""Tests of the benchmark itself: reduced-size operations, checks and tracer.

    python3 -m pytest perfbench

Every workload's operation and check run here at reduced size in a few
seconds.  Each check is shown to reject a perturbed output.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from calibration import CALIB_REF_S
import worker
import workloads
from oscbath import bath, fock, wavepacket
from oscbath import scenarios as sc
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    out = {}
    for name in workloads.NAMES:
        wl = workloads.make(name, seed=0, small=True)
        wl.configs()
        out[name] = (wl, wl.operation(str(tmp_path_factory.mktemp(name))))
    return out


def perturbed(ops, name):
    wl, op = ops[name]
    return wl, copy.deepcopy(op)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_small_operation_passes_its_check(ops, name):
    wl, op = ops[name]
    assert wl.check(op) == []


@pytest.mark.parametrize("name", workloads.NAMES)
def test_shifted_seed_passes_its_check(tmp_path, name):
    wl = workloads.make(name, seed=7, small=True)
    assert wl.check(wl.operation(str(tmp_path))) == []


def test_seed_zero_is_the_shipped_preset():
    assert workloads.make("fig4", 0).configs()[0].raw == sc.fig4_config().raw


def test_seeds_are_reproducible_and_distinct():
    def raw(seed):
        return [c.raw for c in workloads.make("comb-cat", seed).configs()]
    assert raw(3) == raw(3)
    assert raw(3) != raw(4)


def test_rejects_shifted_linear_mean(ops):
    wl, op = perturbed(ops, "fig4")
    op.results[0].series["meanQ_linear"] += 1e-3
    assert any("linear <Q>" in f for f in wl.check(op))


def test_rejects_shifted_oracle_mean(ops):
    wl, op = perturbed(ops, "comb-oracle")
    op.results[1].series["meanQ"] += 1e-3
    assert any("meanQ Fock vs cumulant" in f for f in wl.check(op))


@pytest.mark.parametrize("name", ["fig4", "comb-cat"])
def test_rejects_scaled_frame(ops, name):
    wl, op = perturbed(ops, name)
    result = op.results[0]
    frames = result.extra_frames["b_linear"] if name == "fig4" else result.frames
    frames[3].density = frames[3].density * 1.001
    assert any("integrates to" in f for f in wl.check(op))


def test_rejects_frame_off_the_fock_oracle(ops):
    wl, op = perturbed(ops, "comb-cat")
    frame = op.results[0].frames[2]
    # move density between two grid points: the norm is kept, the shape is not
    frame.density = frame.density.copy()
    frame.density[100] += 1e-5
    frame.density[101] -= 1e-5
    fails = wl.check(op)
    assert fails and all("Fock oracle" in f for f in fails)


@pytest.mark.parametrize("which", ["a_quadratic", "c_quadratic"])
def test_rejects_odd_parity(ops, which):
    wl, op = perturbed(ops, "fig4")
    meta = op.results[0].meta
    traj = meta["a_trajectories"][1] if which == "a_quadratic" \
        else meta["c_quadratic_trajectory"]
    s = traj.states[5]
    s[0, 0] -= 1e-6  # trace kept, one odd level populated
    s[1, 1] += 1e-6
    fails = wl.check(op)
    assert fails and all("parity" in f for f in fails)


def test_rejects_wrong_visibility(ops):
    wl, op = perturbed(ops, "fig4")
    op.results[0].meta["b_linear_first_collision_visibility"] *= 1.001
    assert any("visibility" in f for f in wl.check(op))


def test_digest_changes_with_one_artifact_byte(tmp_path):
    wl = workloads.make("comb-oracle", 0, small=True)
    files = wl.operation(str(tmp_path)).files
    before = workloads.artifact_digest(files)
    data = bytearray(Path(files[0]).read_bytes())
    data[len(data) // 2] ^= 1
    Path(files[0]).write_bytes(bytes(data))
    assert workloads.artifact_digest(files) != before


def test_digest_mismatch_counts_operation_failed(tmp_path):
    wl = workloads.make("comb-oracle", 0, small=True)
    out = {"attempted": 0, "failed": 0, "failures": [], "run_s": [], "solve_s": [],
           "traced_run_s": [], "raw_run_s": [], "raw_solve_s": [], "calib_s": [0.3],
           "digest": "0" * 64}
    worker._run_one(wl, None, str(tmp_path), out)
    assert out["failed"] == 1 and out["failures"] == []
    # the time is scaled by the calibrations right before and after it
    scale = CALIB_REF_S / (0.5 * (0.3 + out["calib_s"][1]))
    assert out["run_s"] == [pytest.approx(out["raw_run_s"][0] * scale)]


def test_tracer_counts_layers_and_restores(tmp_path):
    originals = (bath.gamma_functions, fock.gamma_functions, fock.Liouvillian.apply,
                 sc.ScenarioConfig.from_dict)
    wl = workloads.make("comb-oracle", 0, small=True)
    with Tracer() as tracer:
        wl.operation(str(tmp_path))
    m = tracer.metrics(1)
    assert m["cumulant.evolve.calls"] == 1
    assert m["fock.integrate.calls"] == 1
    assert m["fock.steps.accepted"] > 0
    assert m["cumulant.rhs_evals"] > 0
    # the cumulant RHS calls it twice; the Fock run adds calls through fock
    assert m["bath.gamma_functions.calls"] > 2 * m["cumulant.rhs_evals"]
    assert m["fock.apply.us_per_call.d30"] > 0
    assert m["scenarios.config.s"] > 0
    assert (bath.gamma_functions, fock.gamma_functions, fock.Liouvillian.apply,
            sc.ScenarioConfig.from_dict) == originals


def test_tracer_marks_missing_name_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(wavepacket, "density_frame")
    wl = workloads.make("comb-oracle", 0, small=True)
    with Tracer() as tracer:
        wl.operation(str(tmp_path))
    m = tracer.metrics(1)
    assert m["wavepacket.density_frame.calls"] is None
    assert m["wavepacket.density_frame.s"] is None
    assert m["fock.integrate.calls"] == 1
    assert not hasattr(wavepacket, "density_frame")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES) \
        == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
