import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from timps import __version__, cli, transfer
from timps.cli import EXPERIMENTS, main
from timps.config import DEFAULT_TOLS, TOLERANCES
from timps.errors import NotInEError, NotPositiveError
from timps.families import FAMILY_SPECS, make_sphere_mesh, psi2_sphere_family
from timps.invariants import curvature_report, link_field
from timps.transfer import fixed_point


def run_cli(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_gamma_check_writes_artifacts(tmp_path):
    assert run_cli(["gamma-check", "--out", tmp_path]) == 0
    csv_text = (tmp_path / "gamma-check.csv").read_text()
    first = csv_text.splitlines()[0]
    assert first.startswith(f"# timps {__version__} experiment=gamma-check seed=none rng=PCG64")
    doc = read_json(tmp_path / "gamma-check.json")
    assert doc["pass"] is True
    assert doc["summary"]["max_isometry_dev"] <= 1e-12
    assert doc["meta"]["rng"] == "PCG64"


def test_aklt_sweep(tmp_path):
    assert run_cli(["aklt-sweep", "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "aklt-sweep.json")
    assert doc["summary"]["discontinuity_gap"] == 1.0
    header, columns, *rows = (tmp_path / "aklt-sweep.csv").read_text().splitlines()
    assert columns == "g,f_value,xi,lambda2,spectrum_dev,fixed_point_dev"
    assert len(rows) == 19


def test_chern_psi2(tmp_path):
    assert run_cli(["chern", "--family", "psi2", "--mesh", "16x16",
                    "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "chern.json")
    assert doc["summary"]["chern"] == 1
    assert doc["summary"]["residual"] < 1e-3
    assert doc["summary"]["flagged_plaquettes"] == []
    rows = (tmp_path / "chern.csv").read_text().splitlines()
    assert rows[1] == "plaquette_id,theta_lo,phi_lo,curvature"
    assert len(rows) == 2 + 16 * 16


def test_chern_family_spec_file(tmp_path):
    spec = {"family": "aklt", "params": {"g": 0.4}}
    spec_path = tmp_path / "family.json"
    spec_path.write_text(json.dumps(spec))
    assert run_cli(["chern", "--family", f"@{spec_path}", "--mesh", "8x8",
                    "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "chern.json")
    assert doc["summary"]["chern"] == 0


@pytest.mark.parametrize("w4", [0.5, -0.5])
def test_chern_on_the_overlap_band_edges(tmp_path, w4):
    # rounding puts |w| / sqrt(3) just above 1/2 on most vertices of these slices
    spec_path = tmp_path / "family.json"
    spec_path.write_text(json.dumps({"family": "pump", "params": {"w4": w4}}))
    assert run_cli(["chern", "--family", f"@{spec_path}", "--mesh", "16x16",
                    "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "chern.json")
    assert doc["summary"]["chern"] == 0
    assert doc["summary"]["flagged_plaquettes"] == []


# an overflowing left Gram matrix is refused as non-finite, an underflowing one as zero
@pytest.mark.parametrize("scale, message", [
    (1e160, "tensor has a non-finite left Gram matrix (entries too large or not finite)"),
    (1e-200, "tensor has numerically zero left Gram matrix"),
], ids=["overflow", "underflow"])
def test_chern_refuses_scaled_custom_tensors(tmp_path, capsys, scale, message):
    spec_path = tmp_path / "family.json"
    spec_path.write_text(json.dumps(_psi2_spec(4, scale)))
    assert run_cli(["chern", "--family", f"@{spec_path}", "--mesh", "4x4",
                    "--out", tmp_path]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == [f"NotInEError: {message}"]


def test_oracle_check_seeded(tmp_path):
    assert run_cli(["oracle-check", "--seed", 7, "--trials", 12,
                    "--gauge-trials", 6, "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "oracle-check.json")
    assert doc["summary"]["max_oracle_dev"] <= 1e-9
    assert doc["summary"]["max_gauge_dev"] <= 1e-9
    assert doc["meta"]["seed"] == 7


def test_retract_sweep_seeded(tmp_path):
    assert run_cli(["retract-sweep", "--seed", 3, "--count", 6,
                    "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "retract-sweep.json")
    assert doc["pass"] is True


def test_contract_sweep_seeded(tmp_path):
    assert run_cli(["contract-sweep", "--seed", 2, "--count", 4,
                    "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "contract-sweep.json")
    assert doc["summary"]["max_endpoint_cross_dev"] <= 1e-12


def test_pump_boundary(tmp_path):
    assert run_cli(["pump-boundary", "--seed", 5, "--mesh", "8x8",
                    "--samples", 20, "--overlap-samples", 10,
                    "--annulus-samples", 10, "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "pump-boundary.json")
    assert doc["summary"]["chern"] == {"8x8": 1}


def test_missing_seed_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["oracle-check", "--out", tmp_path])
    assert err.value.code == 2


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["oracle-check", "--seed", 42, "--trials", 8,
                        "--gauge-trials", 4, "--out", out]) == 0
    assert (a / "oracle-check.csv").read_bytes() == (b / "oracle-check.csv").read_bytes()
    assert (a / "oracle-check.json").read_bytes() == (b / "oracle-check.json").read_bytes()


def test_window_max_beyond_the_cap_is_clamped_fast(tmp_path):
    # WINDOW_CAP = 4096 allows at most 12 sites (d = 2), so every window_max
    # from 12 up draws the same windows; seed 12 draws a 7-site d = 2 window
    args = ["oracle-check", "--seed", 12, "--trials", 4, "--gauge-trials", 0]
    start = time.perf_counter()
    assert run_cli(args + ["--window-max", 10**9, "--out", tmp_path / "huge"]) == 0
    assert time.perf_counter() - start < 10.0
    assert run_cli(args + ["--window-max", 12, "--out", tmp_path / "cap"]) == 0
    huge = (tmp_path / "huge" / "oracle-check.csv").read_text()
    assert huge == (tmp_path / "cap" / "oracle-check.csv").read_text()
    assert "oracle,0,2,1,7," in huge
    docs = [read_json(tmp_path / out / "oracle-check.json") for out in ("huge", "cap")]
    assert [doc["params"].pop("window_max") for doc in docs] == [10**9, 12]
    assert docs[0] == docs[1]


def test_oracle_check_runs_cap_sized_windows(tmp_path):
    # seed 1 draws d = 4, n = 6 windows (4096 = WINDOW_CAP) at trials 7 and 14
    args = ["oracle-check", "--seed", 1, "--trials", 16, "--gauge-trials", 4,
            "--window-max", 12]
    for out in ("a", "b"):
        assert run_cli(args + ["--out", tmp_path / out]) == 0
    csv_text = (tmp_path / "a" / "oracle-check.csv").read_text()
    assert "oracle,7,4,2,6," in csv_text and "oracle,14,4,1,6," in csv_text
    assert read_json(tmp_path / "a" / "oracle-check.json")["pass"] is True
    for name in ("oracle-check.csv", "oracle-check.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _oracle_cores(monkeypatch):
    """Record the cores oracle-check draws: each oracle trial's core, and
    each gauge trial's dec_a.K and dec_b.K, as bytes in trial order."""
    drawn = {"oracle": [], "gauge": []}
    real_core, real_moved = cli.random_core, cli._gauge_moved

    def random_core(*args, **kwargs):
        out = real_core(*args, **kwargs)
        drawn["oracle"] += [K.mats.tobytes() for K, _ in out]
        return out

    def gauge_moved(*args, **kwargs):
        out = real_moved(*args, **kwargs)
        drawn["gauge"] += [(a.K.tobytes(), b.K.tobytes()) for a, b in out]
        return out

    monkeypatch.setattr(cli, "random_core", random_core)
    monkeypatch.setattr(cli, "_gauge_moved", gauge_moved)
    return drawn


def test_gauge_trials_take_one_fixed_point_per_tensor(tmp_path, monkeypatch):
    # each of the 300 cores (100 oracle trials, two per gauge trial) reaches
    # fixed_point exactly once, in no more calls than there are trial groups
    passed, calls = [], []

    def counted(K, *args, **kwargs):
        cores = [K] if hasattr(K, "mats") or getattr(K, "ndim", 0) == 3 else list(K)
        passed.extend(np.asarray(getattr(k, "mats", k)).tobytes() for k in cores)
        calls.append(len(cores))
        return fixed_point(K, *args, **kwargs)

    drawn = _oracle_cores(monkeypatch)
    monkeypatch.setattr(cli, "fixed_point", counted)
    assert run_cli(["oracle-check", "--seed", 0, "--out", tmp_path]) == 0
    cores = drawn["oracle"] + [K for pair in drawn["gauge"] for K in pair]
    assert len(cores) == len(set(cores)) == 300
    assert sorted(passed) == sorted(cores)
    rows = [line.split(",") for line in
            (tmp_path / "oracle-check.csv").read_text().splitlines()[2:]]
    groups = {(kind, d, chi, n if kind == "oracle" else None) for kind, _, d, chi, n, _ in rows}
    assert len(rows) == 200 and len(calls) <= len(groups)


_FIXED_POINTS = transfer._fixed_points


def _refuse(monkeypatch, refusals):
    """Make the stacked fixed-point pass refuse the cores given, by bytes."""
    def refusing(mats, tols):
        out = _FIXED_POINTS(mats, tols)
        return [refusals.get(m.tobytes(), fp) for m, fp in zip(mats, out)]

    monkeypatch.setattr(transfer, "_fixed_points", refusing)


def _failures(tmp_path, args):
    assert run_cli(["oracle-check", "--seed", 3, *args, "--out", tmp_path]) == 1
    return json.loads((tmp_path / "oracle-check.json").read_text())["failures"]


def test_oracle_check_raises_the_first_failure_in_trial_order(tmp_path, monkeypatch):
    args = ["--trials", 12, "--gauge-trials", 6, "--window-max", 3]
    drawn = _oracle_cores(monkeypatch)
    assert run_cli(["oracle-check", "--seed", 3, *args, "--out", tmp_path]) == 0
    oracle, gauge = drawn["oracle"][:12], drawn["gauge"][:6]
    # trials 9 (d=3) and 6 (d=4) sit in different groups, and the d=3 group
    # is decided first
    _refuse(monkeypatch, {oracle[9]: NotPositiveError("at trial 9"),
                          oracle[6]: NotPositiveError("at trial 6")})
    assert _failures(tmp_path, args) == ["NotPositiveError: at trial 6"]
    # an earlier trial's refusal comes before the sampler's trailing error
    real_core = cli.random_core
    monkeypatch.setattr(cli, "random_core", lambda *a, **k: real_core(*a, **k)[:8] + [
        NotInEError("draw of trial 8 failed")])
    assert _failures(tmp_path, args) == ["NotPositiveError: at trial 6"]
    _refuse(monkeypatch, {})
    assert _failures(tmp_path, args) == ["NotInEError: draw of trial 8 failed"]
    monkeypatch.setattr(cli, "random_core", real_core)
    # gauge trials: a before b within a trial, and trial 2 (chi=2) before
    # trial 3 (chi=1)
    _refuse(monkeypatch, {gauge[3][0]: NotPositiveError("a of trial 3"),
                          gauge[2][1]: NotPositiveError("b of trial 2"),
                          gauge[2][0]: NotPositiveError("a of trial 2")})
    assert _failures(tmp_path, args) == ["NotPositiveError: a of trial 2"]
    _refuse(monkeypatch, {gauge[3][0]: NotPositiveError("a of trial 3"),
                          gauge[2][1]: NotPositiveError("b of trial 2")})
    assert _failures(tmp_path, args) == ["NotPositiveError: b of trial 2"]


@pytest.mark.parametrize("seed", [1, 3])
def test_oracle_check_windows_give_the_one_window_artifacts(tmp_path, monkeypatch, seed):
    # windows of 7 trials: both trial sets span several, the last one partial
    args = ["oracle-check", "--seed", seed, "--trials", 40, "--gauge-trials", 20]
    assert run_cli(args + ["--out", tmp_path / "one"]) == 0
    monkeypatch.setattr(cli, "CHUNK", 7)
    assert run_cli(args + ["--out", tmp_path / "windows"]) == 0
    for name in ("oracle-check.csv", "oracle-check.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "windows" / name).read_bytes()


def test_oracle_check_windows_raise_the_first_failure_in_trial_order(tmp_path, monkeypatch):
    args = ["--trials", 12, "--gauge-trials", 6, "--window-max", 3]
    drawn = _oracle_cores(monkeypatch)
    assert run_cli(["oracle-check", "--seed", 3, *args, "--out", tmp_path]) == 0
    oracle, gauge = drawn["oracle"][:12], drawn["gauge"][:6]
    monkeypatch.setattr(cli, "CHUNK", 4)  # trials 6 and 9, and 2 and 5, in different windows
    _refuse(monkeypatch, {oracle[9]: NotPositiveError("at trial 9"),
                          oracle[6]: NotPositiveError("at trial 6")})
    assert _failures(tmp_path, args) == ["NotPositiveError: at trial 6"]
    _refuse(monkeypatch, {gauge[5][0]: NotPositiveError("a of trial 5"),
                          gauge[2][1]: NotPositiveError("b of trial 2")})
    assert _failures(tmp_path, args) == ["NotPositiveError: b of trial 2"]


def test_oracle_check_reports_a_failed_gauge_move(tmp_path, monkeypatch):
    # apply_gauge ends its list with the error of the first move it cannot apply
    real = cli.apply_gauge
    monkeypatch.setattr(cli, "apply_gauge", lambda decs, moves, tols: real(
        decs[:2], moves[:2], tols) + [NotInEError("move of trial 2 failed")])
    assert _failures(tmp_path, ["--trials", 0, "--gauge-trials", 6]) == [
        "NotInEError: move of trial 2 failed"]


@pytest.mark.parametrize("kind", ["oracle", "gauge"])
def test_oracle_trials_add_only_their_rows_to_the_peak(monkeypatch, kind):
    # 2 and then 4 windows of 64 trials: the larger run holds 128 more rows,
    # but no larger window; holding every trial added about 2.4 KB (oracle)
    # and 6.5 KB (gauge) of traced memory a trial
    monkeypatch.setattr(cli, "CHUNK", 64)

    def traced_peak(trials):
        params = {"trials": trials if kind == "oracle" else 0,
                  "gauge_trials": trials if kind == "gauge" else 0, "window_max": 5}
        tracemalloc.start()
        try:
            cli._exp_oracle_check(params, np.random.default_rng(1), DEFAULT_TOLS)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(4)  # lazy imports and caches
    small, large = traced_peak(2 * cli.CHUNK), traced_peak(4 * cli.CHUNK)
    assert large - small < 500 * 2 * cli.CHUNK


def test_aklt_sweep_refuses_the_rank_one_endpoint(tmp_path, capsys):
    # aklt_path(0) is the rank-1 endpoint, off the sweep's 2 sqrt(1 - g^2)
    # checks: a sweep starting there exited 1 on input the schema passed
    assert run_cli(["aklt-sweep", "--g-start", "0", "--out", tmp_path / "zero"]) == 2
    assert "g_start must be a number in (0, 1], got 0.0" in capsys.readouterr().err
    assert not (tmp_path / "zero").exists()
    assert run_cli(["aklt-sweep", "--g-start", "1e-3", "--g-stop", "1e-3",
                    "--out", tmp_path / "small"]) == 0
    doc = read_json(tmp_path / "small" / "aklt-sweep.json")
    assert doc["summary"]["invariant_at_g0_tensor"] == 1.0


def test_tolerance_override_applies(tmp_path):
    assert run_cli(["gamma-check", "--tol", "eps_rank=1e-8",
                    "--out", tmp_path]) == 0
    assert run_cli(["gamma-check", "--tol", "bogus=1", "--out", tmp_path]) == 2


def test_run_config_file(tmp_path):
    config = {
        "experiment": "aklt-sweep",
        "out": str(tmp_path / "results"),
        "params": {"g_start": 0.1, "g_stop": 0.9, "g_step": 0.1},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["run", cfg]) == 0
    doc = read_json(tmp_path / "results" / "aklt-sweep.json")
    assert doc["pass"] is True


@pytest.mark.parametrize("config", [
    {"experiment": "aklt-sweep", "bogus": 1},
    {"experiment": "unknown"},
    {"experiment": "aklt-sweep", "params": {"bad_key": 2}},
    {"experiment": "oracle-check"},
    {"experiment": "aklt-sweep", "seed": "not-an-int"},
])
def test_run_config_rejects_bad_documents(tmp_path, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["run", cfg]) == 2


@pytest.mark.parametrize("args", [
    ["gamma-check", "--t-steps", "1"],
    ["contract-sweep", "--seed", "1", "--s-steps", "1"],
    ["aklt-sweep", "--g-step", "0"],
    ["retract-sweep", "--seed", "1", "--chi", "1"],
])
def test_unrunnable_parameters_exit_two(tmp_path, capsys, args):
    assert run_cli(args + ["--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 8.00 GiB for an array"),
     "config error: Unable to allocate 8.00 GiB for an array\n"),
    (MemoryError(), "config error: MemoryError\n"),
])
def test_an_allocation_failure_exits_two_without_artifacts(tmp_path, capsys, monkeypatch,
                                                           error, line):
    def exhausted(params, rng, tols):
        raise error

    monkeypatch.setitem(EXPERIMENTS, "gamma-check",
                        EXPERIMENTS["gamma-check"]._replace(body=exhausted))
    assert run_cli(["gamma-check", "--out", tmp_path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)
    assert not (tmp_path / "gamma-check.csv").exists()
    assert not (tmp_path / "gamma-check.json").exists()


def test_run_config_missing_file(tmp_path):
    assert run_cli(["run", tmp_path / "nope.json"]) == 2


def test_domain_failure_exits_one(tmp_path):
    # a family with a rank jump across the mesh is an assertion-type failure
    from timps.families import aklt_path, make_sphere_mesh
    from timps.tensors import tensor_to_json

    mesh = make_sphere_mesh(4, 4)
    tensors = [tensor_to_json(aklt_path(0.5))] * len(mesh.theta)
    tensors[3] = tensor_to_json(aklt_path(0.0))
    spec = {"family": "custom", "params": {"tensors": tensors}}
    spec_path = tmp_path / "family.json"
    spec_path.write_text(json.dumps(spec))
    code = run_cli(["chern", "--family", f"@{spec_path}", "--mesh", "4x4",
                    "--out", tmp_path])
    assert code == 1
    doc = read_json(tmp_path / "chern.json")
    assert doc["pass"] is False
    assert "RankMismatchError" in doc["failures"][0]


@pytest.mark.parametrize("args", [
    ["retract-sweep", "--seed", 1, "--count", 6, "--tol", "eps_rank=0.5"],
    ["retract-sweep", "--seed", 1, "--count", 6, "--tol", "tol_distinct=0.99"],
    ["retract-sweep", "--seed", 1, "--count", 12, "--tol", "tol_gap=0.9"],
    ["contract-sweep", "--seed", 1, "--count", 4, "--tol", "eps_rank=0.5"],
    ["oracle-check", "--seed", 1, "--trials", 2, "--gauge-trials", 2, "--tol", "eps_rank=0.5"],
], ids=["retract-eps_rank", "retract-tol_distinct", "retract-tol_gap",
        "contract-eps_rank", "oracle-eps_rank"])
def test_exhausted_draws_exit_one_with_a_report(tmp_path, capsys, args):
    # every draw is refused at these tolerances; the sampler gives up
    code = run_cli(args + ["--out", tmp_path])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert read_json(tmp_path / f"{args[0]}.json")["pass"] is False
    assert "Traceback" not in err


def test_undecomposable_retraction_outputs_keep_the_report(tmp_path, capsys):
    # at tol_norm = 5e-15 roundoff alone refuses some retracted tensors, some
    # of their gauge-moved partners and one gauge-moved input
    code = run_cli(["retract-sweep", "--seed", 1, "--count", 20, "--tol", "tol_norm=5e-15",
                    "--out", tmp_path])
    out, err = capsys.readouterr()
    assert code == 1
    failures = json.loads(out)["failures"]
    assert failures == read_json(tmp_path / "retract-sweep.json")["failures"]
    assert all(re.match(r"case \d+( t=[0-9.]+)?: ", f) for f in failures)
    assert "case 1 t=0.5: output not decomposable (core is not " \
           "right-normalized: residual 5.246e-15)" in failures
    assert any(": gauge-moved output not decomposable (" in f for f in failures)
    assert any(": gauge-moved input not decomposable (" in f for f in failures)
    assert len((tmp_path / "retract-sweep.csv").read_text().splitlines()) == 2 + 20 * 5
    assert "Traceback" not in err


def _custom_spec_with_charts():
    """A custom family that runs on a 4x4 mesh but for its chart labels."""
    from timps.families import aklt_path, make_sphere_mesh
    from timps.tensors import tensor_to_json

    n = len(make_sphere_mesh(4, 4).theta)
    return {"family": "custom",
            "params": {"tensors": [tensor_to_json(aklt_path(0.5))] * n,
                       "charts": ["main"] * n}}


def _psi2_spec(n, scale=1.0):
    """A custom family of the psi2 tensors at the vertices of the n x n mesh,
    times ``scale``."""
    from timps.families import make_sphere_mesh, psi2_sphere_family
    from timps.tensors import MpsTensor, tensor_to_json

    mesh = make_sphere_mesh(n, n)
    return {"family": "custom", "params": {"tensors": [
        tensor_to_json(MpsTensor(m * scale))
        for m in psi2_sphere_family().stack(mesh.theta, mesh.phi)]}}


# (command-line arguments, or a config document; the parameter that the
# `config error:` line must name)
BAD_INPUTS = [
    (["contract-sweep", "--seed", "1", "--tol", "eps_rank=nan"], None, "eps_rank"),
    (["aklt-sweep", "--tol", "eps_rank=nan"], None, "eps_rank"),
    (["aklt-sweep", "--tol", "tol_gap=inf"], None, "tol_gap"),
    (["aklt-sweep", "--tol", "tol_gap=0"], None, "tol_gap"),
    (["aklt-sweep", "--tol", "tol_norm=-1e-8"], None, "tol_norm"),
    (["aklt-sweep", "--tol", "tol_norm=x"], None, "tol_norm"),
    (None, {"experiment": "aklt-sweep", "tolerances": {"eps_rank": "x"}}, "eps_rank"),
    (None, {"experiment": "aklt-sweep", "tolerances": {"eps_rank": True}}, "eps_rank"),
    (None, {"experiment": "aklt-sweep", "tolerances": {"eps_rank": None}}, "eps_rank"),
    (None, {"experiment": "aklt-sweep", "tolerances": {"eps_rank": 0}}, "eps_rank"),
    (None, {"experiment": "aklt-sweep", "tolerances": [["eps_rank", 1e-9]]}, "tolerances"),
    (None, {"experiment": "aklt-sweep", "tolerances": 1e-9}, "tolerances"),
    (None, {"experiment": "aklt-sweep", "tolerances": None}, "tolerances"),
    (None, {"experiment": "oracle-check", "seed": True}, "seed"),
    (None, {"experiment": "aklt-sweep", "seed": False}, "seed"),
    (None, {"experiment": "chern",
            "params": {"family": _custom_spec_with_charts(), "mesh": "4x4"}}, "charts"),
    # exited 1 with a traceback
    (["aklt-sweep", "--g-stop", "inf"], None, "g_stop"),
    (["aklt-sweep", "--g-step", "5e-324"], None, "g_step"),
    (None, {"experiment": "aklt-sweep", "out": 5}, "out"),
    (None, {"experiment": "gamma-check", "params": {"block": "x"}}, "block"),
    (None, {"experiment": "gamma-check", "params": {"block": 2.5}}, "block"),
    (None, {"experiment": "gamma-check", "params": {"phi": "bogus"}}, "phi"),
    (None, {"experiment": "contract-sweep", "seed": 1, "params": {"count": "3"}}, "count"),
    (None, {"experiment": "retract-sweep", "seed": 1, "params": {"count": None}}, "count"),
    (None, {"experiment": "retract-sweep", "seed": 1, "params": {"count": 2.0}}, "count"),
    (None, {"experiment": "aklt-sweep", "params": {"g_start": "0.1"}}, "g_start"),
    (None, {"experiment": "chern", "params": {"mesh": 16}}, "mesh"),
    (None, {"experiment": "pump-boundary", "seed": 1, "params": {"samples": 1.5}}, "samples"),
    (None, {"experiment": "oracle-check", "seed": 1, "params": {"trials": "2"}}, "trials"),
    # exited 0 after a vacuous or wrong run
    (["retract-sweep", "--seed", "1", "--count", "0"], None, "count"),
    (["retract-sweep", "--seed", "1", "--count", "-5"], None, "count"),
    (["oracle-check", "--seed", "1", "--trials", "-1", "--gauge-trials", "-1"], None,
     "trials"),
    (["aklt-sweep", "--g-start", "0.9", "--g-stop", "0.1"], None, "g_stop"),
    (None, {"experiment": "pump-boundary", "seed": 1, "params": {"meshes": []}}, "meshes"),
    (None, {"experiment": "aklt-sweep", "params": {"g_start": True}}, "g_start"),
    (None, {"experiment": "aklt-sweep", "params": []}, "params"),
    # exited 2 with a message that named no parameter
    (["gamma-check", "--block", "0"], None, "block"),
    (["contract-sweep", "--seed", "1", "--count", "0"], None, "count"),
    (["oracle-check", "--seed", "1", "--window-max", "0"], None, "window_max"),
    (["oracle-check", "--seed", "-1"], None, "seed"),
    (["aklt-sweep", "--g-step", "1.5"], None, "g_step"),
    # family spec contents of the wrong type: exited 1 with a traceback
    (None, {"experiment": "chern",
            "params": {"family": {"family": "pump", "params": {"w4": []}}}}, "w4"),
    (None, {"experiment": "chern",
            "params": {"family": {"family": "aklt", "params": {"g": None}}}}, "param g"),
    (None, {"experiment": "chern",
            "params": {"family": {"family": "custom", "params": {"tensors": 5}}}},
     "tensors"),
    # a falsy family params value: exited 0 as if it were {}
    *[(None, {"experiment": "chern",
              "params": {"family": {"family": "psi2", "params": falsy}}}, "params")
      for falsy in ([], 0, False, "", None)],
    # a custom family with more tensors than mesh vertices: exited 0 with the
    # tensors on the wrong vertices; with fewer, the message gave no counts
    (None, {"experiment": "chern", "params": {"family": _psi2_spec(8), "mesh": "4x4"}},
     "family custom has 58 tensors, but mesh 4x4 has 14 vertices"),
    (None, {"experiment": "chern", "params": {"family": _psi2_spec(4), "mesh": "8x8"}},
     "family custom has 14 tensors, but mesh 8x8 has 58 vertices"),
    # g_start = 0, the rank-1 endpoint: exited 1
    (["aklt-sweep", "--g-start", "0"], None, "g_start"),
    (None, {"experiment": "aklt-sweep", "params": {"g_start": 0}}, "g_start"),
    # one case too large for memory: exited 1 with a numpy traceback, or grew
    # past 3 GB; refused before any draw
    (["gamma-check", "--block", "100000"], None, "block"),
    (["retract-sweep", "--seed", "1", "--chi", "1000", "--count", "1"], None, "chis"),
    (["contract-sweep", "--seed", "1", "--count", "1", "--s-steps", "100000000"], None,
     "s_steps"),
    (None, {"experiment": "retract-sweep", "seed": 1, "params": {"chis": [2, 26]}}, "chis"),
    # a mesh past the bound: 1024x1024 peaked at 510 MB; 4096x4096 would need
    # about 8 GB
    (["chern", "--mesh", "586x586"], None, "mesh"),
    (["chern", "--mesh", "4096x4096"], None, "mesh"),
    (["pump-boundary", "--seed", "1", "--mesh", "16x16,4x85599"], None, "meshes"),
    (None, {"experiment": "chern", "params": {"mesh": "85599x4"}}, "mesh"),
]


# The ids follow pytest's positional scheme for the (args, config) pair, so
# that a row keeps its id when rows are appended.
@pytest.mark.parametrize("args, config, name", BAD_INPUTS, ids=[
    f"args{i}-None" if args is not None else f"None-config{i}"
    for i, (args, _, _) in enumerate(BAD_INPUTS)])
def test_bad_inputs_are_config_errors(tmp_path, capsys, args, config, name):
    out = tmp_path / "out"
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"out": str(out), **config}))
        args = ["run", cfg]
    else:
        args = args + ["--out", out]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert name in err
    assert "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())


# The largest value of each bounded parameter and the one past it, with the
# bytes of one case of that size (the largest contract-sweep shape, and a
# retract-sweep case at D = chi + 1): the bounds keep a case within 2**26.
@pytest.mark.parametrize("experiment, key, largest, past, case_bytes", [
    ("gamma-check", "block", 1672, 1673, lambda b: 8 * (3 * b + 1) * b),
    ("contract-sweep", "s_steps", 4854, 4855, lambda s: max(
        16 * s * cli.contraction_output_dims(d, D)[0] * (D + 1) ** 2
        for d, D, _ in cli._CONTRACT_SHAPES)),
    ("retract-sweep", "chis", [2, 25], [2, 26],
     lambda chis: 144 * (chis[-1] * (chis[-1] + 1)) ** 2),
    ("chern", "mesh", "585x585", "586x586",
     lambda mesh: 196 * math.prod(cli._parse_mesh(mesh))),
    ("pump-boundary", "meshes", ["4x85598"], ["4x85599"],
     lambda meshes: 196 * math.prod(cli._parse_mesh(meshes[-1]))),
])
def test_upper_bounds_keep_one_case_within_64_mib(experiment, key, largest, past, case_bytes):
    params = EXPERIMENTS[experiment].params
    param = next(p for p in params if p.key == key)
    defaults = {p.key: p.default for p in params}
    assert param.check(largest, defaults) and case_bytes(largest) <= 1 << 26
    assert not param.check(past, defaults) and case_bytes(past) > 1 << 26


@pytest.mark.parametrize("shape", [(4, 4), (16, 12), (128, 128)])
def test_chern_holds_at_most_196_bytes_per_plaquette(shape):
    # what the mesh bound counts: the mesh tables, the links with their table
    # order (one intp per edge), and the curvature and plaquette-id columns
    mesh = make_sphere_mesh(*shape)
    report = curvature_report(psi2_sphere_family(), mesh)
    held = (sum(getattr(mesh, name).nbytes for name in (
        "plaquettes", "cell_theta_lo", "cell_phi_lo", "theta", "phi", "edges",
        "plaquette_edges", "plaquette_signs"))
        + link_field(psi2_sphere_family(), mesh).values.nbytes + 8 * mesh.n_edges
        + report.curvature.nbytes + report.plaquette_ids.nbytes)
    assert held <= 196 * mesh.n_plaquettes


# Property test of the exit-code contract, driven by the parameter table:
# every pool item a parameter's requirement rejects exits 2 before any
# artifact is written.
CLI_TOKENS = ("", "x", "-1", "nan", "inf")
CONFIG_VALUES = ("x", True, None, -1, 1.5, [], {})


def exit_code(args, capsys):
    """Exit code and stderr of one in-process run; an argparse usage error
    counts as its ``SystemExit`` code."""
    try:
        code = run_cli(args)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def paths_under(path):
    """Every file and directory under ``path``."""
    return sorted(path.rglob("*"))


def assert_rejected(args, capsys, workdir, name=""):
    """Exit 2 with a usage error or a `config error:` line that names ``name``,
    no traceback and no new path (file or directory) under ``workdir``."""
    before = paths_under(workdir)
    code, err = exit_code(args, capsys)
    assert code == 2, (args, err)
    assert err.startswith("config error:") or "error: argument" in err, (args, err)
    assert name in err, (args, err)
    assert "Traceback" not in err
    assert paths_under(workdir) == before, args


def run_config(doc, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    return ["run", cfg]


@pytest.mark.parametrize("experiment, key", [
    (name, p.key) for name, exp in EXPERIMENTS.items() for p in exp.params])
def test_every_parameter_rejects_bad_values(tmp_path, capsys, monkeypatch, experiment, key):
    monkeypatch.chdir(tmp_path)
    exp = EXPERIMENTS[experiment]
    param = next(p for p in exp.params if p.key == key)
    seed = 1 if exp.seeded else None
    for token in CLI_TOKENS:
        args = [experiment, param.option, token, "--out", tmp_path / "out"]
        assert_rejected(args + (["--seed", seed] if exp.seeded else []), capsys, tmp_path)
    for value in CONFIG_VALUES:
        doc = {"experiment": experiment, "seed": seed, "out": str(tmp_path / "out"),
               "params": {key: value}}
        assert_rejected(run_config(doc, tmp_path), capsys, tmp_path)


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
@pytest.mark.parametrize("key", ["seed", "out", "params", "tolerances"])
def test_every_config_key_rejects_bad_values(tmp_path, capsys, monkeypatch, experiment, key):
    monkeypatch.chdir(tmp_path)
    valid = {"seed": [] if EXPERIMENTS[experiment].seeded else [None],
             "out": ["x"], "params": [{}], "tolerances": [{}]}[key]
    for value in CONFIG_VALUES:
        if value in valid:
            continue
        doc = {"experiment": experiment, "seed": 1, "out": str(tmp_path / "out"), key: value}
        assert_rejected(run_config(doc, tmp_path), capsys, tmp_path)


# numbers just outside each family param's domain, which its row refuses
FAMILY_DOMAIN_EDGES = {"w4": (1, -1, 1.0, -1.0), "g": (-0.1, 1.5)}


@pytest.mark.parametrize("family, key", [
    (family, p.key) for family, (_, schema) in FAMILY_SPECS.items() for p in schema])
def test_every_family_param_rejects_bad_values(tmp_path, capsys, monkeypatch, family, key):
    # an empty custom list (a tensor count that is not the mesh's) is refused too
    monkeypatch.chdir(tmp_path)

    def rejected(value, name):
        spec = {"family": family, "params": {key: value}}
        doc = {"experiment": "chern", "out": str(tmp_path / "out"),
               "params": {"family": spec, "mesh": "4x4"}}
        assert_rejected(run_config(doc, tmp_path), capsys, tmp_path, name)

    for value in CONFIG_VALUES:
        rejected(value, key)
    for value in FAMILY_DOMAIN_EDGES.get(key, ()):
        rejected(value, f"family param {key} must be")


def test_refused_family_spec_file_leaves_no_output_directory(tmp_path, capsys):
    # the family is built in the body, after every parameter check
    (tmp_path / "spec.json").write_text(json.dumps({"family": "nope"}))
    args = ["chern", "--family", f"@{tmp_path / 'spec.json'}", "--out", tmp_path / "x"]
    assert_rejected(args, capsys, tmp_path, "family spec family")


@pytest.mark.parametrize("key", [p.key for p in TOLERANCES])
def test_every_tolerance_rejects_bad_values(tmp_path, capsys, monkeypatch, key):
    # 1.5 is a finite positive number, which every tolerance accepts
    monkeypatch.chdir(tmp_path)
    for token in CLI_TOKENS + ("0",):
        args = ["aklt-sweep", "--tol", f"{key}={token}", "--out", tmp_path / "out"]
        assert_rejected(args, capsys, tmp_path, key)
    for value in [v for v in CONFIG_VALUES if v != 1.5] + [0, math.nan, math.inf]:
        doc = {"experiment": "aklt-sweep", "out": str(tmp_path / "out"),
               "tolerances": {key: value}}
        assert_rejected(run_config(doc, tmp_path), capsys, tmp_path, key)
    assert DEFAULT_TOLS.override(**{key: 1.5}) != DEFAULT_TOLS


def integer_bounds(requirement):
    """``(low, high)`` of an integer (or integer list) requirement, ``high``
    None when unbounded; None for any other requirement."""
    found = re.search(r"integers? in \[(\d+), (\d+)\]|^an integer >= (\d+)$", requirement)
    return found and (int(found[1] or found[3]), found[2] and int(found[2]))


@pytest.mark.parametrize("experiment, key", [
    (name, p.key) for name, exp in EXPERIMENTS.items() for p in exp.params
    if integer_bounds(p.requirement)])
def test_integer_parameters_are_checked_at_their_bounds(experiment, key):
    # by the check alone: a run at an upper bound would allocate up to 64 MiB
    params = EXPERIMENTS[experiment].params
    param = next(p for p in params if p.key == key)
    defaults = {p.key: p.default for p in params}
    low, high = integer_bounds(param.requirement)
    value = (lambda v: [v]) if isinstance(param.default, list) else (lambda v: v)
    assert not param.check(value(low - 1), defaults)
    assert param.check(value(low), defaults)
    if high is not None:
        assert param.check(value(high), defaults)
        assert not param.check(value(high + 1), defaults)


def readme_commands():
    """``{experiment: [(flag, value), ...]}`` from the README's command-line
    block; a value ``a|b|c`` lists choices, the first being the default."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    commands = {}
    for line in block.splitlines():
        if not line.strip():
            continue
        if line.startswith("timps "):
            name = line.split()[1]
            commands[name] = []
        commands[name] += re.findall(r"(--[a-z-]+)\s+([^\s\]]+)", line)
    return commands


def test_readme_command_line_matches_the_parameter_table():
    commands = readme_commands()
    assert set(commands) == set(EXPERIMENTS) | {"run"}
    for name, exp in EXPERIMENTS.items():
        flags = dict(commands[name])
        assert ("--seed" in flags) == exp.seeded, name
        flags.pop("--seed", None)
        assert set(flags) == {p.option for p in exp.params}, name
        for p in exp.params:
            assert p.parse(flags[p.option].split("|")[0]) == p.default, (name, p.key)


def fmt(x) -> str:
    """The reference text of one CSV value, as the row-by-row formatter the
    writer once applied to every value wrote it: ``repr`` of a float,
    ``str`` of an int, numpy scalars included, else ``str``."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def formatted(rows):
    return [[fmt(v) for v in row] for row in rows]


def csv_lines(columns: dict) -> list:
    """The reference CSV lines of a dict of columns, formatted row by row."""
    return [",".join(row) for row in formatted(zip(*columns.values()))]


def test_csv_columns_match_the_row_formatter():
    floats = np.array([-0.0, 5e-324, 1e16, 0.1, np.pi, np.float64(2.5), -1.0 / 3.0, 1e-300])
    ints = np.array([0, -7, np.int64(2) ** 62, 3, 42, np.int64(-1), 10 ** 16, 1])
    columns = {"id": ints, "value": floats, "again": floats[::-1]}
    expected = csv_lines(columns)
    assert expected[0] == "0,-0.0,1e-300"
    assert expected[1] == "-7,5e-324,-0.3333333333333333"
    # numpy columns, Python lists, and the tuples of mixed Python and numpy
    # scalars that the experiment bodies collect
    python = {key: col.tolist() for key, col in columns.items()}
    mixed = {key: tuple(x if k % 2 else y for k, (x, y) in enumerate(zip(col, python[key])))
             for key, col in columns.items()}
    assert cli._csv_rows(columns) == expected == cli._csv_rows(python) == cli._csv_rows(mixed)
    # a text column, an index column mixing mesh names and ints, no columns
    labelled = {"kind": ("chern", "dev", "dev"), "index": ("16x16", 0, np.int64(1)),
                "value": (1.0, np.float64(-0.0), 5e-324)}
    assert cli._csv_rows(labelled) == csv_lines(labelled) == [
        "chern,16x16,1.0", "dev,0,-0.0", "dev,1,5e-324"]
    assert cli._csv_rows({}) == cli._csv_rows({"a": (), "b": []}) == []
    # each distinct float is formatted once: signed zeros (distinct bits,
    # equal values), nan, infinities, repeats and subnormals; then a long
    # column of all-distinct values
    odd = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.1, 0.1, -0.0, 5e-324, -5e-324,
                    2.2250738585072014e-308, 1e-310, 0.0, np.nan, 0.1, -np.inf])
    ids = np.arange(len(odd))
    columns = {"id": ids, "odd": odd, "back": odd[::-1], "twice": np.repeat(odd[:8], 2)}
    lines = cli._csv_rows(columns)
    assert lines == csv_lines(columns)
    assert [line.split(",")[1] for line in lines[:5]] == ["0.0", "-0.0", "nan", "inf", "-inf"]
    assert lines[7] == "7,-0.0,5e-324,inf"
    long = np.random.default_rng(3).normal(size=20_000) * 10.0 ** np.arange(-150, 150, 0.015)
    assert len(np.unique(long)) == len(long)
    columns = {"id": np.arange(len(long)), "x": long, "y": long[::-1].copy()}
    assert cli._csv_rows(columns) == csv_lines(columns)


# every experiment at a small size, the zero-row oracle-check and a refused run:
# (arguments, exit code, column line)
SMALL_RUNS = {
    "gamma-check": (["gamma-check", "--block", "8", "--t-steps", "3"], 0,
                    "phi,t,isometry_dev"),
    "contract-sweep": (["contract-sweep", "--seed", "1", "--count", "4"], 0,
                       "case,s,essential_rank,core_norm_residual"),
    "retract-sweep": (["retract-sweep", "--seed", "1", "--count", "4"], 0,
                      "case,chi,t,essential_rank,delta,dist_from_input,core_norm_residual"),
    "aklt-sweep": (["aklt-sweep", "--g-step", "0.3"], 0,
                   "g,f_value,xi,lambda2,spectrum_dev,fixed_point_dev"),
    "chern": (["chern", "--mesh", "8x8"], 0, "plaquette_id,theta_lo,phi_lo,curvature"),
    "pump-boundary": (["pump-boundary", "--seed", "1", "--mesh", "4x4,8x8", "--samples", "8",
                       "--overlap-samples", "8", "--annulus-samples", "8"], 0, "kind,index,value"),
    "oracle-check": (["oracle-check", "--seed", "1", "--trials", "8", "--gauge-trials", "4",
                      "--window-max", "3"], 0, "kind,trial,d,chi,n,dev"),
    "oracle-check-zero-rows": (["oracle-check", "--seed", "1", "--trials", "0",
                                "--gauge-trials", "0"], 0, "kind,trial,d,chi,n,dev"),
    "retract-sweep-refused": (["retract-sweep", "--seed", "3", "--count", "20",
                               "--tol", "tol_distinct=0.9"], 1, ""),
}


@pytest.mark.parametrize("run", SMALL_RUNS)
def test_csv_is_the_row_formatter_on_the_returned_columns(tmp_path, monkeypatch, run):
    args, code, names = SMALL_RUNS[run]
    experiment, returned = EXPERIMENTS[args[0]], []

    def body(*body_args):
        returned.append(experiment.body(*body_args))
        return returned[-1]

    monkeypatch.setitem(EXPERIMENTS, args[0], experiment._replace(body=body))
    assert run_cli(args + ["--out", tmp_path]) == code
    # a refused run returns nothing and writes an empty column line
    columns = returned[0][0] if code == 0 else {}
    header, column_line, *lines = (tmp_path / f"{args[0]}.csv").read_text().splitlines()
    assert header.startswith(f"# timps {__version__} experiment={args[0]} ")
    assert column_line == ",".join(columns) == names
    assert lines == csv_lines(columns)
    assert bool(lines) == (run not in ("oracle-check-zero-rows", "retract-sweep-refused"))


# The process path: `python -m timps.cli` against in-process `main([...])`,
# with the source tree that this test imported first on the child's path.
SOURCE_ROOT = Path(cli.__file__).resolve().parents[1]


def run_python(args):
    path = os.pathsep.join(filter(None, [str(SOURCE_ROOT), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


def tree(path):
    """Each path under ``path``, relative, with its bytes (None for a directory)."""
    return {str(p.relative_to(path)): p.read_bytes() if p.is_file() else None
            for p in sorted(path.rglob("*"))}


@pytest.mark.parametrize("args, code", [
    (["gamma-check", "--block", "8", "--t-steps", "3"], 0),
    (["chern", "--family", "aklt", "--mesh", "4x4", "--tol", "tol_gap=0.9"], 1),
    (["gamma-check", "--block", "0"], 2),
])
def test_process_entry_matches_in_process_main(tmp_path, capsys, args, code):
    process, in_process = tmp_path / "process", tmp_path / "in-process"
    process.mkdir()
    in_process.mkdir()
    child = run_python(["-m", "timps.cli", *args, "--out", process / "out"])
    assert run_cli(args + ["--out", in_process / "out"]) == code
    captured = capsys.readouterr()
    assert child.returncode == code, child.stderr
    assert (child.stdout, child.stderr) == (captured.out, captured.err)
    written = tree(process)
    assert written == tree(in_process)
    assert ("out" in written) == (code != 2)


def test_main_given_argv_leaves_the_collector_alone(tmp_path):
    before = gc.get_freeze_count()
    assert run_cli(["gamma-check", "--block", "8", "--t-steps", "3", "--out", tmp_path]) == 0
    assert gc.get_freeze_count() == before


def test_main_on_the_process_arguments_freezes_the_import_heap(tmp_path):
    script = ("import gc, sys\n"
              "from timps.cli import main\n"
              "before = gc.get_freeze_count()\n"
              "sys.argv[1:] = ['gamma-check', '--block', '8', '--t-steps', '3',\n"
              "                '--out', sys.argv[1]]\n"
              "code = main()\n"
              "print(before, gc.get_freeze_count(), code)\n")
    child = run_python(["-c", script, tmp_path])
    assert child.returncode == 0, child.stderr
    before, after, code = map(int, child.stdout.splitlines()[-1].split())
    assert (before, code) == (0, 0)
    assert after > 0
