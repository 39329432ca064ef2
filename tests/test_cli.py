import json

import pytest

from timps import __version__
from timps.cli import main


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


def test_run_config_missing_file(tmp_path):
    assert run_cli(["run", tmp_path / "nope.json"]) == 2


def test_domain_failure_exits_one(tmp_path):
    # a family with a rank jump across the mesh is an assertion-type failure
    from timps.families import aklt_path, make_sphere_mesh
    from timps.tensors import tensor_to_json

    mesh = make_sphere_mesh(4, 4)
    tensors = [tensor_to_json(aklt_path(0.5))] * len(mesh.vertices)
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


def _custom_spec_with_charts():
    """A custom family that runs on a 4x4 mesh but for its chart labels."""
    from timps.families import aklt_path, make_sphere_mesh
    from timps.tensors import tensor_to_json

    n = len(make_sphere_mesh(4, 4).vertices)
    return {"family": "custom",
            "params": {"tensors": [tensor_to_json(aklt_path(0.5))] * n,
                       "charts": ["main"] * n}}


@pytest.mark.parametrize("args, config", [
    (["contract-sweep", "--seed", "1", "--tol", "eps_rank=nan"], None),
    (["aklt-sweep", "--tol", "eps_rank=nan"], None),
    (["aklt-sweep", "--tol", "tol_gap=inf"], None),
    (["aklt-sweep", "--tol", "tol_gap=0"], None),
    (["aklt-sweep", "--tol", "tol_norm=-1e-8"], None),
    (["aklt-sweep", "--tol", "tol_norm=x"], None),
    (None, {"experiment": "aklt-sweep", "tolerances": {"eps_rank": "x"}}),
    (None, {"experiment": "aklt-sweep", "tolerances": {"eps_rank": True}}),
    (None, {"experiment": "aklt-sweep", "tolerances": {"eps_rank": None}}),
    (None, {"experiment": "aklt-sweep", "tolerances": {"eps_rank": 0}}),
    (None, {"experiment": "aklt-sweep", "tolerances": [["eps_rank", 1e-9]]}),
    (None, {"experiment": "aklt-sweep", "tolerances": 1e-9}),
    (None, {"experiment": "aklt-sweep", "tolerances": None}),
    (None, {"experiment": "oracle-check", "seed": True}),
    (None, {"experiment": "aklt-sweep", "seed": False}),
    (None, {"experiment": "chern",
            "params": {"family": _custom_spec_with_charts(), "mesh": "4x4"}}),
])
def test_bad_inputs_are_config_errors(tmp_path, capsys, args, config):
    out = tmp_path / "out"
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(config, out=str(out))))
        args = ["run", cfg]
    else:
        args = args + ["--out", out]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())
