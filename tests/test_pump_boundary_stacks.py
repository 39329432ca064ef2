"""pump-boundary's stacked sample checks against the per-sample loops they
replace, and the calls the benchmark's traced runs require of it and of the
sweeps whose samplers draw in stacks.

``loop_body`` is the experiment as it was written before the sample checks
were stacked: one chart tensor, one decomposition, one fidelity or one pair
of lifts per sample, with the fidelity as the modulus of
``mixed_transfer_leading``.  The stacked body must write the same artifacts
(exit code, CSV and JSON, byte for byte), refusals included.
"""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from timps import cli, tensors
from timps.cli import EXPERIMENTS, run_experiment
from timps.config import DEFAULT_TOLS, Tolerances
from timps.errors import NotInEError
from timps.families import (
    boundary_generator_family,
    make_sphere_mesh,
    pump_lift,
    pump_north,
    pump_south,
)
from timps.invariants import chern_verdict, curvature_report
from timps.tensors import canonical_decompose, mixed_transfer_leading

ROOT = Path(__file__).resolve().parents[1]
QUICK = {"samples": 8, "overlap_samples": 8, "annulus_samples": 8}


def loop_body(params, rng, tols):
    rows, failures = [], []
    cherns = {}
    for mesh_txt in params["meshes"]:
        n_theta, n_phi = cli._parse_mesh(mesh_txt)
        mesh = make_sphere_mesh(n_theta, n_phi)
        report = curvature_report(boundary_generator_family(tols), mesh, tols)
        nearest, _, errors = chern_verdict(report)
        cherns[mesh_txt] = nearest
        rows.append(("boundary_chern", mesh_txt, float(nearest)))
        failures.extend(f"{mesh_txt}: {e}" for e in errors)
        cli._check(failures, nearest == 1,
                   f"{mesh_txt}: boundary generator value {nearest}, expected +1")

    max_norm = 0.0
    for k in range(params["samples"]):
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        A = pump_north(x) if x[3] > -0.5 else pump_south(x)
        resid = canonical_decompose(A, tols).norm_residual
        rows.append(("core_norm_residual", k, resid))
        max_norm = max(max_norm, resid)
    cli._check(failures, max_norm <= 1e-10,
               f"chart core normalization residual {max_norm:.3e} > 1e-10")

    min_fid = 1.0
    for k in range(params["overlap_samples"]):
        x = rng.normal(size=3)
        w4 = rng.uniform(-0.5 + 1e-6, 0.5 - 1e-6)
        w = x / np.linalg.norm(x) * math.sqrt(1.0 - w4 * w4)
        pt = np.append(w, w4)
        dec_n = canonical_decompose(pump_north(pt), tols)
        dec_s = canonical_decompose(pump_south(pt), tols)
        if dec_n.chi != dec_s.chi:
            failures.append(f"overlap sample {k}: rank mismatch")
            continue
        fid = float(abs(mixed_transfer_leading(dec_n.K, dec_s.K)))
        rows.append(("overlap_fidelity", k, fid))
        min_fid = min(min_fid, fid)
    cli._check(failures, min_fid >= 1.0 - 1e-9,
               f"chart overlap fidelity dropped to {min_fid!r}")

    max_annulus = 0.0
    for k in range(params["annulus_samples"]):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0.5 + 1e-6, math.sqrt(3.0) / 2.0 - 1e-6)
        dev = float(np.abs(pump_lift(v, "north").mats - pump_lift(v, "south").mats).max())
        rows.append(("annulus_dev", k, dev))
        max_annulus = max(max_annulus, dev)
    cli._check(failures, max_annulus <= 1e-10,
               f"lift branch disagreement {max_annulus:.3e} > 1e-10")

    summary = {
        "chern": cherns,
        "max_core_norm_residual": max_norm,
        "min_overlap_fidelity": min_fid,
        "max_annulus_dev": max_annulus,
    }
    # every run has its meshes' rows, so the columns are never empty
    return dict(zip(["kind", "index", "value"], zip(*rows))), summary, failures


def artifacts(out: Path, params: dict, seed: int, tols: Tolerances = DEFAULT_TOLS):
    code = run_experiment("pump-boundary", params, seed, out, tols)
    return code, *((out / f"pump-boundary.{ext}").read_bytes() for ext in ("csv", "json"))


def both_bodies(tmp_path, params, seed, tols=DEFAULT_TOLS):
    """The artifacts of the stacked body and of the loop body."""
    stacked = artifacts(tmp_path / "stacked", params, seed, tols)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(EXPERIMENTS, "pump-boundary",
                      EXPERIMENTS["pump-boundary"]._replace(body=loop_body))
        return stacked, artifacts(tmp_path / "loop", params, seed, tols)


# CHUNK 7 splits every sample set into several chunks, a last short one included
CHUNKS = pytest.mark.parametrize("chunk", [cli.CHUNK, 7], ids=["chunk-default", "chunk-7"])


@CHUNKS
@pytest.mark.parametrize("sizes", [{}, QUICK, {"samples": 1, "overlap_samples": 1,
                                               "annulus_samples": 1}],
                         ids=["default", "quick", "one"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_stacked_sample_checks_match_the_loops(seed, sizes, chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CHUNK", chunk)
    stacked, loop = both_bodies(tmp_path, {"meshes": ["4x4"], **sizes}, seed)
    assert stacked == loop
    code, csv, _ = stacked
    assert code == 0
    lines = csv.decode().splitlines()
    assert len(lines) == 3 + sum(sizes.get(key, default) for key, default in
                                 [("samples", 200), ("overlap_samples", 50),
                                  ("annulus_samples", 50)])


def test_no_samples_match_the_loops(tmp_path):
    none = {"samples": 0, "overlap_samples": 0, "annulus_samples": 0}
    stacked, loop = both_bodies(tmp_path, {"meshes": ["4x4"], **none}, 2)
    assert stacked == loop and stacked[0] == 0


def test_samples_add_only_their_rows_to_the_peak():
    # every set at 2 and then 4 CHUNK samples: the larger run holds 6 CHUNK
    # more rows (about 60 traced bytes each), but no larger stack
    def traced_peak(samples):
        params = {"meshes": ["4x4"], "samples": samples, "overlap_samples": samples,
                  "annulus_samples": samples}
        tracemalloc.start()
        try:
            cli._exp_pump_boundary(params, np.random.default_rng(1), DEFAULT_TOLS)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(4)  # lazy imports and caches
    small, large = traced_peak(2 * cli.CHUNK), traced_peak(4 * cli.CHUNK)
    # one stack of every sample would add about 1.4 KB a sample
    assert large - small < 150 * 6 * cli.CHUNK


def poison(monkeypatch, pick):
    """Refuse, in every ``canonical_decompose`` call, each tensor for which
    ``pick(mats, digest)`` holds; the message names the tensor's digest."""
    real = tensors._decomposition_pass

    def poisoned(mats, tols):
        found = real(mats, tols)
        for n, m in enumerate(mats):
            digest = hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()
            if pick(m, digest):
                found.errors[n] = NotInEError(f"poisoned tensor {digest[:16]}")
        return found

    monkeypatch.setattr(tensors, "_decomposition_pass", poisoned)


@CHUNKS
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("bond, samples, every", [(2, 200, 5), (1, 200, 5), (None, 0, 5),
                                                  (None, 0, 1)],
                         ids=["north-chart", "south-chart", "overlap-pairs", "overlap-all"])
def test_refusals_are_those_of_the_loops(bond, samples, every, seed, chunk, tmp_path,
                                         monkeypatch):
    monkeypatch.setattr(cli, "CHUNK", chunk)
    # about one tensor in ``every`` of the chosen bond dimension (both, on the
    # overlap pairs alone) is refused, so several are, and the first in
    # sample order (north before south within a pair) must be the one raised
    poison(monkeypatch, lambda m, digest: bond in (None, m.shape[-1])
           and int(digest, 16) % every == 0)
    params = {"meshes": ["4x4"], "samples": samples}
    stacked, loop = both_bodies(tmp_path, params, seed)
    assert stacked == loop
    code, _, doc = stacked
    assert code == 1
    assert json.loads(doc)["failures"][0].startswith("NotInEError: poisoned tensor ")


def test_tolerance_refusals_are_those_of_the_loops(tmp_path):
    for i, tols in enumerate([DEFAULT_TOLS.override(eps_rank=0.3),
                              DEFAULT_TOLS.override(tol_gap=0.999)]):
        stacked, loop = both_bodies(tmp_path / str(i),
                                    {"meshes": ["4x4"], **QUICK}, 2, tols)
        assert stacked == loop


# workload, invocation -> spans its traced run must list and make: the
# pump's stacked entry points, and the sampler spans of the sweeps
TRACED = {
    ("chern-sphere", "pump-boundary"): {"families.pump_north", "families.pump_south",
                                        "families.pump_lift", "tensors.canonical_decompose"},
    ("homotopy-sweep", "retract-sweep"): {"sampling.random_split_spectrum_tensor",
                                          "sampling.random_gauge_move"},
    ("homotopy-sweep", "contract-sweep"): {"sampling.random_tensor_in_e"},
    ("homotopy-sweep", "gamma-check"): {"homotopy.isometry_path_block"},
    ("oracle-window", "oracle-check"): {"sampling.random_core", "sampling.random_observable",
                                        "sampling.random_tensor_in_e",
                                        "sampling.random_gauge_move"},
    ("oracle-window", "aklt-sweep"): {"transfer.transfer_spectrum"},
}


@pytest.mark.parametrize("workload, command", list(TRACED), ids=[c for _, c in TRACED])
def test_pump_boundary_makes_the_benchmarks_traced_calls(tmp_path, monkeypatch, workload,
                                                         command):
    # the benchmark's traced runs fail unless each listed function is called;
    # run the workload's (first) invocation of the command at its --quick
    # sizes under its shim
    bench = ROOT / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)  # dataclasses look it up
    spec.loader.exec_module(run)
    inv = next(i for i in run.WORKLOADS[workload] if i.argv[0] == command)
    seeds = [run.oracle_seed(1, i) for i in range(run.ORACLE_SEEDS)]
    argv = [a.format(seed=1, seeds=seeds) for a in inv.argv] + list(run.QUICK_ARGS[command])
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(bench / "trace_shim.py"), "--spans", str(spans),
                    "--job", "0", "--", *argv, "--out", str(tmp_path / "out")],
                   env=env, check=True, capture_output=True)
    doc = json.loads(spans.read_text())
    called = {doc["names"][row[0]] for row in doc["spans"]}
    assert TRACED[workload, command] <= set(inv.calls)
    assert set(inv.calls) <= called
