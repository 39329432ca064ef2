"""Experiment runner: reproduces every acceptance experiment from the
command line or a config file and emits machine-readable CSV/JSON artifacts.

Exit status: 0 when all embedded assertions pass, 1 on assertion failure
(with a JSON failure report on stdout), 2 on argument or config errors.
Identical configuration and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULT_TOLS, Tolerances
from .errors import TimpsError
from .families import (
    PumpPoint,
    aklt_path,
    boundary_generator_family,
    family_from_spec,
    make_sphere_mesh,
    pump_lift,
    pump_north,
    pump_south,
)
from .homotopy import (
    PhiRule,
    contraction_endpoint,
    contraction_path,
    isometry_path_block,
    retract,
)
from .invariants import curvature_report, flagged_message
from .sampling import (
    random_core,
    random_gauge_move,
    random_observable,
    random_split_spectrum_tensor,
    random_tensor_in_e,
)
from .tensors import (
    apply_gauge,
    canonical_decompose,
    fidelity_per_site,
    gauge_equivalent,
    pad_tensor,
)
from .transfer import (
    correlation_length,
    expectation,
    fixed_point,
    trace_invariant,
    transfer_spectrum,
    window_density_matrix,
)

CONVENTION = ("plaquettes=outward;link=left-core;pair-index=row-major;"
              "pole-azimuth=0")
RNG_NAME = "PCG64"

EXPERIMENTS = (
    "gamma-check",
    "contract-sweep",
    "retract-sweep",
    "aklt-sweep",
    "chern",
    "pump-boundary",
    "oracle-check",
)
SEEDED = {"contract-sweep", "retract-sweep", "pump-boundary", "oracle-check"}


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _header(experiment: str, seed) -> str:
    seed_txt = "none" if seed is None else str(seed)
    return (f"# timps {__version__} experiment={experiment} seed={seed_txt} "
            f"rng={RNG_NAME} convention={CONVENTION}")


def _write_csv(path: Path, experiment: str, seed, columns, rows) -> None:
    lines = [_header(experiment, seed), ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _meta(experiment: str, seed) -> dict:
    return {
        "version": __version__,
        "experiment": experiment,
        "seed": seed,
        "rng": RNG_NAME,
        "convention": CONVENTION,
    }


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# experiment bodies: each returns (columns, rows, summary, failures)


def _exp_gamma_check(params, rng, tols):
    phi_names = {"both": ["shift", "3n+1"], "shift": ["shift"],
                 "3n+1": ["3n+1"]}[params["phi"]]
    block = params["block"]
    t_steps = params["t_steps"]
    rows, failures = [], []
    max_dev = 0.0
    end_dev0 = end_dev1 = 0.0
    for name in phi_names:
        phi = PhiRule.from_name(name)
        n_rows = phi(block)
        for k in range(t_steps):
            t = k / (t_steps - 1)
            blk = isometry_path_block(phi, t, n_rows, block)
            dev = float(np.abs(blk.T @ blk - np.eye(block)).max())
            rows.append((name, t, dev))
            max_dev = max(max_dev, dev)
        start = isometry_path_block(phi, 0.0, n_rows, block)
        target0 = np.zeros((n_rows, block))
        for b in range(1, block + 1):
            target0[b - 1, b - 1] = 1.0
        end = isometry_path_block(phi, 1.0, n_rows, block)
        target1 = np.zeros((n_rows, block))
        for b in range(1, block + 1):
            target1[phi(b) - 1, b - 1] = 1.0
        end_dev0 = max(end_dev0, float(np.abs(start - target0).max()))
        end_dev1 = max(end_dev1, float(np.abs(end - target1).max()))
    _check(failures, max_dev <= 1e-12, f"isometry deviation {max_dev:.3e} > 1e-12")
    _check(failures, end_dev0 <= 1e-14, f"t=0 endpoint deviation {end_dev0:.3e} > 1e-14")
    _check(failures, end_dev1 <= 1e-14, f"t=1 endpoint deviation {end_dev1:.3e} > 1e-14")
    summary = {"max_isometry_dev": max_dev, "endpoint_dev_t0": end_dev0,
               "endpoint_dev_t1": end_dev1, "block": block}
    return ["phi", "t", "isometry_dev"], rows, summary, failures


_CONTRACT_SHAPES = ((4, 2, 2), (4, 3, 2), (2, 2, 1), (3, 2, 1))


def _exp_contract_sweep(params, rng, tols):
    count, s_steps = params["count"], params["s_steps"]
    rows, failures = [], []
    endpoints = []
    for case in range(count):
        d, D, chi = _CONTRACT_SHAPES[case % len(_CONTRACT_SHAPES)]
        A = canonical_decompose(random_tensor_in_e(rng, d, D, chi, tols=tols),
                                tols.eps_rank, tols)
        for k in range(s_steps):
            s = k / (s_steps - 1)
            P = contraction_path(A, s, tols=tols)
            try:
                dec = canonical_decompose(P, tols.eps_rank, tols)
                rows.append((case, s, dec.chi, dec.norm_residual))
            except TimpsError as exc:
                failures.append(f"case {case} s={s}: not in the tensor space ({exc})")
                rows.append((case, s, -1, math.nan))
        end = contraction_path(A, 1.0, tols=tols)
        dev = float(np.abs(end.mats - contraction_endpoint(A.d, A.D).mats).max())
        _check(failures, dev <= 1e-12, f"case {case}: endpoint deviation {dev:.3e}")
        endpoints.append(end)
    d_max = max(e.d for e in endpoints)
    D_max = max(e.D for e in endpoints)
    padded = [pad_tensor(e, d_max, D_max).mats for e in endpoints]
    cross = 0.0
    for em in padded[1:]:
        cross = max(cross, float(np.abs(em - padded[0]).max()))
    _check(failures, cross <= 1e-12, f"endpoints differ across inputs by {cross:.3e}")
    summary = {"count": count, "max_endpoint_cross_dev": cross}
    return ["case", "s", "essential_rank", "core_norm_residual"], rows, summary, failures


def _exp_retract_sweep(params, rng, tols):
    count = params["count"]
    chis = params["chis"]
    t_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows, failures = [], []
    for case in range(count):
        chi = chis[case % len(chis)]
        D = chi + (case // len(chis)) % 2
        A = random_split_spectrum_tensor(rng, chi, D, tols)
        dec_a = canonical_decompose(A, tols.eps_rank, tols)
        move = random_gauge_move(rng, dec_a, tols=tols)
        dec_b = canonical_decompose(apply_gauge(A, move, tols.eps_rank, tols),
                                    tols.eps_rank, tols)
        for t in t_grid:
            st = retract(dec_a, t, tols.eps_rank, tols=tols)
            H = st.tensor
            dist = float(np.abs(H.mats - A.mats).max())
            try:
                dec = canonical_decompose(H, tols.eps_rank, tols)
                rank, resid = dec.chi, dec.norm_residual
            except TimpsError as exc:
                failures.append(f"case {case} t={t}: output not decomposable ({exc})")
                # gauge_equivalent below decomposes H again and raises
                dec, rank, resid = H, -1, math.nan
            rows.append((case, chi, t, rank, st.delta, dist, resid))
            if t == 0.0:
                _check(failures, dist <= 1e-12,
                       f"case {case}: retraction moved the t=0 tensor by {dist:.3e}")
            if t == 1.0:
                _check(failures, 0 < rank < chi,
                       f"case {case}: rank {rank} not below {chi} at t=1")
            if t > 0.0:
                hb = retract(dec_b, t, tols.eps_rank, tols=tols).tensor
                _check(failures,
                       gauge_equivalent(dec, hb, tols.eps_rank, tols.tol_fid, tols),
                       f"case {case} t={t}: gauge equivariance failed")
    summary = {"count": count, "chis": list(chis)}
    return (["case", "chi", "t", "essential_rank", "delta",
             "dist_from_input", "core_norm_residual"], rows, summary, failures)


def _exp_aklt_sweep(params, rng, tols):
    g_start, g_stop, g_step = params["g_start"], params["g_stop"], params["g_step"]
    rows, failures = [], []
    max_f_dev = max_spec_dev = max_fp_dev = 0.0
    n_steps = int(round((g_stop - g_start) / g_step)) + 1
    for k in range(n_steps):
        g = round(g_start + k * g_step, 12)
        A = aklt_path(g)
        f_val = trace_invariant(A)
        f_dev = abs(f_val - 2.0 * math.sqrt(1.0 - g * g))
        spec = transfer_spectrum(A)
        lam2 = 1.0 - (4.0 / 3.0) * g * g
        expected = np.array([1.0, lam2, lam2, lam2])
        spec_dev = float(np.abs(np.sort(spec.real)[::-1] - expected).max()
                         + np.abs(spec.imag).max())
        fp = fixed_point(A, tols)
        fp_dev = float(np.abs(fp.T - 0.5 * np.eye(2)).max())
        xi = correlation_length(A, tols)
        rows.append((g, f_val, xi, abs(spec[1]), spec_dev, fp_dev))
        max_f_dev = max(max_f_dev, f_dev)
        max_spec_dev = max(max_spec_dev, spec_dev)
        max_fp_dev = max(max_fp_dev, fp_dev)
    _check(failures, max_f_dev <= 1e-10,
           f"trace invariant deviates from 2*sqrt(1-g^2) by {max_f_dev:.3e}")
    _check(failures, max_spec_dev <= 1e-10,
           f"transfer spectrum deviates from (1, 1-(4/3)g^2 x3) by {max_spec_dev:.3e}")
    _check(failures, max_fp_dev <= 1e-10,
           f"fixed point deviates from identity/2 by {max_fp_dev:.3e}")
    f_endpoint = trace_invariant(aklt_path(0.0))
    _check(failures, f_endpoint == 1.0, f"endpoint invariant is {f_endpoint!r}, not 1")
    summary = {
        "max_f_dev": max_f_dev,
        "max_spectrum_dev": max_spec_dev,
        "max_fixed_point_dev": max_fp_dev,
        "invariant_limit_g_to_0": 2.0,
        "invariant_at_g0_tensor": f_endpoint,
        "discontinuity_gap": 2.0 - f_endpoint,
    }
    return (["g", "f_value", "xi", "lambda2", "spectrum_dev", "fixed_point_dev"],
            rows, summary, failures)


def _parse_mesh(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"mesh must look like 16x16, got {text!r}")
    return int(parts[0]), int(parts[1])


def _exp_chern(params, rng, tols):
    spec = params["family"]
    if isinstance(spec, str):
        spec = {"family": spec, "params": {}}
    family = family_from_spec(spec)
    n_theta, n_phi = _parse_mesh(params["mesh"])
    mesh = make_sphere_mesh(n_theta, n_phi)
    report = curvature_report(family, mesh, tols.eps_rank, tols)
    nearest = int(round(report.total))
    residual = abs(report.total - nearest)
    failures = []
    _check(failures, residual < 1e-3,
           f"total curvature {report.total!r} has residual {residual:.3e}")
    _check(failures, not report.flagged, flagged_message(report.flagged))
    rows = [(int(report.plaquette_ids[p]), float(report.theta_lo[p]),
             float(report.phi_lo[p]), float(report.curvature[p]))
            for p in range(len(report.plaquette_ids))]
    summary = {
        "family": spec["family"],
        "mesh": params["mesh"],
        "chern": nearest,
        "residual": residual,
        "flagged_plaquettes": list(report.flagged),
    }
    return ["plaquette_id", "theta_lo", "phi_lo", "curvature"], rows, summary, failures


def _exp_pump_boundary(params, rng, tols):
    rows, failures = [], []
    cherns = {}
    for mesh_txt in params["meshes"]:
        n_theta, n_phi = _parse_mesh(mesh_txt)
        mesh = make_sphere_mesh(n_theta, n_phi)
        report = curvature_report(boundary_generator_family(), mesh,
                                  tols.eps_rank, tols)
        nearest = int(round(report.total))
        residual = abs(report.total - nearest)
        cherns[mesh_txt] = nearest
        rows.append(("boundary_chern", mesh_txt, float(nearest)))
        _check(failures, residual < 1e-3,
               f"{mesh_txt}: curvature residual {residual:.3e}")
        _check(failures, nearest == 1,
               f"{mesh_txt}: boundary generator value {nearest}, expected +1")
        _check(failures, not report.flagged,
               f"{mesh_txt}: {flagged_message(report.flagged)}")

    max_norm = 0.0
    for k in range(params["samples"]):
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        pt = PumpPoint(w=x[:3], w4=float(x[3]))
        A = pump_north(pt) if pt.w4 > -0.5 else pump_south(pt)
        resid = canonical_decompose(A, tols.eps_rank, tols).norm_residual
        rows.append(("core_norm_residual", k, resid))
        max_norm = max(max_norm, resid)
    _check(failures, max_norm <= 1e-10,
           f"chart core normalization residual {max_norm:.3e} > 1e-10")

    min_fid = 1.0
    for k in range(params["overlap_samples"]):
        x = rng.normal(size=3)
        w4 = rng.uniform(-0.5 + 1e-6, 0.5 - 1e-6)
        w = x / np.linalg.norm(x) * math.sqrt(1.0 - w4 * w4)
        pt = PumpPoint(w=w, w4=w4)
        dec_n = canonical_decompose(pump_north(pt), tols.eps_rank, tols)
        dec_s = canonical_decompose(pump_south(pt), tols.eps_rank, tols)
        if dec_n.chi != dec_s.chi:
            failures.append(f"overlap sample {k}: rank mismatch")
            continue
        fid = fidelity_per_site(dec_n.K, dec_s.K)
        rows.append(("overlap_fidelity", k, fid))
        min_fid = min(min_fid, fid)
    _check(failures, min_fid >= 1.0 - 1e-9,
           f"chart overlap fidelity dropped to {min_fid!r}")

    max_annulus = 0.0
    for k in range(params["annulus_samples"]):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0.5 + 1e-6, math.sqrt(3.0) / 2.0 - 1e-6)
        dev = float(np.abs(pump_lift(v, "north").mats - pump_lift(v, "south").mats).max())
        rows.append(("annulus_dev", k, dev))
        max_annulus = max(max_annulus, dev)
    _check(failures, max_annulus <= 1e-10,
           f"lift branch disagreement {max_annulus:.3e} > 1e-10")

    summary = {
        "chern": cherns,
        "max_core_norm_residual": max_norm,
        "min_overlap_fidelity": min_fid,
        "max_annulus_dev": max_annulus,
    }
    return ["kind", "index", "value"], rows, summary, failures


_ORACLE_SHAPES = ((2, 1), (3, 1), (4, 1), (4, 2))


def _exp_oracle_check(params, rng, tols):
    rows, failures = [], []
    max_oracle_dev = 0.0
    for trial in range(params["trials"]):
        d, chi = _ORACLE_SHAPES[trial % len(_ORACLE_SHAPES)]
        K = random_core(rng, d, chi, tols)
        T = fixed_point(K, tols)
        n_max = params["window_max"]
        while d**n_max > 4096:
            n_max -= 1
        n = int(rng.integers(1, n_max + 1))
        obs = random_observable(rng, d, n)
        lhs = expectation(K, T, obs)
        rho = window_density_matrix(K, T, n)
        C = obs.factors[0]
        for f in obs.factors[1:]:
            C = np.kron(C, f)
        rhs = complex(np.trace(rho @ C))
        dev = abs(lhs - rhs)
        rows.append(("oracle", trial, d, chi, n, dev))
        max_oracle_dev = max(max_oracle_dev, dev)
    _check(failures, max_oracle_dev <= 1e-9,
           f"expectation vs window oracle deviation {max_oracle_dev:.3e} > 1e-9")

    max_gauge_dev = 0.0
    for trial in range(params["gauge_trials"]):
        d, chi = (4, 2) if trial % 2 == 0 else (3, 1)
        D = chi + 1
        A = random_tensor_in_e(rng, d, D, chi, tols=tols)
        dec_a = canonical_decompose(A, tols.eps_rank, tols)
        move = random_gauge_move(rng, dec_a, tols=tols)
        dec_b = canonical_decompose(apply_gauge(A, move, tols.eps_rank, tols),
                                    tols.eps_rank, tols)
        _check(failures, dec_a.chi == dec_b.chi,
               f"gauge trial {trial}: essential rank changed")
        dev = 0.0
        for n in (1, 2):
            rho_a = window_density_matrix(dec_a.K, fixed_point(dec_a.K, tols), n)
            rho_b = window_density_matrix(dec_b.K, fixed_point(dec_b.K, tols), n)
            dev = max(dev, float(np.abs(rho_a - rho_b).max()))
        rows.append(("gauge", trial, d, chi, 2, dev))
        max_gauge_dev = max(max_gauge_dev, dev)
    _check(failures, max_gauge_dev <= 1e-9,
           f"gauge-invariance deviation {max_gauge_dev:.3e} > 1e-9")
    summary = {"max_oracle_dev": max_oracle_dev, "max_gauge_dev": max_gauge_dev}
    return ["kind", "trial", "d", "chi", "n", "dev"], rows, summary, failures


_BODIES = {
    "gamma-check": _exp_gamma_check,
    "contract-sweep": _exp_contract_sweep,
    "retract-sweep": _exp_retract_sweep,
    "aklt-sweep": _exp_aklt_sweep,
    "chern": _exp_chern,
    "pump-boundary": _exp_pump_boundary,
    "oracle-check": _exp_oracle_check,
}

_DEFAULT_PARAMS = {
    "gamma-check": {"phi": "both", "block": 64, "t_steps": 21},
    "contract-sweep": {"count": 20, "s_steps": 11},
    "retract-sweep": {"count": 100, "chis": [2, 3]},
    "aklt-sweep": {"g_start": 0.05, "g_stop": 0.95, "g_step": 0.05},
    "chern": {"family": "psi2", "mesh": "32x32"},
    "pump-boundary": {"meshes": ["16x16", "32x32"], "samples": 200,
                      "overlap_samples": 50, "annulus_samples": 50},
    "oracle-check": {"trials": 100, "gauge_trials": 100, "window_max": 5},
}


def _int_at_least(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


# (parameter, predicate, requirement) for values an experiment cannot run
# with: grids need two points, the aklt sweep a positive step, and the
# rank-lowering retraction an essential rank of at least 2.
_PARAM_CHECKS = {
    "gamma-check": (("t_steps", lambda v: _int_at_least(v, 2), "an integer >= 2"),),
    "contract-sweep": (("s_steps", lambda v: _int_at_least(v, 2), "an integer >= 2"),),
    "aklt-sweep": (("g_step", lambda v: isinstance(v, (int, float))
                    and not isinstance(v, bool) and 0.0 < v < math.inf,
                    "a positive number"),),
    "retract-sweep": (("chis", lambda v: isinstance(v, list) and len(v) > 0
                       and all(_int_at_least(c, 2) for c in v),
                       "a non-empty list of integers >= 2"),),
}


def run_experiment(name: str, params: dict, seed, out_dir: Path,
                   tols: Tolerances) -> int:
    """Execute one experiment, write its artifacts, and return the exit code."""
    merged = dict(_DEFAULT_PARAMS[name])
    unknown = set(params) - set(merged)
    if unknown:
        raise ValueError(f"unknown parameters for {name}: {sorted(unknown)}")
    merged.update(params)
    for key, valid, requirement in _PARAM_CHECKS.get(name, ()):
        if not valid(merged[key]):
            raise ValueError(f"{name}: {key} must be {requirement}, got {merged[key]!r}")
    if name in SEEDED and seed is None:
        raise ValueError(f"experiment {name} is randomized and requires a seed")
    rng = np.random.default_rng(np.random.PCG64(seed)) if seed is not None else None
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        columns, rows, summary, failures = _BODIES[name](merged, rng, tols)
    except TimpsError as exc:
        columns, rows, summary = [], [], {}
        failures = [f"{type(exc).__name__}: {exc}"]
    stem = name
    _write_csv(out_dir / f"{stem}.csv", name, seed, columns, rows)
    doc = {
        "meta": _meta(name, seed),
        "params": merged,
        "summary": summary,
        "pass": not failures,
        "failures": failures,
    }
    _write_json(out_dir / f"{stem}.json", doc)
    if failures:
        print(json.dumps({"experiment": name, "pass": False,
                          "failures": failures}, sort_keys=True))
        return 1
    print(f"{name}: PASS")
    return 0


def _parse_tol_overrides(pairs) -> Tolerances:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"tolerance override must be KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = float(value)
    return DEFAULT_TOLS.override(**overrides)


def _run_from_config(path: str) -> int:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        allowed = {"experiment", "seed", "out", "params", "tolerances"}
        unknown = set(doc) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        name = doc.get("experiment")
        if name not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {name!r}")
        seed = doc.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ValueError("seed must be an integer")
        overrides = doc.get("tolerances", {})
        if not isinstance(overrides, dict):
            raise ValueError("tolerances must be an object")
        tols = DEFAULT_TOLS.override(**overrides)
        params = doc.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("params must be an object")
        out_dir = Path(doc.get("out") or ".")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_experiment(name, params, seed, out_dir, tols)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _add_common(p: argparse.ArgumentParser, seeded: bool) -> None:
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--tol", action="append", metavar="KEY=VAL",
                   help="tolerance override (repeatable)")
    if seeded:
        p.add_argument("--seed", type=int, required=True,
                       help="PRNG seed (PCG64); recorded in output headers")
    else:
        p.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timps",
        description="experiment runner for the translation-invariant MPS library",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma-check", help="isometry path deviation sweep")
    p.add_argument("--phi", choices=["both", "shift", "3n+1"], default="both")
    p.add_argument("--block", type=int, default=64)
    p.add_argument("--t-steps", type=int, default=21, dest="t_steps")
    _add_common(p, seeded=False)

    p = sub.add_parser("contract-sweep", help="contraction path membership sweep")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--s-steps", type=int, default=11, dest="s_steps")
    _add_common(p, seeded=True)

    p = sub.add_parser("retract-sweep", help="rank-lowering retraction sweep")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--chi", default="2,3",
                   help="comma-separated essential ranks to sample")
    _add_common(p, seeded=True)

    p = sub.add_parser("aklt-sweep", help="interpolation family invariants")
    p.add_argument("--g-start", type=float, default=0.05, dest="g_start")
    p.add_argument("--g-stop", type=float, default=0.95, dest="g_stop")
    p.add_argument("--g-step", type=float, default=0.05, dest="g_step")
    _add_common(p, seeded=False)

    p = sub.add_parser("chern", help="plaquette Chern number of a family")
    p.add_argument("--family", default="psi2",
                   help="family name (psi2|pump|aklt) or @FILE with a JSON spec")
    p.add_argument("--mesh", default="32x32")
    _add_common(p, seeded=False)

    p = sub.add_parser("pump-boundary", help="pump chart checks and boundary generator")
    p.add_argument("--mesh", default="16x16,32x32",
                   help="comma-separated mesh sizes")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--overlap-samples", type=int, default=50, dest="overlap_samples")
    p.add_argument("--annulus-samples", type=int, default=50, dest="annulus_samples")
    _add_common(p, seeded=True)

    p = sub.add_parser("oracle-check", help="expectation oracle and gauge invariance")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--gauge-trials", type=int, default=100, dest="gauge_trials")
    p.add_argument("--window-max", type=int, default=5, dest="window_max")
    _add_common(p, seeded=True)

    p = sub.add_parser("run", help="run an experiment from a JSON config file")
    p.add_argument("config", help="path to the config file")

    return parser


def _params_from_args(name: str, args) -> dict:
    if name == "gamma-check":
        return {"phi": args.phi, "block": args.block, "t_steps": args.t_steps}
    if name == "contract-sweep":
        return {"count": args.count, "s_steps": args.s_steps}
    if name == "retract-sweep":
        return {"count": args.count,
                "chis": [int(c) for c in args.chi.split(",")]}
    if name == "aklt-sweep":
        return {"g_start": args.g_start, "g_stop": args.g_stop,
                "g_step": args.g_step}
    if name == "chern":
        family = args.family
        if family.startswith("@"):
            family = json.loads(Path(family[1:]).read_text(encoding="utf-8"))
        return {"family": family, "mesh": args.mesh}
    if name == "pump-boundary":
        return {"meshes": args.mesh.split(","), "samples": args.samples,
                "overlap_samples": args.overlap_samples,
                "annulus_samples": args.annulus_samples}
    if name == "oracle-check":
        return {"trials": args.trials, "gauge_trials": args.gauge_trials,
                "window_max": args.window_max}
    raise AssertionError(name)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run_from_config(args.config)
    try:
        tols = _parse_tol_overrides(args.tol)
        params = _params_from_args(args.command, args)
        return run_experiment(args.command, params, args.seed,
                              Path(args.out), tols)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
