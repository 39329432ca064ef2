"""Experiment runner: reproduces every acceptance experiment from the
command line or a config file and emits machine-readable CSV/JSON artifacts.

Exit status: 0 when all embedded assertions pass, 1 on assertion failure
(with a JSON failure report on stdout), 2 on argument or config errors.
Identical configuration and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import DEFAULT_TOLS, Param, Tolerances, _is_number, checked
from .errors import TimpsError
from .families import (
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
    contraction_output_dims,
    contraction_path,
    isometry_path_block,
    retract,
)
from .invariants import CHUNK, chern_verdict, curvature_report
from .sampling import (
    _move_draws,
    random_core,
    random_gauge_move,
    random_observable,
    random_split_spectrum_tensor,
    random_tensor_in_e,
)
from .tensors import (
    CanonicalDecomposition,
    _decomposition_pass,
    _unrefused,
    apply_gauge,
    canonical_decompose,
    fidelity_per_site,
    gauge_equivalent,
)
from .transfer import (
    WINDOW_CAP,
    _window_amplitudes,
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

def _header(experiment: str, seed) -> str:
    seed_txt = "none" if seed is None else str(seed)
    return (f"# timps {__version__} experiment={experiment} seed={seed_txt} "
            f"rng={RNG_NAME} convention={CONVENTION}")


def _csv_rows(columns: dict, rows: slice = slice(None)) -> list[str]:
    """CSV lines of ``rows`` of a dict of equal-length columns, by :func:`_column_text`."""
    return list(map(",".join, zip(*(_column_text(col[rows]) for col in columns.values()))))


def _column_text(col) -> list:
    """The text of each entry of a column (a sequence or an array): ``repr``
    of a float, made once per distinct bit pattern (so -0.0 and 0.0 stay
    apart), else ``str``."""
    col = np.asarray(col)
    if col.dtype.kind != "f":
        return list(map(str, col.tolist()))
    bits, inverse = np.unique(np.ascontiguousarray(col, dtype=float).view(np.int64),
                              return_inverse=True)
    return np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[inverse].tolist()


def _columns(names: list, rows: list) -> dict:
    """The columns, by name, of a list of row tuples; empty ones with no rows."""
    return dict(zip(names, zip(*rows))) if rows else dict.fromkeys(names, ())


def _write_csv(path: Path, experiment: str, seed, columns: dict) -> None:
    with path.open("w", encoding="utf-8") as f:
        f.write(f"{_header(experiment, seed)}\n{','.join(columns)}\n")
        for start in range(0, len(next(iter(columns.values()), ())), CHUNK):
            f.write("\n".join(_csv_rows(columns, slice(start, start + CHUNK))) + "\n")


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
# experiment bodies: each returns (columns, summary, failures), the columns
# a dict from column name to sequence


_PHI_RULES = {"both": ["shift", "3n+1"], "shift": ["shift"], "3n+1": ["3n+1"]}


def _target_dev(blk: np.ndarray, rows: np.ndarray) -> float:
    """Largest entry modulus of ``blk`` minus the 0/1 matrix whose ones sit at
    ``(rows[b], b)``, computed in ``blk``'s own memory."""
    blk[rows, np.arange(blk.shape[1])] -= 1.0
    return float(np.abs(blk, out=blk).max())


def _exp_gamma_check(params, rng, tols):
    phi_names = _PHI_RULES[params["phi"]]
    block = params["block"]
    t_steps = params["t_steps"]
    rows, failures = [], []
    max_dev = 0.0
    end_dev0 = end_dev1 = 0.0
    for name in phi_names:
        phi = PhiRule.from_name(name)
        n_rows = phi(block)
        cols = np.arange(block)
        for k in range(t_steps):
            t = k / (t_steps - 1)
            blk = isometry_path_block(phi, t, n_rows, block)
            dev = _target_dev(blk.T @ blk, cols)
            del blk  # so that the next step's block is built alone
            rows.append((name, t, dev))
            max_dev = max(max_dev, dev)
        # one endpoint at a time: the identity's leading block at t = 0, the
        # entries (phi(b), b) at t = 1
        end_dev0 = max(end_dev0, _target_dev(isometry_path_block(phi, 0.0, n_rows, block), cols))
        end_dev1 = max(end_dev1, _target_dev(isometry_path_block(phi, 1.0, n_rows, block),
                                             phi(cols + 1) - 1))
    _check(failures, max_dev <= 1e-12, f"isometry deviation {max_dev:.3e} > 1e-12")
    _check(failures, end_dev0 <= 1e-14, f"t=0 endpoint deviation {end_dev0:.3e} > 1e-14")
    _check(failures, end_dev1 <= 1e-14, f"t=1 endpoint deviation {end_dev1:.3e} > 1e-14")
    summary = {"max_isometry_dev": max_dev, "endpoint_dev_t0": end_dev0,
               "endpoint_dev_t1": end_dev1, "block": block}
    return _columns(["phi", "t", "isometry_dev"], rows), summary, failures


# Bytes a stacked pass holds at once, a bound on three things: a sweep's draw
# window ends once its drawn cases hold this many bytes, a sweep's drawn cases
# of one shape run in one stacked call once their output tensors reach it,
# and an oracle-check pass (expectation, amplitude factor and trace of a (d,
# chi, n) group) holds a few arrays of at most this many bytes.  On a 2-CPU
# VM, retract-sweep --count 400 peaks at 41.3, 41.3, 42.7 and 45.8 MB with 128
# KB, 256 KB, 512 KB and 1 MB, contract-sweep --count 200 at 40.5, 40.5,
# 41.6 and 44.0 MB, and they take 0.54/0.25, 0.47/0.21, 0.45/0.19 and
# 0.43/0.18 s: past 256 KB the time saved is small and the peak grows.
SWEEP_CHUNK_BYTES = 1 << 18


def _decomposition_bytes(d: int, D: int, chi: int) -> int:
    """Array bytes of a decomposition of a ``(d, D, D)`` tensor at rank ``chi``:
    the tensor, ``X`` and the ``K, M`` blocks."""
    return 16 * (d * D * D + D * D + d * D * chi)


def _sweep(count: int, draw, key, nbytes, run, held):
    """Rows and failures of a randomized sweep, in case order.

    Cases are drawn in RNG order in windows that end with the case whose
    ``held(case)``, the bytes a drawn case holds until it runs, brings the
    window's total to ``SWEEP_CHUNK_BYTES``: ``draw(cases)`` gives a window's
    drawn cases in order, and ends with the ``TimpsError`` of a failed draw.
    Drawn cases of equal ``key(drawn)`` wait until their output bytes
    ``nbytes(case)`` reach ``SWEEP_CHUNK_BYTES``, then go through one
    ``run(items)`` call on ``(case, drawn)`` pairs, which returns each case's
    rows and failures.  The cases still waiting run after the last window, or
    before a failed draw is raised, as in a one-case-at-a-time loop; ``run``
    may raise only errors whose type and message do not depend on the case.
    """
    done, waiting, case, error = {}, {}, 0, None

    def run_key(k):
        items = waiting.pop(k)[0]
        done.update(zip((c for c, _ in items), run(items)))

    while case < count and error is None:
        cases, budget = [], SWEEP_CHUNK_BYTES
        while case < count and budget > 0:
            cases.append(case)
            budget -= held(case)
            case += 1
        drawn = draw(cases)
        error = drawn.pop() if drawn and isinstance(drawn[-1], TimpsError) else None
        for item in zip(cases, drawn):
            k = key(item[1])
            group = waiting.setdefault(k, [[], 0])
            group[0].append(item)
            group[1] += nbytes(item[0])
            if group[1] >= SWEEP_CHUNK_BYTES:
                run_key(k)
    for k in list(waiting):  # in the order of their first waiting case
        run_key(k)
    if error is not None:
        raise error
    rows, failures = [], []
    for c in range(count):
        rows += done[c][0]
        failures += done[c][1]
    return rows, failures


def _gauge_moved(drawn: list, tols: Tolerances) -> list:
    """``(dec, decomposition or refusal of its gauge-moved copy)`` of each
    drawn ``(dec, move draws)``, in order: the moves built in one call, applied
    in one call and the copies decomposed in one call; ends with the
    ``TimpsError`` that ends ``drawn`` or that the first failing
    ``apply_gauge`` raises, where a case-by-case loop stops."""
    end = [x for x in drawn if isinstance(x, TimpsError)]
    cases = drawn[:len(drawn) - len(end)]
    decs = [dec for dec, _ in cases]
    moved = apply_gauge(decs, random_gauge_move([x for _, x in cases], decs, tols), tols)
    if moved and isinstance(moved[-1], TimpsError):
        end = [moved.pop()]
    return list(zip(decs, canonical_decompose(moved, tols))) + end


_CONTRACT_SHAPES = ((4, 2, 2), (4, 3, 2), (2, 2, 1), (3, 2, 1))


def _exp_contract_sweep(params, rng, tols):
    count, s_steps = params["count"], params["s_steps"]
    s_grid = [k / (s_steps - 1) for k in range(s_steps)]
    shapes = [_CONTRACT_SHAPES[case % len(_CONTRACT_SHAPES)] for case in range(count)]
    d_max, D_max = np.max([contraction_output_dims(d, D) for d, D, _ in shapes], axis=0)
    first_end, cross = None, 0.0  # the first run's first padded endpoint; the largest distance

    def run(items):
        nonlocal first_end, cross
        P = contraction_path([A for _, A in items], s_grid, tols=tols)
        found = _decomposition_pass(P.reshape((-1,) + P.shape[2:]), tols)
        # the last grid point is s = 1: P[:, -1] are the endpoints
        target = contraction_endpoint(items[0][1].d, items[0][1].D).mats
        devs = np.abs(P[:, -1] - target).max(axis=(1, 2, 3))
        ends = np.zeros((len(P), d_max, D_max, D_max), dtype=complex)
        ends[:, :P.shape[2], :P.shape[3], :P.shape[4]] = P[:, -1]
        first_end = ends[0] if first_end is None else first_end
        cross = max(cross, float(np.abs(ends - first_end).max()))
        ranks, norms, results = found.ranks.tolist(), found.norm.tolist(), []
        for j, (case, _) in enumerate(items):
            rows, failures = [], []
            for k, s in enumerate(s_grid, j * s_steps):
                if k in found.errors:
                    failures.append(f"case {case} s={s}: not in the tensor space "
                                    f"({found.errors[k]})")
                    rows.append((case, s, -1, math.nan))
                else:
                    rows.append((case, s, ranks[k], norms[k]))
            _check(failures, devs[j] <= 1e-12, f"case {case}: endpoint deviation {devs[j]:.3e}")
            results.append((rows, failures))
        return results

    def nbytes(case):
        d, D, _ = shapes[case]
        return 16 * s_steps * contraction_output_dims(d, D)[0] * (D + 1) ** 2

    rows, failures = _sweep(
        count, lambda cases: random_tensor_in_e(rng, *zip(*(shapes[c] for c in cases)), tols=tols),
        lambda A: (A.d, A.D), nbytes, run, held=lambda case: _decomposition_bytes(*shapes[case]))
    _check(failures, cross <= 1e-12, f"endpoints differ across inputs by {cross:.3e}")
    summary = {"count": count, "max_endpoint_cross_dev": cross}
    return _columns(["case", "s", "essential_rank", "core_norm_residual"], rows), summary, failures


_T_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _exp_retract_sweep(params, rng, tols):
    count = params["count"]
    chis = params["chis"]

    def shape(case):
        chi = chis[case % len(chis)]
        return chi, chi + (case // len(chis)) % 2

    def draw(cases):
        return _gauge_moved(random_split_spectrum_tensor(
            rng, *zip(*map(shape, cases)), tols=tols, then=_move_draws), tols)

    def run(items):
        delta, H = retract([dec_a for _, (dec_a, _) in items], _T_GRID, tols=tols)
        dist = np.abs(H - H[:, :1]).max(axis=(2, 3, 4))
        # at t = 0 the output is the input, whose decomposition is dec_a
        outs = _decomposition_pass(H[:, 1:].reshape((-1,) + H.shape[2:]), tols)
        moved, equivalent = None, {}  # the key keeps undecomposable gauge-moved inputs apart
        if isinstance(items[0][1][1], CanonicalDecomposition):
            HB = retract([dec_b for _, (_, dec_b) in items], _T_GRID[1:], tols=tols)[1]
            moved = _decomposition_pass(HB.reshape(outs.B.shape), tols)
            both = [k for k in range(len(outs.B))
                    if k not in outs.errors and k not in moved.errors]
            equivalent = dict(zip(both, gauge_equivalent(outs.cores(both), moved.cores(both),
                                                         tols)))
        ranks, norms, results = outs.ranks.tolist(), outs.norm.tolist(), []
        for j, (case, (dec_a, dec_b)) in enumerate(items):
            chi = chis[case % len(chis)]
            rows, failures = [], []
            if isinstance(dec_b, TimpsError):
                failures.append(f"case {case}: gauge-moved input not decomposable ({dec_b})")
            for i, t in enumerate(_T_GRID):
                k = j * (len(_T_GRID) - 1) + i - 1
                if i == 0:
                    rank, resid = dec_a.chi, dec_a.norm_residual
                elif k in outs.errors:
                    failures.append(f"case {case} t={t}: output not decomposable "
                                    f"({outs.errors[k]})")
                    rank, resid = -1, math.nan
                else:
                    rank, resid = ranks[k], norms[k]
                rows.append((case, chi, t, rank, delta[j], dist[j, i], resid))
                if t == 0.0:
                    _check(failures, dist[j, i] <= 1e-12,
                           f"case {case}: retraction moved the t=0 tensor by {dist[j, i]:.3e}")
                if t == 1.0:
                    _check(failures, 0 < rank < chi,
                           f"case {case}: rank {rank} not below {chi} at t=1")
                if t > 0.0 and moved is not None and k in moved.errors:
                    failures.append(f"case {case} t={t}: gauge-moved output not "
                                    f"decomposable ({moved.errors[k]})")
                elif t > 0.0 and k in equivalent:
                    _check(failures, equivalent[k],
                           f"case {case} t={t}: gauge equivariance failed")
            results.append((rows, failures))
        return results

    def nbytes(case):
        chi, D = shape(case)
        return 16 * (2 * len(_T_GRID) - 1) * (chi * D) ** 2

    def held(case):  # the drawn tensor and its gauge-moved partner, each decomposed
        chi, D = shape(case)
        return 2 * _decomposition_bytes(chi * chi, D, chi)

    rows, failures = _sweep(
        count, draw, lambda ab: (ab[0].d, ab[0].D, ab[0].chi, getattr(ab[1], "chi", None)),
        nbytes, run, held)
    summary = {"count": count, "chis": list(chis)}
    return (_columns(["case", "chi", "t", "essential_rank", "delta",
                      "dist_from_input", "core_norm_residual"], rows), summary, failures)


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
    return (_columns(["g", "f_value", "xi", "lambda2", "spectrum_dev", "fixed_point_dev"], rows),
            summary, failures)


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
    report = curvature_report(family, mesh, tols)
    nearest, residual, errors = chern_verdict(report)
    failures = [str(e) for e in errors]
    columns = {"plaquette_id": report.plaquette_ids, "theta_lo": report.theta_lo,
               "phi_lo": report.phi_lo, "curvature": report.curvature}
    summary = {
        "family": spec["family"],
        "mesh": params["mesh"],
        "chern": nearest,
        "residual": residual,
        "flagged_plaquettes": list(report.flagged),
    }
    return columns, summary, failures


def _chart_decompositions(pts: np.ndarray, north: np.ndarray, tols) -> list:
    """The decomposition or refusal of each ``(w, w4)`` row's north-chart
    (``north[k]``) or south-chart tensor, from one chart and one
    decomposition call per chart."""
    out = [None] * len(pts)
    for chart, side in ((pump_north, north), (pump_south, ~north)):
        for k, dec in zip(np.flatnonzero(side), canonical_decompose(chart(pts[side]), tols)):
            out[k] = dec
    return out


def _chunks(count: int) -> list:
    """The indices of ``count`` items, in ranges of at most ``CHUNK``."""
    return [range(start, min(start + CHUNK, count)) for start in range(0, count, CHUNK)]


def _exp_pump_boundary(params, rng, tols):
    rows, failures = [], []
    cherns = {}
    for mesh_txt in params["meshes"]:
        n_theta, n_phi = _parse_mesh(mesh_txt)
        mesh = make_sphere_mesh(n_theta, n_phi)
        report = curvature_report(boundary_generator_family(tols), mesh, tols)
        nearest, _, errors = chern_verdict(report)
        cherns[mesh_txt] = nearest
        rows.append(("boundary_chern", mesh_txt, float(nearest)))
        failures.extend(f"{mesh_txt}: {e}" for e in errors)
        _check(failures, nearest == 1,
               f"{mesh_txt}: boundary generator value {nearest}, expected +1")

    # each loop draws its samples one by one, as a per-sample loop would, then
    # checks them in stacks of CHUNK and raises the first refusal in sample order
    max_norm = 0.0
    for part in _chunks(params["samples"]):
        draws = [rng.normal(size=4) for _ in part]
        pts = np.array([x / np.linalg.norm(x) for x in draws])
        decs = _unrefused(_chart_decompositions(pts, pts[:, 3] > -0.5, tols))
        resids = [dec.norm_residual for dec in decs]
        rows += [("core_norm_residual", k, resid) for k, resid in zip(part, resids)]
        max_norm = max([max_norm] + resids)
    _check(failures, max_norm <= 1e-10,
           f"chart core normalization residual {max_norm:.3e} > 1e-10")

    min_fid = 1.0
    for part in _chunks(params["overlap_samples"]):
        draws = [(rng.normal(size=3), rng.uniform(-0.5 + 1e-6, 0.5 - 1e-6)) for _ in part]
        pts = np.array([np.append(x / np.linalg.norm(x) * math.sqrt(1.0 - w4 * w4), w4)
                        for x, w4 in draws])
        decs = _unrefused(_chart_decompositions(np.repeat(pts, 2, axis=0),
                                                np.tile([True, False], len(pts)), tols))
        agree = [n.chi == s.chi for n, s in zip(decs[0::2], decs[1::2])]
        failures += [f"overlap sample {k}: rank mismatch" for k, ok in zip(part, agree) if not ok]
        same = np.flatnonzero(agree).tolist()
        # the south chart has D = 1, so every core kept has shape (4, 1, 1)
        cores = np.array([[decs[2 * k].K, decs[2 * k + 1].K]
                          for k in same]).reshape(-1, 2, 4, 1, 1)
        fids = fidelity_per_site(cores[:, 0], cores[:, 1], tols).tolist()
        rows += [("overlap_fidelity", part[k], fid) for k, fid in zip(same, fids)]
        min_fid = min([min_fid] + fids)
    _check(failures, min_fid >= 1.0 - 1e-9,
           f"chart overlap fidelity dropped to {min_fid!r}")

    max_annulus = 0.0
    for part in _chunks(params["annulus_samples"]):
        draws = [(rng.normal(size=3), rng.uniform(0.5 + 1e-6, math.sqrt(3.0) / 2.0 - 1e-6))
                 for _ in part]
        v = np.array([x / np.linalg.norm(x) * r for x, r in draws])
        devs = np.abs(pump_lift(v, "north") - pump_lift(v, "south")).max(axis=(1, 2, 3)).tolist()
        rows += [("annulus_dev", k, dev) for k, dev in zip(part, devs)]
        max_annulus = max([max_annulus] + devs)
    _check(failures, max_annulus <= 1e-10,
           f"lift branch disagreement {max_annulus:.3e} > 1e-10")

    summary = {
        "chern": cherns,
        "max_core_norm_residual": max_norm,
        "min_overlap_fidelity": min_fid,
        "max_annulus_dev": max_annulus,
    }
    return _columns(["kind", "index", "value"], rows), summary, failures


_ORACLE_SHAPES = ((2, 1), (3, 1), (4, 1), (4, 2))


def _window_sites(d: int, window_max: int) -> int:
    """The largest n <= window_max with d**n <= WINDOW_CAP."""
    n = 0
    while n < window_max and d ** (n + 1) <= WINDOW_CAP:
        n += 1
    return n


def _window_trace(P, factors) -> np.ndarray:
    """``trace(P P^dagger (C_1 x ... x C_n)) = vdot(P, (C_1 x ... x C_n) P)``
    of each d^n x r factor of an ``(m, d^n, r)`` stack with its ``(n, d, d)``
    window factors, one site at a time, with no d^n x d^n array."""
    factors = np.asarray(factors)
    (m, n, d), Q = factors.shape[:3], P
    for k in range(n):
        Q = np.einsum("mij,majb->maib", factors[:, k], Q.reshape(m, d**k, d, -1))
    return np.array([np.vdot(p, q) for p, q in zip(P, Q)])


def _exp_oracle_check(params, rng, tols):
    # each trial set is drawn and checked CHUNK trials at a time, in the RNG
    # order of a trial-by-trial loop, raising the first refusal in trial order
    rows, failures, max_oracle_dev = [], [], 0.0
    n_max = {d: _window_sites(d, params["window_max"]) for d, _ in _ORACLE_SHAPES}
    for part in _chunks(params["trials"]):
        shapes = [_ORACLE_SHAPES[trial % len(_ORACLE_SHAPES)] for trial in part]
        drawn = random_core(rng, [d for d, _ in shapes], [chi for _, chi in shapes], tols,
                            then=lambda g, d, D, chi: random_observable(
                                g, d, int(g.integers(1, n_max[d] + 1))))
        trials = [(item[0].tensor, item[1]) for item in drawn if not isinstance(item, TimpsError)]
        fps = fixed_point([K for K, _ in trials], tols)
        _unrefused(fps + drawn)
        groups, devs = {}, [0.0] * len(trials)
        for trial, (K, obs) in enumerate(trials):
            groups.setdefault((K.mats.shape, obs.n), []).append(trial)
        for ((d, chi, _), n), group in groups.items():
            size = max(1, SWEEP_CHUNK_BYTES // (16 * d**n * chi * chi))
            for idx in (group[i:i + size] for i in range(0, len(group), size)):
                (K, obs), T = zip(*(trials[t] for t in idx)), [fps[t] for t in idx]
                rhs = _window_trace(_window_amplitudes(K, T, n), [o.factors for o in obs])
                for t, diff in zip(idx, expectation(K, T, obs) - rhs):
                    devs[t] = abs(complex(diff))
        rows += [("oracle", trial, d, chi, obs.n, dev)
                 for trial, (d, chi), (_, obs), dev in zip(part, shapes, trials, devs)]
        max_oracle_dev = max([max_oracle_dev] + devs)
    _check(failures, max_oracle_dev <= 1e-9,
           f"expectation vs window oracle deviation {max_oracle_dev:.3e} > 1e-9")

    max_gauge_dev = 0.0
    for part in _chunks(params["gauge_trials"]):
        shapes = [(4, 2) if trial % 2 == 0 else (3, 1) for trial in part]
        pairs = _gauge_moved(random_tensor_in_e(
            rng, [d for d, _ in shapes], [chi + 1 for _, chi in shapes],
            [chi for _, chi in shapes], tols=tols, then=_move_draws), tols)
        # trials end at a failed draw or move, or at a refused moved copy
        ends = [p if isinstance(p, TimpsError) else p[1] for p in pairs]
        ok = pairs[:next((t for t, x in enumerate(ends) if isinstance(x, TimpsError)), len(pairs))]
        fps = fixed_point([dec.K for pair in ok for dec in pair], tols)
        _unrefused(fps + ends[len(ok):])
        for j, (trial, (d, chi), (dec_a, dec_b)) in enumerate(zip(part, shapes, ok)):
            _check(failures, dec_a.chi == dec_b.chi,
                   f"gauge trial {trial}: essential rank changed")
            dev = 0.0
            for n in (1, 2):
                rho_a = window_density_matrix(dec_a.K, fps[2 * j], n)
                rho_b = window_density_matrix(dec_b.K, fps[2 * j + 1], n)
                dev = max(dev, float(np.abs(rho_a - rho_b).max()))
            rows.append(("gauge", trial, d, chi, 2, dev))
            max_gauge_dev = max(max_gauge_dev, dev)
    _check(failures, max_gauge_dev <= 1e-9,
           f"gauge-invariance deviation {max_gauge_dev:.3e} > 1e-9")
    summary = {"max_oracle_dev": max_oracle_dev, "max_gauge_dev": max_gauge_dev}
    return _columns(["kind", "trial", "d", "chi", "n", "dev"], rows), summary, failures


# ---------------------------------------------------------------------------
# parameter schema: one entry per experiment, one declaration per parameter


class Experiment(NamedTuple):
    body: Callable
    help: str
    seeded: bool
    params: tuple[Param, ...]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(key: str, default: int, low: int, high: float = math.inf) -> Param:
    return Param(key, default, int, lambda v, _: _is_int(v) and low <= v <= high,
                 f"an integer >= {low}" if high == math.inf else f"an integer in [{low}, {high}]")


def _is_mesh(value) -> bool:
    try:
        sizes = _parse_mesh(value) if isinstance(value, str) else (0, 0)
    except ValueError:
        return False
    return min(sizes) >= 4 and sizes[0] * sizes[1] <= MESH_PLAQUETTES


def _is_list_of(value, item_ok) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(map(item_ok, value))


def _is_g_step(value, params) -> bool:
    """A positive step that keeps the last point of _exp_aklt_sweep at most 1."""
    if not (_is_number(value) and 0.0 < value < math.inf):
        return False
    span = (params["g_stop"] - params["g_start"]) / value
    return (math.isfinite(span)
            and round(params["g_start"] + round(span) * value, 12) <= 1.0)


# Bounds: grids need two points, the rank-lowering retraction an essential
# rank of 2, make_sphere_mesh 4x4, and a sweep or block at least one item.
# Upper bounds keep one case's arrays within 64 MiB (2**26 bytes): a
# gamma-check block of (3 block + 1) x block floats, a contract-sweep case's
# 16 s_steps d_out (D + 1)^2 output bytes, 13,824 s_steps at its largest
# shape, a retract-sweep case's 144 (chi D)^2 with D <= chi + 1, and the 196
# bytes per plaquette that chern holds from its built mesh to its CSV: mesh
# tables 132, links and their order 48, curvature and plaquette ids 16 (V <= P,
# E <= 2P); the mesh build's transient, about 3x the tables, is not counted.
MESH_PLAQUETTES = (1 << 26) // 196
_MESH = f"NxM with integers N, M >= 4 and N*M <= {MESH_PLAQUETTES}"
EXPERIMENTS = {
    "gamma-check": Experiment(_exp_gamma_check, "isometry path deviation sweep", False, (
        Param("phi", "both", str, lambda v, _: isinstance(v, str) and v in _PHI_RULES,
              f"one of {', '.join(_PHI_RULES)}"),
        _integer("block", 64, 1, 1672),
        _integer("t_steps", 21, 2),
    )),
    "contract-sweep": Experiment(_exp_contract_sweep, "contraction path membership sweep", True, (
        _integer("count", 20, 1),
        _integer("s_steps", 11, 2, 4854),
    )),
    "retract-sweep": Experiment(_exp_retract_sweep, "rank-lowering retraction sweep", True, (
        _integer("count", 100, 1),
        Param("chis", [2, 3], lambda text: [int(c) for c in text.split(",")],
              lambda v, _: _is_list_of(v, lambda c: _is_int(c) and 2 <= c <= 25),
              "a non-empty list of integers in [2, 25] (essential ranks to sample)", flag="chi"),
    )),
    "aklt-sweep": Experiment(_exp_aklt_sweep, "interpolation family invariants", False, (
        Param("g_start", 0.05, float, lambda v, _: _is_number(v) and 0.0 < v <= 1.0,
              "a number in (0, 1]"),
        Param("g_stop", 0.95, float,
              lambda v, p: _is_number(v) and p["g_start"] <= v <= 1.0,
              "a number in [g_start, 1]"),
        Param("g_step", 0.05, float, _is_g_step,
              "a finite number > 0 whose last sweep point is at most 1"),
    )),
    "chern": Experiment(_exp_chern, "plaquette Chern number of a family", False, (
        Param("family", "psi2", str, lambda v, _: isinstance(v, (str, dict)),
              "a family name (psi2|pump|aklt) or a JSON spec, given as @FILE "
              "on the command line"),
        Param("mesh", "32x32", str, lambda v, _: _is_mesh(v), _MESH),
    )),
    "pump-boundary": Experiment(_exp_pump_boundary,
                                "pump chart checks and boundary generator", True, (
        Param("meshes", ["16x16", "32x32"], lambda text: text.split(","),
              lambda v, _: _is_list_of(v, _is_mesh), f"a non-empty list of {_MESH}",
              flag="mesh"),
        _integer("samples", 200, 0),
        _integer("overlap_samples", 50, 0),
        _integer("annulus_samples", 50, 0),
    )),
    "oracle-check": Experiment(_exp_oracle_check,
                               "expectation oracle and gauge invariance", True, (
        _integer("trials", 100, 0),
        _integer("gauge_trials", 100, 0),
        _integer("window_max", 5, 1),
    )),
}


def run_experiment(name: str, params: dict, seed, out_dir: Path,
                   tols: Tolerances) -> int:
    """Execute one experiment, write its artifacts, and return the exit code.

    A parameter or seed that fails its check raises ``ValueError`` naming
    it, and so does a body's refusal of its input (a family spec, a custom
    family's tensor count); the output directory is made only once the body
    has returned, so none of these leaves a path behind."""
    checked(_CONFIG, {"experiment": name, "seed": seed}, "config")
    experiment = EXPERIMENTS[name]
    merged = checked(experiment.params, params, f"{name} param")
    rng = np.random.default_rng(np.random.PCG64(seed)) if seed is not None else None

    try:
        columns, summary, failures = experiment.body(merged, rng, tols)
    except TimpsError as exc:
        columns, summary = {}, {}
        failures = [f"{type(exc).__name__}: {exc}"]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / f"{name}.csv", name, seed, columns)
    doc = {
        "meta": _meta(name, seed),
        "params": merged,
        "summary": summary,
        "pass": not failures,
        "failures": failures,
    }
    _write_json(out_dir / f"{name}.json", doc)
    if failures:
        print(json.dumps({"experiment": name, "pass": False,
                          "failures": failures}, sort_keys=True))
        return 1
    print(f"{name}: PASS")
    return 0


def _tol_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"tolerance override must be KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        try:
            overrides[key] = float(value)
        except ValueError:
            raise ValueError(f"tolerance {key} must be a number, got {value!r}") from None
    return overrides


# the keys of a config file; the command line fills the same five
_CONFIG = (
    Param("experiment", None, str, lambda v, _: isinstance(v, str) and v in EXPERIMENTS,
          f"one of {', '.join(EXPERIMENTS)}"),
    Param("seed", None, int, lambda v, p: _is_int(v) and v >= 0
          or v is None and not EXPERIMENTS[p["experiment"]].seeded,
          "an integer >= 0 (randomized experiments require one)"),
    Param("out", ".", str, lambda v, _: isinstance(v, str), "a string"),
    Param("params", {}, json.loads, lambda v, _: isinstance(v, dict), "an object"),
    Param("tolerances", {}, json.loads, lambda v, _: isinstance(v, dict), "an object"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timps",
        description="experiment runner for the translation-invariant MPS library",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(name, help=experiment.help)
        for param in experiment.params:
            default = param.default
            shown = ",".join(map(str, default)) if isinstance(default, list) else default
            p.add_argument(param.option, dest=param.key, type=param.parse, default=default,
                           metavar=(param.flag or param.key).upper(),
                           help=f"{param.requirement} (default: {shown})")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", action="append", metavar="KEY=VAL",
                       help="tolerance override (repeatable)")
        p.add_argument("--seed", type=int, default=None, required=experiment.seeded,
                       help="PRNG seed (PCG64), an integer >= 0; recorded in output "
                            "headers" if experiment.seeded else argparse.SUPPRESS)

    p = sub.add_parser("run", help="run an experiment from a JSON config file")
    p.add_argument("config", help="path to the config file")
    return parser


def main(argv=None) -> int:
    """Run the experiment that ``argv`` (by default the process's own
    arguments) names and return its exit code.

    Run on the process's own arguments, it first freezes the objects that
    the imports made (``gc.freeze``): they live until exit, so no collection,
    the ones at interpreter shutdown included, need traverse them again.
    A caller that passes ``argv`` keeps its collector as it was."""
    if argv is None:
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        else:
            params = {p.key: getattr(args, p.key) for p in EXPERIMENTS[args.command].params}
            family = params.get("family")
            if isinstance(family, str) and family.startswith("@"):
                params["family"] = json.loads(Path(family[1:]).read_text(encoding="utf-8"))
            doc = {"experiment": args.command, "seed": args.seed, "out": args.out,
                   "params": params, "tolerances": _tol_overrides(args.tol)}
        doc = checked(_CONFIG, doc, "config")
        return run_experiment(doc["experiment"], doc["params"], doc["seed"], Path(doc["out"]),
                              DEFAULT_TOLS.override(**doc["tolerances"]))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"config error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
