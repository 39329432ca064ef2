"""Acceptance suite: one test per numbered criterion, at the stated
tolerances, printing one pass line each.  Run with ``pytest -v`` (or ``-s``
to see the lines inline)."""

import json
import math

import numpy as np

from timps.cli import main as cli_main
from timps.families import (
    aklt_path,
    boundary_generator_family,
    make_sphere_mesh,
    psi2_sphere_family,
    pump_lift,
    pump_north,
    pump_south,
)
from timps.homotopy import (
    PhiRule,
    contraction_endpoint,
    contraction_path,
    isometry_path_block,
    retract,
)
from timps.invariants import chern_number, curvature_report
from timps.sampling import (
    random_core,
    random_gauge_move,
    random_observable,
    random_split_spectrum_tensor,
    random_tensor_in_e,
)
from timps.tensors import (
    apply_gauge,
    canonical_decompose,
    essential_rank,
    fidelity_per_site,
    gauge_equivalent,
    pad_tensor,
)
from timps.transfer import (
    expectation,
    fixed_point,
    trace_invariant,
    transfer_spectrum,
    window_density_matrix,
)


def report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_01_isometry_paths():
    for name in ("shift", "3n+1"):
        phi = PhiRule.from_name(name)
        n_rows = phi(64)
        worst = 0.0
        for k in range(21):
            t = k * 0.05
            blk = isometry_path_block(phi, t, n_rows, 64)
            worst = max(worst, np.abs(blk.T @ blk - np.eye(64)).max())
        assert worst <= 1e-12
        start = isometry_path_block(phi, 0.0, n_rows, 64)
        end = isometry_path_block(phi, 1.0, n_rows, 64)
        for b in range(1, 65):
            start[b - 1, b - 1] -= 1.0
            end[phi(b) - 1, b - 1] -= 1.0
        assert np.abs(start).max() <= 1e-14
        assert np.abs(end).max() <= 1e-14
    report(1, "isometry paths")


def test_criterion_02_interpolation_transfer_spectrum():
    for k in range(1, 10):
        g = 0.1 * k
        spec = transfer_spectrum(aklt_path(g))
        lam = 1.0 - (4.0 / 3.0) * g * g
        expected = np.sort(np.array([1.0, lam, lam, lam]))[::-1]
        dev = np.abs(np.sort(spec.real)[::-1] - expected).max() + np.abs(spec.imag).max()
        assert dev <= 1e-10
        fp = fixed_point(aklt_path(g))
        assert np.abs(fp.T - 0.5 * np.eye(2)).max() <= 1e-10
    report(2, "interpolation transfer spectrum and fixed point")


def test_criterion_03_trace_invariant_discontinuity():
    for k in range(1, 10):
        g = 0.1 * k
        dev = abs(trace_invariant(aklt_path(g)) - 2.0 * math.sqrt(1.0 - g * g))
        assert dev <= 1e-10
    endpoint = trace_invariant(aklt_path(0.0))
    assert endpoint == 1.0
    limit = 2.0  # value of 2*sqrt(1-g^2) as g -> 0
    print(f"invariant limit g->0: {limit}, value at the g=0 tensor: {endpoint}")
    assert limit - endpoint == 1.0
    report(3, "trace-invariant discontinuity")


def test_criterion_04_expectation_oracle_equivalence(make_rng):
    rng = make_rng(104)
    shapes = ((2, 1), (3, 1), (4, 1), (4, 2))
    worst = 0.0
    for trial in range(100):
        d, chi = shapes[trial % 4]
        K = random_core(rng, d, chi)
        T = fixed_point(K)
        n = int(rng.integers(1, 6))
        while d**n > 4096:
            n -= 1
        obs = random_observable(rng, d, n)
        lhs = expectation(K, T, obs)
        rho = window_density_matrix(K, T, n)
        C = obs.factors[0]
        for f in obs.factors[1:]:
            C = np.kron(C, f)
        worst = max(worst, abs(lhs - complex(np.trace(rho @ C))))
    assert worst <= 1e-9
    report(4, f"expectation oracle equivalence (max dev {worst:.2e})")


def test_criterion_05_gauge_invariance(make_rng):
    # matrix-unit observables are exactly the entries of the window density
    # matrices, so comparing those covers all 1- and 2-site expectations
    rng = make_rng(105)
    worst = 0.0
    for trial in range(100):
        chi = 2 if trial % 2 == 0 else 1
        A = random_tensor_in_e(rng, 4, 3, chi)
        B = apply_gauge(A, random_gauge_move(rng, A))
        assert essential_rank(B) == essential_rank(A) == chi
        Ka = canonical_decompose(A).K
        Kb = canonical_decompose(B).K
        Ta, Tb = fixed_point(Ka), fixed_point(Kb)
        for n in (1, 2):
            dev = np.abs(window_density_matrix(Ka, Ta, n)
                         - window_density_matrix(Kb, Tb, n)).max()
            worst = max(worst, float(dev))
    assert worst <= 1e-9
    report(5, f"gauge invariance of expectations (max dev {worst:.2e})")


def test_criterion_06_retraction(make_rng):
    rng = make_rng(106)
    for case in range(100):
        chi = 2 if case % 2 == 0 else 3
        D = chi + (case // 2) % 2
        A = random_split_spectrum_tensor(rng, chi, D)
        st0 = retract(A, 0.0)
        assert np.abs(st0.tensor.mats - A.mats).max() <= 1e-12
        st1 = retract(A, 1.0)
        dec = canonical_decompose(st1.tensor)
        assert dec.chi < chi
        B = apply_gauge(A, random_gauge_move(rng, A))
        for t in (0.25, 0.5, 0.75, 1.0):
            assert gauge_equivalent(retract(A, t).tensor, retract(B, t).tensor)
    report(6, "rank-lowering retraction")


def test_criterion_07_contraction_path(make_rng):
    rng = make_rng(107)
    shapes = ((4, 2, 2), (4, 3, 2), (2, 2, 1), (3, 2, 1))
    endpoints = []
    for case in range(20):
        d, D, chi = shapes[case % 4]
        A = random_tensor_in_e(rng, d, D, chi)
        dec = canonical_decompose(A)
        for k in range(11):
            s = 0.1 * k
            P = contraction_path(dec, s)
            canonical_decompose(P)
        end = contraction_path(dec, 1.0)
        assert np.abs(end.mats - contraction_endpoint(d, D).mats).max() <= 1e-12
        endpoints.append(end)
    d_max = max(e.d for e in endpoints)
    D_max = max(e.D for e in endpoints)
    first = pad_tensor(endpoints[0], d_max, D_max).mats
    for e in endpoints[1:]:
        assert np.abs(pad_tensor(e, d_max, D_max).mats - first).max() <= 1e-12
    report(7, "contraction path membership and fixed endpoint")


def test_criterion_08_psi2_chern_number():
    for n in (16, 32, 64):
        rep = curvature_report(psi2_sphere_family(), make_sphere_mesh(n, n))
        assert abs(rep.total - round(rep.total)) < 1e-3
        assert round(rep.total) == 1
    report(8, "projective-line family has unit Chern number")


def test_criterion_09_pump(make_rng):
    rng = make_rng(109)
    worst_norm = 0.0
    for _ in range(200):
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        A = pump_north(x) if x[3] > -0.5 else pump_south(x)
        dec = canonical_decompose(A)
        gram = np.einsum("iab,icb->ac", dec.K, dec.K.conj())
        worst_norm = max(worst_norm, float(np.abs(gram - np.eye(dec.chi)).max()))
    assert worst_norm <= 1e-10

    min_fid = 1.0
    count = 0
    while count < 50:
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        if not -0.5 < x[3] < 0.5:
            continue
        dn = canonical_decompose(pump_north(x))
        ds = canonical_decompose(pump_south(x))
        assert dn.chi == ds.chi
        min_fid = min(min_fid, fidelity_per_site(dn.K, ds.K))
        count += 1
    assert min_fid >= 1.0 - 1e-9

    worst_annulus = 0.0
    for _ in range(50):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0.5 + 1e-6, math.sqrt(3) / 2 - 1e-6)
        dev = np.abs(pump_lift(v, "north").mats - pump_lift(v, "south").mats).max()
        worst_annulus = max(worst_annulus, float(dev))
    assert worst_annulus <= 1e-10

    assert chern_number(boundary_generator_family(), make_sphere_mesh(16, 16)) == 1
    assert chern_number(boundary_generator_family(), make_sphere_mesh(32, 32)) == 1
    report(9, "pump charts, lift, and boundary generator")


def test_criterion_10_determinism(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["oracle-check", "--seed", "77", "--trials", "8",
                         "--gauge-trials", "4", "--out", str(out)]) == 0
        assert cli_main(["retract-sweep", "--seed", "78", "--count", "4",
                         "--out", str(out)]) == 0
        assert cli_main(["chern", "--family", "psi2", "--mesh", "8x8",
                         "--out", str(out)]) == 0
        runs.append(out)
    for stem in ("oracle-check", "retract-sweep", "chern"):
        for ext in ("csv", "json"):
            a = (runs[0] / f"{stem}.{ext}").read_bytes()
            b = (runs[1] / f"{stem}.{ext}").read_bytes()
            assert a == b, f"{stem}.{ext} differs between identical runs"
    doc = json.loads((runs[0] / "chern.json").read_text())
    assert doc["summary"]["chern"] == 1
    report(10, "byte-identical reruns")
