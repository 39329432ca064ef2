import math

import numpy as np
import pytest

from timps.errors import WindowTooLargeError
from timps.families import aklt_path, psi2_tensor
from timps.sampling import random_core, random_gauge_move, random_observable, random_tensor_in_e
from timps.tensors import (
    MpsTensor,
    apply_gauge,
    canonical_decompose,
    right_normalize,
    transfer_kernel,
)
from timps.transfer import (
    WindowObservable,
    correlation_length,
    expectation,
    fixed_point,
    trace_invariant,
    transfer_matrix,
    transfer_spectrum,
    window_density_matrix,
)


def kron_all(factors):
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def kron_transfer_matrix(mats, C):
    """Kron-loop matrix of ``B -> sum_ij C_ij K^{i*} B K^j``: the oracle for
    the einsum kernel behind ``transfer_matrix``."""
    d, chi = mats.shape[0], mats.shape[1]
    out = np.zeros((chi * chi, chi * chi), dtype=complex)
    for i in range(d):
        Ki_dag = mats[i].conj().T
        for j in range(d):
            if C[i, j] != 0:
                out += C[i, j] * np.kron(Ki_dag, mats[j].T)
    return out


def loop_apply_transfer(mats, C, B):
    """Matrix-product loop form of one transfer step: the oracle for the
    step ``expectation`` takes."""
    out = np.zeros_like(B)
    d = mats.shape[0]
    for i in range(d):
        for j in range(d):
            if C[i, j] != 0:
                out += C[i, j] * (mats[i].conj().T @ B @ mats[j])
    return out


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


KERNEL_SHAPES = [(1, 1), (2, 1), (4, 2), (5, 2), (7, 2), (9, 3)]


@pytest.mark.parametrize("d, chi", KERNEL_SHAPES)
@pytest.mark.parametrize("weights", ["identity", "random"])
def test_transfer_matrix_matches_kron_oracle(make_rng, d, chi, weights):
    rng = make_rng(10 * d + chi)
    for _ in range(3):
        K = random_core(rng, d, chi).mats
        C = np.eye(d) if weights == "identity" else random_matrix(rng, d)
        mat = transfer_matrix(K, C)
        assert np.abs(mat - kron_transfer_matrix(K, C)).max() <= 1e-13
        B = random_matrix(rng, chi)
        step = (mat @ B.reshape(-1)).reshape(chi, chi)
        assert np.abs(step - loop_apply_transfer(K, C, B)).max() <= 1e-13


@pytest.mark.parametrize("d, chi", KERNEL_SHAPES)
def test_expectation_matches_loop_oracle(make_rng, d, chi):
    rng = make_rng(100 + 10 * d + chi)
    K = random_core(rng, d, chi)
    fp = fixed_point(K)
    obs = random_observable(rng, d, 3)
    B = fp.T
    for C in obs.factors:
        B = loop_apply_transfer(K.mats, C, B)
    assert abs(expectation(K, fp, obs) - np.trace(B)) <= 1e-13


@pytest.mark.parametrize("d, a, b", [(1, 1, 1), (4, 2, 1), (4, 1, 2), (9, 3, 2)])
def test_transfer_kernel_matches_kron_oracle(make_rng, d, a, b):
    rng = make_rng(200 + d + a + b)
    K_a = random_core(rng, max(d, a * a), a).mats[:d]
    K_b = random_core(rng, max(d, b * b), b).mats[:d]
    W = random_matrix(rng, d)
    plain = sum(np.kron(K_a[i], K_b[i].conj()) for i in range(d))
    weighted = sum(W[i, j] * np.kron(K_a[i], K_b[j].conj())
                   for i in range(d) for j in range(d))
    assert np.abs(transfer_kernel(K_a, K_b) - plain).max() <= 1e-13
    assert np.abs(transfer_kernel(K_a, K_b, W) - weighted).max() <= 1e-13
    stacked = transfer_kernel(np.stack([K_a, 2 * K_a]), np.stack([K_b, K_b]))
    assert np.abs(stacked[0] - plain).max() <= 1e-13
    assert np.abs(stacked[1] - 2 * plain).max() <= 1e-13


def test_transfer_kernel_adjoint_is_transfer_matrix(make_rng):
    rng = make_rng(300)
    K = random_core(rng, 9, 3).mats
    C = random_matrix(rng, 9)
    assert np.abs(transfer_kernel(K, K, C.conj()).conj().T
                  - kron_transfer_matrix(K, C)).max() <= 1e-13


def test_right_normalize_fixes_kernel_leading_eigenvalue(make_rng):
    rng = make_rng(301)
    raw = MpsTensor(rng.normal(size=(9, 3, 3)) + 1j * rng.normal(size=(9, 3, 3)))
    K = right_normalize(raw).mats
    vals = np.linalg.eigvals(transfer_kernel(K, K))
    assert abs(np.abs(vals).max() - 1.0) <= 1e-12


def test_transfer_matrix_scalar_normalization():
    K = psi2_tensor(0.6, 0.8j)
    mat = transfer_matrix(K, np.eye(2))
    assert mat.shape == (1, 1)
    assert abs(mat[0, 0] - 1.0) < 1e-15


def test_transfer_matrix_zero_observable():
    assert np.abs(transfer_matrix(aklt_path(0.5), np.zeros((4, 4)))).max() == 0.0


def test_transfer_matrix_rejects_wrong_observable_shape():
    with pytest.raises(ValueError):
        transfer_matrix(aklt_path(0.5), np.eye(3))


@pytest.mark.parametrize("g", [0.1 * k for k in range(1, 10)])
def test_interpolation_transfer_spectrum(g):
    spec = transfer_spectrum(aklt_path(g))
    lam = 1.0 - (4.0 / 3.0) * g * g
    expected = np.sort(np.array([1.0, lam, lam, lam]))[::-1]
    got = np.sort(spec.real)[::-1]
    assert np.abs(got - expected).max() < 1e-10
    assert np.abs(spec.imag).max() < 1e-12
    # the transfer map is self-adjoint here
    mat = transfer_matrix(aklt_path(g), np.eye(4))
    assert np.abs(mat - mat.conj().T).max() < 1e-12


@pytest.mark.parametrize("g", [0.2, 0.5, 0.8, 1.0])
def test_interpolation_fixed_point_is_half_identity(g):
    fp = fixed_point(aklt_path(g))
    assert np.abs(fp.T - 0.5 * np.eye(2)).max() < 1e-10
    assert abs(np.trace(fp.T) - 1.0) < 1e-12
    assert abs(fp.spectrum[0] - 1.0) < 1e-10


def test_fixed_point_scalar_core():
    fp = fixed_point(psi2_tensor(0.6, 0.8))
    assert np.allclose(fp.T, [[1.0]])


def test_fixed_point_residual_random_core(rng):
    for _ in range(5):
        K = random_core(rng, 4, 2)
        fp = fixed_point(K)
        mat = transfer_matrix(K, np.eye(4))
        resid = np.linalg.norm(mat @ fp.T.reshape(-1) - fp.T.reshape(-1))
        assert resid < 1e-10
        w = np.linalg.eigvalsh(fp.T)
        assert w.min() > -1e-12


def test_expectation_of_identities_is_one():
    K = aklt_path(0.7)
    T = fixed_point(K)
    obs = WindowObservable([np.eye(4)] * 3)
    assert abs(expectation(K, T, obs) - 1.0) < 1e-12


def test_expectation_product_state_single_site(rng):
    k1, k2 = 0.6, 0.8j
    K = psi2_tensor(k1, k2)
    T = fixed_point(K)
    omega = np.array([k1, k2])
    for _ in range(5):
        C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        val = expectation(K, T, WindowObservable([C]))
        direct = omega.conj() @ C @ omega
        assert abs(val - direct) < 1e-13


def test_expectation_matches_window_oracle_at_interpolation_end(rng):
    K = aklt_path(1.0)
    T = fixed_point(K)
    for n in (1, 2, 3):
        rho = window_density_matrix(K, T, n)
        obs = random_observable(rng, 4, n)
        lhs = expectation(K, T, obs)
        rhs = np.trace(rho @ kron_all(obs.factors))
        assert abs(lhs - rhs) < 1e-12


def test_window_density_matrix_single_site_product_state():
    K = psi2_tensor(0.6, 0.8)
    rho = window_density_matrix(K, fixed_point(K), 1)
    omega = np.array([0.6, 0.8])
    assert np.abs(rho - np.outer(omega, omega.conj())).max() < 1e-14


def test_window_density_matrix_is_state(rng):
    K = aklt_path(1.0)
    T = fixed_point(K)
    rho = window_density_matrix(K, T, 2)
    assert rho.shape == (16, 16)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    assert w.min() > -1e-12
    for _ in range(20):
        obs = random_observable(rng, 4, 2)
        lhs = expectation(K, T, obs)
        rhs = np.trace(rho @ kron_all(obs.factors))
        assert abs(lhs - rhs) < 1e-11


def test_window_density_matrix_cap():
    K = aklt_path(0.5)
    with pytest.raises(WindowTooLargeError):
        window_density_matrix(K, fixed_point(K), 7)


def test_translation_invariance_padding_identities(rng):
    K = random_core(rng, 4, 2)
    T = fixed_point(K)
    C = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    inner = expectation(K, T, WindowObservable([C]))
    eye = np.eye(4)
    padded = expectation(K, T, WindowObservable([eye, C, eye]))
    assert abs(inner - padded) < 1e-10


def test_expectation_gauge_invariance(rng):
    for _ in range(10):
        A = random_tensor_in_e(rng, 4, 3, 2)
        B = apply_gauge(A, random_gauge_move(rng, A))
        Ka, Kb = canonical_decompose(A).K, canonical_decompose(B).K
        Ta, Tb = fixed_point(Ka), fixed_point(Kb)
        for n in (1, 2):
            rho_a = window_density_matrix(Ka, Ta, n)
            rho_b = window_density_matrix(Kb, Tb, n)
            assert np.abs(rho_a - rho_b).max() < 1e-9


def test_correlation_length_values():
    assert abs(correlation_length(aklt_path(1.0)) - 1.0 / math.log(3.0)) < 1e-12
    lam = 1.0 - (4.0 / 3.0) * 1e-4
    assert abs(correlation_length(aklt_path(0.01)) - (-1.0 / math.log(lam))) < 1e-6
    assert correlation_length(psi2_tensor(1.0, 0.0)) == 0.0


def test_correlation_length_diverges_toward_product_point():
    xs = [correlation_length(aklt_path(g)) for g in (0.4, 0.2, 0.1, 0.05)]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_trace_invariant_closed_form():
    assert abs(trace_invariant(aklt_path(0.6)) - 1.6) < 1e-12
    for g in np.linspace(0.05, 0.95, 10):
        assert abs(trace_invariant(aklt_path(g)) - 2.0 * math.sqrt(1 - g * g)) < 1e-10
    assert trace_invariant(aklt_path(0.0)) == 1.0


def test_trace_invariant_gauge_invariance(rng):
    for _ in range(100):
        A = random_tensor_in_e(rng, 4, 3, 2, filler_scale=1.0)
        B = apply_gauge(A, random_gauge_move(rng, A, filler_scale=1.0))
        assert abs(trace_invariant(A) - trace_invariant(B)) < 1e-8
