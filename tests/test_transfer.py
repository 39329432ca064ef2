import math
import re
import tracemalloc

import numpy as np
import pytest

from timps.cli import _ORACLE_SHAPES, _window_trace
from timps.config import DEFAULT_TOLS
from timps import transfer
from timps.errors import DegenerateLeadingEigenvalueError, NotPositiveError, WindowTooLargeError
from timps.families import aklt_path, psi2_tensor
from timps.sampling import random_core, random_gauge_move, random_observable, random_tensor_in_e
from timps.tensors import (
    GaugeMove,
    MpsTensor,
    _leading_fixed_point,
    apply_gauge,
    assemble,
    canonical_decompose,
    right_normalize,
    transfer_kernel,
)
from timps.transfer import (
    WindowObservable,
    _window_amplitudes,
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


def outer_window_density_matrix(mats, Tm, n):
    """Sum of ``mu_a |psi_ab><psi_ab|`` one outer product at a time, with
    ``psi_ab = <v_a| K^{j1} ... K^{jn} |v_b>`` over the eigenpairs of the
    Hermitized ``Tm`` and ``mu_a <= 0`` skipped: the oracle for the
    single-product ``window_density_matrix``."""
    d, chi = mats.shape[0], mats.shape[1]
    G = mats.copy()
    for _ in range(n - 1):
        G = np.einsum("sab,jbc->sjac", G, mats).reshape(-1, chi, chi)
    mu, V = np.linalg.eigh((Tm + Tm.conj().T) / 2.0)
    rho = np.zeros((d**n, d**n), dtype=complex)
    for a in range(chi):
        if mu[a] <= 0:
            continue
        for b in range(chi):
            psi = V[:, a].conj() @ G @ V[:, b]
            rho += mu[a] * np.outer(psi, psi.conj())
    return rho


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
    B = fp
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
    assert np.abs(fp - 0.5 * np.eye(2)).max() < 1e-10
    assert abs(np.trace(fp) - 1.0) < 1e-12


def test_fixed_point_refusals_are_those_of_the_stacked_pass():
    gapped = transfer_matrix(aklt_path(0.5), np.eye(4))
    gapless = transfer_matrix(aklt_path(1e-4), np.eye(4))
    # a gapped spectrum whose leading eigenvector, vec(E_01), is traceless;
    # no core has it, since a completely positive map has a positive lead
    traceless = np.diag([0.5, 1.0, 0.2, 0.5]).astype(complex)
    vals, w, V, errors = _leading_fixed_point(np.array([gapped, gapless, traceless]), 2,
                                              DEFAULT_TOLS)
    assert sorted(errors) == [1, 2]
    with pytest.raises(DegenerateLeadingEigenvalueError) as gap:
        fixed_point(aklt_path(1e-4))
    assert str(gap.value) == str(errors[1]) == "transfer gap too small: |lambda_2| = 0.999999986667"
    assert type(errors[2]) is DegenerateLeadingEigenvalueError
    assert str(errors[2]) == "leading eigenvector is traceless"
    one = _leading_fixed_point(gapped[None], 2, DEFAULT_TOLS)
    assert one[3] == {}
    for stacked, alone in zip((vals, w, V), one[:3]):
        assert np.array_equal(stacked[0], alone[0])


def test_fixed_point_of_a_stack_is_the_n1_calls_bit_for_bit(make_rng):
    rng = make_rng(16)
    shapes = [(4, 2), (2, 1), (4, 2), (3, 1), (4, 2), (2, 1), (9, 3)]
    cores = [random_core(rng, d, chi).tensor for d, chi in shapes]
    stack = np.array([K.mats for K in cores if K.d == 4])
    for K, fp in [*zip(cores, fixed_point(cores)),
                  *zip([K for K in cores if K.d == 4], fixed_point(stack))]:
        alone = fixed_point(K)
        assert np.array_equal(fp, alone)
    assert fixed_point([]) == []


def test_fixed_point_of_a_stack_gives_each_n1_refusal_by_index(monkeypatch):
    # transfer matrices no core has: a traceless lead, and a lead whose
    # Hermitized fixed point is diag(2, -1); entry k of the stack is marked
    # by its first matrix entry
    v = np.array([1.0, 0.0, 0.0, -0.5]) / math.sqrt(1.25)
    table = [transfer_matrix(aklt_path(0.5), np.eye(4)),
             transfer_matrix(aklt_path(1e-4), np.eye(4)),
             np.diag([0.5, 1.0, 0.2, 0.5]).astype(complex),
             np.outer(v, v) + 0.2 * (np.eye(4) - np.outer(v, v))]
    real = transfer.transfer_matrix

    def marked(mats, C):
        return np.array([table[int(m[0, 0, 0].real)] for m in mats]) if mats.ndim == 4 \
            else real(mats, C)

    monkeypatch.setattr(transfer, "transfer_matrix", marked)
    cores = [np.full((4, 2, 2), float(k), dtype=complex) for k in (3, 0, 1, 2, 0)]
    stacked = fixed_point(np.array(cores))
    assert [type(x) for x in fixed_point(cores)] == [type(x) for x in stacked]
    assert np.array_equal(stacked[1], fixed_point(cores[1]))
    messages = {0: "Hermitized fixed point has eigenvalue -1.000e+00 < -tol_norm",
                2: "transfer gap too small: |lambda_2| = 0.999999986667",
                3: "leading eigenvector is traceless"}
    for k, message in messages.items():
        assert type(stacked[k]) is (NotPositiveError if k == 0 else
                                    DegenerateLeadingEigenvalueError)
        assert str(stacked[k]) == message
        with pytest.raises(type(stacked[k])) as alone:
            fixed_point(cores[k])
        assert str(alone.value) == message


def test_expectation_of_a_stack_matches_the_n1_calls(make_rng):
    rng = make_rng(17)
    for d, chi in _ORACLE_SHAPES:
        for n in (1, 2, 3):
            cores = [random_core(rng, d, chi).tensor for _ in range(5)]
            fps = fixed_point(cores)
            obs = [random_observable(rng, d, n) for _ in cores]
            for T in (fps, np.array(fps)):
                stacked = expectation(np.array([K.mats for K in cores]), T, obs)
                assert stacked.shape == (5,)
                for K, fp, o, value in zip(cores, fps, obs, stacked):
                    alone = expectation(K, fp, o)
                    assert abs(value - alone) <= 1e-13 * abs(alone)
            P = _window_amplitudes(cores, fps, n)
            for j, (K, fp) in enumerate(zip(cores, fps)):
                assert np.array_equal(P[j], _window_amplitudes(K, fp, n))
    K = random_core(rng, 2, 1).tensor
    fp = fixed_point(K)
    with pytest.raises(ValueError, match="share their length"):
        expectation([K, K], [fp, fp], [random_observable(rng, 2, n) for n in (1, 2)])


def test_fixed_point_scalar_core():
    fp = fixed_point(psi2_tensor(0.6, 0.8))
    assert np.allclose(fp, [[1.0]])


def test_fixed_point_residual_random_core(rng):
    for _ in range(5):
        K = random_core(rng, 4, 2)
        fp = fixed_point(K)
        mat = transfer_matrix(K, np.eye(4))
        resid = np.linalg.norm(mat @ fp.reshape(-1) - fp.reshape(-1))
        assert resid < 1e-10
        w = np.linalg.eigvalsh(fp)
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


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("chi", [1, 2, 3])
def test_window_density_matrix_matches_outer_loop_oracle(make_rng, d, chi):
    # any core and positive boundary matrix: the oracle needs no fixed point
    rng = make_rng(100 * d + chi)
    mats = np.stack([random_matrix(rng, chi) for _ in range(d)]) / math.sqrt(d * chi)
    X = random_matrix(rng, chi)
    Tm = X @ X.conj().T
    Tm /= np.trace(Tm)
    for n in (1, 2, 3, 4):
        rho = window_density_matrix(mats, Tm, n)
        assert np.abs(rho - outer_window_density_matrix(mats, Tm, n)).max() <= 1e-13


@pytest.mark.parametrize("rotate, spectrum", [(False, (0.7, 0.0, 0.3)),
                                               (True, (0.8, 0.5, -0.3))],
                         ids=["zero-eigenvalue", "negative-eigenvalue"])
def test_window_density_matrix_skips_nonpositive_boundary_weights(make_rng, rotate,
                                                                  spectrum):
    # a diagonal boundary matrix keeps its zero eigenvalue exact
    rng = make_rng(7)
    mats = np.stack([random_matrix(rng, 3) for _ in range(4)]) / math.sqrt(12)
    U = np.linalg.qr(random_matrix(rng, 3))[0] if rotate else np.eye(3)
    Tm = (U * np.array(spectrum)) @ U.conj().T
    for n in (1, 2, 3, 4):
        rho = window_density_matrix(mats, Tm, n)
        assert np.abs(rho - outer_window_density_matrix(mats, Tm, n)).max() <= 1e-13


@pytest.mark.parametrize("d, chi", [(2, 1), (3, 1), (4, 1), (4, 2)])
def test_window_density_matrix_is_hermitian_with_unit_trace(make_rng, d, chi):
    rng = make_rng(200 * d + chi)
    K = random_core(rng, d, chi)
    T = fixed_point(K)
    for n in (1, 2, 3, 4):
        rho = window_density_matrix(K, T, n)
        assert np.abs(rho - rho.conj().T).max() <= 1e-15
        assert abs(np.trace(rho) - 1.0) <= 1e-13


def test_stacked_window_trace_matches_per_trial_calls_and_kron_oracle(make_rng):
    # the oracle's stacked pass on the draws of one (d, chi, n) group against
    # each trial's one-entry pass and the dense trace(rho (C_1 x ... x C_n))
    rng = make_rng(11)
    for d, chi, n in [(2, 1, 4), (3, 1, 3), (4, 1, 2), (4, 2, 4)]:
        cores = [random_core(rng, d, chi).tensor for _ in range(4)]
        fps = fixed_point(cores)
        factors = [random_observable(rng, d, n).factors for _ in cores]
        stacked = _window_trace(_window_amplitudes(cores, fps, n), factors)
        for j, (K, T) in enumerate(zip(cores, fps)):
            alone = _window_trace(_window_amplitudes([K], [T], n), factors[j:j + 1])
            assert alone.shape == (1,) and alone[0] == stacked[j]
            dense = np.trace(window_density_matrix(K, T, n) @ kron_all(factors[j]))
            assert abs(stacked[j] - dense) <= 1e-13 * abs(dense)


@pytest.mark.parametrize("d, n", [(d, n) for d in (2, 3, 4)
                                  for n in range(1, 11) if d**n <= 1024])
def test_site_by_site_window_trace_matches_kron_oracle(make_rng, d, n):
    # generic complex factor P and non-Hermitian factors: a transposed index
    # or a conjugate on the wrong side shows
    rng = make_rng(10 * d + n)
    for r in (1, 4):
        P = rng.normal(size=(d**n, r)) + 1j * rng.normal(size=(d**n, r))
        factors = [random_matrix(rng, d) for _ in range(n)]
        dense = np.trace(P @ P.conj().T @ kron_all(factors))
        scale = np.linalg.norm(P) ** 2 * math.prod(np.linalg.norm(C) for C in factors)
        assert abs(_window_trace(P[None], [factors])[0] - dense) <= 1e-12 * scale


def test_window_oracle_trial_peak_memory_is_one_amplitude_factor(make_rng):
    # one d=4, n=5 oracle trial holds the 1024 x 4 factor P and a few copies
    # of it, not the 16 MiB d^n x d^n density matrix
    rng = make_rng(5)
    K = random_core(rng, 4, 2)
    T = fixed_point(K)
    obs = random_observable(rng, 4, 5)
    tracemalloc.start()
    try:
        _window_trace(_window_amplitudes([K], [T], obs.n), [obs.factors])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024**2


@pytest.mark.parametrize("d, chi", _ORACLE_SHAPES)
def test_window_density_matrix_is_the_product_of_its_amplitude_factor(make_rng, d, chi):
    rng = make_rng(300 * d + chi)
    K = random_core(rng, d, chi)
    T = fixed_point(K)
    for n in (1, 2, 3):
        P = _window_amplitudes(K, T, n)
        assert np.array_equal(window_density_matrix(K, T, n), P @ P.conj().T)


@pytest.mark.parametrize("d, chi, n", [(4, 2, 1), (4, 2, 2), (3, 1, 3), (2, 1, 5), (4, 2, 3)])
def test_window_density_matrix_of_a_stack_is_the_n1_calls_bit_for_bit(make_rng, d, chi, n):
    rng = make_rng(100 * d + 10 * chi + n)
    for m in (3, 4):
        cores = [random_core(rng, d, chi).tensor for _ in range(m)]
        fps = fixed_point(cores)
        for K in (cores, np.array([K.mats for K in cores])):
            stacked = window_density_matrix(K, fps, n)
            assert stacked.shape == (m, d**n, d**n)
            for j, (core, T) in enumerate(zip(cores, fps)):
                assert np.array_equal(stacked[j], window_density_matrix(core, T, n))


def test_transfer_stacks_need_one_fixed_point_and_one_observable_per_core(make_rng):
    rng = make_rng(18)
    cores = [random_core(rng, 2, 1).tensor for _ in range(3)]
    fps = fixed_point(cores)
    obs = [random_observable(rng, 2, 2) for _ in cores]
    for K in (cores, np.array([K.mats for K in cores])):
        for call in (lambda T: _window_amplitudes(K, T, 2),
                     lambda T: window_density_matrix(K, T, 2),
                     lambda T: expectation(K, T, obs)):
            for T in (fps[:1], fps + fps[:1]):
                with pytest.raises(ValueError) as info:
                    call(T)
                assert str(info.value) == f"need one fixed point per core: got {len(T)} for 3 cores"
        for few in (obs[:1], obs[:2]):
            with pytest.raises(ValueError) as info:
                expectation(K, fps, few)
            assert str(info.value) == f"need one observable per core: got {len(few)} for 3 cores"
        assert expectation(K, fps, obs).shape == (3,)


@pytest.mark.parametrize("n", [0, -1, np.int64(0), 1.0, 2.5, True], ids=repr)
def test_window_length_below_one_or_not_an_integer_is_refused(n):
    K = aklt_path(0.5)
    T = fixed_point(K)
    for call in (_window_amplitudes, window_density_matrix):
        with pytest.raises(ValueError, match=re.escape(f"window length n must be an integer "
                                                       f">= 1, got {n!r}")):
            call(K, T, n)


def test_window_length_may_be_a_numpy_integer():
    K = aklt_path(0.5)
    T = fixed_point(K)
    for n in (1, 3):
        assert np.array_equal(window_density_matrix(K, T, np.int64(n)),
                              window_density_matrix(K, T, n))


def test_window_density_matrix_cap():
    K = aklt_path(0.5)
    with pytest.raises(WindowTooLargeError):
        window_density_matrix(K, fixed_point(K), 7)


def test_window_amplitudes_cap():
    K = aklt_path(0.5)
    with pytest.raises(WindowTooLargeError):
        _window_amplitudes(K, fixed_point(K), 7)


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


def test_correlation_length_refuses_a_gapless_spectrum():
    # |lambda_2| = 1 - (4/3) g^2 is within tol_gap = 1e-6 of 1 below g ~ 8.7e-4
    assert abs(correlation_length(aklt_path(1e-3)) - 749999.5) < 1.0
    with pytest.raises(DegenerateLeadingEigenvalueError, match="no spectral gap"):
        correlation_length(aklt_path(1e-4))


@pytest.mark.parametrize("count", [3, 4, 1])
def test_transfer_spectrum_of_a_stack_is_each_cores(rng, count):
    # d = 4 cores: a stack of three once read its count as d and was refused
    cores = [random_core(rng, 4, 2).K for _ in range(count)]
    spectra = transfer_spectrum(np.array(cores))
    assert spectra.shape == (count, 4)
    for spectrum, K in zip(spectra, cores):
        assert np.array_equal(spectrum, transfer_spectrum(K))


def test_transfer_maps_of_a_sequence_are_those_of_its_stack(rng):
    A = aklt_path(0.5)
    cores = [random_core(rng, 4, 2) for _ in range(3)]  # decompositions
    for seq in ([A, A], [A.mats, A.mats], cores, [dec.K for dec in cores]):
        stack = np.array([getattr(k, "mats", k) for k in seq])
        assert np.array_equal(transfer_spectrum(seq), transfer_spectrum(stack))
        C = rng.normal(size=(len(seq), 4, 4)) + 0j
        assert np.array_equal(transfer_matrix(seq, C), transfer_matrix(stack, C))
        assert np.array_equal(transfer_matrix(seq, np.eye(4)), transfer_matrix(stack, np.eye(4)))
    mixed = [A, random_core(rng, 4, 1).tensor]
    message = re.escape("a tensor sequence must share (d, D); got (4, 2) and (4, 1)")
    with pytest.raises(ValueError, match=message):
        transfer_spectrum(mixed)
    with pytest.raises(ValueError, match=message):
        transfer_matrix(mixed, np.eye(4))
    with pytest.raises(ValueError, match=re.escape("one (d, chi, chi) core, got shape (2, 4, 2, 2)")):
        correlation_length([A, A])


@pytest.mark.parametrize("shape", [(3, 4, 2, 2), (1, 4, 2, 2), (4, 2, 3), (2, 2)])
def test_correlation_length_takes_one_square_core(rng, shape):
    with pytest.raises(ValueError, match=re.escape(f"one (d, chi, chi) core, got shape {shape}")):
        correlation_length(rng.normal(size=shape) + 0j)


def test_trace_invariant_closed_form():
    assert abs(trace_invariant(aklt_path(0.6)) - 1.6) < 1e-12
    for g in np.linspace(0.05, 0.95, 10):
        assert abs(trace_invariant(aklt_path(g)) - 2.0 * math.sqrt(1 - g * g)) < 1e-10
    assert trace_invariant(aklt_path(0.0)) == 1.0


def test_trace_invariant_gauge_invariance(rng):
    # filler blocks of scale 1: the sampled scale 0.5 doubled, same draws
    for _ in range(100):
        dec = random_tensor_in_e(rng, 4, 3, 2)
        A = assemble(dec.X, dec.K, 2.0 * dec.M)
        move = random_gauge_move(rng, A)
        B = apply_gauge(A, GaugeMove(move.lam, move.Z, MpsTensor(move.filler.mats * 2.0)))
        assert abs(trace_invariant(A) - trace_invariant(B)) < 1e-8
