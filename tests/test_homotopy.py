import math

import numpy as np
import pytest

from timps.errors import NotInOError
from timps.families import aklt_path, psi2_tensor
from timps.homotopy import (
    PhiRule,
    apply_bond_isometry,
    apply_physical_isometry,
    cantor_pair,
    contraction_endpoint,
    contraction_output_dims,
    contraction_path,
    has_split_core_spectrum,
    isometry_path_block,
    retract,
    spectral_filter,
)
from timps.sampling import (
    random_core,
    random_gauge_move,
    random_split_spectrum_tensor,
    random_tensor_in_e,
)
from timps.tensors import (
    MpsTensor,
    apply_gauge,
    canonical_decompose,
    essential_rank,
    gauge_equivalent,
    pad_tensor,
    right_normalize,
)

SHIFT = PhiRule.from_name("shift")
TRIPLE = PhiRule.from_name("3n+1")


def isometry_path_entry(phi: PhiRule, t: float, a: int, b: int) -> float:
    """Entry (a, b) of the isometry path at time t (1-indexed): the
    entry-by-entry oracle for ``isometry_path_block``.

    With s = sin(pi t / 2), c = cos(pi t / 2) and b = phi^k(l):
    ``(-s)^k c`` at a = l, ``(-s)^(k-j) c^2`` at a = phi^j(l) for 0 < j <= k,
    ``s`` at a = phi^(k+1)(l), zero elsewhere; columns fixed by phi stay
    Kronecker deltas.  0^0 = 1 at the endpoints.
    """
    if a < 1 or b < 1:
        raise ValueError("indices are 1-based")
    if phi(b) == b:
        return 1.0 if a == b else 0.0
    s = math.sin(math.pi * t / 2.0)
    c = math.cos(math.pi * t / 2.0)
    k, l = phi.chain_decompose(b)
    if a == l:
        return (-s) ** k * c
    node = l
    for j in range(1, k + 1):
        node = phi(node)
        if a == node:
            return (-s) ** (k - j) * c * c
    if a == phi(node):
        return s
    return 0.0


def pauli_core():
    # injective normalized core whose Gram matrix is exactly the identity
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return MpsTensor(0.5 * np.array([np.eye(2, dtype=complex), sx, sy, sz]))


def test_chain_decomposition():
    assert TRIPLE.chain_decompose(1) == (0, 1)
    assert TRIPLE.chain_decompose(4) == (1, 1)
    assert TRIPLE.chain_decompose(13) == (2, 1)
    assert TRIPLE.chain_decompose(2) == (0, 2)
    assert SHIFT.chain_decompose(5) == (4, 1)


@pytest.mark.parametrize("phi", [SHIFT, TRIPLE])
def test_entry_endpoints(phi):
    for a in range(1, 12):
        for b in range(1, 8):
            assert isometry_path_entry(phi, 0.0, a, b) == (1.0 if a == b else 0.0)
            want = 1.0 if a == phi(b) else 0.0
            assert abs(isometry_path_entry(phi, 1.0, a, b) - want) < 1e-16


@pytest.mark.parametrize("phi", [SHIFT, TRIPLE])
def test_block_matches_entry_oracle(phi):
    for t in (0.0, 0.1, 0.37, 0.5, 0.83, 1.0):
        blk = isometry_path_block(phi, t, phi(9), 9)
        for a in range(1, phi(9) + 1):
            for b in range(1, 10):
                assert blk[a - 1, b - 1] == isometry_path_entry(phi, t, a, b)


def test_entry_matches_displayed_shift_columns():
    t = 0.3
    s, c = math.sin(math.pi * t / 2), math.cos(math.pi * t / 2)
    blk = isometry_path_block(SHIFT, t, 6, 4)
    assert np.allclose(blk[:, 0], [c, s, 0, 0, 0, 0])
    assert np.allclose(blk[:, 1], [-s * c, c * c, s, 0, 0, 0])
    assert np.allclose(blk[:, 2], [s * s * c, -s * c * c, c * c, s, 0, 0])


def test_identity_rule_is_constant():
    ident = PhiRule.from_name("identity")
    for t in (0.0, 0.3, 1.0):
        assert np.allclose(isometry_path_block(ident, t, 5, 5), np.eye(5))


@pytest.mark.parametrize("phi", [SHIFT, TRIPLE])
def test_isometry_on_leading_blocks(phi):
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 21):
        blk = isometry_path_block(phi, t, phi(64), 64)
        worst = max(worst, np.abs(blk.T @ blk - np.eye(64)).max())
    assert worst <= 1e-12


def test_entry_support_bound():
    for t in (0.2, 0.7):
        for b in range(1, 6):
            for a in range(TRIPLE(b) + 1, TRIPLE(b) + 5):
                assert isometry_path_entry(TRIPLE, t, a, b) == 0.0


def test_physical_isometry_endpoints():
    A = aklt_path(0.5)
    out0 = apply_physical_isometry(A, SHIFT, 0.0)
    assert out0.d == 5
    assert np.abs(out0.mats[:4] - A.mats).max() < 1e-15
    assert np.abs(out0.mats[4]).max() < 1e-15
    out1 = apply_physical_isometry(A, SHIFT, 1.0)
    assert np.abs(out1.mats[1:] - A.mats).max() < 1e-15


def test_physical_isometry_preserves_membership():
    A = aklt_path(0.5)
    out = apply_physical_isometry(A, SHIFT, 0.37)
    dec = canonical_decompose(out)
    assert dec.chi == 2
    gram = np.einsum("iab,icb->ac", dec.K, dec.K.conj())
    assert np.abs(gram - np.eye(2)).max() < 1e-10


def test_bond_isometry_endpoints_and_membership(rng):
    A = random_tensor_in_e(rng, 4, 2, 2)
    out0 = apply_bond_isometry(A, SHIFT, 0.0)
    assert out0.D == 3
    assert np.abs(out0.mats[:, :2, :2] - A.mats).max() < 1e-15
    out1 = apply_bond_isometry(A, SHIFT, 1.0)
    assert np.abs(out1.mats[:, 1:, 1:] - A.mats).max() < 1e-15
    mid = apply_bond_isometry(A, SHIFT, 0.4)
    assert essential_rank(mid) == 2


def test_cantor_pair_is_bijective_on_a_window():
    seen = {}
    for j in range(1, 12):
        for g in range(1, 12):
            v = cantor_pair(j, g)
            assert v not in seen
            seen[v] = (j, g)
    assert cantor_pair(1, 1) == 1


def test_contraction_path_start_is_padding():
    A = aklt_path(0.5)
    d_out, D_out = contraction_output_dims(4, 2)
    start = contraction_path(A, 0.0)
    assert np.abs(start.mats - pad_tensor(A, d_out, D_out).mats).max() == 0.0


def test_contraction_path_endpoint_independent_of_input(rng):
    ends = []
    for A in (aklt_path(0.5), psi2_tensor(0.6, 0.8),
              random_tensor_in_e(rng, 4, 3, 2)):
        end = contraction_path(A, 1.0)
        assert np.abs(end.mats - contraction_endpoint(A.d, A.D).mats).max() <= 1e-12
        ends.append(end)
    d_max = max(e.d for e in ends)
    D_max = max(e.D for e in ends)
    padded = [pad_tensor(e, d_max, D_max).mats for e in ends]
    for em in padded[1:]:
        assert np.abs(em - padded[0]).max() <= 1e-12


def test_contraction_path_membership_sweep():
    A = aklt_path(0.5)
    for s in np.arange(0.1, 1.0, 0.1):
        P = contraction_path(A, float(s))
        dec = canonical_decompose(P)
        assert dec.chi in (1, 2, 3)


def test_contraction_path_rank_profile():
    # the third stage passes through one extra rank before collapsing
    A = aklt_path(0.5)
    assert essential_rank(contraction_path(A, 0.3)) == 2
    assert essential_rank(contraction_path(A, 0.6)) == 3
    assert essential_rank(contraction_path(A, 0.9)) == 1


def test_contraction_path_continuity_proxy(make_rng):
    cases = [aklt_path(0.5), psi2_tensor(0.6, 0.8),
             random_core(make_rng(0), 4, 2), random_core(make_rng(2), 4, 2),
             random_core(make_rng(100), 2, 1)]
    h = 1e-3
    for A in cases:
        dec = canonical_decompose(A)
        worst = 0.0
        for s in np.arange(0.0, 1.0 - h, 2.5e-3):
            step = np.abs(contraction_path(dec, s + h).mats
                          - contraction_path(dec, float(s)).mats).max()
            worst = max(worst, step)
        assert worst < 1e-2


def test_contraction_path_rejects_bad_parameter():
    with pytest.raises(ValueError):
        contraction_path(aklt_path(0.5), 1.5)


def test_spectral_filter_cases():
    assert spectral_filter(0.5, 1.0, 1.0) == 0.0
    assert spectral_filter(1.0, 1.0, 1.0) == 0.0
    assert spectral_filter(2.0, 1.0, 1.0) == pytest.approx(math.sqrt(0.5))
    # zero time gives the step function
    assert spectral_filter(1e-300, 0.0, 0.7) == 1.0
    assert spectral_filter(0.0, 0.0, 0.7) == 0.0
    assert spectral_filter(-1.0, 0.0, 0.7) == 0.0


def test_split_spectrum_detection():
    assert not has_split_core_spectrum(pauli_core())
    # interpolation cores have a flat Gram matrix at every g
    assert not has_split_core_spectrum(aklt_path(0.5))
    assert not has_split_core_spectrum(psi2_tensor(0.6, 0.8))


def test_split_spectrum_positive_case(make_rng):
    A = random_split_spectrum_tensor(make_rng(5), 2, 3)
    assert has_split_core_spectrum(A)


def test_retract_fixes_low_rank_tensors():
    A = psi2_tensor(0.6, 0.8)
    for t in (0.0, 0.4, 1.0):
        st = retract(A, t)
        assert st.delta == 0.0
        assert np.abs(st.tensor.mats - A.mats).max() == 0.0
    B = aklt_path(0.0)
    st = retract(B, 0.7, ambient_chi=2)
    assert np.abs(st.tensor.mats - B.mats).max() == 0.0


def test_retract_refuses_flat_full_rank_spectrum():
    with pytest.raises(NotInOError):
        retract(pauli_core(), 0.5)


def test_retract_lowers_rank(make_rng):
    rng = make_rng(31)
    for chi, D in ((2, 2), (2, 3), (3, 3)):
        A = random_split_spectrum_tensor(rng, chi, D)
        st0 = retract(A, 0.0)
        assert np.abs(st0.tensor.mats - A.mats).max() <= 1e-12
        assert st0.delta > 0.0
        st1 = retract(A, 1.0)
        dec = canonical_decompose(st1.tensor)
        assert dec.chi < chi


def test_retract_keeps_membership_at_intermediate_times(make_rng):
    A = random_split_spectrum_tensor(make_rng(8), 2, 3)
    for t in (0.2, 0.5, 0.8, 0.95):
        st = retract(A, t)
        dec = canonical_decompose(st.tensor)
        assert dec.chi == 2
        gram = np.einsum("iab,icb->ac", dec.K, dec.K.conj())
        assert np.abs(gram - np.eye(2)).max() < 1e-10


def test_retract_gauge_equivariance(make_rng):
    rng = make_rng(77)
    for chi, D in ((2, 3), (3, 4)):
        A = random_split_spectrum_tensor(rng, chi, D)
        B = apply_gauge(A, random_gauge_move(rng, A))
        for t in (0.25, 0.5, 0.75, 1.0):
            assert gauge_equivalent(retract(A, t).tensor, retract(B, t).tensor)


def test_retract_monotone_core_spectrum(make_rng):
    # at intermediate times the deformed core Gram form grows at the top
    # eigenvector and shrinks at the bottom one
    A = random_split_spectrum_tensor(make_rng(13), 3, 4)
    dec = canonical_decompose(A)
    gram = np.einsum("iba,ibc->ac", dec.K.conj(), dec.K)
    w, V = np.linalg.eigh(gram)
    v_bot, v_top = V[:, 0], V[:, -1]
    lam_min, lam_max = w[0], w[-1]
    for t in (0.3, 0.6, 0.9):
        st = retract(A, t)
        dec_t = canonical_decompose(st.tensor)
        # same block basis: compare through the original bond frame
        moved = np.einsum("ba,ibc,cd->iad", dec.X.conj(), st.tensor.mats, dec.X)
        Kt = moved[:, :3, :3]
        gram_t = np.einsum("iba,ibc->ac", Kt.conj(), Kt)
        top = float((v_top.conj() @ gram_t @ v_top).real)
        bot = float((v_bot.conj() @ gram_t @ v_bot).real)
        assert top >= lam_max - 1e-8
        assert bot <= lam_min + 1e-8
        assert dec_t.chi == 3


def test_spectrum_gap_near_lower_rank_tensor(make_rng):
    # perturbing a rank-1 tensor into rank 2 splits the core Gram spectrum
    # into a near-zero cluster and a cluster near the unperturbed floor
    rng = make_rng(3)
    base = canonical_decompose(random_core(rng, 4, 1)).K  # scalars
    eps = 1e-3
    raw = np.zeros((4, 2, 2), dtype=complex)
    raw[:, 0, 0] = base[:, 0, 0]
    raw[:, 0, 1] = eps * (rng.normal(size=4) + 1j * rng.normal(size=4))
    raw[:, 1, 0] = eps * (rng.normal(size=4) + 1j * rng.normal(size=4))
    raw[:, 1, 1] = eps * (rng.normal(size=4) + 1j * rng.normal(size=4))
    A = right_normalize(MpsTensor(raw))
    dec = canonical_decompose(A)
    assert dec.chi == 2
    gram = np.einsum("iba,ibc->ac", dec.K.conj(), dec.K)
    w = np.linalg.eigvalsh(gram)
    floor = 1.0  # smallest nonzero Gram eigenvalue of the unperturbed core
    assert w[0] < 1e-1
    assert w[-1] > floor - 1e-1


def test_retract_reports_delta(make_rng):
    A = random_split_spectrum_tensor(make_rng(21), 2, 2)
    dec = canonical_decompose(A)
    gram = np.einsum("iba,ibc->ac", dec.K.conj(), dec.K)
    lam_min = float(np.linalg.eigvalsh(gram)[0])
    st = retract(A, 0.5)
    assert st.delta == pytest.approx(lam_min, abs=1e-12)


def test_decomposition_input_matches_tensor_input(make_rng):
    rng = make_rng(31)
    A = random_split_spectrum_tensor(rng, 3, 4)
    B = apply_gauge(A, random_gauge_move(rng, A))
    dec_a, dec_b = canonical_decompose(A), canonical_decompose(B)
    assert dec_a.tensor is A
    for t in (0.0, 0.4, 1.0):
        from_tensor, from_dec = retract(A, t), retract(dec_a, t)
        assert from_tensor.delta == from_dec.delta
        assert np.array_equal(from_tensor.tensor.mats, from_dec.tensor.mats)
    for s in (0.1, 0.4, 0.6, 0.9):
        assert np.array_equal(contraction_path(A, s).mats, contraction_path(dec_a, s).mats)
    for apply in (apply_physical_isometry, apply_bond_isometry):
        assert np.array_equal(apply(A, TRIPLE, 0.3).mats, apply(dec_a, TRIPLE, 0.3).mats)
    assert has_split_core_spectrum(dec_a) == has_split_core_spectrum(A) is True
    assert gauge_equivalent(dec_a, dec_b) == gauge_equivalent(A, B) is True
    move_t = random_gauge_move(make_rng(5), A)
    move_d = random_gauge_move(make_rng(5), dec_a)
    assert move_t.lam == move_d.lam
    assert np.array_equal(move_t.Z, move_d.Z)
    assert np.array_equal(move_t.filler.mats, move_d.filler.mats)


def test_decomposition_input_is_not_recomputed(make_rng, monkeypatch):
    import timps.sampling
    import timps.tensors

    rng = make_rng(32)
    A = random_split_spectrum_tensor(rng, 2, 3)
    dec_a = canonical_decompose(A)
    dec_b = canonical_decompose(apply_gauge(A, random_gauge_move(rng, dec_a)))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return canonical_decompose(*args, **kwargs)

    for module in (timps.tensors, timps.sampling):
        monkeypatch.setattr(module, "canonical_decompose", counted)
    retract(dec_a, 0.5)
    gauge_equivalent(dec_a, dec_b)
    contraction_path(dec_a, 0.3)
    has_split_core_spectrum(dec_a)
    random_gauge_move(rng, dec_a)
    apply_physical_isometry(dec_a, SHIFT, 0.3)
    apply_bond_isometry(dec_a, SHIFT, 0.3)
    assert calls == []
    retract(A, 0.5)
    gauge_equivalent(A, dec_b)
    assert calls == [A, A]
