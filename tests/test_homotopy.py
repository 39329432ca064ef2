import dataclasses
import math
import re

import numpy as np
import pytest
from test_cli import formatted

from timps import cli
from timps.config import DEFAULT_TOLS
from timps.errors import NotInEError, NotInOError, TimpsError
from timps.families import aklt_path, psi2_tensor
from timps.homotopy import (
    PhiRule,
    _split_spectra,
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
    CanonicalDecomposition,
    MpsTensor,
    _decomposition_pass,
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


def preimage_scan(phi: PhiRule, b: int) -> int | None:
    """The unique n with phi(n) = b, or None: the linear scan the chains were
    found by before they had a closed form; phi(n) >= n bounds it."""
    for n in range(1, b + 1):
        if phi(n) >= b:
            return n if phi(n) == b else None
    return None


@pytest.mark.parametrize("phi", [SHIFT, TRIPLE, PhiRule(1, 2), PhiRule(2, 0), PhiRule(2, 3)],
                         ids=str)
def test_closed_form_chains_match_the_preimage_scan(phi):
    chains = {}
    for b in range(1, 301):
        pre = preimage_scan(phi, b)
        chains[b] = (0, b) if pre is None else (chains[pre][0] + 1, chains[pre][1])
        assert phi.chain_decompose(b) == chains[b]


def test_identity_rule_has_no_chain():
    # every index is fixed: the scan would find each index its own preimage forever
    with pytest.raises(ValueError, match="fixes 3"):
        PhiRule.from_name("identity").chain_decompose(3)


def test_phi_rules_are_frozen_values():
    rule = PhiRule.from_name("3n+1")
    assert rule == PhiRule(3, 1) and hash(rule) == hash(PhiRule(3, 1)) and rule != SHIFT
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.a = 2
    isometry_path_block(rule, 0.4, rule(9), 9)
    assert vars(rule) == {"a": 3, "b": 1}


@pytest.mark.parametrize("a, b", [(0, 1), (1, -1), (True, 1), (1.5, 0)])
def test_phi_rules_refuse_pairs_that_are_not_affine_index_maps(a, b):
    with pytest.raises(ValueError, match="integers a >= 1 and b >= 0"):
        PhiRule(a, b)


@pytest.mark.parametrize("name", ["n+1", "triple"])
def test_phi_rule_names_have_no_aliases(name):
    with pytest.raises(ValueError, match="unknown phi rule"):
        PhiRule.from_name(name)


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


def is_split_scalar(w: np.ndarray, tols) -> bool:
    """The per-spectrum split test the stacked mask replaced."""
    lam_max, lam_min = float(w[-1]), float(w[0])
    if lam_min <= tols.eps_rank * lam_max:
        return False
    return (lam_max - lam_min) > tols.tol_distinct * lam_max


@pytest.mark.parametrize("tols", [DEFAULT_TOLS, dataclasses.replace(
    DEFAULT_TOLS, eps_rank=0.05, tol_distinct=0.5)], ids=["default", "coarse"])
def test_split_mask_matches_the_scalar_test(rng, tols):
    spectra = np.sort(rng.exponential(size=(2000, 3)) ** 4, axis=1)
    spectra[:500, 0] *= 1e-10  # near-singular spectra, on both sides of eps_rank
    mask = _split_spectra(spectra, tols)
    assert mask.dtype == bool and 0 < mask.sum() < len(mask)
    assert mask.tolist() == [is_split_scalar(w, tols) for w in spectra]
    top = 2.0
    # lam_min at exactly eps_rank * lam_max is singular; at tol_distinct 0.5 the
    # spectrum (1, 1, 2) sits exactly on the separation bound and is not split
    on_bounds = [[tols.eps_rank * top, 1.0, top], [1.0, 1.0, top]]
    assert _split_spectra(np.array(on_bounds), tols).tolist() == [False, tols.tol_distinct < 0.5]
    edges = on_bounds + [[0.7], [0.4, 0.4, 0.4], [0.0, 0.0],
                         [np.nextafter(tols.eps_rank * top, top), top], [np.nan, 1.0],
                         [0.5, np.nan], [np.nan, np.nan], [-1.0, -0.5], [0.5, np.inf]]
    for w in map(np.array, edges):
        assert _split_spectra(w[None], tols).tolist() == [is_split_scalar(w, tols)]


def test_split_spectrum_positive_case(make_rng):
    A = random_split_spectrum_tensor(make_rng(5), 2, 3)
    assert has_split_core_spectrum(A)


def test_retract_fixes_low_rank_tensors():
    A = psi2_tensor(0.6, 0.8)
    for t in (0.0, 0.4, 1.0):
        delta, H = retract(A, t)
        assert delta == 0.0
        assert np.abs(H.mats - A.mats).max() == 0.0
    B = aklt_path(0.0)
    _, H = retract(B, 0.7)
    assert np.abs(H.mats - B.mats).max() == 0.0


def test_retract_refuses_flat_full_rank_spectrum():
    with pytest.raises(NotInOError):
        retract(pauli_core(), 0.5)


def test_retract_lowers_rank(make_rng):
    rng = make_rng(31)
    for chi, D in ((2, 2), (2, 3), (3, 3)):
        A = random_split_spectrum_tensor(rng, chi, D)
        delta0, H0 = retract(A, 0.0)
        assert np.abs(H0.mats - A.mats).max() <= 1e-12
        assert delta0 > 0.0
        _, H1 = retract(A, 1.0)
        dec = canonical_decompose(H1)
        assert dec.chi < chi


def test_retract_keeps_membership_at_intermediate_times(make_rng):
    A = random_split_spectrum_tensor(make_rng(8), 2, 3)
    for t in (0.2, 0.5, 0.8, 0.95):
        _, H = retract(A, t)
        dec = canonical_decompose(H)
        assert dec.chi == 2
        gram = np.einsum("iab,icb->ac", dec.K, dec.K.conj())
        assert np.abs(gram - np.eye(2)).max() < 1e-10


def test_retract_gauge_equivariance(make_rng):
    rng = make_rng(77)
    for chi, D in ((2, 3), (3, 4)):
        A = random_split_spectrum_tensor(rng, chi, D)
        B = apply_gauge(A, random_gauge_move(rng, A))
        for t in (0.25, 0.5, 0.75, 1.0):
            assert gauge_equivalent(retract(A, t)[1], retract(B, t)[1])


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
        _, H = retract(A, t)
        dec_t = canonical_decompose(H)
        # same block basis: compare through the original bond frame
        moved = np.einsum("ba,ibc,cd->iad", dec.X.conj(), H.mats, dec.X)
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
    delta, _ = retract(A, 0.5)
    assert delta == pytest.approx(lam_min, abs=1e-12)


def test_decomposition_input_matches_tensor_input(make_rng):
    rng = make_rng(31)
    A = random_split_spectrum_tensor(rng, 3, 4).tensor
    B = apply_gauge(A, random_gauge_move(rng, A))
    dec_a, dec_b = canonical_decompose(A), canonical_decompose(B)
    assert dec_a.tensor is A
    for t in (0.0, 0.4, 1.0):
        (delta_t, from_tensor), (delta_d, from_dec) = retract(A, t), retract(dec_a, t)
        assert delta_t == delta_d
        assert np.array_equal(from_tensor.mats, from_dec.mats)
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
    A = random_split_spectrum_tensor(rng, 2, 3).tensor
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


# Parity of the stacked calls with their N=1 calls, on every sweep shape:
# retract-sweep draws chi in {2, 3} with D in {chi, chi + 1}, contract-sweep
# the four shapes below.
RETRACT_SHAPES = [(chi, D) for chi in (2, 3) for D in (chi, chi + 1)]
CONTRACT_SHAPES = cli._CONTRACT_SHAPES
TIMES = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]


def split_draws(rng, chi, D, n=3):
    """Split-spectrum decompositions and those of gauge-moved copies."""
    decs = [random_split_spectrum_tensor(rng, chi, D) for _ in range(n)]
    moved = [canonical_decompose(apply_gauge(dec, random_gauge_move(rng, dec))) for dec in decs]
    return decs, moved


@pytest.mark.parametrize("chi, D", RETRACT_SHAPES)
def test_stacked_retract_is_bit_equal_to_n1_calls(make_rng, chi, D):
    for decs in split_draws(make_rng(10 * chi + D), chi, D):
        delta, mats = retract(decs, TIMES)
        assert mats.shape == (len(decs), len(TIMES), chi * chi, D, D)
        for n, dec in enumerate(decs):
            for k, t in enumerate(TIMES):
                one_delta, H = retract(dec, t)
                assert one_delta == delta[n]
                assert np.array_equal(H.mats, mats[n, k])


@pytest.mark.parametrize("shape", CONTRACT_SHAPES)
def test_stacked_contraction_path_is_bit_equal_to_n1_calls(make_rng, shape):
    decs = [random_tensor_in_e(make_rng(sum(shape)), *shape) for _ in range(3)]
    times = [k / 10 for k in range(11)] + [0.25, 0.5, 0.75, 0.3]
    out = contraction_path(decs, times)
    assert out.shape[:2] == (len(decs), len(times))
    for n, dec in enumerate(decs):
        for k, s in enumerate(times):
            assert np.array_equal(contraction_path(dec, s).mats, out[n, k])


def assert_same_decomposition(stacked, scalar):
    assert stacked.chi == scalar.chi
    assert stacked.norm_residual == scalar.norm_residual
    for name in ("X", "K", "M", "mats"):
        assert np.array_equal(getattr(stacked, name), getattr(scalar, name))


@pytest.mark.parametrize("chi, D", RETRACT_SHAPES)
def test_stacked_decompositions_and_gauge_test_match_n1_calls(make_rng, chi, D):
    decs, moved = split_draws(make_rng(20 + 10 * chi + D), chi, D)
    outs = [canonical_decompose(retract(group, TIMES)[1].reshape((-1, chi * chi, D, D)))
            for group in (decs, moved)]
    for out in outs:
        for dec in out:
            assert_same_decomposition(dec, canonical_decompose(MpsTensor(dec.mats)))
    # t = 1 lowers the rank: pairs across times mix equal and unequal ranks
    pairs = list(zip(outs[0], outs[1])) + list(zip(outs[0], outs[1][::-1]))
    verdicts = gauge_equivalent([a for a, _ in pairs], [b for _, b in pairs])
    assert verdicts.tolist() == [gauge_equivalent(a, b) for a, b in pairs]
    assert verdicts[: len(outs[0])].all()


@pytest.mark.parametrize("chi, D", RETRACT_SHAPES)
def test_gauge_test_on_a_passs_cores_is_the_test_on_its_decompositions(make_rng, chi, D):
    decs, moved = split_draws(make_rng(20 + 10 * chi + D), chi, D)
    mats = [retract(group, TIMES)[1].reshape((-1, chi * chi, D, D)) for group in (decs, moved)]
    passes = [_decomposition_pass(m, DEFAULT_TOLS) for m in mats]
    outs = [canonical_decompose(m) for m in mats]
    kept = [k for k in range(len(mats[0])) if all(k not in p.errors for p in passes)]
    # t = 1 lowers the rank: pairs across times mix equal and unequal ranks
    a, b = kept + kept, kept + kept[::-1]
    want = [gauge_equivalent(outs[0][j], outs[1][k]) for j, k in zip(a, b)]
    assert gauge_equivalent(passes[0].cores(a), passes[1].cores(b)).tolist() == want
    # cores mixed with decompositions, and an (N, d, chi, chi) stack of cores
    assert gauge_equivalent(passes[0].cores(a), [outs[1][k] for k in b]).tolist() == want
    stack = np.array([dec.K for dec in decs])
    assert gauge_equivalent(stack, moved).tolist() == gauge_equivalent(decs, moved).tolist()
    assert gauge_equivalent(stack, moved).all()
    assert gauge_equivalent(stack[0], moved[0].K) is gauge_equivalent(decs[0], moved[0]) is True
    assert gauge_equivalent(outs[0][-1].K, outs[1][0].K) is False  # rank chi - 1 against chi


@pytest.mark.parametrize("shape", CONTRACT_SHAPES)
def test_stacked_decompositions_of_contraction_paths_match_n1_calls(make_rng, shape):
    decs = [random_tensor_in_e(make_rng(30 + sum(shape)), *shape) for _ in range(3)]
    mats = contraction_path(decs, [k / 10 for k in range(11)])
    mats = mats.reshape((-1,) + mats.shape[2:])
    for dec, m in zip(canonical_decompose(mats), mats):
        assert_same_decomposition(dec, canonical_decompose(MpsTensor(m)))


def test_gauge_test_pads_the_physical_dimension_as_the_n1_call(make_rng):
    rng = make_rng(41)
    small = [random_tensor_in_e(rng, 4, 3, 2) for _ in range(3)]
    large = [random_tensor_in_e(rng, 5, 3, 2) for _ in range(3)]
    a, b = small + large + small, large + small + small[::-1]
    assert gauge_equivalent(a, b).tolist() == [gauge_equivalent(x, y) for x, y in zip(a, b)]


def strict(**changes):
    return dataclasses.replace(DEFAULT_TOLS, **changes)


@pytest.mark.parametrize("shape", CONTRACT_SHAPES)
def test_stacked_decompositions_report_the_n1_errors(make_rng, shape):
    # at tol_norm = 2e-15 roundoff alone refuses some path tensors
    tols = strict(tol_norm=2e-15)
    decs = [random_tensor_in_e(make_rng(50 + sum(shape)), *shape) for _ in range(4)]
    mats = contraction_path(decs, [k / 10 for k in range(11)])
    mats = np.concatenate([mats.reshape((-1,) + mats.shape[2:]), np.zeros((1,) + mats.shape[2:])])
    refused = 0
    for dec, m in zip(canonical_decompose(mats, tols), mats):
        try:
            expected = canonical_decompose(MpsTensor(m), tols)
        except TimpsError as exc:
            refused += 1
            assert type(dec) is type(exc) and str(dec) == str(exc)
        else:
            assert_same_decomposition(dec, expected)
    assert refused >= 1  # the zero tensor at least


def test_stacked_retract_raises_the_error_of_the_scalar_loop(make_rng):
    decs, _ = split_draws(make_rng(60), 2, 2)
    decs.insert(1, canonical_decompose(pauli_core()))
    with pytest.raises(NotInOError) as scalar:
        [retract(dec, t) for dec in decs for t in TIMES]
    with pytest.raises(NotInOError) as stacked:
        retract(decs, TIMES)
    assert str(stacked.value) == str(scalar.value)
    with pytest.raises(ValueError) as scalar:
        retract(decs[0], 1.5)
    with pytest.raises(ValueError) as stacked:
        retract(decs, [0.5, 1.5])
    assert str(stacked.value) == str(scalar.value)
    with pytest.raises(ValueError) as scalar:
        contraction_path(decs[0], -0.1)
    with pytest.raises(ValueError) as stacked:
        contraction_path(decs, [0.5, -0.1])
    assert str(stacked.value) == str(scalar.value)


def outcome(call):
    """``call()``'s result, or the type and message of the ``TimpsError`` it raises."""
    try:
        return call()
    except TimpsError as exc:
        return type(exc), str(exc)


def mixed_rank_draws(rng):
    """Two rank-1 and two split rank-2 decompositions, all at d = 4, D = 2."""
    return ([random_tensor_in_e(rng, 4, 2, 1) for _ in range(2)],
            [random_split_spectrum_tensor(rng, 2, 2) for _ in range(2)])


def test_stacked_retract_moves_each_entry_at_its_own_rank(make_rng):
    low, high = mixed_rank_draws(make_rng(0))
    for decs in ([low[0], high[0]], [high[0], low[0]], [low[0], high[0], low[1], high[1]]):
        delta, mats = retract(decs, TIMES)
        for n, dec in enumerate(decs):
            for k, t in enumerate(TIMES):
                one_delta, H = retract(dec, t)
                assert one_delta == delta[n]
                assert np.array_equal(H.mats, mats[n, k])
    # rank-1 entries stay fixed; rank-2 entries move and drop to rank 1 at t = 1
    delta, mats = retract([low[0], high[0]], [1.0])
    assert delta[0] == 0.0 and np.array_equal(mats[0, 0], low[0].mats)
    assert delta[1] > 0.0 and canonical_decompose(MpsTensor(mats[1, 0])).chi == 1
    flat = canonical_decompose(pauli_core())
    for decs in ([low[0], flat], [flat, low[0]]):
        assert outcome(lambda: retract(decs, TIMES)) == outcome(lambda: retract(flat, 0.5))


def test_stacked_split_and_gauge_verdicts_match_n1_calls_on_mixed_ranks(make_rng):
    rng = make_rng(3)
    low, high = mixed_rank_draws(rng)
    decs = [low[0], high[0], random_tensor_in_e(rng, 3, 2, 1), random_tensor_in_e(rng, 5, 3, 2),
            canonical_decompose(aklt_path(0.5)), random_split_spectrum_tensor(rng, 3, 3), high[1]]
    split = has_split_core_spectrum(decs)
    assert split == [has_split_core_spectrum(dec) for dec in decs]
    assert split == [False, True, False, True, False, True, True]
    moved = [canonical_decompose(apply_gauge(dec, random_gauge_move(rng, dec))) for dec in decs]
    a, b = decs + decs + low, moved + moved[::-1] + high
    verdicts = gauge_equivalent(a, b)
    assert verdicts.tolist() == [gauge_equivalent(x, y) for x, y in zip(a, b)]
    assert verdicts[: len(decs)].all() and not verdicts[-2:].any()


@pytest.mark.parametrize("second, shape", [((5, 2, 2), (5, 2)), ((4, 3, 2), (4, 3))])
def test_sequences_of_mixed_shapes_are_refused_by_name(make_rng, second, shape):
    rng = make_rng(4)
    decs = [random_tensor_in_e(rng, 4, 2, 2), random_tensor_in_e(rng, *second)]
    message = re.escape(f"a tensor sequence must share (d, D); got (4, 2) and {shape}")
    with pytest.raises(ValueError, match=message):
        retract(decs, TIMES)
    with pytest.raises(ValueError, match=message):
        contraction_path(decs, TIMES)


def test_empty_sequences_are_refused_by_name():
    message = "^a tensor sequence must not be empty$"
    with pytest.raises(ValueError, match=message):
        retract([], TIMES)
    with pytest.raises(ValueError, match=message):
        contraction_path([], TIMES)


def test_spectral_filter_is_elementwise():
    x = np.array([[0.5, 1.0, 2.0], [1e-300, 0.0, -1.0]])
    t = np.array([[1.0], [0.0]])
    delta = np.array([[1.0], [0.7]])
    want = [[spectral_filter(a, b, c) for a in row]
            for row, b, c in zip(x, t[:, 0], delta[:, 0])]
    assert np.array_equal(spectral_filter(x, t, delta), want)
    assert np.array_equal(want, [[0.0, 0.0, math.sqrt(0.5)], [1.0, 0.0, 0.0]])


# One case at a time, as the sweeps ran before they were stacked: the order
# of draws, rows and failures the stacked sweeps must reproduce.

def one_at_a_time_retract_sweep(count, chis, rng, tols):
    rows, failures = [], []
    for case in range(count):
        chi = chis[case % len(chis)]
        dec_a = random_split_spectrum_tensor(rng, chi, chi + (case // len(chis)) % 2, tols)
        moved = apply_gauge(dec_a, random_gauge_move(rng, dec_a, tols=tols), tols)
        try:
            dec_b = canonical_decompose(moved, tols)
        except TimpsError as exc:
            dec_b = None
            failures.append(f"case {case}: gauge-moved input not decomposable ({exc})")
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            delta, H = retract(dec_a, t, tols=tols)
            dist = float(np.abs(H.mats - dec_a.mats).max())
            try:
                dec = canonical_decompose(H, tols)
                rank, resid = dec.chi, dec.norm_residual
            except TimpsError as exc:
                failures.append(f"case {case} t={t}: output not decomposable ({exc})")
                dec, rank, resid = None, -1, math.nan
            rows.append((case, chi, t, rank, delta, dist, resid))
            if t == 0.0 and dist > 1e-12:
                failures.append(f"case {case}: retraction moved the t=0 tensor by {dist:.3e}")
            if t == 1.0 and not 0 < rank < chi:
                failures.append(f"case {case}: rank {rank} not below {chi} at t=1")
            if t > 0.0 and dec_b is not None:
                try:
                    hb = canonical_decompose(retract(dec_b, t, tols=tols)[1], tols)
                except TimpsError as exc:
                    failures.append(f"case {case} t={t}: gauge-moved output not "
                                    f"decomposable ({exc})")
                    continue
                if dec is not None and not gauge_equivalent(dec, hb, tols):
                    failures.append(f"case {case} t={t}: gauge equivariance failed")
    return rows, failures


def one_at_a_time_contract_sweep(count, s_steps, rng, tols):
    rows, failures = [], []
    for case in range(count):
        A = random_tensor_in_e(rng, *CONTRACT_SHAPES[case % len(CONTRACT_SHAPES)], tols=tols)
        for k in range(s_steps):
            s = k / (s_steps - 1)
            try:
                dec = canonical_decompose(contraction_path(A, s, tols=tols), tols)
                rows.append((case, s, dec.chi, dec.norm_residual))
            except TimpsError as exc:
                failures.append(f"case {case} s={s}: not in the tensor space ({exc})")
                rows.append((case, s, -1, math.nan))
    return rows, failures


# Sweep budgets: smaller than one case (a window and a run per case), the
# shipped one, and larger than any whole sweep here (one window, one run per
# shape).
BUDGETS = pytest.mark.parametrize("budget", [1, cli.SWEEP_CHUNK_BYTES, 1 << 40],
                                  ids=["one-case", "shipped", "whole-sweep"])


@BUDGETS
@pytest.mark.parametrize("seed, count, tols", [
    (1, 20, strict(tol_norm=5e-15)),
    (2, 20, strict(tol_norm=5e-15)),
    (2, 40, strict(tol_fid=1e-15)),
    (3, 12, DEFAULT_TOLS),
], ids=["tol_norm-1", "tol_norm-2", "tol_fid", "default"])
def test_stacked_retract_sweep_keeps_the_one_at_a_time_order(monkeypatch, seed, count, tols,
                                                             budget):
    monkeypatch.setattr(cli, "SWEEP_CHUNK_BYTES", budget)
    rng = lambda: np.random.default_rng(np.random.PCG64(seed))  # noqa: E731
    columns, _, failures = cli._exp_retract_sweep({"count": count, "chis": [2, 3]}, rng(), tols)
    rows = list(zip(*columns.values()))
    want_rows, want_failures = one_at_a_time_retract_sweep(count, [2, 3], rng(), tols)
    assert formatted(rows) == formatted(want_rows)
    assert failures == want_failures
    assert bool(failures) == (tols is not DEFAULT_TOLS)


# at tol_norm 4e-15 roundoff alone refuses a few path points, and the draws
# of seed 1 still pass
@BUDGETS
@pytest.mark.parametrize("tols", [DEFAULT_TOLS, strict(tol_norm=4e-15)],
                         ids=["default", "tol_norm"])
def test_stacked_contract_sweep_keeps_the_one_at_a_time_order(monkeypatch, tols, budget):
    monkeypatch.setattr(cli, "SWEEP_CHUNK_BYTES", budget)
    rng = lambda: np.random.default_rng(np.random.PCG64(1))  # noqa: E731
    columns, _, failures = cli._exp_contract_sweep({"count": 12, "s_steps": 6}, rng(), tols)
    rows = list(zip(*columns.values()))
    want_rows, want_failures = one_at_a_time_contract_sweep(12, 6, rng(), tols)
    assert formatted(rows) == formatted(want_rows)
    assert failures == want_failures
    assert bool(failures) == (tols is not DEFAULT_TOLS)


@pytest.mark.parametrize("bad, raised", [
    ({8}, "run 8"),  # a case drawn before the failed draw runs first
    ({10}, "draw 9"),
    (set(), "draw 9"),
])
def test_sweep_raises_a_failed_draw_after_the_cases_before_it(monkeypatch, bad, raised):
    monkeypatch.setattr(cli, "SWEEP_CHUNK_BYTES", 4)  # windows of four cases

    def draw(cases):
        return [NotInEError("draw 9") if case == 9 else case for case in cases if case <= 9]

    def run(items):
        for case, _ in items:
            if case in bad:
                raise NotInEError(f"run {case}")
        return [([case], []) for case, _ in items]

    with pytest.raises(NotInEError, match=f"^{raised}$"):
        cli._sweep(12, draw, lambda case: case % 2, lambda _: 1, run, lambda _: 1)


def test_sweep_returns_results_in_case_order(monkeypatch):
    monkeypatch.setattr(cli, "SWEEP_CHUNK_BYTES", 5)
    calls = []

    def run(items):
        calls.append([case for case, _ in items])
        return [([case, -case], [f"case {case}"]) for case, _ in items]

    rows, failures = cli._sweep(12, list, lambda case: case % 3, lambda _: 1, run, lambda _: 1)
    assert rows == [v for case in range(12) for v in (case, -case)]
    assert failures == [f"case {case}" for case in range(12)]
    assert calls == [[0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]]


def test_sweep_runs_a_key_once_its_output_reaches_the_budget(monkeypatch):
    monkeypatch.setattr(cli, "SWEEP_CHUNK_BYTES", 4)
    calls, windows = [], []

    def draw(cases):
        windows.append(cases)
        return list(cases)

    def run(items):
        calls.append([case for case, _ in items])
        return [([case], []) for case, _ in items]

    # each case holds 1 byte and outputs 2: windows of four cases, runs of two
    rows, _ = cli._sweep(11, draw, lambda case: case % 2, lambda _: 2, run, held=lambda _: 1)
    assert rows == list(range(11))
    assert windows == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10]]
    assert calls == [[0, 2], [1, 3], [4, 6], [5, 7], [8, 10], [9]]


def array_bytes(obj) -> int:
    """Bytes of the distinct arrays a drawn case holds: those of a
    decomposition (its tensor, X, K, M), of each of a tuple's entries, or none."""
    if isinstance(obj, tuple):
        return sum(map(array_bytes, obj))
    if isinstance(obj, CanonicalDecomposition):
        return sum(a.nbytes for a in (obj.tensor.mats, obj.X, obj.K, obj.M))
    return 0


@pytest.mark.parametrize("budget", [1 << 14, cli.SWEEP_CHUNK_BYTES], ids=["small", "shipped"])
@pytest.mark.parametrize("args", [
    ["retract-sweep", "--seed", "1", "--count", "400"],
    ["contract-sweep", "--seed", "1", "--count", "200"],
], ids=["retract", "contract"])
def test_sweeps_hold_at_most_the_budget_and_one_case(monkeypatch, tmp_path, args, budget):
    # what a window's drawn cases hold and what a run's retract or
    # contraction_path calls return, measured on the arrays themselves
    monkeypatch.setattr(cli, "SWEEP_CHUNK_BYTES", budget)
    real_sweep, windows, runs, made = cli._sweep, [], [], []

    def spied(count, draw, key, nbytes, run, held=None):
        def spy_draw(cases):
            drawn = draw(cases)
            sizes = [array_bytes(x) for x in drawn if not isinstance(x, TimpsError)]
            assert all(size <= held(c) for c, size in zip(cases, sizes))
            windows.append((sum(sizes), max(map(held, cases))))
            return drawn

        def spy_run(items):
            made.clear()
            out = run(items)
            runs.append((sum(made), max(nbytes(c) for c, _ in items)))
            return out

        return real_sweep(count, spy_draw, key, nbytes, spy_run, held)

    for name in ("retract", "contraction_path"):
        real = getattr(cli, name)

        def measured(*a, _real=real, **k):
            out = _real(*a, **k)
            made.append((out[1] if isinstance(out, tuple) else out).nbytes)  # the tensors
            return out

        monkeypatch.setattr(cli, name, measured)
    monkeypatch.setattr(cli, "_sweep", spied)
    assert cli.main(args + ["--out", str(tmp_path)]) == 0
    assert len(runs) > 1
    assert all(size <= budget + case for size, case in windows)
    assert all(size <= budget + case for size, case in runs)
