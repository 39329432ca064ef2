import numpy as np
import pytest

from timps.config import DEFAULT_TOLS, Tolerances
from timps.errors import (
    AmbiguousRankError,
    IncompatibleGaugeMoveError,
    NotInEError,
)
from timps.families import aklt_path
from timps.sampling import (
    _ginibre,
    _haar,
    random_core,
    random_gauge_move,
    random_tensor_in_e,
)
from timps.tensors import (
    GaugeMove,
    MpsTensor,
    _block_forms,
    _sorted_spectrum,
    apply_gauge,
    assemble,
    canonical_decompose,
    essential_rank,
    fidelity_per_site,
    gauge_equivalent,
    is_injective,
    left_gram,
    mixed_transfer_leading,
    pad_tensor,
    range_projection,
    right_gram,
    right_normalize,
    tensor_from_json,
    tensor_to_json,
    transfer_kernel,
)

ONE = MpsTensor(np.ones((1, 1, 1), dtype=complex))


def haar_unitary(rng, n):
    return _haar(_ginibre(rng, (n, n)))


def test_tensor_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        MpsTensor(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        MpsTensor(np.array([[[np.nan]]]))


def test_tensor_is_immutable():
    A = aklt_path(0.5)
    with pytest.raises(ValueError):
        A.mats[0, 0, 0] = 2.0


def test_left_gram_scalar_identity():
    assert np.allclose(left_gram(ONE), [[1.0]])


def test_left_gram_interpolation_is_identity():
    # right-normalized and the transfer map is self-adjoint on this family
    for g in (0.25, 0.5, 1.0):
        assert np.allclose(left_gram(aklt_path(g)), np.eye(2), atol=1e-14)


def test_grams_of_product_endpoint():
    ktilde = aklt_path(0.0)
    assert np.allclose(left_gram(ktilde), np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(right_gram(ktilde), np.diag([1.0, 0.0]), atol=1e-15)


def test_right_gram_of_embedded_core_has_identity_block(rng):
    drawn = random_tensor_in_e(rng, 4, 3, 2)
    dec = canonical_decompose(assemble(drawn.X, drawn.K))
    gram = np.einsum("iab,icb->ac", dec.K, dec.K.conj())
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_range_projection_diagonal_case():
    Q = range_projection(aklt_path(0.0))
    assert np.allclose(Q, np.diag([1.0, 0.0]), atol=1e-14)


def test_range_projection_matches_known_decomposition(rng):
    K = canonical_decompose(random_core(rng, 4, 2)).K
    X = haar_unitary(rng, 3)
    M = rng.normal(size=(4, 1, 2)) + 1j * rng.normal(size=(4, 1, 2))
    A = assemble(X, K, M)
    Q = range_projection(A)
    expected = X[:, :2] @ X[:, :2].conj().T
    assert abs(np.trace(Q).real - 2.0) < 1e-12
    assert np.allclose(Q, expected, atol=1e-10)
    assert np.allclose(Q @ Q, Q, atol=1e-12)
    assert np.allclose(Q, Q.conj().T, atol=1e-12)


def test_range_projection_refuses_ambiguous_cutoff():
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[0, 0, 0] = 1.0
    mats[1, 1, 1] = 3e-5  # eigenvalue ~ 9e-10, inside the (0.5, 2)*eps window
    with pytest.raises(AmbiguousRankError):
        range_projection(MpsTensor(mats), Tolerances(eps_rank=1e-9))


@pytest.mark.parametrize("g,expected", [(0.5, 2), (0.25, 2)])
def test_essential_rank_of_interpolation(g, expected):
    assert essential_rank(aklt_path(g)) == expected


def test_essential_rank_of_endpoints():
    assert essential_rank(aklt_path(0.0)) == 1
    assert essential_rank(ONE) == 1


def test_is_injective_basic_cases():
    assert is_injective(np.ones((1, 1, 1)))
    sz = np.array([np.diag([1.0, -1.0])], dtype=complex)
    assert not is_injective(sz)


def test_is_injective_on_interpolation_family():
    # full vectorization rank only on the open interval: at g = 1 the first
    # matrix vanishes and the remaining three span a 3-dimensional space
    assert is_injective(aklt_path(0.5).mats)
    assert not is_injective(aklt_path(1.0).mats)
    vec = aklt_path(1.0).mats.reshape(4, 4)
    assert np.linalg.matrix_rank(vec) == 3


def test_canonical_decompose_trivial():
    dec = canonical_decompose(ONE)
    assert dec.chi == 1
    assert dec.M.shape == (1, 0, 1)
    assert np.allclose(dec.X, [[1.0]])
    assert np.allclose(dec.K, [[[1.0]]])


def test_canonical_decompose_block_form_input(rng):
    K = canonical_decompose(random_core(rng, 4, 2)).K
    M = 0.3 * (rng.normal(size=(4, 1, 2)) + 1j * rng.normal(size=(4, 1, 2)))
    A = assemble(np.eye(3), K, M)
    dec = canonical_decompose(A)
    assert dec.chi == 2
    # recovered core equals the input core up to the basis convention
    assert abs(abs(mixed_transfer_leading(dec.K, K)) - 1.0) < 1e-10
    recon = assemble(dec.X, dec.K, dec.M)
    assert np.abs(recon.mats - A.mats).max() < 1e-10


def test_canonical_decompose_round_trip_random_basis(rng):
    for chi, D, d in ((1, 2, 3), (2, 3, 4), (3, 4, 9)):
        A = random_tensor_in_e(rng, d, D, chi).tensor
        dec = canonical_decompose(A)
        assert dec.chi == chi
        assert np.abs(assemble(dec.X, dec.K, dec.M).mats - A.mats).max() < DEFAULT_TOLS.tol_recon
        assert np.allclose(dec.X.conj().T @ dec.X, np.eye(D), atol=1e-12)


@pytest.mark.parametrize("call", [canonical_decompose, right_normalize])
def test_a_bare_tensor_array_is_refused_not_read_as_a_stack(call):
    A = aklt_path(0.5)
    for bare in (A.mats, A.mats[0], A.mats[0, 0]):
        with pytest.raises(ValueError, match=r"pass MpsTensor\(a\) .* or a\[None\]"):
            call(bare)
    one = call(A.mats[None])
    assert len(one) == 1 and np.array_equal(one[0].mats, call(A).mats)


NON_FINITE = "tensor has a non-finite left Gram matrix (entries too large or not finite)"


# at 1e160 the Gram matrix overflows, at 1e154 its symmetrization does; at
# 1e-200 it underflows to zero
@pytest.mark.parametrize("scale, decompose, normalize", [
    (1e160, NON_FINITE, NON_FINITE),
    (1e154, NON_FINITE, NON_FINITE),
    (1e-200, "tensor has numerically zero left Gram matrix",
     "cannot normalize a numerically zero tensor"),
], ids=["overflow", "symmetrization-overflow", "underflow"])
def test_an_overflowing_tensor_is_not_called_zero(scale, decompose, normalize):
    A = MpsTensor(aklt_path(0.5).mats * scale)
    for call, message in ((canonical_decompose, decompose), (right_normalize, normalize)):
        with pytest.raises(NotInEError) as alone:
            call(A)
        assert str(alone.value) == message
        stacked = call([A])[0]
        assert isinstance(stacked, NotInEError) and str(stacked) == message


def test_decomposition_is_returned_as_given(rng):
    dec = random_tensor_in_e(rng, 4, 3, 2)
    assert canonical_decompose(dec) is dec
    other = random_tensor_in_e(rng, 4, 3, 2).tensor
    found = canonical_decompose([dec, other, dec.tensor])
    assert found[0] is dec
    # the tensors are decomposed as by the N=1 call
    for got, tensor in ((found[1], other), (found[2], dec.tensor)):
        alone = canonical_decompose(tensor)
        assert all(np.array_equal(getattr(got, f), getattr(alone, f)) for f in "XKM")
        # and carry the tensor given, as the N=1 call does
        assert got.tensor is tensor is alone.tensor
    assert essential_rank(dec) == 2
    assert np.array_equal(range_projection(dec), range_projection(dec.tensor))


def test_canonical_decompose_rejects_outside_block_form(rng):
    mats = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    with pytest.raises(NotInEError):
        canonical_decompose(MpsTensor(mats))


def test_block_structure_forbids_upper_right(rng):
    # Q A (1 - Q) vanishes for tensors in the space
    for _ in range(5):
        A = random_tensor_in_e(rng, 4, 3, 2)
        Q = range_projection(A)
        comp = np.eye(3) - Q
        resid = np.einsum("ab,ibc,cd->iad", Q, A.mats, comp)
        assert np.abs(resid).max() < DEFAULT_TOLS.tol_norm


def test_right_normalize_fixes_nothing_when_normalized():
    A = aklt_path(0.5)
    out = right_normalize(A)
    assert np.abs(out.mats - A.mats).max() < DEFAULT_TOLS.tol_norm


def test_right_normalize_removes_scaling():
    A = aklt_path(0.5)
    out = right_normalize(MpsTensor(A.mats * 2.0))
    # scale removed; result equals the original up to a core unitary
    dec_out = canonical_decompose(out)
    dec_in = canonical_decompose(A)
    assert abs(abs(mixed_transfer_leading(dec_out.K, dec_in.K)) - 1.0) < 1e-10


def test_right_normalize_repairs_perturbed_core(rng):
    A = random_core(rng, 4, 2)
    noisy = MpsTensor(1.7 * A.mats + 0.05 * (rng.normal(size=A.mats.shape)
                                             + 1j * rng.normal(size=A.mats.shape)))
    out = right_normalize(noisy)
    dec = canonical_decompose(out)
    assert dec.chi == 2


def test_right_normalize_takes_one_decomposition(rng, monkeypatch):
    # the decomposition's own X, K and M are normalized: no block form is
    # computed again, and the result is that of its tensor, bit for bit
    calls = []

    def counted(*args):
        calls.append(args)
        return _block_forms(*args)

    for d, D, chi in [(4, 3, 2), (4, 2, 2), (3, 3, 1), (9, 4, 3)]:
        dec = random_tensor_in_e(rng, d, D, chi)
        want = right_normalize(dec.tensor)
        with monkeypatch.context() as patch:
            patch.setattr("timps.tensors._block_forms", counted)
            got = right_normalize(dec)
            assert calls == []
            right_normalize(dec.tensor)
            assert len(calls) == 1  # the counter sees a tensor's block forms
            calls.clear()
        assert isinstance(got, MpsTensor)
        assert (got.mats.dtype, got.mats.shape, got.mats.tobytes()) == \
            (want.mats.dtype, want.mats.shape, want.mats.tobytes())


def test_right_normalize_takes_decompositions_in_a_sequence(rng, monkeypatch):
    # a decomposition in a sequence is normalized from its own X, K and M:
    # one block-form call for the tensors only, the N=1 results in order, and
    # each refusal in its place
    calls = []

    def counted(*args):
        calls.append(args)
        return _block_forms(*args)

    decs = [random_tensor_in_e(rng, d, D, chi) for d, D, chi in [(4, 3, 2), (4, 3, 1), (9, 4, 3)]]
    tensor, zero = random_tensor_in_e(rng, 4, 3, 2).tensor, MpsTensor(np.zeros((4, 3, 3)))
    want = [right_normalize(a) for a in decs + [tensor]]
    with monkeypatch.context() as patch:
        patch.setattr("timps.tensors._block_forms", counted)
        both = right_normalize([decs[0], decs[0]])
        assert calls == []
        got = right_normalize([decs[0], tensor, decs[1], zero, decs[2]])
        assert len(calls) == 1
    assert [out.mats.tobytes() for out in both] == [want[0].mats.tobytes()] * 2
    assert isinstance(got[3], NotInEError)
    assert str(got[3]) == "cannot normalize a numerically zero tensor"
    assert [got[n].mats.tobytes() for n in (0, 2, 4, 1)] == [w.mats.tobytes() for w in want]


def identity_move(A):
    return GaugeMove(1.0 + 0.0j, np.eye(A.D, dtype=complex), MpsTensor(np.zeros_like(A.mats)))


def test_apply_gauge_identity_and_phase():
    A = aklt_path(0.5)
    assert np.abs(apply_gauge(A, identity_move(A)).mats - A.mats).max() == 0.0
    phased = apply_gauge(A, GaugeMove(1j, np.eye(2, dtype=complex),
                                      MpsTensor(np.zeros_like(A.mats))))
    assert np.abs(phased.mats - 1j * A.mats).max() == 0.0
    assert gauge_equivalent(A, phased)


def test_apply_gauge_replaces_filler(rng):
    K = canonical_decompose(random_core(rng, 4, 1)).K
    M = rng.normal(size=(4, 1, 1)) + 0j
    N = rng.normal(size=(4, 1, 1)) + 0j
    A = assemble(np.eye(2), K, M)
    tilde = np.zeros((4, 2, 2), dtype=complex)
    tilde[:, 1:, :1] = N - M
    move = GaugeMove(1.0, np.eye(2, dtype=complex), MpsTensor(tilde))
    B = apply_gauge(A, move)
    expected = assemble(np.eye(2), K, N)
    assert np.abs(B.mats - expected.mats).max() < 1e-14
    assert gauge_equivalent(A, B)


def test_apply_gauge_rejects_core_supported_filler():
    A = aklt_path(0.0)  # core on the first basis vector
    bad = np.zeros((4, 2, 2), dtype=complex)
    bad[0, 0, 0] = 0.5  # maps into the core range
    with pytest.raises(IncompatibleGaugeMoveError):
        apply_gauge(A, GaugeMove(1.0, np.eye(2, dtype=complex), MpsTensor(bad)))


def _bad_moves(rng):
    """A decomposed tensor (d=4, D=3, chi=2) with a valid move, and moves that
    fail each check of apply_gauge, with the N=1 messages."""
    dec = random_tensor_in_e(rng, 4, 3, 2)
    good = random_gauge_move(rng, dec)
    core = np.zeros((4, 3, 3), dtype=complex)
    core[:, :2, :2] = 0.1  # maps into the core range
    off = np.zeros((4, 3, 3), dtype=complex)
    off[:, 2, 2] = 0.1  # not supported on the core domain
    in_basis = [dec.X @ m @ dec.X.conj().T for m in (core, off)]
    return dec, good, [
        (GaugeMove(good.lam, np.eye(2), good.filler), "bond unitary has wrong size"),
        (GaugeMove(1.1, good.Z, good.filler), "phase is not unit modulus"),
        (GaugeMove(good.lam, 2.0 * good.Z, good.filler), "Z is not unitary"),
        (GaugeMove(good.lam, good.Z, MpsTensor(np.zeros((4, 2, 2)))), "filler has wrong shape"),
        (GaugeMove(good.lam, good.Z, MpsTensor(in_basis[0])), "filler maps into the core range"),
        (GaugeMove(good.lam, good.Z, MpsTensor(in_basis[1])),
         "filler is not supported on the core domain"),
    ]


def test_apply_gauge_on_a_sequence_is_the_n1_calls_bit_for_bit(rng):
    decs = [random_tensor_in_e(rng, d, D, chi)
            for d, D, chi in [(4, 3, 2), (2, 2, 1), (4, 3, 2), (9, 4, 3), (2, 2, 1)]]
    tensors = [dec if k % 2 else dec.tensor for k, dec in enumerate(decs)]
    moves = [random_gauge_move(rng, dec) for dec in decs]
    moved = apply_gauge(tensors, moves)
    assert len(moved) == len(decs)
    for A, move, B in zip(tensors, moves, moved):
        assert np.array_equal(B.mats, apply_gauge(A, move).mats)
    assert apply_gauge([], []) == []
    with pytest.raises(ValueError, match="one move per tensor"):
        apply_gauge(tensors, moves[:-1])


def test_apply_gauge_on_a_sequence_stops_at_the_first_refusal(rng):
    dec, good, bad = _bad_moves(rng)
    other = random_tensor_in_e(rng, 2, 2, 1)
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[0, 0, 0], mats[1, 1, 1] = 1.0, 3e-5  # range inside the cutoff window
    ambiguous = MpsTensor(mats)
    for move, message in bad + [(identity_move(ambiguous), None)]:
        target = ambiguous if message is None else dec
        error = AmbiguousRankError if message is None else IncompatibleGaugeMoveError
        with pytest.raises(error) as alone:
            apply_gauge(target, move)
        # a valid move of another shape before it, a second refusal after it
        out = apply_gauge([other, dec, target, dec, dec],
                          [random_gauge_move(rng, other), good, move, bad[0][0], good])
        assert len(out) == 3 and type(out[2]) is type(alone.value)
        assert str(out[2]) == str(alone.value)
        if message is not None:
            assert str(out[2]) == message
        assert np.array_equal(out[1].mats, apply_gauge(dec, good).mats)


def test_apply_gauge_preserves_q_conjugation(rng):
    A = random_tensor_in_e(rng, 4, 3, 2)
    move = random_gauge_move(rng, A)
    B = apply_gauge(A, move)
    Q_b = range_projection(B)
    expected = move.Z @ range_projection(A) @ move.Z.conj().T
    assert np.abs(Q_b - expected).max() < 1e-9


def test_gauge_preserves_essential_rank_many_cases(rng):
    # 200 random cases across essential ranks 1..3
    shapes = [(2, 2, 1), (4, 3, 2), (9, 4, 3)]
    for case in range(200):
        d, D, chi = shapes[case % 3]
        A = random_tensor_in_e(rng, d, D, chi)
        B = apply_gauge(A, random_gauge_move(rng, A))
        assert essential_rank(B) == essential_rank(A) == chi


def test_gauge_equivalent_phase_and_conjugation(rng):
    A = aklt_path(0.5)
    assert gauge_equivalent(A, MpsTensor(A.mats * 1j))
    W = haar_unitary(rng, 2)
    conj = MpsTensor(np.einsum("ab,ibc,dc->iad", W, A.mats, W.conj()))
    assert gauge_equivalent(A, conj)


def test_gauge_equivalent_distinguishes_interpolation_points():
    # oracle: mixed-map leading modulus from a direct 4x4 eigensolve
    Ka, Kb = aklt_path(0.3).mats, aklt_path(0.7).mats
    mat = sum(np.kron(Ka[i], Kb[i].conj()) for i in range(4))
    lead = max(abs(v) for v in np.linalg.eigvals(mat))
    assert abs(lead - 0.891248853210044) < 1e-12
    assert lead < 1.0 - DEFAULT_TOLS.tol_fid
    assert not gauge_equivalent(aklt_path(0.3), aklt_path(0.7))


def test_gauge_equivalent_is_reflexive_symmetric(rng):
    for _ in range(5):
        A = random_tensor_in_e(rng, 4, 3, 2)
        B = apply_gauge(A, random_gauge_move(rng, A))
        assert gauge_equivalent(A, A)
        assert gauge_equivalent(A, B) and gauge_equivalent(B, A)


def test_gauge_equivalent_rank_mismatch_is_false():
    assert not gauge_equivalent(aklt_path(0.5), aklt_path(0.0))


def test_pad_tensor_round_trip():
    A = aklt_path(0.5)
    P = pad_tensor(A, 6, 4)
    assert P.d == 6 and P.D == 4
    assert np.abs(P.mats[:4, :2, :2] - A.mats).max() == 0.0
    assert np.abs(P.mats[4:]).max() == 0.0
    assert gauge_equivalent(A, P)


def test_tensor_json_round_trip(rng):
    A = random_tensor_in_e(rng, 3, 2, 1)
    doc = tensor_to_json(A)
    back = tensor_from_json(doc)
    assert np.abs(back.mats - A.mats).max() == 0.0


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("mats"),
    lambda d: d.update(extra=1),
    lambda d: d.update(d=0),
    lambda d: d["mats"].append(d["mats"][0]),
    lambda d: d["mats"][0][0].__setitem__(0, [1.0]),
    lambda d: d["mats"][0][0].__setitem__(0, [1.0, "x"]),
    lambda d: d["mats"][0][1].pop(),  # a ragged row: "ragged matrix rows"
])
def test_tensor_json_strict_validation(mutate):
    doc = tensor_to_json(aklt_path(0.5))
    mutate(doc)
    with pytest.raises(ValueError):
        tensor_from_json(doc)


def test_stacked_fidelities_are_the_n1_moduli_of_the_leading_eigenvalue(rng):
    """Random chi = 1-3 pairs, equal and near-equal pairs and pairs of unequal
    ranks: each stacked fidelity is its N=1 call and abs() of the N=1
    eigenvalue, bit for bit, and the full ``eigvals`` modulus to 1e-14; the
    gauge verdicts are those of the ``eigvals`` moduli, also where a coarse
    gap tolerance sends every row to ``eigvals``."""
    dims = {1: 4, 2: 4, 3: 9}
    pairs = [(random_core(rng, dims[chi], chi).K, random_core(rng, dims[chi], chi).K)
             for chi in (1, 2, 3) for _ in range(20)]
    pairs += [(K, K + scale * _ginibre(rng, K.shape)) for K, _ in pairs[::6]
              for scale in (0.0, 1e-5, 1e-4, 1e-3)]
    pairs += [(random_core(rng, d, a).K, random_core(rng, d, b).K)
              for d, a, b in ((4, 1, 2), (4, 2, 1), (9, 2, 3), (9, 3, 1)) for _ in range(5)]
    groups = {}
    for a, b in pairs:
        groups.setdefault((a.shape, b.shape), []).append((a, b))
    verdicts = set()
    for tols in (DEFAULT_TOLS, DEFAULT_TOLS.override(tol_gap=0.9)):
        for group in groups.values():
            K_a, K_b = (np.array(side) for side in zip(*group))
            stacked = fidelity_per_site(K_a, K_b, tols)
            assert stacked.shape == (len(group),)
            # the N=1 call is entry 0 of a one-pair stack, and abs() of the eigenvalue
            assert stacked.tolist() == [fidelity_per_site(a, b, tols) for a, b in group] == \
                [float(abs(mixed_transfer_leading(a, b, tols))) for a, b in group]
            exact = np.abs(_sorted_spectrum(np.linalg.eigvals(transfer_kernel(K_a, K_b)))[:, 0])
            assert (np.abs(stacked - exact) <= 1e-14).all()
            same_rank = K_a.shape[-1] == K_b.shape[-1]
            expected = same_rank & (exact >= 1.0 - tols.tol_fid)
            assert gauge_equivalent(K_a, K_b, tols).tolist() == expected.tolist()
            verdicts.update(expected.tolist())
    assert verdicts == {False, True}
    assert abs(fidelity_per_site(*pairs[0]) - 1.0) > 1e-3
    with pytest.raises(ValueError, match="cores must share the physical dimension"):
        fidelity_per_site(pairs[0][0], pairs[0][1][:3])
