"""The certified leading-eigenvalue link kernel against the full ``eigvals``
body it replaces.

``eigvals_edge_links`` below is that body, kept as the reference: one full
spectrum per mixed transfer, the vanishing-overlap and gap refusals read off
it.  On adversarial transfers (near-tie gaps on both sides of ``tol_gap``,
equal-modulus and defective leading eigenvalues, nilpotent subleading blocks,
leading moduli at and within ulps of the overlap floor, start vectors
orthogonal to a leading vector) every edge must get the reference's verdict,
the same error text when refused, and a phase within 1e-14 when accepted.
``mixed_transfer_leading``, the one kernel behind the links and the
fidelities, is held to the same reference on these transfers, on random
cores and on pairs of unequal ranks.
"""

import math

import numpy as np
import pytest

from timps import invariants, tensors
from timps.config import DEFAULT_TOLS
from timps.errors import (
    DegenerateLeadingEigenvalueError,
    NotInEError,
    RankMismatchError,
    VanishingOverlapError,
)
from timps.families import (
    aklt_path,
    boundary_generator_family,
    make_sphere_mesh,
    psi2_sphere_family,
    psi2_tensor,
    pump_slice_family,
)
from timps.invariants import OVERLAP_FLOOR, _edge_links, _vertex_cores, link_field, link_variable
from timps.sampling import random_core
from timps.tensors import (
    MpsTensor,
    _certified_leading,
    _degenerate,
    _sorted_spectrum,
    right_normalize,
    transfer_kernel,
)


def eigvals_edge_links(K_u, K_v, tols):
    """``_edge_links`` with one full ``eigvals`` spectrum per edge."""
    vals = _sorted_spectrum(np.linalg.eigvals(transfer_kernel(K_u, K_v)))
    lead = vals[:, 0]
    mod = np.abs(lead)
    vanishing = mod < OVERLAP_FLOOR
    refused = vanishing | _degenerate(vals, tols)
    if refused.any():
        e = int(np.argmax(refused))
        if vanishing[e]:
            raise VanishingOverlapError(
                f"leading overlap modulus {mod[e]:.3e} below {OVERLAP_FLOOR:.1e}; "
                "states nearly orthogonal (mesh too coarse)"
            )
        raise DegenerateLeadingEigenvalueError(
            f"mixed transfer eigenvalues {mod[e]:.6e} and {abs(vals[e, 1]):.6e} are within "
            f"the gap tolerance {tols.tol_gap:.1e}; the link phase is ill-defined"
        )
    return lead / mod


def cores_of(T):
    """Cores ``(K_a, K_b)``, ``d = chi^2``, whose mixed transfer is ``T`` up to
    roundoff: the SVD of ``T`` realigned so that its terms are ``K_a^k (x)
    conj(K_b^k)``."""
    n = T.shape[-1]
    chi = math.isqrt(n)
    R = T.reshape(chi, chi, chi, chi).transpose(0, 2, 1, 3).reshape(n, n)
    U, s, Vh = np.linalg.svd(R)
    root = np.sqrt(s)
    return ((U * root).T.reshape(n, chi, chi),
            (Vh.conj().T * root).T.reshape(n, chi, chi))


def ginibre(rng, *shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2)


def unit_vector(chi):
    """vec(I_chi), the start vector of the kernel's power iteration."""
    return np.eye(chi).reshape(-1).astype(complex)


def with_spectrum(rng, J, basis="random", orthogonal=()):
    """``S J S^-1`` for a block ``J``: ``S`` unitary or a random
    well-conditioned matrix; with ``orthogonal`` holding ``"left"`` and/or
    ``"right"``, the first left (right) eigenvector of ``J``'s leading entry
    is made orthogonal to vec(I)."""
    n = len(J)
    e = unit_vector(math.isqrt(n))
    if basis == "unitary":
        S = np.linalg.qr(ginibre(rng, n, n))[0]
    else:
        S = np.eye(n) + 0.4 * ginibre(rng, n, n) / math.sqrt(n)
    if "right" in orthogonal:
        S[:, 0] -= (e @ S[:, 0]) / (e @ e) * e
    W = np.linalg.inv(S)
    if "left" in orthogonal:
        W[0] -= (W[0] @ e) / (e @ e) * e
        S = np.linalg.inv(W)
    return S @ J @ W


def spectrum_block(lead, second, rest):
    J = np.zeros((2 + len(rest),) * 2, dtype=complex)
    J[np.diag_indices_from(J)] = [lead, second, *rest]
    return J


def adversarial_transfers(rng, chi):
    """Named ``chi^2 x chi^2`` transfer matrices of the adversarial kinds."""
    n = chi * chi
    out = {}
    if n == 1:
        for m in (0.5e-8, 1e-8, 2e-8, 0.3, 1.0):
            out[f"modulus-{m}"] = np.array([[m * np.exp(0.7j)]])
        return out
    phase = np.exp(0.9j)

    def small(k, scale=0.3):
        return scale * ginibre(rng, k) / 2

    ratios = {"1-1e-7": 1 - 1e-7, "1-1e-6(1-1e-3)": 1 - 1e-6 * (1 - 1e-3),
              "1-1e-6(1+1e-3)": 1 - 1e-6 * (1 + 1e-3), "(1-1e-6)(1-1e-3)": (1 - 1e-6) * (1 - 1e-3),
              "(1-1e-6)(1+1e-3)": (1 - 1e-6) * (1 + 1e-3), "1-1e-5": 1 - 1e-5, "0.5": 0.5}
    for name, ratio in ratios.items():
        for basis in ("unitary", "random"):
            J = spectrum_block(phase, ratio * np.exp(2.1j), small(n - 2))
            out[f"ratio-{name}-{basis}"] = with_spectrum(rng, J, basis)
    for basis in ("unitary", "random"):
        out[f"equal-modulus-{basis}"] = with_spectrum(
            rng, spectrum_block(phase, np.exp(-1.3j), small(n - 2)), basis)
        out[f"conjugate-pair-{basis}"] = with_spectrum(
            rng, spectrum_block(phase, phase.conj(), small(n - 2)), basis)
        defective = spectrum_block(phase, phase, small(n - 2))
        defective[0, 1] = 1.0
        out[f"defective-lead-{basis}"] = with_spectrum(rng, defective, basis)
        for s in (0.1, 1.0):
            nilpotent = spectrum_block(phase, 0.0, np.zeros(n - 2))
            nilpotent[np.arange(1, n - 1), np.arange(2, n)] = s
            out[f"nilpotent-{s}-{basis}"] = with_spectrum(rng, nilpotent, basis)
        out[f"rank-one-{basis}"] = with_spectrum(
            rng, spectrum_block(phase, 0.0, np.zeros(n - 2)), basis)
        for m in (0.5e-8, 1e-8, 2e-8):
            out[f"modulus-{m}-{basis}"] = m * with_spectrum(
                rng, spectrum_block(phase, 0.2, small(n - 2)), basis)
        for sides in (("left",), ("right",), ("left", "right")):
            for ratio in (0.5, 1 - 1e-6 * (1 + 1e-3)):
                J = spectrum_block(phase, ratio * np.exp(2.1j), small(n - 2))
                out[f"orthogonal-{'-'.join(sides)}-{ratio}-{basis}"] = with_spectrum(
                    rng, J, basis, sides)
        # rank one with the leading modulus within a few ulps of the floor
        for k in range(-4, 5):
            out[f"rank-one-at-floor{k:+d}ulp-{basis}"] = OVERLAP_FLOOR * (1 + k * 1e-16) * (
                with_spectrum(rng, spectrum_block(phase, 0.0, np.zeros(n - 2)), basis))
    return out


def outcome(fn, *args):
    """``("ok", links)`` or ``("raised", type, text)``."""
    try:
        return ("ok", fn(*args))
    except (VanishingOverlapError, DegenerateLeadingEigenvalueError) as exc:
        return ("raised", type(exc), str(exc))


def assert_same_verdict(got, expected):
    assert got[0] == expected[0], (got, expected)
    if got[0] == "ok":
        assert np.abs(got[1] - expected[1]).max() <= 1e-14
    else:
        assert got == expected


def assert_kernel_keeps_the_eigvals_lead(K_a, K_b):
    """``mixed_transfer_leading`` against one full ``eigvals`` spectrum per
    pair, at the default and at a coarse gap tolerance: every row's
    ``second`` bounds the true second modulus, less roundoff; every fidelity
    is the ``eigvals`` modulus to 1e-14 (relative, above 1); every N=1 call is
    its stacked row bit for bit; and the gauge verdicts are those of the
    ``eigvals`` moduli."""
    vals = _sorted_spectrum(np.linalg.eigvals(transfer_kernel(K_a, K_b)))
    mod = np.abs(vals[:, 0])
    second_ref = np.abs(vals[:, 1]) if vals.shape[-1] > 1 else np.zeros(len(vals))
    for tols in (DEFAULT_TOLS, DEFAULT_TOLS.override(tol_gap=0.9)):
        lead, second = tensors.mixed_transfer_leading(K_a, K_b, tols)
        assert (second >= (1 - 1e-14) * second_ref).all()
        fid = tensors.fidelity_per_site(K_a, K_b, tols)
        assert (np.abs(fid - mod) <= 1e-14 * np.maximum(mod, 1.0)).all()
        assert [bits(tensors.mixed_transfer_leading(a, b, tols))
                for a, b in zip(K_a, K_b)] == [bits(x) for x in lead]
        expected = (K_a.shape[-1] == K_b.shape[-1]) & (mod >= 1.0 - tols.tol_fid)
        assert tensors.gauge_equivalent(K_a, K_b, tols).tolist() == expected.tolist()


@pytest.mark.parametrize("chi", [1, 2, 3])
def test_each_adversarial_edge_gets_the_eigvals_verdict(chi, make_rng):
    transfers = adversarial_transfers(make_rng(100 + chi), chi)
    refused = accepted = 0
    pairs = []
    for name, T in transfers.items():
        K_u, K_v = cores_of(T) if chi > 1 else (np.array([[[1.0]], [[0.0]]]),
                                              np.array([[[T[0, 0].conjugate()]], [[0.5]]]))
        expected = outcome(eigvals_edge_links, K_u[None], K_v[None], DEFAULT_TOLS)
        got = outcome(_edge_links, K_u[None], K_v[None], DEFAULT_TOLS)
        assert_same_verdict(got, expected)
        refused += expected[0] == "raised"
        accepted += expected[0] == "ok"
        pairs.append((K_u, K_v))
    assert refused and accepted
    assert_kernel_keeps_the_eigvals_lead(*(np.array(side) for side in zip(*pairs)))


@pytest.mark.parametrize("chi", [2, 3])
def test_adversarial_stacks_raise_the_first_refused_edge(chi, make_rng):
    rng = make_rng(200 + chi)
    pairs = [cores_of(T) for T in adversarial_transfers(rng, chi).values()]
    K_u, K_v = (np.array(side) for side in zip(*pairs))
    for order in (np.arange(len(pairs)), rng.permutation(len(pairs))):
        got = outcome(_edge_links, K_u[order], K_v[order], DEFAULT_TOLS)
        assert got == outcome(eigvals_edge_links, K_u[order], K_v[order], DEFAULT_TOLS)
        assert got[0] == "raised"
    # the accepted edges alone, as one stack
    ok = [j for j, (a, b) in enumerate(pairs)
          if outcome(eigvals_edge_links, a[None], b[None], DEFAULT_TOLS)[0] == "ok"]
    assert_same_verdict(outcome(_edge_links, K_u[ok], K_v[ok], DEFAULT_TOLS),
                        outcome(eigvals_edge_links, K_u[ok], K_v[ok], DEFAULT_TOLS))


def assert_certified_rows_hold_their_bound(K_a, K_b):
    """Certified rows bound the true second modulus and match ``eigvals``;
    the others are NaN; the links are the ``eigvals`` links.  Returns the
    share of certified rows."""
    T = transfer_kernel(K_a, K_b)
    lead, bound = _certified_leading(T, DEFAULT_TOLS)
    vals = _sorted_spectrum(np.linalg.eigvals(T))
    certified = np.isfinite(bound)
    assert np.isnan(lead[~certified]).all()
    assert (np.abs(lead[certified] - vals[certified, 0])
            <= 1e-14 * np.abs(vals[certified, 0])).all()
    if T.shape[-1] > 1:
        assert (np.abs(vals[certified, 1]) <= bound[certified]).all()
        assert not _degenerate(vals[certified], DEFAULT_TOLS).any()
    # the certificate is scale-free
    for scale in (1e-6, 1e6):
        assert (np.isfinite(_certified_leading(scale * T, DEFAULT_TOLS)[1]) == certified).all()
    links = _edge_links(K_a, K_b, DEFAULT_TOLS)
    assert np.abs(links - eigvals_edge_links(K_a, K_b, DEFAULT_TOLS)).max() <= 1e-14
    assert_kernel_keeps_the_eigvals_lead(K_a, K_b)
    return certified.mean()


@pytest.mark.parametrize("d, chi", [(2, 1), (4, 2), (8, 2), (9, 3)])
@pytest.mark.parametrize("spread", [None, 0.05, 0.3], ids=["independent", "near-0.05", "near-0.3"])
def test_random_cores_keep_the_eigvals_links(d, chi, spread, make_rng):
    rng = make_rng(300 + d)
    K_a = np.array([c.K for c in random_core(rng, [d] * 300, [chi] * 300)])
    K_b = (np.array([c.K for c in random_core(rng, [d] * 300, [chi] * 300)]) if spread is None
           else K_a + spread * ginibre(rng, *K_a.shape))
    share = assert_certified_rows_hold_their_bound(K_a, K_b)
    if chi == 1:
        assert share == 1.0
    # pairs of unequal ranks take eigvals: its lead and second modulus, bit for bit
    K_c = ginibre(rng, 300, d, chi + 1, chi + 1) / math.sqrt(d * (chi + 1))
    vals = _sorted_spectrum(np.linalg.eigvals(transfer_kernel(K_a, K_c)))
    lead, second = tensors.mixed_transfer_leading(K_a, K_c)
    assert bits(lead) == bits(vals[:, 0]) and bits(second) == bits(np.abs(vals[:, 1]))
    assert_kernel_keeps_the_eigvals_lead(K_a, K_c)


@pytest.mark.parametrize("chi", [1, 2, 3])
@pytest.mark.parametrize("noise", [0.0, 1e-10, 1e-9, 1e-8, 1e-6])
def test_near_rank_one_transfers_are_certified(chi, noise, make_rng):
    """Rank-one transfers ``x y^T``, the pump's kind, are certified; a
    perturbation near 1e-9 leaves part of the stack to the fallback.  ``y``
    stays near ``conj(x)``, so that the leading eigenvalue is well
    conditioned and ``eigvals`` is a reference to 1e-14."""
    rng = make_rng(400 + chi)
    n = chi * chi
    pairs = []
    for _ in range(200):
        x = ginibre(rng, n)
        y = x.conj() + 0.5 * np.linalg.norm(x) * ginibre(rng, n) / math.sqrt(n)
        pairs.append(cores_of(np.outer(x, y) + noise * ginibre(rng, n, n)))
    K_a, K_b = (np.array(side) for side in zip(*pairs))
    share = assert_certified_rows_hold_their_bound(K_a, K_b)
    if noise <= 1e-10 or chi == 1:
        assert share > 0.9


def test_a_coarse_gap_tolerance_goes_through_the_fallback(make_rng):
    """Past tol_gap = 1/2 no circle halfway to the lead is separated, so every
    row falls back: the aklt core (eigenvalues 1 and 2/3) is refused with the
    eigvals text, and a rank-one transfer keeps the eigvals bits."""
    coarse = DEFAULT_TOLS.override(tol_gap=0.9)
    K = tensors.canonical_decompose(aklt_path(0.5)).K[None]
    expected = outcome(eigvals_edge_links, K, K, coarse)
    assert expected[0] == "raised"
    assert outcome(_edge_links, K, K, coarse) == expected
    K_u, K_v = (k[None] for k in cores_of(adversarial_transfers(make_rng(5), 2)["rank-one-random"]))
    T = transfer_kernel(K_u, K_v)
    assert np.isfinite(_certified_leading(T, DEFAULT_TOLS)[1]).all()
    assert np.isinf(_certified_leading(T, coarse)[1]).all()
    assert bits(_edge_links(K_u, K_v, coarse)) == bits(eigvals_edge_links(K_u, K_v, coarse))


def bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def random_vertex_data(mesh, d, chi, seed, spread=0.2):
    """Right-normalized tensors near one random core, one per vertex."""
    rng = np.random.default_rng(seed)
    K = random_core(rng, d, chi).mats
    found = right_normalize([MpsTensor(K + spread * ginibre(rng, d, chi, chi))
                             for _ in range(len(mesh.theta))])
    return tuple(found)


LINK_FAMILIES = {
    "psi2": lambda mesh: psi2_sphere_family(),
    "pump-0.7": lambda mesh: pump_slice_family(0.7),
    "pump-0.2": lambda mesh: pump_slice_family(0.2),
    "pump--0.7": lambda mesh: pump_slice_family(-0.7),
    "boundary": lambda mesh: boundary_generator_family(),
    "random-chi2": lambda mesh: random_vertex_data(mesh, 4, 2, 11),
    "random-chi3": lambda mesh: random_vertex_data(mesh, 9, 3, 12, spread=0.05),
}


@pytest.mark.parametrize("name", list(LINK_FAMILIES))
def test_links_are_bit_equal_across_chunks_and_to_the_n1_call(name, monkeypatch):
    mesh = make_sphere_mesh(6, 5)
    family = LINK_FAMILIES[name](mesh)
    values = link_field(family, mesh)
    monkeypatch.setattr(invariants, "CHUNK", 7)
    assert bits(link_field(family, mesh)) == bits(values)
    if isinstance(family, tuple):
        at = family
    else:
        at = [MpsTensor(m) for m in family.stack(mesh.theta, mesh.phi)]
    for (u, v), value in zip(mesh.edges.tolist(), values.tolist()):
        assert bits(link_variable(at[u], at[v])) == bits(np.complex128(value))


@pytest.mark.parametrize("name", ["psi2", "boundary", "pump-0.2", "pump--0.7"])
def test_chi1_links_are_the_eigvals_links(name):
    mesh = make_sphere_mesh(16, 16)
    # a window of every vertex: after the last chunk, the whole-mesh core array
    family, n = LINK_FAMILIES[name](mesh), len(mesh.theta)
    *_, (cores, _) = _vertex_cores(family, mesh, n, DEFAULT_TOLS)
    assert cores.shape[-1] == 1
    u, v = mesh.edges.T
    assert bits(_edge_links(cores[u], cores[v], DEFAULT_TOLS)) == bits(
        eigvals_edge_links(cores[u], cores[v], DEFAULT_TOLS))


def two_pass_link_variable(A_u, A_v, tols=DEFAULT_TOLS):
    """``link_variable`` with one N=1 decomposition call per tensor."""
    dec_u = tensors.canonical_decompose(A_u, tols)
    dec_v = tensors.canonical_decompose(A_v, tols)
    if dec_u.chi != dec_v.chi:
        raise RankMismatchError(
            f"essential ranks differ along the edge: {dec_u.chi} vs {dec_v.chi}"
        )
    if dec_u.d != dec_v.d:
        raise ValueError("cores must share the physical dimension")
    return _edge_links(dec_u.K[None], dec_v.K[None], tols)[0]


def link_outcome(fn, *args):
    try:
        return ("ok", bits(np.complex128(fn(*args))))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def test_link_variable_decomposes_both_tensors_in_one_pass(make_rng, count_passes):
    rng = make_rng(7)
    tensors_by_name = {
        "chi2-d4": aklt_path(0.5),
        "chi2-d4-near": right_normalize(MpsTensor(aklt_path(0.5).mats + 0.05 * ginibre(rng, 4, 2, 2))),
        "chi2-d5": random_core(rng, 5, 2).tensor,
        "chi1-d4": aklt_path(0.0),
        "chi1-d2": psi2_tensor(0.6, 0.8),
        "not-normalized": MpsTensor(aklt_path(0.5).mats * 2.0),
        "zero": MpsTensor(np.zeros((4, 2, 2))),
    }
    kinds = set()
    for A_u in tensors_by_name.values():
        for A_v in tensors_by_name.values():
            expected = link_outcome(two_pass_link_variable, A_u, A_v)
            assert link_outcome(link_variable, A_u, A_v) == expected
            kinds.add(expected[:2])
    assert kinds >= {("raised", NotInEError), ("raised", RankMismatchError),
                     ("raised", ValueError)}
    shapes = count_passes()
    link_variable(tensors_by_name["chi2-d4"], tensors_by_name["chi2-d4-near"])
    assert shapes == [(2, 4, 2, 2)]
