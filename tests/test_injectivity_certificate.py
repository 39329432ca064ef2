"""The determinant certificate of injectivity against the ``svd`` verdict it
stands in for.

``svd_injective`` below is that verdict, kept as the reference: a core is
injective iff every singular value of its ``d x chi^2`` vectorization exceeds
``eps_rank`` times the largest.  ``tensors._injective`` must give its verdict,
or raise its exception, on every core: near the cutoff on both sides, on
spectra for which the determinant bound is loose, on zero, rank-deficient and
non-finite cores, and at extreme scales; and the certificate alone must never
accept a core the reference refuses.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest

from timps import cli, tensors
from timps.config import DEFAULT_TOLS
from timps.sampling import _ginibre, _haar
from timps.tensors import _certified_injective, _injective, is_injective

TOLS = [DEFAULT_TOLS, DEFAULT_TOLS.override(eps_rank=0.05), DEFAULT_TOLS.override(eps_rank=0.12)]
SHAPES = [(d, chi) for chi in (1, 2, 3, 4) for d in (chi * chi, chi * chi + 1, 2 * chi * chi)]


def svd_injective(K, tols):
    """The injectivity verdict of ``(..., d, chi, chi)`` cores on the singular
    values of their vectorizations."""
    d, chi = K.shape[-3], K.shape[-1]
    if d < chi * chi:
        return np.zeros(K.shape[:-3], dtype=bool)
    s = np.linalg.svd(K.reshape(K.shape[:-3] + (d, chi * chi)), compute_uv=False)
    return (s[..., 0] != 0.0) & ((s > tols.eps_rank * s[..., :1]).sum(axis=-1) == chi * chi)


def cores_with_spectra(rng, d, chi, spectra):
    """One ``(d, chi, chi)`` core per row of ``spectra``: ``U diag(s) V*`` with
    a Haar isometry ``U`` and a Haar unitary ``V``."""
    n = chi * chi
    out = []
    for s in spectra:
        U = _haar(_ginibre(rng, (d, d)))[:, :n]
        V = _haar(_ginibre(rng, (n, n)))
        out.append(((U * np.asarray(s, dtype=float)) @ V.conj().T).reshape(d, chi, chi))
    return np.array(out)


def assert_same_verdicts(K, tols):
    """``_injective`` gives the reference's verdicts on the stack ``K``, and
    its certificate accepts none the reference refuses."""
    expected = svd_injective(K, tols)
    assert (_injective(K, tols) == expected).all()
    d, chi = K.shape[-3], K.shape[-1]
    if d >= chi * chi:
        certified = _certified_injective(K.reshape(-1, d, chi * chi), tols)
        assert not (certified & ~expected.reshape(-1)).any()


@pytest.mark.parametrize("tols", TOLS, ids=["default", "eps_rank=0.05", "eps_rank=0.12"])
@pytest.mark.parametrize("d, chi", SHAPES)
def test_ginibre_cores_get_the_svd_verdict(make_rng, d, chi, tols):
    rng = make_rng(100 * d + chi)
    assert_same_verdicts(_ginibre(rng, (64, d, chi, chi)), tols)


@pytest.mark.parametrize("tols", TOLS, ids=["default", "eps_rank=0.05", "eps_rank=0.12"])
@pytest.mark.parametrize("d, chi", [(d, chi) for d, chi in SHAPES if chi > 1])
def test_ratios_at_the_cutoff_get_the_svd_verdict(make_rng, d, chi, tols):
    # s_n / s_1 at eps_rank times these factors, every other singular value
    # at 1 (a tight bound) or at s_n (one large value: a loose one)
    n = chi * chi
    rng = make_rng(7 * d + chi)
    spectra = []
    for factor in (1 - 1e-6, 1 + 1e-6, 1 - 1e-2, 1 + 1e-2, 2.0, 10.0):
        r = min(factor * tols.eps_rank, 1.0)
        spectra += [[1.0] * (n - 1) + [r], [1.0] + [r] * (n - 1),
                    list(np.geomspace(1.0, r, n))]
    K = cores_with_spectra(rng, d, chi, spectra)
    assert_same_verdicts(K, tols)
    for scale in (1e-150, 1e150):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_verdicts(scale * K, tols)


@pytest.mark.parametrize("eps_rank", [1 - 4 * np.finfo(float).eps, np.nextafter(1.0, 0.0), 1.0,
                                      1 + 4 * np.finfo(float).eps])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_a_tight_bound_at_the_cutoff_gets_the_svd_verdict(make_rng, d, eps_rank):
    # at chi = 1 the bound is exact, s_n / s_1 = 1: with eps_rank at 1 the
    # verdict rests on roundoff, which only the certificate's margin covers
    tols = DEFAULT_TOLS.override(eps_rank=eps_rank)
    assert_same_verdicts(_ginibre(make_rng(d), (256, d, 1, 1)), tols)


def test_loose_bounds_fall_back_to_the_svd_verdict(make_rng):
    # well inside the cutoff, but prod s_i / ||M||_F^n is far below eps_rank:
    # the certificate cannot prove these, and the svd accepts them
    rng = make_rng(3)
    spectra = [[1.0] + [1e-3] * 8, [10.0] + [1e-2] * 8]
    K = cores_with_spectra(rng, 9, 3, spectra)
    assert not _certified_injective(K.reshape(-1, 9, 9), DEFAULT_TOLS).any()
    assert _injective(K, DEFAULT_TOLS).all()
    assert svd_injective(K, DEFAULT_TOLS).all()


@pytest.mark.parametrize("d, chi", [(4, 2), (5, 2), (9, 3), (2, 1), (1, 1)])
def test_degenerate_cores_get_the_svd_verdict(make_rng, d, chi):
    rng = make_rng(11)
    n = chi * chi
    good = _ginibre(rng, (d, chi, chi))
    deficient = cores_with_spectra(rng, d, chi, [[1.0] * (n - 1) + [0.0]])[0]
    with_inf = good.copy()
    with_inf[0, 0, 0] = np.inf
    # at 1e-200 the squared Frobenius norm underflows, at 1e200 it overflows
    K = np.array([good, np.zeros_like(good), deficient, good * 1e-200, deficient * 1e-200,
                  good * 1e200, deficient * 1e200, with_inf, good])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_verdicts(K, DEFAULT_TOLS)
    with_nan = good.copy()
    with_nan[-1, -1, -1] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as expected:
        svd_injective(with_nan[None], DEFAULT_TOLS)
    with pytest.raises(np.linalg.LinAlgError) as found:
        _injective(np.array([good, with_nan]), DEFAULT_TOLS)
    assert str(found.value) == str(expected.value)


def test_mixed_stacks_keep_each_rows_verdict(make_rng):
    # certified, refused and fallback rows interleaved, in a stacked leading shape
    rng = make_rng(5)
    K = cores_with_spectra(rng, 4, 2, [[1.0, 0.9, 0.8, 0.7], [1.0, 1.0, 1.0, 1e-10],
                                       [1.0, 1e-3, 1e-3, 1e-3], [1.0, 1.0, 1.0, 0.0]] * 3)
    K = K.reshape(3, 4, 4, 2, 2)
    found = _injective(K, DEFAULT_TOLS)
    assert found.shape == (3, 4)
    assert (found == svd_injective(K, DEFAULT_TOLS)).all()
    assert found.tolist() == [[True, False, True, False]] * 3


def test_is_injective_is_the_one_core_call(make_rng):
    rng = make_rng(9)
    for d, chi in SHAPES:
        K = _ginibre(rng, (d, chi, chi))
        assert is_injective(K) == bool(svd_injective(K[None], DEFAULT_TOLS)[0])
        assert is_injective(K, TOLS[1]) == bool(svd_injective(K[None], TOLS[1])[0])


@pytest.fixture
def svd_rows(monkeypatch):
    """The number of matrices every ``np.linalg.svd`` call receives, and of
    cores every certificate call receives, from then on."""
    counts = {"svd": 0, "certificate": 0}
    real_svd, real_certificate = np.linalg.svd, tensors._certified_injective

    def svd(a, *args, **kwargs):
        counts["svd"] += int(np.prod(np.shape(a)[:-2]))
        return real_svd(a, *args, **kwargs)

    def certificate(M, tols):
        counts["certificate"] += len(M)
        return real_certificate(M, tols)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(tensors, "_certified_injective", certificate)
    return counts


def run_quietly(args):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in args])


@pytest.mark.parametrize("args", [
    ["chern", "--family", "psi2", "--mesh", "32x32"],
    ["chern", "--family", "@{pump}", "--mesh", "32x32"],
    ["retract-sweep", "--seed", "1", "--count", "40"],
], ids=["psi2", "pump", "retract-sweep"])
def test_the_certificate_decides_every_core_of_the_default_runs(tmp_path, svd_rows, args):
    spec = tmp_path / "pump.json"
    spec.write_text(json.dumps({"family": "pump", "params": {"w4": 0.7}}))
    args = [a.format(pump=spec) for a in args]
    assert run_quietly(args + ["--out", tmp_path / "out"]) == 0
    assert svd_rows["certificate"] > 0
    assert svd_rows["svd"] == 0


def test_the_svd_fallback_runs_past_the_certificates_reach(tmp_path, svd_rows):
    # at eps_rank 0.05 only nearly flat chi = 2 spectra are provable, q <= 1/16
    args = ["oracle-check", "--seed", "1", "--trials", "8", "--gauge-trials", "4",
            "--window-max", "3", "--tol", "eps_rank=0.05", "--out", tmp_path]
    assert run_quietly(args) == 0
    assert svd_rows["svd"] > 0
