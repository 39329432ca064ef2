"""MPS tensor data model, canonical block form, gauge moves and the
transfer-map kernel.

A tensor is a stack of ``d`` complex ``D x D`` matrices ``A^1..A^d``.  The
tensors of interest decompose, after a unitary change of bond basis, into a
right-normalized injective core of size ``chi`` (the essential rank) and an
arbitrary filler block mapping core to non-core directions:

    A^i = X [[K^i, 0], [M^i, 0]] X*.

Functions that need this block form accept a tensor or its
:class:`CanonicalDecomposition`; a decomposition passed in is trusted as
given and not recomputed.

Transfer maps act on matrices vectorized row-major, ``vec(B)[p * b + r] =
B[p, r]`` for an ``a x b`` matrix ``B``, so that ``vec(L B R) = (L (x) R^T)
vec(B)``.  The map ``B -> sum_ij W_ij K_a^i B K_b^{j*}`` is then the
``ab x ab`` matrix ``sum_ij W_ij K_a^i (x) conj(K_b^j)`` built by
:func:`transfer_kernel`.  Its adjoint in the Hilbert-Schmidt inner product,
``B -> sum_ij conj(W_ij) K_a^{i*} B K_b^j``, is its conjugate transpose; so
the observable map ``E_C(B) = sum_ij C_ij K^{i*} B K^j`` of
:mod:`timps.transfer` is ``transfer_kernel(K, K, conj(C))^*``.

Everything here is a pure function over immutable values; no shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    AmbiguousRankError,
    DegenerateLeadingEigenvalueError,
    IncompatibleGaugeMoveError,
    NotInEError,
    TimpsError,
)

__all__ = [
    "MpsTensor",
    "CanonicalDecomposition",
    "GaugeMove",
    "left_gram",
    "right_gram",
    "range_projection",
    "is_injective",
    "canonical_decompose",
    "essential_rank",
    "right_normalize",
    "apply_gauge",
    "transfer_kernel",
    "OVERLAP_FLOOR",
    "mixed_transfer_leading",
    "fidelity_per_site",
    "gauge_equivalent",
    "pad_tensor",
    "assemble",
    "tensor_to_json",
    "tensor_from_json",
]

# Leading mixed-transfer moduli below this are vanishing overlaps.
OVERLAP_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class MpsTensor:
    """A stack of ``d`` dense complex ``D x D`` matrices.

    The array is stored read-only; all operations return new tensors.
    """

    mats: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.mats, dtype=complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected shape (d, D, D), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("physical and bond dimension must be >= 1")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("tensor entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "mats", arr)

    @property
    def d(self) -> int:
        return self.mats.shape[0]

    @property
    def D(self) -> int:
        return self.mats.shape[1]

    def __repr__(self) -> str:
        return f"MpsTensor(d={self.d}, D={self.D})"


def pad_tensor(A: MpsTensor, d: int, D: int) -> MpsTensor:
    """Embed ``A`` into physical dimension ``d`` and bond dimension ``D`` by
    appending trailing zeros (the stabilization convention)."""
    if d < A.d or D < A.D:
        raise ValueError("padding cannot shrink a tensor")
    out = np.zeros((d, D, D), dtype=complex)
    out[: A.d, : A.D, : A.D] = A.mats
    return MpsTensor(out)


def _sandwich(L, mats, R) -> np.ndarray:
    """``L A^i R`` for each matrix of a ``(..., d, a, b)`` stack, ``L (..., c, a)``
    and ``R (..., b, e)`` broadcast over its tensors: two batched matmuls, ``L``
    on each tensor's matrices side by side, then ``R`` on them stacked in rows."""
    d, a, b = mats.shape[-3:]
    LA = L @ np.swapaxes(mats, -3, -2).reshape(mats.shape[:-3] + (a, d * b))
    lead, c = LA.shape[:-2], LA.shape[-2]
    # rebinding frees the side-by-side products before the second matmul
    LA = np.swapaxes(LA.reshape(lead + (c, d, b)), -3, -2).reshape(lead + (d * c, b))
    out = LA @ R
    return out.reshape(out.shape[:-2] + (d, c, out.shape[-1]))


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def left_gram(A) -> np.ndarray:
    """Sum of ``A^{i*} A^i`` of a tensor, or of each tensor of a ``(..., d, D, D)``
    stack; Hermitian PSD, its rank is the essential rank.  One matmul per
    tensor, on its matrices stacked in rows."""
    m = np.asarray(getattr(A, "mats", A))
    rows = m.reshape(m.shape[:-3] + (m.shape[-3] * m.shape[-2], m.shape[-1]))
    return _dagger(rows) @ rows


def right_gram(A) -> np.ndarray:
    """Sum of ``A^i A^{i*}`` of a tensor, or of each tensor of a stack: the
    left Gram matrix of the adjoint matrices."""
    return left_gram(_dagger(np.asarray(getattr(A, "mats", A))))


def _sorted_eigh(H: np.ndarray):
    """Hermitian eigendecomposition of a matrix or an ``(N, D, D)`` stack,
    eigenvalues descending, each eigenvector phase-fixed so its
    largest-modulus entry is real positive."""
    w, V = np.linalg.eigh((H + _dagger(H)) / 2.0)
    # eigh returns ascending eigenvalues; unit eigenvectors have a nonzero pivot
    w, V = w[..., ::-1], V[..., ::-1]
    pivot = np.take_along_axis(V, np.abs(V).argmax(axis=-2)[..., None, :], axis=-2)
    return w, V * (pivot.conj() / np.abs(pivot))


def _block_forms(mats: np.ndarray, tols: Tolerances):
    """Block form of an ``(N, d, D, D)`` stack: the left Gram spectra
    (descending), the bond bases ``X`` (Gram eigenvectors), the essential
    ranks and the blocks ``X* A^i X``.  A rank counts the eigenvalues above
    ``eps_rank`` times the largest; it is -1 where one sits inside the
    cutoff window, (0.5, 2) times that cutoff.  An overflowing Gram matrix
    is refused later, on its non-finite spectrum, so its arithmetic is quiet."""
    with np.errstate(over="ignore", invalid="ignore"):
        w, X = _sorted_eigh(left_gram(mats))
    cutoff = tols.eps_rank * w[..., :1]
    ranks = (w > cutoff).sum(axis=-1) * (w[..., 0] > 0.0)
    in_window = ((w > 0.5 * cutoff) & (w < 2.0 * cutoff)).any(axis=-1)
    B = _sandwich(_dagger(X), mats, X)
    return w, X, ranks - (ranks + 1) * in_window, B


def range_projection(A: MpsTensor, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Orthogonal projection onto the span of the dominant eigenvectors of
    the left Gram matrix (eigenvalues above ``tols.eps_rank * lambda_max``);
    a decomposition's own basis and rank are used as given."""
    if isinstance(A, CanonicalDecomposition):
        return A.X[:, :A.chi] @ A.X[:, :A.chi].conj().T
    w, X, ranks, _ = _block_forms(A.mats[None], tols)
    if ranks[0] < 0:
        raise _refusal(tols, w[0, 0], -1)
    return X[0, :, :ranks[0]] @ X[0, :, :ranks[0]].conj().T


def _injective(K: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Injectivity of ``(..., d, chi, chi)`` cores: whether the ``d x chi^2``
    vectorization ``M`` has full numerical rank, every singular value above
    ``eps_rank`` times the largest.  :func:`_certified_injective` proves it
    for a whole stack at once; the rows it cannot prove get the verdict of
    their singular values, so every verdict (and the ``LinAlgError`` of a
    non-finite core) is the one ``svd`` gives."""
    d, chi = K.shape[-3], K.shape[-1]
    n = chi * chi
    if d < n:
        return np.zeros(K.shape[:-3], dtype=bool)
    M = K.reshape((-1, d, n))
    ok = _certified_injective(M, tols)
    if not ok.all():
        s = np.linalg.svd(M[~ok], compute_uv=False)
        ok[~ok] = (s[:, 0] != 0.0) & ((s > tols.eps_rank * s[:, :1]).sum(axis=-1) == n)
    return ok.reshape(K.shape[:-3])


def _certified_injective(M: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Rows of an ``(N, d, n)`` stack, ``d >= n``, whose computed singular
    values ``s`` are proven to pass ``s > eps_rank * s[0]``, without an ``svd``.

    Let ``X`` be ``M`` if ``d = n``, else the ``R`` of its Householder QR,
    and ``f = ||M||_F``.  ``prod s_i <= s_n s_1^(n-1)`` and ``s_1 <= f`` give
    ``s_n / s_1 >= q = |det X| / f^n``, read off one batched ``slogdet`` as
    ``log|det X| - n log f``; at ``n = 1``, ``q`` is 1.  Rounding
    (Higham, chapters 3, 9, 14 and 19; ``eps`` the machine epsilon):

    - ``|det X|`` is exactly ``prod s_i(M + E)``, ``||E||_F <= delta f``.
      QR: ``delta = 64 d n eps`` (the ``gamma~_(dn)`` of Householder QR), and
      the LU of the triangular ``R`` rounds nothing.  LU of ``M``:
      ``|E| <= sqrt(2) gamma_(n+2) |L||U|`` in complex arithmetic, LAPACK's
      ``|Re| + |Im|`` pivoting keeps ``|l_ij| <= sqrt 2`` and the growth below
      ``(1 + sqrt 2)^(n-1)``, so ``delta = n (n + 1) (n + 2) (1 + sqrt
      2)^(n-1) eps``;
    - ``svd`` returns the singular values of ``M + E'``, ``||E'||_2 <= 64 d n
      eps f`` (LAPACK's ``p(d, n) eps ||M||_2``, ``p`` taken as ``64 d n``);
    - the ``n`` logs of the pivots and that of ``f`` (to ``(d n + 1) eps``)
      are each off by ``745 eps`` plus their argument's error, and summing
      adds ``745 n^2 eps``; with ``||M + E||_F <= (1 + delta) f`` the computed
      ``log q`` exceeds ``log |det(M + E)| / ||M + E||_F^n`` by at most ``tau
      = n (delta + (d + 5000) n eps)``.

    Weyl moves each singular value from ``M + E`` to ``M + E'`` by at most
    ``(delta + 64 d n eps) f``, which is at most ``kappa = 2 sqrt(n) (delta +
    64 d n eps)`` times ``s_1(M + E) >= (1 - delta) f / sqrt n`` (rows are
    tried only where ``kappa < 1``, so ``delta < 1/2``).  So ``svd``'s ratio
    is at least ``(q' - kappa) / (1 + kappa)``, ``q' = |det(M + E)| / ||M +
    E||_F^n >= exp(log q - tau)``, and it passes the rounded ``eps_rank *
    s[0]`` once ``q' > T = (1 + eps)(1 + kappa) eps_rank + kappa``: a row is
    certified where ``log q - tau > log T``.
    Rows with ``f`` outside ``[2^-250, 2^250]``, where an underflow or
    overflow would escape these bounds, are not.  By AM-GM ``q <=
    n^(-n/2)``; where that cannot pass (``chi >= 4`` at the default
    ``eps_rank``, or ``kappa >= 1``) no row is tried."""
    N, d, n = M.shape
    eps = np.finfo(float).eps
    delta = (n * (n + 1) * (n + 2) * (1 + math.sqrt(2)) ** (n - 1) if d == n else 64 * d * n) * eps
    kappa = 2 * math.sqrt(n) * (delta + 64 * d * n * eps)
    floor = (math.log((1 + eps) * (1 + kappa) * tols.eps_rank + kappa)
             + n * (delta + (d + 5000) * n * eps))
    if not N or -n / 2 * math.log(n) <= floor:
        return np.zeros(N, dtype=bool)
    with np.errstate(all="ignore"):  # a zero, huge or non-finite row stays uncertified
        f = _norms(M)
        logdet = np.linalg.slogdet(M if d == n else np.linalg.qr(M, mode="r"))[1]
        return (f >= 2.0 ** -250) & (f <= 2.0 ** 250) & (logdet - n * np.log(f) > floor)


def is_injective(mats, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """True iff the matrices span the full matrix algebra of their size.

    The span is full iff the ``d x chi^2`` vectorization has numerical rank
    ``chi^2``: every singular value above ``eps_rank`` times the largest.  A
    determinant bound proves that without an ``svd`` for well-conditioned
    matrices; the rest are decided on their singular values.  This is the
    N=1 call of the injectivity test every decomposition makes.
    """
    arr = np.asarray(mats, dtype=complex)
    d, chi, chi2 = arr.shape
    if chi != chi2:
        raise ValueError("core matrices must be square")
    return bool(_injective(arr, tols))


@dataclass(frozen=True, eq=False)
class CanonicalDecomposition:
    """Block form ``A^i = X [[K^i, 0], [M^i, 0]] X*`` of a tensor.

    ``X`` is unitary (bond basis, range of the left Gram first), ``K`` is the
    right-normalized injective core of size ``chi``, ``M`` the filler block of
    shape ``(d, D - chi, chi)``.  ``tensor`` is the decomposed tensor and
    ``norm_residual`` the Frobenius distance of ``sum_i K^i K^{i*}`` from
    the identity.
    """

    X: np.ndarray
    K: np.ndarray
    M: np.ndarray
    chi: int
    tensor: MpsTensor
    norm_residual: float

    @property
    def d(self) -> int:
        return self.K.shape[0]

    @property
    def D(self) -> int:
        return self.X.shape[0]

    @property
    def mats(self) -> np.ndarray:
        return self.tensor.mats


def _assembled(X: np.ndarray, K: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The matrices ``X [[K, 0], [M, 0]] X*`` of stacked block forms:
    ``K (..., d, chi, chi)`` and ``M (..., d, D - chi, chi)`` share their
    leading axes, and those of ``X (..., D, D)`` broadcast against them:
    the column blocks ``[K; M]`` between ``X`` and the first ``chi`` rows of ``X*``."""
    return _sandwich(X, np.concatenate([K, M], axis=-2), _dagger(X[..., :K.shape[-1]]))


def assemble(X: np.ndarray, K: np.ndarray, M: np.ndarray | None = None) -> MpsTensor:
    """Build ``X [[K, 0], [M, 0]] X*`` as an explicit tensor."""
    X = np.asarray(X, dtype=complex)
    K = np.asarray(K, dtype=complex)
    d, chi, _ = K.shape
    if M is None:
        M = np.zeros((d, X.shape[0] - chi, chi), dtype=complex)
    return MpsTensor(_assembled(X, K, np.asarray(M, dtype=complex)))


def _memberships(B: np.ndarray, chi: int, tols: Tolerances):
    """Reassembly errors and normalization residuals of ``(..., d, D, D)``
    blocks ``X* A X`` at rank ``chi``, and the refusal masks: reassembly,
    normalization, injectivity.  The reassembly error is the largest
    Frobenius norm, over the physical index, of the columns past ``chi``
    (what the block form drops); the normalization residual is the Frobenius
    distance of ``sum_i K^i K^{i*}`` from the identity.  Injectivity is
    :func:`_injective` on the whole stack of cores: one determinant
    certificate, and an ``svd`` only for the cores it cannot prove."""
    K = np.ascontiguousarray(B[..., :chi, :chi])
    dropped = B[..., chi:]
    recon = (np.sqrt((dropped.real ** 2 + dropped.imag ** 2).sum(axis=(-2, -1))).max(axis=-1)
             if dropped.size else np.zeros(B.shape[:-3]))
    norm = np.linalg.norm(right_gram(K) - np.eye(chi), axis=(-2, -1))
    return recon, norm, (recon > tols.tol_recon, norm > tols.tol_norm, ~_injective(K, tols))


def _refusal(tols: Tolerances, lead, rank, recon=0.0, norm=0.0, bad=(False, False, False)):
    """The error :func:`canonical_decompose` raises on a tensor it refuses,
    from the tensor's leading left Gram eigenvalue ``lead``, its essential
    rank (-1 where threshold-dependent) and, at that rank, its reassembly
    error, normalization residual and refusal masks ``bad`` (reassembly,
    normalization, injectivity).  Precedence: ambiguous rank, non-finite
    or zero Gram matrix, reassembly, normalization, injectivity."""
    bad_recon, bad_norm, _ = bad
    if rank < 0:
        return AmbiguousRankError(
            f"eigenvalue inside the cutoff window (0.5, 2)*{tols.eps_rank * lead:.3e}; "
            "the rank decision would be threshold-dependent"
        )
    if rank == 0:
        return NotInEError("tensor has numerically zero left Gram matrix" if np.isfinite(lead)
                           else "tensor has a non-finite left Gram matrix "
                           "(entries too large or not finite)")
    if bad_recon:
        return NotInEError(
            f"no block canonical form: reassembly error {recon:.3e} "
            f"exceeds {tols.tol_recon:.1e}"
        )
    if bad_norm:
        return NotInEError(f"core is not right-normalized: residual {norm:.3e}")
    return NotInEError("core matrices do not span the full matrix algebra")


@dataclass(frozen=True, eq=False)
class _Pass:
    """What :func:`_decomposition_pass` finds for an ``(N, d, D, D)`` stack:
    the bond bases ``X``, the essential ranks (-1 where threshold-dependent),
    the blocks ``B = X* A X``, each tensor's normalization residual at its
    rank (NaN at rank <= 0) and, by tensor index, the error that
    :func:`canonical_decompose` raises on that tensor."""

    X: np.ndarray
    ranks: np.ndarray
    B: np.ndarray
    norm: np.ndarray
    errors: dict

    def results(self, mats: np.ndarray, given=None) -> list:
        """Each tensor's decomposition, or the error the pass found for it; a
        decomposition carries its ``given`` entry when that is an ``MpsTensor``,
        as the N=1 call does."""
        given = [None] * len(mats) if given is None else given
        return [self.errors.get(n) or self.decomposition(
                    n, g if isinstance(g, MpsTensor) else MpsTensor(m))
                for n, (m, g) in enumerate(zip(mats, given))]

    def cores(self, idx: list) -> list:
        """The core ``B[n, :, :chi, :chi]`` of each tensor ``n`` of ``idx``,
        which the pass did not refuse, as views of ``B``."""
        return [self.B[n, :, :chi, :chi] for n, chi in zip(idx, self.ranks[idx].tolist())]

    def decomposition(self, n: int, tensor: MpsTensor) -> CanonicalDecomposition:
        """The decomposition of tensor ``n``, which the pass did not refuse."""
        chi, B = int(self.ranks[n]), self.B[n]
        return CanonicalDecomposition(X=self.X[n], K=np.ascontiguousarray(B[:, :chi, :chi]),
                                      M=B[:, chi:, :chi].copy(), chi=chi, tensor=tensor,
                                      norm_residual=float(self.norm[n]))


def _decomposition_pass(mats: np.ndarray, tols: Tolerances) -> _Pass:
    """Decide which tensors of an ``(N, d, D, D)`` stack lie in E, and at
    which essential rank, in one :func:`_block_forms` call and one
    :func:`_memberships` call per rank present.  Every decomposition verdict
    reads this pass."""
    w, X, ranks, B = _block_forms(mats, tols)
    norm = np.full(len(mats), np.nan)
    errors = {k: _refusal(tols, w[k, 0], ranks[k]) for k in np.flatnonzero(ranks <= 0).tolist()}
    for chi in sorted(set(ranks.tolist()) - {-1, 0}):
        idx = np.flatnonzero(ranks == chi)
        recon, norm[idx], bad = _memberships(B[idx], chi, tols)
        for j in np.flatnonzero(bad[0] | bad[1] | bad[2]).tolist():
            k = int(idx[j])
            errors[k] = _refusal(tols, w[k, 0], chi, recon[j], norm[k], [m[j] for m in bad])
    return _Pass(X, ranks, B, norm, errors)


def _one_shape(mats: list) -> np.ndarray:
    """The ``(N, d, D, D)`` stack of matrices that must share ``(d, D)``; N >= 1."""
    if not mats:
        raise ValueError("a tensor sequence must not be empty")
    shapes = list(dict.fromkeys(m.shape[:2] for m in mats))
    if len(shapes) > 1:
        raise ValueError(f"a tensor sequence must share (d, D); got {shapes[0]} and {shapes[1]}")
    return np.array(mats)


def _stacked(A, stacked_pass, *aligned) -> list:
    """``stacked_pass`` on an ``(..., d, D, D)`` stack, or on each group of
    same-shape entries (tensors or arrays) of a sequence, stacked: its
    per-tensor results in input order (C order for a stack).  Each of the
    ``aligned`` sequences, one entry per tensor, is passed on as the list
    of the group's entries.  An array of fewer than 4 dimensions is refused:
    it is one tensor, not a stack."""
    if isinstance(A, np.ndarray):
        if A.ndim < 4:
            raise ValueError(f"an array of shape {A.shape} is not a stack of (d, D, D) "
                             "tensors: pass MpsTensor(a) for one tensor, or a[None] "
                             "for a stack of one")
        return stacked_pass(np.asarray(A, dtype=complex).reshape((-1,) + A.shape[-3:]), *aligned)
    mats = [np.asarray(getattr(a, "mats", a), dtype=complex) for a in A]
    out = [None] * len(mats)
    for idx, stack in _shape_groups(mats):
        idx = idx.tolist()
        for n, result in zip(idx, stacked_pass(stack, *([s[n] for n in idx] for s in aligned))):
            out[n] = result
    return out


def _shape_groups(mats) -> list:
    """``(indices, stack)`` of each group of same-shape arrays of a sequence,
    in order of first appearance: the group's positions as an index array,
    and its arrays stacked."""
    groups = {}
    for n, m in enumerate(mats):
        groups.setdefault(m.shape, []).append(n)
    return [(np.array(idx), np.array([mats[n] for n in idx])) for idx in groups.values()]


def _unrefused(results: list) -> list:
    """``results``, unless one is a refusal: then the first is raised."""
    error = next((x for x in results if isinstance(x, TimpsError)), None)
    if error is not None:
        raise error
    return results


def canonical_decompose(A, tols: Tolerances = DEFAULT_TOLS):
    """Recover ``(X, K, M, chi)`` from a tensor, or refuse; a decomposition is returned as given.

    The bond basis is the eigenbasis of the left Gram matrix, range first,
    eigenvalues descending, eigenvector phases fixed by the largest-modulus
    entry.  Raises ``NotInEError`` if the block form does not reproduce the
    input, or if the recovered core is not injective or not right-normalized.

    ``A`` may also be an ``(..., d, D, D)`` stack or a sequence of tensors
    (of any shapes): the result is then the list, in C order, of each
    tensor's decomposition or of the ``TimpsError`` the N=1 call raises on
    it, from one :func:`_decomposition_pass` per shape; a decomposition in
    the sequence is passed through, and an ``MpsTensor`` is carried by its
    decomposition, as in the N=1 call.  One tensor is the N=1 call.
    """
    if isinstance(A, CanonicalDecomposition):
        return A
    if not isinstance(A, (MpsTensor, np.ndarray)):
        A = list(A)
        given = [isinstance(a, CanonicalDecomposition) for a in A]
        if any(given):  # decompositions pass through, as in the N=1 call
            found = iter(canonical_decompose([a for a, g in zip(A, given) if not g], tols))
            return [a if g else next(found) for a, g in zip(A, given)]
    if not isinstance(A, MpsTensor):
        def passed(mats, *given):
            return _decomposition_pass(mats, tols).results(mats, *given)
        return _stacked(A, passed, *([] if isinstance(A, np.ndarray) else [A]))
    found = _decomposition_pass(A.mats[None], tols)
    if found.errors:
        raise found.errors[0]
    return found.decomposition(0, A)


def _decomposition(A, tols: Tolerances) -> CanonicalDecomposition:
    """``A`` as given when it is a decomposition, without a call to
    :func:`canonical_decompose`; else the decomposition of the tensor ``A``."""
    return A if isinstance(A, CanonicalDecomposition) else canonical_decompose(A, tols)


def essential_rank(A: MpsTensor, tols: Tolerances = DEFAULT_TOLS) -> int:
    """Numerical rank of the left Gram matrix, validated through the
    canonical decomposition."""
    return canonical_decompose(A, tols).chi


def transfer_kernel(K_a, K_b, W=None) -> np.ndarray:
    """Matrices of the maps ``B -> sum_ij W_ij K_a^i B K_b^{j*}`` of stacked
    cores, shapes ``(..., d, a, a)`` and ``(..., d, b, b)``: the ``ab x ab``
    matrices ``sum_ij W_ij K_a^i (x) conj(K_b^j)`` in the row-major
    vectorization.  Omitting the ``d x d`` weights ``W`` means the identity.
    """
    K_a = np.asarray(K_a, dtype=complex)
    K_b = np.asarray(K_b, dtype=complex).conj()
    d, a, b = K_a.shape[-3], K_a.shape[-1], K_b.shape[-1]
    cols = K_b.reshape(K_b.shape[:-3] + (d, b * b))
    if W is not None:
        cols = W @ cols
    # one matmul per core pair: rows (p, q) of K_a, columns (r, s) of K_b
    out = np.swapaxes(K_a.reshape(K_a.shape[:-3] + (d, a * a)), -1, -2) @ cols
    out = np.swapaxes(out.reshape(out.shape[:-2] + (a, a, b, b)), -3, -2)
    return out.reshape(out.shape[:-4] + (a * b, a * b))


def _sorted_spectrum(vals: np.ndarray, vecs: np.ndarray | None = None):
    """Eigenvalues along the last axis sorted by descending modulus, ties
    by descending real part; with ``vecs``, their columns follow."""
    order = np.lexsort((-vals.real, -np.abs(vals)), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    if vecs is None:
        return vals
    return vals, np.take_along_axis(vecs, order[..., None, :], axis=-1)


def _degenerate(vals: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Whether the second modulus of descending-modulus spectra (last axis) is
    within the gap tolerance of the first; a single eigenvalue never is."""
    if vals.shape[-1] < 2:
        return np.zeros(vals.shape[:-1], dtype=bool)
    return np.abs(vals[..., 1]) > (1.0 - tols.tol_gap) * np.abs(vals[..., 0])


def _norms(x: np.ndarray) -> np.ndarray:
    """2-norm of each entry of a stack of complex vectors or matrices."""
    v = np.ascontiguousarray(x).reshape(len(x), -1).view(float)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _certified_leading(T: np.ndarray, tols: Tolerances):
    """``(lead, bound)`` of stacked ``(N, chi^2, chi^2)`` transfer matrices
    (of :func:`transfer_kernel` on ``chi x chi`` cores): each leading
    eigenvalue, and a bound on every other eigenvalue's modulus that
    ``_degenerate`` finds separated from it; ``bound`` is ``inf`` (and
    ``lead`` NaN) where no certificate holds.  Each row's arithmetic depends
    on its own matrix alone.  At ``chi = 1`` the one entry is the eigenvalue.

    The trial vectors are ``r = T vec(I)`` and ``l = vec(I)^T T``, the
    estimate the Rayleigh quotient ``lam = l T r / (l r)``.  With ``D = T -
    lam r l / (l r)``, ``rho = T r - lam r`` and ``sig = l T - lam l``, for
    ``|z| > ||D||``: ``det(T - z) = det(D - z) (z - lam + g(z)) / z``, ``g(z)
    = lam (sig (D - z)^-1 rho - l rho) / (z l r)``.  On the circle ``|z| = b``
    halfway between ``||D||_F`` and ``|lam|``, ``|g| <= e < |lam| - b``
    leaves (Rouche) exactly one eigenvalue outside it, within ``e`` of
    ``lam``; ``lam`` is accepted where ``_degenerate`` finds ``b`` separated
    from ``|lam| - e`` and the quadratic part of ``e`` is below one ulp.
    Every norm is inflated by ``4 n eps`` times the scale of ``T``, so that
    roundoff cannot pass a certificate."""
    N, n = T.shape[0], T.shape[-1]
    if n == 1 or not N:
        return T[:, 0, 0].copy(), np.zeros(N)
    eps = np.finfo(float).eps
    chi = int(round(n ** 0.5))
    unit = np.arange(chi) * (chi + 1)  # the entries of vec(I_chi)
    with np.errstate(all="ignore"):  # a row that overflows or vanishes stays uncertified
        r, l = T[:, :, unit].sum(-1), T[:, unit].sum(-2)
        Tr = (T @ r[..., None])[..., 0]
        lT = (l[:, None, :] @ T)[:, 0]
        lr = np.einsum("ij,ij->i", l, r)
        lam = np.einsum("ij,ij->i", l, Tr) / lr
        L, alpha = np.abs(lam), lam / lr
        nr, nl, nT = _norms(r), _norms(l), _norms(T)
        outer = np.abs(alpha) * nr * nl
        tiny = 4 * n * eps * (nT + outer)
        # ||D||_F^2 = ||T||^2 - 2 Re(conj(alpha) r* T l*) + |alpha|^2 ||r||^2 ||l||^2
        cross = np.einsum("ij,ij->i", r.conj(), (T @ l.conj()[..., None])[..., 0])
        d2 = nT ** 2 - 2 * (alpha.conj() * cross).real + outer ** 2
        d = np.sqrt(np.maximum(d2, 0.0) + n * tiny * (nT + outer))
        rho = _norms(Tr - lam[:, None] * r) + tiny * nr
        sig = _norms(lT - lam[:, None] * l) + tiny * nl
        alr = np.abs(lr) - tiny * nl * nr
        b = (d + L) / 2
        quad = L * sig * rho / (alr * (b - d) * b)
        e = quad + L * tiny * nl * nr / (alr * b)
        ok = (alr > 0) & (d < L) & (e < L - b) & (quad <= eps * L)
        ok &= ~_degenerate(np.stack([L - e, b], axis=-1), tols)
    return np.where(ok, lam, np.nan), np.where(ok, b, np.inf)


def _leading_fixed_point(mat: np.ndarray, chi: int, tols: Tolerances):
    """Descending-modulus spectra ``vals`` of ``(N, chi^2, chi^2)`` transfer
    matrices, ``eigh`` ``(w, V)`` of each leading eigenvector as a trace-one
    Hermitian ``chi x chi`` matrix, and by index the refusal of each gapless
    spectrum or traceless lead."""
    vals, vecs = _sorted_spectrum(*np.linalg.eig(mat))
    gapless = _degenerate(vals, tols)
    rho = vecs[:, :, 0].reshape(-1, chi, chi)
    tr = np.trace(rho, axis1=1, axis2=2)
    traceless = np.abs(tr) < 1e-14
    errors = {n: DegenerateLeadingEigenvalueError(
        f"transfer gap too small: |lambda_2| = {abs(vals[n, 1]):.12f}" if gapless[n]
        else "leading eigenvector is traceless")
        for n in np.flatnonzero(gapless | traceless).tolist()}
    rho = rho / np.where(traceless, 1.0, tr)[:, None, None]
    w, V = np.linalg.eigh((rho + _dagger(rho)) / 2.0)
    return vals, w, V, errors


def right_normalize(A, tols: Tolerances = DEFAULT_TOLS):
    """Produce a representative with a right-normalized core.

    The block form is read off the left Gram range, or is a decomposition's
    own; the core block is then rescaled by the leading eigenvalue of its map
    ``B -> sum_i K^i B K^{i*}`` and conjugated by the Hermitian square root of
    the fixed point.  The physical state is preserved up to normalization.

    ``A`` may also be a stack or a sequence, as for
    :func:`canonical_decompose`: the result is then the list of each
    tensor's representative or of the ``TimpsError`` the N=1 call raises on
    it, from one stacked :func:`_leading_fixed_point` per essential rank; a
    decomposition's own block form is normalized, not decomposed again.
    """
    def normalized(mats):
        return _normalized(*_block_forms(mats, tols), tols=tols)

    if isinstance(A, np.ndarray):
        return _stacked(A, normalized)
    one = isinstance(A, (MpsTensor, CanonicalDecomposition))
    A = [A] if one else list(A)
    decs = [a for a in A if isinstance(a, CanonicalDecomposition)]
    found = iter(_stacked([a for a in A if not isinstance(a, CanonicalDecomposition)], normalized))
    # a decomposition's own block form, of positive rank: no refusal reads a spectrum
    own = iter(_stacked([np.concatenate([a.K, a.M], axis=1) for a in decs], lambda B, group: _normalized(
        None, np.array([a.X for a in group]), np.full(len(B), B.shape[-1]), B, tols), decs))
    out = [next(own if isinstance(a, CanonicalDecomposition) else found) for a in A]
    return _unrefused(out)[0] if one else out


def _normalized(w, V, ranks, B, tols: Tolerances) -> list:
    """Representative or refusal of each tensor of a stack, from its block
    forms as :func:`_block_forms` gives them (``B`` may stop at the core columns)."""
    out = [None if r > 0 else _refusal(tols, w[n, 0], r) if r < 0 or not np.isfinite(w[n, 0])
           else NotInEError("cannot normalize a numerically zero tensor")
           for n, r in enumerate(ranks)]
    for chi in set(ranks.tolist()) - {-1, 0}:
        idx = np.flatnonzero(ranks == chi)
        K0, M0 = B[idx, :, :chi, :chi], B[idx, :, chi:, :chi]
        vals, rw, rV, errors = _leading_fixed_point(transfer_kernel(K0, K0), chi, tols)
        for j, n in enumerate(idx):
            out[n] = errors.get(j) or (
                NotInEError("core map has non-positive leading eigenvalue") if vals[j, 0].real <= 0
                else DegenerateLeadingEigenvalueError(
                    "fixed point of the core map is singular (reducible core)")
                if rw[j, 0] < tols.tol_norm * rw[j, -1] else None)
        ok = [j for j, n in enumerate(idx) if out[n] is None]
        root, rV = np.sqrt(rw[ok])[:, None, :], rV[ok]
        rVh = _dagger(rV)
        sqrt_rho, inv_sqrt_rho = (rV * root) @ rVh, (rV * (1.0 / root)) @ rVh
        scale = (1.0 / np.sqrt(vals[ok, 0].real))[:, None, None, None]
        K_new = scale * _sandwich(inv_sqrt_rho, K0[ok], sqrt_rho)
        M_new = scale * (M0[ok] @ sqrt_rho[:, None])
        for n, A in zip(idx[ok], _assembled(V[idx[ok]], K_new, M_new)):
            out[n] = MpsTensor(A)
    return out


@dataclass(frozen=True, eq=False)
class GaugeMove:
    """A gauge transformation ``A -> lam * Z (A + filler) Z*``.

    ``lam`` is a unit-modulus phase, ``Z`` a bond unitary, and ``filler`` a
    tensor supported off the core of the tensor the move is applied to
    (``Q(A) filler = 0`` and ``filler Q(A) = filler``).
    """

    lam: complex
    Z: np.ndarray
    filler: MpsTensor


def apply_gauge(A, move: GaugeMove, tols: Tolerances = DEFAULT_TOLS):
    """Apply a gauge move to a tensor (or the tensor of a decomposition),
    validating it against the tensor's core support; a decomposition's own
    basis and rank give that support.

    ``A`` and ``move`` may also be equal-length sequences of tensors (or
    decompositions) and moves: the result is then the list of the moved
    tensors, in order, ending with the ``TimpsError`` of the first move that
    fails, where a one-at-a-time loop stops; one pass per tensor shape.  One
    pair is the N=1 call.
    """
    if isinstance(A, (MpsTensor, CanonicalDecomposition)):
        return _unrefused(_moved(A.mats[None], [A], [move], tols))[0]
    if len(A) != len(move):
        raise ValueError("apply_gauge needs one move per tensor")
    out = _stacked(A, lambda mats, As, moves: _moved(mats, As, moves, tols), A, move)
    return out[:next((n + 1 for n, x in enumerate(out) if isinstance(x, TimpsError)), len(out))]


def _moved(mats: np.ndarray, A: list, moves: list, tols: Tolerances) -> list:
    """Each tensor (or decomposition) ``A[n]``, matrices ``mats[n]``, moved
    by ``moves[n]``, or the refusal of the move: the N=1 checks in order."""
    N, D = len(mats), mats.shape[-1]
    sized = [np.shape(mv.Z) == (D, D) for mv in moves]
    filled = [mv.filler.mats.shape == mats.shape[1:] for mv in moves]
    Z = np.array([mv.Z if ok else np.eye(D) for mv, ok in zip(moves, sized)], dtype=complex)
    tilde = np.array([mv.filler.mats if ok else 0 * m for mv, ok, m in zip(moves, filled, mats)])
    lam = np.array([mv.lam for mv in moves], dtype=complex)
    Q, errors = np.zeros_like(Z), {}
    for n, a in enumerate(A):
        try:
            Q[n] = range_projection(a, tols)
        except TimpsError as exc:
            errors[n] = exc
    checks = (
        (np.logical_not(sized), "bond unitary has wrong size"),
        (np.abs(np.abs(lam) - 1.0) > tols.tol_unitary, "phase is not unit modulus"),
        (np.linalg.norm(_dagger(Z) @ Z - np.eye(D), axis=(1, 2))
         > tols.tol_unitary * D, "Z is not unitary"),
        (np.logical_not(filled), "filler has wrong shape"),
        ([n in errors for n in range(N)], None),
        (np.linalg.norm((Q[:, None] @ tilde).reshape(N, -1), axis=1)
         > tols.tol_norm, "filler maps into the core range"),
        (np.linalg.norm((tilde @ Q[:, None] - tilde).reshape(N, -1), axis=1)
         > tols.tol_norm, "filler is not supported on the core domain"),
    )
    moved = lam[:, None, None, None] * _sandwich(Z, mats + tilde, _dagger(Z))
    found = [next((message for bad, message in checks if bad[n]), "") for n in range(N)]
    return [MpsTensor(moved[n]) if message == "" else errors[n] if message is None
            else IncompatibleGaugeMoveError(message) for n, message in enumerate(found)]


def mixed_transfer_leading(K_a, K_b, tols: Tolerances = DEFAULT_TOLS):
    """Leading eigenvalue of the mixed core map ``B -> sum_i K_a^i B K_b^{i*}``.

    Its modulus is the fidelity per site; its phase is the overlap link
    variable between the two states.  Stacked core pairs, shapes ``(N, d, a,
    a)`` and ``(N, d, b, b)``, give ``(lead, second)``: each leading
    eigenvalue and a bound on every other eigenvalue's modulus, from one
    :func:`_certified_leading` call.  The rows it does not prove, every row
    when ``a != b`` (its trial vectors need square pairs), and the rows whose
    lead is below twice ``OVERLAP_FLOOR`` take one ``eigvals`` call instead;
    their bound is the exact second modulus, 0 when ``ab = 1``.  One pair
    is the N=1 call and returns the complex eigenvalue.
    """
    if np.ndim(K_a) == 3:
        return mixed_transfer_leading([K_a], [K_b], tols)[0][0]
    if np.shape(K_a)[1] != np.shape(K_b)[1]:
        raise ValueError("cores must share the physical dimension")
    T = transfer_kernel(K_a, K_b)
    if np.shape(K_a)[-1] == np.shape(K_b)[-1]:
        lead, second = _certified_leading(T, tols)
    else:
        lead, second = np.full(len(T), np.nan, dtype=complex), np.full(len(T), np.inf)
    unsure = np.isinf(second) | (np.abs(lead) < 2.0 * OVERLAP_FLOOR)
    if unsure.any():
        vals = _sorted_spectrum(np.linalg.eigvals(T[unsure]))
        lead[unsure] = vals[:, 0]
        second[unsure] = np.abs(vals[:, 1]) if vals.shape[-1] > 1 else 0.0
    return lead, second


def fidelity_per_site(K_a, K_b, tols: Tolerances = DEFAULT_TOLS):
    """Modulus of the mixed-transfer leading eigenvalue; 1 iff same state.  Stacked
    core pairs, shapes ``(N, d, a, a)`` and ``(N, d, b, b)``, give the ``(N,)``
    moduli from one :func:`mixed_transfer_leading` call; one pair is the N=1 call."""
    if np.ndim(K_a) == 3:
        return float(fidelity_per_site([K_a], [K_b], tols)[0])
    lead = mixed_transfer_leading(K_a, K_b, tols)[0]
    # np.abs of a complex array may round differently from abs() of one
    # eigenvalue; hypot rounds like the latter, at every stack size
    return np.hypot(lead.real, lead.imag)


def gauge_equivalent(A, B, tols: Tolerances = DEFAULT_TOLS):
    """Decide whether two tensors (or their decompositions) induce the same
    physical state.

    True iff the essential ranks agree and the fidelity per site of the
    cores is at least ``1 - tols.tol_fid``.  ``A`` and ``B`` may also be
    equal-length sequences of tensors, decompositions or cores (``(d, chi,
    chi)`` arrays, right-normalized and injective, as a decomposition's
    ``K``; an ``(N, d, chi, chi)`` array is a stack of them): the verdict of
    each pair then comes back as a bool array, from one stacked
    :func:`mixed_transfer_leading` call per group of pairs sharing the rank and the
    larger physical dimension; a single pair, two cores among them, is the
    N=1 call.  Every pair is judged on its two cores.
    """
    single = isinstance(A, (MpsTensor, CanonicalDecomposition)) or getattr(A, "ndim", 0) == 3
    cores_a, cores_b = ([x if isinstance(x, np.ndarray) else _decomposition(x, tols).K
                         for x in ([X] if single else X)] for X in (A, B))
    both = [n for n, (a, b) in enumerate(zip(cores_a, cores_b, strict=True))
            if a.shape[-1] == b.shape[-1]]
    # each pair's cores, zero-padded to the larger physical dimension
    pairs = [np.zeros((2, max(len(cores_a[n]), len(cores_b[n]))) + cores_a[n].shape[1:],
                      dtype=complex) for n in both]
    for n, pair in zip(both, pairs):
        pair[0, :len(cores_a[n])], pair[1, :len(cores_b[n])] = cores_a[n], cores_b[n]

    out = np.zeros(len(cores_a), dtype=bool)
    out[both] = _stacked(pairs, lambda P: fidelity_per_site(P[:, 0], P[:, 1], tols)
                         >= 1.0 - tols.tol_fid)
    return bool(out[0]) if single else out


# ---------------------------------------------------------------------------
# JSON encoding: {"d": int, "D": int, "mats": d x D x D x [re, im]},
# row-major within each matrix.


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _json_matrix(obj, D: int) -> np.ndarray:
    """The ``D x D`` matrix of a list of rows of ``[re, im]`` cells."""
    _require(isinstance(obj, list) and len(obj) >= 1, "matrix must be a non-empty list of rows")
    _require(isinstance(obj[0], list) and len(obj[0]) >= 1, "matrix rows must be non-empty lists")
    _require(len(obj) == D, f"expected {D} rows, got {len(obj)}")
    _require(len(obj[0]) == D, f"expected {D} columns, got {len(obj[0])}")
    out = np.zeros((D, D), dtype=complex)
    for a, row in enumerate(obj):
        _require(isinstance(row, list) and len(row) == D, "ragged matrix rows")
        for b, cell in enumerate(row):
            _require(
                isinstance(cell, list) and len(cell) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell),
                "matrix entries must be [re, im] number pairs",
            )
            out[a, b] = complex(cell[0], cell[1])
    _require(bool(np.all(np.isfinite(out.view(float)))), "matrix entries must be finite")
    return out


def tensor_to_json(A: MpsTensor) -> dict:
    return {"d": A.d, "D": A.D, "mats": np.stack([A.mats.real, A.mats.imag], axis=-1).tolist()}


def tensor_from_json(obj) -> MpsTensor:
    _require(isinstance(obj, dict), "tensor document must be an object")
    _require(set(obj.keys()) == {"d", "D", "mats"}, "tensor document must have exactly keys d, D, mats")
    d, D = obj["d"], obj["D"]
    _require(isinstance(d, int) and not isinstance(d, bool) and d >= 1, "d must be a positive integer")
    _require(isinstance(D, int) and not isinstance(D, bool) and D >= 1, "D must be a positive integer")
    mats = obj["mats"]
    _require(isinstance(mats, list) and len(mats) == d, "mats must list exactly d matrices")
    stack = np.array([_json_matrix(m, D) for m in mats])
    return MpsTensor(stack)
