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

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    AmbiguousRankError,
    DegenerateLeadingEigenvalueError,
    IncompatibleGaugeMoveError,
    NotInEError,
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
    "canonical_cores",
    "essential_rank",
    "right_normalize",
    "apply_gauge",
    "transfer_kernel",
    "mixed_transfer_leading",
    "mixed_transfer_spectra",
    "fidelity_per_site",
    "gauge_equivalent",
    "pad_tensor",
    "assemble",
    "tensor_to_json",
    "tensor_from_json",
    "matrix_to_json",
    "matrix_from_json",
]


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

    def scaled(self, factor: complex) -> "MpsTensor":
        return MpsTensor(self.mats * factor)

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


def left_gram(A: MpsTensor) -> np.ndarray:
    """Sum of ``A^{i*} A^i``; Hermitian PSD, its rank is the essential rank."""
    m = A.mats
    return np.einsum("iba,ibc->ac", m.conj(), m)


def right_gram(A: MpsTensor) -> np.ndarray:
    """Sum of ``A^i A^{i*}``."""
    m = A.mats
    return np.einsum("iab,icb->ac", m, m.conj())


def _sorted_eigh(H: np.ndarray):
    """Hermitian eigendecomposition of a matrix or an ``(N, D, D)`` stack,
    eigenvalues descending, each eigenvector phase-fixed so its
    largest-modulus entry is real positive."""
    w, V = np.linalg.eigh((H + np.swapaxes(H.conj(), -1, -2)) / 2.0)
    # eigh returns ascending eigenvalues; unit eigenvectors have a nonzero pivot
    w, V = w[..., ::-1], V[..., ::-1]
    pivot = np.take_along_axis(V, np.abs(V).argmax(axis=-2)[..., None, :], axis=-2)
    return w, V * (pivot.conj() / np.abs(pivot))


def _ranks_from_spectra(w: np.ndarray, eps_rank: float) -> np.ndarray:
    """Eigenvalues above the relative cutoff, per descending spectrum in the
    last axis of ``w``; -1 where one sits inside the cutoff window."""
    cutoff = eps_rank * w[..., :1]
    ranks = (w > cutoff).sum(axis=-1) * (w[..., 0] > 0.0)
    in_window = ((w > 0.5 * cutoff) & (w < 2.0 * cutoff)).any(axis=-1)
    return ranks - (ranks + 1) * in_window


def _block_forms(mats: np.ndarray, eps_rank: float):
    """Block form of an ``(N, d, D, D)`` stack: the left Gram spectra
    (descending), the bond bases ``X`` (Gram eigenvectors), the essential
    ranks (-1 where threshold-dependent) and the blocks ``X* A^i X``."""
    w, X = _sorted_eigh(np.einsum("niba,nibc->nac", mats.conj(), mats))
    B = np.einsum("nba,nibc,ncd->niad", X.conj(), mats, X)
    return w, X, _ranks_from_spectra(w, eps_rank), B


def _block_form(A: MpsTensor, eps_rank: float):
    """The N=1 call of :func:`_block_forms`: ``(X, chi, B)`` of one tensor,
    refusing a threshold-dependent rank."""
    w, X, ranks, B = _block_forms(A.mats[None], eps_rank)
    if ranks[0] < 0:
        raise AmbiguousRankError(
            f"eigenvalue inside the cutoff window (0.5, 2)*{eps_rank * w[0, 0]:.3e}; "
            "the rank decision would be threshold-dependent"
        )
    return X[0], int(ranks[0]), B[0]


def range_projection(A: MpsTensor, eps_rank: float = DEFAULT_TOLS.eps_rank) -> np.ndarray:
    """Orthogonal projection onto the span of the dominant eigenvectors of
    the left Gram matrix (eigenvalues above ``eps_rank * lambda_max``)."""
    if eps_rank <= 0:
        raise ValueError("eps_rank must be positive")
    X, rank, _ = _block_form(A, eps_rank)
    Xr = X[:, :rank]
    return Xr @ Xr.conj().T


def _injective(K: np.ndarray, eps_rank: float) -> np.ndarray:
    """Injectivity of ``(..., d, chi, chi)`` cores, on the singular values of
    their ``d x chi^2`` vectorizations."""
    d, chi = K.shape[-3], K.shape[-1]
    if d < chi * chi:
        return np.zeros(K.shape[:-3], dtype=bool)
    s = np.linalg.svd(K.reshape(K.shape[:-3] + (d, chi * chi)), compute_uv=False)
    return (s[..., 0] != 0.0) & ((s > eps_rank * s[..., :1]).sum(axis=-1) == chi * chi)


def is_injective(mats, eps_rank: float = DEFAULT_TOLS.eps_rank) -> bool:
    """True iff the matrices span the full matrix algebra of their size.

    Decided on the singular values of the ``d x chi^2`` vectorization: the
    span is full iff the numerical rank equals ``chi^2``.
    """
    arr = np.asarray(mats, dtype=complex)
    d, chi, chi2 = arr.shape
    if chi != chi2:
        raise ValueError("core matrices must be square")
    return bool(_injective(arr, eps_rank))


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

    def core_tensor(self) -> MpsTensor:
        return MpsTensor(self.K)

    def reassemble(self) -> MpsTensor:
        return assemble(self.X, self.K, self.M)


def assemble(X: np.ndarray, K: np.ndarray, M: np.ndarray | None = None) -> MpsTensor:
    """Build ``X [[K, 0], [M, 0]] X*`` as an explicit tensor."""
    X = np.asarray(X, dtype=complex)
    K = np.asarray(K, dtype=complex)
    D = X.shape[0]
    d, chi, _ = K.shape
    if M is None:
        M = np.zeros((d, D - chi, chi), dtype=complex)
    M = np.asarray(M, dtype=complex)
    blocks = np.zeros((d, D, D), dtype=complex)
    blocks[:, :chi, :chi] = K
    blocks[:, chi:, :chi] = M
    return MpsTensor(np.einsum("ab,ibc,dc->iad", X, blocks, X.conj()))


def _reassembly_errors(B: np.ndarray, chi: int) -> np.ndarray:
    """Largest Frobenius norm, over the physical index, of the columns past
    ``chi`` of ``(..., d, D, D)`` blocks ``X* A X``: what the block form drops."""
    dropped = B[..., chi:]
    if dropped.size == 0:
        return np.zeros(B.shape[:-3])
    return np.sqrt((dropped.real ** 2 + dropped.imag ** 2).sum(axis=(-2, -1))).max(axis=-1)


def _normalization_residuals(K: np.ndarray) -> np.ndarray:
    """Frobenius distance of ``sum_i K^i K^{i*}`` from the identity, per core
    of a ``(..., d, chi, chi)`` stack."""
    gram = np.einsum("...iab,...icb->...ac", K, K.conj())
    return np.linalg.norm(gram - np.eye(K.shape[-1]), axis=(-2, -1))


def canonical_decompose(
    A: MpsTensor,
    eps_rank: float = DEFAULT_TOLS.eps_rank,
    tols: Tolerances = DEFAULT_TOLS,
) -> CanonicalDecomposition:
    """Recover ``(X, K, M, chi)`` from a tensor, or refuse.

    The bond basis is the eigenbasis of the left Gram matrix, range first,
    eigenvalues descending, eigenvector phases fixed by the largest-modulus
    entry.  Raises ``NotInEError`` if the block form does not reproduce the
    input, or if the recovered core is not injective or not right-normalized.
    """
    X, chi, B = _block_form(A, eps_rank)
    if chi == 0:
        raise NotInEError("tensor has numerically zero left Gram matrix")
    K = B[:, :chi, :chi].copy()
    M = B[:, chi:, :chi].copy()
    recon_err = float(_reassembly_errors(B, chi))
    if recon_err > tols.tol_recon:
        raise NotInEError(
            f"no block canonical form: reassembly error {recon_err:.3e} "
            f"exceeds {tols.tol_recon:.1e}"
        )
    norm_err = float(_normalization_residuals(K))
    if norm_err > tols.tol_norm:
        raise NotInEError(
            f"core is not right-normalized: residual {norm_err:.3e}"
        )
    if not _injective(K, eps_rank):
        raise NotInEError("core matrices do not span the full matrix algebra")
    return CanonicalDecomposition(X=X, K=K, M=M, chi=chi, tensor=A,
                                  norm_residual=norm_err)


def _decomposition(A, eps_rank: float, tols: Tolerances) -> CanonicalDecomposition:
    """``A`` itself when it is a :class:`CanonicalDecomposition` (trusted,
    not recomputed), else the canonical decomposition of the tensor ``A``."""
    if isinstance(A, CanonicalDecomposition):
        return A
    return canonical_decompose(A, eps_rank, tols)


def canonical_cores(
    mats: np.ndarray,
    chi: int,
    eps_rank: float = DEFAULT_TOLS.eps_rank,
    tols: Tolerances = DEFAULT_TOLS,
):
    """The cores ``K`` of :func:`canonical_decompose` for an ``(N, d, D, D)``
    stack of tensors of essential rank ``chi``, as an ``(N, d, chi, chi)``
    array.

    Returns ``(K, ok)``: ``ok[n]`` is False where ``canonical_decompose``
    would refuse tensor ``n`` (ambiguous or zero rank, reassembly,
    normalization or injectivity failure) or would find an essential rank
    other than ``chi``; there ``K[n]`` is meaningless.
    """
    _, _, ranks, B = _block_forms(np.asarray(mats, dtype=complex), eps_rank)
    K = np.ascontiguousarray(B[..., :chi, :chi])
    ok = (
        (ranks == chi)
        & ~(_reassembly_errors(B, chi) > tols.tol_recon)
        & ~(_normalization_residuals(K) > tols.tol_norm)
        & _injective(K, eps_rank)
    )
    return K, ok


def essential_rank(
    A: MpsTensor,
    eps_rank: float = DEFAULT_TOLS.eps_rank,
    tols: Tolerances = DEFAULT_TOLS,
) -> int:
    """Numerical rank of the left Gram matrix, validated through the
    canonical decomposition."""
    return canonical_decompose(A, eps_rank, tols).chi


def transfer_kernel(K_a, K_b, W=None) -> np.ndarray:
    """Matrices of the maps ``B -> sum_ij W_ij K_a^i B K_b^{j*}`` of stacked
    cores, shapes ``(..., d, a, a)`` and ``(..., d, b, b)``: the ``ab x ab``
    matrices ``sum_ij W_ij K_a^i (x) conj(K_b^j)`` in the row-major
    vectorization.  Omitting the ``d x d`` weights ``W`` means the identity.
    """
    K_a = np.asarray(K_a, dtype=complex)
    K_b = np.asarray(K_b, dtype=complex).conj()
    if W is not None:
        K_b = np.einsum("...ij,...jrs->...irs", W, K_b)
    a, b = K_a.shape[-1], K_b.shape[-1]
    out = np.einsum("...ipq,...irs->...prqs", K_a, K_b)
    return out.reshape(out.shape[:-4] + (a * b, a * b))


def _sorted_spectrum(vals: np.ndarray, vecs: np.ndarray | None = None):
    """Eigenvalues along the last axis sorted by descending modulus, ties
    by descending real part; with ``vecs``, their columns follow."""
    order = np.lexsort((-vals.real, -np.abs(vals)), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    if vecs is None:
        return vals
    return vals, np.take_along_axis(vecs, order[..., None, :], axis=-1)


def right_normalize(
    A: MpsTensor,
    eps_rank: float = DEFAULT_TOLS.eps_rank,
    tols: Tolerances = DEFAULT_TOLS,
) -> MpsTensor:
    """Produce a representative with a right-normalized core.

    The core support is read off the left Gram range; the core block is then
    rescaled by the leading eigenvalue of its map ``B -> sum_i K^i B K^{i*}``
    and conjugated by the Hermitian square root of the fixed point.  The
    physical state is preserved up to overall normalization.
    """
    V, chi, B = _block_form(A, eps_rank)
    if chi == 0:
        raise NotInEError("cannot normalize a numerically zero tensor")
    K0 = B[:, :chi, :chi]
    M0 = B[:, chi:, :chi]

    vals, vecs = _sorted_spectrum(*np.linalg.eig(transfer_kernel(K0, K0)))
    lam = vals[0]
    if len(vals) > 1 and abs(vals[1]) > (1.0 - tols.tol_gap) * abs(lam):
        raise DegenerateLeadingEigenvalueError(
            "leading eigenvalue of the core map is not simple; "
            "the core is not injective-irreducible"
        )
    lam = float(lam.real)
    if lam <= 0:
        raise NotInEError("core map has non-positive leading eigenvalue")

    rho = vecs[:, 0].reshape(chi, chi)
    tr = np.trace(rho)
    if abs(tr) < 1e-14:
        raise DegenerateLeadingEigenvalueError("traceless leading eigenvector")
    rho = rho / tr
    rho = (rho + rho.conj().T) / 2.0
    rw, rV = np.linalg.eigh(rho)
    if rw[0] < tols.tol_norm * rw[-1]:
        raise DegenerateLeadingEigenvalueError(
            "fixed point of the core map is singular (reducible core)"
        )
    sqrt_rho = (rV * np.sqrt(rw)) @ rV.conj().T
    inv_sqrt_rho = (rV * (1.0 / np.sqrt(rw))) @ rV.conj().T

    scale = 1.0 / np.sqrt(lam)
    K_new = scale * np.einsum("ab,ibc,cd->iad", inv_sqrt_rho, K0, sqrt_rho)
    M_new = scale * np.einsum("iab,bc->iac", M0, sqrt_rho)
    return assemble(V, K_new, M_new)


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

    @classmethod
    def identity(cls, A: MpsTensor) -> "GaugeMove":
        return cls(1.0 + 0.0j, np.eye(A.D, dtype=complex),
                   MpsTensor(np.zeros_like(A.mats)))


def apply_gauge(
    A: MpsTensor,
    move: GaugeMove,
    eps_rank: float = DEFAULT_TOLS.eps_rank,
    tols: Tolerances = DEFAULT_TOLS,
) -> MpsTensor:
    """Apply a gauge move, validating it against the tensor's core support."""
    Z = np.asarray(move.Z, dtype=complex)
    if Z.shape != (A.D, A.D):
        raise IncompatibleGaugeMoveError("bond unitary has wrong size")
    if abs(abs(move.lam) - 1.0) > tols.tol_unitary:
        raise IncompatibleGaugeMoveError("phase is not unit modulus")
    if np.linalg.norm(Z.conj().T @ Z - np.eye(A.D)) > tols.tol_unitary * A.D:
        raise IncompatibleGaugeMoveError("Z is not unitary")
    if move.filler.mats.shape != A.mats.shape:
        raise IncompatibleGaugeMoveError("filler has wrong shape")
    Q = range_projection(A, eps_rank)
    tilde = move.filler.mats
    if np.linalg.norm(np.einsum("ab,ibc->iac", Q, tilde)) > tols.tol_norm:
        raise IncompatibleGaugeMoveError("filler maps into the core range")
    if np.linalg.norm(np.einsum("iab,bc->iac", tilde, Q) - tilde) > tols.tol_norm:
        raise IncompatibleGaugeMoveError("filler is not supported on the core domain")
    moved = move.lam * np.einsum("ab,ibc,dc->iad", Z, A.mats + tilde, Z.conj())
    return MpsTensor(moved)


def mixed_transfer_spectra(K_a: np.ndarray, K_b: np.ndarray) -> np.ndarray:
    """Eigenvalues of the mixed core maps ``B -> sum_i K_a^i B K_b^{i*}`` of
    stacked core pairs, shapes ``(N, d, a, a)`` and ``(N, d, b, b)``, as
    ``(N, ab)`` arrays in LAPACK order."""
    return np.linalg.eigvals(transfer_kernel(K_a, K_b))


def mixed_transfer_leading(K_a: np.ndarray, K_b: np.ndarray) -> complex:
    """Leading eigenvalue of the mixed core map ``B -> sum_i K_a^i B K_b^{i*}``.

    Its modulus is the fidelity per site; its phase is the overlap link
    variable between the two states.
    """
    K_a = np.asarray(K_a, dtype=complex)
    K_b = np.asarray(K_b, dtype=complex)
    if K_a.shape[0] != K_b.shape[0]:
        raise ValueError("cores must share the physical dimension")
    return _sorted_spectrum(mixed_transfer_spectra(K_a[None], K_b[None]))[0, 0]


def fidelity_per_site(K_a: np.ndarray, K_b: np.ndarray) -> float:
    """Modulus of the mixed-transfer leading eigenvalue; 1 iff same state."""
    return float(abs(mixed_transfer_leading(K_a, K_b)))


def gauge_equivalent(
    A,
    B,
    eps_rank: float = DEFAULT_TOLS.eps_rank,
    tol_fid: float = DEFAULT_TOLS.tol_fid,
    tols: Tolerances = DEFAULT_TOLS,
) -> bool:
    """Decide whether two tensors (or their decompositions) induce the same
    physical state.

    True iff the essential ranks agree and the fidelity per site of the
    cores is at least ``1 - tol_fid``.
    """
    dec_a = _decomposition(A, eps_rank, tols)
    dec_b = _decomposition(B, eps_rank, tols)
    if dec_a.chi != dec_b.chi:
        return False
    d = max(dec_a.d, dec_b.d)
    K_a = np.zeros((d,) + dec_a.K.shape[1:], dtype=complex)
    K_a[: dec_a.d] = dec_a.K
    K_b = np.zeros((d,) + dec_b.K.shape[1:], dtype=complex)
    K_b[: dec_b.d] = dec_b.K
    return fidelity_per_site(K_a, K_b) >= 1.0 - tol_fid


# ---------------------------------------------------------------------------
# JSON encoding: {"d": int, "D": int, "mats": d x D x D x [re, im]},
# row-major within each matrix.


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def matrix_to_json(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in mat]


def matrix_from_json(obj, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    _require(isinstance(obj, list) and len(obj) >= 1, "matrix must be a non-empty list of rows")
    r = len(obj)
    _require(isinstance(obj[0], list) and len(obj[0]) >= 1, "matrix rows must be non-empty lists")
    c = len(obj[0])
    if rows is not None:
        _require(r == rows, f"expected {rows} rows, got {r}")
    if cols is not None:
        _require(c == cols, f"expected {cols} columns, got {c}")
    out = np.zeros((r, c), dtype=complex)
    for a, row in enumerate(obj):
        _require(isinstance(row, list) and len(row) == c, "ragged matrix rows")
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
    return {"d": A.d, "D": A.D, "mats": [matrix_to_json(m) for m in A.mats]}


def tensor_from_json(obj) -> MpsTensor:
    _require(isinstance(obj, dict), "tensor document must be an object")
    _require(set(obj.keys()) == {"d", "D", "mats"}, "tensor document must have exactly keys d, D, mats")
    d, D = obj["d"], obj["D"]
    _require(isinstance(d, int) and not isinstance(d, bool) and d >= 1, "d must be a positive integer")
    _require(isinstance(D, int) and not isinstance(D, bool) and D >= 1, "D must be a positive integer")
    mats = obj["mats"]
    _require(isinstance(mats, list) and len(mats) == d, "mats must list exactly d matrices")
    stack = np.array([matrix_from_json(m, D, D) for m in mats])
    return MpsTensor(stack)
