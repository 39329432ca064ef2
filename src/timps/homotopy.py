"""Explicit homotopies on the space of MPS tensors.

Three constructions live here:

* isometry paths: for a strictly increasing index map ``phi``, a continuous
  family of real isometries interpolating between the identity pattern and
  the relabeling ``a -> phi(b)``, used to enlarge physical or bond dimension
  without leaving the tensor space;
* the contraction path: a concatenation of four homotopies that carries any
  tensor to one fixed endpoint tensor while staying inside the space;
* the retraction: a deformation that continuously lowers the essential rank
  of a tensor whose core Gram matrix has a split spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import NotInOError
from .tensors import (
    CanonicalDecomposition,
    MpsTensor,
    _decomposition,
    assemble,
    left_gram,
    pad_tensor,
    right_gram,
)

__all__ = [
    "PhiRule",
    "isometry_path_block",
    "apply_physical_isometry",
    "apply_bond_isometry",
    "cantor_pair",
    "contraction_output_dims",
    "contraction_endpoint",
    "contraction_path",
    "spectral_filter",
    "has_split_core_spectrum",
    "RetractionState",
    "retract",
]


class PhiRule:
    """A strictly increasing map on the positive integers, with the chain
    bookkeeping needed to evaluate isometry path entries.

    Every ``b`` outside the image chain decomposes uniquely as
    ``b = phi^k(l)`` with ``l`` not in the image of ``phi``; the entry
    formulas are case splits over that chain.
    """

    def __init__(self, func: Callable[[int], int], name: str = "custom"):
        self.func = func
        self.name = name
        self._chain_cache: dict[int, tuple[int, int]] = {}
        self._preimage_cache: dict[int, int | None] = {}

    def __call__(self, n: int) -> int:
        v = self.func(n)
        if v < n:
            raise ValueError("phi must satisfy phi(n) >= n (strictly increasing)")
        return v

    @classmethod
    def from_name(cls, name: str) -> "PhiRule":
        if name in ("shift", "n+1"):
            return cls(lambda n: n + 1, "shift")
        if name in ("triple", "3n+1"):
            return cls(lambda n: 3 * n + 1, "3n+1")
        if name == "identity":
            return cls(lambda n: n, "identity")
        raise ValueError(f"unknown phi rule {name!r}")

    def preimage(self, b: int) -> int | None:
        """The unique n with phi(n) = b, or None; phi(n) >= n bounds the scan."""
        if b not in self._preimage_cache:
            found = None
            for n in range(1, b + 1):
                v = self(n)
                if v == b:
                    found = n
                    break
                if v > b:
                    break
            self._preimage_cache[b] = found
        return self._preimage_cache[b]

    def chain_decompose(self, b: int) -> tuple[int, int]:
        """Return (k, l) with b = phi^k(l) and l outside the image of phi."""
        if b not in self._chain_cache:
            k, x = 0, b
            while True:
                prev = self.preimage(x)
                if prev is None:
                    break
                x = prev
                k += 1
            self._chain_cache[b] = (k, x)
        return self._chain_cache[b]


def isometry_path_block(phi: PhiRule, t: float, n_rows: int, n_cols: int) -> np.ndarray:
    """Dense leading block of the isometry path.

    With ``n_rows >= phi(n_cols)`` the block captures the full support of the
    first ``n_cols`` columns, so ``block* block`` is exactly the leading
    ``n_cols`` block of the infinite product.
    """
    s = math.sin(math.pi * t / 2.0)
    c = math.cos(math.pi * t / 2.0)
    out = np.zeros((n_rows, n_cols))
    for b in range(1, n_cols + 1):
        if phi(b) == b:
            if b <= n_rows:
                out[b - 1, b - 1] = 1.0
            continue
        k, l = phi.chain_decompose(b)
        if l <= n_rows:
            out[l - 1, b - 1] = (-s) ** k * c
        node = l
        for j in range(1, k + 1):
            node = phi(node)
            if node <= n_rows:
                out[node - 1, b - 1] = (-s) ** (k - j) * c * c
        tip = phi(node)
        if tip <= n_rows:
            out[tip - 1, b - 1] = s
    return out


def _mix_physical(gam: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """``sum_j gam_ij mats^j`` for every output index ``i``."""
    return np.einsum("ij,jab->iab", gam, mats)


def _conjugate_bonds(delta: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """``delta mats^i delta^T`` for every physical index ``i`` (``delta`` is real)."""
    return np.einsum("ab,ibc,dc->iad", delta, mats, delta)


def apply_physical_isometry(A, phi: PhiRule, t: float,
                            tols: Tolerances = DEFAULT_TOLS) -> MpsTensor:
    """Mix the physical components along the isometry path: the i-th output
    matrix is ``sum_j Gamma_ij(t) A^j``, zero-padded to physical dimension
    ``phi(d)``.  Core normalization and essential rank are preserved.
    ``A`` is checked by decomposing it unless it is a decomposition."""
    A = _decomposition(A, tols).tensor
    return MpsTensor(_mix_physical(isometry_path_block(phi, t, phi(A.d), A.d), A.mats))


def apply_bond_isometry(A, phi: PhiRule, t: float,
                        tols: Tolerances = DEFAULT_TOLS) -> MpsTensor:
    """Conjugate every matrix by the leading ``phi(D) x D`` block of the
    isometry path, enlarging the bond dimension to ``phi(D)``.  ``A`` is
    checked by decomposing it unless it is a decomposition."""
    A = _decomposition(A, tols).tensor
    return MpsTensor(_conjugate_bonds(isometry_path_block(phi, t, phi(A.D), A.D), A.mats))


def cantor_pair(j: int, gamma: int) -> int:
    """Fixed bijection N x N -> N (1-indexed diagonal pairing)."""
    return (j + gamma - 1) * (j + gamma - 2) // 2 + gamma


def contraction_output_dims(d: int, D: int) -> tuple[int, int]:
    """Common (physical, bond) dimensions holding every stage of the path."""
    d_out = max(3 * d + 1, 3 * cantor_pair(d, D))
    return d_out, D + 1


def contraction_endpoint(d: int, D: int) -> MpsTensor:
    """The fixed endpoint: a single unit entry in the first physical slot."""
    d_out, D_out = contraction_output_dims(d, D)
    mats = np.zeros((d_out, D_out, D_out), dtype=complex)
    mats[0, 0, 0] = 1.0
    return MpsTensor(mats)


def _shifted(mat: np.ndarray) -> np.ndarray:
    """Embed a D x D matrix into (D+1) x (D+1), shifted one slot down-right."""
    D = mat.shape[0]
    out = np.zeros((D + 1, D + 1), dtype=complex)
    out[1:, 1:] = mat
    return out


def _stage_widen(A: MpsTensor, t: float) -> np.ndarray:
    """First stage: move along the physical (3n+1) and bond (n+1) isometry
    paths simultaneously; identity at t = 0, triple-spaced embedding at 1."""
    delta = isometry_path_block(PhiRule.from_name("shift"), t, A.D + 1, A.D)
    gam = isometry_path_block(PhiRule.from_name("3n+1"), t, 3 * A.d + 1, A.d)
    return _mix_physical(gam, _conjugate_bonds(delta, A.mats))


def _stage_row_growth(A: MpsTensor, t: float) -> np.ndarray:
    """Second stage: keep the embedded copy on slots 3j+1 and grow, on slots
    3*pair(j, gamma), row vectors carrying the matrix rows of A scaled by
    t / sqrt(tr R(A))."""
    d, D = A.d, A.D
    d_out, D_out = contraction_output_dims(d, D)
    coeff = t / math.sqrt(np.trace(right_gram(A)).real)
    out = np.zeros((d_out, D_out, D_out), dtype=complex)
    for j in range(1, d + 1):
        out[3 * j] = _shifted(A.mats[j - 1])  # slot 3j+1
    for j in range(1, d + 1):
        for gamma in range(1, D + 1):
            slot = 3 * cantor_pair(j, gamma)
            out[slot - 1][0, 1:] = coeff * A.mats[j - 1][gamma - 1, :]
    return out


def _stage_swap(A: MpsTensor, t: float) -> np.ndarray:
    """Third stage: scale the previous components to zero while growing a
    unit top-corner entry and column vectors carrying the matrix columns."""
    d, D = A.d, A.D
    d_out, D_out = contraction_output_dims(d, D)
    old = _stage_row_growth(A, 1.0)
    out = math.sqrt(1.0 - t) * old
    # the old stage is zero on slot 1 and slots 3*pair - 1, where growth happens
    out[0] = 0.0
    out[0][0, 0] = math.sqrt(t)
    for j in range(1, d + 1):
        for gamma in range(1, D + 1):
            slot = 3 * cantor_pair(j, gamma) - 1
            out[slot - 1] = 0.0
            out[slot - 1][1:, 0] = math.sqrt(t) * A.mats[j - 1][:, gamma - 1]
    return out


def _stage_fade(A: MpsTensor, t: float) -> np.ndarray:
    """Final stage: freeze the top-corner component and fade all others."""
    out = (1.0 - t) * _stage_swap(A, 1.0)
    out[0] = 0.0
    out[0][0, 0] = 1.0
    return out


_CLOCK_RAMP = 0.125
_CLOCK_RATE = 1.0 / (1.0 - _CLOCK_RAMP)


def _stage_clock(tau: float) -> float:
    """Stage-internal clock: constant rate with quadratic smoothing ramps.

    The flat ends make the square-root amplitudes of the later stages
    Lipschitz in the path parameter; the ramp fraction is the smallest that
    keeps the worst per-step sup-norm motion of normalized tensors below
    1e-2 at step 1e-3 (a plain linear clock fails that bound by a factor of
    six because of the sqrt(t) entries).
    """
    r, m = _CLOCK_RAMP, _CLOCK_RATE
    if tau <= r:
        return 0.5 * m * tau * tau / r
    if tau >= 1.0 - r:
        return 1.0 - 0.5 * m * (1.0 - tau) ** 2 / r
    return 0.5 * m * r + m * (tau - r)


def contraction_path(A, s: float,
                     tols: Tolerances = DEFAULT_TOLS) -> MpsTensor:
    """Evaluate the contraction of the tensor space at time ``s`` in [0, 1].

    The four stages run on the subintervals [0, 1/4], [1/4, 1/2],
    [1/2, 3/4], [3/4, 1], each reparametrized by :func:`_stage_clock`.
    ``s = 0`` is the input (zero-padded to the common output shape);
    ``s = 1`` is the fixed endpoint tensor, independent of the input.
    Every intermediate tensor stays inside the space.  ``A`` is checked by
    decomposing it unless it is a decomposition.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError("path parameter must lie in [0, 1]")
    A = _decomposition(A, tols).tensor
    d_out, D_out = contraction_output_dims(A.d, A.D)
    if s <= 0.25:
        mats = _stage_widen(A, _stage_clock(4.0 * s))
        return pad_tensor(MpsTensor(mats), d_out, D_out)
    if s <= 0.5:
        return MpsTensor(_stage_row_growth(A, _stage_clock(4.0 * s - 1.0)))
    if s <= 0.75:
        return MpsTensor(_stage_swap(A, _stage_clock(4.0 * s - 2.0)))
    return MpsTensor(_stage_fade(A, _stage_clock(4.0 * s - 3.0)))


def spectral_filter(x: float, t: float, delta: float) -> float:
    """The rank-lowering filter: 0 for x <= t*delta, else sqrt(1 - t*delta/x).

    At t = 0 (or delta = 0) this is the Heaviside step function.
    """
    if x <= t * delta:
        return 0.0
    return math.sqrt(1.0 - t * delta / x)


def _core_gram_eigh(K: np.ndarray):
    """Ascending eigendecomposition of the core Gram matrix ``sum_i K^{i*} K^i``."""
    gram = left_gram(K)
    return np.linalg.eigh((gram + gram.conj().T) / 2.0)


def _is_split(w: np.ndarray, tols: Tolerances) -> bool:
    """Whether an ascending core Gram spectrum is nonsingular and not a
    multiple of the identity (a single eigenvalue never is split)."""
    lam_max, lam_min = float(w[-1]), float(w[0])
    if lam_min <= tols.eps_rank * lam_max:
        return False
    return (lam_max - lam_min) > tols.tol_distinct * lam_max


def has_split_core_spectrum(A, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """True iff the core Gram matrix of a tensor (or decomposition) has at
    least two distinct nonzero eigenvalues (relative separation above
    ``tols.tol_distinct``); requires essential rank >= 2."""
    return _is_split(_core_gram_eigh(_decomposition(A, tols).K)[0], tols)


@dataclass(frozen=True, eq=False)
class RetractionState:
    """Snapshot of the retraction: time, the spectral floor ``delta`` used by
    the filter, and the deformed tensor."""

    t: float
    delta: float
    tensor: MpsTensor


def _retract_core(dec: CanonicalDecomposition, t: float, w: np.ndarray,
                  V: np.ndarray, tols: Tolerances) -> MpsTensor:
    """The retracted tensor, from the core Gram eigendecomposition ``w, V``."""
    K, M, X = dec.K, dec.M, dec.X
    fvals = np.array([spectral_filter(x, t, w[0] * (1.0 + 1e-12)) for x in w])
    filt = (V * fvals) @ V.conj().T
    Kf = np.einsum("iab,bc->iac", K, filt)
    S = right_gram(Kf)
    sw, sV = np.linalg.eigh((S + S.conj().T) / 2.0)
    sw = np.clip(sw, tols.tol_norm, None)
    inv_sqrt = (sV * (1.0 / np.sqrt(sw))) @ sV.conj().T
    K_new = np.einsum("ab,ibc->iac", inv_sqrt, Kf)
    M_new = np.einsum("iab,bc->iac", M, filt)
    return assemble(X, K_new, M_new)


def retract(
    A,
    t: float,
    ambient_chi: int | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> RetractionState:
    """Deform a tensor (or the tensor of a decomposition) toward lower
    essential rank.

    The deformed tensor is ``S(A,t)^{-1/2} A f(L(core))`` in block form: the
    core is multiplied by the spectral filter anchored at its smallest Gram
    eigenvalue and renormalized by the inverse square root of the resulting
    right Gram matrix.  At ``t = 0`` the input is returned; at ``t = 1`` the
    essential rank strictly drops.  Tensors of rank below the ambient level
    are fixed points.  Raises ``NotInOError`` when the core Gram spectrum is
    a nonzero multiple of the identity at full ambient rank.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("retraction time must lie in [0, 1]")
    dec = _decomposition(A, tols)
    if ambient_chi is None:
        ambient_chi = dec.chi if dec.chi >= 2 else 2
    if dec.chi > ambient_chi:
        raise ValueError(f"tensor rank {dec.chi} exceeds ambient level {ambient_chi}")
    if dec.chi < ambient_chi:
        return RetractionState(t=t, delta=0.0, tensor=dec.tensor)
    w, V = _core_gram_eigh(dec.K)
    if not _is_split(w, tols):
        raise NotInOError(
            "core Gram spectrum is a multiple of the identity at full rank; "
            "the retraction is undefined here"
        )
    delta = float(w[0])
    if t == 0.0:
        return RetractionState(t=0.0, delta=delta, tensor=dec.tensor)
    return RetractionState(t=t, delta=delta, tensor=_retract_core(dec, t, w, V, tols))
