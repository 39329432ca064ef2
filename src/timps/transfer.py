"""Transfer operators, their fixed points, and finite-window expectations.

A right-normalized injective core ``K`` defines the completely positive map
``E_C(B) = sum_{ij} C_{ij} K^{i*} B K^j`` for a single-site observable ``C``.
The unique positive trace-one fixed point ``T`` of ``E_1`` generates all
expectation values of the translation-invariant state; a dense window
density matrix serves as the brute-force oracle at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    DegenerateLeadingEigenvalueError,
    NotPositiveError,
    WindowTooLargeError,
)
from .tensors import (
    MpsTensor,
    _degenerate,
    _leading_fixed_point,
    _sorted_spectrum,
    transfer_kernel,
)

__all__ = [
    "TransferFixedPoint",
    "WindowObservable",
    "transfer_matrix",
    "transfer_spectrum",
    "fixed_point",
    "expectation",
    "window_density_matrix",
    "correlation_length",
    "trace_invariant",
    "WINDOW_CAP",
]

WINDOW_CAP = 4096


@dataclass(frozen=True, eq=False)
class TransferFixedPoint:
    """Positive trace-one fixed point of the identity transfer map, together
    with the full transfer spectrum (descending modulus)."""

    T: np.ndarray
    spectrum: np.ndarray

    @property
    def chi(self) -> int:
        return self.T.shape[0]


@dataclass(frozen=True)
class WindowObservable:
    """A product observable ``C_1 x ... x C_n`` on a window of n sites."""

    factors: list = field(default_factory=list)

    def __post_init__(self):
        fac = [np.asarray(C, dtype=complex) for C in self.factors]
        for C in fac:
            if C.ndim != 2 or C.shape[0] != C.shape[1]:
                raise ValueError("observable factors must be square matrices")
            if not np.all(np.isfinite(C.view(float))):
                raise ValueError("observable entries must be finite")
        object.__setattr__(self, "factors", fac)

    @property
    def n(self) -> int:
        return len(self.factors)


def _core_mats(K) -> np.ndarray:
    return np.asarray(getattr(K, "mats", K), dtype=complex)


def transfer_matrix(K, C) -> np.ndarray:
    """Dense ``chi^2 x chi^2`` matrix of ``B -> sum_{ij} C_{ij} K^{i*} B K^j``
    in the row-major vectorization: the adjoint of the kernel with weights
    ``conj(C)`` (see :mod:`timps.tensors`)."""
    mats = _core_mats(K)
    C = np.asarray(C, dtype=complex)
    d = mats.shape[0]
    if C.shape != (d, d):
        raise ValueError(f"observable must be {d} x {d}, got {C.shape}")
    return transfer_kernel(mats, mats, C.conj()).conj().T


def transfer_spectrum(K) -> np.ndarray:
    """Eigenvalues of the identity transfer map, sorted by descending modulus
    (ties broken by descending real part for determinism)."""
    mats = _core_mats(K)
    mat = transfer_matrix(mats, np.eye(mats.shape[0]))
    return _sorted_spectrum(np.linalg.eigvals(mat))


def fixed_point(K, tols: Tolerances = DEFAULT_TOLS) -> TransferFixedPoint:
    """Positive trace-one fixed point of the identity transfer map.

    Computed by dense eigendecomposition (exactness over scalability at desk
    scale).  The leading eigenvector is trace-normalized, Hermitized, and its
    spectrum repaired by clipping eigenvalues in ``[-tol_norm, 0)`` to zero.
    """
    mats = _core_mats(K)
    stack = transfer_matrix(mats, np.eye(mats.shape[0]))[None]
    (vals,), (w,), (V,), errors = _leading_fixed_point(stack, mats.shape[1], tols)
    if errors:
        raise errors[0]
    if w[0] < -tols.tol_norm:
        raise NotPositiveError(
            f"Hermitized fixed point has eigenvalue {w[0]:.3e} < -tol_norm"
        )
    T = (V * np.clip(w, 0.0, None)) @ V.conj().T
    return TransferFixedPoint(T=T / np.trace(T).real, spectrum=vals)


def expectation(K, T, obs: WindowObservable) -> complex:
    """Expectation of a product window observable in the transfer state.

    Applies the single-site transfer maps successively to the fixed point and
    takes the trace.
    """
    mats = _core_mats(K)
    d, chi = mats.shape[0], mats.shape[1]
    B = T.T if isinstance(T, TransferFixedPoint) else np.asarray(T, dtype=complex)
    for C in obs.factors:
        if C.shape != (d, d):
            raise ValueError(f"window factor must be {d} x {d}")
        B = (transfer_matrix(mats, C) @ B.reshape(-1)).reshape(chi, chi)
    return complex(np.trace(B))


def window_density_matrix(K, T, n: int) -> np.ndarray:
    """Dense reduced density matrix of the state on an n-site window.

    Mixture over boundary matrix units built from the eigenbasis of the fixed
    point; trace one.  The mixture is one rank-chi^2 product ``P P^dagger``
    of :func:`_window_amplitudes`, O(d^{2n} chi^2).  This is the dense API;
    the window oracle for :func:`expectation` reads the factor ``P`` alone.
    """
    P = _window_amplitudes(K, T, n)
    return P @ P.conj().T


def _window_amplitudes(K, T, n: int) -> np.ndarray:
    """The d^n x r factor ``P`` with ``P P^dagger`` the window density matrix."""
    mats = _core_mats(K)
    d, chi = mats.shape[0], mats.shape[1]
    dim = d**n
    if dim > WINDOW_CAP:
        raise WindowTooLargeError(f"window dimension {dim} exceeds cap {WINDOW_CAP}")
    Tm = T.T if isinstance(T, TransferFixedPoint) else np.asarray(T, dtype=complex)

    # G[j1..jn] = K^{j1} ... K^{jn}, flattened over the physical string.
    G = mats.copy()
    for _ in range(n - 1):
        G = np.einsum("sab,jbc->sjac", G, mats).reshape(-1, chi, chi)

    mu, V = np.linalg.eigh((Tm + Tm.conj().T) / 2.0)
    keep = mu > 0
    # boundary insertion |v_b><v_a| gives amplitudes psi[s, a, b] =
    # <v_a| G^s |v_b>; column (a, b) of P is sqrt(mu_a) psi[:, a, b]
    psi = V[:, keep].conj().T @ G @ V
    return (np.sqrt(mu[keep])[:, None] * psi).reshape(dim, np.count_nonzero(keep) * chi)


def correlation_length(K, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Correlation length ``-1 / log(|lambda_2| / |lambda_1|)`` from the
    transfer spectrum.

    Returns 0 for a bond-dimension-1 core (pure product state, no second
    eigenvalue) or a vanishing second eigenvalue.  Raises
    ``DegenerateLeadingEigenvalueError`` when the second modulus is within
    the gap tolerance of the leading one: the length is then not resolved.
    """
    mats = _core_mats(K)
    if mats.shape[1] == 1:
        return 0.0
    spec = transfer_spectrum(mats)
    if _degenerate(spec, tols):
        raise DegenerateLeadingEigenvalueError("no spectral gap below the leading eigenvalue")
    ratio = abs(spec[1]) / abs(spec[0])
    return 0.0 if ratio == 0.0 else -1.0 / math.log(ratio)


def trace_invariant(A: MpsTensor) -> float:
    """Modulus of the summed matrix traces; invariant under gauge moves."""
    return float(abs(np.einsum("iaa->", A.mats)))
