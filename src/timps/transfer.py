"""Transfer operators, their fixed points, and finite-window expectations.

A right-normalized injective core ``K`` defines the completely positive map
``E_C(B) = sum_{ij} C_{ij} K^{i*} B K^j`` for a single-site observable ``C``.
The unique positive trace-one fixed point ``T`` of ``E_1`` generates all
expectation values of the translation-invariant state.  The brute-force
oracle at desk scale reads the window amplitude factor ``P``, with ``P
P^dagger`` the dense window density matrix, site by site.
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
    _dagger,
    _degenerate,
    _leading_fixed_point,
    _one_shape,
    _sandwich,
    _sorted_spectrum,
    _stacked,
    _unrefused,
    transfer_kernel,
)

__all__ = [
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
    """One core or a stack of cores; a sequence goes through :func:`tensors._one_shape`."""
    if isinstance(K, np.ndarray) or _one_core(K):
        return np.asarray(getattr(K, "mats", K), dtype=complex)
    return _one_shape([np.asarray(getattr(k, "mats", k), dtype=complex) for k in K])


def _one_core(K) -> bool:
    """Whether ``K`` is one core (a tensor, a decomposition or ``d``
    matrices), not a stack or a sequence of cores."""
    return hasattr(K, "mats") or (len(K) > 0 and np.ndim(getattr(K[0], "mats", K[0])) == 2)


def _stacks(K, T):
    """Whether ``K`` is one core, and the same-shape cores and their fixed
    points, one per core, as ``(m, d, chi, chi)`` and ``(m, chi, chi)`` arrays."""
    one = _one_core(K)
    mats, Ts = (_core_mats(K)[None], [T]) if one else (_core_mats(K), T)
    if len(Ts) != len(mats):
        raise ValueError(f"need one fixed point per core: got {len(Ts)} for {len(mats)} cores")
    return one, mats, np.array(Ts, dtype=complex)


def transfer_matrix(K, C) -> np.ndarray:
    """Dense ``chi^2 x chi^2`` matrix of ``B -> sum_{ij} C_{ij} K^{i*} B K^j``
    in the row-major vectorization: the adjoint of the kernel with weights
    ``conj(C)`` (see :mod:`timps.tensors`); also of stacks of ``K`` and ``C``."""
    mats = _core_mats(K)
    C = np.asarray(C, dtype=complex)
    d = mats.shape[-3]
    if C.shape[-2:] != (d, d):
        raise ValueError(f"observable must be {d} x {d}, got {C.shape}")
    return np.swapaxes(transfer_kernel(mats, mats, C.conj()).conj(), -1, -2)


def transfer_spectrum(K) -> np.ndarray:
    """Eigenvalues of the identity transfer map, sorted by descending modulus
    (ties by descending real part); of each core of an ``(m, d, chi, chi)`` stack."""
    mats = _core_mats(K)
    mat = transfer_matrix(mats, np.eye(mats.shape[-3]))
    return _sorted_spectrum(np.linalg.eigvals(mat))


def fixed_point(K, tols: Tolerances = DEFAULT_TOLS):
    """Positive trace-one fixed-point matrix of the identity transfer map.

    Computed by dense eigendecomposition (exactness over scalability at desk
    scale).  The leading eigenvector is trace-normalized, Hermitized, and its
    spectrum repaired by clipping eigenvalues in ``[-tol_norm, 0)`` to zero.

    ``K`` may also be an ``(m, d, chi, chi)`` stack or a sequence of cores:
    the result is then the list of each core's fixed-point matrix or of the
    ``TimpsError`` the N=1 call raises on it, from one pass per core shape.
    """
    if not _one_core(K):
        return _stacked(K, lambda mats: _fixed_points(mats, tols))
    return _unrefused(_fixed_points(_core_mats(K)[None], tols))[0]


def _fixed_points(mats: np.ndarray, tols: Tolerances) -> list:
    """Fixed point or refusal of each core of an ``(m, d, chi, chi)`` stack."""
    _, w, V, errors = _leading_fixed_point(
        transfer_matrix(mats, np.eye(mats.shape[1])), mats.shape[2], tols)
    for n in np.flatnonzero(w[:, 0] < -tols.tol_norm).tolist():
        errors.setdefault(n, NotPositiveError(
            f"Hermitized fixed point has eigenvalue {w[n, 0]:.3e} < -tol_norm"))
    ok = [n for n in range(len(mats)) if n not in errors]
    T = (V[ok] * np.clip(w[ok], 0.0, None)[:, None, :]) @ np.swapaxes(V[ok].conj(), -1, -2)
    T = dict(zip(ok, T / np.trace(T, axis1=1, axis2=2).real[:, None, None]))
    return [errors.get(n) or T[n] for n in range(len(mats))]


def expectation(K, T, obs: WindowObservable):
    """Expectation of a product window observable in the transfer state.

    Applies the single-site transfer maps successively to the fixed point and
    takes the trace.  For a stack or a sequence of same-shape cores, with
    ``T`` and ``obs`` one entry per core and windows of one length, the
    array of the expectations.
    """
    one, mats, B = _stacks(K, T)
    obs = [obs] if one else list(obs)
    m, d, chi = mats.shape[:3]
    if len(obs) != m:
        raise ValueError(f"need one observable per core: got {len(obs)} for {m} cores")
    if len({o.n for o in obs}) > 1:
        raise ValueError("stacked windows must share their length")
    for C in zip(*(o.factors for o in obs)):
        if any(c.shape != (d, d) for c in C):
            raise ValueError(f"window factor must be {d} x {d}")
        B = (transfer_matrix(mats, np.array(C)) @ B.reshape(m, -1, 1)).reshape(m, chi, chi)
    vals = np.trace(B, axis1=1, axis2=2)
    return complex(vals[0]) if one else vals


def window_density_matrix(K, T, n: int) -> np.ndarray:
    """Dense reduced density matrix of the state on an n-site window.

    Mixture over boundary matrix units built from the eigenbasis of the fixed
    point; trace one.  The mixture is one rank-chi^2 product ``P P^dagger``
    of :func:`_window_amplitudes`, O(d^{2n} chi^2).  This is the dense API;
    the window oracle for :func:`expectation` reads the factor ``P`` alone.
    For cores and ``T`` as in :func:`expectation`, the stack of the matrices.
    """
    P = _window_amplitudes(K, T, n)
    return P @ _dagger(P)


def _window_amplitudes(K, T, n: int) -> np.ndarray:
    """The d^n x chi^2 factor ``P`` with ``P P^dagger`` the window density
    matrix (zero columns for non-positive fixed-point eigenvalues); for
    cores and ``T`` as in :func:`expectation`, the stack of their factors."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"window length n must be an integer >= 1, got {n!r}")
    one, mats, Tm = _stacks(K, T)
    m, d, chi = mats.shape[:3]
    dim = d**n
    if dim > WINDOW_CAP:
        raise WindowTooLargeError(f"window dimension {dim} exceeds cap {WINDOW_CAP}")

    # G[j1..jn] = K^{j1} ... K^{jn}, flattened over the physical string.
    G = mats.copy()
    for _ in range(n - 1):
        G = np.einsum("msab,mjbc->msjac", G, mats).reshape(m, -1, chi, chi)

    mu, V = np.linalg.eigh((Tm + np.swapaxes(Tm.conj(), -1, -2)) / 2.0)
    # boundary insertion |v_b><v_a| gives amplitudes psi[s, a, b] =
    # <v_a| G^s |v_b>; column (a, b) of P is sqrt(mu_a) psi[:, a, b]
    psi = _sandwich(_dagger(V), G, V)
    P = (np.sqrt(np.maximum(mu, 0.0))[:, None, :, None] * psi).reshape(m, dim, chi * chi)
    return P[0] if one else P


def correlation_length(K, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Correlation length ``-1 / log(|lambda_2| / |lambda_1|)`` from the
    transfer spectrum.

    Returns 0 for a bond-dimension-1 core (pure product state, no second
    eigenvalue) or a vanishing second eigenvalue.  Raises
    ``DegenerateLeadingEigenvalueError`` when the second modulus is within
    the gap tolerance of the leading one: the length is then not resolved.
    Anything but one ``(d, chi, chi)`` core is refused with a ``ValueError``.
    """
    mats = _core_mats(K)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"correlation_length takes one (d, chi, chi) core, got shape {mats.shape}")
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
