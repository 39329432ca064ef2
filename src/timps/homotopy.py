"""Explicit homotopies on the space of MPS tensors.

Three constructions live here:

* isometry paths: for a strictly increasing affine index map ``phi``, a
  continuous family of real isometries interpolating between the identity
  pattern and the relabeling ``a -> phi(b)``, used to enlarge physical or
  bond dimension without leaving the tensor space;
* the contraction path: a concatenation of four homotopies that carries any
  tensor to one fixed endpoint tensor while staying inside the space;
* the retraction: a deformation that continuously lowers the essential rank
  of a tensor whose core Gram matrix has a split spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import NotInOError
from .tensors import (
    CanonicalDecomposition,
    MpsTensor,
    _assembled,
    _dagger,
    _decomposition,
    _one_shape,
    _sandwich,
    _stacked,
    left_gram,
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
    "retract",
]


@dataclass(frozen=True)
class PhiRule:
    """The index map ``n -> a*n + b`` on the positive integers, with integers
    ``a >= 1`` and ``b >= 0``: strictly increasing, or the identity.

    Every index ``n`` the map does not fix decomposes uniquely as
    ``n = phi^k(l)`` with ``l`` not in the image of ``phi``; the entry
    formulas of the isometry path are case splits over that chain.
    """

    a: int
    b: int

    def __post_init__(self):
        if not (type(self.a) is int and type(self.b) is int and self.a >= 1 and self.b >= 0):
            raise ValueError("phi must be n -> a*n + b with integers a >= 1 and b >= 0, "
                             f"got a={self.a!r}, b={self.b!r}")

    def __call__(self, n: int) -> int:
        return self.a * n + self.b

    @classmethod
    def from_name(cls, name: str) -> "PhiRule":
        rules = {"shift": (1, 1), "3n+1": (3, 1), "identity": (1, 0)}
        if name not in rules:
            raise ValueError(f"unknown phi rule {name!r}")
        return cls(*rules[name])

    def chain_decompose(self, n: int) -> tuple[int, int]:
        """Return (k, l) with n = phi^k(l) and l outside the image of phi;
        an index the map fixes has no such chain."""
        a, b = self.a, self.b
        if a == 1:
            if b == 0:
                raise ValueError(f"the identity map fixes {n}: it has no chain")
            k = (n - 1) // b
            return k, n - k * b
        k = 0
        while n > b and (n - b) % a == 0:  # n has the preimage (n - b) / a >= 1
            n = (n - b) // a
            k += 1
        return k, n


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
    """``sum_j gam_ij mats^j`` for every output index ``i``, per tensor of a
    stack; a stack of ``gam`` broadcasts against the tensors' leading axes."""
    return np.einsum("...ij,...jab->...iab", gam, mats)


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
    delta = isometry_path_block(phi, t, phi(A.D), A.D)  # real: delta^T is its adjoint
    return MpsTensor(_sandwich(delta, A.mats, delta.T))


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


_SHIFT = PhiRule.from_name("shift")
_TRIPLE = PhiRule.from_name("3n+1")


def _pair_slots(d: int, D: int):
    """Physical indices ``j - 1`` and bond indices ``gamma - 1`` over all
    pairs, j-major, and ``cantor_pair(j, gamma)`` of each."""
    j, gamma = np.divmod(np.arange(d * D), D)
    return j, gamma, np.array([cantor_pair(a + 1, b + 1) for a, b in zip(j, gamma)])


# Each stage maps an (N, d, D, D) stack and a list of T stage-clock times
# to the (N, T, ...) stack of its tensors.

def _stage_widen(mats: np.ndarray, t: list) -> np.ndarray:
    """First stage: move along the physical (3n+1) and bond (n+1) isometry
    paths simultaneously; identity at t = 0, triple-spaced embedding at 1.
    Shape ``(N, T, 3d + 1, D + 1, D + 1)``."""
    d, D = mats.shape[-3], mats.shape[-1]
    delta = np.array([isometry_path_block(_SHIFT, tk, D + 1, D) for tk in t])
    gam = np.array([isometry_path_block(_TRIPLE, tk, 3 * d + 1, d) for tk in t])
    return _mix_physical(gam, _sandwich(delta, mats[:, None], np.swapaxes(delta, 1, 2)))


def _stage_row_growth(mats: np.ndarray, t: list) -> np.ndarray:
    """Second stage: keep the embedded copy on slots 3j+1 and grow, on slots
    3*pair(j, gamma), row vectors carrying the matrix rows of A scaled by
    t / sqrt(tr R(A))."""
    d, D = mats.shape[-3], mats.shape[-1]
    d_out, D_out = contraction_output_dims(d, D)
    coeff = np.asarray(t) / np.sqrt(np.trace(right_gram(mats), axis1=-2, axis2=-1).real)[:, None]
    out = np.zeros((len(mats), len(t), d_out, D_out, D_out), dtype=complex)
    out[:, :, 3:3 * d + 1:3, 1:, 1:] = mats[:, None]  # slot 3j+1 holds A^j, shifted
    j, gamma, pair = _pair_slots(d, D)
    out[:, :, :, 0, 1:][:, :, 3 * pair - 1] = coeff[:, :, None, None] * mats[:, None, j, gamma]
    return out


def _stage_swap(mats: np.ndarray, t: list) -> np.ndarray:
    """Third stage: scale the previous components to zero while growing a
    unit top-corner entry and column vectors carrying the matrix columns."""
    d, D = mats.shape[-3], mats.shape[-1]
    root = np.sqrt(np.asarray(t))
    out = np.sqrt(1.0 - np.asarray(t))[:, None, None, None] * _stage_row_growth(mats, [1.0])
    # the old stage is zero on slot 1 and slots 3*pair - 1, where growth happens
    out[:, :, 0] = 0.0
    out[:, :, 0, 0, 0] = root
    j, gamma, pair = _pair_slots(d, D)
    out[:, :, 3 * pair - 2] = 0.0
    cols = np.swapaxes(mats, -1, -2)[:, j, gamma]
    out[:, :, :, 1:, 0][:, :, 3 * pair - 2] = root[:, None, None] * cols[:, None]
    return out


def _stage_fade(mats: np.ndarray, t: list) -> np.ndarray:
    """Final stage: freeze the top-corner component and fade all others."""
    out = (1.0 - np.asarray(t))[:, None, None, None] * _stage_swap(mats, [1.0])
    out[:, :, 0] = 0.0
    out[:, :, 0, 0, 0] = 1.0
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


_STAGES = (_stage_widen, _stage_row_growth, _stage_swap, _stage_fade)


def contraction_path(A, s, tols: Tolerances = DEFAULT_TOLS):
    """Evaluate the contraction of the tensor space at time ``s`` in [0, 1].

    The four stages run on the subintervals [0, 1/4], [1/4, 1/2],
    [1/2, 3/4], [3/4, 1], each reparametrized by :func:`_stage_clock`.
    ``s = 0`` is the input (zero-padded to the common output shape);
    ``s = 1`` is the fixed endpoint tensor, independent of the input.
    Every intermediate tensor stays inside the space.  ``A`` is checked by
    decomposing it unless it is a decomposition.

    ``A`` may also be a sequence of same-shape tensors or decompositions and
    ``s`` a sequence of times: the result is then the ``(N, S, d_out,
    D_out, D_out)`` array of every tensor at every time, each stage built
    once for the whole stack.  One tensor at one time is the N=1 call.
    """
    single = isinstance(A, (MpsTensor, CanonicalDecomposition))
    times = [float(x) for x in ([s] if single else s)]
    if not all(0.0 <= x <= 1.0 for x in times):
        raise ValueError("path parameter must lie in [0, 1]")
    mats = _one_shape([_decomposition(a, tols).mats for a in ([A] if single else A)])
    d_out, D_out = contraction_output_dims(mats.shape[1], mats.shape[-1])
    out = np.zeros((len(mats), len(times), d_out, D_out, D_out), dtype=complex)
    by_stage = [[], [], [], []]
    for k, x in enumerate(times):
        by_stage[(x > 0.25) + (x > 0.5) + (x > 0.75)].append(k)
    for stage, (build, ks) in enumerate(zip(_STAGES, by_stage)):
        if ks:
            vals = build(mats, [_stage_clock(4.0 * times[k] - stage) for k in ks])
            out[:, ks, : vals.shape[2], : vals.shape[3], : vals.shape[4]] = vals
    return MpsTensor(out[0, 0]) if single else out


def spectral_filter(x, t, delta) -> np.ndarray:
    """The rank-lowering filter: 0 for x <= t*delta, else sqrt(1 - t*delta/x),
    elementwise over broadcast arrays.

    At t = 0 (or delta = 0) this is the Heaviside step function.
    """
    x = np.asarray(x, dtype=float)
    cut = np.multiply(t, delta)
    keep = x > cut
    return np.where(keep, np.sqrt(1.0 - cut / np.where(keep, x, 1.0)), 0.0)


def _core_gram_eigh(K: np.ndarray):
    """Ascending eigendecomposition of the core Gram matrix ``sum_i K^{i*} K^i``
    of a core or of each core of a stack."""
    gram = left_gram(K)
    return np.linalg.eigh((gram + _dagger(gram)) / 2.0)


def _split_spectra(w: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Whether each ascending core Gram spectrum of a stack is nonsingular
    and not a multiple of the identity (a single eigenvalue never is split)."""
    lam_max, lam_min = w[..., -1], w[..., 0]
    nonsingular = lam_min > tols.eps_rank * lam_max
    return nonsingular & (lam_max - lam_min > tols.tol_distinct * lam_max)


def has_split_core_spectrum(A, tols: Tolerances = DEFAULT_TOLS):
    """True iff the core Gram matrix of a tensor (or decomposition) has at
    least two distinct nonzero eigenvalues (relative separation above
    ``tols.tol_distinct``); requires essential rank >= 2.  ``A`` may also be
    a sequence: the verdicts then come back as a list, from one stacked Gram
    ``eigh`` per core shape.  One tensor is the N=1 call."""
    single = isinstance(A, (MpsTensor, CanonicalDecomposition))
    split = _stacked([_decomposition(a, tols).K for a in ([A] if single else A)],
                     lambda K: _split_spectra(_core_gram_eigh(K)[0], tols).tolist())
    return split[0] if single else split


def _retract_core(decs: list, K: np.ndarray, t: list, w: np.ndarray,
                  V: np.ndarray, tols: Tolerances) -> np.ndarray:
    """The retracted tensors of same-shape decompositions at times ``t > 0``,
    shape ``(N, T, d, D, D)``, from their stacked cores ``K`` and core Gram
    eigendecompositions ``w, V``."""
    M = np.array([dec.M for dec in decs])
    X = np.array([dec.X for dec in decs])
    fvals = spectral_filter(w[:, None, :], np.array(t)[:, None], w[:, None, :1] * (1.0 + 1e-12))
    filt = (V[:, None] * fvals[..., None, :]) @ _dagger(V)[:, None]
    Kf = K[:, None] @ filt[:, :, None]
    S = right_gram(Kf)
    sw, sV = np.linalg.eigh((S + _dagger(S)) / 2.0)
    sw = np.clip(sw, tols.tol_norm, None)
    inv_sqrt = (sV * (1.0 / np.sqrt(sw))[..., None, :]) @ _dagger(sV)
    K_new = inv_sqrt[:, :, None] @ Kf
    M_new = M[:, None] @ filt[:, :, None]
    return _assembled(X[:, None], K_new, M_new)


def retract(A, t, tols: Tolerances = DEFAULT_TOLS):
    """Deform a tensor (or the tensor of a decomposition) toward lower essential
    rank: ``(delta, tensor)``, the filter's spectral floor and the deformed tensor.

    The deformed tensor is ``S(A,t)^{-1/2} A f(L(core))`` in block form: the
    core is multiplied by the spectral filter anchored at its smallest Gram
    eigenvalue and renormalized by the inverse square root of the resulting
    right Gram matrix.  At ``t = 0`` the input is returned; at ``t = 1`` the
    essential rank strictly drops.  Rank-1 tensors are fixed points, with
    floor 0.  Raises ``NotInOError`` when the core Gram spectrum of a tensor
    of rank >= 2 is a multiple of the identity.

    ``A`` may also be a sequence of decompositions (or tensors) of one
    ``(d, D)`` and ``t`` a sequence of times: the result is then ``(delta,
    mats)``, the ``(N,)`` floors and the ``(N, T, d, D, D)`` deformed
    tensors.  Each tensor moves at its own essential rank, with one stacked
    Gram ``eigh`` and one stacked pass for all times per rank.  A refused
    tensor raises the error of the first one in the sequence.  One tensor at
    one time is the N=1 call.
    """
    single = isinstance(A, (MpsTensor, CanonicalDecomposition))
    decs = [_decomposition(a, tols) for a in ([A] if single else A)]
    times = [float(x) for x in ([t] if single else t)]
    if not all(0.0 <= x <= 1.0 for x in times):
        raise ValueError("retraction time must lie in [0, 1]")
    out = np.repeat(_one_shape([dec.mats for dec in decs])[:, None], len(times), axis=1)
    moving, delta = [k for k, x in enumerate(times) if x > 0.0], np.zeros(len(decs))
    for chi in sorted({dec.chi for dec in decs} - {1}):
        idx = [n for n, dec in enumerate(decs) if dec.chi == chi]
        K = np.array([decs[n].K for n in idx])
        w, V = _core_gram_eigh(K)
        if not _split_spectra(w, tols).all():
            raise NotInOError(
                "core Gram spectrum is a multiple of the identity at full rank; "
                "the retraction is undefined here"
            )
        delta[idx] = w[:, 0]
        out[np.ix_(idx, moving)] = _retract_core([decs[n] for n in idx], K,
                                                 [times[k] for k in moving], w, V, tols)
    if single:
        return float(delta[0]), MpsTensor(out[0, 0])
    return delta, out
