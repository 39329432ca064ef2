"""Seeded random constructions used by the experiment runner and the tests.

All draws go through a caller-supplied ``numpy.random.Generator`` (PCG64 in
the CLI) so that identical seeds reproduce identical tensors.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import TimpsError
from .homotopy import has_split_core_spectrum
from .tensors import (
    GaugeMove,
    MpsTensor,
    _decomposition,
    assemble,
    canonical_decompose,
    right_normalize,
)
from .transfer import WindowObservable

__all__ = [
    "haar_unitary",
    "random_core",
    "random_tensor_in_e",
    "random_gauge_move",
    "random_split_spectrum_tensor",
    "random_observable",
]


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_core(rng: np.random.Generator, d: int, chi: int,
                tols: Tolerances = DEFAULT_TOLS) -> MpsTensor:
    """Right-normalized injective core of the requested dimensions.

    Ginibre draws are normalized and rejected until the canonical form
    confirms full rank; rejection is vanishingly rare.
    """
    if d < chi * chi:
        raise ValueError("injectivity needs d >= chi^2")
    for _ in range(64):
        raw = MpsTensor(rng.normal(size=(d, chi, chi))
                        + 1j * rng.normal(size=(d, chi, chi)))
        try:
            K = right_normalize(raw, tols.eps_rank, tols)
            if canonical_decompose(K, tols.eps_rank, tols).chi == chi:
                return K
        except TimpsError:
            continue
    raise RuntimeError("failed to draw an injective normalized core")


def random_tensor_in_e(rng: np.random.Generator, d: int, D: int, chi: int,
                       filler_scale: float = 0.5,
                       tols: Tolerances = DEFAULT_TOLS) -> MpsTensor:
    """Assembled tensor with a random core, Haar bond basis, and Gaussian
    filler block."""
    K = canonical_decompose(random_core(rng, d, chi, tols),
                            tols.eps_rank, tols).K
    X = haar_unitary(rng, D)
    M = filler_scale * (rng.normal(size=(d, D - chi, chi))
                        + 1j * rng.normal(size=(d, D - chi, chi)))
    return assemble(X, K, M)


def random_gauge_move(rng: np.random.Generator, A,
                      filler_scale: float = 0.5,
                      tols: Tolerances = DEFAULT_TOLS) -> GaugeMove:
    """A valid gauge move for the tensor ``A`` (or the tensor of a
    decomposition ``A``): random phase, Haar bond unitary, and a filler
    supported off the core in the tensor's own block basis."""
    dec = _decomposition(A, tols.eps_rank, tols)
    d, D, chi = dec.d, dec.D, dec.chi
    N = filler_scale * (rng.normal(size=(d, D - chi, chi))
                        + 1j * rng.normal(size=(d, D - chi, chi)))
    blocks = np.zeros((d, D, D), dtype=complex)
    blocks[:, chi:, :chi] = N
    filler = MpsTensor(np.einsum("ab,ibc,dc->iad", dec.X, blocks, dec.X.conj()))
    return GaugeMove(lam=np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)),
                     Z=haar_unitary(rng, D), filler=filler)


def random_split_spectrum_tensor(rng: np.random.Generator, chi: int, D: int,
                                 tols: Tolerances = DEFAULT_TOLS) -> MpsTensor:
    """A tensor of essential rank ``chi`` whose core Gram matrix has a split
    spectrum (the retraction's active domain)."""
    d = chi * chi
    for _ in range(64):
        A = random_tensor_in_e(rng, d, D, chi, tols=tols)
        if has_split_core_spectrum(A, tols.eps_rank, tols.tol_distinct, tols):
            return A
    raise RuntimeError("failed to draw a split-spectrum tensor")


def random_observable(rng: np.random.Generator, d: int, n: int) -> WindowObservable:
    factors = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
               for _ in range(n)]
    return WindowObservable(factors)
