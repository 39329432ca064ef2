"""Seeded random constructions used by the experiment runner and the tests.

All draws go through a caller-supplied ``numpy.random.Generator`` (PCG64 in
the CLI) so that identical seeds reproduce identical tensors.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import NotInEError, NotInOError, TimpsError
from .homotopy import has_split_core_spectrum
from .tensors import (
    CanonicalDecomposition,
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
                tols: Tolerances = DEFAULT_TOLS) -> CanonicalDecomposition:
    """Decomposition of a right-normalized injective core of the requested
    dimensions; its ``tensor`` is the core.

    Ginibre draws are normalized and rejected until the canonical form
    confirms full rank; ``NotInEError`` after 64 rejected draws.
    """
    if d < chi * chi:
        raise ValueError("injectivity needs d >= chi^2")
    for _ in range(64):
        raw = MpsTensor(rng.normal(size=(d, chi, chi))
                        + 1j * rng.normal(size=(d, chi, chi)))
        try:
            dec = canonical_decompose(right_normalize(raw, tols), tols)
            if dec.chi == chi:
                return dec
        except TimpsError:
            continue
    raise NotInEError(f"64 draws failed to give an injective normalized core (d={d}, chi={chi})")


def random_tensor_in_e(rng: np.random.Generator, d: int, D: int, chi: int,
                       filler_scale: float = 0.5,
                       tols: Tolerances = DEFAULT_TOLS) -> CanonicalDecomposition:
    """Decomposition of a tensor assembled from a random core, a Haar bond
    basis and a Gaussian filler block."""
    K = random_core(rng, d, chi, tols).K
    X = haar_unitary(rng, D)
    M = filler_scale * (rng.normal(size=(d, D - chi, chi))
                        + 1j * rng.normal(size=(d, D - chi, chi)))
    return canonical_decompose(assemble(X, K, M), tols)


def random_gauge_move(rng: np.random.Generator, A,
                      filler_scale: float = 0.5,
                      tols: Tolerances = DEFAULT_TOLS) -> GaugeMove:
    """A valid gauge move for the tensor ``A`` (or the tensor of a
    decomposition ``A``): random phase, Haar bond unitary, and a filler
    supported off the core in the tensor's own block basis."""
    dec = _decomposition(A, tols)
    d, D, chi = dec.d, dec.D, dec.chi
    N = filler_scale * (rng.normal(size=(d, D - chi, chi))
                        + 1j * rng.normal(size=(d, D - chi, chi)))
    return GaugeMove(lam=np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)),
                     Z=haar_unitary(rng, D),
                     filler=assemble(dec.X, np.zeros((d, chi, chi)), N))


def random_split_spectrum_tensor(rng: np.random.Generator, chi: int, D: int,
                                 tols: Tolerances = DEFAULT_TOLS) -> CanonicalDecomposition:
    """Decomposition of a tensor of essential rank ``chi`` whose core Gram
    matrix has a split spectrum (the retraction's domain).  A draw that
    does not decompose is rejected like one outside the domain; raises
    ``NotInOError`` after 64 rejected draws."""
    d = chi * chi
    for _ in range(64):
        try:
            dec = random_tensor_in_e(rng, d, D, chi, tols=tols)
        except TimpsError:
            continue
        if has_split_core_spectrum(dec, tols):
            return dec
    raise NotInOError(f"64 draws failed to give a split core spectrum (chi={chi}, D={D})")


def random_observable(rng: np.random.Generator, d: int, n: int) -> WindowObservable:
    factors = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
               for _ in range(n)]
    return WindowObservable(factors)
