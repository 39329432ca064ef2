"""Seeded random constructions used by the experiment runner and the tests.

All draws go through a caller-supplied ``numpy.random.Generator`` (PCG64 in
the CLI) so that identical seeds reproduce identical tensors.

The rejection samplers ``random_core``, ``random_tensor_in_e`` and
``random_split_spectrum_tensor`` also take sequences of dimensions, one entry
per case, and then draw speculatively.  Saving the generator state before
each case, they make each case's first draw, and the further draws the
caller makes in the case (``then``), with the calls of a loop of scalar
calls; test all first draws in stacked passes; and accept the cases up to
the first rejected one.  For that case they restore the saved state, run the
scalar sampler and go on after it.  The stream, every result and every
error are thus those of the loop of scalar calls.
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
    _assembled,
    _decomposition,
    _stacked,
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


# Scale of the Gaussian filler blocks of tensors in E and of gauge moves.
_FILLER_SCALE = 0.5


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return _haar(_ginibre(rng, (n, n)))


def _ginibre(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _haar(z: np.ndarray) -> np.ndarray:
    """The phase-fixed QR unitary of a complex Ginibre matrix, or of each of a stack."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_core(rng: np.random.Generator, d, chi, tols: Tolerances = DEFAULT_TOLS,
                then=None):
    """Decomposition of a right-normalized injective core of the requested
    dimensions; its ``tensor`` is the core.

    Ginibre draws are normalized and rejected until the canonical form
    confirms full rank; ``NotInEError`` after 64 rejected draws.

    ``d`` and ``chi`` may also be equal-length sequences, one entry per
    case: the result is then the list of each case's ``then(rng, dec)``
    (``dec`` itself without ``then``), ending with the ``TimpsError`` of the
    first case that raises.  ``then`` makes the caller's further draws
    within the case; they may depend only on the shape of ``dec``.
    """
    if np.ndim(d):
        return _speculate(rng, [(a, c, c) for a, c in zip(d, chi, strict=True)], then,
                          lambda g, case: random_core(g, case[0], case[2], tols), tols)
    if d < chi * chi:
        raise ValueError("injectivity needs d >= chi^2")
    for _ in range(64):
        raw = MpsTensor(_ginibre(rng, (d, chi, chi)))
        try:
            dec = canonical_decompose(right_normalize(raw, tols), tols)
            if dec.chi == chi:
                return dec
        except TimpsError:
            continue
    raise NotInEError(f"64 draws failed to give an injective normalized core (d={d}, chi={chi})")


def random_tensor_in_e(rng: np.random.Generator, d, D, chi,
                       tols: Tolerances = DEFAULT_TOLS, then=None):
    """Decomposition of a tensor assembled from a random core, a Haar bond
    basis and a Gaussian filler block.  ``d``, ``D`` and ``chi`` may also be
    sequences, as for :func:`random_core`."""
    if np.ndim(d):
        return _speculate(rng, list(zip(d, D, chi, strict=True)), then,
                          lambda g, case: random_tensor_in_e(g, *case, tols=tols), tols, 1)
    K = random_core(rng, d, chi, tols).K
    X = haar_unitary(rng, D)
    M = _FILLER_SCALE * _ginibre(rng, (d, D - chi, chi))
    return canonical_decompose(assemble(X, K, M), tols)


def random_gauge_move(rng, A, tols: Tolerances = DEFAULT_TOLS):
    """A valid gauge move for the tensor ``A`` (or the tensor of a
    decomposition ``A``): random phase, Haar bond unitary, and a filler
    supported off the core in the tensor's own block basis.  For a sequence
    ``A`` of decompositions (or tensors) and ``rng`` the sequence of their
    :func:`_move_draws`, the list of their moves, built with one stacked QR
    and filler assembly per ``(d, D, chi)``; one tensor is the N=1 call."""
    if isinstance(A, (MpsTensor, CanonicalDecomposition)):
        dec = _decomposition(A, tols)
        return random_gauge_move([_move_draws(rng, dec)], [dec], tols)[0]
    decs = [_decomposition(a, tols) for a in A]
    return _stacked([draws[0] for draws in rng], _built_moves, decs, rng)


def _move_draws(rng: np.random.Generator, dec: CanonicalDecomposition) -> tuple:
    """The draws of a gauge move for a decomposition's shape, in the order
    :func:`random_gauge_move` makes them: filler block, phase, Ginibre
    matrix of the Haar unitary."""
    return (_FILLER_SCALE * _ginibre(rng, (dec.d, dec.D - dec.chi, dec.chi)),
            rng.uniform(0.0, 2.0 * np.pi), _ginibre(rng, (dec.D, dec.D)))


def _built_moves(N: np.ndarray, decs: list, draws: list) -> list:
    """The gauge moves of same-shape decompositions from their draws, with
    ``N`` the ``(n, d, D - chi, chi)`` stack of their filler blocks."""
    X = np.array([dec.X for dec in decs])
    fillers = _assembled(X, np.zeros(N.shape[:2] + (N.shape[-1],) * 2), N)
    Z = _haar(np.array([z for _, _, z in draws]))
    return [GaugeMove(lam=np.exp(1j * phase), Z=z, filler=MpsTensor(filler))
            for (_, phase, _), z, filler in zip(draws, Z, fillers)]


def random_split_spectrum_tensor(rng: np.random.Generator, chi, D,
                                 tols: Tolerances = DEFAULT_TOLS, then=None):
    """Decomposition of a tensor of essential rank ``chi`` whose core Gram
    matrix has a split spectrum (the retraction's domain).  A draw that
    does not decompose is rejected like one outside the domain; raises
    ``NotInOError`` after 64 rejected draws.  ``chi`` and ``D`` may also be
    sequences, as for :func:`random_core`."""
    if np.ndim(chi):
        return _speculate(rng, [(c * c, b, c) for c, b in zip(chi, D, strict=True)], then,
                          lambda g, case: random_split_spectrum_tensor(g, case[2], case[1], tols),
                          tols, 2)
    d = chi * chi
    for _ in range(64):
        try:
            dec = random_tensor_in_e(rng, d, D, chi, tols=tols)
        except TimpsError:
            continue
        if has_split_core_spectrum(dec, tols):
            return dec
    raise NotInOError(f"64 draws failed to give a split core spectrum (chi={chi}, D={D})")


def _speculate(rng, cases: list, then, scalar, tols: Tolerances, depth: int = 0) -> list:
    """The loop of ``then(rng, scalar(rng, case))`` over ``(d, D, chi)``
    cases, ending with the ``TimpsError`` of the first case that raises:
    ``scalar`` is the sampler of ``depth`` (0 core, 1 tensor in E, 2 split
    spectrum).  While drawing ahead, ``then`` runs on a zero stand-in of the
    case's shape; for an accepted case it runs again, from the state saved
    before it, on the case's decomposition."""
    then = then or (lambda g, dec: dec)
    out, replay = [], np.random.Generator(type(rng.bit_generator)())
    while len(out) < len(cases):
        todo, saved, drawn = cases[len(out):], [], []
        for d, D, chi in todo:
            start, core = rng.bit_generator.state, _ginibre(rng, (d, chi, chi))
            drawn.append((core, _ginibre(rng, (D, D)), _FILLER_SCALE * _ginibre(
                rng, (d, D - chi, chi))) if depth else (core,))
            saved.append((start, rng.bit_generator.state))
            then(rng, CanonicalDecomposition(np.eye(D), np.zeros((d, chi, chi)), None, chi,
                                             None, 0.0))
        # each step of the sampler, stacked: the decompositions, by case, of the
        # candidates that pass it at their case's rank
        decs = _of_rank(dict(enumerate(right_normalize([x[0] for x in drawn], tols))), todo, tols)
        if depth:
            X = dict(zip(decs, _stacked([drawn[n][1] for n in decs], _haar)))
            decs = _of_rank({n: assemble(X[n], dec.K, drawn[n][2]) for n, dec in decs.items()},
                            todo, tols)
        if depth > 1:
            split = has_split_core_spectrum(list(decs.values()), tols)
            decs = {n: dec for (n, dec), ok in zip(decs.items(), split) if ok}
        for n, (case, (start, after)) in enumerate(zip(todo, saved)):
            try:
                if n not in decs:
                    rng.bit_generator.state = start
                    out.append(then(rng, scalar(rng, case)))
                    break
                replay.bit_generator.state = after
                out.append(then(replay, decs[n]))
            except TimpsError as exc:
                return out + [exc]
    return out


def _of_rank(tensors: dict, cases: list, tols: Tolerances) -> dict:
    """The decompositions, by case, of the ``tensors`` (by case) that are
    tensors and decompose at their case's rank."""
    keep = [n for n, A in tensors.items() if isinstance(A, MpsTensor)]
    return {n: dec for n, dec in zip(keep, canonical_decompose([tensors[n] for n in keep], tols))
            if isinstance(dec, CanonicalDecomposition) and dec.chi == cases[n][2]}


def random_observable(rng: np.random.Generator, d: int, n: int) -> WindowObservable:
    return WindowObservable([_ginibre(rng, (d, d)) for _ in range(n)])
