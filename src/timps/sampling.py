"""Seeded random constructions used by the experiment runner and the tests.

All draws go through a caller-supplied ``numpy.random.Generator`` (PCG64 in
the CLI) so that identical seeds reproduce identical tensors.

The rejection samplers ``random_core``, ``random_tensor_in_e`` and
``random_split_spectrum_tensor`` have one body over a sequence of cases; one
case is the N=1 call.  A window of cases is drawn in the order of one-case
calls and tested in stacked passes.  At the first rejected case the
generator goes back to the end of the failed step, that case redraws alone,
counting toward the 64-draw limits, and full windows resume after it.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import NotInEError, NotInOError
from .homotopy import has_split_core_spectrum
from .tensors import (
    CanonicalDecomposition,
    GaugeMove,
    MpsTensor,
    _assembled,
    _decomposition,
    _stacked,
    _unrefused,
    assemble,
    canonical_decompose,
    right_normalize,
)
from .transfer import WindowObservable

__all__ = [
    "random_core",
    "random_tensor_in_e",
    "random_gauge_move",
    "random_split_spectrum_tensor",
    "random_observable",
]


# Scale of the Gaussian filler blocks of tensors in E and of gauge moves.
_FILLER_SCALE = 0.5


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
    case: the result is then the list of each case's result, ending with the
    ``TimpsError`` of the first case that raises.  With ``then``, a case's
    result is the pair ``(dec, then(rng, d, D, chi))``: ``then`` makes the
    caller's further draws within the case, once, after the case's own, and
    sees only its shape (``D = chi`` for a core); its errors propagate.
    """
    return _sample(rng, (d, chi), lambda d, chi: (d, chi, chi), then, tols, 0)


def random_tensor_in_e(rng: np.random.Generator, d, D, chi,
                       tols: Tolerances = DEFAULT_TOLS, then=None):
    """Decomposition of a tensor assembled from a random core, a Haar bond
    basis and a Gaussian filler block, or its refusal raised.  ``d``, ``D``
    and ``chi`` may also be sequences, as for :func:`random_core`."""
    return _sample(rng, (d, D, chi), lambda *case: case, then, tols, 1)


def random_gauge_move(rng, A, tols: Tolerances = DEFAULT_TOLS):
    """A valid gauge move for the tensor ``A`` (or the tensor of a
    decomposition ``A``): random phase, Haar bond unitary, and a filler
    supported off the core in the tensor's own block basis.  For a sequence
    ``A`` of decompositions (or tensors) and ``rng`` the sequence of their
    :func:`_move_draws`, the list of their moves, built with one stacked QR
    and filler assembly per ``(d, D, chi)``; one tensor is the N=1 call."""
    if isinstance(A, (MpsTensor, CanonicalDecomposition)):
        dec = _decomposition(A, tols)
        return random_gauge_move([_move_draws(rng, dec.d, dec.D, dec.chi)], [dec], tols)[0]
    decs = [_decomposition(a, tols) for a in A]
    return _stacked([draws[0] for draws in rng], _built_moves, decs, rng)


def _move_draws(rng: np.random.Generator, d: int, D: int, chi: int) -> tuple:
    """The draws of a gauge move for a decomposition of shape ``(d, D,
    chi)``, in the order :func:`random_gauge_move` makes them: filler block,
    phase, Ginibre matrix of the Haar unitary."""
    return (_FILLER_SCALE * _ginibre(rng, (d, D - chi, chi)),
            rng.uniform(0.0, 2.0 * np.pi), _ginibre(rng, (D, D)))


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
    return _sample(rng, (chi, D), lambda chi, D: (chi * chi, D, chi), then, tols, 2)


def _sample(rng, dims: tuple, case, then, tols: Tolerances, depth: int):
    """The sampler of ``depth`` (0 core, 1 tensor in E, 2 split spectrum) on
    its dimension arguments ``dims``, numbers (the N=1 call) or sequences,
    with ``case`` mapping one entry of each to its ``(d, D, chi)``."""
    single = not np.ndim(dims[0])
    cases = [case(*dim) for dim in zip(*([x] for x in dims) if single else dims, strict=True)]
    if any(d < chi * chi for d, _, chi in cases):
        raise ValueError("injectivity needs d >= chi^2")
    out, cores, tries = [], 0, 0  # the first pending case's rejected cores and failed tensors
    while len(out) < len(cases):
        # a full window, unless the first pending case was rejected: it redraws alone
        todo = cases[len(out):len(out) + (1 if cores or tries else len(cases))]
        found, step, refusal = _pass(rng, todo, then, tols, depth)
        out += found
        if found:
            cores = tries = 0
        if step is None:
            continue
        if depth == 1 and step:  # a refused tensor is the case's error
            out.append(refusal)
            break
        cores += not step
        if depth == 2 and (step or cores == 64):  # an attempt fails at its 64th core or tensor
            cores, tries = 0, tries + 1
        d, D, chi = todo[len(found)]
        if cores == 64:
            out.append(NotInEError(
                f"64 draws failed to give an injective normalized core (d={d}, chi={chi})"))
            break
        if tries == 64:
            out.append(NotInOError(
                f"64 draws failed to give a split core spectrum (chi={chi}, D={D})"))
            break
    return _unrefused(out)[0] if single else out


def _pass(rng, todo: list, then, tols: Tolerances, depth: int) -> tuple:
    """``(results, step, refusal)`` of one stacked pass over the ``(d, D,
    chi)`` cases ``todo``: the results before the first rejected case, the
    step it failed (0 core, 1 tensor; None if none did), with the generator
    back at the end of that step, and a refused tensor's error."""
    drawn, states, extras = [], [], []
    for n, (d, D, chi) in enumerate(todo):
        drawn.append([_ginibre(rng, (d, chi, chi))])
        states.append([rng.bit_generator.state])
        if depth:
            drawn[-1] += [_ginibre(rng, (D, D)), _FILLER_SCALE * _ginibre(rng, (d, D - chi, chi))]
            states[-1].append(rng.bit_generator.state)
        if then and n + 1 < len(todo):  # the last case's, once it is accepted
            extras.append(then(rng, d, D, chi))
    # each step of the sampler, stacked, on the cases before the first it rejects
    decs = _leading(canonical_decompose(_leading(right_normalize([x[0] for x in drawn], tols)),
                                        tols), lambda n, dec: dec.chi == todo[n][2])
    step, refusal = None if len(decs) == len(todo) else 0, None
    if depth:
        X = _stacked([x[1] for x in drawn[:len(decs)]], _haar)
        found = canonical_decompose([assemble(x, dec.K, y[2]) for x, dec, y in zip(X, decs, drawn)],
                                    tols)
        split = has_split_core_spectrum(_leading(found), tols) if depth > 1 else None
        tensors = _leading(found, lambda n, dec: split is None or split[n])
        if len(tensors) < len(decs):
            step, refusal = 1, found[len(tensors)]
        decs = tensors
    if step is not None:
        rng.bit_generator.state = states[len(decs)][step]
    elif then:
        extras.append(then(rng, *todo[-1]))
    return list(zip(decs, extras)) if then else decs, step, refusal


def _leading(results: list, ok=lambda n, result: True) -> list:
    """``results`` up to the first that is a refusal or fails ``ok(n, result)``."""
    for n, result in enumerate(results):
        if isinstance(result, Exception) or not ok(n, result):
            return results[:n]
    return results


def random_observable(rng: np.random.Generator, d: int, n: int) -> WindowObservable:
    return WindowObservable([_ginibre(rng, (d, d)) for _ in range(n)])
