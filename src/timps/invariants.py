"""Topological invariants of tensor families on discretized 2-cycles.

The connection is discretized on mesh edges: the link variable of a directed
edge u -> v is the unit-modulus phase of the leading eigenvalue of the mixed
core transfer map (core at u on the left), from :func:`tensors.mixed_transfer_leading`,
the one kernel that also gives the fidelities per site.  Plaquette curvature is the
argument of the oriented product of link variables; because every geometric
edge of a closed mesh is shared by two plaquettes with opposite orientation,
the total curvature is an exact integer multiple of 2*pi up to roundoff.

The mesh functions take a :class:`SphereFamily` or vertex data (a tuple of tensors).

Conventions: plaquettes are outward-oriented; vertex phase changes move
individual links but never a plaquette product.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    DegenerateLeadingEigenvalueError,
    FlaggedPlaquetteError,
    NonIntegerTotalError,
    RankMismatchError,
    VanishingOverlapError,
)
from .families import Mesh2, SphereFamily
from .tensors import (
    OVERLAP_FLOOR,
    MpsTensor,
    _decomposition_pass,
    _degenerate,
    _shape_groups,
    _unrefused,
    canonical_decompose,
    mixed_transfer_leading,
)

__all__ = [
    "OVERLAP_FLOOR",
    "BRANCH_CUT_MARGIN",
    "RESIDUAL_CAP",
    "link_variable",
    "link_field",
    "curvature_report",
    "chern_number",
    "chern_verdict",
]

BRANCH_CUT_MARGIN = 0.1
# Largest distance of a Chern total from the nearest integer that still
# counts as that integer.
RESIDUAL_CAP = 1e-3
# Vertices, edges or plaquettes per stacked pass.  Larger chunks save little
# call overhead but raise peak memory: `chern` on the w4=0.7 pump slice at
# 128x128 peaks at 39.4 MB with chunks of 1024, 41.1 MB with 2048 and 90.2 MB
# with the whole mesh in one pass (2-CPU VM, numpy 2.4, windowed links).
CHUNK = 1024


def _edge_links(K_u: np.ndarray, K_v: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Link variables of stacked edges ``u -> v``: the phases of the leading
    eigenvalues of :func:`tensors.mixed_transfer_leading`.  An edge whose
    leading overlap vanishes, or whose leading eigenvalue is not separated
    from the next one, is refused, and the error raised is that of the first
    refused edge, with its position in the stack as ``edge``.  The kernel's
    bound is the exact second modulus wherever the refusals could apply: a
    proven lead is gapped and above twice the floor."""
    lead, second = mixed_transfer_leading(K_u, K_v, tols)
    mod = np.abs(lead)
    vanishing = mod < OVERLAP_FLOOR
    refused = vanishing | _degenerate(np.stack([lead, second], axis=-1), tols)
    if refused.any():
        e = int(np.argmax(refused))
        error = VanishingOverlapError(
            f"leading overlap modulus {mod[e]:.3e} below {OVERLAP_FLOOR:.1e}; "
            "states nearly orthogonal (mesh too coarse)"
        ) if vanishing[e] else DegenerateLeadingEigenvalueError(
            f"mixed transfer eigenvalues {mod[e]:.6e} and {second[e]:.6e} are within "
            f"the gap tolerance {tols.tol_gap:.1e}; the link phase is ill-defined"
        )
        error.edge = e
        raise error
    return lead / mod


def link_variable(A_u: MpsTensor, A_v: MpsTensor, tols: Tolerances = DEFAULT_TOLS) -> complex:
    """Unit-modulus link variable of the directed edge u -> v: the N=1 call
    of the mesh links.

    Computed from the canonical cores of the two tensors, decomposed in one
    pass; their essential ranks must agree.
    """
    dec_u, dec_v = _unrefused(canonical_decompose([A_u, A_v], tols))
    if dec_u.chi != dec_v.chi:
        raise RankMismatchError(
            f"essential ranks differ along the edge: {dec_u.chi} vs {dec_v.chi}"
        )
    return _edge_links(dec_u.K[None], dec_v.K[None], tols)[0]


def _chunk_tensors(family, mesh: Mesh2, chunk: slice):
    """The tensors on a chunk of vertices, and None: vertex data's as given, a
    family's from one stack call.  If the stack refuses the chunk (raises, or
    gives a non-finite entry): the tensors :meth:`SphereFamily.eval_vertex`
    gives up to the first failing vertex, and that vertex's error."""
    if not isinstance(family, SphereFamily):
        return [t.mats for t in family[chunk]], None
    try:
        mats = family.stack(mesh.theta[chunk], mesh.phi[chunk])
        if np.isfinite(mats).all():
            return mats, None
    except Exception:
        pass  # redone below, which finds the failing vertex
    tensors = []
    try:
        for theta, phi in zip(mesh.theta[chunk].tolist(), mesh.phi[chunk].tolist()):
            tensors.append(family.eval_vertex(theta, phi).mats)
    except Exception as exc:
        return tensors, exc
    return tensors, None


def _vertex_cores(family, mesh: Mesh2, size: int, tols):
    """Decompose the mesh vertices in chunks of at most ``CHUNK``, in order, one
    pass per tensor shape, into a window of ``size`` slots, and yield ``(window,
    dims)`` after each chunk: slot ``x % size`` holds vertex ``x``'s ``(d, chi,
    chi)`` core, zero-padded to the largest ``d`` yet, and ``dims`` its ``d``.
    Vertex data must hold one tensor per vertex.  The error raised is the first
    one a per-vertex loop (evaluate, decompose, compare ranks with vertex 0) raises."""
    n, window, dims = len(mesh.theta), None, np.empty(size, dtype=np.intp)
    if not isinstance(family, SphereFamily) and len(family) != n:
        raise ValueError(f"family custom has {len(family)} tensors, but mesh "
                         f"{mesh.n_theta}x{mesh.n_phi} has {n} vertices")
    for start in range(0, n, CHUNK):
        tensors, error = _chunk_tensors(family, mesh, slice(start, start + CHUNK))
        if not len(tensors):
            raise error  # the chunk's first vertex failed to evaluate
        passes = [(idx, _decomposition_pass(mats, tols)) for idx, mats in (
            [(np.arange(len(tensors)), tensors)] if isinstance(tensors, np.ndarray)
            else _shape_groups(tensors))]
        ranks, errors = np.empty(len(tensors), dtype=np.intp), {}
        for idx, found in passes:
            ranks[idx] = found.ranks
            errors.update((int(idx[j]), e) for j, e in found.errors.items())
        chi = int(ranks[0]) if window is None else window.shape[-1]
        failed = list(errors) + np.flatnonzero(ranks != chi).tolist()
        if failed:
            j = min(failed)
            raise errors.get(j) or RankMismatchError(
                f"family does not have constant essential rank on the mesh: "
                f"{chi} vs {ranks[j]} at vertex {start + j}")
        for idx, found in passes:
            K, slots = found.B[:, :, :chi, :chi], (start + idx) % size
            if window is None:
                window = np.zeros((size,) + K.shape[1:], dtype=complex)
            elif K.shape[1] > window.shape[1]:
                window = np.pad(window, ((0, 0), (0, K.shape[1] - window.shape[1]), (0, 0), (0, 0)))
            window[slots, :K.shape[1]] = K
            window[slots, K.shape[1]:] = 0.0
            dims[slots] = K.shape[1]
        if error is not None:
            raise error  # after the vertices before it, as in a per-vertex loop
        del tensors, passes, found, K  # the chunk's arrays, before the next chunk's
        yield window, dims


def link_field(family, mesh: Mesh2, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Decompose the family (or vertex data) once per vertex and return the
    ``(n_edges,)`` links of the mesh's edge table: entry ``k`` is the link of
    the directed edge ``mesh.edges[k]``, whose reverse is its exact conjugate.

    Vertices go in chunks of at most ``CHUNK``, in order.  After each chunk
    come the links of the edges whose later endpoint lies in it, at most
    ``CHUNK`` at a time, in table order, from a window of the cores of the
    last ``bandwidth + CHUNK`` vertices (the bandwidth is the table's largest
    ``|u - v|``).  A sphere mesh has bandwidth ``n_phi`` and its table is
    sorted by later endpoint; a mesh whose bandwidth spans its vertices holds
    every core.  A failure raises the error of the first failing vertex or,
    when every vertex passed, of the first failing edge in edge-table order.
    """
    n, (u, v) = len(mesh.theta), mesh.edges.T
    size = min(n, int(np.abs(u - v).max(initial=0)) + CHUNK)
    block = np.maximum(u, v) // CHUNK  # the vertex chunk of the later endpoint
    order = np.argsort(block, kind="stable")  # table order within a chunk
    chunks = np.split(order, np.searchsorted(block, range(1, -(-n // CHUNK)), sorter=order))
    del block
    values, refusals = np.empty(mesh.n_edges, dtype=complex), []
    for chunk, (window, dims) in zip(chunks, _vertex_cores(family, mesh, size, tols)):
        for e in np.split(chunk, range(CHUNK, len(chunk), CHUNK)):
            su, sv = mesh.edges[e].T % size
            same = dims[su] == dims[sv]
            m = len(e) if same.all() else int(np.argmin(same))
            try:
                values[e[:m]] = _edge_links(window[su[:m]], window[sv[:m]], tols)
            except (VanishingOverlapError, DegenerateLeadingEigenvalueError) as exc:
                refusals.append((e[exc.edge], exc))
            if m < len(e):
                refusals.append((e[m], ValueError("cores must share the physical dimension")))
    if refusals:
        raise min(refusals, key=lambda r: r[0])[1]
    return values


def curvature_report(family, mesh: Mesh2, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """The ``(n_plaquettes,)`` curvature in (-pi, pi] of the family's connection on
    each plaquette of the mesh, in plaquette order; :func:`chern_verdict` judges it.

    The holonomy of a plaquette is the product of its slot links in corner
    order: the stored link along an edge's direction, its conjugate against
    it, and 1 on a degenerate pole slot; ``CHUNK`` plaquettes at a time.
    """
    links = link_field(family, mesh, tols)
    curvature = np.empty(mesh.n_plaquettes)
    for start in range(0, mesh.n_plaquettes, CHUNK):
        rows = slice(start, start + CHUNK)
        signs, factors = mesh.plaquette_signs[rows], links[mesh.plaquette_edges[rows]]
        factors = np.where(signs > 0, factors, np.where(signs < 0, factors.conj(), 1.0))
        curvature[rows] = np.angle(np.prod(factors, axis=1))
    return curvature


def chern_verdict(curvature: np.ndarray):
    """``(nearest, residual, flagged, errors)`` of plaquette curvatures: the
    integer nearest their total over 2*pi, its distance from it, the list of
    plaquettes within ``BRANCH_CUT_MARGIN`` of +-pi (an integer total is only
    trustworthy without them), and the refusals that apply, residual first."""
    total = float(curvature.sum() / (2.0 * np.pi))
    nearest = int(round(total))
    residual = abs(total - nearest)
    flagged = np.flatnonzero(np.abs(curvature) > np.pi - BRANCH_CUT_MARGIN).tolist()
    errors = []
    if residual >= RESIDUAL_CAP:
        errors.append(NonIntegerTotalError(
            f"total curvature {total!r} has residual {residual:.3e}"))
    if flagged:
        errors.append(FlaggedPlaquetteError(
            f"{len(flagged)} plaquette(s) within {BRANCH_CUT_MARGIN} of +-pi "
            f"(mesh too coarse): {flagged}"))
    return nearest, residual, flagged, errors


def chern_number(family, mesh: Mesh2, tols: Tolerances = DEFAULT_TOLS) -> int:
    """Total plaquette curvature divided by 2*pi, rounded to the nearest
    integer; the rounding residual must stay below ``RESIDUAL_CAP`` and no
    plaquette may sit within ``BRANCH_CUT_MARGIN`` of +-pi."""
    nearest, _, _, errors = chern_verdict(curvature_report(family, mesh, tols))
    if errors:
        raise errors[0]
    return nearest
