"""Topological invariants of tensor families on discretized 2-cycles.

The connection is discretized on mesh edges: the link variable of a directed
edge u -> v is the unit-modulus phase of the leading eigenvalue of the mixed
core transfer map (core at u on the left).  Plaquette curvature is the
argument of the oriented product of link variables; because every geometric
edge of a closed mesh is shared by two plaquettes with opposite orientation,
the total curvature is an exact integer multiple of 2*pi up to roundoff.

Conventions: plaquettes are outward-oriented; vertex phase changes move
individual links but never a plaquette product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    DegenerateLeadingEigenvalueError,
    FlaggedPlaquetteError,
    NonIntegerTotalError,
    RankMismatchError,
    VanishingOverlapError,
)
from .families import Mesh2, make_sphere_mesh, boundary_generator_family
from .tensors import (
    MpsTensor,
    canonical_cores,
    canonical_decompose,
    mixed_transfer_spectra,
)

__all__ = [
    "OVERLAP_FLOOR",
    "BRANCH_CUT_MARGIN",
    "LinkField",
    "CurvatureField",
    "link_variable",
    "link_field",
    "curvature_report",
    "chern_number",
    "flagged_message",
    "pump_boundary_chern",
]

OVERLAP_FLOOR = 1e-8
BRANCH_CUT_MARGIN = 0.1
# Vertices or edges per stacked pass.  Larger chunks save little call
# overhead but raise peak memory: on the w4=0.7 pump slice at 128x128 the
# process peaks at 49.5 MB with chunks of 2048 and at 82 MB with the whole
# mesh in one pass.
CHUNK = 2048


def _leading_overlaps(K_u: np.ndarray, K_v: np.ndarray):
    """Leading mixed-transfer eigenvalue of each stacked edge ``u -> v`` and
    the modulus of the next one (0 when the map is 1 x 1)."""
    vals = mixed_transfer_spectra(K_u, K_v)
    mod = np.abs(vals)
    lead = np.take_along_axis(vals, mod.argmax(axis=-1)[:, None], axis=-1)[:, 0]
    if vals.shape[-1] == 1:
        return lead, np.zeros(len(vals))
    return lead, np.sort(mod, axis=-1)[:, -2]


def _unit_phase(value: complex, second: float, tols: Tolerances) -> complex:
    """Phase of a leading overlap, refusing a vanishing overlap or a
    leading eigenvalue that is not separated from the next one."""
    mod = abs(value)
    if mod < OVERLAP_FLOOR:
        raise VanishingOverlapError(
            f"leading overlap modulus {mod:.3e} below {OVERLAP_FLOOR:.1e}; "
            "states nearly orthogonal (mesh too coarse)"
        )
    if second > (1.0 - tols.tol_gap) * mod:
        raise DegenerateLeadingEigenvalueError(
            f"mixed transfer eigenvalues {mod:.6e} and {second:.6e} are within "
            f"the gap tolerance {tols.tol_gap:.1e}; the link phase is ill-defined"
        )
    return value / mod


def link_variable(
    A_u: MpsTensor,
    A_v: MpsTensor,
    eps_rank: float = DEFAULT_TOLS.eps_rank,
    tols: Tolerances = DEFAULT_TOLS,
) -> complex:
    """Unit-modulus link variable of the directed edge u -> v.

    Computed from the canonical cores of the two tensors; their essential
    ranks must agree.
    """
    dec_u = canonical_decompose(A_u, eps_rank, tols)
    dec_v = canonical_decompose(A_v, eps_rank, tols)
    if dec_u.chi != dec_v.chi:
        raise RankMismatchError(
            f"essential ranks differ along the edge: {dec_u.chi} vs {dec_v.chi}"
        )
    if dec_u.d != dec_v.d:
        raise ValueError("cores must share the physical dimension")
    lead, second = _leading_overlaps(dec_u.K[None], dec_v.K[None])
    return _unit_phase(lead[0], second[0], tols)


@dataclass(frozen=True, eq=False)
class LinkField:
    """Link variables on the undirected edges of a mesh: ``values[k]`` is
    the link of the directed edge ``edges[k] = (u, v)``, and the reverse
    direction is its complex conjugate, exactly."""

    edges: np.ndarray
    values: np.ndarray

    def link(self, u: int, v: int) -> complex:
        if u == v:
            return 1.0 + 0.0j
        tails, heads = self.edges[:, 0], self.edges[:, 1]
        hit = np.flatnonzero((tails == u) & (heads == v))
        if hit.size:
            return self.values[hit[0]]
        hit = np.flatnonzero((tails == v) & (heads == u))
        if hit.size:
            return np.conj(self.values[hit[0]])
        raise KeyError((u, v))


@dataclass(frozen=True, eq=False)
class CurvatureField:
    """Per-plaquette curvature in (-pi, pi] plus the 2*pi-normalized total.

    ``flagged`` lists plaquettes whose curvature sits within the branch-cut
    margin of +-pi; an integer total is only trustworthy without flags.
    """

    plaquette_ids: np.ndarray
    theta_lo: np.ndarray
    phi_lo: np.ndarray
    curvature: np.ndarray
    total: float
    flagged: tuple

    @property
    def total_flux(self) -> float:
        return float(self.curvature.sum())


def _vertex_core(A: MpsTensor, vertex, chi, eps_rank, tols) -> np.ndarray:
    """Core of one vertex tensor; its essential rank must be ``chi``, the
    rank at vertex 0 (any rank when ``chi`` is None)."""
    dec = canonical_decompose(A, eps_rank, tols)
    if chi is not None and dec.chi != chi:
        raise RankMismatchError(
            f"family does not have constant essential rank on the mesh: "
            f"{chi} vs {dec.chi} at vertex {vertex.index}"
        )
    return dec.K


def _chunk_cores(tensors, vertices, chi, eps_rank, tols) -> np.ndarray:
    """Cores of consecutive vertex tensors as one ``(m, d, chi, chi)`` array,
    zero-padded to the largest ``d``.

    Tensors of one shape go through the stacked pass; any it refuses, and
    every tensor of a mixed-shape run, are decomposed again one by one in
    order, so the error raised is the one of the first failing vertex.
    """
    shape = tensors[0].mats.shape
    if all(t.mats.shape == shape for t in tensors):
        mats = np.empty((len(tensors),) + shape, dtype=complex)
        for k, t in enumerate(tensors):
            mats[k] = t.mats
        K, ok = canonical_cores(mats, chi, eps_rank, tols)
        redo = np.flatnonzero(~ok)
    else:
        K = np.zeros((len(tensors), max(t.d for t in tensors), chi, chi), dtype=complex)
        redo = range(len(tensors))
    for k in redo:
        core = _vertex_core(tensors[k], vertices[k], chi, eps_rank, tols)
        K[k] = 0.0
        K[k, : core.shape[0]] = core
    return K


def _vertex_cores(family, mesh: Mesh2, eps_rank, tols):
    """Cores of the family at every mesh vertex as an ``(n, d, chi, chi)``
    array, zero-padded to the largest ``d``, plus each vertex's ``d``.

    Vertices go in chunks of at most ``CHUNK``.  The error raised is the one
    a per-vertex loop (evaluate, decompose, compare the rank with vertex
    0's) would raise first.
    """
    n = len(mesh.vertices)
    cores, dims = None, np.zeros(n, dtype=np.intp)

    def store(start, tensors, vertices):
        nonlocal cores
        if cores is None:
            chi = _vertex_core(tensors[0], vertices[0], None, eps_rank, tols).shape[-1]
            cores = np.zeros((n, tensors[0].d, chi, chi), dtype=complex)
        K = _chunk_cores(tensors, vertices, cores.shape[-1], eps_rank, tols)
        if K.shape[1] > cores.shape[1]:
            cores = np.pad(cores, ((0, 0), (0, K.shape[1] - cores.shape[1]), (0, 0), (0, 0)))
        cores[start:start + len(K), : K.shape[1]] = K
        dims[start:start + len(K)] = [t.d for t in tensors]

    for start in range(0, n, CHUNK):
        vertices = mesh.vertices[start:start + CHUNK]
        tensors = []
        try:
            for vertex in vertices:
                tensors.append(family.eval_vertex(vertex))
        except Exception:
            # The vertices evaluated before the failing one are decomposed
            # first: their errors take precedence, as in a per-vertex loop.
            if tensors:
                store(start, tensors, vertices)
            raise
        store(start, tensors, vertices)
    return cores, dims


def link_field(
    family,
    mesh: Mesh2,
    eps_rank: float = DEFAULT_TOLS.eps_rank,
    tols: Tolerances = DEFAULT_TOLS,
) -> LinkField:
    """Evaluate the family once per vertex and the link variable once per
    undirected edge of the mesh's edge table, in chunks of at most
    ``CHUNK`` edges.

    A failure raises the error of the first failing vertex or, when every
    vertex passed, of the first failing edge in edge-table order.
    """
    cores, dims = _vertex_cores(family, mesh, eps_rank, tols)
    values = np.empty(mesh.n_edges, dtype=complex)
    for start in range(0, mesh.n_edges, CHUNK):
        u, v = mesh.edges[start:start + CHUNK].T
        lead, second = _leading_overlaps(cores[u], cores[v])
        mod = np.abs(lead)
        refused = ((dims[u] != dims[v]) | (mod < OVERLAP_FLOOR)
                   | (second > (1.0 - tols.tol_gap) * mod))
        if refused.any():
            e = int(np.argmax(refused))
            if dims[u[e]] != dims[v[e]]:
                raise ValueError("cores must share the physical dimension")
            _unit_phase(lead[e], second[e], tols)
        values[start:start + len(lead)] = lead / mod
    return LinkField(edges=mesh.edges, values=values)


def curvature_report(
    family,
    mesh: Mesh2,
    eps_rank: float = DEFAULT_TOLS.eps_rank,
    tols: Tolerances = DEFAULT_TOLS,
) -> CurvatureField:
    """Plaquette-resolved curvature of the family's connection on the mesh.

    The holonomy of a plaquette is the product of its slot links in corner
    order: the stored link along an edge's direction, its conjugate against
    it, and 1 on a degenerate pole slot.
    """
    field = link_field(family, mesh, eps_rank, tols)
    signs = mesh.plaquette_signs
    factors = field.values[mesh.plaquette_edges]
    factors = np.where(signs > 0, factors, np.where(signs < 0, factors.conj(), 1.0))
    curvature = np.angle(np.prod(factors, axis=1))
    flagged = np.flatnonzero(np.abs(curvature) > np.pi - BRANCH_CUT_MARGIN)
    total = float(curvature.sum() / (2.0 * np.pi))
    return CurvatureField(
        plaquette_ids=np.arange(mesh.n_plaquettes),
        theta_lo=mesh.cell_theta_lo,
        phi_lo=mesh.cell_phi_lo,
        curvature=curvature,
        total=total,
        flagged=tuple(flagged.tolist()),
    )


def flagged_message(flagged) -> str:
    """Failure text naming the plaquettes flagged near the branch cut."""
    return (f"{len(flagged)} plaquette(s) within {BRANCH_CUT_MARGIN} of +-pi "
            f"(mesh too coarse): {list(flagged)}")


def chern_number(
    family,
    mesh: Mesh2,
    eps_rank: float = DEFAULT_TOLS.eps_rank,
    tols: Tolerances = DEFAULT_TOLS,
    residual_cap: float = 1e-3,
) -> int:
    """Total plaquette curvature divided by 2*pi, rounded to the nearest
    integer; the rounding residual must stay below ``residual_cap`` and no
    plaquette may sit within ``BRANCH_CUT_MARGIN`` of +-pi."""
    report = curvature_report(family, mesh, eps_rank, tols)
    if report.flagged:
        raise FlaggedPlaquetteError(flagged_message(report.flagged))
    nearest = round(report.total)
    residual = abs(report.total - nearest)
    if residual >= residual_cap:
        raise NonIntegerTotalError(
            f"total curvature {report.total!r} is {residual:.3e} from an "
            "integer (mesh too coarse or a rank jump crossed the cycle)"
        )
    return int(nearest)


def pump_boundary_chern(
    n_theta: int,
    n_phi: int,
    eps_rank: float = DEFAULT_TOLS.eps_rank,
    tols: Tolerances = DEFAULT_TOLS,
) -> int:
    """Chern number of the pump's boundary family on the 2-sphere.

    This is the connecting-map witness of the pump's 3-sphere invariant: the
    boundary of the ball lift is the product family of the projectivized
    first rotation column, and its plaquette total must be the generator
    value +1 with the outward orientation convention.
    """
    if n_theta < 8 or n_phi < 8:
        raise ValueError("boundary mesh must be at least 8 x 8")
    mesh = make_sphere_mesh(n_theta, n_phi)
    return chern_number(boundary_generator_family(), mesh, eps_rank, tols)
