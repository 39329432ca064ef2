"""Built-in parametrized tensor families and parameter-space meshes.

Families:

* ``psi2`` -- the projective-line family of product states over the sphere,
  evaluated through the spin-coherent identification
  ``(theta, phi) -> [cos(theta/2) : e^{-i phi} sin(theta/2)]``;
* ``pump`` -- the two-chart Chern pump over the 3-sphere (bond dimension 2 on
  the north chart, 1 on the south chart), plus its lift over the closed
  3-ball; the charts take one ``(w, w4)`` 4-vector or the rows of an
  ``(m, 4)`` array, and the lift takes ball points the same way;
* ``aklt`` -- the interpolation between a product state and the AKLT point,
  with the rank-1 endpoint tensor at g = 0.

Meshes are quadrilateralized theta-phi grids on the sphere with single pole
vertices; the polar rows close the surface as degenerate quad fans so that
plaquette curvature sums to an exact multiple of 2*pi.

A family over the sphere is a ``stack`` over arrays of angles
(:class:`SphereFamily`).  Tensors given per vertex of one mesh (``custom``)
are vertex data, a tuple of :class:`MpsTensor`: they have no values between
vertices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLS, Param, Tolerances, _is_number, checked
from .errors import NotNormalizedPointError, OutOfChartError, RankMismatchError
from .tensors import MpsTensor, _decomposition_pass, tensor_from_json

__all__ = [
    "psi2_tensor",
    "pump_north",
    "pump_south",
    "pump_lift",
    "aklt_path",
    "Mesh2",
    "make_sphere_mesh",
    "SphereFamily",
    "psi2_sphere_family",
    "boundary_generator_family",
    "constant_sphere_family",
    "pump_slice_family",
    "FAMILY_SPECS",
    "family_from_spec",
]


# -- physical index convention for the pump: the pair (i, j) over the two
#    qubits is flattened as 1:uu, 2:ud, 3:du, 4:dd (row-major in (i, j)).


def psi2_tensor(k1: complex, k2: complex) -> MpsTensor:
    """Bond-dimension-1 tensor of the product state ``k1 |1> + k2 |2>``.

    The point must be given with unit norm.
    """
    return MpsTensor(_product_states(np.array([k1]), np.array([k2]))[0])


def _product_states(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Stacked :func:`psi2_tensor`: ``(m, 2, 1, 1)`` at the points ``(k1[n], k2[n])``."""
    norm = np.abs(k1) ** 2 + np.abs(k2) ** 2
    bad = np.abs(norm - 1.0) > 1e-12
    if bad.any():
        raise NotNormalizedPointError(
            f"|k1|^2 + |k2|^2 = {float(norm[np.argmax(bad)])!r}, expected 1")
    return np.stack([k1, k2], axis=1).astype(complex)[:, :, None, None]


def _rotations(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The ``(m, 2, 2)`` rotations placing the north pole at ``(theta[n], phi[n])``."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    out = np.empty(theta.shape + (2, 2), dtype=complex)
    out[:, 0, 0] = out[:, 1, 1] = c
    out[:, 0, 1] = -np.exp(-1j * phi) * s
    out[:, 1, 0] = np.exp(1j * phi) * s
    return out


def _sq_norms(w: np.ndarray) -> np.ndarray:
    """``w[n] @ w[n]`` per row, bit-equal to ``np.linalg.norm``'s dot product."""
    return np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0]


def _check_on_sphere(w: np.ndarray, w4: np.ndarray) -> None:
    """Refuse points ``(w[n], w4[n])`` off the unit 3-sphere by more than 1e-12."""
    resid = np.abs(_sq_norms(w) + w4 ** 2 - 1.0)
    off = resid > 1e-12
    if off.any():
        raise ValueError(f"point is off the unit sphere by {resid[np.argmax(off)]:.3e}")


def _slice_points(theta: np.ndarray, phi: np.ndarray, w4: float) -> np.ndarray:
    """The ``(m, 3)`` w parts of the points ``(theta[n], phi[n])`` of the w4 slice."""
    r = math.sqrt(max(0.0, 1.0 - w4 * w4))
    sin_t = np.sin(theta)
    return r * np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)], axis=1)


def _ball_points(v: np.ndarray):
    """The parts ``(w, w4)`` of the images of the ``(m, 3)`` ball points
    ``v`` under the map that collapses the boundary of the unit 3-ball to
    the south pole: v -> (2 sqrt(1 - |v|^2) v, 1 - 2 |v|^2)."""
    nv2 = _sq_norms(v)
    if (nv2 > 1.0 + 1e-12).any():
        raise ValueError("ball point must have norm <= 1")
    nv2 = np.minimum(nv2, 1.0)
    return 2.0 * np.sqrt(1.0 - nv2)[:, None] * v, 1.0 - 2.0 * nv2


def _pump_charts(w: np.ndarray, w4: np.ndarray, north: bool) -> np.ndarray:
    """The pump's north-chart (``north``) or south-chart tensors at the
    points ``(w[n], w4[n])`` as one ``(m, 4, D, D)`` array, built from
    ``M = X L X^T`` with X the rotation at the direction of w and L the
    chart's 2x2 core."""
    if not (w4 > -0.5 if north else w4 < 0.5).all():
        raise OutOfChartError("north chart requires w4 > -1/2" if north
                              else "south chart requires w4 < 1/2")
    theta, phi = _directions(w)
    full = w4 >= 0.5 if north else w4 <= -0.5
    r = np.sqrt(_sq_norms(w[full])) / math.sqrt(3.0)
    # on the sphere |w| <= sqrt(3)/2, so r exceeds 1/2 only by rounding
    a, b = np.sqrt(0.5 + r), np.sqrt(np.maximum(0.5 - r, 0.0))
    L = np.zeros((len(w), 2, 2), dtype=complex)
    if north:
        L[full, 0, 1], L[full, 1, 0], L[~full, 1, 0] = -b, a, 1.0
    else:
        L[full, 0, 1], L[full, 1, 0], L[~full, 0, 1] = a, -b, 1.0
    X = _rotations(theta, phi)
    M = X @ L @ X.transpose(0, 2, 1)
    if not north:
        return M.reshape(-1, 4, 1, 1)
    mats = np.zeros((len(w), 4, 2, 2), dtype=complex)
    mats[:, 0:2, 0, :] = mats[:, 2:4, 1, :] = M  # the (i, j) matrix holds row j of M in row i
    return mats


def pump_north(pt):
    """North-chart tensor of the pump: d = 4, D = 2.

    The (i, j) matrix is ``|i><j| X L X^T`` with X the rotation at the
    point's angles.  Right-normalized for every chart point; essential rank
    2 above the overlap band, 1 on it.  An ``(m, 4)`` array of ``(w, w4)``
    rows gives the ``(m, 4, 2, 2)`` stack; one 4-vector ``(w, w4)`` is the
    N=1 call and gives an :class:`MpsTensor`.
    """
    return _charts_at(pt, north=True)


def pump_south(pt):
    """South-chart tensor of the pump: d = 4, D = 1, entries ``<i| X L X^T |j>``; an
    ``(m, 4)`` array of points gives the ``(m, 4, 1, 1)`` stack, as in :func:`pump_north`."""
    return _charts_at(pt, north=False)


def _point_rows(x, k: int):
    """The rows of a ``k``-vector or of an ``(m, k)`` array of points, and
    whether ``x`` was one point; any other shape is refused."""
    x = np.asarray(x, dtype=float)
    if x.shape != (k,) and (x.ndim != 2 or x.shape[1] != k):
        raise ValueError(f"points must be a {k}-vector or an (m, {k}) array, not shape {x.shape}")
    return x.reshape(-1, k), x.ndim == 1


def _charts_at(pt, north: bool):
    """:func:`_pump_charts` at the points of :func:`_point_rows`, checked on
    the sphere at once; one point gives an :class:`MpsTensor`."""
    pts, one = _point_rows(pt, 4)
    _check_on_sphere(pts[:, :3], pts[:, 3])
    mats = _pump_charts(pts[:, :3], pts[:, 3], north)
    return MpsTensor(mats[0]) if one else mats


def _directions(v: np.ndarray):
    """Polar angles and azimuths of the rows of an ``(m, 3)`` array (phi = 0 on
    the polar axis, both 0 at the origin), by ``math.hypot`` and ``math.atan2``
    over the columns: numpy's ``hypot`` and ``arctan2`` round differently."""
    x, y, z = v.T.tolist()
    rho = list(map(math.hypot, x, y))
    theta = np.fromiter(map(math.atan2, rho, z), float, len(z))
    phi = np.fromiter(map(math.atan2, y, x), float, len(z)) % (2.0 * math.pi)
    axis = np.array(rho) == 0.0
    theta[axis & (np.array(z) == 0.0)] = phi[axis] = 0.0
    return theta, phi


def pump_lift(v, branch: str = "auto"):
    """Lift of the pump over the closed 3-ball: d = 4, D = 2, total on the
    ball, restricting on the boundary sphere to tensors in the fiber over
    the south-pole basepoint.

    Two overlapping closed forms cover the ball (``branch`` north/south);
    they agree on the annulus 1/2 < |v| < sqrt(3)/2.  An ``(m, 3)`` array
    of points gives the ``(m, 4, 2, 2)`` stack of :func:`_pump_lifts`; one
    3-vector is the N=1 call.
    """
    v, one = _point_rows(v, 3)
    mats = _pump_lifts(v, branch)
    return MpsTensor(mats[0]) if one else mats


def _pump_lifts(v: np.ndarray, branch: str) -> np.ndarray:
    """Stacked :func:`pump_lift` at the ``(m, 3)`` ball points ``v`` (``auto``
    is north for |v| <= 0.65): the north chart on the north branch and, on
    the south one, ``X* [[core, 0], [filler, 0]] X^T`` with X the rotation at
    v's direction and core the south chart's entry."""
    w, w4 = _ball_points(v)
    nv = np.sqrt(_sq_norms(v))
    if branch not in ("auto", "north", "south"):
        raise ValueError("branch must be auto, north, or south")
    north = nv <= 0.65 if branch == "auto" else np.full(len(v), branch == "north")
    if (nv[north] >= math.sqrt(3.0) / 2.0).any():
        raise OutOfChartError("north lift branch requires |v| < sqrt(3)/2")
    if (nv[~north] <= 0.5).any():
        raise OutOfChartError("south lift branch requires |v| > 1/2")
    mats = np.zeros((len(v), 4, 2, 2), dtype=complex)
    if north.any():
        mats[north] = _pump_charts(w[north], w4[north], north=True)
    if north.all():
        return mats
    v, w, w4 = v[~north], w[~north], w4[~north]
    theta, phi = _directions(v)
    full, cos_t = w4 <= -0.5, np.cos(theta)
    r = np.sqrt(_sq_norms(w)) / math.sqrt(3.0)
    fade = np.where(full, np.sqrt(0.5 + r) - np.sqrt(np.maximum(0.5 - r, 0.0)), 1.0)
    # sin(theta/2)^2 by C pow, as in the scalar formula (numpy's square can differ)
    half = np.where(full, (1.0 - cos_t) / 2.0, np.float_power(np.sin(theta / 2.0), 2))
    blocks = np.zeros((len(v), 4, 2, 2), dtype=complex)
    blocks[:, :, 0, 0] = _pump_charts(w, w4, north=False).reshape(-1, 4)
    blocks[:, 0, 1, 0] = np.exp(-2j * phi) * half * fade
    blocks[:, 3, 1, 0] = (1.0 + cos_t) / 2.0 * fade
    blocks[:, 1, 1, 0] = blocks[:, 2, 1, 0] = -0.5 * np.exp(-1j * phi) * np.sin(theta)
    X = _rotations(theta, phi)[:, None]
    mats[~north] = X.conj() @ blocks @ X.transpose(0, 1, 3, 2)
    return mats


def aklt_path(g: float) -> MpsTensor:
    """Interpolation between a product state (g = 0) and the AKLT point
    (g = 1); d = 4, D = 2.

    The g = 0 endpoint is the rank-1 tensor representing the product state
    of the first physical basis vector.
    """
    if not 0.0 <= g <= 1.0:
        raise ValueError("g must lie in [0, 1]")
    if g == 0.0:
        mats = np.zeros((4, 2, 2), dtype=complex)
        mats[0, 0, 0] = 1.0
        return MpsTensor(mats)
    a = math.sqrt(1.0 - g * g)
    k1 = a * np.eye(2)
    k2 = math.sqrt(2.0 / 3.0) * np.array([[0.0, g], [0.0, 0.0]])
    k3 = math.sqrt(1.0 / 3.0) * np.array([[-g, 0.0], [0.0, g]])
    k4 = -math.sqrt(2.0 / 3.0) * np.array([[0.0, 0.0], [g, 0.0]])
    return MpsTensor(np.array([k1, k2, k3, k4], dtype=complex))


# ---------------------------------------------------------------------------
# Sphere meshes.


@dataclass(frozen=True, eq=False)
class Mesh2:
    """Oriented quadrilateralized sphere.

    Vertex rings sit at theta = i*pi/n_theta for i = 1..n_theta-1; the two
    poles are single vertices carrying the phi = 0 convention.  Plaquette
    (i, j) covers the cell [i, i+1] x [j, j+1] of the grid; the polar rows
    are degenerate quads (fans) closing the caps, so every geometric edge is
    shared by exactly two plaquettes with opposite orientation.  Corner
    order is theta-first: (i, j) -> (i+1, j) -> (i+1, j+1) -> (i, j+1),
    the outward orientation under which the spin-coherent family carries
    total curvature +1.  ``theta`` and ``phi`` hold the vertex angles as
    read-only arrays, in vertex order.

    The edge table is derived from the plaquettes.  Slot ``a`` of plaquette
    ``p`` is the side from corner ``a`` to corner ``a + 1 (mod 4)``.
    ``edges`` lists each undirected edge once, as ``(tail, head)`` in the
    direction and order of its first traversal (plaquettes in order, slots
    in order).  ``plaquette_edges[p, a]`` is the edge of that slot and
    ``plaquette_signs[p, a]`` is +1 when the slot runs along the stored
    direction, -1 against it, and 0 on a degenerate pole slot (tail ==
    head; its edge id is 0 and carries no link).
    """

    n_theta: int
    n_phi: int
    plaquettes: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    edges: np.ndarray = field(init=False, repr=False)
    plaquette_edges: np.ndarray = field(init=False, repr=False)
    plaquette_signs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tails = self.plaquettes.reshape(-1)
        heads = np.roll(self.plaquettes, -1, axis=1).reshape(-1)
        live = np.flatnonzero(tails != heads)
        keys = np.minimum(tails, heads)[live]  # built in place: few slot arrays at once
        keys *= int(tails.max(initial=0)) + 1
        keys += np.maximum(tails, heads)[live]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        del keys
        order = np.argsort(first)
        edge_of_key = np.empty_like(order)
        edge_of_key[order] = np.arange(len(order))
        first_slots = live[first[order]]
        ids = np.zeros(tails.shape, dtype=np.intp)
        ids[live] = np.take(edge_of_key, inverse, out=inverse)
        del inverse
        signs = np.zeros(tails.shape, dtype=np.int8)
        signs[live] = np.where(tails[live] == tails[first_slots][ids[live]], 1, -1)
        table = {
            "edges": np.stack([tails[first_slots], heads[first_slots]], axis=1),
            "plaquette_edges": ids.reshape(self.plaquettes.shape),
            "plaquette_signs": signs.reshape(self.plaquettes.shape),
        }
        for name, arr in table.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        self.theta.flags.writeable = False
        self.phi.flags.writeable = False

    def reversed(self) -> "Mesh2":
        return replace(self, plaquettes=self.plaquettes[:, ::-1].copy())

    @property
    def n_plaquettes(self) -> int:
        return self.plaquettes.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


def make_sphere_mesh(n_theta: int, n_phi: int) -> Mesh2:
    """Build the closed theta-phi quad mesh with ``n_theta * n_phi``
    plaquettes (polar rows included as cap fans)."""
    if n_theta < 4 or n_phi < 4:
        raise ValueError("mesh sizes must be at least 4 x 4")
    theta = np.concatenate([[0.0], np.repeat(math.pi * np.arange(1, n_theta) / n_theta, n_phi),
                            [math.pi]])
    phi = np.concatenate([[0.0], np.tile(2.0 * math.pi * np.arange(n_phi) / n_phi,
                                         n_theta - 1), [0.0]])
    ids = np.full((n_theta + 1, n_phi + 1), len(theta) - 1)  # vertex at grid point (i, j)
    ids[0] = 0
    rings = np.arange(1, len(theta) - 1).reshape(n_theta - 1, n_phi)
    ids[1:-1] = rings[:, np.arange(n_phi + 1) % n_phi]
    corners = [ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]]
    plaquettes = np.stack(corners, axis=2).reshape(-1, 4)
    return Mesh2(
        n_theta=n_theta,
        n_phi=n_phi,
        plaquettes=plaquettes,
        theta=theta,
        phi=phi,
    )


# ---------------------------------------------------------------------------
# Mesh-evaluable families.


@dataclass(frozen=True)
class SphereFamily:
    """A family over the sphere, given by ``stack``, which evaluates it at
    arrays of angles ``(theta[n], phi[n])`` as one ``(m, d, D, D)`` array."""

    stack: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def eval_vertex(self, theta: float, phi: float) -> MpsTensor:
        """The tensor at one point: the N=1 call of ``stack``."""
        return MpsTensor(self.stack(np.array([theta]), np.array([phi]))[0])


def psi2_sphere_family() -> SphereFamily:
    """Spin-coherent identification of the sphere with the projective line:
    (theta, phi) -> [cos(theta/2) : e^{-i phi} sin(theta/2)]."""

    def stack(theta, phi):
        return _product_states(np.cos(theta / 2.0), np.exp(-1j * phi) * np.sin(theta / 2.0))

    return SphereFamily(stack)


def boundary_generator_family(tols: Tolerances = DEFAULT_TOLS) -> SphereFamily:
    """The pump's pi_3 witness: the core line of :func:`pump_lift` on the
    boundary sphere |v| = 1, a sphere of tensors over the south-pole
    basepoint, as a product family.  Each lift tensor must decompose at
    essential rank 1; the line is the first vector of its bond basis."""

    def stack(theta, phi):
        found = _decomposition_pass(_pump_lifts(_slice_points(theta, phi, 0.0), "auto"), tols)
        refused = set(found.errors) | set(np.flatnonzero(found.ranks != 1).tolist())
        if refused:
            k = min(refused)
            raise found.errors.get(k) or RankMismatchError(
                f"pump lift has essential rank {found.ranks[k]} on the boundary sphere, not 1")
        return _product_states(found.X[:, 0, 0], found.X[:, 1, 0])

    return SphereFamily(stack)


def constant_sphere_family(A: MpsTensor) -> SphereFamily:
    """``A`` at every point."""
    return SphereFamily(lambda theta, phi: np.repeat(A.mats[None], len(theta), axis=0))


def pump_slice_family(w4: float) -> SphereFamily:
    """The pump on a fixed-w4 slice of the 3-sphere (a 2-sphere in w).

    Uses the south chart below the overlap band's top edge and the north
    chart above it, so the essential rank is constant on the slice.
    """
    if abs(w4) >= 1.0:
        raise ValueError("slice must satisfy |w4| < 1")

    def stack(theta, phi):
        pts = np.column_stack([_slice_points(theta, phi, w4), np.full(len(theta), w4)])
        return _charts_at(pts, north=not w4 < 0.5)

    return SphereFamily(stack)


# family name -> (builder, the Param table of its params); a spec's params
# are checked against the table, each within its builder's domain, and
# passed to the builder by key
FAMILY_SPECS = {
    "psi2": (psi2_sphere_family, ()),
    "pump": (lambda w4: pump_slice_family(float(w4)),
             (Param("w4", 0.0, float, lambda v, _: _is_number(v) and -1.0 < v < 1.0,
                    "a number with |w4| < 1"),)),
    "aklt": (lambda g: constant_sphere_family(aklt_path(float(g))),
             (Param("g", 0.5, float, lambda v, _: _is_number(v) and 0.0 <= v <= 1.0,
                    "a number in [0, 1]"),)),
    "custom": (lambda tensors: tuple(map(tensor_from_json, tensors)),
               (Param("tensors", [], json.loads, lambda v, _: isinstance(v, list), "a list"),)),
}
_SPEC = (Param("family", None, str, lambda v, _: isinstance(v, str) and v in FAMILY_SPECS,
               f"one of {', '.join(FAMILY_SPECS)}"),
         Param("params", {}, json.loads, lambda v, _: isinstance(v, dict), "an object"))


def family_from_spec(spec: dict) -> SphereFamily | tuple:
    """Build a sphere family, or vertex data for ``custom``, from its JSON
    description ``{"family": <a FAMILY_SPECS name>, "params": {...}}``."""
    spec = checked(_SPEC, spec, "family spec")
    build, schema = FAMILY_SPECS[spec["family"]]
    return build(**checked(schema, spec["params"], "family param"))
