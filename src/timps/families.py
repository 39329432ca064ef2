"""Built-in parametrized tensor families and parameter-space meshes.

Families:

* ``psi2`` -- the projective-line family of product states over the sphere,
  evaluated through the spin-coherent identification
  ``(theta, phi) -> [cos(theta/2) : e^{-i phi} sin(theta/2)]``;
* ``pump`` -- the two-chart Chern pump over the 3-sphere (bond dimension 2 on
  the north chart, 1 on the south chart), plus its lift over the closed
  3-ball;
* ``aklt`` -- the interpolation between a product state and the AKLT point,
  with the rank-1 endpoint tensor at g = 0.

Meshes are quadrilateralized theta-phi grids on the sphere with single pole
vertices; the polar rows close the surface as degenerate quad fans so that
plaquette curvature sums to an exact multiple of 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NotNormalizedPointError, OutOfChartError
from .tensors import MpsTensor

__all__ = [
    "psi2_tensor",
    "berry_rotation",
    "PumpPoint",
    "pump_north",
    "pump_south",
    "pump_lift",
    "aklt_path",
    "MeshVertex",
    "Mesh2",
    "make_sphere_mesh",
    "SphereFamily",
    "psi2_sphere_family",
    "boundary_generator_family",
    "constant_sphere_family",
    "pump_slice_family",
    "custom_vertex_family",
    "family_from_spec",
]


# -- physical index convention for the pump: the pair (i, j) over the two
#    qubits is flattened as 1:uu, 2:ud, 3:du, 4:dd (row-major in (i, j)).


def psi2_tensor(k1: complex, k2: complex) -> MpsTensor:
    """Bond-dimension-1 tensor of the product state ``k1 |1> + k2 |2>``.

    The point must be given with unit norm.
    """
    norm = abs(k1) ** 2 + abs(k2) ** 2
    if abs(norm - 1.0) > 1e-12:
        raise NotNormalizedPointError(f"|k1|^2 + |k2|^2 = {norm!r}, expected 1")
    return MpsTensor(np.array([[[k1]], [[k2]]], dtype=complex))


def berry_rotation(theta: float, phi: float) -> np.ndarray:
    """The 2x2 rotation placing the north pole at (theta, phi)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -np.exp(-1j * phi) * s],
         [np.exp(1j * phi) * s, c]],
        dtype=complex,
    )


@dataclass(frozen=True)
class PumpPoint:
    """A point of the 3-sphere written as (w, w4) with |w|^2 + w4^2 = 1.

    The polar angles refer to the direction of w; on the polar axis (and at
    w = 0) the azimuth convention is phi = 0.
    """

    w: np.ndarray
    w4: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.shape != (3,):
            raise ValueError("w must be a 3-vector")
        resid = abs(float(w @ w) + self.w4 ** 2 - 1.0)
        if resid > 1e-12:
            raise ValueError(f"point is off the unit sphere by {resid:.3e}")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def w_norm(self) -> float:
        return float(np.linalg.norm(self.w))

    @property
    def theta(self) -> float:
        rho = math.hypot(self.w[0], self.w[1])
        if rho == 0.0 and self.w[2] == 0.0:
            return 0.0
        return math.atan2(rho, self.w[2])

    @property
    def phi(self) -> float:
        if self.w[0] == 0.0 and self.w[1] == 0.0:
            return 0.0
        return math.atan2(self.w[1], self.w[0]) % (2.0 * math.pi)

    @classmethod
    def from_angles(cls, theta: float, phi: float, w4: float) -> "PumpPoint":
        r = math.sqrt(max(0.0, 1.0 - w4 * w4))
        w = r * np.array([math.sin(theta) * math.cos(phi),
                          math.sin(theta) * math.sin(phi),
                          math.cos(theta)])
        return cls(w=w, w4=w4)

    @classmethod
    def from_ball(cls, v: Sequence[float]) -> "PumpPoint":
        """Collapse the boundary of the unit 3-ball to the south pole:
        v -> (2 sqrt(1 - |v|^2) v, 1 - 2 |v|^2)."""
        v = np.asarray(v, dtype=float)
        nv2 = float(v @ v)
        if nv2 > 1.0 + 1e-12:
            raise ValueError("ball point must have norm <= 1")
        nv2 = min(nv2, 1.0)
        return cls(w=2.0 * math.sqrt(1.0 - nv2) * v, w4=1.0 - 2.0 * nv2)


def _lambda_north(pt: PumpPoint) -> np.ndarray:
    r = pt.w_norm / math.sqrt(3.0)
    if pt.w4 >= 0.5:
        return np.array([[0.0, -math.sqrt(0.5 - r)],
                         [math.sqrt(0.5 + r), 0.0]], dtype=complex)
    return np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def _lambda_south(pt: PumpPoint) -> np.ndarray:
    r = pt.w_norm / math.sqrt(3.0)
    if pt.w4 <= -0.5:
        return np.array([[0.0, math.sqrt(0.5 + r)],
                         [-math.sqrt(0.5 - r), 0.0]], dtype=complex)
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def pump_north(pt: PumpPoint) -> MpsTensor:
    """North-chart tensor of the pump: d = 4, D = 2.

    The (i, j) matrix is ``|i><j| X L X^T`` with X the rotation at the
    point's angles.  Right-normalized for every chart point; essential rank
    2 above the overlap band, 1 on it.
    """
    if not pt.w4 > -0.5:
        raise OutOfChartError("north chart requires w4 > -1/2")
    X = berry_rotation(pt.theta, pt.phi)
    M = X @ _lambda_north(pt) @ X.T
    mats = np.zeros((4, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            mats[2 * i + j, i, :] = M[j, :]
    return MpsTensor(mats)


def pump_south(pt: PumpPoint) -> MpsTensor:
    """South-chart tensor of the pump: d = 4, D = 1, entries ``<i| X L X^T |j>``."""
    if not pt.w4 < 0.5:
        raise OutOfChartError("south chart requires w4 < 1/2")
    X = berry_rotation(pt.theta, pt.phi)
    M = X @ _lambda_south(pt) @ X.T
    mats = np.zeros((4, 1, 1), dtype=complex)
    for i in range(2):
        for j in range(2):
            mats[2 * i + j, 0, 0] = M[i, j]
    return MpsTensor(mats)


def _ball_angles(v: np.ndarray) -> tuple[float, float]:
    rho = math.hypot(v[0], v[1])
    if rho == 0.0 and v[2] == 0.0:
        return 0.0, 0.0
    theta = math.atan2(rho, v[2])
    phi = 0.0 if rho == 0.0 else math.atan2(v[1], v[0]) % (2.0 * math.pi)
    return theta, phi


def _lift_filler(theta: float, phi: float, pt: PumpPoint) -> np.ndarray:
    """Filler block of the lifted pump tensor, per (i, j) flat index."""
    out = np.zeros(4, dtype=complex)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    if pt.w4 <= -0.5:
        r = pt.w_norm / math.sqrt(3.0)
        fade = math.sqrt(0.5 + r) - math.sqrt(0.5 - r)
        out[0] = np.exp(-2j * phi) * (1.0 - cos_t) / 2.0 * fade
        out[3] = (1.0 + cos_t) / 2.0 * fade
    else:
        out[0] = np.exp(-2j * phi) * math.sin(theta / 2.0) ** 2
        out[3] = (1.0 + cos_t) / 2.0
    out[1] = out[2] = -0.5 * np.exp(-1j * phi) * sin_t
    return out


def pump_lift(v: Sequence[float], branch: str = "auto") -> MpsTensor:
    """Lift of the pump over the closed 3-ball: d = 4, D = 2, total on the
    ball, restricting on the boundary sphere to tensors in the fiber over
    the south-pole basepoint.

    Two overlapping closed forms cover the ball (``branch`` north/south);
    they agree on the annulus 1/2 < |v| < sqrt(3)/2.
    """
    v = np.asarray(v, dtype=float)
    pt = PumpPoint.from_ball(v)
    nv = float(np.linalg.norm(v))
    if branch == "auto":
        branch = "north" if nv <= 0.65 else "south"
    if branch == "north":
        if nv >= math.sqrt(3.0) / 2.0:
            raise OutOfChartError("north lift branch requires |v| < sqrt(3)/2")
        return pump_north(pt)
    if branch != "south":
        raise ValueError("branch must be auto, north, or south")
    if nv <= 0.5:
        raise OutOfChartError("south lift branch requires |v| > 1/2")
    theta, phi = _ball_angles(v)
    X = berry_rotation(theta, phi)
    core = pump_south(pt).mats[:, 0, 0]
    filler = _lift_filler(theta, phi, pt)
    mats = np.zeros((4, 2, 2), dtype=complex)
    for s in range(4):
        block = np.array([[core[s], 0.0], [filler[s], 0.0]], dtype=complex)
        mats[s] = X.conj() @ block @ X.T
    return MpsTensor(mats)


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


@dataclass(frozen=True)
class MeshVertex:
    index: int
    theta: float
    phi: float
    xyz: tuple


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
    total curvature +1.

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
    vertices: tuple
    plaquettes: np.ndarray
    cell_theta_lo: np.ndarray
    cell_phi_lo: np.ndarray
    edges: np.ndarray = field(init=False, repr=False)
    plaquette_edges: np.ndarray = field(init=False, repr=False)
    plaquette_signs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tails = self.plaquettes.reshape(-1)
        heads = np.roll(self.plaquettes, -1, axis=1).reshape(-1)
        live = np.flatnonzero(tails != heads)
        keys = (np.minimum(tails, heads) * (int(tails.max(initial=0)) + 1)
                + np.maximum(tails, heads))[live]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        edge_of_key = np.empty_like(order)
        edge_of_key[order] = np.arange(len(order))
        first_slots = live[first[order]]
        ids = np.zeros(tails.shape, dtype=np.intp)
        ids[live] = edge_of_key[inverse]
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

    def reversed(self) -> "Mesh2":
        return Mesh2(
            n_theta=self.n_theta,
            n_phi=self.n_phi,
            vertices=self.vertices,
            plaquettes=self.plaquettes[:, ::-1].copy(),
            cell_theta_lo=self.cell_theta_lo,
            cell_phi_lo=self.cell_phi_lo,
        )

    @property
    def n_plaquettes(self) -> int:
        return self.plaquettes.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


def _unit_vector(theta: float, phi: float) -> tuple:
    return (
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    )


def make_sphere_mesh(n_theta: int, n_phi: int) -> Mesh2:
    """Build the closed theta-phi quad mesh with ``n_theta * n_phi``
    plaquettes (polar rows included as cap fans)."""
    if n_theta < 4 or n_phi < 4:
        raise ValueError("mesh sizes must be at least 4 x 4")
    vertices: list[MeshVertex] = []

    def add_vertex(theta: float, phi: float) -> int:
        idx = len(vertices)
        vertices.append(MeshVertex(index=idx, theta=theta, phi=phi,
                                   xyz=_unit_vector(theta, phi)))
        return idx

    north = add_vertex(0.0, 0.0)
    rings = np.empty((n_theta - 1, n_phi), dtype=int)
    for i in range(1, n_theta):
        theta = math.pi * i / n_theta
        for j in range(n_phi):
            rings[i - 1, j] = add_vertex(theta, 2.0 * math.pi * j / n_phi)
    south = add_vertex(math.pi, 0.0)

    def vid(i: int, j: int) -> int:
        if i == 0:
            return north
        if i == n_theta:
            return south
        return int(rings[i - 1, j % n_phi])

    plaquettes = np.empty((n_theta * n_phi, 4), dtype=int)
    theta_lo = np.empty(n_theta * n_phi)
    phi_lo = np.empty(n_theta * n_phi)
    p = 0
    for i in range(n_theta):
        for j in range(n_phi):
            plaquettes[p] = (vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
            theta_lo[p] = math.pi * i / n_theta
            phi_lo[p] = 2.0 * math.pi * j / n_phi
            p += 1
    return Mesh2(
        n_theta=n_theta,
        n_phi=n_phi,
        vertices=tuple(vertices),
        plaquettes=plaquettes,
        cell_theta_lo=theta_lo,
        cell_phi_lo=phi_lo,
    )


# ---------------------------------------------------------------------------
# Mesh-evaluable families.


@dataclass(frozen=True)
class SphereFamily:
    """A family over the sphere evaluated per mesh vertex."""

    name: str
    func: Callable[[MeshVertex], MpsTensor]

    def eval_vertex(self, vertex: MeshVertex) -> MpsTensor:
        return self.func(vertex)


def psi2_sphere_family() -> SphereFamily:
    """Spin-coherent identification of the sphere with the projective line:
    (theta, phi) -> [cos(theta/2) : e^{-i phi} sin(theta/2)]."""

    def at(v: MeshVertex) -> MpsTensor:
        return psi2_tensor(math.cos(v.theta / 2.0),
                           np.exp(-1j * v.phi) * math.sin(v.theta / 2.0))

    return SphereFamily("psi2", at)


def boundary_generator_family() -> SphereFamily:
    """The boundary restriction of the pump lift: the product family of the
    projectivized first column of the conjugated rotation matrix.  It is the
    same sphere map as :func:`psi2_sphere_family` by construction."""

    def at(v: MeshVertex) -> MpsTensor:
        col = berry_rotation(v.theta, v.phi).conj()[:, 0]
        return psi2_tensor(col[0], col[1])

    return SphereFamily("pump-boundary", at)


def constant_sphere_family(A: MpsTensor, name: str = "constant") -> SphereFamily:
    return SphereFamily(name, lambda v: A)


def pump_slice_family(w4: float) -> SphereFamily:
    """The pump on a fixed-w4 slice of the 3-sphere (a 2-sphere in w).

    Uses the south chart below the overlap band's top edge and the north
    chart above it, so the essential rank is constant on the slice.
    """
    if abs(w4) >= 1.0:
        raise ValueError("slice must satisfy |w4| < 1")

    def at(v: MeshVertex) -> MpsTensor:
        pt = PumpPoint.from_angles(v.theta, v.phi, w4)
        if w4 < 0.5:
            return pump_south(pt)
        return pump_north(pt)

    return SphereFamily(f"pump-slice(w4={w4})", at)


def custom_vertex_family(tensors: Sequence[MpsTensor]) -> SphereFamily:
    """Per-vertex tensors supplied externally, indexed by mesh vertex."""
    tensors = list(tensors)

    def at(v: MeshVertex) -> MpsTensor:
        if v.index >= len(tensors):
            raise ValueError("custom family has fewer tensors than mesh vertices")
        return tensors[v.index]

    return SphereFamily("custom", at)


def family_from_spec(spec: dict) -> SphereFamily:
    """Build a mesh-evaluable family from its JSON description:
    ``{"family": "psi2"|"pump"|"aklt"|"custom", "params": {...}}``."""
    from .tensors import tensor_from_json

    if not isinstance(spec, dict) or set(spec) - {"family", "params"}:
        raise ValueError("family spec must have keys 'family' and optional 'params'")
    name = spec.get("family")
    params = spec.get("params", {}) or {}
    if not isinstance(params, dict):
        raise ValueError("params must be an object")
    if name == "psi2":
        if params:
            raise ValueError("psi2 takes no params")
        return psi2_sphere_family()
    if name == "pump":
        extra = set(params) - {"w4"}
        if extra:
            raise ValueError(f"unknown pump params: {sorted(extra)}")
        return pump_slice_family(float(params.get("w4", 0.0)))
    if name == "aklt":
        extra = set(params) - {"g"}
        if extra:
            raise ValueError(f"unknown aklt params: {sorted(extra)}")
        return constant_sphere_family(aklt_path(float(params.get("g", 0.5))), "aklt")
    if name == "custom":
        extra = set(params) - {"tensors"}
        if extra:
            raise ValueError(f"unknown custom params: {sorted(extra)}")
        tensors = [tensor_from_json(t) for t in params.get("tensors", [])]
        return custom_vertex_family(tensors)
    raise ValueError(f"unknown family {name!r}")
