"""The stacked family evaluators and the vectorized mesh against the
per-vertex code they replace.

The oracles below are the earlier per-vertex implementations: the scalar
angle, rotation, product-state, pump-chart and pump-lift formulas, the per-vertex
closures of the psi2 and pump-slice families, the boundary generator
derived one vertex at a time, and the double loop that built the sphere
mesh.  The stacked code must reproduce them bit for bit, and a chunk the
stacked evaluator refuses must raise what the per-vertex loop raises.
"""

import math
from collections import namedtuple

import numpy as np
import pytest

from timps import cli, families, invariants
from timps.config import DEFAULT_TOLS
from timps.errors import NotInEError, NotNormalizedPointError, OutOfChartError, RankMismatchError
from timps.families import (
    Mesh2,
    SphereFamily,
    _directions,
    _product_states,
    _pump_charts,
    _pump_lifts,
    _slice_points,
    boundary_generator_family,
    make_sphere_mesh,
    psi2_sphere_family,
    pump_lift,
    pump_north,
    pump_slice_family,
    pump_south,
)
from timps.invariants import chern_number, chern_verdict, curvature_report
from timps.tensors import MpsTensor, _decomposition_pass, canonical_decompose


# a point (w, w4) of the 3-sphere, as the scalar oracles read it
Point = namedtuple("Point", "w w4")


def vector(pt):
    """The 4-vector ``(w, w4)`` the pump's charts take for a :data:`Point`."""
    return np.append(pt.w, pt.w4)


def oracle_angles(v):
    rho = math.hypot(v[0], v[1])
    if rho == 0.0 and v[2] == 0.0:
        return 0.0, 0.0
    theta = math.atan2(rho, v[2])
    phi = 0.0 if rho == 0.0 else math.atan2(v[1], v[0]) % (2.0 * math.pi)
    return theta, phi


def oracle_berry_rotation(theta, phi):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -np.exp(-1j * phi) * s],
         [np.exp(1j * phi) * s, c]],
        dtype=complex,
    )


def oracle_psi2_tensor(k1, k2):
    norm = abs(k1) ** 2 + abs(k2) ** 2
    if abs(norm - 1.0) > 1e-12:
        raise NotNormalizedPointError(f"|k1|^2 + |k2|^2 = {norm!r}, expected 1")
    return MpsTensor(np.array([[[k1]], [[k2]]], dtype=complex))


def oracle_lambda(pt, north):
    r = float(np.linalg.norm(pt.w)) / math.sqrt(3.0)
    # at |w4| = 1/2 the rounded |w| can put r just above 1/2
    b = math.sqrt(max(0.5 - r, 0.0))
    if north:
        if pt.w4 >= 0.5:
            return np.array([[0.0, -b], [math.sqrt(0.5 + r), 0.0]], dtype=complex)
        return np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    if pt.w4 <= -0.5:
        return np.array([[0.0, math.sqrt(0.5 + r)], [-b, 0.0]], dtype=complex)
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def oracle_pump_north(pt):
    if not pt.w4 > -0.5:
        raise OutOfChartError("north chart requires w4 > -1/2")
    X = oracle_berry_rotation(*oracle_angles(pt.w))
    M = X @ oracle_lambda(pt, True) @ X.T
    mats = np.zeros((4, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            mats[2 * i + j, i, :] = M[j, :]
    return MpsTensor(mats)


def oracle_pump_south(pt):
    if not pt.w4 < 0.5:
        raise OutOfChartError("south chart requires w4 < 1/2")
    X = oracle_berry_rotation(*oracle_angles(pt.w))
    M = X @ oracle_lambda(pt, False) @ X.T
    mats = np.zeros((4, 1, 1), dtype=complex)
    for i in range(2):
        for j in range(2):
            mats[2 * i + j, 0, 0] = M[i, j]
    return MpsTensor(mats)


def oracle_from_angles(theta, phi, w4):
    r = math.sqrt(max(0.0, 1.0 - w4 * w4))
    w = r * np.array([math.sin(theta) * math.cos(phi),
                      math.sin(theta) * math.sin(phi),
                      math.cos(theta)])
    return Point(w, w4)


def oracle_psi2_at(theta, phi):
    return oracle_psi2_tensor(math.cos(theta / 2.0),
                              np.exp(-1j * phi) * math.sin(theta / 2.0))


def oracle_from_ball(v):
    v = np.asarray(v, dtype=float)
    nv2 = float(v @ v)
    if nv2 > 1.0 + 1e-12:
        raise ValueError("ball point must have norm <= 1")
    nv2 = min(nv2, 1.0)
    return Point(2.0 * math.sqrt(1.0 - nv2) * v, 1.0 - 2.0 * nv2)


def oracle_lift_filler(theta, phi, pt):
    out = np.zeros(4, dtype=complex)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    if pt.w4 <= -0.5:
        r = float(np.linalg.norm(pt.w)) / math.sqrt(3.0)
        fade = math.sqrt(0.5 + r) - math.sqrt(0.5 - r)
        out[0] = np.exp(-2j * phi) * (1.0 - cos_t) / 2.0 * fade
        out[3] = (1.0 + cos_t) / 2.0 * fade
    else:
        out[0] = np.exp(-2j * phi) * math.sin(theta / 2.0) ** 2
        out[3] = (1.0 + cos_t) / 2.0
    out[1] = out[2] = -0.5 * np.exp(-1j * phi) * sin_t
    return out


def oracle_pump_lift(v, branch="auto"):
    v = np.asarray(v, dtype=float)
    pt = oracle_from_ball(v)
    nv = float(np.linalg.norm(v))
    if branch == "auto":
        branch = "north" if nv <= 0.65 else "south"
    if branch == "north":
        if nv >= math.sqrt(3.0) / 2.0:
            raise OutOfChartError("north lift branch requires |v| < sqrt(3)/2")
        return oracle_pump_north(pt)
    if branch != "south":
        raise ValueError("branch must be auto, north, or south")
    if nv <= 0.5:
        raise OutOfChartError("south lift branch requires |v| > 1/2")
    theta, phi = oracle_angles(v)
    X = oracle_berry_rotation(theta, phi)
    core = oracle_pump_south(pt).mats[:, 0, 0]
    filler = oracle_lift_filler(theta, phi, pt)
    mats = np.zeros((4, 2, 2), dtype=complex)
    for s in range(4):
        block = np.array([[core[s], 0.0], [filler[s], 0.0]], dtype=complex)
        mats[s] = X.conj() @ block @ X.T
    return MpsTensor(mats)


def oracle_boundary_at(theta, phi):
    """The closed form the boundary generator had: the projectivized first
    column of the conjugated rotation at the vertex."""
    col = oracle_berry_rotation(theta, phi).conj()[:, 0]
    return oracle_psi2_tensor(col[0], col[1])


def derived_boundary_at(theta, phi):
    """The boundary generator derived at one vertex: the lift at the unit
    vector, its N=1 decomposition, and the first bond basis vector."""
    X = canonical_decompose(oracle_pump_lift(oracle_from_angles(theta, phi, 0.0).w)).X
    return oracle_psi2_tensor(X[0, 0], X[1, 0])


def oracle_pump_slice_at(w4):
    def at(theta, phi):
        pt = oracle_from_angles(theta, phi, w4)
        return oracle_pump_south(pt) if w4 < 0.5 else oracle_pump_north(pt)

    return at


def oracle_sphere_mesh(n_theta, n_phi):
    """The vertex and plaquette double loop of the earlier mesh builder:
    the mesh, its ``(index, theta, phi)`` vertex tuple and the lower cell
    angles ``(theta_lo, phi_lo)`` of its plaquettes."""
    vertices = []

    def add_vertex(theta, phi):
        vertices.append((len(vertices), theta, phi))
        return len(vertices) - 1

    north = add_vertex(0.0, 0.0)
    rings = np.empty((n_theta - 1, n_phi), dtype=int)
    for i in range(1, n_theta):
        theta = math.pi * i / n_theta
        for j in range(n_phi):
            rings[i - 1, j] = add_vertex(theta, 2.0 * math.pi * j / n_phi)
    south = add_vertex(math.pi, 0.0)

    def vid(i, j):
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
    mesh = Mesh2(
        n_theta=n_theta,
        n_phi=n_phi,
        plaquettes=plaquettes,
        theta=np.array([theta for _, theta, _ in vertices]),
        phi=np.array([phi for _, _, phi in vertices]),
    )
    return mesh, tuple(vertices), (theta_lo, phi_lo)


def bits(a):
    """Exact content of an array: dtype, shape and bytes (signed zeros count)."""
    a = np.ascontiguousarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def point_by_point(at):
    """A family whose stack calls the oracle ``at(theta, phi)`` point by point."""
    return SphereFamily(lambda theta, phi: np.array(
        [at(t, p).mats for t, p in zip(theta.tolist(), phi.tolist())]))


def outcome(fn):
    """``("ok", bits of the result)`` or ``("raised", type, message)``."""
    try:
        return ("ok",) + bits(fn())
    except Exception as exc:
        return "raised", type(exc), str(exc)


def vertex_bits(index, theta, phi):
    return index, float(theta).hex(), float(phi).hex()


def mesh_vertices(mesh):
    """The vertex angles of a mesh as ``(theta, phi)`` pairs, in vertex order."""
    return list(zip(mesh.theta.tolist(), mesh.phi.tolist()))


@pytest.mark.parametrize("shape", [(4, 4), (4, 9), (9, 4), (16, 16), (33, 17)])
def test_mesh_matches_the_loop_oracle(shape):
    mesh = make_sphere_mesh(*shape)
    ref, vertices, cells = oracle_sphere_mesh(*shape)
    assert [vertex_bits(k, *v) for k, v in enumerate(mesh_vertices(mesh))] == [
        vertex_bits(*v) for v in vertices]
    for name in ["plaquettes", "theta", "phi", "edges", "plaquette_edges", "plaquette_signs"]:
        assert bits(getattr(mesh, name)) == bits(getattr(ref, name)), name
    # the chern CSV's cell-angle columns
    columns, _, _ = cli._exp_chern({"family": "psi2", "mesh": "{}x{}".format(*shape)}, None,
                                   DEFAULT_TOLS)
    assert [bits(columns["theta_lo"]), bits(columns["phi_lo"])] == [bits(c) for c in cells]
    assert not mesh.theta.flags.writeable and not mesh.phi.flags.writeable
    rev = mesh.reversed()
    assert rev.theta is mesh.theta and rev.phi is mesh.phi


PUMP_W4 = [-0.7, -0.5, -0.2, 0.2, 0.5, 0.55, 0.7, 0.8]

ORACLES = {
    "psi2": (psi2_sphere_family, oracle_psi2_at),
    "boundary": (boundary_generator_family, derived_boundary_at),
    **{f"pump-{w4}": (lambda w4=w4: pump_slice_family(w4), oracle_pump_slice_at(w4))
       for w4 in PUMP_W4},
}


@pytest.mark.parametrize("chunk", [invariants.CHUNK, 7], ids=["chunk-default", "chunk-7"])
@pytest.mark.parametrize("shape", [(4, 4), (7, 5), (32, 32)])
@pytest.mark.parametrize("name", list(ORACLES))
def test_stacked_evaluators_match_the_per_vertex_oracle(name, shape, chunk, monkeypatch):
    make_family, at = ORACLES[name]
    family = make_family()
    mesh = make_sphere_mesh(*shape)
    vertices = mesh_vertices(mesh)

    def stacked():
        return np.concatenate([
            family.stack(mesh.theta[start:start + chunk], mesh.phi[start:start + chunk])
            for start in range(0, len(vertices), chunk)
        ])

    expected = outcome(lambda: np.array([at(*v).mats for v in vertices]))
    assert outcome(stacked) == expected
    assert outcome(lambda: np.array([family.eval_vertex(*v).mats for v in vertices])) == expected
    monkeypatch.setattr(invariants, "CHUNK", chunk)
    report = outcome(lambda: curvature_report(family, mesh))
    # the oracle's tensors as vertex data, or, where it raises, as a stack
    oracle = (tuple(at(*v) for v in vertices) if expected[0] == "ok"
              else point_by_point(at))
    assert report == outcome(lambda: curvature_report(oracle, mesh))
    if expected[0] == "raised":
        assert report == expected


def test_pump_charts_match_the_oracle(rng):
    checked = {"north": 0, "south": 0}
    for _ in range(200):
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        pt = Point(x[:3], float(x[3]))
        for chart, new, old in [("north", pump_north, oracle_pump_north),
                                ("south", pump_south, oracle_pump_south)]:
            try:
                expected = old(pt)
            except OutOfChartError as exc:
                with pytest.raises(OutOfChartError, match=str(exc)):
                    new(x)
                continue
            assert bits(new(x).mats) == bits(expected.mats)
            checked[chart] += 1
    assert min(checked.values()) > 50
    # both branches of each chart's core, and the poles
    for w4 in [1.0, 0.9, 0.5, 0.0, -0.5, -0.9, -1.0]:
        pt = oracle_from_angles(1.1, 4.0, w4)
        if w4 > -0.5:
            assert bits(pump_north(vector(pt)).mats) == bits(oracle_pump_north(pt).mats)
        if w4 < 0.5:
            assert bits(pump_south(vector(pt)).mats) == bits(oracle_pump_south(pt).mats)


def test_directions_match_the_scalar_angles():
    # the 200,000 normal vectors on which numpy's arctan2 and hypot differ
    # from math's, then the poles, the origin and signed zeros in every slot
    v = np.random.default_rng(0).normal(size=(200_000, 3))
    zeros = [np.array(z) for z in np.stack(np.meshgrid(*[[0.0, -0.0]] * 3), -1).reshape(-1, 3)]
    special = zeros + [np.array([0.0, 0.0, 1.0]), np.array([-0.0, 0.0, -1.0]),
                       np.array([0.0, -0.0, 2.5]), np.array([-0.0, -0.0, -1e-300]),
                       np.array([5e-324, 0.0, 0.0]), np.array([0.0, -5e-324, -1.0]),
                       np.array([-1.0, -0.0, 0.0]), np.array([-1.0, 0.0, 0.0]),
                       np.array([1.0, -1e-300, 0.0]), np.array([-1.0, -1e-300, -0.0])]
    v = np.concatenate([v, special])
    theta, phi = _directions(v)
    expected = np.array([oracle_angles(row) for row in v.tolist()])
    assert bits(theta) == bits(expected[:, 0]) and bits(phi) == bits(expected[:, 1])


def test_sequence_forms_of_the_charts_and_the_lift_match_their_n1_calls(rng):
    x = rng.normal(size=(300, 4))
    x /= np.linalg.norm(x, axis=1)[:, None]
    edges = [oracle_from_angles(1.1, 4.0, w4) for w4 in [1.0, 0.9, 0.5, 0.0, -0.5, -0.9, -1.0]]
    pts = np.concatenate([x, [vector(pt) for pt in edges]])
    for chart, inside in [(pump_north, pts[:, 3] > -0.5), (pump_south, pts[:, 3] < 0.5)]:
        stack = chart(pts[inside])
        assert isinstance(stack, np.ndarray) and len(stack) == inside.sum() > 100
        assert [bits(m) for m in stack] == \
            [bits(chart(r).mats) for r in pts[inside]]
        assert bits(chart(pts[inside].tolist())) == bits(stack)
        outside = pts[~inside]
        assert raised(chart, np.concatenate([pts[inside][:3], outside[:1]])) == \
            raised(chart, outside[0])
        # a row off the sphere, inside both charts, is refused as its N=1 call is
        off = np.concatenate([pts[inside][:3], [[1.0, 0.0, 0.0, 0.25]]])
        assert raised(chart, off) == raised(chart, off[-1])
    points = lift_points(rng)
    radii = np.linalg.norm(points, axis=1)
    for branch, ok in [("auto", radii <= 1.0), ("north", radii < math.sqrt(3.0) / 2.0),
                       ("south", radii > 0.5)]:
        stack = pump_lift(points[ok], branch)
        assert [bits(m) for m in stack] == [bits(pump_lift(v, branch).mats) for v in points[ok]]
        assert bits(pump_lift(points[ok].tolist(), branch)) == bits(stack)


@pytest.mark.parametrize("shape", [(7, 5), (32, 32)])
@pytest.mark.parametrize("w4", [0.5, -0.5])
def test_pump_slices_on_the_overlap_band_edges_have_chern_zero(w4, shape):
    mesh = make_sphere_mesh(*shape)
    # the slices just inside the band, and the edges themselves
    for w in (0.98 * w4, w4):
        assert chern_verdict(curvature_report(pump_slice_family(w), mesh))[2] == []
        assert chern_number(pump_slice_family(w), mesh) == 0


def test_pump_points_from_angles_match_the_oracle(rng):
    for theta, phi, w4 in rng.uniform([0, 0, -1], [math.pi, 2 * math.pi, 1], size=(200, 3)):
        w = _slice_points(np.array([theta]), np.array([phi]), w4)[0]
        assert bits(w) == bits(oracle_from_angles(theta, phi, w4).w)


def test_built_in_families_skip_the_per_vertex_path(monkeypatch):
    mesh = make_sphere_mesh(8, 8)
    expected = {name: curvature_report(make(), mesh)
                for name, (make, _) in ORACLES.items()}

    def refuse(self, theta, phi):
        raise AssertionError("per-vertex evaluation")

    monkeypatch.setattr(SphereFamily, "eval_vertex", refuse)
    for name, (make, _) in ORACLES.items():
        assert bits(curvature_report(make(), mesh)) == bits(expected[name])


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def per_vertex_loop(family, mesh):
    """Evaluate and decompose vertex by vertex, comparing ranks with vertex 0."""
    chi = None
    for k, v in enumerate(mesh_vertices(mesh)):
        dec = canonical_decompose(family.eval_vertex(*v))
        chi = dec.chi if chi is None else chi
        if dec.chi != chi:
            raise RankMismatchError(f"{chi} vs {dec.chi} at vertex {k}")


def corrupt_slice(monkeypatch, mesh, w4, faults):
    """Patch the pump slice so that vertex ``k`` of ``faults`` is pushed off
    the sphere ("off"), gets a non-finite point ("nan"), or gets a tensor
    scaled out of the space ("scaled").  The N=1 calls see the same faults."""
    real_points, real_charts = families._slice_points, families._pump_charts
    w_at = {k: real_points(mesh.theta[k:k + 1], mesh.phi[k:k + 1], w4)[0] for k in faults}

    def hits(w, kind):
        return [np.all(w == w_at[k], axis=1) for k, f in faults.items() if f == kind]

    def points(theta, phi, w4_):
        w = real_points(theta, phi, w4_)
        for hit in hits(w, "off"):
            w[hit] *= 1.01
        for hit in hits(w, "nan"):
            w[hit] = np.nan
        return w

    def charts(w, w4s, north):
        mats = real_charts(w, w4s, north)
        for hit in hits(w, "scaled"):
            mats[hit] *= 2.0
        return mats

    monkeypatch.setattr(families, "_slice_points", points)
    monkeypatch.setattr(families, "_pump_charts", charts)


@pytest.mark.parametrize("chunk", [invariants.CHUNK, 7], ids=["chunk-default", "chunk-7"])
@pytest.mark.parametrize("faults, kind, fragment", [
    ({9: "off"}, ValueError, "point is off the unit sphere by"),
    ({9: "nan"}, ValueError, "tensor entries must be finite"),
    ({3: "scaled", 9: "off"}, NotInEError, "right-normalized"),
    ({3: "off", 9: "scaled"}, ValueError, "off the unit sphere"),
    ({3: "nan", 9: "scaled"}, ValueError, "tensor entries must be finite"),
    ({3: "scaled", 9: "nan"}, NotInEError, "right-normalized"),
], ids=["off-9", "nan-9", "scaled-3-off-9", "off-3-scaled-9", "nan-3-scaled-9",
        "scaled-3-nan-9"])
@pytest.mark.parametrize("w4", [0.2, 0.7])
def test_stacked_refusal_raises_what_the_loop_raises(w4, faults, kind, fragment, chunk,
                                                     monkeypatch):
    mesh = make_sphere_mesh(4, 4)
    corrupt_slice(monkeypatch, mesh, w4, faults)
    monkeypatch.setattr(invariants, "CHUNK", chunk)
    family = pump_slice_family(w4)
    expected = raised(per_vertex_loop, family, mesh)
    assert expected[0] is kind and fragment in expected[1]
    assert raised(curvature_report, family, mesh) == expected


def lift_points(rng):
    """3,000 points on the annulus, where both lift branches hold, 300 inside
    it and 300 outside, and the radii 0, 1/2 + 1e-6, 0.65, sqrt(3)/2 - 1e-9
    and 1 along the coordinate axes and 100 random directions."""
    dirs = rng.normal(size=(3700, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.concatenate([rng.uniform(0.5, math.sqrt(3.0) / 2.0, 3000),
                            rng.uniform(0.0, 0.5, 300), rng.uniform(math.sqrt(3.0) / 2.0, 1.0, 300)])
    axes = np.concatenate([np.eye(3), -np.eye(3), dirs[3600:]])
    special = np.array([0.0, 0.5 + 1e-6, 0.65, math.sqrt(3.0) / 2.0 - 1e-9, 1.0])
    return np.concatenate([radii[:, None] * dirs[:3600],
                           (special[:, None, None] * axes).reshape(-1, 3)])


@pytest.mark.parametrize("branch", ["auto", "north", "south"])
def test_pump_lift_matches_the_scalar_oracle(branch, rng):
    points = lift_points(rng)
    expected = [outcome(lambda: oracle_pump_lift(v, branch).mats) for v in points]
    assert [outcome(lambda: pump_lift(v, branch).mats) for v in points] == expected
    ok = np.array([e[0] == "ok" for e in expected])
    assert ok.sum() >= 3000
    stacked = _pump_lifts(points[ok], branch)
    assert [bits(m) for m in stacked] == [e[1:] for e, good in zip(expected, ok) if good]
    for v in points[~ok]:
        assert raised(_pump_lifts, np.concatenate([points[ok][:5], v[None]]), branch) == \
            outcome(lambda: oracle_pump_lift(v, branch))[1:]


@pytest.mark.parametrize("v, branch", [
    ([0.0, 0.0, 1.0 + 1e-9], "auto"), ([0.6, 0.8, 1e-5], "south"), ([0.3, 0.2, 0.1], "east"),
    ([0.0, 0.0, 1.1], "east"), ([0.9, 0.0, 0.0], "north"), ([0.0, 0.3, 0.0], "south"),
])
def test_pump_lift_refuses_what_the_oracle_refuses(v, branch):
    expected = raised(oracle_pump_lift, v, branch)
    assert raised(pump_lift, v, branch) == expected
    assert raised(_pump_lifts, np.array([[0.0, 0.6, 0.0], v]), branch) == expected


@pytest.mark.parametrize("shape", [(4, 4), (5, 4), (6, 6), (8, 8), (16, 16), (32, 32), (64, 64)])
def test_boundary_generator_is_the_closed_form_line(shape):
    mesh = make_sphere_mesh(*shape)
    family = boundary_generator_family()
    derived = family.stack(mesh.theta, mesh.phi)[:, :, 0, 0]
    closed = [oracle_boundary_at(*v) for v in mesh_vertices(mesh)]
    overlaps = np.einsum("ni,ni->n", np.array([t.mats[:, 0, 0] for t in closed]).conj(), derived)
    assert np.abs(np.abs(overlaps) - 1.0).max() <= 1e-15
    curvature = curvature_report(family, mesh)
    closed_curvature = curvature_report(tuple(closed), mesh)
    assert np.abs(curvature - closed_curvature).max() <= 1e-15
    assert chern_verdict(curvature)[2] == []
    assert chern_number(family, mesh) == 1


def test_the_boundary_class_is_read_off_the_lift(monkeypatch):
    mesh = make_sphere_mesh(16, 16)
    lifts = families._pump_lifts
    monkeypatch.setattr(families, "_pump_lifts", lambda v, branch: lifts(v, branch).conj())
    assert chern_number(boundary_generator_family(), mesh) == -1


def north_core_lines(w4):
    """The core line of the north chart on the w4 slice of the overlap band,
    where the chart has essential rank 1."""

    def stack(theta, phi):
        w = _slice_points(theta, phi, w4)
        found = _decomposition_pass(_pump_charts(w, np.full(len(w), w4), north=True),
                                    DEFAULT_TOLS)
        assert not found.errors and (found.ranks == 1).all()
        return _product_states(found.X[:, 0, 0], found.X[:, 1, 0])

    return SphereFamily(stack)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("w4", [-0.49, -0.2, 0.0, 0.3, 0.49])
def test_chart_clutching_number_is_the_lift_class(w4, n):
    mesh = make_sphere_mesh(n, n)
    lift_class = chern_number(boundary_generator_family(), mesh)
    assert chern_number(north_core_lines(w4), mesh) == lift_class == 1
