"""The stacked family evaluators and the vectorized mesh against the
per-vertex code they replace.

The oracles below are the earlier per-vertex implementations: the scalar
rotation, product-state and pump-chart formulas, the per-vertex closures
of the psi2, boundary-generator and pump-slice families, and the double
loop that built the sphere mesh.  The stacked code must reproduce them bit
for bit, and a chunk the stacked evaluator refuses must raise what the
per-vertex loop raises.
"""

import math

import numpy as np
import pytest

from timps import families, invariants
from timps.errors import NotInEError, NotNormalizedPointError, OutOfChartError, RankMismatchError
from timps.families import (
    Mesh2,
    MeshVertex,
    PumpPoint,
    SphereFamily,
    _angles,
    boundary_generator_family,
    make_sphere_mesh,
    psi2_sphere_family,
    pump_north,
    pump_slice_family,
    pump_south,
)
from timps.invariants import chern_number, curvature_report
from timps.tensors import MpsTensor, canonical_decompose


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
    r = pt.w_norm / math.sqrt(3.0)
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
    X = oracle_berry_rotation(*_angles(pt.w))
    M = X @ oracle_lambda(pt, True) @ X.T
    mats = np.zeros((4, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            mats[2 * i + j, i, :] = M[j, :]
    return MpsTensor(mats)


def oracle_pump_south(pt):
    if not pt.w4 < 0.5:
        raise OutOfChartError("south chart requires w4 < 1/2")
    X = oracle_berry_rotation(*_angles(pt.w))
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
    return PumpPoint(w=w, w4=w4)


def oracle_psi2_at(v):
    return oracle_psi2_tensor(math.cos(v.theta / 2.0),
                              np.exp(-1j * v.phi) * math.sin(v.theta / 2.0))


def oracle_boundary_at(v):
    col = oracle_berry_rotation(v.theta, v.phi).conj()[:, 0]
    return oracle_psi2_tensor(col[0], col[1])


def oracle_pump_slice_at(w4):
    def at(v):
        pt = oracle_from_angles(v.theta, v.phi, w4)
        return oracle_pump_south(pt) if w4 < 0.5 else oracle_pump_north(pt)

    return at


def oracle_sphere_mesh(n_theta, n_phi):
    """The vertex and plaquette double loop of the earlier mesh builder."""
    vertices = []

    def add_vertex(theta, phi):
        vertices.append(MeshVertex(index=len(vertices), theta=theta, phi=phi))
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
    return Mesh2(
        n_theta=n_theta,
        n_phi=n_phi,
        plaquettes=plaquettes,
        cell_theta_lo=theta_lo,
        cell_phi_lo=phi_lo,
        theta=np.array([v.theta for v in vertices]),
        phi=np.array([v.phi for v in vertices]),
    )


def bits(a):
    """Exact content of an array: dtype, shape and bytes (signed zeros count)."""
    a = np.ascontiguousarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def outcome(fn):
    """``("ok", bits of the result)`` or ``("raised", type, message)``."""
    try:
        return ("ok",) + bits(fn())
    except Exception as exc:
        return "raised", type(exc), str(exc)


def vertex_bits(v):
    return v.index, float(v.theta).hex(), float(v.phi).hex()


@pytest.mark.parametrize("shape", [(4, 4), (4, 9), (9, 4), (16, 16), (33, 17)])
def test_mesh_matches_the_loop_oracle(shape):
    mesh, ref = make_sphere_mesh(*shape), oracle_sphere_mesh(*shape)
    assert [vertex_bits(v) for v in mesh.vertices] == [vertex_bits(v) for v in ref.vertices]
    for name in ["plaquettes", "cell_theta_lo", "cell_phi_lo", "theta", "phi",
                 "edges", "plaquette_edges", "plaquette_signs"]:
        assert bits(getattr(mesh, name)) == bits(getattr(ref, name)), name
    assert not mesh.theta.flags.writeable and not mesh.phi.flags.writeable
    rev = mesh.reversed()
    assert rev.theta is mesh.theta and rev.phi is mesh.phi


PUMP_W4 = [-0.7, -0.5, -0.2, 0.2, 0.5, 0.55, 0.7, 0.8]

ORACLES = {
    "psi2": (psi2_sphere_family, oracle_psi2_at),
    "boundary": (boundary_generator_family, oracle_boundary_at),
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
    vertices = mesh.vertices

    def stacked():
        return np.concatenate([
            family.eval_vertices(mesh.theta[start:start + chunk], mesh.phi[start:start + chunk])
            for start in range(0, len(vertices), chunk)
        ])

    expected = outcome(lambda: np.array([at(v).mats for v in vertices]))
    assert outcome(stacked) == expected
    assert outcome(lambda: np.array([family.eval_vertex(v).mats for v in vertices])) == expected
    monkeypatch.setattr(invariants, "CHUNK", chunk)
    report = outcome(lambda: curvature_report(family, mesh).curvature)
    assert report == outcome(lambda: curvature_report(SphereFamily(name, at), mesh).curvature)
    if expected[0] == "raised":
        assert report == expected


def test_pump_charts_match_the_oracle(rng):
    checked = {"north": 0, "south": 0}
    for _ in range(200):
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        pt = PumpPoint(w=x[:3], w4=float(x[3]))
        for chart, new, old in [("north", pump_north, oracle_pump_north),
                                ("south", pump_south, oracle_pump_south)]:
            try:
                expected = old(pt)
            except OutOfChartError as exc:
                with pytest.raises(OutOfChartError, match=str(exc)):
                    new(pt)
                continue
            assert bits(new(pt).mats) == bits(expected.mats)
            checked[chart] += 1
    assert min(checked.values()) > 50
    # both branches of each chart's core, and the poles
    for w4 in [1.0, 0.9, 0.5, 0.0, -0.5, -0.9, -1.0]:
        pt = oracle_from_angles(1.1, 4.0, w4)
        if w4 > -0.5:
            assert bits(pump_north(pt).mats) == bits(oracle_pump_north(pt).mats)
        if w4 < 0.5:
            assert bits(pump_south(pt).mats) == bits(oracle_pump_south(pt).mats)


@pytest.mark.parametrize("shape", [(7, 5), (32, 32)])
@pytest.mark.parametrize("w4", [0.5, -0.5])
def test_pump_slices_on_the_overlap_band_edges_have_chern_zero(w4, shape):
    mesh = make_sphere_mesh(*shape)
    # the slices just inside the band, and the edges themselves
    for w in (0.98 * w4, w4):
        report = curvature_report(pump_slice_family(w), mesh)
        assert report.flagged == ()
        assert chern_number(pump_slice_family(w), mesh) == 0


def test_pump_points_from_angles_match_the_oracle(rng):
    for theta, phi, w4 in rng.uniform([0, 0, -1], [math.pi, 2 * math.pi, 1], size=(200, 3)):
        pt = PumpPoint.from_angles(theta, phi, w4)
        assert bits(pt.w) == bits(oracle_from_angles(theta, phi, w4).w)


def test_built_in_families_skip_the_per_vertex_path(monkeypatch):
    mesh = make_sphere_mesh(8, 8)
    expected = {name: curvature_report(make(), mesh).curvature
                for name, (make, _) in ORACLES.items()}

    def refuse(self, vertex):
        raise AssertionError("per-vertex evaluation")

    monkeypatch.setattr(SphereFamily, "eval_vertex", refuse)
    for name, (make, _) in ORACLES.items():
        assert bits(curvature_report(make(), mesh).curvature) == bits(expected[name])


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def per_vertex_loop(family, mesh):
    """Evaluate and decompose vertex by vertex, comparing ranks with vertex 0."""
    chi = None
    for v in mesh.vertices:
        dec = canonical_decompose(family.eval_vertex(v))
        chi = dec.chi if chi is None else chi
        if dec.chi != chi:
            raise RankMismatchError(f"{chi} vs {dec.chi} at vertex {v.index}")


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
