import math

import numpy as np
import pytest

from timps.errors import NotNormalizedPointError, OutOfChartError
from timps.families import (
    _ball_points,
    _directions,
    _rotations,
    _slice_points,
    aklt_path,
    boundary_generator_family,
    family_from_spec,
    make_sphere_mesh,
    psi2_sphere_family,
    psi2_tensor,
    pump_lift,
    pump_north,
    pump_south,
    pump_slice_family,
)
from timps.tensors import (
    MpsTensor,
    canonical_decompose,
    essential_rank,
    fidelity_per_site,
    gauge_equivalent,
    tensor_to_json,
)
from timps.transfer import WindowObservable, expectation, fixed_point, trace_invariant


def sample_sphere_point(rng):
    x = rng.normal(size=4)
    return x / np.linalg.norm(x)


def test_psi2_tensor_basis_points():
    north = psi2_tensor(1.0, 0.0)
    assert np.abs(north.mats.ravel() - np.array([1.0, 0.0])).max() == 0.0
    south = psi2_tensor(0.0, 1.0)
    assert np.abs(south.mats.ravel() - np.array([0.0, 1.0])).max() == 0.0
    with pytest.raises(NotNormalizedPointError):
        psi2_tensor(1.0, 0.5)


def test_psi2_is_a_product_state(rng):
    k1, k2 = math.cos(0.4), math.sin(0.4) * np.exp(0.3j)
    K = psi2_tensor(k1, k2)
    omega = np.array([k1, k2])
    C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    val = expectation(K, fixed_point(K), WindowObservable([C, C]))
    assert abs(val - (omega.conj() @ C @ omega) ** 2) < 1e-13


def rotation(theta, phi):
    """The N=1 call of the stacked rotations."""
    return _rotations(np.array([theta]), np.array([phi]))[0]


def test_berry_rotation_special_values():
    assert np.abs(rotation(0.0, 0.0) - np.eye(2)).max() == 0.0
    at_pi = rotation(math.pi, 0.0)
    assert np.abs(at_pi - np.array([[0.0, -1.0], [1.0, 0.0]])).max() < 1e-15


def test_berry_rotation_unitarity(rng):
    for _ in range(100):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        X = rotation(theta, phi)
        assert np.abs(X.conj().T @ X - np.eye(2)).max() < 1e-14


def test_pump_point_invariants():
    theta, phi = _directions(np.array([[0.0, 0.0, 0.8]]))
    assert theta[0] == 0.0 and phi[0] == 0.0
    with pytest.raises(ValueError):
        pump_north([1.0, 0.0, 0.0, 0.5])
    w, w4 = _ball_points(np.zeros((1, 3)))
    assert w4[0] == 1.0 and np.abs(w).max() == 0.0


def test_pump_north_at_north_pole():
    A = pump_north([0.0, 0.0, 0.0, 1.0])
    # the block is antisymmetric with entries sqrt(1/2)
    r = math.sqrt(0.5)
    expected_block = np.array([[0.0, -r], [r, 0.0]])
    got = np.array([[A.mats[0, 0, 0], A.mats[1, 0, 1]],
                    [A.mats[2, 1, 0], A.mats[3, 1, 1]]])
    # row i of matrix (i, j) is row j of X Lambda X^T; at the pole X = 1
    assert np.abs(A.mats[2 * 0 + 0][0] - expected_block[0]).max() < 1e-15
    assert np.abs(A.mats[2 * 1 + 1][1] - expected_block[1]).max() < 1e-15
    assert essential_rank(A) == 2


def test_pump_north_rank_drops_on_overlap_band(rng):
    for _ in range(5):
        x = rng.normal(size=3)
        w = x / np.linalg.norm(x)
        pt = np.append(w, 0.0)
        A = pump_north(pt)
        assert essential_rank(A) == 1
        # the canonical core carries the south-chart scalars
        dec = canonical_decompose(A)
        south = pump_south(pt)
        assert abs(fidelity_per_site(dec.K, south.mats) - 1.0) < 1e-12


def test_pump_chart_normalization(rng):
    for _ in range(50):
        pt = sample_sphere_point(rng)
        if pt[3] > -0.5:
            dec = canonical_decompose(pump_north(pt))
            gram = np.einsum("iab,icb->ac", dec.K, dec.K.conj())
            assert np.abs(gram - np.eye(dec.chi)).max() < 1e-10
        if pt[3] < 0.5:
            s = pump_south(pt)
            assert abs(np.sum(np.abs(s.mats) ** 2) - 1.0) < 1e-12


def test_pump_south_closed_forms(rng):
    for _ in range(10):
        theta = rng.uniform(0.1, math.pi - 0.1)
        phi = rng.uniform(0, 2 * math.pi)
        w4 = rng.uniform(-0.5, 0.5 - 1e-9)
        pt = np.append(_slice_points(np.array([theta]), np.array([phi]), w4)[0], w4)
        vals = pump_south(pt).mats[:, 0, 0]
        assert abs(vals[0] - (-0.5 * np.exp(-1j * phi) * math.sin(theta))) < 1e-12
        assert abs(vals[1] - (1.0 + math.cos(theta)) / 2.0) < 1e-12
        assert abs(vals[2] - (math.cos(theta) - 1.0) / 2.0) < 1e-12
        assert abs(vals[3] - 0.5 * np.exp(1j * phi) * math.sin(theta)) < 1e-12


def test_pump_south_pole_value():
    vals = pump_south([0.0, 0.0, 0.0, -1.0]).mats[:, 0, 0]
    r = math.sqrt(0.5)
    assert np.abs(vals - np.array([0.0, r, -r, 0.0])).max() < 1e-15


def test_pump_south_continuity_across_band_edge():
    # the piecewise amplitudes meet at w4 = -1/2 (square-root modulus)
    direction = np.array([0.3, -0.5, 0.8])
    direction /= np.linalg.norm(direction)
    eps = 1e-9
    lo = np.append(direction * math.sqrt(1 - (0.5 + eps) ** 2), -0.5 - eps)
    hi = np.append(direction * math.sqrt(1 - (0.5 - eps) ** 2), -0.5 + eps)
    dev = np.abs(pump_south(lo).mats - pump_south(hi).mats).max()
    assert dev < 1e-4


def test_pump_chart_gate():
    with pytest.raises(OutOfChartError):
        pump_north([0.0, 0.0, 0.0, -1.0])
    with pytest.raises(OutOfChartError):
        pump_south([0.0, 0.0, 0.0, 1.0])


def test_pump_overlap_gauge_equivalence(rng):
    count = 0
    while count < 50:
        pt = sample_sphere_point(rng)
        if not -0.5 < pt[3] < 0.5:
            continue
        assert gauge_equivalent(pump_north(pt), pump_south(pt))
        count += 1


def test_pump_family_charts():
    north_pole = [0.0, 0.0, 0.0, 1.0]
    assert pump_north(north_pole).D == 2
    with pytest.raises(OutOfChartError):
        pump_south(north_pole)
    south_pole = [0.0, 0.0, 0.0, -1.0]
    assert pump_south(south_pole).D == 1
    with pytest.raises(OutOfChartError):
        pump_north(south_pole)


@pytest.mark.parametrize("chart", [pump_north, pump_south], ids=["north", "south"])
@pytest.mark.parametrize("form", [list, np.array], ids=["list", "array"])
def test_one_pump_point_is_the_n1_call(chart, form):
    point = [0.0, 0.6, 0.8, 0.0]  # in both charts
    one = chart(form(point))
    assert isinstance(one, MpsTensor)
    row = chart(np.array([point]))[0]
    assert (one.mats.dtype, one.mats.shape, one.mats.tobytes()) == \
        (row.dtype, row.shape, row.tobytes())


def test_pump_lift_center_and_boundary(rng):
    center = pump_lift([0.0, 0.0, 0.0])
    pole = pump_north([0.0, 0.0, 0.0, 1.0])
    assert np.abs(center.mats - pole.mats).max() == 0.0
    base = pump_south([0.0, 0.0, 0.0, -1.0])
    for _ in range(5):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        lifted = pump_lift(v)
        assert lifted.D == 2
        assert gauge_equivalent(lifted, base)
        # the canonical core carries the basepoint scalars exactly
        dec = canonical_decompose(lifted)
        assert abs(fidelity_per_site(dec.K, base.mats) - 1.0) < 1e-12


def test_pump_lift_branches_agree_on_annulus(rng):
    for _ in range(50):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0.5 + 1e-6, math.sqrt(3) / 2 - 1e-6)
        dev = np.abs(pump_lift(v, "north").mats - pump_lift(v, "south").mats).max()
        assert dev <= 1e-10


def test_pump_lift_branch_gates():
    with pytest.raises(OutOfChartError):
        pump_lift([0.0, 0.0, 0.95], "north")
    with pytest.raises(OutOfChartError):
        pump_lift([0.0, 0.0, 0.1], "south")
    with pytest.raises(ValueError):
        pump_lift([0.0, 0.0, 2.0])


def test_aklt_path_endpoints_and_normalization():
    top = aklt_path(1.0)
    assert np.abs(top.mats[0]).max() == 0.0
    bottom = aklt_path(0.0)
    assert bottom.mats[0, 0, 0] == 1.0
    assert np.abs(bottom.mats[1:]).max() == 0.0
    for g in np.linspace(0.1, 1.0, 10):
        A = aklt_path(float(g))
        gram = np.einsum("iab,icb->ac", A.mats, A.mats.conj())
        assert np.abs(gram - np.eye(2)).max() < 1e-14
    gram0 = np.einsum("iab,icb->ac", bottom.mats, bottom.mats.conj())
    assert np.abs(gram0 - np.diag([1.0, 0.0])).max() == 0.0
    with pytest.raises(ValueError):
        aklt_path(1.2)


def test_aklt_membership_and_rank_on_open_interval():
    for g in (0.1, 0.5, 0.9):
        assert essential_rank(aklt_path(g)) == 2


def test_trace_invariant_discontinuity_at_endpoint():
    limit = trace_invariant(aklt_path(1e-6))
    assert abs(limit - 2.0) < 1e-6
    assert trace_invariant(aklt_path(0.0)) == 1.0


def test_single_site_expectations_vary_continuously(rng):
    C = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    values = []
    for g in np.arange(0.2, 0.8, 0.01):
        K = aklt_path(float(g))
        values.append(expectation(K, fixed_point(K), WindowObservable([C])))
    diffs = np.abs(np.diff(values))
    assert diffs.max() < 0.05


def test_mesh_structure():
    mesh = make_sphere_mesh(4, 4)
    assert mesh.n_plaquettes == 16
    assert len(mesh.theta) == len(mesh.phi) == (4 - 1) * 4 + 2
    assert ((0.0 <= mesh.theta) & (mesh.theta <= np.pi)).all()
    assert ((0.0 <= mesh.phi) & (mesh.phi < 2.0 * np.pi)).all()
    with pytest.raises(ValueError):
        make_sphere_mesh(3, 8)


def test_mesh_plaquette_count_scales():
    assert make_sphere_mesh(8, 6).n_plaquettes == 48
    assert make_sphere_mesh(16, 16).n_plaquettes == 256


def test_mesh_is_closed():
    # every geometric edge appears exactly twice, once per direction
    mesh = make_sphere_mesh(6, 8)
    counts = {}
    for quad in mesh.plaquettes:
        for a in range(4):
            u, v = int(quad[a]), int(quad[(a + 1) % 4])
            if u == v:
                continue
            counts[(u, v)] = counts.get((u, v), 0) + 1
    for (u, v), n in counts.items():
        assert n == 1
        assert counts.get((v, u)) == 1


def test_mesh_reversal_flips_orientation():
    mesh = make_sphere_mesh(4, 4)
    rev = mesh.reversed()
    assert np.array_equal(rev.plaquettes, mesh.plaquettes[:, ::-1])


def test_sphere_families_evaluate_at_poles():
    mesh = make_sphere_mesh(4, 4)
    fam = psi2_sphere_family()
    north = fam.eval_vertex(mesh.theta[0], mesh.phi[0])
    assert np.abs(north.mats.ravel() - np.array([1.0, 0.0])).max() < 1e-15
    bnd = boundary_generator_family()
    for theta, phi in zip(mesh.theta, mesh.phi):
        # the same state; the boundary line's phase is the decomposition's
        a = fam.eval_vertex(theta, phi).mats.ravel()
        b = bnd.eval_vertex(theta, phi).mats.ravel()
        assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-15


def test_pump_slice_family_ranks():
    mesh = make_sphere_mesh(4, 4)
    low = pump_slice_family(0.0)
    high = pump_slice_family(0.8)
    vertices = list(zip(mesh.theta, mesh.phi))
    assert all(low.eval_vertex(*v).D == 1 for v in vertices)
    assert all(essential_rank(high.eval_vertex(*v)) == 2 for v in vertices)


def test_family_from_spec():
    fam = family_from_spec({"family": "psi2"})
    fam = family_from_spec({"family": "aklt", "params": {"g": 0.3}})
    mesh = make_sphere_mesh(4, 4)
    assert trace_invariant(fam.eval_vertex(mesh.theta[0], mesh.phi[0])) == pytest.approx(
        2 * math.sqrt(1 - 0.09))
    mesh_tensors = [tensor_to_json(psi2_tensor(1.0, 0.0))] * len(mesh.theta)
    fam = family_from_spec({"family": "custom", "params": {"tensors": mesh_tensors}})
    assert isinstance(fam, tuple) and len(fam) == len(mesh.theta)
    assert fam[3].d == 2
    with pytest.raises(ValueError):
        family_from_spec({"family": "psi2", "params": {"oops": 1}})
    with pytest.raises(ValueError):
        family_from_spec({"family": "nope"})
