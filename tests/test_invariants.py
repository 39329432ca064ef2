import math

import numpy as np
import pytest

from timps.errors import (
    FlaggedPlaquetteError,
    NonIntegerTotalError,
    RankMismatchError,
    VanishingOverlapError,
)
from timps.families import (
    aklt_path,
    boundary_generator_family,
    constant_sphere_family,
    make_sphere_mesh,
    psi2_sphere_family,
    psi2_tensor,
    pump_slice_family,
)
from timps.sampling import random_gauge_move
from timps.tensors import MpsTensor, apply_gauge, pad_tensor
from timps.invariants import (
    chern_number,
    chern_verdict,
    curvature_report,
    link_field,
    link_variable,
)


def test_link_variable_self_overlap():
    A = psi2_tensor(0.6, 0.8)
    assert link_variable(A, A) == pytest.approx(1.0)


def test_link_variable_real_overlap_is_positive():
    eps = 0.05
    u = psi2_tensor(1.0, 0.0)
    v = psi2_tensor(math.cos(eps), math.sin(eps))
    assert link_variable(u, v) == pytest.approx(1.0)


def test_link_variable_reduces_to_state_overlap():
    k = psi2_tensor(0.6, 0.8j)
    l = psi2_tensor(math.cos(0.3), math.sin(0.3) * np.exp(0.4j))
    raw = np.sum(k.mats[:, 0, 0] * np.conj(l.mats[:, 0, 0]))
    assert link_variable(k, l) == pytest.approx(raw / abs(raw))


def test_link_variable_phase_covariance():
    u = psi2_tensor(0.6, 0.8)
    v = psi2_tensor(0.8, 0.6)
    base = link_variable(u, v)
    spun = link_variable(MpsTensor(u.mats * np.exp(0.7j)), v)
    assert spun == pytest.approx(base * np.exp(0.7j))


def test_link_variable_error_cases():
    with pytest.raises(RankMismatchError):
        link_variable(aklt_path(0.5), aklt_path(0.0))
    with pytest.raises(VanishingOverlapError):
        link_variable(psi2_tensor(1.0, 0.0), psi2_tensor(0.0, 1.0))


def test_link_field_reverse_is_conjugate():
    mesh = make_sphere_mesh(4, 4)
    (u, v), value = mesh.edges[0], link_field(psi2_sphere_family(), mesh)[0]
    A_u, A_v = map(MpsTensor, psi2_sphere_family().stack(mesh.theta[[u, v]], mesh.phi[[u, v]]))
    assert link_variable(A_u, A_v) == pytest.approx(value, abs=1e-12)
    assert link_variable(A_v, A_u) == pytest.approx(np.conj(value), abs=1e-12)


def test_constant_family_has_zero_curvature():
    mesh = make_sphere_mesh(6, 6)
    curvature = curvature_report(constant_sphere_family(aklt_path(0.5)), mesh)
    assert np.abs(curvature).max() == 0.0
    assert chern_number(constant_sphere_family(aklt_path(0.5)), mesh) == 0


@pytest.mark.parametrize("n", [16, 32, 64])
def test_psi2_chern_number_mesh_stability(n):
    mesh = make_sphere_mesh(n, n)
    assert chern_number(psi2_sphere_family(), mesh) == 1


def test_psi2_total_flux_is_one_flux_quantum():
    curvature = curvature_report(psi2_sphere_family(), make_sphere_mesh(16, 16))
    assert curvature.sum() == pytest.approx(2.0 * math.pi, abs=1e-10)
    nearest, residual, flagged, _ = chern_verdict(curvature)
    assert flagged == []
    # the verdict's residual is that of the per-plaquette sum over 2*pi, exactly
    assert residual == abs(curvature.sum() / (2.0 * math.pi) - nearest)


def test_orientation_reversal_negates_chern():
    mesh = make_sphere_mesh(16, 16)
    assert chern_number(psi2_sphere_family(), mesh.reversed()) == -1


def test_vertex_phase_leaves_curvature_invariant():
    mesh = make_sphere_mesh(8, 8)
    base = psi2_sphere_family()
    tensors = [MpsTensor(m) for m in base.stack(mesh.theta, mesh.phi)]
    tensors[7] = MpsTensor(tensors[7].mats * np.exp(1.23j))
    fam = tuple(tensors)
    r0 = curvature_report(base, mesh)
    r1 = curvature_report(fam, mesh)
    assert np.abs(r0 - r1).max() < 1e-12


@pytest.mark.parametrize("invariant", [chern_number, curvature_report, link_field])
def test_custom_family_for_a_larger_mesh_is_refused(invariant):
    # the psi2 tensors of a 32x32 mesh gave Chern 0 on a 16x16 mesh
    big = make_sphere_mesh(32, 32)
    tensors = [MpsTensor(m) for m in psi2_sphere_family().stack(big.theta, big.phi)]
    with pytest.raises(ValueError, match="994 tensors, but mesh 16x16 has 242 vertices"):
        invariant(tuple(tensors), make_sphere_mesh(16, 16))
    assert chern_number(tuple(tensors), big) == 1


@pytest.mark.parametrize("count", [15, 13, 1, 0], ids=["too-many", "too-few", "one", "zero"])
@pytest.mark.parametrize("invariant", [chern_number, curvature_report, link_field])
def test_vertex_data_of_another_count_is_refused_up_front(invariant, count, count_passes):
    mesh = make_sphere_mesh(4, 4)
    psi2 = [MpsTensor(m) for m in psi2_sphere_family().stack(mesh.theta, mesh.phi)]
    passes = count_passes()
    with pytest.raises(ValueError) as info:
        invariant(tuple((psi2 + psi2)[:count]), mesh)
    assert str(info.value) == f"family custom has {count} tensors, but mesh 4x4 has 14 vertices"
    assert passes == []
    assert chern_number(tuple(psi2), mesh) == 1


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("make", [psi2_sphere_family, lambda: pump_slice_family(0.7),
                                  lambda: pump_slice_family(-0.2)],
                         ids=["psi2", "pump-0.7", "pump-minus-0.2"])
def test_gauge_moved_vertex_data_keeps_the_curvature(make, n, rng):
    # each vertex: D padded by 0-2, then a random gauge move; the shapes mix
    family, mesh = make(), make_sphere_mesh(n, n)
    moved = []
    for mats, extra in zip(family.stack(mesh.theta, mesh.phi),
                           rng.integers(0, 3, len(mesh.theta))):
        A = pad_tensor(MpsTensor(mats), mats.shape[0], mats.shape[1] + extra)
        moved.append(apply_gauge(A, random_gauge_move(rng, A)))
    assert len({A.D for A in moved}) == 3
    data = tuple(moved)
    expected = curvature_report(family, mesh)
    assert np.abs(curvature_report(data, mesh) - expected).max() <= 1e-13
    assert chern_number(data, mesh) == chern_number(family, mesh)


def test_chern_rejects_rank_jumps():
    mesh = make_sphere_mesh(4, 4)
    tensors = [aklt_path(0.5)] * len(mesh.theta)
    tensors[3] = aklt_path(0.0)
    with pytest.raises(RankMismatchError):
        chern_number(tuple(tensors), mesh)


@pytest.mark.parametrize("n", [16, 32])
def test_pump_boundary_generator_value(n):
    assert chern_number(boundary_generator_family(), make_sphere_mesh(n, n)) == 1


def test_frozen_polar_angle_gives_zero():
    theta0 = 1.0

    def frozen(phi):
        return psi2_tensor(math.cos(theta0 / 2), np.exp(-1j * phi) * math.sin(theta0 / 2))

    mesh = make_sphere_mesh(12, 12)
    assert chern_number(tuple(frozen(phi) for phi in mesh.phi), mesh) == 0


def test_curvature_report_rows_align_with_mesh():
    mesh = make_sphere_mesh(6, 6)
    assert curvature_report(psi2_sphere_family(), mesh).shape == (mesh.n_plaquettes,)


def test_chern_number_rank2_slice_family():
    # a constant-rank-2 slice of the pump carries zero two-dimensional charge
    from timps.families import pump_slice_family
    mesh = make_sphere_mesh(12, 12)
    assert chern_number(pump_slice_family(0.8), mesh) == 0


@pytest.mark.parametrize("total, flagged, kinds", [
    (1.0, (), []),
    (0.4, (), [NonIntegerTotalError]),
    (-1.0, (3,), [FlaggedPlaquetteError]),
    (0.4, (3,), [NonIntegerTotalError, FlaggedPlaquetteError]),
])
def test_chern_verdict_lists_the_residual_refusal_first(total, flagged, kinds):
    # four plaquettes: the flagged ones at -3.1, within 0.1 of -pi, and the
    # rest equal, summing to 2*pi times the total
    curvature = np.zeros(4)
    curvature[list(flagged)] = -3.1
    rest = [k for k in range(4) if k not in flagged]
    curvature[rest] = (2.0 * math.pi * total - curvature.sum()) / len(rest)
    nearest, residual, found, errors = chern_verdict(curvature)
    built = curvature.sum() / (2.0 * math.pi)
    assert abs(built - total) < 1e-12
    assert nearest == round(total) and residual == abs(built - round(total))
    assert found == list(flagged)
    assert [type(e) for e in errors] == kinds
