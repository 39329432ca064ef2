"""Refusals of malformed input, one assertion each, for checks that no other
test reaches."""

import json
import re

import numpy as np
import pytest

from timps import families, invariants
from timps.cli import main
from timps.errors import DegenerateLeadingEigenvalueError, RankMismatchError
from timps.families import (
    SphereFamily,
    boundary_generator_family,
    make_sphere_mesh,
    psi2_sphere_family,
    pump_lift,
    pump_north,
    pump_slice_family,
    pump_south,
)
from timps.tensors import MpsTensor, is_injective, pad_tensor, right_normalize
from timps.transfer import WindowObservable, expectation, fixed_point


def test_boundary_generator_refuses_a_lift_of_rank_two(monkeypatch):
    # lifts replaced by north-chart tensors above the overlap band, of rank 2
    monkeypatch.setattr(families, "_pump_lifts", lambda v, branch: pump_north(
        np.hstack([0.6 * v, np.full((len(v), 1), 0.8)])))
    mesh = make_sphere_mesh(4, 4)
    with pytest.raises(RankMismatchError, match="essential rank 2 on the boundary sphere"):
        boundary_generator_family().stack(mesh.theta, mesh.phi)


def test_right_normalize_refuses_a_reducible_core():
    # full-rank left Gram matrix, but the core map's fixed point is |0><0|
    A = MpsTensor(np.array([[[1, 0], [0, 0]], [[0, 1], [0, 0]]], dtype=complex))
    with pytest.raises(DegenerateLeadingEigenvalueError, match="reducible core"):
        right_normalize(A)


def test_window_observable_refuses_non_square_factors():
    with pytest.raises(ValueError, match="square matrices"):
        WindowObservable([np.zeros((2, 3))])


def test_window_observable_refuses_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        WindowObservable([np.array([[np.nan, 0.0], [0.0, 1.0]])])


def test_expectation_refuses_a_factor_of_the_wrong_size():
    K = MpsTensor(np.array([[[1.0]], [[0.0]]]) / 1.0)
    with pytest.raises(ValueError, match="window factor must be 2 x 2"):
        expectation(K, fixed_point(K), WindowObservable([np.eye(3)]))


def test_mps_tensor_refuses_a_zero_dimension():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        MpsTensor(np.zeros((0, 1, 1)))


def test_pad_tensor_refuses_to_shrink():
    with pytest.raises(ValueError, match="cannot shrink"):
        pad_tensor(MpsTensor(np.ones((2, 1, 1))), 1, 1)


def test_is_injective_refuses_non_square_matrices():
    with pytest.raises(ValueError, match="must be square"):
        is_injective(np.zeros((4, 2, 3)))


@pytest.mark.parametrize("fn, point, shape", [
    pytest.param(fn, point, shape, id=f"{fn.__name__}-{shape}")
    for fn, point, shapes in [
        (pump_north, [0.0, 0.6, 0.8, 0.0], [(8,), (2, 6), (1, 4, 1), (3,), ()]),
        (pump_south, [0.0, 0.6, 0.8, 0.0], [(8,), (2, 6), (1, 4, 1), (3,), ()]),
        (pump_lift, [0.0, 0.6, 0.0], [(6,), (2, 6), (2, 3, 1)])]
    for shape in shapes
])
def test_pump_points_of_another_shape_are_refused(fn, point, shape):
    # copies of a valid point, so that only the shape is wrong
    with pytest.raises(ValueError, match=re.escape(f"not shape {shape}")):
        fn(np.resize(point, shape))


def test_pump_slice_family_refuses_a_pole():
    with pytest.raises(ValueError, match=r"\|w4\| < 1"):
        pump_slice_family(1.0)


def test_a_tolerance_override_needs_an_equals_sign(tmp_path, capsys):
    assert main(["aklt-sweep", "--tol", "eps_rank", "--out", str(tmp_path / "out")]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_config_must_be_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps([{"experiment": "aklt-sweep"}]))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: config must be an object, got list\n"


def test_a_chunk_the_stack_refuses_is_evaluated_vertex_by_vertex():
    # a stack that refuses every chunk of more than one vertex
    psi2 = psi2_sphere_family()

    def one_at_a_time(theta, phi):
        if len(theta) > 1:
            raise ValueError("one vertex at a time")
        return psi2.stack(theta, phi)

    mesh = make_sphere_mesh(4, 4)
    tensors, error = invariants._chunk_tensors(SphereFamily(one_at_a_time), mesh,
                                               slice(0, len(mesh.theta)))
    assert error is None
    assert np.array_equal(np.array(tensors), psi2.stack(mesh.theta, mesh.phi))
