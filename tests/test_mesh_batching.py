"""The stacked mesh path against a per-vertex, per-edge reference.

The reference below is the plain loop: one canonical decomposition per
vertex, one Kronecker-sum mixed transfer per edge, one dictionary walk per
plaquette.  The library's chunked path must reproduce its curvature within
1e-12, its Chern value and flags exactly, and its first error.
"""

import json
import math

import numpy as np
import pytest

import timps.tensors
from timps import invariants
from timps.cli import main
from timps.errors import (
    DegenerateLeadingEigenvalueError,
    TimpsError,
    FlaggedPlaquetteError,
    NotInEError,
    OutOfChartError,
    RankMismatchError,
    VanishingOverlapError,
)
from timps.families import (
    SphereFamily,
    aklt_path,
    boundary_generator_family,
    make_sphere_mesh,
    psi2_sphere_family,
    psi2_tensor,
    pump_slice_family,
)
from timps.invariants import (
    BRANCH_CUT_MARGIN,
    OVERLAP_FLOOR,
    chern_number,
    chern_verdict,
    curvature_report,
    link_field,
    link_variable,
)
from timps.sampling import random_core, random_tensor_in_e
from timps.tensors import (
    MpsTensor,
    canonical_decompose,
    mixed_transfer_leading,
    pad_tensor,
    tensor_to_json,
)


def oracle_mixed_leading(K_a, K_b):
    """Leading eigenvalue of sum_i K_a^i (x) conj(K_b^i), built term by term."""
    chi_a, chi_b = K_a.shape[1], K_b.shape[1]
    mat = np.zeros((chi_a * chi_b, chi_a * chi_b), dtype=complex)
    for i in range(K_a.shape[0]):
        mat += np.kron(K_a[i], K_b[i].conj())
    vals = np.linalg.eigvals(mat)
    return vals[int(np.argmax(np.abs(vals)))]


def vertex_tensors(family, mesh):
    """The tensors at the mesh vertices, in order, one at a time: vertex
    data as given, a family by its N=1 call."""
    if isinstance(family, tuple):
        yield from family
    else:
        for theta, phi in zip(mesh.theta.tolist(), mesh.phi.tolist()):
            yield family.eval_vertex(theta, phi)


def oracle_curvature(family, mesh):
    """Per-plaquette curvature, flags and total by the plain loops."""
    cores, chi = [], None
    for index, tensor in enumerate(vertex_tensors(family, mesh)):
        dec = canonical_decompose(tensor)
        if chi is None:
            chi = dec.chi
        elif dec.chi != chi:
            raise RankMismatchError(
                f"family does not have constant essential rank on the mesh: "
                f"{chi} vs {dec.chi} at vertex {index}"
            )
        cores.append(dec.K)
    links = {}
    for quad in mesh.plaquettes:
        for a in range(4):
            u, v = int(quad[a]), int(quad[(a + 1) % 4])
            if u == v or (u, v) in links or (v, u) in links:
                continue
            value = oracle_mixed_leading(cores[u], cores[v])
            mod = abs(value)
            if mod < OVERLAP_FLOOR:
                raise VanishingOverlapError(
                    f"leading overlap modulus {mod:.3e} below {OVERLAP_FLOOR:.1e}; "
                    "states nearly orthogonal (mesh too coarse)"
                )
            links[(u, v)] = value / mod

    def link(u, v):
        if u == v:
            return 1.0
        return links[(u, v)] if (u, v) in links else np.conj(links[(v, u)])

    curvature = np.array([
        np.angle(np.prod([link(int(q[a]), int(q[(a + 1) % 4])) for a in range(4)]))
        for q in mesh.plaquettes
    ])
    flagged = tuple(int(p) for p in
                    np.flatnonzero(np.abs(curvature) > np.pi - BRANCH_CUT_MARGIN))
    return curvature, flagged, curvature.sum() / (2.0 * np.pi)


def psi2_at_vertices(mesh):
    return [MpsTensor(m) for m in psi2_sphere_family().stack(mesh.theta, mesh.phi)]


def spun_family(mesh):
    """psi2 with a vertex-dependent phase: the same curvature, other links."""
    return tuple(MpsTensor(A.mats * np.exp(0.37j * k))
                 for k, A in enumerate(psi2_at_vertices(mesh)))


def bloch(theta, phi):
    return psi2_tensor(math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2))


# name -> the family (or vertex data) on a given mesh
FAMILIES = {
    "psi2": lambda mesh: psi2_sphere_family(),
    "boundary": lambda mesh: boundary_generator_family(),
    "pump-0.2": lambda mesh: pump_slice_family(0.2),
    "pump-0.55": lambda mesh: pump_slice_family(0.55),
    "pump-0.7": lambda mesh: pump_slice_family(0.7),
    "pump-0.8": lambda mesh: pump_slice_family(0.8),
    "spun": spun_family,
}


@pytest.fixture(params=[invariants.CHUNK, 7], ids=["chunk-default", "chunk-7"])
def chunk(request, monkeypatch):
    monkeypatch.setattr(invariants, "CHUNK", request.param)
    return request.param


@pytest.mark.parametrize("reverse", [False, True], ids=["outward", "reversed"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_stacked_curvature_matches_oracle(name, reverse, chunk):
    mesh = make_sphere_mesh(10, 12)
    if reverse:
        mesh = mesh.reversed()
    family = FAMILIES[name](mesh)
    curvature, flagged, total = oracle_curvature(family, mesh)
    found = curvature_report(family, mesh)
    nearest, _, found_flagged, _ = chern_verdict(found)
    assert np.abs(found - curvature).max() <= 1e-12
    assert found_flagged == list(flagged)
    assert nearest == round(total)


def test_mixed_transfer_kernel_matches_oracle(rng):
    for d, chi_a, chi_b in [(2, 1, 1), (4, 2, 2), (4, 2, 1), (9, 3, 2), (9, 3, 3)]:
        K_a = random_core(rng, d, chi_a).mats
        K_b = random_core(rng, d, chi_b).mats
        assert abs(mixed_transfer_leading(K_a, K_b)
                   - oracle_mixed_leading(K_a, K_b)) <= 1e-12


def assert_same_decomposition(stacked, scalar):
    assert stacked.chi == scalar.chi
    assert stacked.norm_residual == scalar.norm_residual
    for name in ("X", "K", "M", "mats"):
        assert bits(getattr(stacked, name)) == bits(getattr(scalar, name)), name


def bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def test_stacked_cores_match_scalar_decomposition():
    mesh = make_sphere_mesh(6, 6)
    tensors = [MpsTensor(m) for m in pump_slice_family(0.7).stack(mesh.theta, mesh.phi)]
    decs = canonical_decompose(np.array([t.mats for t in tensors]))
    for dec, t in zip(decs, tensors, strict=True):
        assert dec.chi == 2
        assert_same_decomposition(dec, canonical_decompose(t))


def every_refusal_stack(rng):
    """A stack of mixed essential ranks holding each refusal kind of the
    decomposition, and good tensors of rank 2 and rank 1."""
    good = random_tensor_in_e(rng, 4, 3, 2).tensor
    leaky = np.zeros((4, 3, 3), dtype=complex)
    leaky[:, :2, :2] = aklt_path(0.5).mats
    # a column past the core, below the rank cutoff but above tol_recon
    leaky[1, 0, 2] = 1e-6
    diagonal = np.zeros((4, 3, 3), dtype=complex)
    diagonal[:, [0, 1], [0, 1]] = np.full((4, 2), 0.5)  # normalized, not injective
    ambiguous = np.zeros((4, 3, 3), dtype=complex)
    ambiguous[:, :2, :2] = aklt_path(0.5).mats
    ambiguous[0, 2, 2] = np.sqrt(1e-9)  # Gram eigenvalue at the cutoff
    rank_1 = pad_tensor(psi2_tensor(0.6, 0.8), 4, 3).mats
    # the last two fail two tests each: the first refusal in precedence order names them
    return np.array([good.mats, good.mats * 1.5, leaky, diagonal, ambiguous,
                     rank_1, np.zeros((4, 3, 3)), 1.5 * leaky, 1.5 * diagonal])


def test_stacked_cores_refuse_what_the_scalar_pass_refuses(rng, monkeypatch):
    stack = every_refusal_stack(rng)
    expected = []
    for mats in stack:
        try:
            expected.append(canonical_decompose(MpsTensor(mats)))
        except TimpsError as exc:
            expected.append(exc)

    def refuse(*args, **kwargs):
        raise AssertionError("a refused tensor is decomposed again")

    monkeypatch.setattr(timps.tensors, "canonical_decompose", refuse)
    out = canonical_decompose(stack)
    for got, want in zip(out, expected, strict=True):
        if isinstance(want, TimpsError):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert_same_decomposition(got, want)
    kinds = [type(e).__name__ if isinstance(e, TimpsError) else e.chi for e in expected]
    assert kinds == [2, "NotInEError", "NotInEError", "NotInEError", "AmbiguousRankError",
                     1, "NotInEError", "NotInEError", "NotInEError"]
    assert [str(e).split(":")[0] for e in expected[1:4] + expected[6:]] == [
        "core is not right-normalized", "no block canonical form",
        "core matrices do not span the full matrix algebra",
        "tensor has numerically zero left Gram matrix", "no block canonical form",
        "core is not right-normalized"]


@pytest.mark.parametrize("shape", [(4, 4), (5, 7), (16, 16)])
def test_edge_table_pairs_every_edge_with_opposite_signs(shape):
    mesh = make_sphere_mesh(*shape)
    ids, signs = mesh.plaquette_edges, mesh.plaquette_signs
    corners = mesh.plaquettes
    heads = np.roll(corners, -1, axis=1)
    assert np.array_equal(signs == 0, corners == heads)
    live = signs != 0
    for edge in range(mesh.n_edges):
        slots = np.argwhere(live & (ids == edge))
        assert len(slots) == 2
        assert sorted(signs[p, a] for p, a in slots) == [-1, 1]
    # the table reproduces each slot's directed side
    tail = np.where(signs > 0, mesh.edges[ids, 0], mesh.edges[ids, 1])
    head = np.where(signs > 0, mesh.edges[ids, 1], mesh.edges[ids, 0])
    assert np.array_equal(tail[live], corners[live])
    assert np.array_equal(head[live], heads[live])
    # stored direction and order are those of the first traversal
    undirected = np.sort(mesh.edges, axis=1)
    assert len(np.unique(undirected, axis=0)) == mesh.n_edges
    first = [np.flatnonzero((ids == e).ravel() & live.ravel())[0]
             for e in range(mesh.n_edges)]
    assert first == sorted(first)
    assert np.array_equal(mesh.edges[:, 0], corners.ravel()[first])


def directed_sides(mesh):
    ids, signs = mesh.plaquette_edges, mesh.plaquette_signs
    tail = np.where(signs > 0, mesh.edges[ids, 0], mesh.edges[ids, 1])
    head = np.where(signs > 0, mesh.edges[ids, 1], mesh.edges[ids, 0])
    return np.where(signs != 0, tail, -1), np.where(signs != 0, head, -1)


def signed_incidence(mesh, reference):
    """Plaquette x edge incidence of ``mesh``, with edges and their
    orientation taken from the edge table of ``reference``."""
    index = {}
    for e, (u, v) in enumerate(reference.edges):
        index[(u, v)], index[(v, u)] = (e, 1), (e, -1)
    tail, head = directed_sides(mesh)
    out = np.zeros((mesh.n_plaquettes, reference.n_edges), dtype=int)
    for (p, a), u in np.ndenumerate(tail):
        if u >= 0:
            e, sign = index[(u, head[p, a])]
            out[p, e] += sign
    return out


def test_reversed_mesh_flips_every_side():
    mesh = make_sphere_mesh(6, 8)
    rev = mesh.reversed()
    tail, head = directed_sides(mesh)
    rtail, rhead = directed_sides(rev)
    # slot a of a reversed plaquette runs along slot (2 - a) mod 4, backwards
    back = [(2 - a) % 4 for a in range(4)]
    assert np.array_equal(rtail, head[:, back])
    assert np.array_equal(rhead, tail[:, back])
    incidence = signed_incidence(mesh, mesh)
    assert np.array_equal(signed_incidence(rev, mesh), -incidence)
    assert np.array_equal(np.abs(incidence).sum(axis=0), np.full(mesh.n_edges, 2))
    assert not incidence.sum(axis=0).any()


def test_link_field_values_are_the_oracle_links(chunk):
    mesh = make_sphere_mesh(6, 6)
    family = spun_family(mesh)
    values = link_field(family, mesh)
    assert values.shape == (mesh.n_edges,)
    cores = [canonical_decompose(A).K for A in family]
    for (u, v), value in zip(mesh.edges, values):
        ref = oracle_mixed_leading(cores[u], cores[v])
        assert abs(value - ref / abs(ref)) <= 1e-12


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def parity_cases():
    mesh = make_sphere_mesh(4, 4)
    n = len(mesh.theta)
    base = aklt_path(0.5)
    rank_jump = [base] * n
    rank_jump[3] = aklt_path(0.0)
    not_in_e = [base] * n
    not_in_e[5] = MpsTensor(base.mats * 2.0)
    not_in_e[9] = aklt_path(0.0)
    orthogonal = [psi2_tensor(1.0, 0.0)] * n
    orthogonal[6] = psi2_tensor(0.0, 1.0)
    return {
        "rank-jump-at-3": (tuple(rank_jump), RankMismatchError,
                           "2 vs 1 at vertex 3"),
        "non-E-vertex": (tuple(not_in_e), NotInEError, "right-normalized"),
        "vanishing-overlap": (tuple(orthogonal), VanishingOverlapError,
                              "0.000e+00"),
    }


@pytest.mark.parametrize("case", ["rank-jump-at-3", "non-E-vertex", "vanishing-overlap"])
def test_error_parity_with_oracle(case, chunk):
    family, kind, fragment = parity_cases()[case]
    mesh = make_sphere_mesh(4, 4)
    expected = raised(oracle_curvature, family, mesh)
    assert expected[0] is kind and fragment in expected[1]
    assert raised(curvature_report, family, mesh) == expected


def passes_per_chunk(tensors, chunk, last):
    """The stack shapes of one decomposition pass per tensor shape per chunk
    of vertex data, shapes in order of first appearance, over the chunks up
    to the one holding vertex ``last``."""
    passes = []
    for start in range(0, last + 1, chunk):
        shapes = [t.mats.shape for t in tensors[start:start + chunk]]
        passes += [(shapes.count(s),) + s for s in dict.fromkeys(shapes)]
    return passes


@pytest.mark.parametrize("case", ["rank-jump-at-3", "non-E-vertex"])
@pytest.mark.parametrize("mixed_shapes", [False, True], ids=["one-shape", "mixed-shapes"])
def test_mesh_refusals_come_from_the_stacked_pass(case, mixed_shapes, chunk, monkeypatch,
                                                  count_passes):
    family, _, _ = parity_cases()[case]
    mesh = make_sphere_mesh(4, 4)
    if mixed_shapes:
        # vertex 12, after every failing vertex, has a larger bond dimension
        family = tuple(padded_at(family, 12, D=3))
    expected = raised(oracle_curvature, family, mesh)

    def refuse(*args, **kwargs):
        raise AssertionError("a refused tensor is decomposed again")

    for module in (invariants, timps.tensors):
        monkeypatch.setattr(module, "canonical_decompose", refuse)
    passes = count_passes()
    assert raised(curvature_report, family, mesh) == expected
    # one pass per tensor shape per chunk, up to the chunk of the failing vertex
    last = {"rank-jump-at-3": 3, "non-E-vertex": 5}[case]
    assert passes == passes_per_chunk(family, chunk, last)
    if chunk > len(mesh.theta):
        assert passes == ([(13, 4, 2, 2), (1, 4, 3, 3)] if mixed_shapes else [(14, 4, 2, 2)])


@pytest.mark.parametrize("mixed_shapes", [False, True], ids=["one-shape", "mixed-shapes"])
def test_vertex_data_takes_one_pass_per_shape(mixed_shapes, chunk, count_passes):
    mesh = make_sphere_mesh(8, 8)
    psi2 = psi2_at_vertices(mesh)
    family = tuple(padded_at(psi2, 5, D=3) if mixed_shapes else psi2)
    passes = count_passes()
    curvature = curvature_report(family, mesh)
    assert passes == passes_per_chunk(family, chunk, len(mesh.theta) - 1)
    if chunk > len(mesh.theta):
        assert passes == ([(57, 2, 1, 1), (1, 2, 3, 3)] if mixed_shapes else [(58, 2, 1, 1)])
    assert np.abs(curvature - curvature_report(psi2_sphere_family(), mesh)).max() <= 1e-12


def stack_by_vertex(mesh, at):
    """A family whose stack evaluates ``at(k)`` point by point, with ``k``
    the mesh vertex at the point's angles; it raises what ``at`` raises."""
    index = {v: k for k, v in enumerate(zip(mesh.theta.tolist(), mesh.phi.tolist()))}

    def stack(theta, phi):
        return np.array([at(index[v]).mats for v in zip(theta.tolist(), phi.tolist())])

    return SphereFamily(stack)


def test_decomposition_error_precedes_later_evaluation_error(chunk):
    mesh = make_sphere_mesh(4, 4)
    bad = MpsTensor(aklt_path(0.5).mats * 2.0)

    def at(k):
        if k == 8:
            raise OutOfChartError("vertex 8 is outside every chart")
        return bad if k == 2 else aklt_path(0.5)

    family = stack_by_vertex(mesh, at)
    assert raised(curvature_report, family, mesh) == raised(oracle_curvature, family, mesh)
    assert raised(curvature_report, family, mesh)[0] is NotInEError

    def out_of_chart(k):
        if k == 8:
            raise OutOfChartError("vertex 8 is outside every chart")
        return aklt_path(0.5)

    assert raised(curvature_report, stack_by_vertex(mesh, out_of_chart), mesh) == (
        OutOfChartError, "vertex 8 is outside every chart")


def near_tie_cores():
    """Two injective right-normalized cores whose mixed map has eigenvalues
    (1 + i)/2 and (1 - i)/2: equal moduli, so the link phase is undefined."""
    paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                       [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex) / 2
    return MpsTensor(paulis), MpsTensor(paulis * np.array([1, 1, -1j, -1j])[:, None, None])


def test_near_tie_links_are_refused(chunk):
    A, B = near_tie_cores()
    with pytest.raises(DegenerateLeadingEigenvalueError):
        link_variable(A, B)
    mesh = make_sphere_mesh(4, 4)
    tensors = [A] * len(mesh.theta)
    tensors[6] = B
    with pytest.raises(DegenerateLeadingEigenvalueError):
        link_field(tuple(tensors), mesh)


def flagged_family(mesh):
    """North-pole states except one plaquette whose corners circle the Bloch
    equator just above it: that plaquette's curvature is close to -pi."""
    tensors = [bloch(0.0, 0.0)] * len(mesh.theta)
    for k, vid in enumerate(mesh.plaquettes[4]):
        tensors[vid] = bloch(math.pi / 2 - 0.02, k * math.pi / 2)
    return tensors


def test_flagged_plaquettes_are_refused(tmp_path):
    mesh = make_sphere_mesh(4, 4)
    tensors = flagged_family(mesh)
    family = tuple(tensors)
    assert chern_verdict(curvature_report(family, mesh))[2] == [4]
    assert oracle_curvature(family, mesh)[1] == (4,)
    with pytest.raises(FlaggedPlaquetteError, match=r"\[4\]"):
        chern_number(family, mesh)

    spec = {"family": "custom",
            "params": {"tensors": [tensor_to_json(t) for t in tensors]}}
    spec_path = tmp_path / "family.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["chern", "--family", f"@{spec_path}", "--mesh", "4x4",
                 "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "chern.json").read_text())
    assert doc["summary"]["chern"] == 0
    assert doc["summary"]["flagged_plaquettes"] == [4]
    assert doc["failures"] == ["1 plaquette(s) within 0.1 of +-pi (mesh too coarse): [4]"]


def padded_at(tensors, index, d=None, D=None):
    """``tensors`` with the one at ``index`` zero-padded to ``d`` and ``D``."""
    out = list(tensors)
    out[index] = pad_tensor(out[index], d or out[index].d, D or out[index].D)
    return out


def test_mixed_bond_dimension_keeps_the_curvature(chunk):
    mesh = make_sphere_mesh(4, 4)
    curvature = curvature_report(tuple(padded_at(psi2_at_vertices(mesh), 5, D=3)),
                                 mesh)
    assert np.abs(curvature - curvature_report(psi2_sphere_family(), mesh)).max() <= 1e-12


def orthogonal_at(n, index):
    tensors = [psi2_tensor(1.0, 0.0)] * n
    tensors[index] = psi2_tensor(0.0, 1.0)
    return tensors


def mixed_d_tensors(mesh, case):
    n = len(mesh.theta)
    if case == "psi2-d3-at-5":
        return padded_at(psi2_at_vertices(mesh), 5, d=3)
    if case == "orthogonal-6-d3-at-9":
        # an edge at vertex 6 comes before every edge at vertex 9
        return padded_at(orthogonal_at(n, 6), 9, d=3)
    if case == "aklt-d5-at-edge-0":
        # chi = 2: the first edge of the first chunk already mixes dimensions
        return padded_at([aklt_path(0.5)] * n, int(mesh.edges[0, 0]), d=5)
    return padded_at(orthogonal_at(n, 12), 2, d=3)


@pytest.mark.parametrize("case, kind", [
    ("psi2-d3-at-5", ValueError),
    ("aklt-d5-at-edge-0", ValueError),
    ("orthogonal-6-d3-at-9", VanishingOverlapError),
    ("d3-at-2-orthogonal-12", ValueError),
])
def test_mixed_physical_dimension_is_refused(case, kind, chunk):
    mesh = make_sphere_mesh(4, 4)
    family = tuple(mixed_d_tensors(mesh, case))
    error = raised(curvature_report, family, mesh)
    if kind is ValueError:
        assert error == (ValueError, "cores must share the physical dimension")
    else:
        assert error[0] is kind and error == raised(oracle_curvature, family, mesh)
