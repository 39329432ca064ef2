"""The windowed link pass against the whole-mesh one, and its memory.

``link_field`` decomposes the vertices a chunk at a time and computes each
edge's link after the chunk that holds its later endpoint, from a window of
the last ``bandwidth + CHUNK`` cores.  Every link must be bit-identical to
``_edge_links`` applied to the whole-mesh core array, on plain meshes (edge
table sorted by later endpoint), reversed ones (not sorted) and meshes
whose bandwidth spans every vertex.  Errors keep their order: a failing
vertex beats any edge refusal, and the first failing edge in table order
is raised even when a later one was computed first, in an earlier vertex
chunk, or would come first in a stack ordered by later endpoint.
"""

import math
import tracemalloc

import numpy as np
import pytest

from timps import cli, invariants
from timps.config import DEFAULT_TOLS
from timps.errors import RankMismatchError
from timps.families import (
    Mesh2,
    VertexData,
    aklt_path,
    family_from_spec,
    make_sphere_mesh,
    psi2_sphere_family,
    psi2_tensor,
    pump_slice_family,
)
from timps.invariants import _edge_links, curvature_report, link_field
from timps.tensors import MpsTensor, canonical_decompose

FAMILIES = {
    "psi2": psi2_sphere_family,
    "pump-0.7": lambda: pump_slice_family(0.7),
    "aklt": lambda: family_from_spec({"family": "aklt"}),
}

# CHUNK -> a mesh with more vertices than CHUNK: the default, 7, and one below
# the mesh's n_phi (the bandwidth), so the window spans more than one chunk
CHUNKS = {
    "chunk-default": (invariants.CHUNK, (4, invariants.CHUNK - 2)),
    "chunk-7": (7, (6, 5)),
    "chunk-below-n_phi": (5, (6, 8)),
}


@pytest.fixture(params=list(CHUNKS))
def chunk_mesh(request, monkeypatch):
    chunk, shape = CHUNKS[request.param]
    monkeypatch.setattr(invariants, "CHUNK", chunk)
    return chunk, make_sphere_mesh(*shape)


def bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def outcome(fn, *args):
    try:
        return "ok", bits(fn(*args))
    except Exception as exc:  # the error's type and text are the outcome
        return "raised", type(exc), str(exc)


def whole_mesh_cores(family, mesh):
    """Every vertex's core in one array, from one decomposition call."""
    tensors = (family.stack(mesh.theta, mesh.phi) if hasattr(family, "stack")
               else [t.mats for t in family.tensors])
    return np.array([dec.K for dec in canonical_decompose(np.array(tensors))])


def whole_mesh_links(family, mesh):
    """``_edge_links`` of every edge, from the whole-mesh core array."""
    cores = whole_mesh_cores(family, mesh)
    u, v = mesh.edges.T
    return _edge_links(cores[u], cores[v], DEFAULT_TOLS)


def permuted(mesh, perm):
    """``mesh`` with vertex ``x`` renamed ``perm[x]``."""
    inverse = np.argsort(perm)
    return Mesh2(n_theta=mesh.n_theta, n_phi=mesh.n_phi, plaquettes=perm[mesh.plaquettes],
                 cell_theta_lo=mesh.cell_theta_lo, cell_phi_lo=mesh.cell_phi_lo,
                 theta=mesh.theta[inverse].copy(), phi=mesh.phi[inverse].copy())


def bandwidth(mesh):
    return int(np.abs(np.subtract(*mesh.edges.T)).max())


@pytest.mark.parametrize("reverse", [False, True], ids=["plain", "reversed"])
@pytest.mark.parametrize("name", list(FAMILIES))
def test_window_links_are_the_whole_mesh_links(name, reverse, chunk_mesh):
    chunk, mesh = chunk_mesh
    mesh = mesh.reversed() if reverse else mesh
    later = mesh.edges.max(axis=1)
    assert bool(np.all(np.diff(later) >= 0)) is not reverse  # reversed tables are unsorted
    assert len(mesh.theta) > bandwidth(mesh) + chunk  # so old cores are dropped
    family = FAMILIES[name]()
    assert bits(link_field(family, mesh).values) == bits(whole_mesh_links(family, mesh))


@pytest.mark.parametrize("name", list(FAMILIES))
def test_bandwidth_spanning_mesh_keeps_every_core(name, chunk_mesh, monkeypatch):
    chunk, mesh = chunk_mesh
    n = len(mesh.theta)
    # even vertices count up from 0, odd ones down from n - 1: the poles'
    # neighbours, and every ring's, get ids about n apart
    perm = np.empty(n, dtype=np.intp)
    perm[0::2], perm[1::2] = np.arange((n + 1) // 2), n - 1 - np.arange(n // 2)
    spanning = permuted(mesh, perm)
    assert bandwidth(spanning) + chunk >= n
    sizes = []
    real = invariants._vertex_cores

    def spy(family, mesh, size, tols):
        sizes.append(size)
        return real(family, mesh, size, tols)

    monkeypatch.setattr(invariants, "_vertex_cores", spy)
    family = FAMILIES[name]()
    values = link_field(family, spanning).values
    assert sizes == [n]
    assert bits(values) == bits(whole_mesh_links(family, spanning))
    # the same edges in the same table order, renamed: the same links
    assert bits(values) == bits(link_field(family, mesh).values)
    assert bits(curvature_report(family, spanning).curvature) == bits(
        curvature_report(family, mesh).curvature)


def out_of_order_edges(mesh, chunk, within):
    """Table positions ``i < j`` of two edges with no shared endpoint, the
    later endpoint of ``j`` before that of ``i``: in the same vertex chunk
    (``within``), so a stack ordered by later endpoint would put ``j``
    first, or in an earlier chunk, so ``j``'s link is computed first."""
    later = mesh.edges.max(axis=1)
    block = later // chunk
    for j in range(len(later)):
        ahead = block[:j] == block[j] if within else block[:j] > block[j]
        for i in np.flatnonzero(ahead & (later[:j] > later[j])):
            if not set(mesh.edges[i].tolist()) & set(mesh.edges[j].tolist()):
                return int(i), int(j)
    raise AssertionError("no edge pair is computed out of table order")


def per_edge_failure(tensors, mesh):
    """The error a per-edge loop in table order raises first, each vertex
    decomposed on its own."""
    cores = [canonical_decompose([t.mats])[0].K for t in tensors]
    for u, v in mesh.edges.tolist():
        if cores[u].shape[0] != cores[v].shape[0]:
            return "raised", ValueError, "cores must share the physical dimension"
        got = outcome(_edge_links, cores[u][None], cores[v][None], DEFAULT_TOLS)
        if got[0] == "raised":
            return got
    raise AssertionError("every edge passed")


def orthogonal_across(mesh, edges):
    """psi2 states on one great circle, orthogonal across ``edges`` (with no
    shared endpoint) and nowhere else, or None: the first edge's overlap is
    cos(pi/2), the others' sin(2e-9) and up, all below the floor, so their
    errors differ."""
    for sign in (1.0, -1.0):
        angle = np.zeros(len(mesh.theta))
        for k, e in enumerate(edges):
            a = math.pi / 4 - 1e-9 * k
            angle[mesh.edges[e]] = (a, -a) if k % 2 == 0 else (sign * a, -sign * a)
        tensors = [psi2_tensor(math.cos(a), math.sin(a)) for a in angle.tolist()]
        cores = whole_mesh_cores(VertexData(tuple(tensors)), mesh)
        refused = [k for k, (u, v) in enumerate(mesh.edges.tolist())
                   if outcome(_edge_links, cores[u][None], cores[v][None], DEFAULT_TOLS)[0]
                   == "raised"]
        if refused == sorted(edges):
            return tensors
    return None


def two_refusals(mesh, chunk, within=False):
    i, j = out_of_order_edges(mesh, chunk, within)
    tensors = orthogonal_across(mesh, [i, j])
    assert tensors is not None, "no angles refuse exactly the two edges"
    return tensors, i, j


@pytest.mark.parametrize("within", [False, True], ids=["across-chunks", "within-a-chunk"])
def test_first_refused_edge_in_table_order_is_raised(chunk_mesh, within):
    chunk, mesh = chunk_mesh
    mesh = mesh.reversed()
    tensors, i, j = two_refusals(mesh, chunk, within)
    cores = whole_mesh_cores(VertexData(tuple(tensors)), mesh)
    (u_i, v_i), (u_j, v_j) = mesh.edges[i], mesh.edges[j]
    first = outcome(_edge_links, cores[u_i][None], cores[v_i][None], DEFAULT_TOLS)
    assert first != outcome(_edge_links, cores[u_j][None], cores[v_j][None], DEFAULT_TOLS)
    assert first == per_edge_failure(tensors, mesh)
    assert outcome(link_field, VertexData(tuple(tensors)), mesh) == first


def test_refused_edge_before_a_dimension_mismatch_is_raised(chunk_mesh):
    # edge i is refused; vertex w has d = 3, so each of its edges, all after
    # i in the table, has mismatched dimensions; one of them, j, has its later
    # endpoint in i's vertex chunk but before i's
    chunk, mesh = chunk_mesh
    mesh = mesh.reversed()
    later, n_edges = mesh.edges.max(axis=1), mesh.n_edges
    first_touch = np.full(len(mesh.theta), n_edges)
    np.minimum.at(first_touch, mesh.edges.ravel(), np.repeat(np.arange(n_edges), 2))
    for i in range(n_edges):
        j = np.flatnonzero((later // chunk == later[i] // chunk) & (later < later[i])
                           & (np.arange(n_edges) > i))
        w = [x for x in mesh.edges[j].ravel().tolist()
             if first_touch[x] > i and x not in mesh.edges[i]]
        if w:
            break
    i, w = i, w[0]
    tensors = orthogonal_across(mesh, [i])
    tensors[w] = MpsTensor(np.array([0.6, 0.0, 0.8], dtype=complex).reshape(3, 1, 1))
    expected = per_edge_failure(tensors, mesh)
    assert expected[1] is not ValueError  # edge i's refusal
    assert outcome(link_field, VertexData(tuple(tensors)), mesh) == expected


def test_failing_vertex_after_a_refused_edge_raises_its_error(chunk_mesh):
    chunk, mesh = chunk_mesh
    mesh = mesh.reversed()
    tensors, *_ = two_refusals(mesh, chunk)
    last = len(tensors) - 1
    assert last >= 2 * chunk  # in a later chunk than an edge refused before it
    tensors[last] = MpsTensor(aklt_path(0.5).mats)
    got = outcome(link_field, VertexData(tuple(tensors)), mesh)
    assert got == ("raised", RankMismatchError,
                   "family does not have constant essential rank on the mesh: "
                   f"1 vs 2 at vertex {last}")


def test_window_slots_are_zero_padded_to_the_widest_core(monkeypatch):
    # vertex 2 has d = 3 and a third row, the others d = 2: a slot that a
    # d = 2 vertex reuses must not keep that row
    monkeypatch.setattr(invariants, "CHUNK", 7)
    mesh = make_sphere_mesh(6, 5)
    n = len(mesh.theta)
    tensors = [psi2_tensor(math.cos(a), math.sin(a)) for a in mesh.theta.tolist()]
    tensors[2] = MpsTensor(np.array([0.6, 0.0, 0.8], dtype=complex).reshape(3, 1, 1))
    windows = invariants._vertex_cores(VertexData(tuple(tensors)), mesh, 7, DEFAULT_TOLS)
    for start, (window, dims) in zip(range(0, n, 7), windows):
        assert window.shape[1] == 3
        for x in range(start, min(start + 7, n)):
            assert dims[x % 7] == (3 if x == 2 else 2)
            assert not window[x % 7, dims[x % 7]:].any()


def test_curvature_report_holds_the_mesh_tables_and_a_chunk_allowance():
    mesh = make_sphere_mesh(128, 128)
    family = pump_slice_family(0.7)
    curvature_report(family, make_sphere_mesh(8, 8))  # lazy imports and caches
    tables = sum(getattr(mesh, name).nbytes for name in (
        "plaquettes", "cell_theta_lo", "cell_phi_lo", "theta", "phi", "edges",
        "plaquette_edges", "plaquette_signs"))
    tracemalloc.start()
    try:
        curvature_report(family, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 2.8 MB at CHUNK = 1024 (numpy 2.4); every core and slot link at
    # once would take about 8 MB
    assert peak < tables + 1536 * invariants.CHUNK


def test_csv_peak_does_not_grow_with_rows(tmp_path):
    def traced_peak(rows):
        rng = np.random.default_rng(rows)
        columns = {"plaquette_id": np.arange(rows), "theta_lo": rng.random(rows),
                   "phi_lo": rng.random(rows), "curvature": rng.normal(size=rows)}
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / f"{rows}.csv", "chern", None, columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(16384), traced_peak(65536)
    # holding every line would add about 100 bytes a row, 4.8 MB over these 48k
    assert large - small < 64 * 1024


def test_csv_bytes_do_not_depend_on_the_chunk(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    values = rng.choice([0.0, -0.0, 1.5, math.nan, 1e-300], size=50)
    columns = {"kind": ["a", "b"] * 25, "index": list(range(50)), "value": values}
    cli._write_csv(tmp_path / "default.csv", "x", 3, columns)
    monkeypatch.setattr(cli, "CHUNK", 7)
    cli._write_csv(tmp_path / "seven.csv", "x", 3, columns)
    assert (tmp_path / "seven.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
