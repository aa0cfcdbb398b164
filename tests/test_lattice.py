import functools
import hashlib
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowlab.lattice import (
    DEFAULT_GUARD_LEVEL,
    GUARD_ENV_VAR,
    LevelGuardError,
    Mesh,
    MeshInvariantError,
    _lex_keys,
    boundary_cycle,
    boundary_hop_distance,
    build_mesh,
    cartesian_coordinates,
    validate,
)


def rot60(v: tuple[int, int]) -> tuple[int, int]:
    """Rotate a lattice vector by +60 degrees."""
    return (-v[1], v[0] + v[1])


def rot_minus60(v: tuple[int, int]) -> tuple[int, int]:
    """Rotate a lattice vector by -60 degrees."""
    return (v[0] + v[1], -v[0])


def cross(u: tuple[int, int], v: tuple[int, int]) -> int:
    """Sign-carrying cross product of two lattice vectors.

    Positive iff v lies counterclockwise of u (the basis (e1, e2) is
    positively oriented).
    """
    return u[0] * v[1] - u[1] * v[0]


def koch_snowflake_polygon(level: int) -> np.ndarray:
    """Independent turtle oracle for the level-n snowflake boundary polygon.

    Expands each side of the counterclockwise unit triangle by the Koch
    rewriting rule (straight third, -60 turn, +120 turn, -60 turn), carried
    out entirely in integer lattice coordinates at scale 3**-level.  Returns
    the (3 * 4**level, 2) vertex sequence, counterclockwise, starting at
    the origin.  Used to cross-check the mesh boundary cycle.
    """
    def expand(d, k):
        if k == 0:
            return [d]
        parts = [d, rot_minus60(d), rot60(d), d]
        out = []
        for p in parts:
            out.extend(expand(p, k - 1))
        return out

    s = 3 ** level
    pts = []
    pos = (0, 0)
    for d0 in ((1, 0), (-1, 1), (0, -1)):
        start = pos
        for step in expand(d0, level):
            pts.append(pos)
            pos = (pos[0] + step[0], pos[1] + step[1])
        # each side spans s lattice units
        assert pos == (start[0] + s * d0[0], start[1] + s * d0[1])
    assert pos == (0, 0)
    return np.array(pts, dtype=np.int64)

# Census of the first five refinement levels: total, boundary and interior
# vertices, triangles, edges.  Boundary count is 3*4^n; Euler gives
# E = V + T - 1 for a disk.
CENSUS = {
    0: (3, 3, 0, 1, 3),
    1: (13, 12, 1, 12, 24),
    2: (85, 48, 37, 120, 204),
    3: (661, 192, 469, 1128, 1788),
    4: (5557, 768, 4789, 10344, 15900),
}


@pytest.mark.parametrize("level", sorted(CENSUS))
def test_census(level):
    v, b, i, t, e = CENSUS[level]
    mesh = build_mesh(level)
    assert mesh.num_vertices == v
    assert mesh.num_boundary_vertices == b
    assert mesh.num_interior_vertices == i
    assert len(mesh.triangles) == t
    assert len(mesh.edges) == e


@pytest.mark.parametrize("level", range(4))
def test_invariants(level):
    report = validate(build_mesh(level))
    assert report.ok, str(report)


def test_validate_memory_bound():
    # every temporary of validate is O(E): its traced peak on a warm call
    # stays within 2.5 times the bytes of the mesh arrays
    mesh = build_mesh(5)
    arrays = (mesh.vertices, mesh.triangles, mesh.edges,
              mesh.edge_is_boundary, mesh.boundary_flags)
    validate(mesh)
    tracemalloc.start()
    try:
        assert validate(mesh).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sum(x.nbytes for x in arrays)


def test_validate_rejects_indices_too_wide_for_keys(mesh2):
    # an index pair keys as one int64, so indices spanning 2**32 raise
    # rather than wrap around into a false match
    t = mesh2.triangles.copy()
    t[0, 2] = 2**32
    bad = Mesh(level=2, vertices=mesh2.vertices, triangles=t,
               edges=mesh2.edges, edge_is_boundary=mesh2.edge_is_boundary,
               boundary_flags=mesh2.boundary_flags)
    with pytest.raises(OverflowError):
        validate(bad)


def test_euler_characteristic():
    for level in range(5):
        mesh = build_mesh(level)
        assert mesh.num_vertices - len(mesh.edges) + len(mesh.triangles) == 1


def test_degrees(mesh3):
    deg = mesh3.degrees()
    assert deg.dtype == np.int64 and deg.shape == (mesh3.num_vertices,)
    assert np.all(deg[~mesh3.boundary_flags] == 6)
    assert set(deg[mesh3.boundary_flags]) == {2, 5}


def test_level0_boundary_degrees(mesh0):
    # the initial triangle has no appended tips yet
    assert set(mesh0.degrees()) == {2}
    assert mesh0.num_interior_vertices == 0


coord = st.integers(min_value=-3**6, max_value=3**6)


@given(a=coord, b=coord)
@settings(max_examples=200)
def test_rotation_identities(a, b):
    v = (a, b)
    assert rot_minus60(rot60(v)) == v
    w = v
    for _ in range(6):
        w = rot60(w)
    assert w == v
    if v != (0, 0):
        assert cross(v, rot60(v)) > 0


@given(a=coord, b=coord, c=coord, d=coord)
@settings(max_examples=100)
def test_cross_antisymmetric(a, b, c, d):
    assert cross((a, b), (c, d)) == -cross((c, d), (a, b))


def test_vertices_sorted_unique(mesh2):
    v = mesh2.vertices
    order = np.lexsort((v[:, 1], v[:, 0]))
    assert np.array_equal(order, np.arange(len(v)))
    assert len(np.unique(v, axis=0)) == len(v)


def test_edges_normalized(mesh2):
    e = mesh2.edges
    assert np.all(e[:, 0] < e[:, 1])
    assert len(np.unique(e, axis=0)) == len(e)


@pytest.mark.parametrize("level", range(5))
def test_unit_steps_are_edges(level):
    # validate checks that every edge is one lattice step long; conversely,
    # every pair of vertices one lattice step apart is an edge
    mesh = build_mesh(level)
    index = {p: v for v, p in enumerate(map(tuple, mesh.vertices.tolist()))}
    steps = set()
    for (a, b), v in index.items():
        for da, db in ((1, 0), (0, 1), (-1, 1)):
            w = index.get((a + da, b + db))
            if w is not None:
                steps.add((min(v, w), max(v, w)))
    assert steps == set(map(tuple, mesh.edges.tolist()))


def test_edge_lengths(mesh2):
    # every edge spans one lattice step: 3^-n in cartesian units
    xy = cartesian_coordinates(mesh2)
    d = xy[mesh2.edges[:, 0]] - xy[mesh2.edges[:, 1]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    assert np.allclose(lengths, 3.0**-2, rtol=1e-12, atol=0)


@pytest.mark.parametrize("level", range(4))
def test_boundary_cycle(level):
    mesh = build_mesh(level)
    cyc = boundary_cycle(mesh)
    assert len(cyc) == 3 * 4**level
    assert set(cyc) == set(mesh.boundary_vertices.tolist())
    # consecutive cycle vertices share a boundary edge
    eset = {tuple(e) for e, b in zip(mesh.edges.tolist(), mesh.edge_is_boundary) if b}
    for u, v in zip(cyc, np.roll(cyc, -1)):
        assert (min(u, v), max(u, v)) in eset
    # counterclockwise orientation
    xy = cartesian_coordinates(mesh)[cyc]
    area2 = np.sum(xy[:, 0] * np.roll(xy[:, 1], -1) - np.roll(xy[:, 0], -1) * xy[:, 1])
    assert area2 > 0


@pytest.mark.parametrize("level", range(4))
def test_boundary_matches_polygon_oracle(level):
    # mesh boundary cycle against an independent turtle-walk construction
    mesh = build_mesh(level)
    cyc = boundary_cycle(mesh)
    got = [tuple(p) for p in mesh.vertices[cyc]]
    want = [tuple(p) for p in koch_snowflake_polygon(level)]
    assert len(got) == len(want)
    shift = want.index(got[0])
    rotated = want[shift:] + want[:shift]
    assert got == rotated


def _bfs_hops(mesh):
    """Hop distance to the boundary by a plain multi-source BFS."""
    adj = [[] for _ in range(mesh.num_vertices)]
    for i, j in mesh.edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    dist = [-1] * mesh.num_vertices
    queue = deque(mesh.boundary_vertices.tolist())
    for v in queue:
        dist[v] = 0
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return np.array(dist, dtype=np.int64)


def test_hop_distance(mesh3):
    dist = boundary_hop_distance(mesh3)
    assert np.all(dist[mesh3.boundary_flags] == 0)
    assert np.all(dist[~mesh3.boundary_flags] >= 1)
    # 1-Lipschitz along edges
    diff = np.abs(dist[mesh3.edges[:, 0]] - dist[mesh3.edges[:, 1]])
    assert diff.max() <= 1
    # exact distances against a plain BFS
    for level in range(7):
        mesh = build_mesh(level)
        dist = boundary_hop_distance(mesh)
        assert dist.dtype == np.int64
        assert np.array_equal(dist, _bfs_hops(mesh))


def test_level_guard(monkeypatch):
    with pytest.raises(LevelGuardError):
        build_mesh(DEFAULT_GUARD_LEVEL + 1)
    monkeypatch.setenv(GUARD_ENV_VAR, "2")
    build_mesh(2)
    with pytest.raises(LevelGuardError):
        build_mesh(3)


def test_level_guard_env(monkeypatch):
    monkeypatch.setenv(GUARD_ENV_VAR, "1")
    with pytest.raises(LevelGuardError):
        build_mesh(2)
    monkeypatch.setenv(GUARD_ENV_VAR, "3")
    assert build_mesh(3).level == 3


def test_negative_level_rejected():
    with pytest.raises(ValueError):
        build_mesh(-1)


def test_mesh_arrays_read_only(mesh1):
    with pytest.raises(ValueError):
        mesh1.vertices[0, 0] = 99


# SHA-256 of the raw bytes of vertices, triangles, edges, edge_is_boundary and
# boundary_flags, recorded from the dictionary-based construction that
# preceded the array code.  Any change to the mesh output shows here.
MESH_DIGESTS = {
    0: (
        "d54022a95f8cd0423895774b4da8dc324ffbe972d9dd8a43cc00329157cbee52",
        "ab25350e3e65efebe24584461683ecda68725576e825e550038b90e7b1479946",
        "79804fd0053199256af1dee6baa3c44ee78fc1c597da9105d41e7d1fca910d6b",
        "75c8fd04ad916aec3e3d5cb76a452b116b3d4d0912a0a485e9fb8e3d240e210c",
        "75c8fd04ad916aec3e3d5cb76a452b116b3d4d0912a0a485e9fb8e3d240e210c",
    ),
    1: (
        "8caec317a28661ac7821e37fc66df505ffb86ea1efea6348aa4696bff1122d48",
        "27d4320e0fcd291d7c848d4a705f9ebecd9fdbdbdff340f6edb77fe8f84f5e64",
        "1a075650a48411e850b132dec95bfddcc9d726bb4a893992678c0563ad4adddc",
        "cb84d63ca546321678e28c86e124882781c5bcfd42fdc27c9279b20fe4f45191",
        "92073ebcbb9c5509e08e0dd41cbbc4fec114babb31ca3f518997b8d5b74e51ba",
    ),
    2: (
        "ee4c805df5380d1d64a21bf096bef83d3858897f363de82a82c37abac17c743e",
        "4c342a6f659e9360f242f6458e381aec106a358e0591da6105fa5f99f8539917",
        "168266b763a68f9d4153b4aa8a65d19ab5f1c51841d340f193f5fefb2b5851f7",
        "8fede8f01616d42b514316537eb2e4989b519ea000e9abdf9b104c7ca773e9ad",
        "bf59d87e945d9d0cf9b101043c0363ea2427295db26eaf8f41e4f563d085d1b9",
    ),
    3: (
        "505e1551b8bfc45833c48330c16dfb165ac2271d74f669d9e8370d666a24d123",
        "1386519b3610f0b03f0422e732f3c273096429082e60f1fd623e71b7dbb9a6e8",
        "174912675704baf6dd5a467a9fcec652719cb88b6007c8a60dc8e33d42d6ba9f",
        "4fce760b01c7e8f14d2e7f3fa612e5a0c17da005ec4880dcf091895a50fec4b2",
        "a389b9087988e85fc9e2f6cfc2e2f6041539b5d70293ee373190fb4b06976bee",
    ),
    4: (
        "f1df002a30fa0c5fd154e8fdc1c563fa51dfd7b53b365a7b0749b6a6c13c790c",
        "104b2a45f45c49af40bfe27bddf52d32d7790c6d003523ca410fd9e488aed971",
        "cc9c7c72847bc4ee13a748ceb7d598fcf9eb8fc6334b037d40bda3abbff3bfe2",
        "8ad96bbfcfe45534b9d5dbd47b328f6512b7cf0a463f38c2adfa600f99f4d946",
        "43c30490e3f826da1d100177e7d2b2a5f6d48d602c12812f25c80bc3034d2bb2",
    ),
    5: (
        "56e1016b38b7d36159bfd8db94afd1de8d6ffb4c134a54b15019e8b9c33f1a74",
        "e1be03d5a318a1d3abb1f572e9e351b424645b2515a63461fb827c79192de822",
        "3a1d66aacb6646536ea93ac976c448d9fbec2c807f40f47c7e1933f662a5fc81",
        "d75e242ad922e9aabaa96b8c9dc43ba95e58c3fbf7effe76e0e691e9ff987256",
        "99d5e0f667506c74d34d4638a5c6136fdc90379175a0345ddcb7f084c932197d",
    ),
}


@pytest.mark.parametrize("level", sorted(MESH_DIGESTS))
def test_mesh_output_pinned(level):
    mesh = build_mesh(level)
    arrays = (mesh.vertices, mesh.triangles, mesh.edges,
              mesh.edge_is_boundary, mesh.boundary_flags)
    assert [a.dtype for a in arrays] == [np.int64] * 3 + [np.bool_] * 2
    assert all(a.flags.c_contiguous for a in arrays)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
    assert got == MESH_DIGESTS[level]


def _corrupt(mesh, kind):
    """A copy of `mesh` with one defect, the check it must fail and the
    failure detail that names the corrupted index."""
    v, t, e = mesh.vertices.copy(), mesh.triangles.copy(), mesh.edges.copy()
    eib, bf = mesh.edge_is_boundary.copy(), mesh.boundary_flags.copy()
    if kind == "duplicate-vertex":
        v[10] = v[9]
        check, detail = "vertices lex-sorted and unique", "vertices [10]"
    elif kind == "edge-length-2":
        # reroute edge k to the vertex two steps along +a from its start
        index = {p: n for n, p in enumerate(map(tuple, v.tolist()))}
        for k, (i, j) in enumerate(e.tolist()):
            far = index.get((int(v[i, 0]) + 2, int(v[i, 1])), -1)
            if far > i:
                e[k, 1] = far
                break
        check, detail = "all edges have lattice length 1", f"bad edges [{k}]"
    elif kind == "dropped-triangle":
        i, j, k = t[50].tolist()
        t = np.delete(t, 50, axis=0)
        rows = {tuple(r): n for n, r in enumerate(e.tolist())}
        hit = sorted(rows[p] for p in ((i, j), (i, k), (j, k)))
        interior = [n for n in hit if not eib[n]]
        missing = [n for n in hit if eib[n]]
        check = "edges belong to 1 (boundary) or 2 (interior) triangles"
        detail = (f"boundary [], interior {interior}, missing {missing}, "
                  f"untracked []")
    elif kind == "boundary-edge-flag":
        k = int(np.flatnonzero(~eib)[7])
        eib[k] = True
        check = "edges belong to 1 (boundary) or 2 (interior) triangles"
        detail = f"boundary [{k}], interior [], missing [], untracked []"
    elif kind == "index-past-end":
        # plainly keyed with base V, side (2, V + 4) of triangle (0, 2, 3)
        # would collide with edge 7, (3, 4): 2 * 85 + 89 = 3 * 85 + 4
        assert t[0].tolist() == [0, 2, 3] and e[7].tolist() == [3, 4]
        t[0, 2] = len(v) + 4
        check = "edges belong to 1 (boundary) or 2 (interior) triangles"
        detail = ("boundary [], interior [4], missing [1], "
                  f"untracked [(0, {len(v) + 4}), (2, {len(v) + 4})]")
    elif kind == "negative-index":
        assert t[3].tolist() == [2, 6, 7]
        t[3, 2] = -4
        check = "edges belong to 1 (boundary) or 2 (interior) triangles"
        detail = ("boundary [], interior [6, 13], missing [], "
                  "untracked [(2, -4), (6, -4)]")
    elif kind == "repeated-edge":
        # only the first of the two equal rows takes the triangle count
        e, eib = np.insert(e, 21, e[20], axis=0), np.insert(eib, 21, eib[20])
        check = "edges belong to 1 (boundary) or 2 (interior) triangles"
        detail = "boundary [], interior [], missing [21], untracked []"
    elif kind == "boundary-vertex-flag":
        w = int(np.flatnonzero(~bf)[3])
        bf[w] = True
        check = "boundary flags match boundary edge endpoints"
        detail = f"vertices [{w}]"
    bad = Mesh(level=mesh.level, vertices=v, triangles=t, edges=e,
               edge_is_boundary=eib, boundary_flags=bf)
    return bad, check, detail


@pytest.mark.parametrize("kind", ["duplicate-vertex", "edge-length-2",
                                  "dropped-triangle", "boundary-edge-flag",
                                  "boundary-vertex-flag", "index-past-end",
                                  "negative-index", "repeated-edge"])
def test_validate_detects_corruption(mesh2, kind):
    bad, check, detail = _corrupt(mesh2, kind)
    report = validate(bad)
    assert not report.ok
    failed = {c.name: c.detail for c in report.failures()}
    assert check in failed, str(report)
    assert failed[check] == detail


# -- reference: the sort-based construction and the dictionary walk that the
# occupancy grids and the array walk replaced, kept verbatim as the
# array-equality oracle --------------------------------------------------------

SUBDIVISION = np.array([
    [(0, 0), (1, 0), (0, 1)], [(1, 0), (1, 1), (0, 1)],
    [(0, 1), (1, 1), (0, 2)], [(1, 1), (1, 2), (0, 2)],
    [(0, 2), (1, 2), (0, 3)],
    [(1, 0), (2, 0), (1, 1)], [(2, 0), (2, 1), (1, 1)],
    [(1, 1), (2, 1), (1, 2)],
    [(2, 0), (3, 0), (2, 1)],
], dtype=np.int64)


def _subdivide(tris: np.ndarray) -> np.ndarray:
    """Split (T, 3, 2) side-3 lattice triangles into (9T, 3, 2) unit ones."""
    a = tris[:, 0]
    u = (tris[:, 1] - a) // 3
    v = (tris[:, 2] - a) // 3
    i = SUBDIVISION[None, :, :, 0, None]
    j = SUBDIVISION[None, :, :, 1, None]
    out = (a[:, None, None] + i * u[:, None, None]
           + j * v[:, None, None])
    return out.reshape(-1, 3, 2)


def _boundary_edges_oriented(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary edges of (T, 3, 2) unit triangles, interior on the left.

    Returns (p, q) as two (B, 2) arrays such that the unique triangle
    containing each edge lies on the left of p -> q.
    """
    p = tris.reshape(-1, 2)                       # corner k of each triangle
    q = np.roll(tris, -1, axis=1).reshape(-1, 2)  # corner k + 1
    r = np.roll(tris, -2, axis=1).reshape(-1, 2)  # the opposite corner
    # a unit lattice edge is fixed by the sum of its ends: the parity of the
    # sum gives the offset up to sign, so the sum keys the undirected edge
    _, _, key = _lex_keys(p + q)
    _, first, count = np.unique(key, return_index=True, return_counts=True)
    once = first[count == 1]
    p, q, r = p[once], q[once], r[once]
    d, w = q - p, r - p
    flip = d[:, 0] * w[:, 1] - d[:, 1] * w[:, 0] < 0  # cross(d, w) < 0
    return np.where(flip[:, None], q, p), np.where(flip[:, None], p, q)


def _refine(tris: np.ndarray) -> np.ndarray:
    """One inductive step: scale by 3, subdivide into nine, append outward
    triangles on the middle thirds of the previous boundary edges."""
    p, q = _boundary_edges_oriented(tris)
    d = q - p  # unit vector at the new scale
    u = 3 * p + d
    v = u + d
    # interior is on the left of p -> q, so the outward apex is on the right:
    # w = u + rot_minus60(d)
    w = u + np.stack((d[:, 0] + d[:, 1], -d[:, 0]), axis=1)
    outward = np.stack((u, v, w), axis=1)
    return np.concatenate((_subdivide(3 * tris), outward))


def sorted_build(level: int) -> tuple[np.ndarray, ...]:
    """(vertices, triangles, edges, edge_is_boundary, boundary_flags) of
    the level-n mesh by sorting and deduplicating corner keys."""
    tris = np.array([[(0, 0), (1, 0), (0, 1)]], dtype=np.int64)
    for _ in range(level):
        tris = _refine(tris)

    lo, span, key = _lex_keys(tris)
    ukey, inverse = np.unique(key, return_inverse=True)
    del key, tris
    vertices = np.stack(np.divmod(ukey, span[1]), axis=1) + lo
    nv = len(vertices)

    tri_idx = np.sort(inverse.reshape(-1, 3), axis=1)
    del inverse
    tri_idx = tri_idx[np.lexsort(tri_idx.T[::-1])]

    i, j, k = tri_idx.T
    ekey, count = np.unique(np.concatenate((i * nv + j, i * nv + k,
                                            j * nv + k)),
                            return_counts=True)
    edges = np.stack(np.divmod(ekey, nv), axis=1)
    edge_is_boundary = count == 1

    boundary_flags = np.zeros(nv, dtype=bool)
    boundary_flags[edges[edge_is_boundary].ravel()] = True
    return vertices, tri_idx, edges, edge_is_boundary, boundary_flags


def dict_walk_cycle(mesh: Mesh) -> np.ndarray:
    """Boundary vertices in polygon order, by walking a dictionary of
    boundary neighbours."""
    bedges = mesh.edges[mesh.edge_is_boundary]
    nbr: dict[int, list[int]] = {}
    for i, j in bedges:
        nbr.setdefault(int(i), []).append(int(j))
        nbr.setdefault(int(j), []).append(int(i))
    for v, ns in nbr.items():
        if len(ns) != 2:
            raise MeshInvariantError(
                f"boundary vertex {v} has {len(ns)} boundary edges")
    start = min(nbr)
    a, b = nbr[start]
    # choose the counterclockwise sense via the signed polygon area later;
    # start with either neighbor and reverse if needed
    cycle = [start, a]
    while cycle[-1] != start:
        prev, cur = cycle[-2], cycle[-1]
        ns = nbr[cur]
        cycle.append(ns[0] if ns[1] == prev else ns[1])
    cycle.pop()
    if len(cycle) != len(nbr):
        raise MeshInvariantError("boundary edges do not form a single cycle")
    pts = mesh.vertices[cycle]
    # signed area in lattice coordinates (positive = counterclockwise)
    x, y = pts[:, 0], pts[:, 1]
    area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    if area2 < 0:
        cycle = [cycle[0]] + cycle[:0:-1]
    return np.array(cycle, dtype=np.int64)


@functools.lru_cache(maxsize=1)
def _built(level):
    return build_mesh(level)


@pytest.mark.parametrize("level", range(7))
def test_grid_build_matches_sorted_build(level):
    mesh = _built(level)
    got = (mesh.vertices, mesh.triangles, mesh.edges, mesh.edge_is_boundary,
           mesh.boundary_flags)
    for a, b in zip(got, sorted_build(level)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("level", range(7))
def test_boundary_cycle_matches_dict_walk(level):
    got, want = boundary_cycle(_built(level)), dict_walk_cycle(_built(level))
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert np.array_equal(got, want)


def _with_boundary(mesh, edges, edge_is_boundary):
    return Mesh(level=mesh.level, vertices=mesh.vertices,
                triangles=mesh.triangles, edges=edges,
                edge_is_boundary=edge_is_boundary,
                boundary_flags=mesh.boundary_flags)


@pytest.mark.parametrize("level", (1, 2, 3))
@pytest.mark.parametrize("defect", ["dropped-boundary-edge",
                                    "extra-boundary-edge", "extra-spoke",
                                    "two-cycles"])
def test_boundary_cycle_errors_match_dict_walk(level, defect):
    mesh = build_mesh(level)
    e, eib = mesh.edges.copy(), mesh.edge_is_boundary.copy()
    if defect == "dropped-boundary-edge":
        k = np.flatnonzero(eib)[5]
        e, eib = np.delete(e, k, axis=0), np.delete(eib, k)
    elif defect == "extra-boundary-edge":
        eib[np.flatnonzero(~eib)[-3]] = True
    elif defect == "extra-spoke":
        # an interior edge (i, j) from an interior vertex i to a boundary
        # vertex j with a smaller boundary neighbour than i: j, which has
        # three boundary edges now, comes first in edge order, and i, with
        # one, has the smaller index
        bf, be = mesh.boundary_flags, e[eib]
        k = next(k for k, (i, j) in enumerate(e.tolist())
                 if not bf[i] and bf[j] and be[(be == j).any(axis=1)].min() < i)
        eib[k] = True
    else:
        # a second triangle of boundary edges, away from the polygon
        n = mesh.num_vertices
        v = np.concatenate((mesh.vertices, [(50, 50), (50, 51), (51, 50)]))
        mesh = Mesh(level=mesh.level, vertices=v, triangles=mesh.triangles,
                    edges=mesh.edges, edge_is_boundary=mesh.edge_is_boundary,
                    boundary_flags=np.concatenate((mesh.boundary_flags,
                                                   [True] * 3)))
        e = np.concatenate((e, [(n, n + 1), (n, n + 2), (n + 1, n + 2)]))
        eib = np.concatenate((eib, [True] * 3))
    bad = _with_boundary(mesh, e, eib)
    with pytest.raises(MeshInvariantError) as want:
        dict_walk_cycle(bad)
    with pytest.raises(MeshInvariantError) as got:
        boundary_cycle(bad)
    assert str(got.value) == str(want.value)


def test_boundary_cycle_needs_boundary_edges(mesh2):
    # the dictionary walk failed here too, on min() of no vertices
    bad = _with_boundary(mesh2, mesh2.edges,
                         np.zeros_like(mesh2.edge_is_boundary))
    with pytest.raises(ValueError):
        dict_walk_cycle(bad)
    with pytest.raises(ValueError, match="no boundary edges"):
        boundary_cycle(bad)
