"""Pre-fractal snowflake triangulations on the integer triangular lattice.

Vertices live on the Eisenstein-style lattice spanned by e1 = (1, 0) and
e2 = (1/2, sqrt(3)/2), in units of 3**-level.  All construction and
deduplication is exact integer arithmetic: two vertices are equal iff their
(a, b) coordinates are equal, and two vertices are adjacent iff their offset
is one of the six unit lattice vectors.  No epsilon comparisons anywhere.

The level-n triangulation starts from a single unit triangle and, at each
step, subdivides every triangle into nine and appends one outward triangle
to the middle third of every boundary edge (an edge that belongs to exactly
one triangle).  The resulting boundary polygon is the level-n Koch snowflake
pre-fractal.

Construction, validation and vertex lookup work on int64 arrays: a point is
keyed by one integer whose order is (a, b) lex order, and deduplication and
edge counting are np.unique over such keys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

# Six unit offsets of the triangular lattice, as (da, db).
NEIGHBOR_OFFSETS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

DEFAULT_GUARD_LEVEL = 6
GUARD_ENV_VAR = "SNOWLAB_GUARD_LEVEL"

SQRT3_2 = np.sqrt(3.0) / 2.0

# The nine unit triangles of a side-3 lattice triangle (a, b, c), as (i, j)
# multipliers of u = (b - a)/3 and v = (c - a)/3 for each corner: the
# upward (p, p + u, p + v) and, where i + j < 2, downward
# (p + u, p + u + v, p + v) triangles at p = a + i*u + j*v.
SUBDIVISION = np.array([
    [(0, 0), (1, 0), (0, 1)], [(1, 0), (1, 1), (0, 1)],
    [(0, 1), (1, 1), (0, 2)], [(1, 1), (1, 2), (0, 2)],
    [(0, 2), (1, 2), (0, 3)],
    [(1, 0), (2, 0), (1, 1)], [(2, 0), (2, 1), (1, 1)],
    [(1, 1), (2, 1), (1, 2)],
    [(2, 0), (3, 0), (2, 1)],
], dtype=np.int64)


class LevelGuardError(Exception):
    """Requested refinement level exceeds the configured memory guard."""


class MeshInvariantError(Exception):
    """A mesh failed invariant validation."""


def guard_level() -> int:
    """Active level guard: SNOWLAB_GUARD_LEVEL env var, else the default.

    Raises ValueError naming the variable when it is not an integer.
    """
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw is None:
        return DEFAULT_GUARD_LEVEL
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{GUARD_ENV_VAR} must be an integer, got {raw!r}") from None


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


@dataclass(frozen=True)
class Mesh:
    """Level-n triangulation of the closed snowflake domain.

    Vertices are integer lattice pairs, lexicographically sorted; triangles
    and edges hold 0-based indices into that order.  Arrays are read-only:
    a Mesh is immutable after construction and safe to share across threads.
    """

    level: int
    vertices: np.ndarray        # (V, 2) int64, lex-sorted (a, b)
    triangles: np.ndarray       # (T, 3) int64, each row sorted, rows lex-sorted
    edges: np.ndarray           # (E, 2) int64, i < j, rows lex-sorted
    edge_is_boundary: np.ndarray  # (E,) bool
    boundary_flags: np.ndarray    # (V,) bool

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.edges,
                    self.edge_is_boundary, self.boundary_flags):
            arr.setflags(write=False)

    @cached_property
    def _key_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(low corner, span, vertex keys) of the vertices' bounding box;
        the keys ascend because the vertices are lex-sorted."""
        return _lex_keys(self.vertices)

    def _lookup(self, points) -> np.ndarray:
        """Vertex index of each (n, 2) lattice point, -1 where absent."""
        pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
        lo, span, keys = self._key_frame
        off = pts - lo
        key = off[:, 0] * span[1] + off[:, 1]
        pos = np.searchsorted(keys, key)
        found = np.all((off >= 0) & (off < span), axis=1) & (pos < len(keys))
        found[found] = keys[pos[found]] == key[found]
        return np.where(found, pos, -1)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_boundary_vertices(self) -> int:
        return int(self.boundary_flags.sum())

    @property
    def num_interior_vertices(self) -> int:
        return self.num_vertices - self.num_boundary_vertices

    @property
    def boundary_vertices(self) -> np.ndarray:
        """Indices of boundary vertices, ascending (the boundary vertex list)."""
        return np.flatnonzero(self.boundary_flags)

    @property
    def interior_vertices(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_flags)

    def index_of(self, point: tuple[int, int]) -> int:
        """Vertex index of an exact lattice point; KeyError if absent."""
        idx = int(self._lookup(point)[0])
        if idx < 0:
            raise KeyError((int(point[0]), int(point[1])))
        return idx

    def contains(self, point: tuple[int, int]) -> bool:
        return bool(self._lookup(point)[0] >= 0)

    def degrees(self) -> np.ndarray:
        """Vertex degrees in the edge graph."""
        deg = np.zeros(self.num_vertices, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg


def _lex_keys(points: np.ndarray):
    """One int64 key per (a, b) point whose order is (a, b) lex order.

    Returns (low corner, span, keys) with key = (a - a0) * span_b + (b - b0).
    """
    pts = points.reshape(-1, 2)
    if len(pts) == 0:
        return (np.zeros(2, dtype=np.int64), np.ones(2, dtype=np.int64),
                np.zeros(0, dtype=np.int64))
    a, b = pts[:, 0], pts[:, 1]
    lo = np.array([a.min(), b.min()])
    span = np.array([a.max(), b.max()]) - lo + 1
    if int(span[0]) * int(span[1]) >= 2**63:
        raise ValueError("lattice coordinates span too wide for int64 keys")
    key = a - lo[0]
    key *= span[1]
    key += b
    key -= lo[1]
    return lo, span, key


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


def build_mesh(level: int, guard: int | None = None) -> Mesh:
    """Build the level-n snowflake triangulation.

    Starts from one unit equilateral triangle and applies the inductive
    subdivide-and-append rule `level` times.  Output is canonically sorted,
    so rebuilding yields bit-identical data.

    Raises LevelGuardError when level exceeds the guard (default 6,
    overridable via the SNOWLAB_GUARD_LEVEL environment variable or the
    `guard` argument); vertex counts grow like 9**level.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    limit = guard_level() if guard is None else guard
    if level > limit:
        raise LevelGuardError(
            f"level {level} exceeds guard {limit}; "
            f"raise {GUARD_ENV_VAR} to proceed")

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

    return Mesh(level=level, vertices=vertices, triangles=tri_idx,
                edges=edges, edge_is_boundary=edge_is_boundary,
                boundary_flags=boundary_flags)


def cartesian(mesh: Mesh, v: int, scale: float = 1.0) -> tuple[float, float]:
    """Cartesian coordinates of vertex v, for plot/contour export only.

    The optional display scale multiplies the embedding; the spectral
    pipeline never reads coordinates, so it has no effect on any operator.
    """
    if not 0 <= v < mesh.num_vertices:
        raise IndexError(f"vertex index {v} out of range")
    a, b = mesh.vertices[v]
    h = scale * 3.0 ** (-mesh.level)
    return ((a + 0.5 * b) * h, b * SQRT3_2 * h)


def cartesian_coordinates(mesh: Mesh, scale: float = 1.0) -> np.ndarray:
    """(V, 2) array of Cartesian coordinates for all vertices."""
    h = scale * 3.0 ** (-mesh.level)
    a = mesh.vertices[:, 0].astype(float)
    b = mesh.vertices[:, 1].astype(float)
    return np.column_stack(((a + 0.5 * b) * h, b * SQRT3_2 * h))


def neighbors(mesh: Mesh, v: int) -> list[int]:
    """Mesh vertices at lattice distance 1 from v, ascending."""
    if not 0 <= v < mesh.num_vertices:
        raise IndexError(f"vertex index {v} out of range")
    idx = mesh._lookup(mesh.vertices[v] + np.array(NEIGHBOR_OFFSETS))
    return sorted(idx[idx >= 0].tolist())


def boundary_cycle(mesh: Mesh) -> np.ndarray:
    """Boundary vertices in polygon order.

    Walks the boundary-edge subgraph starting from the lex-smallest boundary
    vertex, taking the counterclockwise sense (interior on the left).
    Every boundary vertex has exactly two boundary edges, so the walk is a
    single simple cycle of length 3 * 4**level.
    """
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


def boundary_hop_distance(mesh: Mesh) -> np.ndarray:
    """Graph hop distance from each vertex to the nearest boundary vertex.

    One unweighted shortest-path search over mesh edges from a virtual
    source joined to every boundary vertex; purely combinatorial.
    Vertices that no boundary vertex reaches get -1.
    """
    src = mesh.num_vertices
    bv = mesh.boundary_vertices
    i = np.concatenate((mesh.edges[:, 0], np.full(len(bv), src)))
    j = np.concatenate((mesh.edges[:, 1], bv))
    graph = sparse.csr_matrix((np.ones(len(i), dtype=np.int8), (i, j)),
                              shape=(src + 1, src + 1))
    hops = csgraph.shortest_path(graph, method="D", directed=False,
                                 unweighted=True, indices=src)[:src]
    dist = np.full(src, -1, dtype=np.int64)
    reached = np.isfinite(hops)
    dist[reached] = hops[reached].astype(np.int64) - 1
    return dist


@dataclass(frozen=True)
class InvariantCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[InvariantCheck]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail and not c.passed else ""
            lines.append(f"{status}: {c.name}{suffix}")
        return "\n".join(lines)


def validate(mesh: Mesh) -> ValidationReport:
    """Check all structural invariants of a mesh; failures carry indices."""
    checks = []

    def add(name, passed, detail=""):
        checks.append(InvariantCheck(name, bool(passed), detail))

    # vertex order and uniqueness: each row strictly after the one before
    a, b = mesh.vertices[:, 0], mesh.vertices[:, 1]
    ahead = (a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (b[1:] > b[:-1]))
    bad = np.flatnonzero(~ahead) + 1
    add("vertices lex-sorted and unique", bad.size == 0,
        f"vertices {bad[:5].tolist()}")

    # every edge has lattice length 1: the unit offsets are the (da, db) in
    # {-1, 0, 1}^2 with da != db
    diff = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    near = np.all((diff >= -1) & (diff <= 1), axis=1)
    bad = np.flatnonzero(~near | (diff[:, 0] == diff[:, 1]))
    add("all edges have lattice length 1", bad.size == 0,
        f"bad edges {bad[:5].tolist()}" if bad.size else "")

    # edge membership counts: boundary edges in 1 triangle, others in 2.
    # Triangle edges are taken as (i, j), (i, k), (j, k) in row order.
    t, e, base = mesh.triangles, mesh.edges, mesh.num_vertices
    if not all(x.size == 0 or (x.min() >= 0 and x.max() < base)
               for x in (t, e)):
        # indices out of range: key their ranks instead
        rank = np.unique(np.concatenate((t.ravel(), e.ravel())),
                         return_inverse=True)[1]
        t, e = rank[:t.size].reshape(-1, 3), rank[t.size:].reshape(-1, 2)
        base = int(rank.max()) + 1
    tkey = np.stack((t[:, 0] * base + t[:, 1], t[:, 0] * base + t[:, 2],
                     t[:, 1] * base + t[:, 2]), axis=1).ravel()
    ekey = e[:, 0] * base + e[:, 1]
    ukey, first, count = np.unique(tkey, return_index=True,
                                   return_counts=True)
    pos = np.searchsorted(ukey, ekey)
    hit = pos < len(ukey)
    hit[hit] = ukey[pos[hit]] == ekey[hit]
    if not np.all(ekey[1:] > ekey[:-1]):
        # a repeated edge row: only its first occurrence takes the count
        once = np.zeros(len(ekey), dtype=bool)
        once[np.unique(ekey, return_index=True)[1]] = True
        hit &= once
    c = np.zeros(len(ekey), dtype=np.int64)
    c[hit] = count[pos[hit]]
    eib = mesh.edge_is_boundary
    missing = np.flatnonzero(c == 0)
    bad_b = np.flatnonzero((c > 0) & eib & (c != 1))
    bad_i = np.flatnonzero((c > 0) & ~eib & (c != 2))
    tracked = np.zeros(len(ukey), dtype=bool)
    tracked[pos[hit]] = True
    # untracked triangle edges in order of first appearance
    where = np.sort(first[~tracked])
    ends = np.array([[0, 1], [0, 2], [1, 2]])[where % 3]
    rows = mesh.triangles[where // 3]
    extra = np.take_along_axis(rows, ends, axis=1)
    add("edges belong to 1 (boundary) or 2 (interior) triangles",
        not (bad_b.size or bad_i.size or missing.size or len(extra)),
        f"boundary {bad_b[:5].tolist()}, interior {bad_i[:5].tolist()}, "
        f"missing {missing[:5].tolist()}, "
        f"untracked {[tuple(p) for p in extra[:5].tolist()]}")

    # boundary census
    n_bv = mesh.num_boundary_vertices
    n_be = int(mesh.edge_is_boundary.sum())
    expect = 3 * 4 ** mesh.level
    add(f"boundary vertex count = 3*4^n = {expect}", n_bv == expect,
        f"got {n_bv}")
    add(f"boundary edge count = 3*4^n = {expect}", n_be == expect,
        f"got {n_be}")

    # degrees
    deg = mesh.degrees()
    bad_int = np.flatnonzero(~mesh.boundary_flags & (deg != 6))
    bad_bdy = np.flatnonzero(mesh.boundary_flags & (deg != 2) & (deg != 5))
    add("interior vertex degrees all 6", bad_int.size == 0,
        f"vertices {bad_int[:5].tolist()}")
    add("boundary vertex degrees in {2, 5}", bad_bdy.size == 0,
        f"vertices {bad_bdy[:5].tolist()}")

    # Euler relation for a triangulated disk
    euler = mesh.num_vertices - len(mesh.edges) + len(mesh.triangles)
    add("Euler relation V - E + T = 1", euler == 1, f"got {euler}")

    # boundary vertex <=> endpoint of a boundary edge
    from_edges = np.zeros(mesh.num_vertices, dtype=bool)
    from_edges[mesh.edges[mesh.edge_is_boundary].ravel()] = True
    mismatch = np.flatnonzero(from_edges != mesh.boundary_flags)
    add("boundary flags match boundary edge endpoints", mismatch.size == 0,
        f"vertices {mismatch[:5].tolist()}")

    return ValidationReport(checks=tuple(checks))


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
