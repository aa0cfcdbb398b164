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
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# Six unit offsets of the triangular lattice, as (da, db).
NEIGHBOR_OFFSETS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

DEFAULT_GUARD_LEVEL = 6
GUARD_ENV_VAR = "SNOWLAB_GUARD_LEVEL"

SQRT3_2 = np.sqrt(3.0) / 2.0


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
    _index: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.edges,
                    self.edge_is_boundary, self.boundary_flags):
            arr.setflags(write=False)
        object.__setattr__(
            self, "_index",
            {(int(a), int(b)): i for i, (a, b) in enumerate(self.vertices)})

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
        return self._index[(int(point[0]), int(point[1]))]

    def contains(self, point: tuple[int, int]) -> bool:
        return (int(point[0]), int(point[1])) in self._index

    def degrees(self) -> np.ndarray:
        """Vertex degrees in the edge graph."""
        deg = np.zeros(self.num_vertices, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg


def _subdivide(tri, out):
    """Split one side-3 lattice triangle into nine unit triangles."""
    a, b, c = tri
    u = ((b[0] - a[0]) // 3, (b[1] - a[1]) // 3)
    v = ((c[0] - a[0]) // 3, (c[1] - a[1]) // 3)
    for i in range(3):
        for j in range(3 - i):
            p = (a[0] + i * u[0] + j * v[0], a[1] + i * u[1] + j * v[1])
            q = (p[0] + u[0], p[1] + u[1])
            r = (p[0] + v[0], p[1] + v[1])
            out.append((p, q, r))
            if i + j < 2:
                s = (q[0] + v[0], q[1] + v[1])
                out.append((q, s, r))


def _boundary_edges_oriented(tris):
    """Boundary edges of a triangle list, oriented with the interior on the left.

    Returns a list of (p, q) lattice-point pairs such that the unique triangle
    containing the edge lies on the left of p -> q.
    """
    count: dict = {}
    for tri in tris:
        for k in range(3):
            p, q = tri[k], tri[(k + 1) % 3]
            key = (p, q) if p < q else (q, p)
            entry = count.get(key)
            if entry is None:
                count[key] = [1, tri[(k + 2) % 3]]
            else:
                entry[0] += 1
    oriented = []
    for (p, q), (n, r) in count.items():
        if n == 1:
            d = (q[0] - p[0], q[1] - p[1])
            w = (r[0] - p[0], r[1] - p[1])
            if cross(d, w) > 0:
                oriented.append((p, q))
            else:
                oriented.append((q, p))
    return oriented


def _refine(tris):
    """One inductive step: scale by 3, subdivide into nine, append outward
    triangles on the middle thirds of the previous boundary edges."""
    boundary = _boundary_edges_oriented(tris)
    scaled = [tuple((3 * p[0], 3 * p[1]) for p in tri) for tri in tris]
    out: list = []
    for tri in scaled:
        _subdivide(tri, out)
    for p, q in boundary:
        d = (q[0] - p[0], q[1] - p[1])  # unit vector at the new scale
        u = (3 * p[0] + d[0], 3 * p[1] + d[1])
        v = (u[0] + d[0], u[1] + d[1])
        # interior is on the left of p -> q, so the outward apex is on the right
        w_off = rot_minus60(d)
        w = (u[0] + w_off[0], u[1] + w_off[1])
        out.append((u, v, w))
    return out


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

    tris = [((0, 0), (1, 0), (0, 1))]
    for _ in range(level):
        tris = _refine(tris)

    point_set = sorted({p for tri in tris for p in tri})
    index = {p: i for i, p in enumerate(point_set)}
    vertices = np.array(point_set, dtype=np.int64)

    tri_idx = np.array(
        sorted(tuple(sorted(index[p] for p in tri)) for tri in tris),
        dtype=np.int64)

    edge_count: dict = {}
    for tri in tris:
        i, j, k = sorted(index[p] for p in tri)
        for e in ((i, j), (i, k), (j, k)):
            edge_count[e] = edge_count.get(e, 0) + 1
    edge_list = sorted(edge_count)
    edges = np.array(edge_list, dtype=np.int64)
    edge_is_boundary = np.array(
        [edge_count[e] == 1 for e in edge_list], dtype=bool)

    boundary_flags = np.zeros(len(vertices), dtype=bool)
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
    a, b = (int(x) for x in mesh.vertices[v])
    found = []
    for da, db in NEIGHBOR_OFFSETS:
        idx = mesh._index.get((a + da, b + db))
        if idx is not None:
            found.append(idx)
    return sorted(found)


def adjacency_lists(mesh: Mesh) -> list[list[int]]:
    """Adjacency lists over mesh edges (both directions)."""
    adj: list[list[int]] = [[] for _ in range(mesh.num_vertices)]
    for i, j in mesh.edges:
        adj[i].append(int(j))
        adj[j].append(int(i))
    return adj


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

    Multi-source BFS over mesh edges; purely combinatorial.
    """
    adj = adjacency_lists(mesh)
    dist = np.full(mesh.num_vertices, -1, dtype=np.int64)
    frontier = [int(v) for v in mesh.boundary_vertices]
    dist[frontier] = 0
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
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

    # vertex order and uniqueness
    order = np.lexsort((mesh.vertices[:, 1], mesh.vertices[:, 0]))
    sorted_ok = np.array_equal(order, np.arange(mesh.num_vertices))
    uniq = len({tuple(p) for p in mesh.vertices.tolist()}) == mesh.num_vertices
    add("vertices lex-sorted and unique", sorted_ok and uniq)

    # every edge has lattice length 1
    diff = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    offsets = {tuple(o) for o in NEIGHBOR_OFFSETS}
    bad = [k for k, d in enumerate(diff.tolist()) if tuple(d) not in offsets]
    add("all edges have lattice length 1", not bad,
        f"bad edges {bad[:5]}" if bad else "")

    # edge membership counts: boundary edges in 1 triangle, others in 2
    count: dict = {}
    for i, j, k in mesh.triangles.tolist():
        for e in ((i, j), (i, k), (j, k)):
            count[e] = count.get(e, 0) + 1
    bad_b, bad_i, missing = [], [], []
    for idx, (i, j) in enumerate(mesh.edges.tolist()):
        c = count.pop((i, j), 0)
        if c == 0:
            missing.append(idx)
        elif mesh.edge_is_boundary[idx] and c != 1:
            bad_b.append(idx)
        elif not mesh.edge_is_boundary[idx] and c != 2:
            bad_i.append(idx)
    extra = list(count)
    add("edges belong to 1 (boundary) or 2 (interior) triangles",
        not (bad_b or bad_i or missing or extra),
        f"boundary {bad_b[:5]}, interior {bad_i[:5]}, "
        f"missing {missing[:5]}, untracked {extra[:5]}")

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
