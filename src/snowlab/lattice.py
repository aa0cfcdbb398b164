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

Construction works on boolean occupancy grids of up and down unit
triangles indexed by anchor lattice point: refinement is strided grid
assignment, and vertices, triangles and edges are read off the grids in
row-major (a, b) order, which is lex order, so nothing is sorted.
validate keys each index pair by one int64 and searches the triangle sides
in the edge keys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

DEFAULT_GUARD_LEVEL = 6
GUARD_ENV_VAR = "SNOWLAB_GUARD_LEVEL"

SQRT3_2 = np.sqrt(3.0) / 2.0

# Unit triangles live on a (2, A, B) boolean grid indexed by type and
# anchor lattice point q: type 0 is the up triangle (q, q + (1,0), q + (0,1)),
# type 1 the down triangle (q + (1,0), q + (0,1), q + (1,1)).  Scaled by 3,
# a type-s triangle splits into type-t unit triangles at 3q + _SPLIT[s][t].
_SPLIT = ((((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)),
           ((0, 0), (1, 0), (0, 1))),
          (((2, 1), (1, 2), (2, 2)),
           ((2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2))))


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

    def degrees(self) -> np.ndarray:
        """Vertex degrees in the edge graph."""
        return np.bincount(self.edges.ravel(), minlength=self.num_vertices)


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


def _refine_grids(tri: np.ndarray, origin: np.ndarray):
    """One inductive step on a triangle grid with a zero border of one cell
    and the anchor of its cell (0, 0): scale by 3, subdivide into nine,
    append outward triangles on the middle thirds of the boundary edges.
    The new grid is trimmed to a zero border of one cell again.
    """
    _, A, B = tri.shape
    new = np.zeros((2, 3 * A + 3, 3 * B + 3), dtype=bool)  # at 3 * origin - 1

    def put(t, src, off):  # type-t triangles at 3q + off for each q in src
        new[t, 1 + off[0]::3, 1 + off[1]::3][:A, :B] |= src

    for s, t in np.ndindex(2, 2):
        for off in _SPLIT[s][t]:
            put(t, tri[s], off)
    # a boundary edge has one incident triangle; the outward triangle on
    # its middle third lies on the other side
    up, down = tri
    put(1, up & ~np.roll(down, 1, axis=1), (1, -1))  # edge q, q + (1,0)
    put(1, up & ~np.roll(down, 1, axis=0), (-1, 1))  # edge q, q + (0,1)
    put(1, up & ~down, (1, 1))                # edge q + (1,0), q + (0,1)
    put(0, down & ~np.roll(up, -1, axis=1), (1, 3))
    put(0, down & ~np.roll(up, -1, axis=0), (3, 1))
    put(0, down & ~up, (1, 1))

    a = np.flatnonzero(new.any(axis=(0, 2)))[[0, -1]] + (-1, 2)
    b = np.flatnonzero(new.any(axis=(0, 1)))[[0, -1]] + (-1, 2)
    return new[:, a[0]:a[1], b[0]:b[1]], 3 * origin - 1 + (a[0], b[0])


def build_mesh(level: int) -> Mesh:
    """Build the level-n snowflake triangulation.

    Starts from one unit equilateral triangle and applies the inductive
    subdivide-and-append rule `level` times.  Output is canonically sorted,
    so rebuilding yields bit-identical data.

    Raises LevelGuardError when level exceeds the guard (default 6,
    overridable via the SNOWLAB_GUARD_LEVEL environment variable); vertex
    counts grow like 9**level.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    limit = guard_level()
    if level > limit:
        raise LevelGuardError(
            f"level {level} exceeds guard {limit}; "
            f"raise {GUARD_ENV_VAR} to proceed")

    # the zero border keeps every one-cell shift (np.roll) exact
    tri = np.zeros((2, 3, 3), dtype=bool)
    tri[0, 1, 1] = True
    origin = np.array([-1, -1])
    for _ in range(level):
        tri, origin = _refine_grids(tri, origin)
    up, down = tri
    width = up.shape[1]

    # a vertex is a corner of an up triangle at p, p - (1,0) or p - (0,1),
    # or of a down triangle at p - (1,0), p - (0,1) or p - (1,1); its index
    # is its rank in row-major (a, b) order
    any_tri = up | down
    occupied = up | np.roll(any_tri, 1, axis=0) | np.roll(any_tri, 1, axis=1)
    occupied[1:, 1:] |= down[:-1, :-1]
    vertices = np.stack(np.divmod(np.flatnonzero(occupied), width),
                        axis=1) + origin
    index = np.cumsum(occupied.ravel()) - 1

    # triangles whose smallest corner is p, in row order: the up triangle
    # (p, p + (0,1), p + (1,0)), then the down one (p, p + (1,-1), p + (1,0))
    up8, left8, below8 = (g.view(np.uint8) for g in (
        up, np.roll(down, 1, axis=0), np.roll(down, 1, axis=1)))
    c, is_down = np.divmod(np.flatnonzero(np.stack((up8, below8), axis=-1)), 2)
    triangles = np.stack((index[c], index[c + 1 + is_down * (width - 2)],
                          index[c + width]), axis=1)

    # edges from p to p + (0,1), p + (1,-1), p + (1,0), in row order, kept
    # when a triangle holds them and on the boundary when only one does
    count = np.stack((up8 + left8, np.roll(up8, 1, axis=1) + below8,
                      up8 + below8), axis=-1).ravel()
    e = np.flatnonzero(count)
    c, k = np.divmod(e, 3)
    edges = np.stack((index[c], index[c + np.array([1, width - 1, width])[k]]),
                     axis=1)
    edge_is_boundary = count[e] == 1

    boundary_flags = np.zeros(len(vertices), dtype=bool)
    boundary_flags[edges[edge_is_boundary].ravel()] = True

    return Mesh(level=level, vertices=vertices, triangles=triangles,
                edges=edges, edge_is_boundary=edge_is_boundary,
                boundary_flags=boundary_flags)


def cartesian_coordinates(mesh: Mesh) -> np.ndarray:
    """(V, 2) array of Cartesian coordinates for all vertices."""
    h = 3.0 ** (-mesh.level)
    a = mesh.vertices[:, 0].astype(float)
    b = mesh.vertices[:, 1].astype(float)
    return np.column_stack(((a + 0.5 * b) * h, b * SQRT3_2 * h))


def boundary_cycle(mesh: Mesh) -> np.ndarray:
    """Boundary vertices in polygon order.

    Walks the boundary-edge subgraph starting from the lex-smallest boundary
    vertex, taking the counterclockwise sense (interior on the left).
    Every boundary vertex has exactly two boundary edges, so the walk is a
    single simple cycle of length 3 * 4**level.
    """
    ends = mesh.edges[mesh.edge_is_boundary].ravel()
    if not len(ends):
        raise ValueError("mesh has no boundary edges")
    verts, first, k, deg = np.unique(ends, return_index=True,
                                     return_inverse=True, return_counts=True)
    bad = np.flatnonzero(deg != 2)
    if bad.size:  # name the bad vertex that appears first in edge order
        v = bad[np.argmin(first[bad])]
        raise MeshInvariantError(
            f"boundary vertex {verts[v]} has {deg[v]} boundary edges")
    # every vertex has two neighbours, so a depth-first order walks the cycle
    cycle = verts[csgraph.depth_first_order(
        sparse.csr_matrix((np.ones(len(k) // 2), (k[::2], k[1::2])),
                          shape=(len(verts),) * 2),
        0, directed=False, return_predecessors=False)]
    if len(cycle) != len(verts):
        raise MeshInvariantError("boundary edges do not form a single cycle")
    # signed area in lattice coordinates (positive = counterclockwise)
    x, y = mesh.vertices[cycle].T
    if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) < 0:
        cycle = np.concatenate((cycle[:1], cycle[:0:-1]))
    return cycle


def boundary_hop_distance(mesh: Mesh) -> np.ndarray:
    """Graph hop distance from each vertex to the nearest boundary vertex.

    One unweighted shortest-path search over mesh edges, started from
    every boundary vertex at once; purely combinatorial.  Vertices that no
    boundary vertex reaches get -1.
    """
    n = mesh.num_vertices
    graph = sparse.csr_matrix((np.ones(len(mesh.edges), dtype=np.int8),
                               mesh.edges.T), shape=(n, n))
    hops = csgraph.dijkstra(graph, directed=False, unweighted=True,
                            indices=mesh.boundary_vertices, min_only=True)
    return np.where(np.isfinite(hops), hops, -1).astype(np.int64)


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
    """Check all structural invariants of a mesh; failures carry indices.
    Edge entries must index `vertices`, and all entries must span under 3e9
    so that an index pair fits one int64 key; other defects fail checks."""
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
    da, db = (x[mesh.edges[:, 1]] - x[mesh.edges[:, 0]] for x in (a, b))
    bad = np.flatnonzero((abs(da) > 1) | (abs(db) > 1) | (da == db))
    add("all edges have lattice length 1", bad.size == 0,
        f"bad edges {bad[:5].tolist()}" if bad.size else "")

    # edge membership counts: boundary edges in 1 triangle, others in 2.
    # A pair keys as (i - lo) * base + (j - lo), unique for any indices;
    # each triangle side (i, j), (i, k), (j, k) is searched in the stably
    # sorted edge keys, ended by base**2 past every key (an OverflowError
    # unless every key fits int64), so a repeated edge row counts at its
    # first occurrence only.
    t, e = mesh.triangles, mesh.edges
    frame = [mesh.num_vertices, *(int(f(x)) for x in (t, e) if x.size
                                  for f in (np.min, np.max))]
    lo = min(frame)
    base = max(frame) - lo + 1

    def key(i, j):
        return (i - lo) * base + (j - lo)

    ekey = key(*e.T)
    order = np.argsort(ekey, kind="stable")
    ekey = np.append(ekey[order], np.int64(base * base))
    c = np.zeros(len(e), dtype=np.int64)
    sides = np.array([[0, 1], [0, 2], [1, 2]])
    missed = np.ones((len(t), 3), dtype=bool)
    for s, (i, j) in enumerate(sides):
        side = key(t[:, i], t[:, j])
        pos = np.searchsorted(ekey, side)
        hit = ekey[pos] == side
        c += np.bincount(order[pos[hit]], minlength=len(e))
        missed[:, s] = ~hit
    eib = mesh.edge_is_boundary
    missing = np.flatnonzero(c == 0)
    bad_b = np.flatnonzero((c > 0) & eib & (c != 1))
    bad_i = np.flatnonzero((c > 0) & ~eib & (c != 2))
    where = np.flatnonzero(missed)  # untracked sides, in order of appearance
    extra = np.take_along_axis(t[where // 3], sides[where % 3], axis=1)
    extra = extra[np.sort(np.unique(key(*extra.T), return_index=True)[1])]
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

