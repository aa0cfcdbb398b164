"""Conductances, vertex measures, graph energy, and the discrete operators.

The level-n graph energy is a sum over unordered adjacent vertex pairs,

    E_n(u) = sum_{p ~ q} c_n(p, q) (u(p) - u(q))^2,

with conductance 1 on interior edges and c0 * 4**n on boundary edges.  The
vertex measure is 9**-n at interior vertices and 4**-n at boundary vertices.
The operator acts by

    (L u)(p) = (2 / m(p)) * sum_q c(p, q) (u(p) - u(q)),

assembled as L = M^-1 S with S_pq = -2 c(p, q), S_pp = 2 sum_q c(p, q).
With this pairing convention <L u, u>_m = 2 E_n(u).  L is positive
semidefinite; eigenvalues are reported nonnegative.

Each operator kind is S built from the kind's edges on the kind's own
vertices (so a kept vertex's diagonal counts all its edges, edges to
dropped vertices included).  The kinds:
  full       all vertices, all edges: S and m as built;
  dirichlet  interior vertices, all edges: equal to the full S and m with
             boundary rows and columns deleted (zero boundary conditions);
  boundary   boundary vertices, boundary edges only (the weighted cycle
             graph carried by the snowflake polygon).

Exactness notes: 4**-n and 4**n are exact doubles and 9**-n is within 1
ulp, so m comes with its exact integer reciprocals 9**n and 4**n.  Each S_pp
rounds once, alike at all D6 images of a vertex (see assemble).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .lattice import Mesh, build_mesh, cartesian_coordinates

KINDS = ("full", "dirichlet", "boundary")


@dataclass(frozen=True)
class OperatorBundle:
    """Stiffness matrix, mass vector, and vertex bookkeeping for one kind.

    S is sparse CSR symmetric.  m holds the vertex measures and inv_m their
    exact reciprocals (integer-valued doubles, exact below 2**53).
    vertex_map gives, for each operator row, the underlying mesh vertex, and
    lattice_points its integer lattice coordinates.  vertex_map ascends, so
    the rows are in lattice (lex) order, which the D6 lookup relies on.
    Immutable after assembly; safe to share across threads.
    """

    kind: str
    level: int
    c0: float
    S: sparse.csr_matrix
    m: np.ndarray
    inv_m: np.ndarray
    vertex_map: np.ndarray
    lattice_points: np.ndarray  # (d, 2) int64, mesh.vertices[vertex_map]

    def __post_init__(self):
        for arr in (self.m, self.inv_m, self.vertex_map, self.lattice_points):
            arr.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.S.shape[0]


def edge_conductances(mesh: Mesh, c0: float = 1.0) -> np.ndarray:
    """Per-edge conductances aligned with mesh.edges; needs 0 < c0 < inf."""
    if not 0 < c0 < np.inf:
        raise ValueError(f"c0 must be positive and finite, got {c0}")
    c = np.ones(len(mesh.edges))
    c[mesh.edge_is_boundary] = c0 * float(4 ** mesh.level)
    return c


def assemble(mesh: Mesh, kind: str = "full", c0: float = 1.0) -> OperatorBundle:
    """Assemble the stiffness/mass pair for the requested operator kind.

    S is built from the kind's edges: -2c off the diagonal, and on it
    2 (n_int + n_bd c0 4**n) from the integer counts of the kind's interior
    and boundary edges at the vertex.  n_bd (2 or 0) times c0 4**n is exact,
    so only the sum rounds, and all D6 images of a vertex get the same bits
    at any c0.  The Dirichlet kind (all edges) and the boundary kind
    (boundary edges) keep the edges with both ends among their vertices,
    renumbered through one position map, and the diagonal and m there.  Mesh
    edges are lex-sorted pairs with i < j and the renumbering ascends, so
    the kept edges stay so; with the entries listed below, on, then above
    the diagonal, every row leaves the stable CSR conversion sorted.  The
    vertex measures m, 4**-n on the boundary and 9**-n inside, and their
    reciprocals inv_m are set from the kind's vertices' boundary flags.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")

    n, c, edges = mesh.num_vertices, edge_conductances(mesh, c0), mesh.edges
    vmap, bd = np.arange(n), mesh.edge_is_boundary
    if kind == "boundary":
        c, edges, bd = c[bd], edges[bd], bd[bd]
    # the edge ends in the int32 index type of the CSR results whenever it
    # fits, as the index arrays set the memory peak of assembly
    i, j = edges.T.astype(np.int32 if n < 2**31 else np.int64)
    diag = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    diag = diag.astype(float)  # the degrees, exact
    # the product only at the n_bd > 0 ends v, as c0 4**n may overflow to inf
    v, n_bd = np.unique(np.concatenate([i[bd], j[bd]]), return_counts=True)
    diag[v] = (diag[v] - n_bd) + n_bd * (c0 * float(4 ** mesh.level))
    if kind != "full":
        vmap = (mesh.interior_vertices if kind == "dirichlet"
                else mesh.boundary_vertices)
        pos = np.full(n, -1, dtype=i.dtype)
        pos[vmap] = np.arange(len(vmap), dtype=i.dtype)
        i, j = pos[i], pos[j]
        keep = (i >= 0) & (j >= 0)
        n, c, i, j, diag = len(vmap), c[keep], i[keep], j[keep], diag[vmap]
    ids = np.arange(n, dtype=i.dtype)
    off = -2.0 * c
    S = sparse.coo_matrix(
        (np.concatenate([off, 2.0 * diag, off]),
         (np.concatenate([j, ids, i]), np.concatenate([i, ids, j]))),
        shape=(n, n)).tocsr()
    flags, points, lev = mesh.boundary_flags, mesh.vertices, mesh.level
    if kind != "full":
        flags, points = flags[vmap], points[vmap]
    m = np.where(flags, 1.0 / (4 ** lev), 1.0 / (9 ** lev))
    inv_m = np.where(flags, float(4 ** lev), float(9 ** lev))
    return OperatorBundle(kind=kind, level=mesh.level, c0=c0, S=S, m=m,
                          inv_m=inv_m, vertex_map=vmap, lattice_points=points)


def apply(op: OperatorBundle, u: np.ndarray) -> np.ndarray:
    """L u with L = M^-1 S."""
    u = np.asarray(u, dtype=float)
    if u.shape != (op.dimension,):
        raise ValueError(
            f"vector has shape {u.shape}, operator dimension {op.dimension}")
    return op.inv_m * (op.S @ u)


class NumericalError(Exception):
    """A non-finite result, a residual above tolerance or a failed solve."""


def _edge_energies(mesh: Mesh, u: np.ndarray, c0: float,
                   *parts) -> list[float]:
    """The sum of c(p, q) (u(p) - u(q))^2 over the edges that each part
    (an index into mesh.edges) selects.  Where c0 * 4**n or the data
    overflows a product or a sum, NumericalError, with no NumPy warning."""
    u = mesh.vertex_values(u)
    c = edge_conductances(mesh, c0)
    d = u[mesh.edges[:, 0]] - u[mesh.edges[:, 1]]
    with np.errstate(over="ignore", invalid="ignore"):
        e = c * d * d
        sums = [float(np.sum(e[p])) for p in parts]
    if not np.all(np.isfinite(sums)):
        raise NumericalError(f"energies {sums} are not all finite: "
                             f"c0 * 4**level or the data is too large")
    return sums


def energy(mesh: Mesh, u: np.ndarray, c0: float = 1.0) -> float:
    """Graph energy E_n(u) over unordered adjacent pairs; NumericalError if
    it is not finite."""
    return _edge_energies(mesh, u, c0, slice(None))[0]


ENERGY_PARTS = ("total", "interior", "boundary")


def energy_sequence(f: Callable[[float, float], float], n_max: int,
                    c0: float = 1.0, part: str = "total") -> list[float]:
    """E_n of f sampled on the level-n vertices, for n = 0..n_max.

    A convergence diagnostic: for smooth f the interior part approaches the
    Dirichlet integral of f over the snowflake domain, while the boundary
    part converges only when the boundary restriction has finite boundary
    energy (constants do; generic smooth traces need not).  `part` selects
    which piece to report.  NumericalError if a value is not finite.
    """
    if part not in ENERGY_PARTS:
        raise ValueError(f"part must be one of {ENERGY_PARTS}, got {part!r}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    out = []
    # level n_max first: its mesh guard fails before any smaller mesh exists
    for n in (n_max, *range(n_max)):
        mesh = build_mesh(n)
        xs, ys = cartesian_coordinates(mesh).T
        u = [f(x, y) for x, y in zip(xs, ys)]
        edges = slice(None) if part == "total" else (
            mesh.edge_is_boundary == (part == "boundary"))
        out += _edge_energies(mesh, u, c0, edges)
    return out[1:] + out[:1]
