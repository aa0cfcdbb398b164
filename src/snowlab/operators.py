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

Three operator kinds:
  full       all vertices, all edges;
  dirichlet  the full S and m with boundary rows and columns deleted
             (zero boundary conditions);
  boundary   boundary vertices and boundary edges only (the weighted cycle
             graph carried by the snowflake polygon).

Exactness notes: conductances and masses are dyadic/ternary rationals stored
as doubles.  Powers of two (4**-n, 4**n) are exact; 9**-n is within 1 ulp;
the exact integer reciprocals 9**n and 4**n are kept alongside m so row sums
of |L| can be formed without any rounding at all.
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
    lattice_points its integer lattice coordinates (the solver reads the
    mesh symmetry from them).  Immutable after assembly; safe to share
    across threads.
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
    """Per-edge conductance array aligned with mesh.edges."""
    c = np.ones(len(mesh.edges))
    c[mesh.edge_is_boundary] = c0 * float(4 ** mesh.level)
    return c


def _mass_vectors(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    n = mesh.level
    m = np.where(mesh.boundary_flags, 1.0 / (4 ** n), 1.0 / (9 ** n))
    inv_m = np.where(mesh.boundary_flags, float(4 ** n), float(9 ** n))
    return m, inv_m


def _stiffness(num_vertices: int, edges: np.ndarray,
               c: np.ndarray) -> sparse.csr_matrix:
    """S_pq = -2c on edges, S_pp = 2 * sum of incident c."""
    i, j = edges[:, 0], edges[:, 1]
    diag = np.zeros(num_vertices)
    np.add.at(diag, i, 2.0 * c)
    np.add.at(diag, j, 2.0 * c)
    return _symmetric_csr(num_vertices, i, j, -2.0 * c, diag)


def _symmetric_csr(n: int, i: np.ndarray, j: np.ndarray, off: np.ndarray,
                   diag: np.ndarray) -> sparse.csr_matrix:
    """The symmetric n x n CSR matrix with off[k] at (i[k], j[k]) and
    (j[k], i[k]) and diag on the diagonal.

    For lex-sorted pairs with i < j (mesh edges, and any monotone
    renumbering of them) the entries are listed below the diagonal, on it,
    then above it, so every row comes out of the stable conversion to CSR
    already sorted and the conversion skips its sort.
    """
    # The (row, col) arrays set the memory peak of assembly, so they take
    # the int32 index type of the CSR result whenever it fits.
    itype = np.int32 if n < 2**31 else np.int64
    ids = np.arange(n, dtype=itype)
    rows = np.concatenate([j, ids, i], dtype=itype)
    cols = np.concatenate([i, ids, j], dtype=itype)
    vals = np.concatenate([off, diag, off])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def interior_blocks(mesh: Mesh) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """(S_II, S_IB): the interior rows of the stiffness matrix S, split into
    the interior columns and the boundary columns (ascending vertex order
    within each), built from the edges at interior vertices alone.

    Every edge at an interior vertex has conductance 1 (boundary edges join
    two boundary vertices), so neither block depends on c0, and the entries
    are the exact integers -2 and 2 * degree.  Both blocks are equal, array
    for array, to slices of the assembled full S.
    """
    flags = mesh.boundary_flags
    nb = int(np.count_nonzero(flags))
    n = len(flags) - nb
    # interior vertex -> its row, boundary vertex -> -1 - its boundary index
    pos = np.cumsum(~flags) - 1
    pos[flags] = np.arange(-1, -1 - nb, -1)
    i, j = pos[mesh.edges[:, 0]], pos[mesh.edges[:, 1]]
    inner = (i >= 0) & (j >= 0)
    cross = (i >= 0) != (j >= 0)
    p = np.maximum(i[cross], j[cross])       # the interior end
    q = -1 - np.minimum(i[cross], j[cross])  # the boundary end
    i, j = i[inner], j[inner]
    diag = 2.0 * (np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
                  + np.bincount(p, minlength=n))
    S_II = _symmetric_csr(n, i, j, np.full(len(i), -2.0), diag)
    S_IB = sparse.coo_matrix((np.full(len(p), -2.0), (p, q)),
                             shape=(n, nb)).tocsr()
    return S_II, S_IB


def assemble(mesh: Mesh, kind: str = "full", c0: float = 1.0) -> OperatorBundle:
    """Assemble the stiffness/mass pair for the requested operator kind.

    The dirichlet bundle is literally the full bundle with boundary rows and
    columns deleted, so the two agree entry for entry on the interior block;
    it is built from the edges at interior vertices (interior_blocks)
    without assembling the full matrix.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if not c0 > 0:
        raise ValueError(f"c0 must be positive, got {c0}")

    m, inv_m = _mass_vectors(mesh)

    if kind == "boundary":
        bidx = mesh.boundary_vertices
        pos = np.full(mesh.num_vertices, -1, dtype=np.int64)
        pos[bidx] = np.arange(len(bidx))
        bedges = pos[mesh.edges[mesh.edge_is_boundary]]
        c = np.full(len(bedges), c0 * float(4 ** mesh.level))
        S = _stiffness(len(bidx), bedges, c)
        return OperatorBundle(kind=kind, level=mesh.level, c0=c0, S=S,
                              m=m[bidx].copy(), inv_m=inv_m[bidx].copy(),
                              vertex_map=bidx.copy(),
                              lattice_points=mesh.vertices[bidx])

    if kind == "full":
        S = _stiffness(mesh.num_vertices, mesh.edges,
                       edge_conductances(mesh, c0))
        vmap = np.arange(mesh.num_vertices, dtype=np.int64)
        return OperatorBundle(kind=kind, level=mesh.level, c0=c0, S=S,
                              m=m, inv_m=inv_m, vertex_map=vmap,
                              lattice_points=mesh.vertices)

    # the interior block does not depend on c0
    iidx = mesh.interior_vertices
    return OperatorBundle(kind=kind, level=mesh.level, c0=c0,
                          S=interior_blocks(mesh)[0],
                          m=m[iidx].copy(), inv_m=inv_m[iidx].copy(),
                          vertex_map=iidx.copy(),
                          lattice_points=mesh.vertices[iidx])


def apply(op: OperatorBundle, u: np.ndarray) -> np.ndarray:
    """L u with L = M^-1 S."""
    u = np.asarray(u, dtype=float)
    if u.shape != (op.dimension,):
        raise ValueError(
            f"vector has shape {u.shape}, operator dimension {op.dimension}")
    return op.inv_m * (op.S @ u)


def _edge_energies(mesh: Mesh, u: np.ndarray, c0: float = 1.0) -> np.ndarray:
    """c(p, q) (u(p) - u(q))^2 per edge, aligned with mesh.edges."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_vertices,):
        raise ValueError(
            f"vector has shape {u.shape}, mesh has {mesh.num_vertices} vertices")
    c = edge_conductances(mesh, c0)
    d = u[mesh.edges[:, 0]] - u[mesh.edges[:, 1]]
    return c * d * d


def energy(mesh: Mesh, u: np.ndarray, c0: float = 1.0) -> float:
    """Graph energy E_n(u) over unordered adjacent pairs."""
    return float(np.sum(_edge_energies(mesh, u, c0)))


ENERGY_PARTS = ("total", "interior", "boundary")


def energy_sequence(f: Callable[[float, float], float], n_max: int,
                    c0: float = 1.0, part: str = "total") -> list[float]:
    """E_n of f sampled on the level-n vertices, for n = 0..n_max.

    A convergence diagnostic: for smooth f the interior part approaches the
    Dirichlet integral of f over the snowflake domain, while the boundary
    part converges only when the boundary restriction has finite boundary
    energy (constants do; generic smooth traces need not).  `part` selects
    which piece to report.
    """
    if part not in ENERGY_PARTS:
        raise ValueError(f"part must be one of {ENERGY_PARTS}, got {part!r}")
    out = []
    for n in range(n_max + 1):
        mesh = build_mesh(n)
        xy = cartesian_coordinates(mesh)
        e = _edge_energies(mesh, [f(x, y) for x, y in xy], c0)
        if part != "total":
            e = e[mesh.edge_is_boundary == (part == "boundary")]
        out.append(float(np.sum(e)))
    return out
