"""Discretely harmonic extension of boundary data and its diagnostics.

The extension of f solves S_II u_I = -S_IB f, so (L u)(p) = 0 at every
interior vertex p.  S_II is the S of the Dirichlet operator, the one
operator the extension assembles.  The right-hand side at p is 2 * the sum
of f over p's boundary neighbours, read off the mesh edges that join an
interior and a boundary vertex.  This holds for every c0: boundary edges
join two boundary vertices, so every edge at an interior vertex is an
interior edge, of conductance 1, and S_IB holds -2 on each such edge.  The
extension takes no c0; the energy bookkeeping around it (energy_split)
does.  Each row adds its terms -2 f(b) in ascending b from +0.0 and then
negates the sum, as the sparse product -(S_IB f) would.

The interior block is positive definite, so the extension exists and is
unique, is linear in f, satisfies the discrete maximum principle (each
interior value is a convex combination of neighbor values), and minimizes
the interior-edge energy among all extensions of f.

The interior system has one solve path: a smoothed-aggregation hierarchy
(3x3 blocks of lattice coordinates as aggregates, two damped-Jacobi sweeps
on each side of the coarse correction) whose coarsest matrix splu
factorizes.  Up to DIRECT_SOLVE_LIMIT interior vertices (levels 0-4) the
hierarchy is empty and that factorization is the solve; beyond it (levels 5
and 6) one V-cycle preconditions CG under the same residual check.  CG takes
11-12 iterations, at level 5 a fraction of the time a direct splu takes, as
the fill of the factorization grows faster than the system.  A CG result
differs from the direct one by roundoff and, through the BLAS reductions
inside CG, is byte-identical for a fixed BLAS thread count only; levels 0-4
keep the splu bytes.

Boundary data is checked in one place, `BoundaryData`, which wants
3 * 4**level finite values; `harmonic_extend` wraps a copy of the values it
is given in one of the mesh's level, so a wrong length, a BoundaryData of
another level (through the length: 3 * 4**a != 3 * 4**b for a != b) or a
non-finite value is a ValueError before any solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg, splu

from .lattice import Mesh, _lex_keys, boundary_cycle, boundary_hop_distance
from .operators import NumericalError, _edge_energies, assemble

# at least the level-4 interior count (4,789), so levels 0-4 solve directly,
# and below the level-5 first coarse size (5,300), so the level-5 and level-6
# hierarchies keep their levels and their 682-row coarsest matrix
DIRECT_SOLVE_LIMIT = 5000
# the smoothed-aggregation weight 4 / (3 rho) for rho(D^-1 A) = 1.5, its
# value on the finest level of the snowflake hierarchy (1.57 at most on the
# coarser ones; the tests check w rho < 2)
JACOBI_WEIGHT = 8.0 / 9.0
# a few times the 11-12 iterations CG takes at levels 5 and 6, so a failing
# preconditioner raises within seconds
CG_MAXITER = 100


@dataclass(frozen=True)
class BoundaryData:
    """Values on the boundary vertices, indexed by the mesh's ascending
    boundary vertex list (length 3 * 4**level)."""

    level: int
    values: np.ndarray

    def __post_init__(self):
        expect = 3 * 4 ** self.level
        if self.values.shape != (expect,):
            raise ValueError(
                f"level {self.level} boundary data needs {expect} values, "
                f"got shape {self.values.shape}")
        bad = np.flatnonzero(~np.isfinite(self.values))
        if len(bad):
            raise ValueError(
                f"boundary data has {len(bad)} non-finite values, the first "
                f"{self.values[bad[0]]} at index {bad[0]}")
        self.values.setflags(write=False)


def alternating_boundary_data(mesh: Mesh) -> BoundaryData:
    """+1/-1 alternating along the boundary polygon.  For level >= 1 its
    length 3 * 4**n is even, so the alternation closes up; at level 0 the
    cycle has 3 vertices, and its first and last are both +1."""
    cyc = boundary_cycle(mesh)
    pos = np.empty(mesh.num_vertices, dtype=np.int64)
    pos[cyc] = np.arange(len(cyc))
    vals = np.where(pos[mesh.boundary_vertices] % 2 == 0, 1.0, -1.0)
    return BoundaryData(level=mesh.level, values=vals)


def random_boundary_data(mesh: Mesh, seed: int = 0) -> BoundaryData:
    rng = np.random.default_rng(seed)
    return BoundaryData(level=mesh.level,
                        values=rng.standard_normal(mesh.num_boundary_vertices))


def _hierarchy(A: sparse.csr_matrix, points: np.ndarray
               ) -> tuple[list, sparse.csr_matrix]:
    """The levels (matrix, Jacobi weights, prolongator; finest first) of a
    smoothed-aggregation V-cycle for the SPD matrix A, whose rows sit at the
    integer lattice `points`, and the coarsest matrix, which has at most
    DIRECT_SOLVE_LIMIT rows.  A matrix that small has no level.

    Each level refines every triangle 3x3, so the aggregates are the 3x3
    blocks of lattice coordinates, on the fine points and again on the
    coarse ones.  With w = JACOBI_WEIGHT = 8/9, the prolongator is
    P = (I - w D^-1 A) P_tent and the coarse operator the Galerkin product
    P^T A P.  Two damped-Jacobi sweeps with the same weight run before the
    coarse correction and two after it, which keeps the cycle symmetric, as
    CG needs.  The weight is the smoothed-aggregation choice 4 / (3 rho) for
    rho(D^-1 A) = 1.5: on the level-5 and level-6 hierarchies rho is 1.50
    on the finest level and at most 1.57 on the coarser ones, so w rho is at
    most 1.40 < 2, each sweep converges and the cycle is positive definite.
    CG then takes 11-12 iterations at levels 5 and 6.
    """
    levels = []
    while A.shape[0] > DIRECT_SOLVE_LIMIT:
        blocks = points // 3
        _, first, agg = np.unique(_lex_keys(blocks)[2], return_index=True,
                                  return_inverse=True)
        points = blocks[first]
        rows = A.shape[0]
        tent = sparse.csr_matrix((np.ones(rows), agg, np.arange(rows + 1)),
                                 shape=(rows, len(points)))
        w = JACOBI_WEIGHT / A.diagonal()
        P = tent - sparse.diags(w) @ (A @ tent)
        levels.append((A, w, P))
        # (AP)^T P = P^T A P, as A is symmetric; this order converts P, not
        # the larger AP, to CSC
        A = ((A @ P).T @ P).tocsr()
    return levels, A


def _vcycle(levels, coarse, r):
    """Apply the V-cycle of `levels` (matrix, Jacobi weights, prolongator;
    finest first) above the factorized coarsest matrix to r.

    A module function, not a closure: a closure that calls itself is a
    reference cycle, which keeps the hierarchy (about 70 MB at level 6)
    alive after the solve until the cycle collector runs.
    """
    if not levels:
        return coarse.solve(r)
    (A, w, P), rest = levels[0], levels[1:]
    # two Jacobi sweeps from x = 0, the coarse correction, two more sweeps
    x = w * r
    x += w * (r - A @ x)
    x += P @ _vcycle(rest, coarse, P.T @ (r - A @ x))
    x += w * (r - A @ x)
    x += w * (r - A @ x)
    return x


def harmonic_extend(mesh: Mesh, f) -> np.ndarray:
    """Extend boundary data to all vertices with zero Laplacian inside.

    Returns a vector on all mesh vertices equal to f on the boundary.
    Direct sparse factorization up to DIRECT_SOLVE_LIMIT interior vertices,
    multigrid-preconditioned conjugate gradients beyond (relative tolerance
    1e-13, at most CG_MAXITER iterations); either way the interior residual
    is checked.  f is a BoundaryData or an array of boundary values; values
    that BoundaryData rejects at the mesh's level raise ValueError, a solve
    that does not converge or fails the residual check NumericalError.
    """
    # a copy: BoundaryData makes its array read-only
    values = f.values if isinstance(f, BoundaryData) else f
    f = BoundaryData(mesh.level, np.array(values, dtype=float))
    u = np.zeros(mesh.num_vertices)
    u[mesh.boundary_vertices] = f.values
    # the Dirichlet operator holds the interior system: its rows, its S (the
    # same for any c0, as no boundary edge meets an interior vertex) and its
    # lattice points; a mesh with no interior vertex has nothing to solve
    inner = assemble(mesh, "dirichlet")
    iidx, S_II = inner.vertex_map, inner.S
    if len(iidx) == 0:
        return u
    # -S_IB f from the interior-boundary edges: mesh edges are lex-sorted
    # pairs i < j, so each row's terms come in ascending b; the product
    # -2 f(b) overflows to inf with no warning, as in a sparse product
    flags = mesh.boundary_flags[mesh.edges]
    cross = flags[:, 0] != flags[:, 1]
    ends, at_bd = mesh.edges[cross], flags[cross]
    with np.errstate(over="ignore"):
        coupling = -2.0 * u[ends[at_bd]]
    rhs = -np.bincount(ends[~at_bd], coupling, mesh.num_vertices)[iidx]

    levels, coarsest = _hierarchy(S_II, inner.lattice_points)
    vcycle = partial(_vcycle, levels, splu(coarsest.tocsc()))
    if not levels:
        u_int = vcycle(rhs)
    else:
        u_int, info = cg(S_II, rhs, rtol=1e-13, atol=0.0,
                         maxiter=CG_MAXITER,
                         M=LinearOperator(S_II.shape, vcycle, dtype=float))
        if info != 0:
            raise NumericalError(
                f"conjugate gradients did not converge (info={info})")

    scale = max(1.0, float(np.max(np.abs(rhs))))
    resid = float(np.max(np.abs(S_II @ u_int - rhs)))
    if not resid <= 1e-9 * scale:
        raise NumericalError(
            f"interior solve residual {resid:.3e} above tolerance")

    u[iidx] = u_int
    return u


def energy_split(mesh: Mesh, u: np.ndarray, c0: float = 1.0
                 ) -> tuple[float, float]:
    """(interior-edge energy, boundary-edge energy); the two sum to the
    graph energy of u.  NumericalError if one is not finite."""
    b = mesh.edge_is_boundary
    return tuple(_edge_energies(mesh, u, c0, ~b, b))


def decay_profile(mesh: Mesh, u: np.ndarray) -> list[tuple[int, float]]:
    """Sup of |u| over interior vertices, grouped by graph hop distance to
    the nearest boundary vertex (distance 1 is the first interior shell)."""
    u = mesh.vertex_values(u)
    dist = boundary_hop_distance(mesh)
    inner = dist > 0  # not the boundary (0) nor a vertex it misses (-1)
    # no shell is empty: a vertex at d >= 1 has a neighbor at d - 1
    peak = np.zeros(int(dist.max()) + 1)
    with np.errstate(invalid="ignore"):  # a NaN passes on, as in np.max
        np.maximum.at(peak, dist[inner], np.abs(u[inner]))
    return [(d, float(peak[d])) for d in range(1, len(peak))]
