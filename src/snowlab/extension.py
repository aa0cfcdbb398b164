"""Discretely harmonic extension of boundary data and its diagnostics.

The extension of f solves the interior block of the stiffness system,
S_II u_I = -S_IB f, so (L u)(p) = 0 at every interior vertex p; both
blocks are built from the edges at interior vertices alone
(operators.interior_blocks).  Edges incident to an interior vertex are
always interior edges (boundary edges join two boundary vertices), so the
extension does not depend on the boundary coupling c0 and takes none; the
energy bookkeeping around it (energy_split) does.

The interior block is positive definite, so the extension exists and is
unique, is linear in f, satisfies the discrete maximum principle (each
interior value is a convex combination of neighbor values), and minimizes
the interior-edge energy among all extensions of f.

Up to DIRECT_SOLVE_LIMIT interior vertices (levels 0-4) the interior system
is factorized by splu; beyond it (levels 5 and 6) it is solved by
multigrid-preconditioned CG under the same residual check: the
preconditioner is one smoothed-aggregation V-cycle whose aggregates are 3x3
blocks of lattice coordinates, with two damped-Jacobi sweeps on each side
of the coarse correction.  CG converges in 11-12 iterations at levels 5 and
6, at level 5 in a fraction of the time splu takes, as the fill of the
factorization grows faster than the system.  A CG result differs from the
splu result by roundoff and, through the BLAS reductions inside CG, is
byte-identical for a fixed BLAS thread count only; levels 0-4 keep the
splu bytes.

Boundary data is checked in one place, `BoundaryData`, which wants
3 * 4**level finite values; `harmonic_extend` wraps a copy of an array in
one, so a wrong length or a non-finite value is a ValueError before any
solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg, splu

from .lattice import Mesh, _lex_keys, boundary_cycle, boundary_hop_distance
from .operators import _edge_energies, interior_blocks
from .solver import NumericalError

# between the level-4 (4,789) and level-5 (45,397) interior counts
DIRECT_SOLVE_LIMIT = 10000
COARSE_SOLVE_LIMIT = 3000
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
    """+1/-1 alternating along the boundary polygon (its length 3 * 4**n is
    even, so the alternation closes up)."""
    cyc = boundary_cycle(mesh)
    pos = np.empty(mesh.num_vertices, dtype=np.int64)
    pos[cyc] = np.arange(len(cyc))
    vals = np.where(pos[mesh.boundary_vertices] % 2 == 0, 1.0, -1.0)
    return BoundaryData(level=mesh.level, values=vals)


def random_boundary_data(mesh: Mesh, seed: int = 0) -> BoundaryData:
    rng = np.random.default_rng(seed)
    return BoundaryData(level=mesh.level,
                        values=rng.standard_normal(mesh.num_boundary_vertices))


def _as_values(mesh: Mesh, f) -> np.ndarray:
    if not isinstance(f, BoundaryData):
        # a copy: BoundaryData makes its array read-only
        f = BoundaryData(mesh.level, np.array(f, dtype=float))
    elif f.level != mesh.level:
        raise ValueError(
            f"boundary data is level {f.level}, mesh is level {mesh.level}")
    return f.values


def _multigrid(A: sparse.csr_matrix, points: np.ndarray) -> LinearOperator:
    """One smoothed-aggregation V-cycle as an approximate inverse of the SPD
    matrix A, whose rows sit at the integer lattice `points`.

    Each level refines every triangle 3x3, so the aggregates are the 3x3
    blocks of lattice coordinates, on the fine points and again on the
    coarse ones.  With w = JACOBI_WEIGHT = 8/9, the prolongator is
    P = (I - w D^-1 A) P_tent, the coarse operator the Galerkin product
    P^T A P, and the hierarchy ends in one splu at COARSE_SOLVE_LIMIT
    unknowns.  Two damped-Jacobi sweeps with the same weight run before the
    coarse correction and two after it, which keeps the cycle symmetric, as
    CG needs.  The weight is the smoothed-aggregation choice 4 / (3 rho) for
    rho(D^-1 A) = 1.5: on the level-5 and level-6 hierarchies rho is 1.50
    on the finest level and at most 1.57 on the coarser ones, so w rho is at
    most 1.40 < 2, each sweep converges and the cycle is positive definite.
    CG then takes 11-12 iterations at levels 5 and 6.
    """
    n = A.shape[0]
    levels, coarsest = _hierarchy(A, points)
    return LinearOperator((n, n), matvec=partial(_vcycle, levels,
                                                 splu(coarsest.tocsc())),
                          dtype=float)


def _hierarchy(A: sparse.csr_matrix, points: np.ndarray
               ) -> tuple[list, sparse.csr_matrix]:
    """The levels (matrix, Jacobi weights, prolongator; finest first) of
    _multigrid's V-cycle for A at `points`, and the coarsest matrix."""
    levels = []
    while A.shape[0] > COARSE_SOLVE_LIMIT:
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
    is checked.  f is a BoundaryData of the mesh's level or an array of
    boundary values; data that BoundaryData rejects raises ValueError, a
    solve that does not converge or fails the residual check NumericalError.
    """
    vals = _as_values(mesh, f)
    u = np.zeros(mesh.num_vertices)
    u[mesh.boundary_vertices] = vals
    iidx = mesh.interior_vertices
    if len(iidx) == 0:
        return u

    S_II, S_IB = interior_blocks(mesh)
    rhs = -(S_IB @ vals)

    if len(iidx) <= DIRECT_SOLVE_LIMIT:
        # S_II is symmetric, so its transpose is a CSC view of S_II itself
        u_int = splu(S_II.T).solve(rhs)
    else:
        u_int, info = cg(S_II, rhs, rtol=1e-13, atol=0.0,
                         maxiter=CG_MAXITER,
                         M=_multigrid(S_II, mesh.vertices[iidx]))
        if info != 0:
            raise NumericalError(
                f"conjugate gradients did not converge (info={info})")

    scale = max(1.0, float(np.max(np.abs(rhs))) if len(rhs) else 1.0)
    resid = float(np.max(np.abs(S_II @ u_int - rhs)))
    if not resid <= 1e-9 * scale:
        raise NumericalError(
            f"interior solve residual {resid:.3e} above tolerance")

    u[iidx] = u_int
    return u


def energy_split(mesh: Mesh, u: np.ndarray, c0: float = 1.0
                 ) -> tuple[float, float]:
    """(interior-edge energy, boundary-edge energy); the two sum to the
    graph energy of u."""
    e = _edge_energies(mesh, u, c0)
    b = mesh.edge_is_boundary
    return float(np.sum(e[~b])), float(np.sum(e[b]))


def decay_profile(mesh: Mesh, u: np.ndarray) -> list[tuple[int, float]]:
    """Sup of |u| over interior vertices, grouped by graph hop distance to
    the nearest boundary vertex (distance 1 is the first interior shell)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_vertices,):
        raise ValueError(
            f"vector has shape {u.shape}, mesh has {mesh.num_vertices} vertices")
    dist = boundary_hop_distance(mesh)
    inner = dist > 0  # not the boundary (0) nor a vertex it misses (-1)
    # no shell is empty: a vertex at d >= 1 has a neighbor at d - 1
    peak = np.zeros(int(dist.max()) + 1)
    with np.errstate(invalid="ignore"):  # a NaN passes on, as in np.max
        np.maximum.at(peak, dist[inner], np.abs(u[inner]))
    return [(d, float(peak[d])) for d in range(1, len(peak))]
