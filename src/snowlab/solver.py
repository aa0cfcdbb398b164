"""Eigensolvers for the generalized problem S x = lambda M x.

The mass matrix is diagonal and strictly positive, so the problem is reduced
to an ordinary symmetric one via D = M^-1/2 S M^-1/2 and back-transformed
with phi = M^-1/2 y.  That keeps the spectrum real and makes the computed
eigenvectors orthogonal in the m-inner product, which a nonsymmetric solve
of M^-1 S would not guarantee.

Normalization and ordering are deterministic so that exported files are
byte-identical across runs: eigenvalues ascending, each eigenvector scaled
to <phi, phi>_m = 1, and the sign chosen so the entry of largest absolute
value is positive (ties within 1e-12 of the max resolved to the lowest
index).  Tiny negative eigenvalues from roundoff are clamped to zero; the
operators are positive semidefinite by construction.

The dense path covers dimensions up to the guard.  It solves D block by
block in the D6 symmetry-adapted basis of `snowlab.symmetry`: one
scipy.linalg.eigh per irrep, with the second partner of each
two-dimensional irrep taken from the same block solve.  Eigenvalues of a
partner pair are therefore bit-equal and every pair has a canonical basis,
so the symmetry-forced degeneracies no longer leave the basis to the
LAPACK/BLAS internals.  Operators without the symmetry (level 0) are one
identity block.  The Krylov path (ARPACK with full reorthogonalization of
the restarted basis) covers extremal windows at larger sizes and is
validated against the dense path on overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

from .operators import OperatorBundle
from .symmetry import irrep_blocks

DENSE_GUARD_DEFAULT = 6000
RESIDUAL_TOL_DEFAULT = 1e-8
SIGN_TIE_TOL = 1e-12

SIGN_RULE = "largest-abs-entry-positive; ties within 1e-12 -> lowest index"
NORMALIZATION = "m-inner-product unit norm"


class SolverError(Exception):
    """Base class for solver failures."""


class DenseGuardError(SolverError):
    """Problem too large for the dense path; use eig_partial."""


class NumericalError(SolverError):
    """Residuals above tolerance or iteration did not converge."""


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenpairs of one operator.

    eigenvalues ascending with repeats; eigenvectors[:, j] is the j-th
    eigenvector on the operator's vertex set, m-normalized and sign-fixed;
    residuals[j] = ||S phi - lambda M phi||_inf.  irreps[j] names the
    symmetry block of pair j (A1, A2, B1, B2, E1, E1', E2, E2', or A for an
    operator solved without symmetry); None when the solver did not use
    blocks.
    """

    kind: str
    level: int
    c0: float
    eigenvalues: np.ndarray   # (k,)
    eigenvectors: np.ndarray  # (d, k)
    residuals: np.ndarray     # (k,)
    vertex_map: np.ndarray    # (d,) mesh vertex index per row
    solver: str
    irreps: tuple | None = None  # (k,) block tag per pair

    def __post_init__(self):
        for arr in (self.eigenvalues, self.eigenvectors, self.residuals,
                    self.vertex_map):
            arr.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def truncated(self, k: int) -> "Spectrum":
        """First k eigenpairs as a new Spectrum (low end of this one)."""
        if not 1 <= k <= self.count:
            raise ValueError(f"k must be in 1..{self.count}, got {k}")
        return replace(
            self,
            eigenvalues=self.eigenvalues[:k].copy(),
            eigenvectors=self.eigenvectors[:, :k].copy(),
            residuals=self.residuals[:k].copy(),
            irreps=None if self.irreps is None else self.irreps[:k])


def symmetrize(op: OperatorBundle) -> sparse.csr_matrix:
    """D = M^-1/2 S M^-1/2, exactly symmetric entrywise.

    Each entry is scaled by the single product d_i * d_j (commutative, so
    the (i, j) and (j, i) entries round identically).
    """
    d = np.sqrt(op.inv_m)
    C = op.S.tocoo()
    vals = C.data * (d[C.row] * d[C.col])
    return sparse.coo_matrix(
        (vals, (C.row, C.col)), shape=C.shape).tocsr()


def _finalize(op: OperatorBundle, w: np.ndarray, Y: np.ndarray,
              solver: str, residual_tol: float,
              irreps: tuple | None = None, block: int = 256) -> Spectrum:
    """Back-transform, normalize, sign-fix, clamp, and check residuals.

    Y is scratch owned by the caller: the eigenvectors overwrite it column
    block by column block, so no second (d, k) array is allocated.
    """
    d_back = np.sqrt(op.inv_m)

    scale = max(1.0, float(np.max(np.abs(w))) if len(w) else 1.0)
    neg_tol = residual_tol * scale
    if np.any(w < -neg_tol):
        worst = float(np.min(w))
        raise NumericalError(
            f"eigenvalue {worst} below -{neg_tol:.3e}; operator should be PSD")
    w = np.where(w < 0.0, 0.0, w)

    k = Y.shape[1]
    Phi = Y
    residuals = np.empty(k)
    m = op.m
    S = op.S
    for lo in range(0, k, block):
        hi = min(lo + block, k)
        P = d_back[:, None] * Y[:, lo:hi]
        # back-transform preserves the m-norm of unit vectors; renormalize
        # to absorb roundoff
        nrm = np.sqrt(np.sum(m[:, None] * P * P, axis=0))
        P /= nrm
        A = np.abs(P)
        mx = A.max(axis=0)
        lead = np.argmax(A >= (mx[None, :] - SIGN_TIE_TOL), axis=0)
        signs = np.where(P[lead, np.arange(hi - lo)] < 0.0, -1.0, 1.0)
        P *= signs
        R = S @ P - (m[:, None] * P) * w[lo:hi]
        residuals[lo:hi] = np.max(np.abs(R), axis=0)
        Phi[:, lo:hi] = P

    bound = residual_tol * np.maximum(1.0, w)
    bad = np.flatnonzero(residuals > bound)
    if bad.size:
        j = int(bad[0])
        raise NumericalError(
            f"{bad.size} residuals above tolerance; first at pair {j}: "
            f"residual {residuals[j]:.3e} > {bound[j]:.3e}")

    return Spectrum(kind=op.kind, level=op.level, c0=op.c0,
                    eigenvalues=w, eigenvectors=Phi, residuals=residuals,
                    vertex_map=op.vertex_map, solver=solver, irreps=irreps)


def _require_rows(op: OperatorBundle) -> None:
    """Reject an operator with no rows: the Dirichlet operator of a mesh
    without interior vertices (level 0)."""
    if op.dimension == 0:
        raise ValueError(
            f"the {op.kind} operator at level {op.level} has no rows: "
            f"the mesh has no interior vertex")


def eig_full(op: OperatorBundle, dense_guard: int = DENSE_GUARD_DEFAULT,
             residual_tol: float = RESIDUAL_TOL_DEFAULT) -> Spectrum:
    """Full spectrum by dense eigendecomposition of D, one symmetry block
    at a time.

    Pairs are sorted by eigenvalue; equal eigenvalues keep the block order
    A1, A2, B1, B2, E1, E1', E2, E2'.  Each block's back-transform is
    written straight into its sorted columns of one (d, d) array.
    """
    _require_rows(op)
    n = op.dimension
    if n > dense_guard:
        raise DenseGuardError(
            f"dimension {n} exceeds dense guard {dense_guard}; "
            f"use eig_partial for extremal windows")
    D = symmetrize(op)
    solved = []  # (tag, basis, eigenvalues, block eigenvectors)
    for blk in irrep_blocks(op):
        if blk.size == 0:
            continue
        A = (blk.basis.T @ (D @ blk.basis)).toarray()
        w, Y = scipy.linalg.eigh(A, overwrite_a=True, check_finite=False)
        solved.append((blk.tag, blk.basis, w, Y))
        if blk.partner is not None:
            solved.append((blk.partner_tag, blk.partner, w, Y))

    w_all = np.concatenate([w for _, _, w, _ in solved])
    order = np.argsort(w_all, kind="stable")
    column = np.empty(n, dtype=np.int64)
    column[order] = np.arange(n)
    Phi = np.empty((n, n), order="F")
    lo = 0
    for _, Q, w, Y in solved:
        hi = lo + len(w)
        Phi[:, column[lo:hi]] = Q @ Y
        lo = hi
    tags = np.repeat([tag for tag, _, _, _ in solved],
                     [len(w) for _, _, w, _ in solved])
    return _finalize(op, w_all[order], Phi, "dense", residual_tol,
                     irreps=tuple(tags[order].tolist()))


def eig_partial(op: OperatorBundle, k: int, which: str = "smallest",
                seed: int = 0, maxiter: int | None = None,
                residual_tol: float = RESIDUAL_TOL_DEFAULT) -> Spectrum:
    """k extremal eigenpairs by a Krylov scheme on D.

    which="smallest" runs shift-invert at sigma = -1 (D + I is positive
    definite, so the factorization is safe and the smallest eigenvalues of D
    map to the largest of the inverse); which="largest" runs plain Lanczos.
    A fixed seed for the start vector keeps runs reproducible.  Windows of
    size >= dimension - 1 fall through to the dense path (ARPACK needs
    k < dimension) and are sliced from it, irrep tags included; Krylov
    results carry no tags.
    """
    _require_rows(op)
    n = op.dimension
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if which not in ("smallest", "largest"):
        raise ValueError(f"which must be 'smallest' or 'largest', got {which!r}")

    if k >= n - 1 or n <= 32:
        full = eig_full(op, dense_guard=max(DENSE_GUARD_DEFAULT, n),
                        residual_tol=residual_tol)
        sl = slice(0, k) if which == "smallest" else slice(n - k, n)
        return Spectrum(kind=op.kind, level=op.level, c0=op.c0,
                        eigenvalues=full.eigenvalues[sl].copy(),
                        eigenvectors=full.eigenvectors[:, sl].copy(),
                        residuals=full.residuals[sl].copy(),
                        vertex_map=op.vertex_map,
                        solver="iterative-dense-fallback",
                        irreps=full.irreps[sl])

    D = symmetrize(op)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    try:
        if which == "smallest":
            w, Y = scipy.sparse.linalg.eigsh(
                D, k=k, sigma=-1.0, which="LM", v0=v0, maxiter=maxiter)
        else:
            w, Y = scipy.sparse.linalg.eigsh(
                D, k=k, which="LA", v0=v0, maxiter=maxiter)
    except ArpackNoConvergence as exc:
        got = len(exc.eigenvalues)
        raise NumericalError(
            f"ARPACK converged {got}/{k} pairs (which={which}); "
            f"increase maxiter or reduce k") from exc
    order = np.argsort(w)
    return _finalize(op, w[order], Y[:, order], "iterative", residual_tol)


def trace_identity(op: OperatorBundle) -> float:
    """Sum of the diagonal of L = M^-1 S; equals the eigenvalue sum for
    full solves (exact row-sum formula)."""
    return float(np.sum(op.inv_m * op.S.diagonal()))
