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

Both solvers work block by block in the D6 symmetry-adapted basis of
`snowlab.symmetry`, with the second partner of each two-dimensional irrep
taken from the same block solve.  Eigenvalues of a partner pair are
therefore bit-equal and every pair has a canonical basis, so the
symmetry-forced degeneracies do not leave the basis to the LAPACK/BLAS
internals.  Operators without the symmetry (level 0) are one identity
block.  Both run one loop that takes each block's share of a window at
one end of the spectrum.  A share smaller than the block size minus one
is solved by ARPACK shift-invert, validated against the dense path at
levels <= 4.  The shift lies outside the spectrum, so each shifted block
is definite and is factored once by SuperLU in symmetric mode: diagonal
pivots on a minimum-degree ordering of its pattern, which fills less than
a partially pivoted factorization.  A larger share is sliced from one
dense eigh of the block, by LAPACK's divide-and-conquer driver (evd) above
EVD_MIN_ROWS rows and by evr otherwise.  eig_full (up to the guard) is the
window of the whole spectrum, so every block takes that dense eigh.  Both
return irrep tags and order equal eigenvalues the same way.

Both finish the block eigenvectors in one pass, a cache-sized chunk of
columns at a time, with the same floating-point operations per column
whatever the chunk width.  The chunks of an irrep row with more than
EVD_MIN_ROWS block eigenpairs (the level-4 full and Dirichlet eig_full
rows) are shared by two threads; the others, every ARPACK window among
them, finish in the calling thread.  One thread finishes each column
whole and writes it to its own place, so the bytes do not depend on the
scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

from .operators import NumericalError, OperatorBundle
from .symmetry import reduced_blocks

DENSE_GUARD = 6000
# larger blocks take evd; the pinned level 0-3 bytes (blocks <= 110) are evr's
EVD_MIN_ROWS = 256
RESIDUAL_TOL = 1e-8
SIGN_TIE_TOL = 1e-12
# bytes of each (d, c) temporary in every blocked pass over eigenvector
# columns (the finishing pass, localization, the bound check, the .snwv
# writer): small enough to stay in cache, wide enough to amortize the
# per-row cost of each sparse product
CHUNK_BYTES = 512 * 1024

SIGN_RULE = "largest-abs-entry-positive; ties within 1e-12 -> lowest index"
NORMALIZATION = "m-inner-product unit norm"


class DenseGuardError(Exception):
    """Problem too large for the dense path; use eig_partial."""


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenpairs of one operator.

    op is the operator solved: its kind, level and c0 name the spectrum,
    op.vertex_map gives the mesh vertex of each row and op.m the measure
    the eigenvectors are normalized in.  The spectrum shares the
    operator's arrays and keeps the whole operator, S included, alive.
    eigenvalues ascending with repeats; eigenvectors[:, j] is the j-th
    eigenvector on the operator's vertex set, m-normalized and sign-fixed;
    residuals[j] = ||S phi - lambda M phi||_inf.  irreps[j] names the
    symmetry block of pair j (A1, A2, B1, B2, E1, E1', E2, E2', or A for
    an operator solved without symmetry).
    """

    op: OperatorBundle
    eigenvalues: np.ndarray   # (k,)
    eigenvectors: np.ndarray  # (d, k)
    residuals: np.ndarray     # (k,)
    solver: str
    irreps: tuple             # (k,) block tag per pair

    def __post_init__(self):
        for arr in (self.eigenvalues, self.eigenvectors, self.residuals):
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
            irreps=self.irreps[:k])


def symmetrize(op: OperatorBundle) -> sparse.csr_matrix:
    """D = M^-1/2 S M^-1/2, exactly symmetric entrywise.

    Each entry is scaled by the single product d_i * d_j (commutative, so
    the (i, j) and (j, i) entries round identically).  D shares the index
    arrays of S.
    """
    S = op.S
    d = np.sqrt(op.inv_m)
    row = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    return sparse.csr_matrix(
        (S.data * (d[row] * d[S.indices]), S.indices, S.indptr),
        shape=S.shape)


def chunk_columns(d: int) -> int:
    """Columns of a (d, c) float64 temporary that fit in CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // (8 * d))


def _spectrum(op: OperatorBundle, solved: list, window: slice,
              solver: str) -> Spectrum:
    """One Spectrum from per-block eigenpairs, finished in one pass.

    `solved` holds (tag, basis, eigenvalues, block eigenvectors) per irrep
    row, in block order, with an E block's pairs listed once per row.  All
    pairs are sorted by eigenvalue, stably, so equal eigenvalues keep the
    order A1, A2, B1, B2, E1, E1', E2, E2'; `window` selects positions of
    that order.  Each kept block eigenvector y goes through
    phi = M^-1/2 Q y, m-normalization, the sign rule and the residual
    check with a chunk of its row's columns, and is written once, into its
    sorted column.  A non-finite eigenvalue raises NumericalError, and so
    does a NaN column, at the residual check and without a NumPy warning.
    """
    w_all = np.concatenate([w for _, _, w, _ in solved])
    order = np.argsort(w_all, kind="stable")[window]
    w = w_all[order]
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise NumericalError(f"{bad.size} eigenvalues are not finite; "
                             f"first at pair {bad[0]}: {w[bad[0]]}")
    neg_tol = RESIDUAL_TOL * max(1.0, float(np.max(np.abs(w))))
    if not np.all(w >= -neg_tol):
        worst = float(np.min(w))
        raise NumericalError(
            f"eigenvalue {worst} below -{neg_tol:.3e}; operator should be PSD")
    w = np.where(w < 0.0, 0.0, w)

    column = np.full(len(w_all), -1, dtype=np.int64)
    column[order] = np.arange(len(order))
    d_back = np.sqrt(op.inv_m)
    m, S = op.m, op.S
    Phi = np.empty((op.dimension, len(order)), order="F")
    residuals = np.empty(len(order))

    def finish(Q, Y, part, cols):
        # errstate is per thread: a pool worker does not inherit the caller's
        with np.errstate(invalid="ignore"):
            # column-major, so the norm below sums each column contiguously
            P = np.multiply(d_back[:, None], Q @ Y[:, part], order="F")
            # back-transform preserves the m-norm of unit vectors;
            # renormalize to absorb roundoff
            P /= np.sqrt(np.sum(m[:, None] * P * P, axis=0))
            A = np.abs(P)
            lead = np.argmax(A >= (A.max(axis=0) - SIGN_TIE_TOL), axis=0)
            P *= np.where(P[lead, np.arange(len(part))] < 0.0, -1.0, 1.0)
            # column-major: a max down a few row-major columns is slow
            R = np.subtract(S @ P, (m[:, None] * P) * w[cols], order="F")
            residuals[cols] = np.max(np.abs(R), axis=0)
            Phi[:, cols] = P

    # a row with more than EVD_MIN_ROWS pairs (a level-4 eig_full row)
    # finishes on two threads; the others stay in this one: a worker's
    # temporaries live in its own malloc arena, and pooling every row
    # raised the peak RSS of the level-3 CLI commands by 7 %
    pooled, inline, lo = [], [], 0
    width = chunk_columns(op.dimension)
    for _, Q, wb, Y in solved:
        col = column[lo:lo + len(wb)]
        lo += len(wb)
        kept = np.flatnonzero(col >= 0)
        jobs = pooled if Y.shape[1] > EVD_MIN_ROWS else inline
        for a in range(0, len(kept), width):
            part = kept[a:a + width]
            jobs.append((Q, Y, part, col[part]))
    if pooled:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(finish, *zip(*pooled)))
    for job in inline:
        finish(*job)

    bound = RESIDUAL_TOL * np.maximum(1.0, w)
    bad = np.flatnonzero(~(residuals <= bound))
    if bad.size:
        j = int(bad[0])
        raise NumericalError(
            f"{bad.size} residuals above tolerance; first at pair {j}: "
            f"residual {residuals[j]:.3e} > {bound[j]:.3e}")

    tags = np.repeat([tag for tag, _, _, _ in solved],
                     [len(w) for _, _, w, _ in solved])
    return Spectrum(op=op, eigenvalues=w, eigenvectors=Phi,
                    residuals=residuals, solver=solver,
                    irreps=tuple(tags[order].tolist()))


def eig_full(op: OperatorBundle) -> Spectrum:
    """Full spectrum by dense eigendecomposition of D, one symmetry block
    at a time: the blocked loop of eig_partial with the whole spectrum as
    its window, so every block is solved by one dense eigh.

    Pairs are sorted by eigenvalue; equal eigenvalues keep the block order
    A1, A2, B1, B2, E1, E1', E2, E2'.
    """
    n = op.dimension
    if n > DENSE_GUARD:
        raise DenseGuardError(
            f"dimension {n} exceeds dense guard {DENSE_GUARD}; "
            f"use eig_partial for extremal windows")
    return _blocked(op, n, "smallest", seed=0, label="dense")


def _block_eigh(A: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of one block, ascending, by a dense eigh: the evd
    driver above EVD_MIN_ROWS rows, evr up to it."""
    driver = "evd" if A.shape[0] > EVD_MIN_ROWS else "evr"
    return scipy.linalg.eigh(A.toarray(order="F"), overwrite_a=True,
                             check_finite=False, driver=driver)


def _extremal_pairs(A: sparse.csr_matrix, count: int, which: str,
                    sigma: float, seed: int,
                    tag: str) -> tuple[np.ndarray, np.ndarray, bool]:
    """The `count` smallest or largest eigenpairs of one block, ascending,
    and whether ARPACK computed them, with its default iteration limit.  A
    window of at least the block size minus one, which leaves ARPACK no
    room to restart, is sliced from `_block_eigh`.  A shifted block that
    SuperLU cannot factor (a non-finite entry) raises NumericalError."""
    b = A.shape[0]
    if count >= b - 1:
        w, Y = _block_eigh(A)
        keep = slice(0, count) if which == "smallest" else slice(b - count, b)
        return w[keep], Y[:, keep], False
    # A - sigma I is definite (see eig_partial), so diagonal pivots are
    # stable and the minimum-degree ordering of its symmetric pattern is
    # kept; it fills less than the partially pivoted COLAMD factorization
    # eigsh would build itself
    try:
        lu = scipy.sparse.linalg.splu(
            (A - sigma * sparse.identity(b, format="csr")).tocsc(),
            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise NumericalError(
            f"shifted block {tag} does not factor: {exc}") from exc
    OPinv = scipy.sparse.linalg.LinearOperator((b, b), matvec=lu.solve,
                                               dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(b)
    try:
        w, Y = scipy.sparse.linalg.eigsh(A, k=count, sigma=sigma, which="LM",
                                         v0=v0, OPinv=OPinv)
    except ArpackNoConvergence as exc:
        got = len(exc.eigenvalues)
        raise NumericalError(
            f"ARPACK converged {got}/{count} pairs in block {tag} "
            f"(which={which}); reduce k") from exc
    order = np.argsort(w, kind="stable")
    return w[order], Y[:, order], True


def eig_partial(op: OperatorBundle, k: int, which: str = "smallest",
                seed: int = 0) -> Spectrum:
    """k extremal eigenpairs of D by shift-invert ARPACK, one symmetry
    block at a time.

    Each one-dimensional block gives its k extremal pairs and each E block
    its ceil(k/2), with the partner pairs taken from the same solve.  The k
    extremal pairs of D hold no more than that from any block (an E-block
    eigenvalue occurs twice), so the merged window is exact.  The shift is
    sigma = -1 for which="smallest" (D + I is positive definite) and, for
    which="largest", a shift above the spectrum of D (18 * 9**n for the
    dirichlet kind, else just above the Gershgorin bound), so the shifted
    block is negative definite and its extremal eigenvalues are the ones
    nearest the shift.  Either way the shifted block is definite,
    so its one factorization takes diagonal pivots in SuperLU's symmetric
    mode.  Every block's start vector comes from `seed`, so runs are
    reproducible.  A block whose window is at least its size minus one is
    solved by a dense eigh.

    The result carries irrep tags and the canonical E-pair basis, as from
    eig_full, and its pairs are ordered the same way.  solver is
    "iterative", or "iterative-dense-fallback" when every block was
    solved densely.
    """
    return _blocked(op, k, which, seed, label=None)


def _blocked(op: OperatorBundle, k: int, which: str, seed: int,
             label: str | None) -> Spectrum:
    """eig_partial's window, with solver label `label` if one is given."""
    n = op.dimension
    if n == 0:
        raise ValueError(
            f"the {op.kind} operator at level {op.level} has no rows: "
            f"the mesh has no interior vertex")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if which not in ("smallest", "largest"):
        raise ValueError(f"which must be 'smallest' or 'largest', got {which!r}")

    D = symmetrize(op)
    if which == "smallest":
        sigma = -1.0
    elif op.kind == "dirichlet":
        # each interior vertex has six conductance-1 edges, so D = 9**n (12 I
        # - 2 A_II), A_II a principal block of the triangular lattice's
        # adjacency operator, whose spectrum is [-3, 6] with no eigenvalue at
        # -3: every eigenvalue of D is strictly below 18 * 9**n, whatever c0
        sigma = 18.0 * 9 ** op.level
    else:
        # strictly above: the bound is attained (the top eigenvalue of the
        # boundary operator equals it), and a shift on an eigenvalue would
        # make the shifted block singular
        sigma = 1.001 * float(abs(D).sum(axis=1).max())
    solved, krylov = [], False
    for blk, A in reduced_blocks(op, D):
        count = min(-(-k // blk.multiplicity), blk.size)
        w, Y, used = _extremal_pairs(A, count, which, sigma, seed, blk.tag)
        krylov |= used
        solved += [(tag, Q, w, Y) for tag, Q in blk.rows]
    window = slice(0, k) if which == "smallest" else slice(-k, None)
    return _spectrum(op, solved, window, label or (
        "iterative" if krylov else "iterative-dense-fallback"))

