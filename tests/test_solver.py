import functools
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy import sparse

from snowlab import solver
from snowlab.analysis import landscape
from snowlab.lattice import build_mesh
from snowlab.operators import OperatorBundle, assemble
from snowlab.solver import (
    SIGN_TIE_TOL,
    DenseGuardError,
    NumericalError,
    Spectrum,
    eig_full,
    eig_partial,
    symmetrize,
)
from snowlab.symmetry import irrep_blocks, reduced_blocks


def trace_identity(op: OperatorBundle) -> float:
    """Sum of the diagonal of L = M^-1 S; equals the eigenvalue sum for
    full solves (exact row-sum formula)."""
    return float(np.sum(op.inv_m * op.S.diagonal()))


def brute_force_eigenvalues(op) -> np.ndarray:
    """Oracle: nonsymmetric dense eigensolve of M^-1 S, sorted real parts."""
    A = np.diag(op.inv_m) @ op.S.toarray()
    w = np.linalg.eigvals(A)
    assert np.abs(w.imag).max() <= 1e-8 * max(1.0, np.abs(w.real).max())
    return np.sort(w.real)


@pytest.mark.parametrize("level", (0, 1, 2))
@pytest.mark.parametrize("kind", ("full", "dirichlet", "boundary"))
def test_dense_matches_brute_force(level, kind):
    if kind == "dirichlet" and level == 0:
        return  # no interior vertices yet
    op = assemble(build_mesh(level), kind)
    spec = eig_full(op)
    oracle = brute_force_eigenvalues(op)
    scale = max(1.0, oracle[-1])
    assert np.abs(spec.eigenvalues - oracle).max() <= 1e-8 * scale


@pytest.mark.parametrize("c0", (1.0, 2.5))
def test_boundary_kind_closed_form(c0):
    # weighted cycle of length 3*4^n: lam_k = 4 c0 16^n (1 - cos(2 pi k / L))
    for level in (1, 2):
        op = assemble(build_mesh(level), "boundary", c0)
        spec = eig_full(op)
        L = 3 * 4**level
        k = np.arange(L)
        formula = np.sort(4.0 * c0 * 16.0**level * (1 - np.cos(2 * np.pi * k / L)))
        assert np.abs(spec.eigenvalues - formula).max() <= 1e-9 * formula[-1]
        assert abs(spec.eigenvalues[-1] - 8.0 * c0 * 16.0**level) <= 1e-9 * formula[-1]


def test_symmetrize_exact(mesh2):
    op = assemble(mesh2, "full")
    D = symmetrize(op)
    assert (D - D.T).nnz == 0


def _symmetrize_by_coo(op: OperatorBundle) -> sparse.csr_matrix:
    """Reference: the COO round trip that scaling S.data in place replaced,
    kept verbatim as the byte-equality oracle."""
    d = np.sqrt(op.inv_m)
    C = op.S.tocoo()
    vals = C.data * (d[C.row] * d[C.col])
    return sparse.coo_matrix(
        (vals, (C.row, C.col)), shape=C.shape).tocsr()


@pytest.mark.parametrize("level", range(6))
def test_symmetrize_matches_coo_reference(level):
    mesh = build_mesh(level)
    for kind in ("full", "dirichlet", "boundary"):
        for c0 in (1.0, 0.37):
            op = assemble(mesh, kind, c0)
            D, ref = symmetrize(op), _symmetrize_by_coo(op)
            assert D.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                got, want = getattr(D, name), getattr(ref, name)
                assert got.dtype == want.dtype, (kind, c0, name)
                assert got.tobytes() == want.tobytes(), (kind, c0, name)


def test_spectrum_properties(spec2_full, op2_full):
    spec = spec2_full
    assert spec.count == spec.dimension == op2_full.dimension
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    assert np.all(spec.eigenvalues >= 0)
    # m-orthonormal columns
    P = spec.eigenvectors
    G = P.T @ (op2_full.m[:, None] * P)
    assert np.abs(G - np.eye(spec.count)).max() <= 1e-8
    # sign rule: first entry within 1e-12 of the column's max magnitude
    # is positive (exact magnitude ties happen in symmetric eigenvectors)
    A = np.abs(P)
    lead = (A >= A.max(axis=0) - 1e-12).argmax(axis=0)
    assert np.all(P[lead, np.arange(spec.count)] > 0)


def test_residual_recomputation(spec2_full, op2_full):
    S, m = op2_full.S, op2_full.m
    P, w = spec2_full.eigenvectors, spec2_full.eigenvalues
    R = S @ P - (m[:, None] * P) * w
    res = np.abs(R).max(axis=0)
    assert np.all(res <= 1e-8 * np.maximum(1.0, w))
    assert np.all(spec2_full.residuals <= 1e-8 * np.maximum(1.0, w))


def test_zero_mode_is_constant(spec2_full):
    assert spec2_full.eigenvalues[0] <= 1e-10
    phi = spec2_full.eigenvectors[:, 0]
    assert phi.std() <= 1e-10 * abs(phi.mean())
    assert phi.mean() > 0


def test_trace_identity(spec2_full, op2_full):
    assert abs(spec2_full.eigenvalues.sum() - trace_identity(op2_full)) \
        <= 1e-10 * trace_identity(op2_full)


@pytest.mark.parametrize("which", ("smallest", "largest"))
def test_partial_matches_dense(which, op2_full, spec2_full):
    k = 7
    spec = eig_partial(op2_full, k, which=which)
    dense = spec2_full.eigenvalues
    want = dense[:k] if which == "smallest" else dense[-k:]
    scale = max(1.0, abs(want[-1]))
    assert np.abs(spec.eigenvalues - want).max() <= 1e-8 * scale
    assert spec.count == k


def test_partial_dense_fallback():
    # eig_full is the whole-spectrum window of the blocked loop: every
    # block takes the dense branch, so the two agree byte for byte
    for level in range(4):
        for kind in ("full", "dirichlet", "boundary"):
            if (level, kind) == (0, "dirichlet"):
                continue  # no interior vertices yet
            op = assemble(build_mesh(level), kind)
            full = eig_full(op)
            spec = eig_partial(op, op.dimension, which="smallest")
            assert spec.count == op.dimension
            assert full.solver == "dense"
            assert spec.solver == "iterative-dense-fallback"
            assert_same_bytes(spec, replace(full, solver=spec.solver))


def test_partial_seeded_deterministic(op2_full):
    a = eig_partial(op2_full, 5, which="largest", seed=3)
    b = eig_partial(op2_full, 5, which="largest", seed=3)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_dense_guard(op2_full, monkeypatch):
    monkeypatch.setattr(solver, "DENSE_GUARD", 10)
    with pytest.raises(DenseGuardError, match="exceeds dense guard 10;"):
        eig_full(op2_full)


def test_residual_tolerance_enforced(op2_full, monkeypatch):
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 1e-30)
    with pytest.raises(NumericalError):
        eig_full(op2_full)


def test_nonfinite_spectrum_raises():
    # c0 * 4 overflows to inf, so D holds non-finite entries and the dense
    # eigenpairs are NaN, which the finishing pass's checks must not pass
    with pytest.raises(NumericalError):
        eig_full(assemble(build_mesh(1), "full", 1e308))


def test_truncated(spec2_full):
    t = spec2_full.truncated(5)
    assert t.count == 5
    assert t.op is spec2_full.op
    assert np.array_equal(t.eigenvalues, spec2_full.eigenvalues[:5])
    assert np.array_equal(t.eigenvectors, spec2_full.eigenvectors[:, :5])
    assert t.dimension == spec2_full.dimension
    for k in (0, spec2_full.count + 1):
        with pytest.raises(ValueError, match=f"^k must be in 1..{spec2_full.count}"):
            spec2_full.truncated(k)


def test_partial_k_validation(op2_full, mesh0):
    with pytest.raises(ValueError):
        eig_partial(op2_full, 0)
    with pytest.raises(ValueError):
        eig_partial(op2_full, 5, which="middle")
    empty = assemble(mesh0, "dirichlet")
    rows = "has no rows: the mesh has no interior vertex"
    with pytest.raises(ValueError, match=rows):
        eig_full(empty)
    with pytest.raises(ValueError, match=rows):
        eig_partial(empty, 1)


def assert_window_matches_full(part, full, which, k):
    """Oracle check of a blocked eig_partial window against eig_full:
    eigenvalues to 1e-9 relative, bit-equal E-partner eigenvalues, and
    equal tag multisets on every eigenvalue cluster (consecutive values
    equal to 1e-9 relative) that the window edge does not cut."""
    n = full.count
    lo, hi = (0, k) if which == "smallest" else (n - k, n)
    want = full.eigenvalues[lo:hi]
    assert part.count == k and len(part.irreps) == k
    assert np.all(np.abs(part.eigenvalues - want)
                  <= 1e-9 * np.maximum(1.0, np.abs(want)))

    tags = np.array(part.irreps)
    for e in ("E1", "E2"):
        a, b = part.eigenvalues[tags == e], part.eigenvalues[tags == e + "'"]
        # the window edge may cut one pair
        m = min(len(a), len(b))
        assert abs(len(a) - len(b)) <= 1
        if which == "largest":
            a, b = a[len(a) - m:], b[len(b) - m:]
        assert np.array_equal(a[:m], b[:m])

    w = full.eigenvalues
    gap = np.diff(w) > 1e-9 * np.maximum(1.0, np.abs(w[1:]))
    edges = np.concatenate([[0], np.flatnonzero(gap) + 1, [n]])
    for a, b in zip(edges[:-1], edges[1:]):
        if a < lo or b > hi:
            continue  # outside the window, or cut by its edge
        assert (sorted(full.irreps[a:b])
                == sorted(part.irreps[a - lo:b - lo])), (a, b)


@pytest.mark.parametrize("level", (1, 2, 3))
@pytest.mark.parametrize("kind", ("full", "dirichlet", "boundary"))
@pytest.mark.parametrize("which", ("smallest", "largest"))
def test_blocked_partial_matches_full(level, kind, which):
    op = assemble(build_mesh(level), kind)
    full = eig_full(op)
    for k in sorted({min(k, op.dimension) for k in (1, 7, 20)}):
        part = eig_partial(op, k, which=which)
        assert_window_matches_full(part, full, which, k)


@pytest.mark.parametrize("which", ("smallest", "largest"))
def test_blocked_partial_matches_full_level4(which, op4_full, spec4_full,
                                            op4_dir, spec4_dir):
    for op, full in ((op4_full, spec4_full), (op4_dir, spec4_dir)):
        part = eig_partial(op, 10, which=which)
        assert part.solver == "iterative"
        assert_window_matches_full(part, full, which, 10)


@pytest.mark.parametrize("which", ("smallest", "largest"))
def test_partial_level0_identity_block(mesh0, which):
    op = assemble(mesh0, "full")
    full = eig_full(op)
    for k in (1, 2, 3):
        part = eig_partial(op, k, which=which)
        assert part.irreps == ("A",) * k
        assert_window_matches_full(part, full, which, k)


def test_partial_level1_dense_blocks(mesh1):
    # A2 is empty at level 1, and k = 5 exceeds every block size, so each
    # block takes the dense branch
    op = assemble(mesh1, "full")
    full = eig_full(op)
    for which in ("smallest", "largest"):
        part = eig_partial(op, 5, which=which)
        assert part.solver == "iterative-dense-fallback"
        assert "A2" not in part.irreps
        assert_window_matches_full(part, full, which, 5)
    # k = 1 puts the 3-row A1 block on ARPACK and the rest on eigh
    assert eig_partial(op, 1, which="largest").solver == "iterative"


@pytest.mark.parametrize("which", ("smallest", "largest"))
def test_partial_no_convergence_names_block(mesh3, which, monkeypatch):
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", functools.partial(
        scipy.sparse.linalg.eigsh, maxiter=1))
    op = assemble(mesh3, "full")
    with pytest.raises(NumericalError, match=r"in block A1 \(which="):
        eig_partial(op, 20, which=which)


# -- reference: the two-pass scatter-then-finalize code the fused pass
# replaced, kept verbatim as the byte-equality oracle ------------------------

def _finalize(op: OperatorBundle, w: np.ndarray, Y: np.ndarray,
              solver: str, residual_tol: float,
              irreps: tuple, block: int = 256) -> Spectrum:
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

    return Spectrum(op=op, eigenvalues=w, eigenvectors=Phi,
                    residuals=residuals, solver=solver, irreps=irreps)


def _merge(op: OperatorBundle, solved: list, window: slice, solver: str,
           residual_tol: float) -> Spectrum:
    """One Spectrum from per-block eigenpairs.

    `solved` holds (tag, basis, eigenvalues, block eigenvectors) per irrep
    row, in block order, with an E block's pairs listed once per row.  All
    pairs are sorted by eigenvalue, stably, so equal eigenvalues keep the
    order A1, A2, B1, B2, E1, E1', E2, E2'; `window` selects positions of
    that order.  Each kept block eigenvector y is written as Q y straight
    into its column of one (d, k) array, which _finalize then overwrites.
    """
    w_all = np.concatenate([w for _, _, w, _ in solved])
    order = np.argsort(w_all, kind="stable")[window]
    column = np.full(len(w_all), -1, dtype=np.int64)
    column[order] = np.arange(len(order))
    Phi = np.empty((op.dimension, len(order)), order="F")
    lo = 0
    for _, Q, w, Y in solved:
        hi = lo + len(w)
        col = column[lo:hi]
        kept = np.flatnonzero(col >= 0)
        if len(kept):
            Phi[:, col[kept]] = Q @ Y[:, kept]
        lo = hi
    tags = np.repeat([tag for tag, _, _, _ in solved],
                     [len(w) for _, _, w, _ in solved])
    return _finalize(op, w_all[order], Phi, solver, residual_tol,
                     irreps=tuple(tags[order].tolist()))


def assert_same_bytes(spec, ref):
    for field in ("eigenvalues", "eigenvectors", "residuals"):
        a, b = getattr(spec, field), getattr(ref, field)
        assert a.shape == b.shape and a.dtype == b.dtype, field
        assert a.tobytes(order="A") == b.tobytes(order="A"), field
        assert a.flags.f_contiguous == b.flags.f_contiguous, field
    assert spec.irreps == ref.irreps
    assert spec.solver == ref.solver


def spy_on_blocks(monkeypatch):
    """Record the arguments of every call of the fused pass, followed by
    the residual tolerance it reads, as the two-pass reference takes
    them."""
    calls = []
    fused = solver._spectrum

    def spy(*args):
        calls.append(args + (solver.RESIDUAL_TOL,))
        return fused(*args)

    monkeypatch.setattr(solver, "_spectrum", spy)
    return calls


ORACLE_CASES = [(level, kind) for level in range(4)
                for kind in ("full", "dirichlet", "boundary")
                if (level, kind) != (0, "dirichlet")]


@pytest.mark.parametrize("level,kind", ORACLE_CASES)
def test_spectrum_carries_operator_measure(level, kind):
    # a result carries the operator it came from, whose measure analysis
    # reads: no copied kind, level, c0, row map or measure that could
    # disagree with it
    op = assemble(build_mesh(level), kind)
    k = min(4, op.dimension)
    for spec in (eig_full(op), eig_partial(op, k, "smallest"),
                 eig_partial(op, k, "largest")):
        for s in (spec, spec.truncated(1)):
            assert s.op is op
            for name in ("kind", "level", "c0", "vertex_map", "m"):
                assert not hasattr(s, name)
    u = landscape(op)
    assert u.op is op
    for name in ("kind", "level", "c0", "vertex_map"):
        assert not hasattr(u, name)


@pytest.mark.parametrize("columns", (None, 1, 7))
@pytest.mark.parametrize("level,kind", ORACLE_CASES)
def test_fused_full_matches_two_pass(level, kind, columns, monkeypatch,
                                     chunk_width):
    op = assemble(build_mesh(level), kind)
    if columns:
        chunk_width(columns, op.dimension)
    calls = spy_on_blocks(monkeypatch)
    spec = eig_full(op)
    assert_same_bytes(spec, _merge(*calls[0]))


@pytest.mark.parametrize("columns", (None, 1, 7))
@pytest.mark.parametrize("which", ("smallest", "largest"))
@pytest.mark.parametrize("kind", ("full", "dirichlet", "boundary"))
@pytest.mark.parametrize("level", (1, 2, 3))
def test_fused_partial_matches_two_pass(level, kind, which, columns,
                                        monkeypatch, chunk_width):
    op = assemble(build_mesh(level), kind)
    if columns:
        chunk_width(columns, op.dimension)
    calls = spy_on_blocks(monkeypatch)
    for k in sorted({min(k, op.dimension) for k in (1, 8, 20)}):
        spec = eig_partial(op, k, which=which)
        assert_same_bytes(spec, _merge(*calls[-1]))


def block_eigenpairs(op):
    """The per-row block eigenpairs eig_full hands to the fused pass."""
    solved = []
    for blk, A in reduced_blocks(op, symmetrize(op)):
        w, Y = solver._block_eigh(A)
        solved += [(tag, Q, w, Y) for tag, Q in blk.rows]
    return solved


def test_fused_level4_matches_two_pass(op4_full, spec4_full, op4_dir,
                                       spec4_dir):
    for op, spec in ((op4_full, spec4_full), (op4_dir, spec4_dir)):
        ref = _merge(op, block_eigenpairs(op), slice(None), "dense",
                     solver.RESIDUAL_TOL)
        assert_same_bytes(spec, ref)
        del ref


def test_evd_blocks_match_evr_level4(op4_full, spec4_full, op4_dir,
                                     spec4_dir):
    # the level-4 full and Dirichlet blocks take the evd driver; an evr
    # solve of each block is the reference for eigenvalues and tags.  It
    # computes eigenvectors, as eig_full did with evr: evr's eigenvalues-only
    # path is another algorithm, whose zero eigenvalue of the full kind
    # lies 5e-10 off, about 9 eps ||D||
    for op, spec in ((op4_full, spec4_full), (op4_dir, spec4_dir)):
        w, tags = [], []
        for blk, A in reduced_blocks(op, symmetrize(op)):
            ref = scipy.linalg.eigh(A.toarray(), driver="evr")[0]
            for tag, _ in blk.rows:
                w.append(ref)
                tags += [tag] * len(ref)
        order = np.argsort(np.concatenate(w), kind="stable")
        w, tags = np.concatenate(w)[order], np.array(tags)[order]
        scale = np.maximum(1.0, np.abs(w))
        assert np.all(np.abs(spec.eigenvalues - w) <= 1e-10 * scale)

        # residuals recomputed here, a few hundred columns at a time
        Phi, lam = spec.eigenvectors, spec.eigenvalues
        for lo in range(0, spec.count, 500):
            P, wl = Phi[:, lo:lo + 500], lam[lo:lo + 500]
            R = op.S @ P - (op.m[:, None] * P) * wl
            assert np.all(np.abs(R).max(axis=0)
                          <= solver.RESIDUAL_TOL * np.maximum(1.0, wl))

        # tags agree one by one, except that within a group of eigenvalues
        # equal to 1e-12 relative (an E pair, a flat band) they agree as a
        # multiset: the two drivers may order a degenerate band differently
        gap = np.diff(w) > 1e-12 * scale[1:]
        edges = np.concatenate([[0], np.flatnonzero(gap) + 1, [len(w)]])
        for a, b in zip(edges[:-1], edges[1:]):
            assert sorted(spec.irreps[a:b]) == sorted(tags[a:b]), (a, b)


def test_evd_threshold_spares_pinned_levels(op4_full, op4_dir, mesh4):
    # every block at levels 0-3, and of the level-4 boundary kind, takes
    # evr, so the pinned artifacts keep their bytes; every level-4 full and
    # Dirichlet block takes evd
    small = [assemble(build_mesh(level), kind) for level, kind in ORACLE_CASES]
    for op in small + [assemble(mesh4, "boundary")]:
        assert all(blk.size <= solver.EVD_MIN_ROWS
                   for blk in irrep_blocks(op)), (op.level, op.kind)
    for op in (op4_full, op4_dir):
        assert all(blk.size > solver.EVD_MIN_ROWS for blk in irrep_blocks(op))


def spy_on_pools(monkeypatch):
    """Record the worker count of every thread pool the fused pass starts."""
    started = []

    def pool(max_workers):
        started.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(solver, "ThreadPoolExecutor", pool)
    return started


def test_pool_only_for_evd_rows(op4_full, spec4_full, monkeypatch):
    # the pinned level 0-3 bytes, and the memory of the small and the
    # level-5 windowed solves, come from the one-thread pass
    started = spy_on_pools(monkeypatch)
    for level, kind in ORACLE_CASES:
        op = assemble(build_mesh(level), kind)
        eig_full(op)
        for which in ("smallest", "largest"):
            eig_partial(op, min(8, op.dimension), which=which)
    mesh5 = build_mesh(5)
    for kind in ("full", "dirichlet"):
        eig_partial(assemble(mesh5, kind), 8)
    assert started == []
    # the level-4 evd rows finish on two threads, with the same bytes
    # however often the workers trade the interpreter lock
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        spec = eig_full(op4_full)
    finally:
        sys.setswitchinterval(interval)
    assert started == [2]
    assert_same_bytes(spec, spec4_full)


def test_pooled_residual_error_matches_two_pass(op4_dir, monkeypatch):
    started = spy_on_pools(monkeypatch)
    calls = spy_on_blocks(monkeypatch)
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 1e-30)
    with pytest.raises(NumericalError) as fused:
        eig_full(op4_dir)
    assert started == [2]
    message = str(fused.value)
    del fused  # its traceback holds the fused pass's (d, d) result
    with pytest.raises(NumericalError) as ref:
        _merge(*calls[0])
    assert message == str(ref.value)
    assert "residuals above tolerance; first at pair" in message


@pytest.mark.parametrize("value", (np.nan, 0.0))
def test_pooled_bad_column_raises_without_warning(value, op4_dir,
                                                  monkeypatch):
    # a NaN column, or a zero one whose normalization is 0/0, fails the
    # residual check in a pool worker, which does not inherit the caller's
    # np.errstate
    block_eigh = solver._block_eigh

    def corrupted(A):
        w, Y = block_eigh(A)
        Y[:, 3] = value
        return w, Y

    monkeypatch.setattr(solver, "_block_eigh", corrupted)
    started = spy_on_pools(monkeypatch)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match="residuals above tolerance; first at pair"):
            eig_full(op4_dir)
    assert started == [2]


@pytest.mark.parametrize("call", ("full", "smallest", "largest"))
def test_fused_residual_error_matches_two_pass(call, op2_dir, monkeypatch):
    calls = spy_on_blocks(monkeypatch)
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 1e-30)
    with pytest.raises(NumericalError) as fused:
        if call == "full":
            eig_full(op2_dir)
        else:
            eig_partial(op2_dir, 8, which=call)
    with pytest.raises(NumericalError) as ref:
        _merge(*calls[0])
    assert str(fused.value) == str(ref.value)
    assert "residuals above tolerance; first at pair" in str(fused.value)


def test_fused_psd_error_matches_two_pass(op2_full, monkeypatch):
    def shifted(op, D):
        # push the first block's lowest eigenvalue far below zero
        out = reduced_blocks(op, D)
        blk, A = out[0]
        out[0] = (blk, (A - 5.0 * sparse.identity(A.shape[0])).tocsr())
        return out

    monkeypatch.setattr(solver, "reduced_blocks", shifted)
    calls = spy_on_blocks(monkeypatch)
    with pytest.raises(NumericalError) as fused:
        eig_full(op2_full)
    with pytest.raises(NumericalError) as ref:
        _merge(*calls[0])
    assert str(fused.value) == str(ref.value)
    assert "operator should be PSD" in str(fused.value)
