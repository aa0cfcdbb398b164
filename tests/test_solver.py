import numpy as np
import pytest

from snowlab.lattice import build_mesh
from snowlab.operators import assemble
from snowlab.solver import (
    DenseGuardError,
    NumericalError,
    eig_full,
    eig_partial,
    symmetrize,
    trace_identity,
)


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
    op = assemble(build_mesh(1), "full")
    spec = eig_partial(op, op.dimension, which="smallest")
    assert spec.count == op.dimension
    assert spec.solver == "iterative-dense-fallback"


def test_partial_seeded_deterministic(op2_full):
    a = eig_partial(op2_full, 5, which="largest", seed=3)
    b = eig_partial(op2_full, 5, which="largest", seed=3)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_dense_guard(op2_full):
    with pytest.raises(DenseGuardError):
        eig_full(op2_full, dense_guard=10)


def test_residual_tolerance_enforced(op2_full):
    with pytest.raises(NumericalError):
        eig_full(op2_full, residual_tol=1e-30)


def test_truncated(spec2_full):
    t = spec2_full.truncated(5)
    assert t.count == 5
    assert t.kind == spec2_full.kind
    assert np.array_equal(t.eigenvalues, spec2_full.eigenvalues[:5])
    assert np.array_equal(t.eigenvectors, spec2_full.eigenvectors[:, :5])
    assert t.dimension == spec2_full.dimension


def test_partial_k_validation(op2_full):
    with pytest.raises(ValueError):
        eig_partial(op2_full, 0)
    with pytest.raises(ValueError):
        eig_partial(op2_full, 5, which="middle")


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
def test_partial_no_convergence_names_block(mesh3, which):
    op = assemble(mesh3, "full")
    with pytest.raises(NumericalError, match=r"in block A1 \(which="):
        eig_partial(op, 20, which=which, maxiter=1)
