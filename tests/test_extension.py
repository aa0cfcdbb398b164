import hashlib
import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import cg, eigsh, splu

from snowlab import extension, fileio
from snowlab.extension import (
    BoundaryData,
    alternating_boundary_data,
    decay_profile,
    energy_split,
    harmonic_extend,
    random_boundary_data,
)
from snowlab.lattice import boundary_cycle, boundary_hop_distance, build_mesh
from snowlab.operators import apply, assemble, energy
from snowlab.solver import NumericalError


def test_boundary_data_validation(mesh2):
    with pytest.raises(ValueError):
        BoundaryData(level=2, values=np.ones(5))
    data = BoundaryData(level=2, values=np.ones(48))
    assert data.values.shape == (48,)
    with pytest.raises(ValueError):
        harmonic_extend(mesh2, BoundaryData(level=1, values=np.ones(12)))


def test_other_level_fails_the_length_check(mesh2):
    # BoundaryData is the one check: data of another level has another
    # length, as 3 * 4**a != 3 * 4**b for a != b
    with pytest.raises(ValueError, match=r"^level 2 boundary data needs 48 "
                       r"values, got shape \(12,\)$"):
        harmonic_extend(mesh2, BoundaryData(level=1, values=np.ones(12)))


def test_extend_copies_caller_array(mesh2):
    # BoundaryData makes its array read-only: the caller's must stay as it was
    f = np.linspace(-1.0, 1.0, mesh2.num_boundary_vertices)
    before = f.copy()
    u = harmonic_extend(mesh2, f)
    assert f.flags.writeable
    assert np.array_equal(f, before)
    assert np.array_equal(u[mesh2.boundary_vertices], before)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_rejected(bad, mesh2):
    f = np.ones(mesh2.num_boundary_vertices)
    f[7] = bad
    with pytest.raises(ValueError, match="non-finite"):
        BoundaryData(level=2, values=f)
    # the splu path (level 2)
    with pytest.raises(ValueError, match="non-finite"):
        harmonic_extend(mesh2, f)


def test_non_finite_data_rejected_before_cg(monkeypatch):
    mesh = build_mesh(5)
    f = alternating_boundary_data(mesh).values.copy()
    f[100] = np.nan
    iterations = _count_cg_iterations(monkeypatch)
    with pytest.raises(ValueError, match="non-finite"):
        harmonic_extend(mesh, f)
    assert iterations == []


def test_residual_check_rejects_nan_solution(mesh2, monkeypatch):
    class NanLU:
        def __init__(self, A):
            self.n = A.shape[0]

        def solve(self, rhs):
            return np.full(self.n, np.nan)

    monkeypatch.setattr(extension, "splu", NanLU)
    with pytest.raises(NumericalError, match="residual"):
        harmonic_extend(mesh2, alternating_boundary_data(mesh2))


def test_alternating_data(mesh2):
    data = alternating_boundary_data(mesh2)
    assert set(np.unique(data.values)) == {-1.0, 1.0}
    assert data.values.sum() == 0.0


def test_random_data_seeded(mesh2):
    a = random_boundary_data(mesh2, seed=5).values
    b = random_boundary_data(mesh2, seed=5).values
    c = random_boundary_data(mesh2, seed=6).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_constant_data_extends_constant(mesh2):
    u = harmonic_extend(mesh2, 3.5 * np.ones(mesh2.num_boundary_vertices))
    assert np.abs(u - 3.5).max() <= 1e-12


def test_extension_is_discretely_harmonic(mesh2, rng):
    op = assemble(mesh2, "full")
    f = rng.standard_normal(mesh2.num_boundary_vertices)
    u = harmonic_extend(mesh2, f)
    lap = apply(op, u)
    interior = mesh2.interior_vertices
    scale = max(1.0, np.abs(lap).max())
    assert np.abs(lap[interior]).max() <= 1e-8 * scale
    # boundary values are passed through untouched
    assert np.array_equal(u[mesh2.boundary_vertices], f)


def test_maximum_principle(mesh2, rng):
    for _ in range(10):
        f = rng.standard_normal(mesh2.num_boundary_vertices)
        u = harmonic_extend(mesh2, f)
        inner = u[mesh2.interior_vertices]
        assert inner.max() < f.max() + 1e-12
        assert inner.min() > f.min() - 1e-12


def test_linearity(mesh2, rng):
    f = rng.standard_normal(mesh2.num_boundary_vertices)
    g = rng.standard_normal(mesh2.num_boundary_vertices)
    a, b = 2.5, -1.25
    lhs = harmonic_extend(mesh2, a * f + b * g)
    rhs = a * harmonic_extend(mesh2, f) + b * harmonic_extend(mesh2, g)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_energy_minimality(mesh2, rng):
    f = rng.standard_normal(mesh2.num_boundary_vertices)
    u = harmonic_extend(mesh2, f)
    e0 = energy(mesh2, u)
    for _ in range(20):
        v = u.copy()
        v[mesh2.interior_vertices] += 0.1 * rng.standard_normal(
            mesh2.num_interior_vertices)
        assert energy(mesh2, v) >= e0 - 1e-12


def test_energy_split_sums(mesh2, rng):
    u = rng.standard_normal(mesh2.num_vertices)
    e_int, e_bd = energy_split(mesh2, u)
    total = energy(mesh2, u)
    assert e_int >= 0 and e_bd >= 0
    assert abs((e_int + e_bd) - total) <= 1e-12 * max(1.0, total)


def test_energy_split_c0(mesh2, rng):
    u = rng.standard_normal(mesh2.num_vertices)
    e_int1, e_bd1 = energy_split(mesh2, u, c0=1.0)
    e_int2, e_bd2 = energy_split(mesh2, u, c0=2.0)
    assert e_int2 == pytest.approx(e_int1, rel=1e-14)
    assert e_bd2 == pytest.approx(2.0 * e_bd1, rel=1e-14)


def test_alternating_decay_profile(mesh3):
    # oscillating boundary data fades with hop distance from the boundary
    u = harmonic_extend(mesh3, alternating_boundary_data(mesh3))
    profile = decay_profile(mesh3, u)
    dists = [d for d, _ in profile]
    assert dists == sorted(dists)
    assert dists[0] == 1
    sups = [s for _, s in profile]
    assert sups[0] > sups[1] > sups[2]
    with pytest.raises(ValueError, match="^vector has shape"):
        decay_profile(mesh3, u[:-1])


@pytest.mark.parametrize("call", [
    energy, energy_split, decay_profile,
    lambda mesh, u: fileio.write_contour_csv(mesh, u, 0.01, os.devnull)],
    ids=["energy", "energy_split", "decay_profile", "write_contour_csv"])
def test_vector_entry_points_share_the_mesh_check(mesh1, call):
    # every function that takes one value per mesh vertex checks it the
    # same way, Mesh.vertex_values, before it computes or writes anything
    for n in (mesh1.num_vertices - 1, mesh1.num_vertices + 1):
        with pytest.raises(ValueError, match=rf"^vector has shape \({n},\), "
                                             rf"mesh has {mesh1.num_vertices} "
                                             rf"vertices$"):
            call(mesh1, np.ones(n))


def per_shell_decay_profile(mesh, u):
    """Reference: one masked max per hop shell, skipping empty shells, as
    decay_profile was first computed."""
    dist = boundary_hop_distance(mesh)
    out = []
    for d in range(1, int(dist.max()) + 1):
        shell = dist == d
        if shell.any():
            out.append((d, float(np.max(np.abs(u[shell])))))
    return out


@pytest.mark.parametrize("level", range(6))
def test_decay_profile_matches_per_shell(level):
    mesh = build_mesh(level)
    rng = np.random.default_rng(level)
    noisy = rng.standard_normal(mesh.num_vertices)
    holed = noisy.copy()
    holed[mesh.interior_vertices[-1] if level else 0] = np.nan
    for u in (harmonic_extend(mesh, alternating_boundary_data(mesh)), noisy,
              holed):
        want = per_shell_decay_profile(mesh, u)
        # repr, so a NaN sup compares equal to a NaN sup
        assert repr(decay_profile(mesh, u)) == repr(want)
    assert (want == []) == (level == 0)
    if level:
        assert np.isnan([s for _, s in want]).sum() == 1


def test_level0_extension():
    mesh = build_mesh(0)
    f = np.array([1.0, -2.0, 0.5])
    u = harmonic_extend(mesh, f)
    assert np.array_equal(u, f)


def test_alternating_data_matches_cycle_positions():
    # the definition by a position dictionary along the boundary cycle
    for level in range(6):
        mesh = build_mesh(level)
        pos = {int(v): t for t, v in enumerate(boundary_cycle(mesh))}
        want = np.array([1.0 if pos[int(v)] % 2 == 0 else -1.0
                         for v in mesh.boundary_vertices])
        got = alternating_boundary_data(mesh).values
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# SHA-256 of harmonic_extend(alternating data), recorded from the splu path
# before the interior system was assembled as CSR only.  Level 5 is solved
# by CG by default, so its test forces the splu path.
EXTENSION_DIGESTS = {
    0: "a5e608740a9c9548b0737a9fc46d3220ba3d58cae3f15a5deec72238642a19a2",
    1: "fc0a7a762908f2139046b3bdf40cc0b3a250cbfd4017296eaa3b3487c2c7493d",
    2: "b9d8e4095660b2e8e10571e99871ab44ed3613616d78ca6a0882a29cd922d0f8",
    3: "0f328ce8cc44641c5da86121021795674b1d2e23f8cd21f0b1c6ce63c8fa7e2f",
    4: "6d5c3ef2a3462feb9afbfa139e61924d2a9040ae392e0ddb83f9f06972b25339",
    5: "9598b6c2786534ccd4ff21a40f8fd041c4a0349dbe3accc1ba3aa6577869e273",
}


# SHA-256 of harmonic_extend(random_boundary_data(mesh, 3)) on the splu
# path, recorded while the right-hand side was the full S applied to the
# data.  Alternating data sums as exact integers in any order; these see the
# order in which each interior row adds its boundary terms.
RANDOM_EXTENSION_DIGESTS = {
    0: "e848dc6cb33f43411bac41b7178ac0c2fae8505777aafdd723a3c6e49bc2fee2",
    1: "0bb82c517506e31a9aa88a28204e872760a710dba7014bb4f14a11ebdb770a55",
    2: "804122cc4138366a0e40166c2e88d4195f9b827a507a5b1842f9076fbab1647f",
    3: "07249019653f69f6a695820d768b25f324e97275a29ff24e87349967609317f1",
    4: "21d0271cf98eb4707bd1b7f736b02265df5ad6f9c19420e531f82555c2b7db77",
    5: "9b49bd4da01cb97dc3608953f7827a6fdb4fc07f7e872cb51ad1da41e7d58f8f",
}


@pytest.mark.parametrize("level", sorted(EXTENSION_DIGESTS))
def test_direct_extension_pinned(level, monkeypatch):
    mesh = build_mesh(level)
    if level == 5:
        monkeypatch.setattr(extension, "DIRECT_SOLVE_LIMIT",
                            mesh.num_interior_vertices)
    got = [hashlib.sha256(harmonic_extend(mesh, f).tobytes()).hexdigest()
           for f in (alternating_boundary_data(mesh),
                     random_boundary_data(mesh, 3))]
    assert got == [EXTENSION_DIGESTS[level], RANDOM_EXTENSION_DIGESTS[level]]


@pytest.mark.parametrize("level", [3, 5])
def test_extension_assembles_only_the_dirichlet_kind(level, monkeypatch):
    # -S_IB f comes from the mesh's interior-boundary edges: the extension
    # builds no full-kind S and no product with it
    kinds = []

    def spy(mesh, kind="full", c0=1.0):
        kinds.append(kind)
        return assemble(mesh, kind, c0)

    monkeypatch.setattr(extension, "assemble", spy)
    mesh = build_mesh(level)
    harmonic_extend(mesh, alternating_boundary_data(mesh))
    assert kinds == ["dirichlet"]


def test_overflowing_coupling_fails_the_residual_check(mesh2):
    # -2 f overflows to -inf and +inf in rows with both signs, whose sum is
    # NaN, as in a sparse product S_IB f; the product warns nothing
    f = np.where(alternating_boundary_data(mesh2).values > 0, 1e308, -1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match=r"^interior solve residual "
                           r"nan above tolerance$"):
            harmonic_extend(mesh2, f)


# SHA-256 of the CG extensions at one OpenBLAS thread, recorded before the
# interior system was assembled as the Dirichlet operator.  CG's inner
# products run in the BLAS, so the bytes hold for this thread count only.
CG_DIGESTS_ONE_THREAD = {
    "5 alternating":
        "498387149088786d05f977d0c04e938aeedb6af2bbefa6415795a5b02d6fd0bc",
    "5 random 3":
        "e99e85e6c6ad3a37bb0a037fdd73ab96a977bcad67036a4a7e88c29ce5e96478",
    "6 alternating":
        "6e8340a4da66eab775bb6efdd0e44c14556681c99e15988196f787805b0356f0",
}

CG_DIGEST_SCRIPT = """
import hashlib
from snowlab.extension import (
    alternating_boundary_data, harmonic_extend, random_boundary_data)
from snowlab.lattice import build_mesh
for level in (5, 6):
    mesh = build_mesh(level)
    data = {"alternating": alternating_boundary_data(mesh)}
    if level == 5:
        data["random 3"] = random_boundary_data(mesh, 3)
    for name, f in data.items():
        u = harmonic_extend(mesh, f)
        print(level, name, "=", hashlib.sha256(u.tobytes()).hexdigest())
"""


def test_cg_extension_pinned_at_one_thread():
    # a child process, as the BLAS reads its thread count when it loads
    src = str(Path(extension.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CG_DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split(" = ") for line in proc.stdout.splitlines())
    assert got == CG_DIGESTS_ONE_THREAD


def _check_harmonic(mesh, f, u):
    # interior rows of S u, against the largest boundary coupling 12 max|f|
    resid = (assemble(mesh, "full").S @ u)[mesh.interior_vertices]
    assert np.abs(resid).max(initial=0.0) <= 1e-9 * 12.0 * np.abs(f).max()
    inner = u[mesh.interior_vertices]
    assert inner.max(initial=f.max()) <= f.max() + 1e-12
    assert inner.min(initial=f.min()) >= f.min() - 1e-12
    assert np.array_equal(u[mesh.boundary_vertices], f)


@pytest.mark.parametrize("pattern", ["alternating", "random"])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_iterative_branch_matches_direct(level, pattern, monkeypatch):
    mesh = build_mesh(level)
    f = (alternating_boundary_data(mesh) if pattern == "alternating"
         else random_boundary_data(mesh, seed=level)).values
    direct = harmonic_extend(mesh, f)
    # a small limit gives levels 2-4 a multigrid hierarchy; the single
    # interior vertex of level 1 is under it and takes the direct path
    monkeypatch.setattr(extension, "DIRECT_SOLVE_LIMIT", 10)
    u = harmonic_extend(mesh, f)
    assert np.abs(u - direct).max() <= 1e-10 * np.abs(f).max()
    _check_harmonic(mesh, f, u)


def test_multigrid_is_symmetric(mesh3, monkeypatch):
    monkeypatch.setattr(extension, "DIRECT_SOLVE_LIMIT", 10)
    iidx = mesh3.interior_vertices
    A = assemble(mesh3, "dirichlet").S
    levels, coarsest = extension._hierarchy(A, mesh3.vertices[iidx])
    assert levels
    M = partial(extension._vcycle, levels, splu(coarsest.tocsc()))
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, len(iidx)))
    xMy, yMx = x @ M(y), y @ M(x)
    assert abs(xMy - yMx) <= 1e-12 * max(1.0, abs(xMy))
    assert x @ M(x) > 0


# interior rows of each level's hierarchy (finest first) and of its coarsest
# matrix: levels 0-4 solve directly, and the level-5 and level-6 hierarchies
# coarsen to the same 682 rows
HIERARCHY_SIZES = {
    0: ([], 0), 1: ([], 1), 2: ([], 37), 3: ([], 469), 4: ([], 4789),
    5: ([45397, 5300], 682),
    6: ([417781, 47444, 5642], 682),
}


@pytest.mark.parametrize("level", sorted(HIERARCHY_SIZES))
def test_solve_path_per_level(level):
    mesh = build_mesh(level)
    levels, coarsest = extension._hierarchy(
        assemble(mesh, "dirichlet").S, mesh.vertices[mesh.interior_vertices])
    sizes, coarse = HIERARCHY_SIZES[level]
    assert [B.shape[0] for B, _, _ in levels] == sizes
    assert coarsest.shape == (coarse, coarse)


def _count_cg_iterations(monkeypatch) -> list:
    """Make extension's cg append its iteration count to the list returned."""
    iterations = []

    def counted_cg(*args, **kwargs):
        iterations.append(0)

        def count(xk):
            iterations[-1] += 1
        return cg(*args, callback=count, **kwargs)

    monkeypatch.setattr(extension, "cg", counted_cg)
    return iterations


@pytest.mark.parametrize("pattern", ["alternating", "random"])
def test_level5_multigrid_cg(pattern, monkeypatch):
    mesh = build_mesh(5)
    assert (build_mesh(4).num_interior_vertices <= extension.DIRECT_SOLVE_LIMIT
            < mesh.num_interior_vertices)
    f = (alternating_boundary_data(mesh) if pattern == "alternating"
         else random_boundary_data(mesh, seed=5)).values
    iterations = _count_cg_iterations(monkeypatch)
    u = harmonic_extend(mesh, f)
    assert len(iterations) == 1 and iterations[0] <= 16
    _check_harmonic(mesh, f, u)
    monkeypatch.setattr(extension, "DIRECT_SOLVE_LIMIT",
                        mesh.num_interior_vertices)
    direct = harmonic_extend(mesh, f)
    assert len(iterations) == 1
    assert np.abs(u - direct).max() <= 1e-10 * np.abs(f).max()


@pytest.mark.parametrize("pattern", ["alternating", "random"])
def test_level6_multigrid_cg(pattern, monkeypatch):
    mesh = build_mesh(6)
    assert mesh.num_interior_vertices > extension.DIRECT_SOLVE_LIMIT
    f = (alternating_boundary_data(mesh) if pattern == "alternating"
         else random_boundary_data(mesh, seed=6)).values
    iterations = _count_cg_iterations(monkeypatch)
    u = harmonic_extend(mesh, f)
    assert len(iterations) == 1 and iterations[0] <= 16
    _check_harmonic(mesh, f, u)
    assert np.abs(u).max() <= np.abs(f).max()


def test_cg_iterations_bounded(monkeypatch):
    # without a working preconditioner CG stops at CG_MAXITER and raises
    mesh = build_mesh(5)
    monkeypatch.setattr(extension, "_vcycle", lambda levels, coarse, r: r)
    iterations = _count_cg_iterations(monkeypatch)
    with pytest.raises(NumericalError, match="did not converge"):
        harmonic_extend(mesh, alternating_boundary_data(mesh))
    assert iterations == [extension.CG_MAXITER]


def test_jacobi_weight_keeps_cycle_definite():
    # w rho(D^-1 A) < 2 on every level of the level-5 hierarchy, so each
    # damped-Jacobi sweep converges and the V-cycle is positive definite
    mesh = build_mesh(5)
    A = assemble(mesh, "dirichlet").S
    levels, coarsest = extension._hierarchy(
        A, mesh.vertices[mesh.interior_vertices])
    assert len(levels) >= 2
    for B, w, _ in levels:
        assert np.allclose(w * B.diagonal(), extension.JACOBI_WEIGHT)
    for B in [B for B, _, _ in levels] + [coarsest]:
        d = sparse.diags(1.0 / np.sqrt(B.diagonal()))
        rho = eigsh(d @ B @ d, k=1, which="LA", tol=1e-3,
                    return_eigenvectors=False)[0]
        assert extension.JACOBI_WEIGHT * rho * (1 + 1e-3) < 2.0
