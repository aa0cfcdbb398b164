import functools
import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conftest import traced_memory
from snowlab import operators, solver
from snowlab.extension import (
    energy_split,
    harmonic_extend,
    random_boundary_data,
)
from snowlab.lattice import LevelGuardError, Mesh, build_mesh
from snowlab.operators import (
    KINDS,
    OperatorBundle,
    _mass_vectors,
    apply,
    assemble,
    edge_conductances,
    energy,
    energy_sequence,
)
from snowlab.solver import NumericalError


def conductance(mesh: Mesh, p: int, q: int, c0: float = 1.0) -> float:
    """Edge weight between vertices p and q: 1 on an interior edge,
    c0 * 4**n on a boundary edge, 0 for a non-adjacent pair."""
    V = mesh.num_vertices
    if not (0 <= p < V and 0 <= q < V):
        raise IndexError(f"vertex index out of range: ({p}, {q})")
    if p == q:
        return 0.0
    key = (p, q) if p < q else (q, p)
    idx = np.searchsorted(
        mesh.edges[:, 0] * np.int64(V) + mesh.edges[:, 1],
        key[0] * V + key[1])
    if idx >= len(mesh.edges) or tuple(mesh.edges[idx]) != key:
        return 0.0
    if mesh.edge_is_boundary[idx]:
        return c0 * float(4 ** mesh.level)
    return 1.0


def measure(mesh: Mesh, p: int) -> float:
    """Vertex measure: 9**-n interior, 4**-n boundary."""
    if not 0 <= p < mesh.num_vertices:
        raise IndexError(f"vertex index {p} out of range")
    n = mesh.level
    return 1.0 / (4 ** n) if mesh.boundary_flags[p] else 1.0 / (9 ** n)


def m_inner(op: OperatorBundle, u: np.ndarray, v: np.ndarray) -> float:
    """Inner product <u, v>_m = sum m(p) u(p) v(p) on the operator's vertices."""
    return float(np.sum(op.m * np.asarray(u) * np.asarray(v)))


def test_conductance_values(mesh4):
    ib, bb = mesh4.edges[~mesh4.edge_is_boundary][0], mesh4.edges[mesh4.edge_is_boundary][0]
    assert conductance(mesh4, int(ib[0]), int(ib[1])) == 1.0
    assert conductance(mesh4, int(bb[0]), int(bb[1])) == 256.0
    assert conductance(mesh4, int(bb[1]), int(bb[0])) == 256.0
    # non-adjacent: two distinct boundary tips are never neighbors
    deg = mesh4.degrees()
    tips = np.flatnonzero(mesh4.boundary_flags & (deg == 2))[:2]
    assert conductance(mesh4, int(tips[0]), int(tips[1])) == 0.0


def test_conductance_c0_scaling(mesh2):
    bb = mesh2.edges[mesh2.edge_is_boundary][0]
    ib = mesh2.edges[~mesh2.edge_is_boundary][0]
    assert conductance(mesh2, int(bb[0]), int(bb[1]), c0=2.5) == 2.5 * 16.0
    assert conductance(mesh2, int(ib[0]), int(ib[1]), c0=2.5) == 1.0


def test_conductance_index_range(mesh1):
    with pytest.raises(IndexError):
        conductance(mesh1, 0, mesh1.num_vertices)


def test_measure_values(mesh1, mesh4):
    center = int(mesh1.interior_vertices[0])
    assert measure(mesh1, center) == 1.0 / 9.0
    assert measure(mesh4, int(mesh4.boundary_vertices[0])) == 1.0 / 256.0


@pytest.mark.parametrize("level", (1, 2))
@pytest.mark.parametrize("kind", KINDS)
def test_assemble_shapes(level, kind):
    mesh = build_mesh(level)
    op = assemble(mesh, kind)
    expected = {"full": mesh.num_vertices,
                "dirichlet": mesh.num_interior_vertices,
                "boundary": mesh.num_boundary_vertices}[kind]
    assert op.dimension == expected
    assert op.S.shape == (expected, expected)
    assert op.m.shape == (expected,)
    assert np.all(op.m > 0)


def test_bundle_and_spectrum_arrays_read_only(spec2_full):
    """OperatorBundle and Spectrum are documented immutable and safe to
    share across threads; the full kind hands out the mesh's own lattice
    points."""
    arrays = [spec2_full.eigenvalues, spec2_full.eigenvectors,
              spec2_full.residuals, spec2_full.vertex_map]
    for level, kind in itertools.product((0, 1, 2), KINDS):
        op = assemble(build_mesh(level), kind)
        arrays += [op.m, op.inv_m, op.vertex_map, op.lattice_points]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


@pytest.mark.parametrize("kind", KINDS)
def test_stiffness_structure(mesh2, kind):
    op = assemble(mesh2, kind)
    S = op.S
    assert (S - S.T).nnz == 0
    off = S - sp.diags(S.diagonal())
    assert off.nnz == 0 or off.data.max() <= 0
    if kind in ("full", "boundary"):
        # conductances are integers at c0=1, so row sums cancel exactly
        assert np.abs(S.sum(axis=1)).max() == 0.0
    w = np.linalg.eigvalsh(S.toarray())
    floor = -1e-9 * abs(w[-1])
    assert w[0] >= floor
    if kind == "dirichlet":
        assert w[0] > 0


def test_mass_exact(mesh3):
    op = assemble(mesh3, "full")
    interior = ~mesh3.boundary_flags[op.vertex_map]
    assert np.all(op.m[interior] == 1.0 / 9**3)
    assert np.all(op.m[~interior] == 1.0 / 4**3)
    # inv_m holds the exact integer reciprocals (9^n, 4^n are exact doubles);
    # m is the correctly rounded 1/x, so the product sits within 1 ulp of 1
    assert np.all(op.inv_m[interior] == 729.0)
    assert np.all(op.inv_m[~interior] == 64.0)
    assert np.abs(op.inv_m * op.m - 1.0).max() <= 2.0**-52


def test_dirichlet_is_full_restriction(mesh2):
    full = assemble(mesh2, "full").S.toarray()
    dirich = assemble(mesh2, "dirichlet").S.toarray()
    keep = mesh2.interior_vertices
    assert np.array_equal(dirich, full[np.ix_(keep, keep)])


def _reference_symmetric_csr(n: int, i: np.ndarray, j: np.ndarray,
                             off: np.ndarray, diag: np.ndarray
                             ) -> sp.csr_matrix:
    """The symmetric n x n CSR matrix with off[k] at (i[k], j[k]) and
    (j[k], i[k]) and diag on the diagonal, entries listed below, on and
    above the diagonal, (row, col) cast to int32 whenever it fits."""
    itype = np.int32 if n < 2**31 else np.int64
    ids = np.arange(n, dtype=itype)
    rows = np.concatenate([j, ids, i], dtype=itype)
    cols = np.concatenate([i, ids, j], dtype=itype)
    vals = np.concatenate([off, diag, off])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def reference_stiffness(num_vertices: int, edges: np.ndarray,
                        boundary: np.ndarray, cb: float) -> sp.csr_matrix:
    """S_pq = -2c on edges, c = cb on boundary edges and 1 on the others,
    and S_pp = 2 (n_int + n_bd cb) from the integer counts of interior and
    boundary edges at p: the reference for the full and boundary kinds."""
    i, j = edges[:, 0], edges[:, 1]
    n_int, n_bd = (np.bincount(i[e], minlength=num_vertices)
                   + np.bincount(j[e], minlength=num_vertices)
                   for e in (~boundary, boundary))
    diag = 2.0 * (n_int + np.where(n_bd > 0, n_bd * cb, 0.0))
    c = np.where(boundary, cb, 1.0)
    return _reference_symmetric_csr(num_vertices, i, j, -2.0 * c, diag)


def reference_interior_blocks(mesh: Mesh) -> tuple[sp.csr_matrix,
                                                   sp.csr_matrix]:
    """(S_II, S_IB) from integer degree counts at the interior vertices:
    the reference for the dirichlet kind and the extension's system."""
    flags = mesh.boundary_flags
    nb = int(np.count_nonzero(flags))
    n = len(flags) - nb
    # interior vertex -> its row, boundary vertex -> -1 - its boundary index
    pos = np.cumsum(~flags) - 1
    pos[flags] = np.arange(-1, -1 - nb, -1)
    i, j = pos[mesh.edges[:, 0]], pos[mesh.edges[:, 1]]
    inner = (i >= 0) & (j >= 0)
    cross = (i >= 0) != (j >= 0)
    p = np.maximum(i[cross], j[cross])
    q = -1 - np.minimum(i[cross], j[cross])
    i, j = i[inner], j[inner]
    diag = 2.0 * (np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
                  + np.bincount(p, minlength=n))
    S_II = _reference_symmetric_csr(n, i, j, np.full(len(i), -2.0), diag)
    S_IB = sp.coo_matrix((np.full(len(p), -2.0), (p, q)),
                         shape=(n, nb)).tocsr()
    return S_II, S_IB


def reference_assemble(mesh: Mesh, kind: str, c0: float) -> dict:
    """The arrays of assemble(mesh, kind, c0), one branch per kind."""
    m, inv_m = _mass_vectors(mesh)
    cb = c0 * 4.0 ** mesh.level
    if kind == "boundary":
        vmap = mesh.boundary_vertices
        pos = np.full(mesh.num_vertices, -1, dtype=np.int64)
        pos[vmap] = np.arange(len(vmap))
        bedges = pos[mesh.edges[mesh.edge_is_boundary]]
        S = reference_stiffness(len(vmap), bedges,
                                np.ones(len(bedges), dtype=bool), cb)
    elif kind == "full":
        S = reference_stiffness(mesh.num_vertices, mesh.edges,
                                mesh.edge_is_boundary, cb)
        vmap = np.arange(mesh.num_vertices, dtype=np.int64)
    else:
        vmap = mesh.interior_vertices
        S = reference_interior_blocks(mesh)[0]
    return {"S": S, "m": m[vmap], "inv_m": inv_m[vmap], "vertex_map": vmap,
            "lattice_points": mesh.vertices[vmap]}


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert_same_bytes(getattr(got, name), getattr(want, name))


@functools.cache
def cached_mesh(level: int) -> Mesh:
    return build_mesh(level)


# cli_artifacts.sha256 pins c0 = 1 only, where every diagonal sum is exact;
# at the other values the boundary diagonal rounds, once, in the sum of the
# integer interior-edge count and the exact boundary term, the same at every
# D6 image of a vertex.  Level 6 is the largest mesh the extension solves on.
@pytest.mark.parametrize("level, c0", [
    *itertools.product(range(6), (1.0, 0.37, 3.0, 1e-3)), (6, 1.0), (6, 0.37)])
def test_assembly_matches_reference(level, c0):
    mesh = cached_mesh(level)
    for kind in KINDS:
        op, want = assemble(mesh, kind, c0), reference_assemble(mesh, kind, c0)
        assert_same_csr(op.S, want.pop("S"))
        # rows in strictly ascending lattice (lex) order, which the D6
        # lookup in snowlab.symmetry relies on
        a, b = op.lattice_points.T
        assert np.all((a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (b[1:] > b[:-1])))
        for name, arr in want.items():
            assert_same_bytes(getattr(op, name), arr)


# no boundary edge meets an interior vertex, so the dirichlet kind is the
# interior block of S for every c0, even one whose boundary conductance
# overflows; that is why the extension takes no c0
@pytest.mark.parametrize("level, c0", itertools.product(
    range(1, 7), (1.0, 0.37, 3.0, 1e308)))
def test_dirichlet_kind_is_interior_block(level, c0):
    mesh = cached_mesh(level)
    assert_same_csr(assemble(mesh, "dirichlet", c0).S,
                    reference_interior_blocks(mesh)[0])


def test_dirichlet_kind_builds_no_full_matrix():
    # the Dirichlet S is built on the interior vertices alone, never sliced
    # out of the full S, so its assembly peaks no higher than the full one
    mesh = cached_mesh(5)
    dirichlet, _ = traced_memory(lambda: assemble(mesh, "dirichlet"))
    full, _ = traced_memory(lambda: assemble(mesh, "full"))
    assert dirichlet <= 1.1 * full


@pytest.mark.parametrize("level", range(5))
def test_extension_solves_reference_system(level):
    # levels 0-4 factorize S_II, so the bytes are those of the same splu
    # solve on the reference blocks
    mesh = cached_mesh(level)
    f = random_boundary_data(mesh, seed=level).values
    S_II, S_IB = reference_interior_blocks(mesh)
    want = np.zeros(mesh.num_vertices)
    want[mesh.boundary_vertices] = f
    if S_II.shape[0]:
        want[mesh.interior_vertices] = splu(S_II.T).solve(-(S_IB @ f))
    assert_same_bytes(harmonic_extend(mesh, f), want)


def test_boundary_kind_edges(mesh2):
    op = assemble(mesh2, "boundary")
    # diagonal: two boundary edges per boundary vertex at weight c0*4^n
    assert np.all(op.S.diagonal() == 4.0 * 16.0)
    assert np.array_equal(op.vertex_map, mesh2.boundary_vertices)


def test_apply_constant_and_indicator(mesh1):
    op = assemble(mesh1, "full")
    z = apply(op, np.ones(op.dimension))
    assert np.abs(z).max() == 0.0
    center = int(mesh1.interior_vertices[0])
    e = np.zeros(op.dimension)
    e[center] = 1.0
    assert apply(op, e)[center] == 108.0


def test_apply_dimension_mismatch(mesh1):
    op = assemble(mesh1, "full")
    with pytest.raises(ValueError):
        apply(op, np.ones(op.dimension + 1))


def test_energy_examples(mesh0):
    assert energy(mesh0, np.ones(3)) == 0.0
    u = np.array([1.0, 0.0, 0.0])
    assert energy(mesh0, u) == 2.0
    assert energy(mesh0, u, c0=2.5) == 5.0
    with pytest.raises(ValueError, match=r"^vector has shape \(4,\), mesh has 3"):
        energy(mesh0, np.ones(4))


@pytest.mark.parametrize("level", (1, 2, 3))
def test_energy_identity(level, rng):
    # <Lu, u>_m = 2 E_n(u) on random vectors
    mesh = build_mesh(level)
    op = assemble(mesh, "full")
    for _ in range(100):
        u = rng.standard_normal(op.dimension)
        lhs = m_inner(op, apply(op, u), u)
        rhs = 2.0 * energy(mesh, u)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_energy_boundary_part_matches_boundary_kind(mesh2, rng):
    # quadratic form of the boundary bundle = 2 * boundary-edge energy
    op = assemble(mesh2, "boundary")
    u = rng.standard_normal(mesh2.num_vertices)
    c = edge_conductances(mesh2, 1.0)
    bnd = mesh2.edge_is_boundary
    d = u[mesh2.edges[bnd, 0]] - u[mesh2.edges[bnd, 1]]
    e_bd = float(np.sum(c[bnd] * d * d))
    x = u[op.vertex_map]
    quad = float(x @ (op.S @ x))
    assert abs(quad - 2.0 * e_bd) <= 1e-12 * max(1.0, abs(quad))


def test_energy_positive_random(mesh2, rng):
    op = assemble(mesh2, "full")
    for _ in range(20):
        u = rng.standard_normal(op.dimension)
        assert m_inner(op, apply(op, u), u) >= -1e-12


def test_c0_validation(mesh1):
    with pytest.raises(ValueError):
        assemble(mesh1, "full", c0=0.0)
    with pytest.raises(ValueError):
        assemble(mesh1, "full", c0=-1.0)
    for c0 in (np.inf, np.nan):
        with pytest.raises(ValueError,
                           match="^c0 must be positive and finite, got"):
            assemble(mesh1, "full", c0=c0)
    with pytest.raises(ValueError):
        assemble(mesh1, "bogus")


def test_energy_sequence_constant():
    assert energy_sequence(lambda x, y: 1.0, 3) == [0.0, 0.0, 0.0, 0.0]


def test_energy_sequence_linear_interior_converges():
    # interior part of E_n(x) approaches sqrt(3) * area = 6/5 geometrically
    seq = energy_sequence(lambda x, y: x, 4, part="interior")
    inc = np.abs(np.diff(seq))
    assert np.all(inc[1:] < inc[:-1])
    assert abs(seq[-1] - 1.2) < 0.05
    total = energy_sequence(lambda x, y: x, 4, part="total")
    bound = energy_sequence(lambda x, y: x, 4, part="boundary")
    assert np.allclose(np.asarray(total), np.asarray(seq) + np.asarray(bound),
                       rtol=1e-12)


def test_energy_sequence_part_validation():
    with pytest.raises(ValueError):
        energy_sequence(lambda x, y: x, 1, part="bogus")


@pytest.mark.parametrize("n_max", [-1, -3])
def test_energy_sequence_rejects_negative_n_max(n_max):
    with pytest.raises(ValueError, match="^n_max must be >= 0, got"):
        energy_sequence(lambda x, y: x, n_max)


def test_energy_sequence_guards_n_max_first(monkeypatch):
    # the level-n_max guard fails before any smaller mesh is built
    monkeypatch.setenv("SNOWLAB_GUARD_LEVEL", "2")
    built = []

    def spy(level):
        built.append(level)
        return build_mesh(level)

    monkeypatch.setattr(operators, "build_mesh", spy)
    with pytest.raises(LevelGuardError, match="^level 3 exceeds guard 2"):
        energy_sequence(lambda x, y: x, 3)
    assert built == [3]


# the energies check c0 where it becomes a boundary conductance, as assemble
# does: a negative c0 would give a negative energy, c0 = 0 no boundary part
@pytest.mark.parametrize("c0", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("compute", [
    lambda c0: energy(cached_mesh(2), np.arange(85.0), c0),
    lambda c0: energy_split(cached_mesh(2), np.arange(85.0), c0),
    lambda c0: energy_sequence(lambda x, y: x, 2, c0=c0),
], ids=["energy", "energy_split", "energy_sequence"])
def test_energy_rejects_bad_c0(compute, c0):
    with pytest.raises(ValueError,
                       match="^c0 must be positive and finite, got"):
        compute(c0)


# c0 * 4**n overflows to an infinite boundary conductance: the energy is inf,
# or NaN where the difference across that edge is zero.  At level 0 with
# c0 = 4e307 each edge energy is finite (4e307, 1.6e308, 4e307), and only
# their sum overflows
@pytest.mark.parametrize("compute", [
    lambda: energy(cached_mesh(1), np.arange(13.0), 1e308),
    lambda: energy_split(cached_mesh(1), np.arange(13.0), 1e308),
    lambda: energy_sequence(lambda x, y: 1.0, 2, c0=1e308),
    lambda: energy(cached_mesh(0), np.arange(3.0), 4e307),
    lambda: energy_split(cached_mesh(0), np.arange(3.0), 4e307),
], ids=["energy", "energy_split", "energy_sequence", "energy-sum",
        "energy_split-sum"])
def test_nonfinite_energy_raises(compute):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^energies .* not all finite"):
            compute()


def test_numerical_error_is_one_class():
    # operators defines it; the solver, the extension and the CLI reraise
    # and catch the same class
    assert NumericalError is operators.NumericalError
    assert solver.NumericalError is operators.NumericalError


def test_interior_energy_sequence_ignores_c0_overflow():
    # y is constant along some boundary edges, where the total is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = energy_sequence(lambda x, y: y, 3, c0=1e308, part="interior")
    assert got == energy_sequence(lambda x, y: y, 3, part="interior")
