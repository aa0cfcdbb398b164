import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from conftest import traced_memory

from snowlab.lattice import build_mesh
from snowlab.operators import KINDS, assemble
from snowlab.solver import eig_full, symmetrize
from snowlab.symmetry import (
    GROUP_ORDER,
    IRREPS,
    TRIVIAL_TAG,
    _NONZERO,
    irrep_blocks,
    vertex_permutations,
)

ORDER = ("A1", "A2", "B1", "B2", "E1", "E1'", "E2", "E2'")


def lattice_maps(op):
    """Oracle: the 12 D6 maps as operator-row permutations, by dictionary
    lookup of lattice points; element k is r**k, element 6 + k is r**k f."""
    s = 3 ** (op.level - 1)
    row = {(int(a), int(b)): i for i, (a, b) in enumerate(op.lattice_points)}
    perms = []
    for g in range(12):
        perm = []
        for a, b in op.lattice_points.tolist():
            x, y = a - s, b - s
            if g >= 6:
                x, y = y, x
            for _ in range(g % 6):
                x, y = -y, x + y
            perm.append(row[(x + s, y + s)])
        perms.append(np.array(perm))
    return perms


def act(perm, phi):
    """T(g) phi, with T(g) e_p = e_{g p}."""
    out = np.empty_like(phi)
    out[perm] = phi
    return out


def compose(perms):
    """table[g, h] = index of the element g h."""
    index = {p.tobytes(): g for g, p in enumerate(perms)}
    return np.array([[index[perms[g][perms[h]].tobytes()] for h in range(12)]
                     for g in range(12)])


@pytest.mark.parametrize("level", (0, 1, 2, 3))
@pytest.mark.parametrize("kind", ("full", "dirichlet", "boundary"))
def test_eig_full_matches_dense(level, kind):
    op = assemble(build_mesh(level), kind)
    if op.dimension == 0:
        return  # no interior vertices at level 0
    spec = eig_full(op)
    dense = scipy.linalg.eigh(symmetrize(op).toarray(), eigvals_only=True)
    err = np.abs(spec.eigenvalues - dense) / np.maximum(1.0, np.abs(dense))
    assert err.max() <= 1e-9
    assert len(spec.irreps) == spec.count


def test_irreps_are_representations(mesh2):
    perms = lattice_maps(assemble(mesh2, "full"))
    table = compose(perms)
    for tag, D in IRREPS.items():
        for g in range(12):
            for h in range(12):
                assert np.allclose(D[g] @ D[h], D[table[g, h]],
                                   rtol=0, atol=1e-15), (tag, g, h)


def test_level4_block_sizes(op4_full, op4_dir):
    want = {
        "full": {"A1": 491, "A2": 436, "B1": 463, "B2": 463,
                 "E1": 926, "E2": 926},
        "dirichlet": {"A1": 426, "A2": 373, "B1": 399, "B2": 399,
                      "E1": 798, "E2": 798},
    }
    for op in (op4_full, op4_dir):
        blocks = irrep_blocks(op)
        assert {b.tag: b.size for b in blocks} == want[op.kind]
        assert all(b.partner is None or b.partner.shape == b.basis.shape
                   for b in blocks)


@pytest.mark.parametrize("kind", ("full", "dirichlet", "boundary"))
def test_irrep_blocks_memory_bound(mesh4, kind):
    # each irrep's candidate table is built in the loop that reads it, so
    # a warm call's transient bytes (traced peak less what the blocks
    # keep) stay within 2.2 times the (12, d) int64 permutation table
    op = assemble(mesh4, kind)
    peak, current = traced_memory(lambda: irrep_blocks(op))
    assert peak - current <= 2.2 * GROUP_ORDER * op.dimension * 8


@pytest.mark.parametrize("kind", ("full", "dirichlet", "boundary"))
def test_basis_orthonormal_and_complete(mesh3, kind):
    op = assemble(mesh3, kind)
    cols = []
    for b in irrep_blocks(op):
        cols.append(b.basis)
        if b.partner is not None:
            cols.append(b.partner)
    Q = sparse.hstack(cols).toarray()
    assert Q.shape == (op.dimension, op.dimension)
    assert np.abs(Q.T @ Q - np.eye(op.dimension)).max() <= 1e-12


def test_level0_is_one_identity_block(mesh0):
    op = assemble(mesh0, "full")
    (block,) = irrep_blocks(op)
    assert block.tag == TRIVIAL_TAG and block.partner is None
    assert np.array_equal(block.basis.toarray(), np.eye(3))
    assert eig_full(op).irreps == (TRIVIAL_TAG,) * 3


def test_level1_empty_block(mesh1):
    op = assemble(mesh1, "full")
    sizes = {b.tag: b.size for b in irrep_blocks(op)}
    assert sizes["A2"] == 0
    assert "A2" not in eig_full(op).irreps


@pytest.mark.parametrize("level", (1, 2, 3))
@pytest.mark.parametrize("kind", ("full", "dirichlet", "boundary"))
def test_partner_eigenvalues_bit_equal(level, kind):
    spec = eig_full(assemble(build_mesh(level), kind))
    tags = np.array(spec.irreps)
    for e in ("E1", "E2"):
        first = spec.eigenvalues[tags == e]
        assert np.array_equal(first, spec.eigenvalues[tags == e + "'"])
    # stable order: ties keep the fixed block order
    rank = np.array([ORDER.index(t) for t in spec.irreps])
    ties = np.diff(spec.eigenvalues) == 0
    assert np.all(np.diff(rank)[ties] >= 0)


@pytest.mark.parametrize("kind", ("full", "dirichlet", "boundary"))
def test_eigenvectors_transform_as_tagged(mesh2, kind):
    op = assemble(mesh2, kind)
    spec = eig_full(op)
    perms = lattice_maps(op)
    for j, tag in enumerate(spec.irreps):
        phi = spec.eigenvectors[:, j]
        D = IRREPS[tag.rstrip("'")]
        r = 1 if tag.endswith("'") else 0
        # phi is fixed by the projector onto row r of its irrep
        proj = D.shape[1] / 12 * sum(D[g, r, r] * act(perms[g], phi)
                                     for g in range(12))
        assert np.abs(proj - phi).max() <= 1e-9 * np.abs(phi).max(), (j, tag)


@pytest.mark.parametrize("kind", ("full", "dirichlet", "boundary"))
def test_operators_commute_with_the_maps(mesh3, kind):
    op = assemble(mesh3, kind)
    for p in lattice_maps(op):
        assert np.array_equal(op.m[p], op.m)
        assert (op.S[p][:, p] != op.S).nnz == 0


# -- reference: the scipy-built bases that the per-vertex CSR construction
# replaced, kept verbatim as the array-equality oracle -----------------------

def _orbit_vectors(targets: np.ndarray, coef: np.ndarray,
                   d: int) -> sparse.csc_matrix:
    """Column c*o + j = sum_g coef[g, j] e_{targets[g, o]} for c = coef.shape[1]
    candidates per orbit o (repeated targets add up)."""
    c = coef.shape[1]
    rows = np.repeat(targets, c, axis=1)
    cols = np.broadcast_to(np.arange(rows.shape[1]), rows.shape)
    vals = np.tile(coef, (1, targets.shape[1]))
    M = sparse.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                          shape=(d, rows.shape[1])).tocsc()
    M.eliminate_zeros()
    return M


def scipy_bases(op):
    """(tag, basis) of every irrep row, built with scipy sparse algebra."""
    d = op.dimension
    perms = vertex_permutations(op)
    targets = perms[:, np.unique(perms.min(axis=0))]
    srt = np.sort(targets, axis=0)
    free = 1 + np.count_nonzero(np.diff(srt, axis=0), axis=0) == GROUP_ORDER

    out = []
    for tag, D in IRREPS.items():
        dim = D.shape[1]
        rows = [_orbit_vectors(targets, D[:, i, :], d) for i in range(dim)]
        norms = np.sqrt(np.asarray(rows[0].multiply(rows[0]).sum(axis=0)))
        norms = norms.reshape(-1, dim)
        first = np.arange(dim) == norms.argmax(axis=1)[:, None]
        keep = (free[:, None] | (first & (norms > _NONZERO))).ravel()
        scale = sparse.diags(1.0 / norms.ravel()[keep])
        basis = [(R[:, keep] @ scale).tocsc() for R in rows]
        tags = [tag] if dim == 1 else [tag, tag + "'"]
        out += list(zip(tags, basis))
    return out


@pytest.mark.parametrize("level", (1, 2, 3, 4, 5, 6))
@pytest.mark.parametrize("kind", ("full", "dirichlet", "boundary"))
def test_direct_bases_match_scipy_built(level, kind):
    op = assemble(build_mesh(level), kind)
    got = [row for blk in irrep_blocks(op) for row in blk.rows]
    want = scipy_bases(op)
    assert [t for t, _ in got] == [t for t, _ in want] == list(ORDER)
    for (tag, Q), (_, R) in zip(got, want):
        assert Q.format == "csr" and Q.shape == R.shape, tag
        # row v holds one entry per kept candidate of its orbit that is
        # nonzero on v: at most 1, or 2 in an E row
        width = 2 if tag.startswith("E") else 1
        assert np.diff(Q.indptr).max(initial=0) <= width, tag
        # entry order within a column is not behaviour; compare sorted
        Q, R = Q.tocsc(), R.sorted_indices()
        for name in ("indptr", "indices", "data"):
            a, b = getattr(Q, name), getattr(R, name)
            assert a.dtype == b.dtype, (tag, name)
            assert np.array_equal(a, b), (tag, name)


# -- reference: the twelve-lookup vertex_permutations that generator
# composition replaced, kept verbatim as the array-equality oracle -----------

def twelve_lookup_permutations(op):
    # tripled coordinates put the centroid (3**n / 3, 3**n / 3) on the lattice
    c = 3 ** op.level
    x = 3 * op.lattice_points[:, 0] - c
    y = 3 * op.lattice_points[:, 1] - c
    span = 8 * int(max(np.abs(x).max(initial=0), np.abs(y).max(initial=0))) + 1
    keys = x * span + y
    order = np.argsort(keys)
    sorted_keys = keys[order]

    d = op.dimension
    perms = np.empty((GROUP_ORDER, d), dtype=np.int64)
    for g in range(GROUP_ORDER):
        a, b = (x, y) if g < 6 else (y, x)
        for _ in range(g % 6):
            a, b = -b, a + b
        want = a * span + b
        pos = np.minimum(np.searchsorted(sorted_keys, want), d - 1)
        if not np.array_equal(sorted_keys[pos], want):
            return None
        perms[g] = order[pos]

    for g in (1, 6):  # the generators r and f
        p = perms[g]
        if not np.array_equal(op.m[p], op.m) or (op.S[p][:, p] != op.S).nnz:
            return None
    return perms


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("kind", ("full", "dirichlet", "boundary"))
def test_composed_permutations_match_twelve_lookups(level, kind):
    op = assemble(build_mesh(level), kind)
    got, want = vertex_permutations(op), twelve_lookup_permutations(op)
    if level == 0 and kind != "dirichlet":
        assert got is None and want is None
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("field", ("S", "m"))
def test_composed_permutations_none_when_not_invariant(op2_full, field):
    # one changed entry breaks the symmetry for both constructions
    S, m = op2_full.S.copy(), op2_full.m.copy()
    if field == "S":
        S.data[7] += 1.0
    else:
        m[3] *= 2.0
    op = dataclasses.replace(op2_full, S=S, m=m)
    assert twelve_lookup_permutations(op) is None
    assert vertex_permutations(op) is None


# 100 seeded log-uniform c0 in [1e-3, 1e3], the first 20 of them at level
# 5, and named c0 at which a diagonal summed in edge order rounds D6 images
# apart
RANDOM_C0 = 10.0 ** np.random.default_rng(0).uniform(-3.0, 3.0, 100)
NAMED_C0 = {1: (0.37,), 2: (0.1, 1 / 3), 4: (1e-3,)}


@pytest.mark.parametrize("level", range(1, 6))
def test_d6_holds_at_random_c0(level):
    # assemble rounds each diagonal entry once from integer edge counts, so
    # every D6 image of a vertex gets the same bits whatever c0 is
    mesh = build_mesh(level)
    draws = RANDOM_C0[:20] if level == 5 else RANDOM_C0
    for c0 in (*NAMED_C0.get(level, ()), *draws):
        for kind in KINDS:
            op = assemble(mesh, kind, c0)
            assert vertex_permutations(op) is not None, (kind, c0)


def test_non_dyadic_c0_keeps_the_blocks(mesh2, mesh4):
    # c0 * 4**n is not dyadic here, and the solve still runs one block per
    # irrep row and takes each E pair from one block solve
    spec = eig_full(assemble(mesh4, "full", 1e-3))
    tags = np.array(spec.irreps)
    assert set(spec.irreps) == set(ORDER)
    for e in ("E1", "E2"):
        assert np.array_equal(spec.eigenvalues[tags == e],
                              spec.eigenvalues[tags == e + "'"])
    low = eig_full(assemble(mesh2, "full", 0.1)).eigenvalues
    assert low[0] == 0.0 and low[1] == low[2]


def test_rows_out_of_lattice_order_get_one_block(op2_full):
    # the lookup relies on assemble's lattice row order: rows in another
    # order find no map, so the solve falls back to the identity block
    rev = np.arange(op2_full.dimension)[::-1]
    op = dataclasses.replace(
        op2_full, S=op2_full.S[rev][:, rev], m=op2_full.m[rev],
        inv_m=op2_full.inv_m[rev], vertex_map=op2_full.vertex_map[rev],
        lattice_points=op2_full.lattice_points[rev])
    assert vertex_permutations(op) is None
    got, want = eig_full(op), eig_full(op2_full)
    assert got.irreps == (TRIVIAL_TAG,) * op.dimension
    assert np.abs(got.eigenvalues - want.eigenvalues).max() <= (
        1e-9 * want.eigenvalues.max())
