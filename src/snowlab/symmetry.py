"""Dihedral symmetry of the snowflake operators and its irrep blocks.

For level n >= 1 the mesh is invariant under the twelve lattice maps of the
dihedral group D6 about the centroid (3**(n-1), 3**(n-1)): the rotations
r**k, where r(a, b) = (-b, a + b) relative to the centroid turns by 60
degrees, and the reflections r**k f, with f(a, b) = (b, a).  Each map
permutes the vertices, and the operators commute with the permutations, so
in a symmetry-adapted orthonormal basis the symmetrized operator splits
into one block per irreducible representation (Neuberger, Sieben & Swift,
J. Comput. Appl. Math. 191, 2006).

Irreps, as matrices D(g) on the generators:

    A1  r -> 1,  f -> 1          B1  r -> -1,  f -> 1
    A2  r -> 1,  f -> -1         B2  r -> -1,  f -> -1
    E1  r -> rotation by 60 degrees,  f -> diag(1, -1)
    E2  r -> rotation by 120 degrees, f -> diag(1, -1)

With T(g) e_p = e_{g p}, the vectors y_ij = sum_g D(g)_ij e_{g p} for an
orbit representative p satisfy T(h) y_ij = sum_k D(h)_ki y_kj.  So y_1j
spans the image of the projector P_11 = (d/12) sum_g D(g)_11 T(g) on the
orbit, and y_2j = P_21 y_1j is its partner in the second row of the same
two-dimensional irrep.  Orbits have 12, 6 or 1 points (trivial, one
reflection, or the whole group as stabilizer); the candidates that vanish
on an orbit, or that repeat one another on a 6-point orbit, are dropped.
Each vertex lies in one orbit, so its candidates in one irrep form one
column of that irrep's coefficient table, the source of its CSR bases.
Everything is built from integer lattice permutations: no geometric
tolerance is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .lattice import _lex_keys
from .operators import OperatorBundle

GROUP_ORDER = 12
# tag of the single block used when the D6 maps are not symmetries
TRIVIAL_TAG = "A"
# a kept candidate vector has norm >= sqrt(6); a vanishing one has norm 0
_NONZERO = 0.5

# cos and sin of k * 60 degrees, k = 0..5, as exactly as doubles allow
_COS = np.array([1.0, 0.5, -0.5, -1.0, -0.5, 0.5])
_SIN = np.sqrt(3.0) / 2.0 * np.array([0.0, 1.0, 1.0, 0.0, -1.0, -1.0])


def _irrep_matrices() -> dict[str, np.ndarray]:
    """(12, d, d) matrices of each irrep; group element g = k is r**k and
    g = 6 + k is r**k f."""
    k = np.arange(6)
    sign = (-1.0) ** k
    out = {
        "A1": np.ones(12),
        "A2": np.concatenate([np.ones(6), -np.ones(6)]),
        "B1": np.concatenate([sign, sign]),
        "B2": np.concatenate([sign, -sign]),
    }
    out = {tag: chi.reshape(12, 1, 1) for tag, chi in out.items()}
    for tag, step in (("E1", 1), ("E2", 2)):
        c, s = _COS[(step * k) % 6], _SIN[(step * k) % 6]
        rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
        out[tag] = np.concatenate([rot, rot * np.array([1.0, -1.0])])
    return out


IRREPS = _irrep_matrices()


@dataclass(frozen=True)
class IrrepBlock:
    """Orthonormal basis of one irrep block of the symmetrized operator.

    For a two-dimensional irrep, `basis` spans the first row (the image of
    P_11), tagged `tag`, and `partner` = P_21 basis spans the second, tagged
    `tag + "'"`; the block matrix is the same on both, so one solve serves
    the pair.  Both are CSR: row v holds at most one entry for a
    one-dimensional irrep and at most two for an E row.
    """

    tag: str
    basis: sparse.csr_matrix                   # (d, b)
    partner: sparse.csr_matrix | None = None   # (d, b)

    @property
    def size(self) -> int:
        return self.basis.shape[1]

    @property
    def rows(self) -> list[tuple[str, sparse.csr_matrix]]:
        """(tag, basis) of each irrep row: one, or two for an E block."""
        if self.partner is None:
            return [(self.tag, self.basis)]
        return [(self.tag, self.basis), (self.tag + "'", self.partner)]

    @property
    def multiplicity(self) -> int:
        """How often each eigenvalue of the block occurs in the operator."""
        return len(self.rows)


def vertex_permutations(op: OperatorBundle) -> np.ndarray | None:
    """(12, d) array: row g maps each operator row to the row of its image
    under group element g.  None when the maps do not permute the rows or
    keep S and m: at level 0, whose centroid is not a lattice point, and for
    a bundle not built by `assemble` (D6-invariant at level >= 1, any c0).
    Each image is found by binary search among the rows' keys, which ascend
    as `assemble` lists the rows in lattice (lex) order, and confirmed by
    key equality, so rows in another order give None, never a wrong map.
    """
    # tripled coordinates put the centroid (3**n / 3, 3**n / 3) on the
    # lattice; key the rows and their images under r and f in one frame
    t = 3 * op.lattice_points - 3 ** op.level
    x, y = t.T
    rows, *images = _lex_keys(np.stack(
        [t, np.stack([-y, x + y], axis=-1), t[:, ::-1]]))[2].reshape(3, -1)

    perms = np.empty((GROUP_ORDER, op.dimension), dtype=np.int64)
    perms[0] = np.arange(op.dimension)
    # look up the generators r and f; the other maps are their compositions
    for g, want in zip((1, 6), images):
        p = perms[g] = np.searchsorted(rows, want)
        if not np.array_equal(rows.take(p, mode="clip"), want):
            return None
        if not np.array_equal(op.m[p], op.m) or (op.S[p][:, p] != op.S).nnz:
            return None
    for k in range(2, 6):
        perms[k] = perms[1][perms[k - 1]]   # r**k = r r**(k-1)
    for k in range(1, 6):
        perms[6 + k] = perms[k][perms[6]]   # r**k f
    return perms


def irrep_blocks(op: OperatorBundle) -> list[IrrepBlock]:
    """Symmetry-adapted orthonormal blocks in the fixed order A1, A2, B1,
    B2, E1, E2; a single identity block when D6 is not a symmetry.

    Blocks can be empty (A2 has no vector at level 1).  Columns are
    ordered by orbit (smallest row first) and, within an orbit, by j.
    Row v of a basis is read off column v of its irrep's coefficient table.
    """
    d = op.dimension
    perms = vertex_permutations(op)
    if perms is None:
        return [IrrepBlock(TRIVIAL_TAG, sparse.identity(d, format="csr"))]

    # each vertex's orbit, numbered by its smallest row, the representative
    # p: a representative is its own smallest row, so counting them in row
    # order numbers the orbits
    rep = perms.min(axis=0)
    mask = rep == np.arange(d)
    reps, orbit = np.flatnonzero(mask), (np.cumsum(mask) - 1)[rep]
    free = np.bincount(orbit) == GROUP_ORDER
    hits = perms[:, reps].ravel()
    del perms  # free the (12, d) table before the per-irrep loop
    blocks = []
    for tag, D in IRREPS.items():
        dim = D.shape[1]
        # cand[i, j, v] adds D(g)_ij over the g that map v's representative
        # to v: the candidate y_ij = sum_g D(g)_ij e_{g p} on v.  bincount
        # adds in input order, and the input lists g ascending
        cand = np.array([np.bincount(hits, np.repeat(c, len(reps)), d)
                         for c in D.reshape(GROUP_ORDER, -1).T]
                        ).reshape(dim, dim, d)
        # bincount adds each orbit's squares one by one in ascending row order
        norms = np.sqrt([np.bincount(orbit, np.square(c)) for c in cand[0]]).T
        # a free orbit carries all dim candidates (orthogonal by Schur);
        # on a smaller orbit they are parallel or vanish, so keep the
        # largest one if it does not vanish
        first = np.arange(dim) == norms.argmax(axis=1)[:, None]
        keep = free[:, None] | (first & (norms > _NONZERO))
        scale = np.divide(1.0, norms, out=np.zeros(keep.shape), where=keep)
        # row v lists its orbit's dim candidates; eliminate_zeros removes the
        # ones that vanish on v and the dropped ones (scale 0, column clipped)
        column = np.maximum(np.cumsum(keep) - 1, 0).reshape(keep.shape)
        basis = []
        for i in range(dim):
            Q = sparse.csr_matrix(
                ((cand[i].T * scale.take(orbit, 0)).ravel(),
                 column.take(orbit, 0).ravel(), np.arange(0, dim * d + 1, dim)),
                shape=(d, np.count_nonzero(keep)))
            Q.eliminate_zeros()
            basis.append(Q)
        blocks.append(IrrepBlock(tag, *basis))
    return blocks


def reduced_blocks(op: OperatorBundle, D: sparse.spmatrix
                   ) -> list[tuple[IrrepBlock, sparse.csr_matrix]]:
    """Each nonempty block of `irrep_blocks(op)`, in the same order, with
    the sparse block matrix Q^T D Q of its basis Q.

    D is a matrix on the operator's rows that commutes with the D6
    permutations (the symmetrized operator), so D restricted to the
    partner basis of an E block is the same matrix and one block serves
    both rows.
    """
    return [(blk, blk.basis.T.tocsr() @ (D @ blk.basis))
            for blk in irrep_blocks(op) if blk.size]
