"""Reference computations the benchmark checks snowlab's outputs against.

Nothing here calls snowlab: the boundary polygon comes from a Koch turtle,
operators are assembled from raw mesh edges, hop distances come from
scipy.sparse.csgraph, and everything else is a closed form or a property
the method must have (residuals, m-orthonormality, trace, interlacing,
maximum principle).  Checks work on column blocks so that they never raise
the process's peak memory above that of the pass they check.
"""

from __future__ import annotations

import json
import struct

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

# Unit lattice steps at angles 0, 60, ..., 300 degrees (basis e1, e2 at 60).
DIRECTIONS = np.array([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])
KOCH_TURNS = np.array([0, -1, 1, 0])  # straight, -60, +120 (net +60), -60

# Level-4 full-operator eigenvalues j = 1..34 from the source paper's table.
PAPER_TABLE_FULL_L4 = [
    0.0, 15.1, 15.1, 48.1, 48.1, 85.1, 119.2, 125.4, 171.6, 171.6,
    238.5, 238.5, 313.0, 313.0, 344.8, 363.6, 482.0, 482.0, 490.9, 490.9,
    609.5, 617.9, 651.6, 651.6, 743.8, 787.9, 851.2, 851.2, 880.9, 880.9,
    1007.2, 1014.9, 1014.9, 1098.6,
]
RESIDUAL_TOL = 1e-8   # snowlab's documented ||S phi - lambda M phi|| bound
BLOCK = 512


class Checks:
    """Collects named pass/fail results; a run is correct when none fail."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def __call__(self, name: str, ok, detail: str = "") -> bool:
        self.count += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)


# -- mesh -------------------------------------------------------------------

def koch_polygon(level: int) -> np.ndarray:
    """Counterclockwise level-n snowflake polygon from the origin, built by
    summing the Koch turns of every base-4 digit of the step index."""
    t = np.arange(4 ** level)
    turn = np.zeros(len(t), dtype=np.int64)
    for d in range(level):
        turn += KOCH_TURNS[(t // 4 ** d) % 4]
    angles = np.concatenate([(side + turn) % 6 for side in (0, 2, 4)])
    steps = DIRECTIONS[angles]
    pts = np.cumsum(steps, axis=0) - steps
    return pts


def check_census(chk: Checks, tag: str, level: int, vertices, triangles,
                 edges, edge_is_boundary) -> None:
    nb_expect = 3 * 4 ** level
    b_edges = edges[edge_is_boundary]
    chk(f"{tag} boundary vertices 3*4^n",
        len(np.unique(b_edges)) == nb_expect, f"{len(np.unique(b_edges))}")
    chk(f"{tag} boundary edges 3*4^n", len(b_edges) == nb_expect)
    n_int = int(np.count_nonzero(~edge_is_boundary))
    chk(f"{tag} interior edges 12(9^n-4^n)/5",
        n_int == 12 * (9 ** level - 4 ** level) // 5, f"{n_int}")
    euler = len(vertices) - len(edges) + len(triangles)
    chk(f"{tag} Euler V-E+T=1", euler == 1, f"{euler}")


def check_cycle(chk: Checks, tag: str, level: int, cycle_points) -> None:
    """The boundary cycle, as lattice points, is the Koch polygon read from
    the same starting point in the same (counterclockwise) sense."""
    koch = koch_polygon(level)
    hits = np.flatnonzero((koch == cycle_points[0]).all(axis=1))
    ok = (len(cycle_points) == len(koch) and len(hits) == 1
          and np.array_equal(np.roll(koch, -int(hits[0]), axis=0),
                             cycle_points))
    chk(f"{tag} boundary cycle equals Koch turtle", ok)


def cycle_from_edges(vertices, edges, edge_is_boundary) -> np.ndarray:
    """Boundary polygon as points, from the lex-smallest boundary vertex,
    counterclockwise; an independent walk over the boundary edges."""
    nbr: dict[int, list[int]] = {}
    for i, j in edges[edge_is_boundary].tolist():
        nbr.setdefault(i, []).append(j)
        nbr.setdefault(j, []).append(i)
    start = min(nbr, key=lambda v: tuple(vertices[v]))
    cyc = [start, nbr[start][0]]
    while True:
        a, b = nbr[cyc[-1]]
        nxt = a if b == cyc[-2] else b
        if nxt == start:
            break
        cyc.append(nxt)
    pts = vertices[cyc]
    x, y = pts[:, 0], pts[:, 1]
    if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) < 0:
        pts = np.concatenate([pts[:1], pts[:0:-1]])
    return pts


def hop_distance(num_vertices: int, edges, boundary) -> np.ndarray:
    """Hop distance to the boundary via one BFS from a virtual source
    joined to every boundary vertex."""
    src = num_vertices
    i = np.concatenate([edges[:, 0], np.full(len(boundary), src)])
    j = np.concatenate([edges[:, 1], boundary])
    g = sparse.coo_matrix((np.ones(len(i)), (i, j)),
                          shape=(src + 1, src + 1)).tocsr()
    d = csgraph.shortest_path(g, directed=False, unweighted=True,
                              indices=src)
    return d[:src].astype(np.int64) - 1


# -- operators --------------------------------------------------------------

class Operator:
    """S, m and row vertices of one operator kind, from mesh edges alone."""

    def __init__(self, level: int, num_vertices: int, edges, edge_is_boundary,
                 kind: str, c0: float = 1.0):
        bflag = np.zeros(num_vertices, dtype=bool)
        bflag[edges[edge_is_boundary].ravel()] = True
        c = np.where(edge_is_boundary, c0 * 4.0 ** level, 1.0)
        m_all = np.where(bflag, 1.0 / 4 ** level, 1.0 / 9 ** level)
        inv_m = np.where(bflag, 4.0 ** level, 9.0 ** level)  # exact
        if kind == "boundary":
            keep_edge = edge_is_boundary
            rows = np.flatnonzero(bflag)
        else:
            keep_edge = np.ones(len(edges), dtype=bool)
            rows = (np.arange(num_vertices) if kind == "full"
                    else np.flatnonzero(~bflag))
        e, ce = edges[keep_edge], c[keep_edge]
        diag = (np.bincount(e[:, 0], weights=2 * ce, minlength=num_vertices)
                + np.bincount(e[:, 1], weights=2 * ce, minlength=num_vertices))
        pos = np.full(num_vertices, -1)
        pos[rows] = np.arange(len(rows))
        pe = pos[e]
        inner = (pe >= 0).all(axis=1)
        pi, pj, cv = pe[inner, 0], pe[inner, 1], ce[inner]
        n = len(rows)
        self.S = sparse.coo_matrix(
            (np.concatenate([-2 * cv, -2 * cv, diag[rows]]),
             (np.concatenate([pi, pj, np.arange(n)]),
              np.concatenate([pj, pi, np.arange(n)]))), shape=(n, n)).tocsr()
        self.m = m_all[rows]
        self.inv_m = inv_m[rows]
        self.trace = float(np.sum(diag[rows] * self.inv_m))


def dense_eigenvalues(op: Operator) -> np.ndarray:
    d = 1.0 / np.sqrt(op.m)
    D = (op.S.multiply(d[:, None]).multiply(d[None, :])).toarray()
    return np.linalg.eigvalsh(D)


def check_spectrum(chk: Checks, tag: str, op: Operator, w, Phi,
                   rng: np.random.Generator, complete: bool = True) -> None:
    """Residuals, m-orthonormality (by random probes), and for a complete
    spectrum the trace identity sum(lambda) = trace(M^-1 S)."""
    worst = 0.0
    for lo in range(0, len(w), BLOCK):
        P = Phi[:, lo:lo + BLOCK]
        R = op.S @ P - (op.m[:, None] * P) * w[lo:lo + BLOCK]
        worst = max(worst, float(np.max(np.abs(R).max(axis=0)
                                        / np.maximum(1.0, w[lo:lo + BLOCK]))))
    chk(f"{tag} residuals", worst <= RESIDUAL_TOL, f"{worst:.3e}")
    X = rng.standard_normal((len(w), 8))
    E = Phi.T @ (op.m[:, None] * (Phi @ X)) - X
    defect = float(np.linalg.norm(E) / np.linalg.norm(X))
    chk(f"{tag} m-orthonormal", defect <= 1e-9, f"{defect:.3e}")
    if complete:
        rel = abs(float(np.sum(w)) - op.trace) / op.trace
        chk(f"{tag} sum(lambda) = trace", rel <= 1e-10, f"{rel:.3e}")


def check_full_dirichlet(chk: Checks, tag: str, w_full, w_dir) -> None:
    tol = 1e-9 * float(w_full[-1])
    zeros = int(np.count_nonzero(w_full <= tol))
    chk(f"{tag} one zero eigenvalue (full)", zeros == 1, f"{zeros}")
    r = len(w_full) - len(w_dir)
    ok = (np.all(w_full[:len(w_dir)] <= w_dir + tol)
          and np.all(w_dir <= w_full[r:] + tol))
    chk(f"{tag} Cauchy interlacing", ok)


def check_landscape_full(chk: Checks, tag: str, level: int, values, edges,
                         edge_is_boundary, c0: float = 1.0) -> None:
    V = len(values)
    deg = np.bincount(edges.ravel(), minlength=V)
    bflag = np.zeros(V, dtype=bool)
    bflag[edges[edge_is_boundary].ravel()] = True
    want = np.where(bflag, c0 * 8.0 * 16 ** level, 24.0 * 9 ** level)
    want[bflag & (deg == 5)] += 12.0 * 4 ** level
    chk(f"{tag} landscape closed forms", np.array_equal(values, want))


def landscape_values(op: Operator) -> np.ndarray:
    return np.asarray(abs(op.S).sum(axis=1)).ravel() * op.inv_m


def check_bound(chk: Checks, tag: str, u, w, Phi) -> None:
    """|phi| <= u / lambda after max-normalizing each eigenvector."""
    bad = 0
    for lo in range(0, len(w), BLOCK):
        ww = w[lo:lo + BLOCK]
        P = np.abs(Phi[:, lo:lo + BLOCK])
        P /= P.max(axis=0)
        pos = ww > 0
        bad += int(np.count_nonzero(
            P[:, pos] > u[:, None] / ww[None, pos] + 1e-10))
    chk(f"{tag} landscape bound", bad == 0, f"{bad} violations")


# -- extension --------------------------------------------------------------

def check_extension(chk: Checks, tag: str, level: int, edges,
                    edge_is_boundary, boundary, f, u, split=None,
                    decay=None, dist=None) -> None:
    V = len(u)
    chk(f"{tag} boundary values exact", np.array_equal(u[boundary], f))
    full = Operator(level, V, edges, edge_is_boundary, "full")
    interior = np.ones(V, dtype=bool)
    interior[boundary] = False
    lap = float(np.max(np.abs((full.S @ u)[interior]), initial=0.0))
    scale = 12.0 * max(1.0, float(np.max(np.abs(f))))
    chk(f"{tag} zero interior Laplacian", lap <= 1e-8 * scale, f"{lap:.3e}")
    ui = u[interior]
    chk(f"{tag} maximum principle",
        ui.min(initial=f.min()) >= f.min() - 1e-12
        and ui.max(initial=f.max()) <= f.max() + 1e-12)
    if split is not None:
        c = np.where(edge_is_boundary, 4.0 ** level, 1.0)
        e = c * (u[edges[:, 0]] - u[edges[:, 1]]) ** 2
        want = (float(np.sum(e[~edge_is_boundary])),
                float(np.sum(e[edge_is_boundary])))
        ok = all(abs(a - b) <= 1e-12 * max(1.0, abs(b))
                 for a, b in zip(split, want))
        chk(f"{tag} energy_split equals edge sum", ok, f"{split} vs {want}")
    if decay is not None:
        want = [(d, float(np.max(np.abs(u[dist == d]))))
                for d in range(1, int(dist.max()) + 1) if np.any(dist == d)]
        chk(f"{tag} decay profile vs csgraph hop distance",
            [(int(d), float(s)) for d, s in decay] == want)


def alternating(level: int, boundary_points) -> np.ndarray:
    """+1/-1 along the Koch polygon from its lex-smallest point, listed for
    `boundary_points` (the boundary vertices in ascending mesh order)."""
    koch = koch_polygon(level)
    lex = int(np.lexsort((koch[:, 1], koch[:, 0]))[0])
    sign = {tuple(p): 1.0 if t % 2 == 0 else -1.0
            for t, p in enumerate(np.roll(koch, -lex, axis=0).tolist())}
    return np.array([sign[tuple(p)] for p in boundary_points.tolist()])


def energy_interior_linear_x(level: int) -> float:
    return 1.2 * (1.0 - (4.0 / 9.0) ** level)


# -- files ------------------------------------------------------------------

def read_snwv(path) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(24)
        if head[:4] != b"SNWV" or struct.unpack("<I", head[4:8])[0] != 1:
            raise ValueError(f"{path}: bad header")
        d, k = struct.unpack("<QQ", head[8:24])
        data = np.frombuffer(f.read(), dtype="<f8")
    if data.size != d * k:
        raise ValueError(f"{path}: payload {data.size} != {d}*{k}")
    return data.reshape(k, d).T


def snwv_matches(path, Phi) -> bool:
    """Stream the file and compare it vector by vector with Phi."""
    d, k = Phi.shape
    with open(path, "rb") as f:
        head = f.read(24)
        if head[:4] != b"SNWV" or struct.unpack("<QQ", head[8:24]) != (d, k):
            return False
        for lo in range(0, k, 64):
            hi = min(lo + 64, k)
            got = np.frombuffer(f.read(8 * d * (hi - lo)), dtype="<f8")
            if not np.array_equal(got, Phi[:, lo:hi].T.ravel()):
                return False
        return f.read(1) == b""


def read_csv(path) -> list[list[str]]:
    """Rows after the header line, split on commas."""
    with open(path, encoding="utf-8") as f:
        f.readline()
        return [line.rstrip("\n").split(",") for line in f]


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)
