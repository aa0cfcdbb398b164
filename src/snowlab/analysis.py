"""Spectral analysis: counting functions, regime change, multiplicities,
full-vs-Dirichlet eigenvector pairing, boundary localization, and the
high-frequency landscape vector with its eigenvector bound.

Index conventions: in-memory arrays are 0-based like everything else in the
package, but report fields that name an eigenvalue position (index_star,
multiplicity group starts, pairing indices, localization CSV rows) are
1-based, matching the j of the published eigenvalue tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .lattice import Mesh, boundary_hop_distance
from .operators import OperatorBundle
from .solver import Spectrum, chunk_columns


class AnalysisError(Exception):
    """A spectral-analysis precondition failed (degenerate or short data)."""


def counting_function(spec: Spectrum, x: float) -> int:
    """N(x) = number of eigenvalues <= x, with multiplicity.

    Right-continuous by construction; N of the largest eigenvalue is the
    pair count.
    """
    return int(np.searchsorted(spec.eigenvalues, x, side="right"))


MIN_REGIME_POINTS = 10
BURN_IN = 20  # leading eigenvalues left out of the log-log slope fits


def _line_sums(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Prefix sums of x, y, x², xy and y², one row each with a leading 0,
    so a sum over points i..j-1 is the difference of columns j and i."""
    sums = np.zeros((5, len(x) + 1))
    np.cumsum([x, y, x * x, x * y, y * y], axis=1, out=sums[:, 1:])
    return sums


def _centred_sums(sums: np.ndarray, i, j):
    """Centred xx, xy and yy sums of points i..j-1 (i, j may be arrays)."""
    sx, sy, sxx, sxy, syy = sums
    k = j - i
    dx, dy = sx[j] - sx[i], sy[j] - sy[i]
    vx = (sxx[j] - sxx[i]) - dx ** 2 / k
    cxy = (sxy[j] - sxy[i]) - dx * dy / k
    vy = (syy[j] - syy[i]) - dy ** 2 / k
    return vx, cxy, vy


def _sse(sums: np.ndarray, i, j):
    """Least-squares residual of points i..j-1 (i, j may be arrays)."""
    vx, cxy, vy = _centred_sums(sums, i, j)
    return np.maximum(vy - cxy * cxy / np.where(vx > 0, vx, np.inf), 0.0)


def _slope(sums: np.ndarray, i: int, j: int) -> float:
    """Least-squares slope of points i..j-1; NaN when x does not vary."""
    vx, cxy, _ = _centred_sums(sums, i, j)
    return float(cxy / vx) if vx > 0 else float("nan")


def loglog_slopes(spec: Spectrum, threshold: float) -> tuple[float, float]:
    """Least-squares slopes of log N(lambda) vs log lambda below and above
    the threshold, from the kink fit's prefix sums (`_line_sums`), excluding
    lambda = 0 and the first BURN_IN positive eigenvalues."""
    w = spec.eigenvalues
    rank = np.arange(1, len(w) + 1, dtype=float)  # N at each eigenvalue
    pos = w > 0
    w, rank = w[pos][BURN_IN:], rank[pos][BURN_IN:]
    if len(w) == 0:
        raise AnalysisError("no positive eigenvalues past burn-in")
    x = np.log(w)
    sums = _line_sums(x, np.log(rank))
    split = int(np.count_nonzero(w <= threshold))  # w ascends

    def segment_slope(i, j, what):
        if j - i < MIN_REGIME_POINTS:
            raise AnalysisError(
                f"fewer than {MIN_REGIME_POINTS} points in {what} regime "
                f"(got {j - i})")
        if np.ptp(x[i:j]) < 1e-12:
            raise AnalysisError(
                f"degenerate {what} regime: zero spread in log eigenvalues")
        return _slope(sums, i, j)

    return segment_slope(0, split, "low"), segment_slope(split, len(x), "high")


@dataclass(frozen=True)
class RegimeReport:
    """Where the counting function changes growth rate.

    lambda_star is the top of the Dirichlet spectrum (the primary
    definition of the threshold); index_star is the 1-based position in the
    first spectrum where its counting function crosses lambda_star, and
    nearest_eigenvalue the eigenvalue there.  The kink fields come from an
    independent two-segment least-squares fit of log N vs log lambda; when
    that fit is not meaningful (too few points above lambda_star, or the two
    slopes do not actually differ) kink_degenerate is set and the kink is
    still reported for inspection.  A spectrum too small to fit at all gets
    NaN kink fields and kink_index 0.
    """

    lambda_star: float
    index_star: int
    nearest_eigenvalue: float
    kink_lambda: float
    kink_index: int
    kink_low_slope: float
    kink_high_slope: float
    kink_degenerate: bool


def _two_segment_kink(w: np.ndarray) -> tuple[float, int, float, float]:
    """Best split of the log-log counting curve into two LS segments.

    Returns (kink lambda, 1-based kink rank, low slope, high slope); the
    kink point is the first point of the upper segment.  O(N) via the
    prefix sums of `_line_sums`.  With fewer than 2 * MIN_REGIME_POINTS
    positive eigenvalues there is no fit: (NaN, 0, NaN, NaN).
    """
    rank = np.arange(1, len(w) + 1, dtype=float)
    pos = w > 0
    x, y = np.log(w[pos]), np.log(rank[pos])
    n = len(x)
    if n < 2 * MIN_REGIME_POINTS:
        return float("nan"), 0, float("nan"), float("nan")

    sums = _line_sums(x, y)
    splits = np.arange(MIN_REGIME_POINTS, n - MIN_REGIME_POINTS + 1)
    total = (_sse(sums, np.zeros_like(splits), splits)
             + _sse(sums, splits, np.full_like(splits, n)))
    s = int(splits[np.argmin(total)])

    pos_idx = np.flatnonzero(pos)
    kink_pos = int(pos_idx[s])  # first point of the upper segment
    return (float(w[kink_pos]), kink_pos + 1, _slope(sums, 0, s),
            _slope(sums, s, n))


def regime_threshold(specL: Spectrum, specLd: Spectrum) -> RegimeReport:
    """Threshold between the two growth regimes of specL's counting function.

    specLd supplies the reference top eigenvalue (intended use: the
    Dirichlet spectrum at the same level); the kink fit runs on specL alone.
    """
    if specL.count == 0 or specLd.count == 0:
        raise AnalysisError("empty spectrum")
    if specL.op.level != specLd.op.level:
        raise AnalysisError(
            f"level mismatch: {specL.op.level} vs {specLd.op.level}")
    if specL.count != specL.dimension or specLd.count != specLd.dimension:
        raise AnalysisError("regime detection needs complete spectra")

    lambda_star = float(specLd.eigenvalues[-1])
    # the last eigenvalue at or below lambda_star (position 1 if none is):
    # where the counting curve crosses the threshold.  A nearest-by-distance
    # rule is unstable here, as an eigenvalue a hair above the threshold can
    # be closer than the last one below it.
    below = counting_function(specL, lambda_star)
    index_star = max(1, below)
    nearest = float(specL.eigenvalues[index_star - 1])

    kink_lambda, kink_index, lo, hi = _two_segment_kink(specL.eigenvalues)
    degenerate = (specL.count - below < MIN_REGIME_POINTS
                  or not np.isfinite(lo) or not np.isfinite(hi)
                  or abs(lo - hi) < 0.15)

    return RegimeReport(lambda_star=lambda_star, index_star=index_star,
                        nearest_eigenvalue=nearest, kink_lambda=kink_lambda,
                        kink_index=kink_index, kink_low_slope=lo,
                        kink_high_slope=hi, kink_degenerate=degenerate)


@dataclass(frozen=True)
class MultiplicityGroup:
    start: int   # 1-based position of the first eigenvalue in the group
    size: int
    value: float  # group mean


def multiplicity_groups(spec: Spectrum,
                        rel_tol: float = 1e-6) -> list[MultiplicityGroup]:
    """Cluster consecutive eigenvalues with |gap| <= rel_tol * max(1, lambda)."""
    if not rel_tol > 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    w = spec.eigenvalues
    if len(w) == 0:
        return []
    gap = np.abs(np.diff(w)) > rel_tol * np.maximum(1.0, np.abs(w[:-1]))
    bounds = np.flatnonzero(np.concatenate(([True], gap, [True]))).tolist()
    return [MultiplicityGroup(start=a + 1, size=b - a,
                              value=float(np.mean(w[a:b])))
            for a, b in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True)
class PairMatch:
    j: int            # 1-based index into the first spectrum
    j_tilde: int      # 1-based index into the second spectrum
    similarity: float
    gap: float        # |lambda_j - lambda_tilde|


def pair_eigenvectors(specL: Spectrum, specLd: Spectrum, mesh: Mesh,
                      top_k: int = 10) -> list[PairMatch]:
    """Best interior-overlap matches between two spectra's eigenvectors.

    Both sets of eigenvectors are restricted to the mesh's interior vertices
    and m-normalized there, in specL.op.m; similarity is the absolute value
    of their m-inner product, 0 for a column of m-norm 0 there (divided by
    inf; none is NaN: every solver pair passes a residual check).  Returns the
    top_k entries of the similarity matrix, best first.  The published
    pairs are identified visually; this metric is this library's
    quantitative stand-in.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    def restrict(spec):
        vmap = spec.op.vertex_map
        rows = np.flatnonzero(np.isin(vmap, mesh.interior_vertices))
        return vmap[rows], spec.op.m[rows], spec.eigenvectors[rows, :]

    vL, m_int, A = restrict(specL)
    vD, _, B = restrict(specLd)
    if len(vL) == 0 or len(vD) == 0:
        raise AnalysisError("a spectrum has no interior-vertex rows")
    if not np.array_equal(vL, vD):
        raise AnalysisError(
            "spectra cover different interior vertex sets; cannot pair")

    def m_normalize(X):
        nrm = np.sqrt((m_int[:, None] * X * X).sum(axis=0))
        return X / np.where(nrm > 0, nrm, np.inf)

    An, Bn = m_normalize(A), m_normalize(B)
    G = np.abs(An.T @ (m_int[:, None] * Bn))

    best = np.unravel_index(np.argsort(G.ravel())[::-1][:top_k], G.shape)
    return [PairMatch(
        j=int(a) + 1, j_tilde=int(b) + 1, similarity=float(G[a, b]),
        gap=float(abs(specL.eigenvalues[a] - specLd.eigenvalues[b])))
        for a, b in zip(*best)]


CONTOUR_CLASSES = ("zero", "pos", "neg")


def contour_classes(phi: np.ndarray, eps: float) -> np.ndarray:
    """Class codes on the max-normalized vector: 0 where |phi| <= eps,
    1 where phi > eps, 2 where phi < -eps."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    peak = np.max(np.abs(phi))
    v = phi / peak if peak > 0 else phi
    out = np.zeros(len(v), dtype=np.int64)
    out[v > eps] = 1
    out[v < -eps] = 2
    return out


@dataclass(frozen=True)
class LocalizationReport:
    """Per-eigenpair boundary localization metrics for a full spectrum.

    distance_histogram[j, d] is the share of pair j's m-weighted squared
    mass at graph hop distance d from the boundary (d = 0 is the boundary
    itself); rows sum to 1, and boundary_mass_fraction is column 0.
    """

    eigenvalues: np.ndarray         # (k,)
    distance_histogram: np.ndarray  # (k, max_distance + 1)

    def __post_init__(self):
        for arr in (self.eigenvalues, self.distance_histogram):
            arr.setflags(write=False)

    @property
    def boundary_mass_fraction(self) -> np.ndarray:  # (k,)
        return self.distance_histogram[:, 0]


def localization_report(spec: Spectrum, mesh: Mesh) -> LocalizationReport:
    """Boundary mass fractions and hop-distance mass profiles for every
    eigenpair of a full-mesh spectrum, in its operator's measure spec.op.m.

    Works on a cache-sized chunk of eigenvectors at a time
    (`solver.chunk_columns`), so its temporaries stay small whatever the
    spectrum size.  Each column is summed on its own, in column-major
    layout, so the result does not depend on the chunk width.
    """
    if not np.array_equal(spec.op.vertex_map, np.arange(mesh.num_vertices)):
        raise AnalysisError("localization needs a spectrum on the full mesh")

    dist = boundary_hop_distance(mesh)
    k, d = spec.count, spec.dimension
    # shell @ mass adds each column's mass per distance in vertex order,
    # the sums np.bincount(dist, weights=column) forms
    shell = sparse.csr_matrix((np.ones(d), (dist, np.arange(d))),
                              shape=(int(dist.max()) + 1, d))

    hist = np.empty((k, shell.shape[0]))
    width = chunk_columns(d)
    for lo in range(0, k, width):
        hi = min(lo + width, k)
        Phi = np.asfortranarray(spec.eigenvectors[:, lo:hi])
        mass = spec.op.m[:, None] * Phi * Phi
        hist[lo:hi] = (shell @ mass / mass.sum(axis=0)).T

    return LocalizationReport(eigenvalues=spec.eigenvalues.copy(),
                              distance_histogram=hist)


@dataclass(frozen=True)
class LandscapeVector:
    """Absolute row sums of L = M^-1 S of the operator op, one value per
    operator vertex; op.vertex_map[i] is the mesh vertex of values[i].  The
    vector shares the operator's arrays and keeps the whole operator, S
    included, alive."""

    op: OperatorBundle
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


def landscape(op: OperatorBundle) -> LandscapeVector:
    """u_i = sum_j |L_ij|: inv_m, an exact integer, times the row sum of |S|.

    A full or boundary row keeps every edge at its vertex, so its entries
    off the diagonal sum to S_pp, which assemble rounds once: the row sum is
    2 S_pp, and u equals landscape_closed_forms bit for bit at every c0.  A
    Dirichlet row, 12 + 2 * (number of interior neighbours), is exact.
    """
    row_abs = (np.asarray(abs(op.S).sum(axis=1)).ravel()
               if op.kind == "dirichlet" else 2.0 * op.S.diagonal())
    return LandscapeVector(op=op, values=op.inv_m * row_abs)


def landscape_closed_forms(level: int, c0: float = 1.0) -> dict[str, float]:
    """The three values the full-operator landscape takes at c0-weighted
    boundary coupling: constant on the interior, and two boundary values
    keyed by vertex degree (tips have degree 2, bases degree 5)."""
    n = level
    return {
        "interior": 24.0 * 9 ** n,
        "boundary_tip": c0 * 8.0 * 16 ** n,
        "boundary_base": c0 * 8.0 * 16 ** n + 12.0 * 4 ** n,
    }


@dataclass(frozen=True)
class BoundViolation:
    """One vertex where an eigenvector exceeds the landscape bound.

    `pair` is the 1-based position of the eigenpair within the spectrum
    passed to landscape_bound_check.  For a partial spectrum (a top-k
    window from eig_partial) that is a position within the window, not
    the pair's index in the full spectrum.
    """

    pair: int     # 1-based position within the checked spectrum
    vertex: int   # mesh vertex index (via the operator's vertex_map)
    value: float  # |phi| after max-normalization
    bound: float  # u / lambda


@dataclass(frozen=True)
class BoundCheckResult:
    violations: tuple
    skipped: tuple  # 1-based positions of lambda = 0 pairs (bound undefined)

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def landscape_bound_check(spec: Spectrum, u: LandscapeVector,
                          tol: float = 1e-10) -> BoundCheckResult:
    """Check |phi_i| <= u_i / lambda for every eigenpair with lambda > 0,
    after normalizing each eigenvector to max |phi| = 1.

    Returns every index where the bound fails by more than `tol`; an empty
    violation list verifies the bound on this spectrum.  Violations and
    skipped pairs are named by their 1-based position within `spec`: for a
    partial spectrum from eig_partial that is the position within its
    window, not a global eigenvalue index.  Violations are listed by
    operator row, then by pair.
    """
    op, other = spec.op, u.op
    if (op.kind, op.level, op.c0) != (other.kind, other.level, other.c0):
        raise AnalysisError(
            "spectrum and landscape come from different operators")
    if spec.dimension != len(u.values):
        raise AnalysisError(
            f"dimension mismatch: {spec.dimension} vs {len(u.values)}")

    w = spec.eigenvalues
    Phi = spec.eigenvectors
    skipped = tuple(int(i) + 1 for i in np.flatnonzero(w == 0))
    # a max-normalized |phi| is at most 1, so only a pair whose smallest
    # bound min(u) / lambda + tol is below 1 can fail (both roundings are
    # monotone, so the test is exact)
    with np.errstate(divide="ignore"):
        pairs = np.flatnonzero((w > 0) & (u.values.min() / w + tol < 1.0))
    found = []
    width = chunk_columns(spec.dimension)
    for lo in range(0, len(pairs), width):
        cols = pairs[lo:lo + width]
        P = np.abs(Phi[:, cols])
        P = P / np.max(P, axis=0)
        bound = u.values[:, None] / w[cols]
        for r, c in zip(*np.nonzero(P > bound + tol)):
            found.append((int(r), int(cols[c]), float(P[r, c]),
                          float(bound[r, c])))
    found.sort()  # by row, then pair, whatever the chunk width
    violations = tuple(
        BoundViolation(pair=j + 1, vertex=int(spec.op.vertex_map[r]),
                       value=value, bound=b)
        for r, j, value, b in found)
    return BoundCheckResult(violations=violations, skipped=skipped)
