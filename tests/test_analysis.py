import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowlab.analysis import (
    BURN_IN,
    CONTOUR_CLASSES,
    AnalysisError,
    contour_classes,
    counting_function,
    landscape,
    landscape_bound_check,
    landscape_closed_forms,
    localization_report,
    loglog_slopes,
    multiplicity_groups,
    pair_eigenvectors,
    regime_threshold,
)
from snowlab.analysis import BoundViolation, LandscapeVector, MultiplicityGroup
from snowlab.lattice import boundary_hop_distance, build_mesh
from snowlab.operators import assemble
from snowlab.solver import Spectrum, eig_full


def stub(w, kind="full", level=7, complete=True):
    """Spectrum carrying only eigenvalues, for analysis-layer tests."""
    w = np.asarray(w, dtype=float)
    n = len(w)
    d = n if complete else 1
    return Spectrum(kind=kind, level=level, c0=1.0, eigenvalues=w,
                    eigenvectors=np.zeros((d, n)), residuals=np.zeros(n),
                    vertex_map=np.arange(d), solver="stub")


def test_counting_function(spec2_full):
    w = spec2_full.eigenvalues
    assert counting_function(spec2_full, float(w[-1])) == 85
    assert counting_function(spec2_full, -1.0) == 0
    mid = float(w[40])
    assert counting_function(spec2_full, mid) == int(np.sum(w <= mid))


@given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1,
                max_size=60))
@settings(max_examples=50)
def test_counting_function_monotone(values):
    s = stub(np.sort(values), complete=False)
    xs = sorted(values)
    counts = [counting_function(s, x) for x in xs]
    assert counts == sorted(counts)
    assert counts[-1] == len(values)


def test_loglog_slopes_pure_power_law():
    # N(lam) = lam^(1/2) exactly, so both segments fit slope 0.5
    s = stub(np.arange(1, 2001, dtype=float) ** 2, complete=False)
    lo, hi = loglog_slopes(s, 1.0e6)
    assert abs(lo - 0.5) < 1e-6
    assert abs(hi - 0.5) < 1e-6


def _kinked_staircase():
    # slope 1 up to lam = 600, slope 1/4 above
    j_low = np.arange(1, 601, dtype=float)
    j_high = np.arange(601, 1201, dtype=float)
    return np.concatenate([j_low, 600.0 * (j_high / 600.0) ** 4])


def test_loglog_slopes_two_regimes():
    lo, hi = loglog_slopes(stub(_kinked_staircase(), complete=False), 600.0)
    assert abs(lo - 1.0) < 0.02
    assert abs(hi - 0.25) < 0.02


def test_loglog_slopes_needs_points():
    with pytest.raises(AnalysisError):
        loglog_slopes(stub([1.0, 2.0, 3.0], complete=False), 2.0)


@pytest.mark.parametrize("w, threshold, message", [
    ([0.0] * 5 + [1.0] * 15, 1.0, "no positive eigenvalues past burn-in"),
    (np.arange(1.0, 36.0), 30.0,
     "fewer than 10 points in high regime (got 5)"),
    (np.arange(1.0, 36.0), 25.0,
     "fewer than 10 points in low regime (got 5)"),
    (np.r_[np.linspace(0.1, 0.5, 20), [7.0] * 12, np.arange(8.0, 20.0)], 7.0,
     "degenerate low regime: zero spread in log eigenvalues"),
])
def test_loglog_slopes_errors(w, threshold, message):
    with pytest.raises(AnalysisError, match=re.escape(message)):
        loglog_slopes(stub(w, complete=False), threshold)


def polyfit_slopes(spec, threshold):
    """Log-log slopes by one np.polyfit per side of the threshold."""
    w = spec.eigenvalues
    rank = np.arange(1, len(w) + 1, dtype=float)
    pos = w > 0
    w, rank = w[pos][BURN_IN:], rank[pos][BURN_IN:]
    x, y = np.log(w), np.log(rank)
    low = w <= threshold
    return tuple(float(np.polyfit(x[side], y[side], 1)[0])
                 for side in (low, ~low))


@pytest.mark.parametrize("level", [3, 4, "staircase"])
def test_loglog_slopes_match_polyfit(level, mesh3, spec4_full, spec4_dir):
    if level == 3:
        full, dirichlet = (eig_full(assemble(mesh3, kind))
                           for kind in ("full", "dirichlet"))
        spec, threshold = full, float(dirichlet.eigenvalues[-1])
    elif level == 4:
        spec, threshold = spec4_full, float(spec4_dir.eigenvalues[-1])
    else:
        spec, threshold = stub(_kinked_staircase(), complete=False), 600.0
    got = loglog_slopes(spec, threshold)
    want = polyfit_slopes(spec, threshold)
    assert got == pytest.approx(want, rel=1e-9, abs=0)


def test_regime_synthetic_kink():
    sL = stub(_kinked_staircase())
    sD = stub(np.linspace(1.0, 600.0, 600), kind="dirichlet")
    rep = regime_threshold(sL, sD)
    assert rep.lambda_star == 600.0
    assert rep.index_star == 600
    assert rep.nearest_eigenvalue == 600.0
    assert 550.0 <= rep.kink_lambda <= 650.0
    assert abs(rep.kink_low_slope - 1.0) < 0.02
    assert abs(rep.kink_high_slope - 0.25) < 0.02
    assert not rep.kink_degenerate


def test_regime_crossing_convention():
    # index_star counts eigenvalues <= lambda_star even when the next
    # eigenvalue is metrically closer to the threshold
    sL = stub([1.0, 2.0, 3.0, 3.05] + list(np.linspace(4.0, 30.0, 30)))
    sD = stub(np.linspace(0.1, 3.04, 20), kind="dirichlet")
    rep = regime_threshold(sL, sD)
    assert rep.index_star == 3
    assert rep.nearest_eigenvalue == 3.0


def test_regime_degenerate_flag():
    w = np.linspace(1.0, 50.0, 50)
    rep = regime_threshold(stub(w), stub(w, kind="dirichlet"))
    assert rep.kink_degenerate


def test_regime_tiny_spectrum_degrades():
    # too small for any kink fit: threshold fields stay valid, kink is NaN
    rep = regime_threshold(stub([1.0, 2.0, 3.0]),
                           stub([1.0, 2.5], kind="dirichlet"))
    assert rep.lambda_star == 2.5
    assert rep.index_star == 2
    assert rep.nearest_eigenvalue == 2.0
    assert rep.kink_index == 0
    assert np.isnan(rep.kink_lambda)
    assert rep.kink_degenerate


def test_kink_fit_needs_twice_the_regime_points():
    # the fit takes 2 * MIN_REGIME_POINTS positive eigenvalues; the leading
    # zero does not count
    def report(top):
        return regime_threshold(stub(np.arange(0.0, top + 1)),
                                stub([1.0], kind="dirichlet"))

    short = report(19)
    assert short.kink_index == 0
    assert np.isnan(short.kink_lambda)
    assert short.kink_degenerate
    fit = report(20)
    assert fit.kink_index == 12
    assert np.isfinite(
        [fit.kink_lambda, fit.kink_low_slope, fit.kink_high_slope]).all()


def test_regime_validation():
    sL, sD = stub([1.0, 2.0]), stub([1.0], kind="dirichlet", level=3)
    with pytest.raises(AnalysisError):
        regime_threshold(sL, sD)  # level mismatch
    with pytest.raises(AnalysisError):
        regime_threshold(stub([1.0, 2.0], complete=False),
                         stub([1.0], kind="dirichlet"))
    with pytest.raises(AnalysisError, match="^empty spectrum$"):
        regime_threshold(stub([]), stub([1.0], kind="dirichlet"))


def test_regime_level2_regression(spec2_full, spec2_dir):
    rep = regime_threshold(spec2_full, spec2_dir)
    assert rep.lambda_star == pytest.approx(1405.3712010317968, rel=1e-9)
    assert rep.index_star == 65
    assert rep.nearest_eigenvalue == pytest.approx(1392.5216877521652, rel=1e-9)
    assert rep.lambda_star == spec2_dir.eigenvalues[-1]


def test_multiplicity_groups():
    groups = multiplicity_groups(stub([0.0, 0.0, 1.0, 1.0 + 5e-7, 2.0],
                                      complete=False))
    assert [(g.start, g.size) for g in groups] == [(1, 2), (3, 2), (5, 1)]
    assert groups[1].value == pytest.approx(1.00000025)
    assert sum(g.size for g in groups) == 5


def test_multiplicity_splits_distant_values():
    groups = multiplicity_groups(stub([1.0, 1.1, 1.2], complete=False))
    assert [g.size for g in groups] == [1, 1, 1]


def loop_groups(spec, rel_tol=1e-6):
    """Multiplicity groups by a scan over every consecutive pair."""
    w = spec.eigenvalues
    groups, start = [], 0
    for i in range(1, len(w) + 1):
        if i == len(w) or abs(w[i] - w[i - 1]) > rel_tol * max(
                1.0, abs(w[i - 1])):
            groups.append(MultiplicityGroup(
                start=start + 1, size=i - start,
                value=float(np.mean(w[start:i]))))
            start = i
    return groups


def test_multiplicity_groups_empty():
    assert multiplicity_groups(stub([], complete=False)) == []
    with pytest.raises(ValueError, match="^rel_tol must be positive, got 0"):
        multiplicity_groups(stub([1.0]), rel_tol=0.0)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_multiplicity_groups_match_loop(level, spec4_full, spec4_dir):
    if level == 4:
        specs = (spec4_full, spec4_dir)
    else:
        mesh = build_mesh(level)
        specs = [eig_full(assemble(mesh, kind))
                 for kind in ("full", "dirichlet")]
    for spec in specs:
        assert multiplicity_groups(spec) == loop_groups(spec)
    if level == 4:
        big = [g for g in multiplicity_groups(spec4_dir) if g.size == 24]
        assert [round(g.value / (16 * 9 ** 4), 6) for g in big] == [1.0]


def test_pair_eigenvectors(spec2_full, spec2_dir, mesh2):
    pairs = pair_eigenvectors(spec2_full.truncated(30), spec2_dir.truncated(15),
                              mesh2, top_k=10)
    assert len(pairs) == 10
    sims = [p.similarity for p in pairs]
    assert sims == sorted(sims, reverse=True)
    for p in pairs:
        assert 0.0 <= p.similarity <= 1.0 + 1e-12
        assert 1 <= p.j <= 30
        assert 1 <= p.j_tilde <= 15
        assert p.gap >= 0.0
    # fixtures solved at matching levels: best match is a genuine twin
    assert pairs[0].similarity > 0.9


def test_pair_eigenvectors_self_match(spec2_full, mesh2):
    # pairing a spectrum against itself peaks on the diagonal
    pairs = pair_eigenvectors(spec2_full.truncated(10), spec2_full.truncated(10),
                              mesh2, top_k=1)
    assert pairs[0].similarity == pytest.approx(1.0, abs=1e-12)
    assert pairs[0].gap == 0.0


@pytest.mark.parametrize("top_k", [0, -1])
def test_pair_eigenvectors_rejects_top_k_below_one(spec2_full, spec2_dir,
                                                   mesh2, top_k):
    with pytest.raises(ValueError, match="^top_k must be >= 1, got"):
        pair_eigenvectors(spec2_full, spec2_dir, mesh2, top_k=top_k)


def test_pair_eigenvectors_needs_interior_rows(spec2_full, mesh2):
    spec_bd = eig_full(assemble(mesh2, "boundary"))
    with pytest.raises(AnalysisError):
        pair_eigenvectors(spec2_full, spec_bd, mesh2)
    with pytest.raises(AnalysisError, match="^a spectrum has no interior"):
        pair_eigenvectors(spec_bd, spec_bd, mesh2)


def test_pair_eigenvectors_needs_the_same_interior_rows(spec2_full, spec2_dir,
                                                        mesh2):
    # one interior row fewer: the overlaps would pair different vertices
    short = dataclasses.replace(spec2_dir,
                                eigenvectors=spec2_dir.eigenvectors[1:],
                                vertex_map=spec2_dir.vertex_map[1:])
    with pytest.raises(AnalysisError,
                       match="^spectra cover different interior vertex sets"):
        pair_eigenvectors(spec2_full, short, mesh2)


def test_contour_classes():
    phi = np.array([1.0, 0.01, -0.01, 0.0100001, -0.5, 0.0])
    codes = contour_classes(phi, 0.01)
    names = [CONTOUR_CLASSES[c] for c in codes]
    # |phi| exactly at eps * max stays in the zero band (strict inequality)
    assert names == ["pos", "zero", "zero", "pos", "neg", "zero"]


def test_contour_eps_validation():
    with pytest.raises(ValueError):
        contour_classes(np.array([1.0]), 0.0)


def test_localization_report(spec2_full, mesh2):
    rep = localization_report(spec2_full, mesh2)
    k = spec2_full.count
    bmf = rep.boundary_mass_fraction
    assert bmf.shape == (k,)
    assert np.all((bmf >= 0) & (bmf <= 1 + 1e-12))
    assert np.allclose(rep.distance_histogram.sum(axis=1), 1.0, atol=1e-12)
    # constant mode: bmf equals the boundary share of total mass
    m_b = 48 / 16.0
    m_i = 37 / 81.0
    assert bmf[0] == pytest.approx(m_b / (m_b + m_i), abs=1e-10)


def test_localization_blocks_bit_identical(spec2_full, mesh2, chunk_width):
    whole = localization_report(spec2_full, mesh2)
    chunk_width(7, spec2_full.dimension)
    parts = localization_report(spec2_full, mesh2)
    for field in ("boundary_mass_fraction", "distance_histogram"):
        assert np.array_equal(getattr(whole, field), getattr(parts, field))


def per_column_localization(spec, mesh):
    """Reference: histograms by one np.bincount per eigenvector, as the
    report was first computed."""
    n = mesh.level
    m = np.where(mesh.boundary_flags, 1.0 / (4 ** n), 1.0 / (9 ** n))
    dist = boundary_hop_distance(mesh)
    nd = int(dist.max()) + 1
    Phi = np.asfortranarray(spec.eigenvectors)
    hist = np.empty((spec.count, nd))
    for j in range(spec.count):
        mass = m * Phi[:, j] * Phi[:, j]
        hist[j] = np.bincount(dist, weights=mass, minlength=nd) / mass.sum()
    return hist


def test_localization_matches_per_column(spec2_full, mesh2, mesh3, spec4_full,
                                         mesh4):
    spec3 = eig_full(assemble(mesh3, "full"))
    for spec, mesh in ((spec2_full, mesh2), (spec3, mesh3),
                       (spec4_full, mesh4)):
        rep = localization_report(spec, mesh)
        hist = per_column_localization(spec, mesh)
        assert rep.distance_histogram.tobytes() == hist.tobytes()
        assert np.array_equal(rep.boundary_mass_fraction, hist[:, 0])


def test_localization_needs_full_mesh(spec2_dir, mesh2):
    with pytest.raises(AnalysisError):
        localization_report(spec2_dir, mesh2)


@pytest.mark.parametrize("level", (1, 2))
@pytest.mark.parametrize("c0", (1.0, 2.5))
def test_landscape_closed_forms(level, c0):
    mesh = build_mesh(level)
    op = assemble(mesh, "full", c0)
    u = landscape(op)
    forms = landscape_closed_forms(level, c0)
    deg = mesh.degrees()
    assert np.all(u.values[~mesh.boundary_flags] == forms["interior"])
    assert np.all(u.values[mesh.boundary_flags & (deg == 2)]
                  == forms["boundary_tip"])
    assert np.all(u.values[mesh.boundary_flags & (deg == 5)]
                  == forms["boundary_base"])


# 200 seeded log-uniform c0 in [1e-3, 1e3], and named c0 at which a row of
# |S| summed in column order put boundary bases 1 ulp off the closed form
LANDSCAPE_C0 = (0.1, 0.3, 1 / 3, 1e-3,
                *10.0 ** np.random.default_rng(0).uniform(-3.0, 3.0, 200))


@pytest.mark.parametrize("level", range(1, 5))
def test_landscape_closed_forms_at_random_c0(level):
    # a full row's off-diagonal |S| entries sum to S_pp, which assemble
    # rounds once, so each value is the closed form's one rounding
    mesh = build_mesh(level)
    deg = mesh.degrees()
    rows = {"interior": ~mesh.boundary_flags,
            "boundary_tip": mesh.boundary_flags & (deg == 2),
            "boundary_base": mesh.boundary_flags & (deg == 5)}
    for c0 in LANDSCAPE_C0:
        u = landscape(assemble(mesh, "full", c0)).values
        forms = landscape_closed_forms(level, c0)
        for name, at in rows.items():
            assert np.all(u[at] == forms[name]), (name, c0)


def test_landscape_dirichlet_dominated(mesh2, op2_dir, op2_full):
    # dropping boundary columns can only shrink interior row sums
    u_full = landscape(op2_full).values[mesh2.interior_vertices]
    u_dir = landscape(op2_dir).values
    assert np.all(u_dir <= u_full)


def test_bound_check_clean(spec2_full, op2_full):
    res = landscape_bound_check(spec2_full, landscape(op2_full))
    assert res.ok
    assert res.violations == ()
    # skips exactly the zero modes
    zeros = tuple(int(i) + 1 for i in np.flatnonzero(spec2_full.eigenvalues == 0))
    assert res.skipped == zeros


def test_bound_check_detects_violations(spec2_full, op2_full):
    u = landscape(op2_full)
    tiny = LandscapeVector(kind=u.kind, level=u.level, c0=u.c0,
                           values=u.values / 1000.0, vertex_map=u.vertex_map)
    res = landscape_bound_check(spec2_full, tiny)
    assert not res.ok
    assert len(res.violations) > 0
    v = res.violations[0]
    assert v.value > v.bound


def every_pair_bound_check(spec, u, tol=1e-10):
    """Reference: the bound tested on every pair and vertex at once."""
    w, Phi = spec.eigenvalues, spec.eigenvectors
    P = np.abs(Phi) / np.max(np.abs(Phi), axis=0)
    with np.errstate(divide="ignore"):
        bound = u.values[:, None] / w[None, :]
    mask = (P > bound + tol) & (w > 0)[None, :]
    return tuple(
        BoundViolation(pair=int(c) + 1, vertex=int(spec.vertex_map[r]),
                       value=float(P[r, c]), bound=float(bound[r, c]))
        for r, c in zip(*np.nonzero(mask)))


@pytest.mark.parametrize("level", (2, 3))
@pytest.mark.parametrize("kind", ("full", "dirichlet", "boundary"))
def test_bound_check_matches_every_pair_scan(level, kind, chunk_width):
    op = assemble(build_mesh(level), kind)
    spec, u = eig_full(op), landscape(op)
    scaled = [LandscapeVector(kind=u.kind, level=u.level, c0=u.c0,
                              values=u.values * factor,
                              vertex_map=u.vertex_map)
              for factor in (1.0, 0.9, 0.5)]
    want = [every_pair_bound_check(spec, v) for v in scaled]
    assert want[0] == () and len(want[-1]) > 100
    assert [landscape_bound_check(spec, v).violations for v in scaled] == want
    chunk_width(3, spec.dimension)
    assert [landscape_bound_check(spec, v).violations for v in scaled] == want


def test_bound_check_validation(spec2_full, op2_dir, op2_full):
    with pytest.raises(AnalysisError):
        landscape_bound_check(spec2_full, landscape(op2_dir))
    u = landscape(op2_full)
    short = LandscapeVector(u.kind, u.level, u.c0, u.values[:-1],
                            u.vertex_map[:-1])
    with pytest.raises(AnalysisError, match="^dimension mismatch: 85 vs 84$"):
        landscape_bound_check(spec2_full, short)
