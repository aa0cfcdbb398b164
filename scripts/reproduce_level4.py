#!/usr/bin/env python3
"""Recompute every level-4 headline number and write the artifacts.

Full pipeline at the reference level: mesh census, both dense spectra,
the low-eigenvalue tables, regime report, two-regime slopes, multiplicity
clusters, localization summary, landscape bound check, eigenvector pairing,
and the alternating-data extension profile.  Takes about ten seconds and
under 1 GB of memory at level 4.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from snowlab import analysis, fileio
from snowlab.extension import alternating_boundary_data, decay_profile, harmonic_extend
from snowlab.lattice import build_mesh, validate
from snowlab.operators import assemble
from snowlab.solver import eig_full


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level", type=int, default=4)
    ap.add_argument("--out", type=str, default="level4_artifacts")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()

    mesh = build_mesh(args.level)
    print(f"mesh: {mesh.num_vertices} vertices "
          f"({mesh.num_boundary_vertices} boundary, "
          f"{mesh.num_interior_vertices} interior), "
          f"{len(mesh.triangles)} triangles, {len(mesh.edges)} edges")
    print(f"invariants: {'ok' if validate(mesh).ok else 'FAILED'}")
    fileio.write_mesh_json(mesh, out / "mesh.json")

    op_full = assemble(mesh, "full")
    op_dir = assemble(mesh, "dirichlet")
    print(f"\nsolving dense: full {op_full.dimension}, "
          f"dirichlet {op_dir.dimension} ...")
    spec_full = eig_full(op_full)
    spec_dir = eig_full(op_dir)
    fileio.write_eigenvalues_csv(spec_full, out / "eigenvalues_full.csv")
    fileio.write_eigenvalues_csv(spec_dir, out / "eigenvalues_dirichlet.csv")
    fileio.write_counting_csv(spec_full, out / "counting_full.csv")
    fileio.write_counting_csv(spec_dir, out / "counting_dirichlet.csv")

    print("\nlowest eigenvalues (full | dirichlet):")
    for j in range(13):
        print(f"  {j + 1:3d}  {spec_full.eigenvalues[j]:10.4f}  |"
              f"  {spec_dir.eigenvalues[j]:10.4f}")
    for j in range(13, 34):
        print(f"  {j + 1:3d}  {spec_full.eigenvalues[j]:10.4f}  |")

    rep = analysis.regime_threshold(spec_full, spec_dir)
    fileio.write_regime_json(rep, out / "regime.json")
    print(f"\nregime: lambda_star={rep.lambda_star:.4f} "
          f"(dirichlet top, index {spec_dir.count}), crossing at full index "
          f"{rep.index_star} (eigenvalue {rep.nearest_eigenvalue:.4f})")
    print(f"full spectrum max: {spec_full.eigenvalues[-1]:.4f}")
    low, high = analysis.loglog_slopes(spec_full, rep.lambda_star)
    print(f"log-log slopes about lambda_star: {low:.4f} / {high:.4f}")
    print(f"kink fit: lambda={rep.kink_lambda:.4f} index={rep.kink_index} "
          f"slopes {rep.kink_low_slope:.4f} / {rep.kink_high_slope:.4f} "
          f"(degenerate={rep.kink_degenerate})")

    clusters = [g for g in analysis.multiplicity_groups(spec_full) if g.size > 2]
    clusters_d = [g for g in analysis.multiplicity_groups(spec_dir) if g.size > 2]
    print(f"\nmultiplicity clusters above size 2 at rel_tol 1e-6: "
          f"full {len(clusters)}, dirichlet {len(clusters_d)}")
    for g in clusters_d:
        print(f"  dirichlet start={g.start} size={g.size} value={g.value:.4f}")

    u = analysis.landscape(op_full)
    fileio.write_landscape_csv(u, out / "landscape.csv")
    forms = analysis.landscape_closed_forms(args.level)
    check = analysis.landscape_bound_check(spec_full, u)
    print(f"\nlandscape closed forms: {forms}")
    print(f"bound check: ok={check.ok} violations={len(check.violations)} "
          f"skipped={len(check.skipped)} zero modes")

    loc = analysis.localization_report(spec_full, mesh)
    fileio.write_localization_csv(loc, out / "localization.csv")
    bmf = loc.boundary_mass_fraction
    nz = np.flatnonzero(spec_full.eigenvalues > 1e-8)
    print(f"boundary mass fraction: top mode {bmf[-1]:.5f}, "
          f"mean of 100 highest {bmf[-100:].mean():.4f}, "
          f"mean of 100 lowest nonzero {bmf[nz[:100]].mean():.4f}")
    fileio.write_contour_csv(mesh, spec_full.eigenvectors[:, -1], 0.01,
                             out / "contour_top_mode.csv")

    pairs = analysis.pair_eigenvectors(spec_full.truncated(40),
                                       spec_dir.truncated(20), mesh, top_k=10)
    fileio.write_pairing_json(pairs, out / "pairing.json")
    print("\ntop eigenvector pairings (full j, dirichlet j, similarity):")
    for p in pairs[:5]:
        print(f"  ({p.j:3d}, {p.j_tilde:3d})  {p.similarity:.4f}")

    u_ext = harmonic_extend(mesh, alternating_boundary_data(mesh))
    profile = decay_profile(mesh, u_ext)
    fileio.write_decay_csv(profile, out / "decay_alternating.csv")
    print("\nalternating-data extension decay (distance, sup |u|):")
    for d, s in profile[:6]:
        print(f"  {d:2d}  {s:.6f}")

    fileio.write_metadata({"script": "reproduce_level4", "level": args.level},
                          out / "metadata.json")
    print(f"\nartifacts in {out}/ ({time.monotonic() - t0:.1f}s total)")


if __name__ == "__main__":
    main()
