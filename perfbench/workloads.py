"""The three workloads: one pass of each, and the checks on its outputs.

Every call into snowlab goes through `Run.op` (or `Run.cli`), which counts
it as one attempted operation.  Calls use module attributes
(`lattice.build_mesh`, not an imported name) so that the tracer's wrappers
see them.  `check` runs after the timed pass and compares its outputs with
`oracle`, which never calls snowlab.
"""

from __future__ import annotations

import contextlib
import dataclasses
import filecmp
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle
from snowlab import analysis, cli, extension, fileio, lattice, operators, solver


class OpFailed(Exception):
    """An operation raised or exited non-zero; the pass cannot go on."""


class Run:
    """Operation counts and checks shared by all passes of one run."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks = oracle.Checks()
        self.rng = np.random.default_rng(seed)

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{fn.__name__}: {exc!r}")
            raise OpFailed(fn.__name__) from exc

    def cli(self, *argv: str) -> None:
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            self.failed += 1
            self.errors.append(f"snowlab {' '.join(argv)}: exit {code}")
            raise OpFailed(argv[0])

    def compare_rewrite(self, cur: Path, ref: Path) -> None:
        """Every pass after the first must rewrite its artifacts byte for
        byte; the first pass's files are kept in `ref` for the comparison."""
        if not ref.exists():
            cur.rename(ref)
            return
        names = sorted(p.relative_to(cur) for p in cur.rglob("*")
                       if p.is_file())
        ref_names = sorted(p.relative_to(ref) for p in ref.rglob("*")
                           if p.is_file())
        same = names == ref_names and all(
            filecmp.cmp(cur / n, ref / n, shallow=False) for n in names)
        self.checks("artifacts rewritten byte for byte", same)
        shutil.rmtree(cur)


def _check_mesh(chk, tag, mesh, report, cycle, dist=None):
    oracle.check_census(chk, tag, mesh.level, mesh.vertices, mesh.triangles,
                        mesh.edges, mesh.edge_is_boundary)
    chk(f"{tag} validate ok", report.ok, str(report))
    oracle.check_cycle(chk, tag, mesh.level, mesh.vertices[cycle])
    if dist is not None:
        want = oracle.hop_distance(mesh.num_vertices, mesh.edges,
                                   mesh.boundary_vertices)
        chk(f"{tag} hop distance vs csgraph", np.array_equal(dist, want))


def _slopes(w, threshold, burn_in=20):
    """Least-squares slopes of log N against log lambda about a threshold."""
    rank = np.arange(1, len(w) + 1, dtype=float)
    keep = w > 0
    x, y = np.log(w[keep])[burn_in:], np.log(rank[keep])[burn_in:]
    out = []
    for sel in (w[keep][burn_in:] <= threshold,
                w[keep][burn_in:] > threshold):
        xs, ys = x[sel] - x[sel].mean(), y[sel] - y[sel].mean()
        out.append(float(np.dot(xs, ys) / np.dot(xs, xs)))
    return out


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


# -- spectra-l4 ---------------------------------------------------------------

class SpectraL4:
    """The reference level, once through like a shared pipeline would."""

    level = 4

    def __init__(self, run: Run):
        self.run = run

    def run_pass(self, cur: Path) -> dict:
        op, n = self.run.op, self.level
        mesh = op(lattice.build_mesh, n)
        report = op(lattice.validate, mesh)
        cycle = op(lattice.boundary_cycle, mesh)
        op_full = op(operators.assemble, mesh, "full")
        op_dir = op(operators.assemble, mesh, "dirichlet")
        sf = op(solver.eig_full, op_full)
        sd = op(solver.eig_full, op_dir)
        regime = op(analysis.regime_threshold, sf, sd)
        slopes = op(analysis.loglog_slopes, sf, regime.lambda_star)
        groups_f = op(analysis.multiplicity_groups, sf)
        groups_d = op(analysis.multiplicity_groups, sd)
        land = op(analysis.landscape, op_full)
        bound = op(analysis.landscape_bound_check, sf, land)
        loc = op(analysis.localization_report, sf, mesh)
        pairs = op(analysis.pair_eigenvectors, sf.truncated(40),
                   sd.truncated(20), mesh, top_k=10)
        data = op(extension.alternating_boundary_data, mesh)
        ext = op(extension.harmonic_extend, mesh, data)
        split = op(extension.energy_split, mesh, ext)
        decay = op(extension.decay_profile, mesh, ext)

        cur.mkdir(parents=True)
        for tag, spec in (("full", sf), ("dirichlet", sd)):
            op(fileio.write_eigenvalues_csv, spec, cur / f"eigenvalues_{tag}.csv")
            op(fileio.write_eigenvectors, spec, cur / f"eigenvectors_{tag}.snwv")
            op(fileio.write_counting_csv, spec, cur / f"counting_{tag}.csv")
        op(fileio.write_regime_json, regime, cur / "regime.json")
        forms = analysis.landscape_closed_forms(n)
        op(fileio.write_landscape_csv, land, cur / "landscape.csv")
        op(fileio.write_json, {
            "kind": "full", "level": n, "c0": 1.0, "closed_forms": forms,
            "bound_check": {"ok": bound.ok,
                            "skipped_indices": list(bound.skipped),
                            "violations": [dataclasses.asdict(v)
                                           for v in bound.violations]}},
            cur / "landscape_report.json")
        op(fileio.write_localization_csv, loc, cur / "localization.csv")
        op(fileio.write_contour_csv, mesh, sf.eigenvectors[:, -1], 0.01,
           cur / "contour.csv")
        return {"mesh": mesh, "report": report, "cycle": cycle, "sf": sf,
                "sd": sd, "regime": regime, "slopes": slopes,
                "groups_f": groups_f, "groups_d": groups_d, "land": land,
                "bound": bound, "loc": loc, "pairs": pairs, "data": data,
                "ext": ext, "split": split, "decay": decay}

    def check(self, s: dict, cur: Path) -> None:
        chk, n, mesh = self.run.checks, self.level, s["mesh"]
        sf, sd = s["sf"], s["sd"]
        _check_mesh(chk, "L4", mesh, s["report"], s["cycle"])
        V, E, B = mesh.num_vertices, mesh.edges, mesh.edge_is_boundary
        own = {k: oracle.Operator(n, V, E, B, k) for k in ("full", "dirichlet")}
        for tag, spec in (("full", sf), ("dirichlet", sd)):
            oracle.check_spectrum(chk, f"L4 {tag}", own[tag], spec.eigenvalues,
                                  spec.eigenvectors, self.run.rng)
            chk(f"L4 {tag} eigenvectors file",
                oracle.snwv_matches(cur / f"eigenvectors_{tag}.snwv",
                                    spec.eigenvectors))
            rows = oracle.read_csv(cur / f"eigenvalues_{tag}.csv")
            chk(f"L4 {tag} eigenvalues file", np.array_equal(
                np.array([float(r[1]) for r in rows]), spec.eigenvalues))
            rows = oracle.read_csv(cur / f"counting_{tag}.csv")
            xs = np.unique(spec.eigenvalues)
            chk(f"L4 {tag} counting file", rows == [
                [repr(float(x)), str(int(c))] for x, c in
                zip(xs, np.searchsorted(spec.eigenvalues, xs, side="right"))])
        wf, wd = sf.eigenvalues, sd.eigenvalues
        oracle.check_full_dirichlet(chk, "L4", wf, wd)
        table = oracle.PAPER_TABLE_FULL_L4
        off = [j + 1 for j, t in enumerate(table) if abs(wf[j] - t) > 0.05]
        chk("L4 paper table (34 full eigenvalues within 0.05)", not off,
            f"off at j={off}")
        flat = 16 * 9 ** n
        mult = int(np.count_nonzero(np.abs(wd - flat) <= 1e-6 * flat))
        chk("L4 24-fold Dirichlet eigenvalue at 16*9^4", mult == 24, f"{mult}")

        reg = s["regime"]
        chk("L4 regime lambda_star = Dirichlet top", reg.lambda_star == wd[-1])
        chk("L4 regime index_star", reg.index_star == max(
            1, int(np.searchsorted(wf, reg.lambda_star, side="right"))))
        want = _slopes(wf, reg.lambda_star)
        chk("L4 log-log slopes", all(_close(a, b, 1e-9) for a, b in
                                     zip(s["slopes"], want)),
            f"{s['slopes']} vs {want}")
        for tag, groups, w in (("full", s["groups_f"], wf),
                               ("dirichlet", s["groups_d"], wd)):
            starts = [g.start for g in groups]
            chk(f"L4 {tag} multiplicity groups partition the spectrum",
                sum(g.size for g in groups) == len(w) and starts ==
                list(np.cumsum([1] + [g.size for g in groups[:-1]])))
        chk("L4 24-fold group found",
            any(g.size == 24 and _close(g.value, flat, 1e-6)
                for g in s["groups_d"]))

        oracle.check_landscape_full(chk, "L4", n, s["land"].values, E, B)
        chk("L4 landscape bound check reports no violations", s["bound"].ok)
        oracle.check_bound(chk, "L4", oracle.landscape_values(own["full"]),
                           wf, sf.eigenvectors)
        rows = oracle.read_csv(cur / "landscape.csv")
        chk("L4 landscape file", np.array_equal(
            np.array([float(r[1]) for r in rows]), s["land"].values))

        loc = s["loc"]
        rows_sum = loc.distance_histogram.sum(axis=1)
        chk("L4 localization histogram rows sum to 1",
            np.max(np.abs(rows_sum - 1.0)) <= 1e-12)
        chk("L4 boundary mass fraction = distance-0 share", np.allclose(
            loc.boundary_mass_fraction, loc.distance_histogram[:, 0],
            rtol=0, atol=1e-12))

        pairs = s["pairs"]
        sims = [p.similarity for p in pairs]
        chk("L4 pairing", len(pairs) == 10 and sims == sorted(sims, reverse=True)
            and all(0 <= x <= 1 + 1e-9 for x in sims)
            and all(1 <= p.j <= 40 and 1 <= p.j_tilde <= 20 for p in pairs))

        dist = oracle.hop_distance(V, E, mesh.boundary_vertices)
        f = np.asarray(s["data"].values)
        chk("L4 alternating data", np.array_equal(
            f, oracle.alternating(n, mesh.vertices[mesh.boundary_vertices])))
        oracle.check_extension(chk, "L4 extension", n, E, B,
                               mesh.boundary_vertices, f, s["ext"],
                               split=s["split"], decay=s["decay"], dist=dist)


# -- cli-l3 -------------------------------------------------------------------

class CliL3:
    """Every subcommand through snowlab.cli.main, in process, at level 3."""

    level = 3

    def __init__(self, run: Run):
        self.run = run
        # BLAS threads of the determinism child: any count but our own
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
        self.other_threads = 1 if threads > 1 else 2
        self.data = run.rng.standard_normal(3 * 4 ** self.level)
        inp = run.workdir / "input"
        inp.mkdir(parents=True)
        self.data_csv = inp / "boundary.csv"
        with open(self.data_csv, "w", encoding="utf-8", newline="\n") as f:
            f.write("boundary_index,value\n")
            f.writelines(f"{i + 1},{float(v)!r}\n"
                        for i, v in enumerate(self.data))
        self.reference = None

    def run_pass(self, cur: Path) -> dict:
        def sub(out, *argv):
            self.run.cli(*argv, "--level", str(self.level),
                         "--out", str(cur / out))

        sub("mesh", "mesh")
        for kind in operators.KINDS:
            sub(f"assemble-{kind}", "assemble", "--kind", kind)
        for kind in operators.KINDS:
            sub(f"eig-{kind}", "eig", "--kind", kind)
        for which in ("smallest", "largest"):
            sub(f"eig-{which}", "eig", "--solver", "iterative", "--k", "8",
                "--which", which)
        sub("count", "count")
        for kind in ("full", "dirichlet"):
            sub(f"landscape-{kind}", "landscape", "--kind", kind)
        sub("localize", "localize")
        sub("extend-alternating", "extend", "--pattern", "alternating")
        sub("extend-data", "extend", "--data", str(self.data_csv))
        sub("energy-seq", "energy-seq", "--part", "interior")
        return {}

    def untimed_ops(self, cur: Path) -> None:
        """Rerun `snowlab eig --level 3` in a child process with another
        BLAS thread count and compare its artifacts byte for byte."""
        out = self.run.workdir / "threads"
        shutil.rmtree(out, ignore_errors=True)
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env[var] = str(self.other_threads)
        self.run.attempted += 1
        proc = subprocess.run(
            [sys.executable, "-m", "snowlab", "eig", "--level",
             str(self.level), "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120)
        names = ("eigenvalues.csv", "eigenvectors.snwv",
                 "eigenvectors.snwv.json")
        same = proc.returncode == 0 and all(
            filecmp.cmp(out / n, cur / "eig-full" / n, shallow=False)
            for n in names)
        if not same:
            self.run.failed += 1
            self.run.errors.append(
                f"eig --level {self.level} differs with "
                f"{self.other_threads} BLAS threads (exit {proc.returncode}"
                f"{': ' + proc.stderr.strip() if proc.returncode else ''})")

    def _reference(self, num_vertices, edges, edge_is_boundary):
        """Own operators and dense eigenvalues, computed once per run."""
        if self.reference is None:
            ops = {k: oracle.Operator(self.level, num_vertices, edges,
                                      edge_is_boundary, k)
                   for k in operators.KINDS}
            self.reference = (ops, {k: oracle.dense_eigenvalues(o)
                                    for k, o in ops.items()})
        return self.reference

    def check(self, s: dict, cur: Path) -> None:
        chk, n, rng = self.run.checks, self.level, self.run.rng
        mj = oracle.read_json(cur / "mesh" / "mesh.json")
        verts = np.array(mj["vertices"], dtype=np.int64)
        tris = np.array(mj["triangles"], dtype=np.int64)
        edges = np.array([e[:2] for e in mj["edges"]], dtype=np.int64)
        bnd = np.array([e[2] == "b" for e in mj["edges"]])
        oracle.check_census(chk, "L3 mesh.json", n, verts, tris, edges, bnd)
        oracle.check_cycle(chk, "L3 mesh.json", n,
                           oracle.cycle_from_edges(verts, edges, bnd))
        V = len(verts)
        ops, dense = self._reference(V, edges, bnd)

        for kind, own in ops.items():
            d = cur / f"assemble-{kind}"
            rows = oracle.read_csv(d / "stiffness.mtx")
            head = [int(x) for x in rows[0][0].split()]
            ent = np.array([r[0].split() for r in rows[1:]], dtype=float)
            i, j = ent[:, 0].astype(int) - 1, ent[:, 1].astype(int) - 1
            low = own.S.toarray()
            got = np.zeros_like(low)
            got[i, j] = ent[:, 2]
            got[j, i] = ent[:, 2]
            chk(f"L3 assemble {kind} matches own stiffness",
                head[:2] == [len(own.m)] * 2 and np.array_equal(got, low))
            rows = oracle.read_csv(d / "mass.csv")
            chk(f"L3 assemble {kind} mass", np.array_equal(
                np.array([float(r[1]) for r in rows]), own.m))

        spectra = {}
        for kind, own in ops.items():
            d = cur / f"eig-{kind}"
            rows = oracle.read_csv(d / "eigenvalues.csv")
            w = np.array([float(r[1]) for r in rows])
            Phi = oracle.read_snwv(d / "eigenvectors.snwv")
            spectra[kind] = (w, Phi)
            oracle.check_spectrum(chk, f"L3 {kind}", own, w, Phi, rng)
            err = np.max(np.abs(w - dense[kind]))
            chk(f"L3 {kind} eigenvalues vs own dense solve",
                err <= 1e-9 * dense[kind][-1], f"{err:.3e}")
        wf, Pf = spectra["full"]
        wd = spectra["dirichlet"][0]
        oracle.check_full_dirichlet(chk, "L3", wf, wd)

        for which in ("smallest", "largest"):
            d = cur / f"eig-{which}"
            rows = oracle.read_csv(d / "eigenvalues.csv")
            w = np.array([float(r[1]) for r in rows])
            Phi = oracle.read_snwv(d / "eigenvectors.snwv")
            ref = dense["full"][:8] if which == "smallest" else dense["full"][-8:]
            chk(f"L3 iterative {which} eigenvalues vs dense",
                len(w) == 8 and np.max(np.abs(w - ref)) <= 1e-9 * wf[-1])
            oracle.check_spectrum(chk, f"L3 iterative {which}", ops["full"],
                                  w, Phi, rng, complete=False)
            proj = []
            for lam, phi in zip(w, Phi.T):
                near = np.abs(wf - lam) <= 1e-6 * max(1.0, lam)
                proj.append(np.linalg.norm(
                    Pf[:, near].T @ (ops["full"].m * phi)))
            chk(f"L3 iterative {which} eigenvectors in dense eigenspaces",
                min(proj) >= 1 - 1e-6, f"{min(proj)}")

        for kind, w in (("full", wf), ("dirichlet", wd)):
            rows = oracle.read_csv(cur / "count" / f"counting_{kind}.csv")
            xs = np.unique(w)
            want = [[repr(float(x)), str(int(c))] for x, c in
                    zip(xs, np.searchsorted(w, xs, side="right"))]
            chk(f"L3 counting {kind}", rows == want)
        reg = oracle.read_json(cur / "count" / "regime.json")
        chk("L3 regime", reg["lambda_star"] == wd[-1] and reg["index_star"]
            == max(1, int(np.searchsorted(wf, wd[-1], side="right"))))

        for kind in ("full", "dirichlet"):
            d = cur / f"landscape-{kind}"
            rows = oracle.read_csv(d / "landscape.csv")
            u = np.array([float(r[1]) for r in rows])
            chk(f"L3 landscape {kind} vs own row sums",
                np.array_equal(u, oracle.landscape_values(ops[kind])))
            rep = oracle.read_json(d / "landscape_report.json")
            chk(f"L3 landscape {kind} bound check reports no violations",
                rep["bound_check"]["ok"] and not rep["bound_check"]["violations"])
            oracle.check_bound(chk, f"L3 {kind}", u, *spectra[kind])
        rows = oracle.read_csv(cur / "landscape-full" / "landscape.csv")
        oracle.check_landscape_full(chk, "L3", n, np.array(
            [float(r[1]) for r in rows]), edges, bnd)

        rows = oracle.read_csv(cur / "localize" / "localization.csv")
        bflag = np.zeros(V, dtype=bool)
        bflag[edges[bnd].ravel()] = True
        mass = ops["full"].m[:, None] * Pf * Pf
        bmf = mass[bflag].sum(axis=0) / mass.sum(axis=0)
        got = np.array([[float(r[1]), float(r[2])] for r in rows])
        chk("L3 localization eigenvalues and boundary mass fractions",
            np.array_equal(got[:, 0], wf)
            and np.max(np.abs(got[:, 1] - bmf)) <= 1e-12)
        rows = oracle.read_csv(cur / "localize" / "contour.csv")
        phi = Pf[:, -1]
        v = phi / np.max(np.abs(phi))
        cls = np.where(v > 0.01, "pos", np.where(v < -0.01, "neg", "zero"))
        chk("L3 contour", [r[0] for r in rows] == [str(i) for i in range(V)]
            and [float(r[3]) for r in rows] == phi.tolist()
            and [r[4] for r in rows] == cls.tolist())

        boundary = np.flatnonzero(bflag)
        dist = oracle.hop_distance(V, edges, boundary)
        for tag, f in (("alternating",
                        oracle.alternating(n, verts[boundary])),
                       ("data", self.data)):
            d = cur / f"extend-{tag}"
            rows = oracle.read_csv(d / "boundary.csv")
            chk(f"L3 extend {tag} boundary data",
                np.array_equal(np.array([float(r[1]) for r in rows]), f))
            u = oracle.read_snwv(d / "extension.snwv")[:, 0]
            rep = oracle.read_json(d / "extension_report.json")
            rows = oracle.read_csv(d / "decay.csv")
            decay = [(int(r[0]), float(r[1])) for r in rows]
            oracle.check_extension(
                chk, f"L3 extend {tag}", n, edges, bnd, boundary, f, u,
                split=(rep["energy_interior"], rep["energy_boundary"]),
                decay=decay, dist=dist)

        rows = oracle.read_csv(cur / "energy-seq" / "energy_seq.csv")
        chk("L3 energy-seq interior of linear-x",
            [int(r[0]) for r in rows] == list(range(n + 1)) and all(
                _close(float(r[1]), oracle.energy_interior_linear_x(k), 1e-12)
                for k, r in enumerate(rows)))


# -- fine-mesh ----------------------------------------------------------------

class FineMesh:
    """Levels 5 and 6 without a dense solve."""

    def __init__(self, run: Run):
        self.run = run
        self.data5 = run.rng.standard_normal(3 * 4 ** 5)

    def _mesh(self, level, hops=True):
        op = self.run.op
        mesh = op(lattice.build_mesh, level)
        report = op(lattice.validate, mesh)
        cycle = op(lattice.boundary_cycle, mesh)
        dist = op(lattice.boundary_hop_distance, mesh) if hops else None
        return mesh, report, cycle, dist

    def _extend(self, mesh, f, decay=True):
        op = self.run.op
        u = op(extension.harmonic_extend, mesh, f)
        split = op(extension.energy_split, mesh, u)
        prof = op(extension.decay_profile, mesh, u) if decay else None
        return np.asarray(f, dtype=float), u, split, prof

    def run_pass(self, cur: Path) -> dict:
        op = self.run.op
        m5 = self._mesh(5)
        alt5 = op(extension.alternating_boundary_data, m5[0]).values
        ext5 = [self._extend(m5[0], alt5), self._extend(m5[0], self.data5)]
        spec5 = {kind: op(solver.eig_partial,
                          op(operators.assemble, m5[0], kind), 8)
                 for kind in ("full", "dirichlet")}
        m6 = self._mesh(6, hops=False)
        alt6 = op(extension.alternating_boundary_data, m6[0]).values
        ext6 = [self._extend(m6[0], alt6, decay=False)]
        energy = op(operators.energy_sequence, lambda x, y: x, 5,
                    part="interior")
        return {"levels": ((m5, alt5, ext5), (m6, alt6, ext6)),
                "spec5": spec5, "energy": energy}

    def check(self, s: dict, cur: Path) -> None:
        chk = self.run.checks
        for (mesh, report, cycle, dist), alt, exts in s["levels"]:
            n, tag = mesh.level, f"L{mesh.level}"
            _check_mesh(chk, tag, mesh, report, cycle, dist)
            bv = mesh.boundary_vertices
            chk(f"{tag} alternating data",
                np.array_equal(alt, oracle.alternating(n, mesh.vertices[bv])))
            for i, (f, u, split, prof) in enumerate(exts):
                oracle.check_extension(chk, f"{tag} extension {i}", n,
                                       mesh.edges, mesh.edge_is_boundary, bv,
                                       f, u, split=split, decay=prof,
                                       dist=dist)
        mesh5 = s["levels"][0][0][0]
        w = {}
        for kind, spec in s["spec5"].items():
            own = oracle.Operator(5, mesh5.num_vertices, mesh5.edges,
                                  mesh5.edge_is_boundary, kind)
            oracle.check_spectrum(chk, f"L5 {kind} smallest 8", own,
                                  spec.eigenvalues, spec.eigenvectors,
                                  self.run.rng, complete=False)
            w[kind] = spec.eigenvalues
        zeros = int(np.count_nonzero(w["full"] <= 1e-6))
        chk("L5 one zero eigenvalue (full)", zeros == 1, f"{zeros}")
        chk("L5 interlacing of the 8 smallest",
            np.all(w["full"] <= w["dirichlet"] + 1e-9 * w["dirichlet"][-1]))
        chk("energy sequence interior of linear-x",
            all(_close(e, oracle.energy_interior_linear_x(k), 1e-12)
                for k, e in enumerate(s["energy"])), f"{s['energy']}")


WORKLOADS = {"spectra-l4": SpectraL4, "cli-l3": CliL3, "fine-mesh": FineMesh}
