"""Command-line driver.

Each subcommand runs one pipeline stage and writes its outputs plus a
metadata.json (tool version, config hash) into --out.  A stage reads the
mesh, operators and dense spectra from a `Pipeline`, which builds each of
them at most once per invocation; `run` executes several stages on one
pipeline.  Outputs are deterministic: identical config, identical bytes.

Exit codes: 0 success, 2 invalid arguments, 3 resource guard tripped,
4 numerical failure.  Failures print exactly one line to stderr of the
form "error:<slug>:<message>".
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, fileio
from .analysis import (
    AnalysisError,
    landscape,
    landscape_bound_check,
    landscape_closed_forms,
    localization_report,
    loglog_slopes,
    multiplicity_groups,
    pair_eigenvectors,
    regime_threshold,
)
from .extension import (
    alternating_boundary_data,
    decay_profile,
    energy_split,
    harmonic_extend,
    random_boundary_data,
)
from .lattice import LevelGuardError, MeshInvariantError, build_mesh, validate
from .operators import ENERGY_PARTS, KINDS, assemble, energy_sequence
from .solver import DenseGuardError, NumericalError, eig_full, eig_partial

# the stages `run` executes, each with its default options, into --out/<stage>
RUN_STAGES = ("mesh", "count", "landscape", "localize", "extend")
FUNCTIONS = {
    "one": lambda x, y: 1.0,
    "linear-x": lambda x, y: x,
    "linear-y": lambda x, y: y,
    "product": lambda x, y: x * y,
    "quadratic": lambda x, y: x * x + y * y,
}
# the valid values of each choice option, which RunConfig alone checks
CHOICES = {
    "kind": KINDS,
    "solver": ("dense", "iterative"),
    "which": ("smallest", "largest"),
    "pattern": ("alternating", "random"),
    "function": tuple(sorted(FUNCTIONS)),
    "part": ENERGY_PARTS,
}
# the argparse settings of each option a subcommand adds to --level, --c0
# and --out
OPTIONS = {
    **{name: {"metavar": "{" + ",".join(valid) + "}"}
       for name, valid in CHOICES.items()},
    "k": {"type": int, "help": "number of eigenpairs (iterative; default 6)"},
    "seed": {"type": int},
    "eps": {"type": float},
    "index": {"type": int, "help": "1-based mode for the contour export "
                                   "(default: highest)"},
    "data": {"help": "boundary CSV; omit to use --pattern"},
    "n-max": {"type": int},
}


class CLIUsageError(Exception):
    """Raised instead of argparse's SystemExit so errors stay one line."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs; round-trips losslessly through JSON."""

    command: str
    level: int
    kind: str = "full"
    c0: float = 1.0
    solver: str = "dense"
    k: int | None = None
    which: str = "smallest"
    eps: float = 0.01
    out: str = "."
    seed: int = 0
    data: str | None = None
    pattern: str = "alternating"
    index: int | None = None
    function: str = "linear-x"
    n_max: int | None = None
    part: str = "total"

    def __post_init__(self) -> None:
        if self.command not in _DISPATCH:
            raise CLIUsageError(f"unknown command {self.command!r}")
        for name, valid in CHOICES.items():
            if getattr(self, name) not in valid:
                raise CLIUsageError(f"{name} must be one of {valid}, "
                                    f"got {getattr(self, name)!r}")
        if self.level < 0:
            raise CLIUsageError(f"level must be >= 0, got {self.level}")
        if not 0 < self.c0 < np.inf:
            raise CLIUsageError(f"c0 must be positive and finite, "
                                f"got {self.c0}")
        if self.k is not None and self.k < 1:
            raise CLIUsageError(f"k must be >= 1, got {self.k}")
        if not self.eps > 0:
            raise CLIUsageError(f"eps must be positive, got {self.eps}")
        if self.seed < 0:
            raise CLIUsageError(f"seed must be >= 0, got {self.seed}")
        if self.index is not None and self.index < 1:
            raise CLIUsageError(f"index must be >= 1, got {self.index}")
        if self.n_max is not None and self.n_max < 0:
            raise CLIUsageError(f"n-max must be >= 0, got {self.n_max}")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise CLIUsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, each call fills a fresh namespace.  An option left out is
    left out of the namespace too, so its default is RunConfig's."""
    p = _Parser(prog="snowlab", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"snowlab {__version__}")
    sub = p.add_subparsers(dest="command", metavar="command", required=True)
    for name, (_, summary, options) in _DISPATCH.items():
        sp = sub.add_parser(name, help=summary,
                            argument_default=argparse.SUPPRESS)
        sp.add_argument("--level", type=int, required=True)
        sp.add_argument("--c0", type=float)
        sp.add_argument("--out")
        for option in options:
            sp.add_argument(f"--{option}", **OPTIONS[option])
    return p


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


class Pipeline:
    """The mesh, the operator of each kind and the dense spectrum of each
    kind for one level and c0, each built on first use and at most once."""

    def __init__(self, level: int, c0: float):
        self.level = level
        self.c0 = c0
        self._operators: dict = {}
        self._spectra: dict = {}

    @functools.cached_property
    def mesh(self):
        return build_mesh(self.level)

    def operator(self, kind: str):
        if kind not in self._operators:
            self._operators[kind] = assemble(self.mesh, kind, self.c0)
        return self._operators[kind]

    def spectrum(self, kind: str):
        if kind not in self._spectra:
            self._spectra[kind] = eig_full(self.operator(kind))
        return self._spectra[kind]


def _cmd_mesh(cfg: RunConfig, p: Pipeline) -> None:
    mesh = p.mesh
    report = validate(mesh)
    if not report.ok:
        failed = [c.name for c in report.failures()]
        raise MeshInvariantError(f"built mesh fails validation: {failed}")
    out = _outdir(cfg)
    fileio.write_mesh_json(mesh, out / "mesh.json")
    print(f"mesh level={mesh.level} vertices={mesh.num_vertices} "
          f"boundary={mesh.num_boundary_vertices} "
          f"interior={mesh.num_interior_vertices} "
          f"triangles={len(mesh.triangles)} edges={len(mesh.edges)}")


def _cmd_assemble(cfg: RunConfig, p: Pipeline) -> None:
    op = p.operator(cfg.kind)
    out = _outdir(cfg)
    fileio.write_matrix_market(op.S, out / "stiffness.mtx")
    fileio.write_mass_csv(op.m, out / "mass.csv")
    print(f"operator kind={op.kind} level={op.level} dimension={op.dimension} "
          f"nnz={op.S.nnz}")


def _cmd_eig(cfg: RunConfig, p: Pipeline) -> None:
    if cfg.solver == "iterative":
        k = cfg.k if cfg.k is not None else 6
        spec = eig_partial(p.operator(cfg.kind), k, which=cfg.which,
                           seed=cfg.seed)
    else:
        spec = p.spectrum(cfg.kind)
    out = _outdir(cfg)
    fileio.write_eigenvalues_csv(spec, out / "eigenvalues.csv")
    fileio.write_eigenvectors(spec, out / "eigenvectors.snwv")
    w, op = spec.eigenvalues, spec.op
    print(f"spectrum kind={op.kind} level={op.level} count={spec.count} "
          f"min={float(w[0])!r} max={float(w[-1])!r} solver={spec.solver}")


def _cmd_count(cfg: RunConfig, p: Pipeline) -> None:
    spec_full, spec_dir = p.spectrum("full"), p.spectrum("dirichlet")
    report = regime_threshold(spec_full, spec_dir)
    out = _outdir(cfg)
    fileio.write_counting_csv(spec_full, out / "counting_full.csv")
    fileio.write_counting_csv(spec_dir, out / "counting_dirichlet.csv")
    fileio.write_regime_json(report, out / "regime.json")
    print(f"regime lambda_star={report.lambda_star!r} "
          f"index_star={report.index_star} "
          f"nearest={report.nearest_eigenvalue!r}")


def _cmd_landscape(cfg: RunConfig, p: Pipeline) -> None:
    mesh = p.mesh
    vec = landscape(p.operator(cfg.kind))
    check = landscape_bound_check(p.spectrum(cfg.kind), vec)
    report: dict = {"kind": cfg.kind, "level": cfg.level, "c0": cfg.c0}
    if cfg.kind == "full":
        forms = landscape_closed_forms(cfg.level, cfg.c0)
        deg = mesh.degrees()
        interior = vec.values[~mesh.boundary_flags]
        tips = vec.values[mesh.boundary_flags & (deg == 2)]
        bases = vec.values[mesh.boundary_flags & (deg == 5)]
        report["closed_forms"] = forms
        report["matches_closed_forms"] = {
            "interior": bool(np.all(interior == forms["interior"])),
            "boundary_tip": bool(np.all(tips == forms["boundary_tip"])),
            "boundary_base": bool(np.all(bases == forms["boundary_base"])),
        }
    report["bound_check"] = {
        "ok": check.ok,
        "skipped_indices": list(check.skipped),  # already 1-based
        "violations": [dataclasses.asdict(v) for v in check.violations],
    }
    out = _outdir(cfg)
    fileio.write_landscape_csv(vec, out / "landscape.csv")
    fileio.write_json(report, out / "landscape_report.json")
    print(f"landscape kind={cfg.kind} level={cfg.level} "
          f"bound_ok={check.ok} violations={len(check.violations)}")


def _cmd_localize(cfg: RunConfig, p: Pipeline) -> None:
    mesh = p.mesh
    # the full spectrum has one pair per vertex: check before solving
    index = cfg.index if cfg.index is not None else mesh.num_vertices
    if index > mesh.num_vertices:
        raise CLIUsageError(
            f"index {index} exceeds spectrum size {mesh.num_vertices}")
    spec = p.spectrum("full")
    report = localization_report(spec, mesh)
    out = _outdir(cfg)
    fileio.write_localization_csv(report, out / "localization.csv")
    fileio.write_contour_csv(mesh, spec.eigenvectors[:, index - 1], cfg.eps,
                             out / "contour.csv")
    bmf = report.boundary_mass_fraction
    print(f"localization level={cfg.level} modes={spec.count} "
          f"contour_index={index} bmf_last={float(bmf[-1])!r}")


def _cmd_extend(cfg: RunConfig, p: Pipeline) -> None:
    mesh = p.mesh
    # harmonic_extend checks the data before anything is written
    if cfg.data is not None:
        values = fileio.read_boundary_csv(cfg.data)
    elif cfg.pattern == "alternating":
        values = alternating_boundary_data(mesh).values
    else:
        values = random_boundary_data(mesh, seed=cfg.seed).values
    u = harmonic_extend(mesh, values)
    e_int, e_bd = energy_split(mesh, u, cfg.c0)
    profile = decay_profile(mesh, u)
    out = _outdir(cfg)
    fileio.write_boundary_csv(values, out / "boundary.csv")
    fileio.write_vectors(u, {"kind": "extension", "level": cfg.level,
                             "c0": cfg.c0, "normalization": "none",
                             "sign_rule": "none"}, out / "extension.snwv")
    fileio.write_decay_csv(profile, out / "decay.csv")
    fileio.write_json({"level": cfg.level, "c0": cfg.c0,
                       "energy_interior": e_int, "energy_boundary": e_bd,
                       "min": float(u.min()), "max": float(u.max())},
                      out / "extension_report.json")
    print(f"extension level={cfg.level} energy_interior={e_int!r} "
          f"range=[{float(u.min())!r}, {float(u.max())!r}]")


def _cmd_energy_seq(cfg: RunConfig, p: Pipeline) -> None:
    n_max = cfg.n_max if cfg.n_max is not None else cfg.level
    values = energy_sequence(FUNCTIONS[cfg.function], n_max, c0=cfg.c0,
                             part=cfg.part)
    out = _outdir(cfg)
    fileio.write_energy_csv(values, out / "energy_seq.csv")
    tail = ", ".join(repr(v) for v in values[-3:])
    print(f"energy-seq function={cfg.function} part={cfg.part} "
          f"n_max={n_max} tail=[{tail}]")


def _cmd_run(cfg: RunConfig, p: Pipeline) -> None:
    # both dense spectra first: a guard or an empty operator then stops the
    # run before any stage has written a file
    full, dirichlet = p.spectrum("full"), p.spectrum("dirichlet")
    for stage in RUN_STAGES:
        _execute(RunConfig(command=stage, level=cfg.level, c0=cfg.c0,
                           out=os.path.join(cfg.out, stage)), p)
    out = _outdir(cfg)
    fileio.write_eigenvalues_csv(full, out / "eigenvalues_full.csv")
    fileio.write_eigenvalues_csv(dirichlet, out / "eigenvalues_dirichlet.csv")
    pairs = pair_eigenvectors(full.truncated(min(40, full.count)),
                              dirichlet.truncated(min(20, dirichlet.count)),
                              p.mesh, top_k=10)
    fileio.write_pairing_json(pairs, out / "pairing.json")
    lambda_star = regime_threshold(full, dirichlet).lambda_star
    try:
        slopes = loglog_slopes(full, lambda_star)
    except AnalysisError:  # too few eigenvalues on one side of lambda_star
        slopes = None
    clusters = {kind: [dataclasses.asdict(g) for g in
                       multiplicity_groups(p.spectrum(kind)) if g.size > 2]
                for kind in ("full", "dirichlet")}
    fileio.write_json({"loglog_slopes": slopes,
                       "multiplicity_clusters": clusters},
                      out / "summary.json")
    print(f"run level={cfg.level} stages={','.join(RUN_STAGES)} "
          f"pairs={len(pairs)} loglog_slopes={slopes!r}")


# each subcommand in help order: its stage, its summary and the OPTIONS it
# adds to --level, --c0 and --out
_DISPATCH = {
    "mesh": (_cmd_mesh, "build, validate and export a mesh", ()),
    "assemble": (_cmd_assemble, "export stiffness matrix and mass vector",
                 ("kind",)),
    "eig": (_cmd_eig, "solve and export a spectrum",
            ("kind", "solver", "k", "which", "seed")),
    "count": (_cmd_count, "counting functions and regime report "
                          "(dense, full + dirichlet)", ()),
    "landscape": (_cmd_landscape, "landscape vector, closed forms, "
                                  "eigenvector bound check", ("kind",)),
    "localize": (_cmd_localize, "localization table and one contour CSV",
                 ("eps", "index")),
    "extend": (_cmd_extend, "harmonic extension of boundary data",
               ("data", "pattern", "seed")),
    "energy-seq": (_cmd_energy_seq, "graph energy of a test function "
                                    "across levels 0..n-max",
                   ("function", "n-max", "part")),
    "run": (_cmd_run, "mesh, count, landscape, localize and extend on one "
                      "pipeline, plus a summary", ()),
}


def _execute(cfg: RunConfig, p: Pipeline) -> None:
    _DISPATCH[cfg.command][0](cfg, p)
    fileio.write_metadata(cfg.to_json(), _outdir(cfg) / "metadata.json")


def _fail(slug: str, exc: BaseException, code: int) -> int:
    message = " ".join(str(exc).split()) or exc.__class__.__name__
    print(f"error:{slug}:{message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = RunConfig(**vars(_build_parser().parse_args(argv)))
        _execute(cfg, Pipeline(cfg.level, cfg.c0))
    except CLIUsageError as exc:
        return _fail("usage", exc, 2)
    except (ValueError, OSError, fileio.FormatError) as exc:
        return _fail("invalid-input", exc, 2)
    except (LevelGuardError, DenseGuardError) as exc:
        return _fail("resource-guard", exc, 3)
    except (NumericalError, MeshInvariantError, AnalysisError) as exc:
        return _fail("numerical", exc, 4)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
