import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import read_csv, read_json, read_mtx, read_snwv

import snowlab
from snowlab import cli, fileio
from snowlab.analysis import loglog_slopes, multiplicity_groups
from snowlab.cli import CLIUsageError, RunConfig, _build_parser, main
from snowlab.lattice import InvariantCheck, ValidationReport, build_mesh
from snowlab.operators import assemble
from snowlab.solver import eig_full


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_config_json_round_trip():
    configs = [
        RunConfig(command="mesh", level=2),
        RunConfig(command="eig", level=3, kind="dirichlet", c0=2.5,
                  solver="iterative", k=4, which="largest", seed=9),
        RunConfig(command="extend", level=1, data="bd.csv", out="/tmp/x"),
        RunConfig(command="energy-seq", level=0, function="product", n_max=3,
                  part="boundary"),
    ]
    for cfg in configs:
        assert RunConfig(**cfg.to_json()) == cfg
        # JSON-serializable all the way down
        assert RunConfig(**json.loads(json.dumps(cfg.to_json()))) == cfg


def test_config_validation():
    with pytest.raises(CLIUsageError):
        RunConfig(command="mesh", level=-1)
    with pytest.raises(CLIUsageError):
        RunConfig(command="mesh", level=1, c0=0.0)
    for c0 in (np.inf, np.nan):
        with pytest.raises(CLIUsageError,
                           match="^c0 must be positive and finite, got"):
            RunConfig(command="mesh", level=1, c0=c0)
    with pytest.raises(CLIUsageError):
        RunConfig(command="eig", level=1, k=0)
    with pytest.raises(CLIUsageError):
        RunConfig(command="eig", level=1, which="middle")
    with pytest.raises(CLIUsageError):
        RunConfig(command="bogus", level=1)
    for eps in (0.0, -0.5, np.nan):
        with pytest.raises(CLIUsageError, match="^eps must be positive, got"):
            RunConfig(command="localize", level=1, eps=eps)
    with pytest.raises(CLIUsageError, match="^seed must be >= 0, got -1"):
        RunConfig(command="eig", level=1, seed=-1)
    with pytest.raises(CLIUsageError, match="^index must be >= 1, got 0"):
        RunConfig(command="localize", level=1, index=0)
    with pytest.raises(CLIUsageError, match="^n-max must be >= 0, got -1"):
        RunConfig(command="energy-seq", level=1, n_max=-1)


def test_parser_defaults_are_config_defaults():
    parser = _build_parser()
    for command in cli._DISPATCH:
        args = parser.parse_args([command, "--level", "1"])
        assert RunConfig(**vars(args)) == RunConfig(command, 1)


def test_subcommand_options():
    # each subcommand, in help order, and the options it adds to the ones
    # every subcommand takes
    expected = {
        "mesh": set(),
        "assemble": {"--kind"},
        "eig": {"--kind", "--solver", "--k", "--which", "--seed"},
        "count": set(),
        "landscape": {"--kind"},
        "localize": {"--eps", "--index"},
        "extend": {"--data", "--pattern", "--seed"},
        "energy-seq": {"--function", "--n-max", "--part"},
        "run": set(),
    }
    parser = _build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(expected)
    for command, extra in expected.items():
        actions = sub.choices[command]._actions
        assert {s for a in actions for s in a.option_strings} == (
            {"-h", "--help", "--level", "--c0", "--out"} | extra), command
        assert [a.option_strings for a in actions if a.required] == [
            ["--level"]], command


@pytest.mark.parametrize("field", sorted(cli.CHOICES))
def test_config_rejects_unknown_choice(field):
    with pytest.raises(CLIUsageError, match=f"^{field} must be one of"):
        RunConfig("eig", 1, **{field: "bogus"})


@pytest.mark.parametrize(("command", "option"), [
    (command, option) for command, (_, _, options) in cli._DISPATCH.items()
    for option in options if option in cli.CHOICES])
def test_cli_rejects_unknown_choice_once(command, option, capsys, tmp_path):
    # argparse only shows the valid values; RunConfig's check is the one
    # that rejects a bad value, before any stage runs
    out = tmp_path / "out"
    code, stdout, err = run(capsys, command, "--level", "1",
                            f"--{option}", "x", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == (f"error:usage:{option} must be one of "
                   f"{cli.CHOICES[option]}, got 'x'\n")
    assert not out.exists()


def test_help_lists_choices(capsys):
    with pytest.raises(SystemExit):
        main(["energy-seq", "--help"])
    out = capsys.readouterr().out
    for field in ("function", "part"):
        assert "{" + ",".join(cli.CHOICES[field]) + "}" in out


def test_mesh_command(capsys, tmp_path):
    out = tmp_path / "m"
    code, stdout, _ = run(capsys, "mesh", "--level", "2", "--out", str(out))
    assert code == 0
    assert "vertices=85" in stdout
    mesh = read_json(out / "mesh.json")
    assert (mesh["level"], len(mesh["vertices"])) == (2, 85)
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config_hash"] == fileio.config_hash(meta["config"])
    assert meta["config"]["command"] == "mesh"


def test_mesh_command_invalid_mesh(capsys, tmp_path, monkeypatch):
    # a built mesh that fails validation is one numerical error, and the
    # stage writes nothing
    failed = ValidationReport((InvariantCheck("a", True),
                               InvariantCheck("b", False, "[3]")))
    monkeypatch.setattr(cli, "validate", lambda mesh: failed)
    out = tmp_path / "m"
    code, stdout, err = run(capsys, "mesh", "--level", "1", "--out", str(out))
    assert (code, stdout) == (4, "")
    assert err == "error:numerical:built mesh fails validation: ['b']\n"
    assert not out.exists()


def test_assemble_command(capsys, tmp_path):
    out = tmp_path / "a"
    code, stdout, _ = run(capsys, "assemble", "--level", "1",
                          "--kind", "dirichlet", "--out", str(out))
    assert code == 0
    assert "dimension=1" in stdout
    assert read_mtx(out / "stiffness.mtx").shape == (1, 1)
    assert read_csv(out / "mass.csv")[1].tolist() == [[1.0, 1.0 / 9.0]]


def test_eig_zero_mode(capsys, tmp_path):
    out = tmp_path / "e"
    code, stdout, _ = run(capsys, "eig", "--level", "0", "--kind", "full",
                          "--out", str(out))
    assert code == 0
    w = read_csv(out / "eigenvalues.csv")[1][:, 1]
    assert w[0] <= 1e-12
    arr, meta = read_snwv(out / "eigenvectors.snwv")
    assert arr.shape == (3, 3)
    assert meta["kind"] == "full"


@pytest.mark.parametrize("solver", ["dense", "iterative"])
def test_eig_empty_operator(capsys, tmp_path, solver):
    # the level-0 mesh has no interior vertex, so Dirichlet has no rows
    code, _, err = run(capsys, "eig", "--level", "0", "--kind", "dirichlet",
                       "--solver", solver, "--k", "1",
                       "--out", str(tmp_path / "e"))
    assert code == 2
    assert err == ("error:invalid-input:the dirichlet operator at level 0 "
                   "has no rows: the mesh has no interior vertex\n")


def test_eig_iterative(capsys, tmp_path):
    out = tmp_path / "ei"
    code, stdout, _ = run(capsys, "eig", "--level", "2", "--solver",
                          "iterative", "--k", "4", "--which", "largest",
                          "--out", str(out))
    assert code == 0
    w = read_csv(out / "eigenvalues.csv")[1][:, 1]
    assert len(w) == 4
    assert w.tolist() == sorted(w.tolist())


def test_count_command(capsys, tmp_path):
    out = tmp_path / "c"
    code, stdout, _ = run(capsys, "count", "--level", "1", "--out", str(out))
    assert code == 0
    regime = json.loads((out / "regime.json").read_text())
    assert regime["lambda_star"] > 0
    assert regime["index_star"] >= 1
    assert (out / "counting_full.csv").exists()
    assert (out / "counting_dirichlet.csv").exists()


def test_landscape_command(capsys, tmp_path):
    out = tmp_path / "l"
    code, stdout, _ = run(capsys, "landscape", "--level", "1", "--out", str(out))
    assert code == 0
    report = json.loads((out / "landscape_report.json").read_text())
    assert report["matches_closed_forms"] == {
        "interior": True, "boundary_tip": True, "boundary_base": True}
    assert report["bound_check"]["ok"] is True
    assert report["bound_check"]["violations"] == []


def test_landscape_command_at_non_dyadic_c0(capsys, tmp_path):
    # c0 * 4**n is not dyadic: a boundary base still matches its closed form
    out = tmp_path / "l"
    code, _, _ = run(capsys, "landscape", "--level", "1", "--c0", "0.1",
                     "--out", str(out))
    assert code == 0
    report = json.loads((out / "landscape_report.json").read_text())
    assert report["matches_closed_forms"] == {
        "interior": True, "boundary_tip": True, "boundary_base": True}


def test_localize_command(capsys, tmp_path):
    out = tmp_path / "lo"
    code, stdout, _ = run(capsys, "localize", "--level", "1", "--out", str(out))
    assert code == 0
    lines = (out / "localization.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue,bmf"
    assert len(lines) == 1 + 13
    assert (out / "contour.csv").exists()


def test_localize_index_range(capsys, tmp_path):
    code, _, err = run(capsys, "localize", "--level", "1", "--index", "99",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith("error:usage:")


def test_localize_index_checked_before_solve(capsys, tmp_path, monkeypatch):
    # the full spectrum has one pair per vertex: 5557 at level 4
    solves = []

    def spy(op, *args, **kwargs):
        solves.append(op.level)
        return eig_full(op, *args, **kwargs)

    monkeypatch.setattr(cli, "eig_full", spy)
    code, _, err = run(capsys, "localize", "--level", "4", "--index", "5558",
                       "--out", str(tmp_path / "x"))
    assert (code, solves) == (2, [])
    assert err == "error:usage:index 5558 exceeds spectrum size 5557\n"
    code, _, _ = run(capsys, "localize", "--level", "1", "--index", "13",
                     "--out", str(tmp_path / "y"))
    assert (code, solves) == (0, [1])


def test_extend_command(capsys, tmp_path):
    out = tmp_path / "x"
    code, stdout, _ = run(capsys, "extend", "--level", "2",
                          "--pattern", "alternating", "--out", str(out))
    assert code == 0
    arr, meta = read_snwv(out / "extension.snwv")
    assert meta["kind"] == "extension"
    assert arr.shape == (85, 1)
    assert np.abs(arr).max() <= 1.0 + 1e-12
    report = json.loads((out / "extension_report.json").read_text())
    assert report["energy_interior"] >= 0


def test_extend_from_file(capsys, tmp_path):
    data = tmp_path / "bd.csv"
    fileio.write_boundary_csv(np.arange(12, dtype=float), data)
    out = tmp_path / "x"
    code, _, _ = run(capsys, "extend", "--level", "1", "--data", str(data),
                     "--out", str(out))
    assert code == 0
    header, rows = read_csv(out / "boundary.csv")
    assert header == ["boundary_index", "value"]
    assert np.array_equal(rows, np.column_stack([np.arange(1, 13),
                                                 np.arange(12)]))


def test_extend_malformed_data(capsys, tmp_path):
    data = tmp_path / "bd.csv"
    data.write_text("boundary_index,value\n1,abc\n")
    code, _, err = run(capsys, "extend", "--level", "1", "--data", str(data),
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert err == "error:invalid-input:bad row 1: '1,abc\\n'\n"


def test_extend_data_not_utf8(capsys, tmp_path):
    data = tmp_path / "bd.csv"
    data.write_bytes(b"boundary_index,value\n1,\xff\n")
    code, _, err = run(capsys, "extend", "--level", "1", "--data", str(data),
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert err == "error:invalid-input:not UTF-8 text: byte 0xff\n"


@pytest.mark.parametrize("cell", ["nan", "-inf"])
def test_extend_data_not_finite(cell, capsys, tmp_path):
    data = tmp_path / "bd.csv"
    rows = [f"{k},{cell if k == 4 else '1.0'}" for k in range(1, 13)]
    data.write_text("boundary_index,value\n" + "\n".join(rows) + "\n")
    out = tmp_path / "x"
    code, _, err = run(capsys, "extend", "--level", "1", "--data", str(data),
                       "--out", str(out))
    assert code == 2
    assert err == ("error:invalid-input:boundary data has 1 non-finite "
                   f"values, the first {float(cell)} at index 3\n")
    assert not out.exists()


def test_extend_bad_length(capsys, tmp_path):
    data = tmp_path / "bd.csv"
    fileio.write_boundary_csv(np.ones(5), data)
    out = tmp_path / "x"
    code, _, err = run(capsys, "extend", "--level", "1", "--data", str(data),
                       "--out", str(out))
    assert code == 2
    assert err.startswith("error:invalid-input:") and err.count("\n") == 1
    assert "12" in err
    assert not out.exists()


def test_extend_missing_data_file(capsys, tmp_path):
    out = tmp_path / "x"
    code, _, err = run(capsys, "extend", "--level", "1", "--data",
                       str(tmp_path / "none.csv"), "--out", str(out))
    assert code == 2
    assert err.startswith("error:invalid-input:") and err.count("\n") == 1
    assert not out.exists()


def test_energy_seq_command(capsys, tmp_path):
    out = tmp_path / "es"
    code, _, _ = run(capsys, "energy-seq", "--level", "2", "--function",
                     "one", "--out", str(out))
    assert code == 0
    lines = (out / "energy_seq.csv").read_text().splitlines()
    assert lines[0] == "level,energy"
    assert [l.split(",")[1] for l in lines[1:]] == ["0.0", "0.0", "0.0"]


def test_exit_code_guard(capsys, tmp_path):
    code, _, err = run(capsys, "mesh", "--level", "99",
                       "--out", str(tmp_path / "g"))
    assert code == 3
    assert err.startswith("error:resource-guard:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("solver", ["dense", "iterative"])
def test_eig_nonfinite_operator(capsys, tmp_path, solver):
    # c0 * 4**level overflows to inf: a non-finite spectrum (dense) or a
    # shifted block SuperLU cannot factor (iterative) is one numerical error
    code, out, err = run(capsys, "eig", "--level", "2", "--c0", "1e308",
                         "--solver", solver, "--out", str(tmp_path / "e"))
    assert (code, out) == (4, "")
    assert err.startswith("error:numerical:") and err.count("\n") == 1
    assert not (tmp_path / "e").exists()


def test_eig_nonfinite_eigenvalue(capsys, tmp_path):
    # at level 1 the dense solve returns NaN and inf eigenvalues: the error
    # calls them non-finite, not a failed PSD test
    code, out, err = run(capsys, "eig", "--level", "1", "--c0", "1e308",
                         "--out", str(tmp_path / "e"))
    assert (code, out) == (4, "")
    assert err.startswith("error:numerical:10 eigenvalues are not finite;")
    assert err.count("\n") == 1
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("argv", [
    ("extend", "--level", "2"),
    ("extend", "--level", "0"),
    ("energy-seq", "--level", "2"),
    ("energy-seq", "--level", "2", "--function", "one"),
], ids=["extend", "extend-level0", "energy-seq", "energy-seq-constant"])
def test_nonfinite_energy(capsys, tmp_path, argv):
    # c0 * 4**level overflows: an energy of inf (or NaN, for a zero
    # difference across an infinite conductance) is one numerical error,
    # before the stage writes anything
    code, out, err = run(capsys, *argv, "--c0", "1e308",
                         "--out", str(tmp_path / "e"))
    assert (code, out) == (4, "")
    assert err.startswith("error:numerical:energies ")
    assert err.count("\n") == 1
    assert not (tmp_path / "e").exists()


def test_interior_energy_ignores_c0_overflow(capsys, tmp_path):
    # the interior energies take no c0, so they stay finite and are written
    code, _, _ = run(capsys, "energy-seq", "--level", "2", "--c0", "1e308",
                     "--part", "interior", "--out", str(tmp_path / "e"))
    assert code == 0
    assert (tmp_path / "e" / "energy_seq.csv").exists()


def test_exit_code_bad_args(capsys, tmp_path):
    code, _, err = run(capsys, "eig", "--level", "1", "--c0", "-2",
                       "--out", str(tmp_path / "b"))
    assert code == 2
    assert err.startswith("error:usage:")

    code, _, err = run(capsys, "eig", "--level", "1", "--c0", "inf",
                       "--out", str(tmp_path / "b"))
    assert (code, err) == (2, "error:usage:c0 must be positive and finite, "
                              "got inf\n")

    code, _, err = run(capsys, "nope")
    assert code == 2

    code, _, err = run(capsys)
    assert code == 2


def test_parser_reused_across_calls(capsys, tmp_path):
    # one parser serves every call: a usage error leaves nothing behind, and
    # options given to one call do not become defaults of the next
    assert _build_parser() is _build_parser()
    code, _, err = run(capsys, "eig", "--level", "1", "--which", "middle")
    assert (code, err.count("\n")) == (2, 1)
    assert err.startswith("error:usage:")
    code, out, _ = run(capsys, "mesh", "--level", "1",
                       "--out", str(tmp_path / "m"))
    assert code == 0 and out.startswith("mesh level=1 ")

    custom = ("eig", "--level", "1", "--kind", "dirichlet", "--c0", "2",
              "--solver", "iterative", "--k", "1", "--which", "largest",
              "--seed", "5", "--out", str(tmp_path / "a"))
    assert run(capsys, *custom)[0] == 0
    assert run(capsys, "eig", "--level", "1",
               "--out", str(tmp_path / "b"))[0] == 0
    config = json.loads((tmp_path / "b" / "metadata.json").read_text())
    assert config["config"] == RunConfig(
        command="eig", level=1, out=str(tmp_path / "b")).to_json()

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"snowlab {snowlab.__version__}\n"
    code, _, err = run(capsys, "mesh")
    assert code == 2 and "--level" in err


def test_deterministic_rerun(capsys, tmp_path):
    out = tmp_path / "d"
    argv = ("eig", "--level", "1", "--kind", "full", "--out", str(out))
    assert run(capsys, *argv)[0] == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(capsys, *argv)[0] == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_env_guard_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SNOWLAB_GUARD_LEVEL", "1")
    code, _, err = run(capsys, "mesh", "--level", "2",
                       "--out", str(tmp_path / "e"))
    assert code == 3
    assert "error:resource-guard:" in err


def test_env_guard_not_an_integer(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SNOWLAB_GUARD_LEVEL", "abc")
    code, _, err = run(capsys, "mesh", "--level", "1",
                       "--out", str(tmp_path / "e"))
    assert code == 2
    assert err == ("error:invalid-input:SNOWLAB_GUARD_LEVEL must be an "
                   "integer, got 'abc'\n")


def test_landscape_vertex_column(capsys, tmp_path):
    out = tmp_path / "ld"
    code, _, _ = run(capsys, "landscape", "--kind", "dirichlet", "--level",
                     "3", "--out", str(out))
    assert code == 0
    lines = (out / "landscape.csv").read_text().splitlines()
    assert lines[0] == "vertex,value"
    vertices = [int(line.split(",")[0]) for line in lines[1:]]
    assert vertices == build_mesh(3).interior_vertices.tolist()


def test_eig_bytes_independent_of_blas_threads(tmp_path):
    # the degenerate (E-pair) eigenvectors are where a thread-dependent
    # basis would show; the dense and both iterative windows are checked
    src = str(Path(snowlab.__file__).resolve().parent.parent)
    artifacts = ("eigenvalues.csv", "eigenvectors.snwv",
                 "eigenvectors.snwv.json")
    solves = {"dense": [],
              "smallest": ["--solver", "iterative", "--k", "8",
                           "--which", "smallest"],
              "largest": ["--solver", "iterative", "--k", "8",
                          "--which", "largest"]}
    for label, args in solves.items():
        got = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"{label}-threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "snowlab", "eig", "--level", "3",
                 *args, "--out", str(out)], env=env, capture_output=True,
                text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            got.append({name: (out / name).read_bytes()
                        for name in artifacts})
        for name in artifacts:
            assert got[0][name] == got[1][name], (label, name)


# Every subcommand and kind, writing into a fixed relative --out so that
# metadata.json holds no temporary path.
PINNED_INVOCATIONS = {
    "mesh": ["mesh"],
    "assemble-full": ["assemble", "--kind", "full"],
    "assemble-dirichlet": ["assemble", "--kind", "dirichlet"],
    "assemble-boundary": ["assemble", "--kind", "boundary"],
    "eig-full": ["eig", "--kind", "full"],
    "eig-dirichlet": ["eig", "--kind", "dirichlet"],
    "eig-boundary": ["eig", "--kind", "boundary"],
    "count": ["count"],
    "landscape-full": ["landscape", "--kind", "full"],
    "landscape-dirichlet": ["landscape", "--kind", "dirichlet"],
    "landscape-boundary": ["landscape", "--kind", "boundary"],
    "localize": ["localize"],
    "extend-alternating": ["extend", "--pattern", "alternating"],
    "extend-random": ["extend", "--pattern", "random", "--seed", "3"],
    "energy-seq": ["energy-seq", "--part", "interior"],
}
# The level-0 mesh has no interior vertex, so these need a Dirichlet
# operator with no rows and fail as invalid input.
NO_INTERIOR = {"eig-dirichlet", "count", "landscape-dirichlet"}
# SHA-256 of every artifact, in `sha256sum` format, recorded from the
# per-row CSV and MatrixMarket writers that the table writer replaced.
PINNED_DIGESTS = Path(__file__).with_name("cli_artifacts.sha256")


@pytest.mark.parametrize("level", [0, 3])
def test_cli_artifacts_pinned(level, capsys, tmp_path, monkeypatch):
    want = {}
    for line in PINNED_DIGESTS.read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        if name.startswith(f"level{level}/"):
            want[name.removeprefix(f"level{level}/")] = digest
    monkeypatch.chdir(tmp_path)
    for name, args in PINNED_INVOCATIONS.items():
        code, _, err = run(capsys, *args, "--level", str(level),
                           "--out", f"out/{name}")
        assert code == (2 if level == 0 and name in NO_INTERIOR else 0), err
    got = {p.relative_to("out").as_posix():
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in Path("out").glob("*/*")}
    assert got == want


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_run_matches_stages_alone(capsys, tmp_path, monkeypatch):
    # each stage alone writes into out/<stage>, the directory `run --out
    # out` gives it, so metadata.json compares too
    monkeypatch.chdir(tmp_path)
    alone, lines = {}, []
    for stage in cli.RUN_STAGES:
        code, stdout, err = run(capsys, stage, "--level", "3",
                                "--out", f"out/{stage}")
        assert code == 0, err
        alone[stage] = _tree(f"out/{stage}")
        lines.append(stdout)
    shutil.rmtree("out")

    meshes, solves = [], []

    def mesh_spy(level):
        meshes.append(level)
        return build_mesh(level)

    def eig_spy(op, *args, **kwargs):
        solves.append(op.kind)
        return eig_full(op, *args, **kwargs)

    monkeypatch.setattr(cli, "build_mesh", mesh_spy)
    monkeypatch.setattr(cli, "eig_full", eig_spy)
    code, stdout, err = run(capsys, "run", "--level", "3", "--out", "out")
    assert code == 0, err
    assert (meshes, solves) == ([3], ["full", "dirichlet"])
    for stage in cli.RUN_STAGES:
        assert _tree(f"out/{stage}") == alone[stage], stage
    assert stdout.startswith("".join(lines))
    assert sorted(p.name for p in Path("out").iterdir()) == sorted(
        [*cli.RUN_STAGES, "metadata.json", "eigenvalues_full.csv",
         "eigenvalues_dirichlet.csv", "pairing.json", "summary.json"])
    meta = json.loads(Path("out/metadata.json").read_text())
    assert meta["config"] == RunConfig(command="run", level=3,
                                       out="out").to_json()


def test_run_level1_truncated_windows(capsys, tmp_path):
    out = tmp_path / "r"
    code, _, err = run(capsys, "run", "--level", "1", "--out", str(out))
    assert code == 0, err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["loglog_slopes"] is None
    # 13 full pairs and 1 Dirichlet pair at level 1
    pairs = json.loads((out / "pairing.json").read_text())["pairs"]
    assert len(pairs) == 10
    assert all(1 <= p["j"] <= 13 and p["j_tilde"] == 1 for p in pairs)
    assert len(read_csv(out / "eigenvalues_dirichlet.csv")[1]) == 1


# SHA-256 of the files `run --level 3` writes itself (its stages are pinned
# above), recorded with the masked pairing that division by inf replaced;
# the same at one and two BLAS threads.  metadata.json is left out.
RUN_DIGESTS = {
    "eigenvalues_full.csv":
        "e391c8502f04cff5070002d52b12dcb4a8d5da478ab56dd8988e91f34bc44870",
    "eigenvalues_dirichlet.csv":
        "af1dd0712119cde7fceb10a3b3e6b1f0ca55b2c82e35396888cca26e7c4b2862",
    "pairing.json":
        "e938ee23af1e02557864482aae4aa9a8400dd791fcba0ba419b7e724834a4c86",
    "summary.json":
        "80fe87f6165b3edd4ab8b258a84f8e7570be4bdfcc3cd581ab8ecbd4c5e10fb2",
}


def test_run_files_pinned(capsys, tmp_path):
    out = tmp_path / "r"
    code, _, err = run(capsys, "run", "--level", "3", "--out", str(out))
    assert code == 0, err
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in RUN_DIGESTS}
    assert got == RUN_DIGESTS


def test_run_level0_fails_as_count(capsys, tmp_path):
    code, _, count_err = run(capsys, "count", "--level", "0",
                             "--out", str(tmp_path / "c"))
    assert code == 2 and count_err.startswith("error:invalid-input:")
    code, _, err = run(capsys, "run", "--level", "0",
                       "--out", str(tmp_path / "r"))
    assert (code, err) == (2, count_err)
    assert not (tmp_path / "r").exists()


def test_run_level5_guard_writes_nothing(capsys, tmp_path):
    # the dense guard trips before any stage runs
    code, out, err = run(capsys, "run", "--level", "5",
                         "--out", str(tmp_path / "r"))
    assert (code, out) == (3, "")
    assert err == ("error:resource-guard:dimension 48469 exceeds dense "
                   "guard 6000; use eig_partial for extremal windows\n")
    assert not (tmp_path / "r").exists()


def test_run_summary_level3(capsys, tmp_path):
    out = tmp_path / "r"
    assert run(capsys, "run", "--level", "3", "--out", str(out))[0] == 0
    mesh = build_mesh(3)
    spectra = {kind: eig_full(assemble(mesh, kind))
               for kind in ("full", "dirichlet")}
    lambda_star = float(spectra["dirichlet"].eigenvalues[-1])
    want = {
        "loglog_slopes": list(loglog_slopes(spectra["full"], lambda_star)),
        "multiplicity_clusters": {
            kind: [{"start": g.start, "size": g.size, "value": g.value}
                   for g in multiplicity_groups(spec) if g.size > 2]
            for kind, spec in spectra.items()},
    }
    assert json.loads((out / "summary.json").read_text()) == want
    assert want["multiplicity_clusters"]["dirichlet"]
