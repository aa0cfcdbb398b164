"""Shared fixtures.

The two level-4 eigendecompositions take a few seconds together and a few
hundred MB of eigenvector storage, so they are computed once per session
and shared by every test that needs level-4 data.

The read_* functions parse snowlab's output files with the standard
library, numpy and scipy alone, so that each writer is checked by a parser
that is not its own twin.
"""

import csv
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.io

from snowlab import solver
from snowlab.lattice import Mesh, build_mesh
from snowlab.operators import assemble
from snowlab.solver import eig_full


@pytest.fixture(scope="session")
def mesh0():
    return build_mesh(0)


@pytest.fixture(scope="session")
def mesh1():
    return build_mesh(1)


@pytest.fixture(scope="session")
def mesh2():
    return build_mesh(2)


@pytest.fixture(scope="session")
def mesh3():
    return build_mesh(3)


@pytest.fixture(scope="session")
def mesh4():
    return build_mesh(4)


@pytest.fixture(scope="session")
def op2_full(mesh2):
    return assemble(mesh2, "full")


@pytest.fixture(scope="session")
def op2_dir(mesh2):
    return assemble(mesh2, "dirichlet")


@pytest.fixture(scope="session")
def spec2_full(op2_full):
    return eig_full(op2_full)


@pytest.fixture(scope="session")
def spec2_dir(op2_dir):
    return eig_full(op2_dir)


@pytest.fixture(scope="session")
def op4_full(mesh4):
    return assemble(mesh4, "full")


@pytest.fixture(scope="session")
def op4_dir(mesh4):
    return assemble(mesh4, "dirichlet")


@pytest.fixture(scope="session")
def spec4_full(op4_full):
    return eig_full(op4_full)


@pytest.fixture(scope="session")
def spec4_dir(op4_dir):
    return eig_full(op4_dir)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def chunk_width(monkeypatch):
    """Set how many columns of d-row eigenvectors each chunked pass (the
    solvers' finishing pass, the analysis passes, the .snwv writer) takes
    at a time."""
    def set_width(columns, d):
        monkeypatch.setattr(solver, "CHUNK_BYTES", 8 * d * columns)
        assert solver.chunk_columns(d) == columns
    return set_width


def traced_memory(call):
    """(peak, current) bytes traced by tracemalloc over one call of `call`,
    made after one untraced warm call so that one-time costs (imports,
    caches) do not count; `current` is what the result still holds."""
    call()
    tracemalloc.start()
    try:
        result = call()  # held, so that `current` counts what it keeps
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, current


def read_csv(path):
    """The header and the (rows, columns) float array of a CSV file."""
    with open(path, encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    return header, np.array([[float(cell) for cell in row] for row in rows])


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_mesh(path):
    """A mesh.json file as a Mesh: edge tag "b" is boundary, any other
    interior.  The file's boundary_vertices list is not read: the Mesh
    derives its boundary vertices from the boundary edges."""
    data = read_json(path)
    ends = [edge[:2] for edge in data["edges"]]
    return Mesh(data["level"], np.array(data["vertices"], dtype=np.int64),
                np.array(data["triangles"], dtype=np.int64),
                np.array(ends, dtype=np.int64),
                np.array([edge[2] == "b" for edge in data["edges"]]))


def read_mtx(path):
    """A MatrixMarket file as a full CSR matrix."""
    return scipy.io.mmread(path).tocsr()


def read_snwv(path):
    """The (d, k) vectors of a .snwv file, vector by vector after a 24-byte
    header, and its JSON sidecar."""
    raw = Path(path).read_bytes()
    magic, version, d, k = struct.unpack("<4sIQQ", raw[:24])
    assert (magic, version) == (b"SNWV", 1)
    values = np.frombuffer(raw, dtype="<f8", offset=24).reshape(k, d).T
    return values, read_json(f"{path}.json")
