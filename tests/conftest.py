"""Shared fixtures.

The two level-4 eigendecompositions take a few seconds together and a few
hundred MB of eigenvector storage, so they are computed once per session
and shared by every test that needs level-4 data.
"""

import numpy as np
import pytest

from snowlab import solver
from snowlab.lattice import build_mesh
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
    solvers' finishing pass, the analysis passes) takes at a time."""
    def set_width(columns, d):
        monkeypatch.setattr(solver, "CHUNK_BYTES", 8 * d * columns)
        assert solver.chunk_columns(d) == columns
    return set_width
