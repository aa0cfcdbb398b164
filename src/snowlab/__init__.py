"""Spectra of boundary-weighted discrete Laplacians on Koch snowflake
pre-fractal meshes: mesh construction, operator assembly, eigensolvers,
spectral analysis, and discrete harmonic extension."""

__version__ = "0.1.0"

from .lattice import Mesh, build_mesh, validate
from .operators import OperatorBundle, assemble, apply, energy, energy_sequence
from .solver import Spectrum, eig_full, eig_partial, symmetrize

__all__ = [
    "__version__",
    "Mesh", "build_mesh", "validate",
    "OperatorBundle", "assemble", "apply", "energy", "energy_sequence",
    "Spectrum", "eig_full", "eig_partial", "symmetrize",
]
