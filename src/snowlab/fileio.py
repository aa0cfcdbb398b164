"""Writers for the on-disk formats, and the reader of boundary data.

Every writer is deterministic: fixed key order, fixed row order, LF line
endings, and floats rendered with repr() (shortest round-trip).  Rerunning
with the same inputs reproduces each file byte for byte.  All CSV files and
the entry block of MatrixMarket files are one table dialect, written by
`_write_table`: a header, then one row per entry of equal-length columns.
The program reads no file back but the boundary CSV that `extend --data`
takes; `read_boundary_csv` raises FormatError on a malformed header, row or
cell.

Index conventions: CSV files that refer to matrix rows or spectrum positions
are 1-based, matching MatrixMarket; files that refer to mesh vertices
("vertex" columns) are 0-based, matching the indices inside the mesh JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

from . import __version__
from .analysis import (
    CONTOUR_CLASSES,
    LandscapeVector,
    LocalizationReport,
    PairMatch,
    RegimeReport,
    contour_classes,
)
from .lattice import Mesh, cartesian_coordinates
from .solver import NORMALIZATION, SIGN_RULE, Spectrum, chunk_columns

MM_HEADER = "%%MatrixMarket matrix coordinate real symmetric"
VECTOR_MAGIC = b"SNWV"
VECTOR_VERSION = 1
VECTOR_HEADER = struct.Struct("<4sIQQ")  # magic, version, d, k
TABLE_BLOCK_ROWS = 1 << 16


class FormatError(Exception):
    """A file does not conform to the expected format."""


def _write_table(path: str | Path, header: str, *columns: Any,
                 sep: str = ",") -> None:
    """Write `header`, then one row per entry of the equal-length columns.

    A cell is str() of a tolist() entry: floats by repr, integers in
    decimal.  Rows are formatted in blocks, never as one list per column.
    """
    columns = [np.asarray(c) for c in columns]
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for lo in range(0, max(map(len, columns)), TABLE_BLOCK_ROWS):
            cells = [c[lo:lo + TABLE_BLOCK_ROWS].tolist() for c in columns]
            f.writelines(sep.join(map(str, row)) + "\n"
                         for row in zip(*cells, strict=True))


def _plain(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays so json can serialize them.

    Non-finite floats become null: bare NaN/Infinity tokens are not valid
    JSON and would trip strict parsers downstream.
    """
    if isinstance(obj, np.generic):
        # .item() leaves np.longdouble as it is; float() converts any width
        obj = float(obj) if isinstance(obj, np.floating) else obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def write_json(obj: dict, path: str | Path) -> None:
    """Pretty-printed JSON with insertion key order and LF newlines."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        json.dump(_plain(obj), f, indent=2)
        f.write("\n")


# -- mesh ------------------------------------------------------------------

def write_mesh_json(mesh: Mesh, path: str | Path) -> None:
    """One top-level key per line; arrays in compact JSON on that line."""
    compact = {"separators": (",", ":")}
    edges = np.empty((len(mesh.edges), 3), dtype=object)
    edges[:, :2] = mesh.edges
    edges[:, 2] = np.where(mesh.edge_is_boundary, "b", "i")
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        f.write("{\n")
        f.write(f'"level": {mesh.level},\n')
        f.write(f'"vertices": {json.dumps(mesh.vertices.tolist(), **compact)},\n')
        f.write(f'"triangles": {json.dumps(mesh.triangles.tolist(), **compact)},\n')
        f.write(f'"edges": {json.dumps(edges.tolist(), **compact)},\n')
        bv = mesh.boundary_vertices.tolist()
        f.write(f'"boundary_vertices": {json.dumps(bv, **compact)}\n')
        f.write("}\n")


# -- operator --------------------------------------------------------------

def write_matrix_market(S: sp.spmatrix, path: str | Path) -> None:
    """Lower triangle of a symmetric sparse matrix, 1-based, column-major:
    the CSC form of the triangle lists each column's rows in order."""
    d = S.shape[0]
    if S.shape[1] != d:
        raise ValueError(f"matrix not square: {S.shape}")
    low = sp.tril(S, format="csc")
    _write_table(path, f"{MM_HEADER}\n{d} {d} {low.nnz}", low.indices + 1,
                 np.repeat(np.arange(1, d + 1), np.diff(low.indptr)),
                 low.data.astype(np.float64, copy=False), sep=" ")


def write_mass_csv(m: np.ndarray, path: str | Path) -> None:
    m = np.asarray(m, dtype=np.float64)
    _write_table(path, "index,mass", np.arange(1, len(m) + 1), m)


# -- spectrum --------------------------------------------------------------

def write_eigenvalues_csv(spec: Spectrum, path: str | Path) -> None:
    _write_table(path, "index,eigenvalue,residual",
                 np.arange(1, spec.count + 1), spec.eigenvalues, spec.residuals)


def write_vectors(values: np.ndarray, meta: dict, path: str | Path) -> Path:
    """Binary vector block plus JSON sidecar at <path>.json.

    Layout: magic "SNWV", u32 version, u64 dimension d, u64 count k, then
    k*d little-endian float64 values, vector by vector.  `meta` holds
    exactly kind, level, c0, normalization and sign_rule, and the sidecar
    lists them in that order; a missing or an unexpected key raises
    ValueError.  The payload is streamed in blocks of `chunk_columns`
    columns, with no copy at all for a column-major block.
    """
    keys = ("kind", "level", "c0", "normalization", "sign_rule")
    if set(meta) != set(keys):
        raise ValueError(
            f"vector metadata must hold exactly {keys}, got {sorted(meta)}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"values must be (d,) or (d, k), got {arr.shape}")
    d, k = arr.shape
    path = Path(path)
    with path.open("wb") as f:
        f.write(VECTOR_HEADER.pack(VECTOR_MAGIC, VECTOR_VERSION, d, k))
        step = chunk_columns(max(d, 1))  # chunk_columns(0) divides by 0
        for lo in range(0, k, step):
            f.write(np.ascontiguousarray(arr[:, lo:lo + step].T, dtype="<f8"))
    sidecar = Path(str(path) + ".json")
    write_json({key: meta[key] for key in keys}, sidecar)
    return sidecar


def write_eigenvectors(spec: Spectrum, path: str | Path) -> Path:
    meta = {"kind": spec.kind, "level": spec.level, "c0": spec.c0,
            "normalization": NORMALIZATION, "sign_rule": SIGN_RULE}
    return write_vectors(spec.eigenvectors, meta, path)


# -- analysis reports ------------------------------------------------------

def write_counting_csv(spec: Spectrum, path: str | Path) -> None:
    """Counting-function staircase sampled at the distinct eigenvalues."""
    w = spec.eigenvalues
    xs = np.unique(w)
    _write_table(path, "x,count", xs, np.searchsorted(w, xs, side="right"))


def write_regime_json(report: RegimeReport, path: str | Path) -> None:
    write_json(dataclasses.asdict(report), path)


def write_pairing_json(matches: list[PairMatch], path: str | Path) -> None:
    write_json({"pairs": [dataclasses.asdict(p) for p in matches]}, path)


def write_localization_csv(report: LocalizationReport, path: str | Path) -> None:
    w = report.eigenvalues
    _write_table(path, "index,eigenvalue,bmf", np.arange(1, len(w) + 1), w,
                 report.boundary_mass_fraction)


def write_contour_csv(mesh: Mesh, phi: np.ndarray, eps: float,
                      path: str | Path) -> None:
    """Per-vertex sign classes of one full-mesh vector, with xy coordinates."""
    phi = mesh.vertex_values(phi)
    xy = cartesian_coordinates(mesh)
    _write_table(path, "vertex,x,y,value,class", np.arange(mesh.num_vertices),
                 xy[:, 0], xy[:, 1], phi,
                 np.array(CONTOUR_CLASSES)[contour_classes(phi, eps)])


def write_landscape_csv(vec: LandscapeVector, path: str | Path) -> None:
    """One row per operator vertex, keyed by its 0-based mesh vertex."""
    _write_table(path, "vertex,value", vec.vertex_map, vec.values)


# -- extension -------------------------------------------------------------

def write_boundary_csv(values: np.ndarray, path: str | Path) -> None:
    """Boundary data in mesh order; boundary_index is the 1-based rank of a
    boundary vertex within the sorted full-vertex list."""
    values = np.asarray(values, dtype=np.float64)
    _write_table(path, "boundary_index,value", np.arange(1, len(values) + 1),
                 values)


def read_boundary_csv(path: str | Path) -> np.ndarray:
    """The values of a boundary CSV whose indices run 1, 2, 3, ...; a bad
    header, row or cell, or a byte that is not UTF-8, raises FormatError."""
    header = "boundary_index,value"
    values: list[float] = []
    try:
        with Path(path).open("r", encoding="utf-8") as f:
            got = f.readline().rstrip("\n")
            if got != header:
                raise FormatError(f"bad header {got!r}, want {header!r}")
            for k, line in enumerate(f):
                parts = line.rstrip("\n").split(",")
                try:
                    if len(parts) != 2 or int(parts[0]) != k + 1:
                        raise ValueError(f"want index {k + 1} and 1 value")
                    values.append(float(parts[1]))
                except ValueError as exc:
                    raise FormatError(f"bad row {k + 1}: {line!r}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x}") from exc
    return np.asarray(values, dtype=np.float64)


def write_decay_csv(profile: list[tuple[int, float]], path: str | Path) -> None:
    _write_table(path, "distance,sup_abs",
                 np.array([d for d, _ in profile], dtype=np.int64),
                 np.array([s for _, s in profile], dtype=np.float64))


def write_energy_csv(values: list[float], path: str | Path) -> None:
    values = np.asarray(values, dtype=np.float64)
    _write_table(path, "level,energy", np.arange(len(values)), values)


# -- run metadata ----------------------------------------------------------

def config_hash(config: dict) -> str:
    canon = json.dumps(_plain(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_metadata(config: dict, path: str | Path) -> None:
    """Reproducibility sidecar: tool version plus the hashed run config."""
    obj = {"tool": "snowlab", "version": __version__,
           "config_hash": config_hash(config), "config": config}
    write_json(obj, path)
