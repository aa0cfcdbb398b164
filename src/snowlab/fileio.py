"""Readers and writers for the on-disk formats.

Every writer is deterministic: fixed key order, fixed row order, LF line
endings, and floats rendered with repr() (shortest round-trip).  Rerunning
with the same inputs reproduces each file byte for byte.  All CSV files and
the entry block of MatrixMarket files are one table dialect, written by
`_write_table`: a header, then one row per entry of equal-length columns.
A reader that finds a malformed header, row or cell raises FormatError.

Index conventions: CSV files that refer to matrix rows or spectrum positions
are 1-based, matching MatrixMarket; files that refer to mesh vertices
("vertex" columns) are 0-based, matching the indices inside the mesh JSON.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
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
from .lattice import Mesh, MeshInvariantError, cartesian_coordinates, validate
from .solver import NORMALIZATION, SIGN_RULE, Spectrum

MESH_KEYS = ("level", "vertices", "triangles", "edges", "boundary_vertices")
MM_HEADER = "%%MatrixMarket matrix coordinate real symmetric"
VECTOR_MAGIC = b"SNWV"
VECTOR_VERSION = 1
VECTOR_HEADER = struct.Struct("<4sIQQ")  # magic, version, d, k
WRITE_BLOCK_BYTES = 1 << 24
TABLE_BLOCK_ROWS = 1 << 16


class FormatError(Exception):
    """A file does not conform to the expected format."""


@contextlib.contextmanager
def _read_text(path: str | Path):
    """Open `path` for reading as UTF-8 text; bytes that do not decode, met
    anywhere in the `with` block, raise FormatError."""
    try:
        with Path(path).open("r", encoding="utf-8") as f:
            yield f
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x}") from exc


def _read_json(path: str | Path, parse_float=float) -> Any:
    with _read_text(path) as f:
        try:
            return json.load(f, parse_float=parse_float)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc


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
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
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


def _integer_rows(value: Any, name: str, width: int | None) -> np.ndarray:
    """A JSON list of integer lists, each `width` long, as an int64 array;
    with width None, a JSON list of integers."""
    rows = np.asarray(value)
    shape = () if width is None else (width,)
    if rows.dtype.kind != "i" or rows.ndim == 0 or rows.shape[1:] != shape:
        what = "integers" if width is None else f"{width}-integer lists"
        raise ValueError(f"{name} must be a list of {what}")
    return rows.astype(np.int64, copy=False)


def read_mesh_json(path: str | Path) -> Mesh:
    """Load a mesh file and re-check every mesh invariant.  A mesh file
    holds no float: float tokens read as strings, which no integer check
    passes."""
    data = _read_json(path, parse_float=str)
    if not isinstance(data, dict):
        raise FormatError(
            f"mesh file holds a JSON {type(data).__name__}, want an object")
    if tuple(data.keys()) != MESH_KEYS:
        raise FormatError(f"mesh file keys {tuple(data.keys())}, want {MESH_KEYS}")
    level = data["level"]
    if type(level) is not int or level < 0:  # a bool is an int too
        raise FormatError(f"bad level {level!r}")
    try:
        vertices = _integer_rows(data["vertices"], "vertices", 2)
        triangles = _integer_rows(data["triangles"], "triangles", 3)
        raw_edges = np.array(data["edges"], dtype=object)
        ends, tags = raw_edges[:, :2], raw_edges[:, 2]
        # int("7") is 7: compare to reject the strings that cast cleanly
        edges = ends.astype(np.int64)
        if not (ends == edges).all():
            raise ValueError("edge ends must be integers")
        bv = _integer_rows(data["boundary_vertices"], "boundary_vertices", None)
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise FormatError(f"malformed mesh arrays: {exc}") from exc
    edge_is_boundary = tags == "b"
    if not np.all(edge_is_boundary | (tags == "i")):
        raise FormatError("edge tags must be 'b' or 'i'")
    boundary_flags = np.zeros(len(vertices), dtype=bool)
    if bv.min() < 0 or bv.max() >= len(vertices):
        raise FormatError("boundary_vertices out of range")
    boundary_flags[bv] = True
    mesh = Mesh(level=level, vertices=vertices, triangles=triangles,
                edges=edges, edge_is_boundary=edge_is_boundary,
                boundary_flags=boundary_flags)
    report = validate(mesh)
    if not report.ok:
        failed = [c.name for c in report.checks if not c.passed]
        raise MeshInvariantError(f"mesh file violates invariants: {failed}")
    return mesh


# -- operator --------------------------------------------------------------

def write_matrix_market(S: sp.spmatrix, path: str | Path) -> None:
    """Lower triangle of a symmetric sparse matrix, 1-based, column-major."""
    d = S.shape[0]
    if S.shape[1] != d:
        raise ValueError(f"matrix not square: {S.shape}")
    low = sp.tril(S, format="coo")
    order = np.lexsort((low.row, low.col))
    _write_table(path, f"{MM_HEADER}\n{d} {d} {low.nnz}",
                 low.row[order] + 1, low.col[order] + 1,
                 low.data[order].astype(np.float64, copy=False), sep=" ")


def read_matrix_market(path: str | Path) -> sp.csr_matrix:
    """Parse our symmetric coordinate files back to a full CSR matrix."""
    with _read_text(path) as f:
        header = f.readline().rstrip("\n")
        if header != MM_HEADER:
            raise FormatError(f"bad MatrixMarket header: {header!r}")
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        try:
            nrows, ncols, nnz = (int(t) for t in line.split())
        except ValueError as exc:
            raise FormatError(f"bad size line: {line!r}") from exc
        if min(nrows, nnz) < 0:
            raise FormatError(f"bad size line: {line!r}")
        if nrows != ncols:
            raise FormatError("symmetric matrix must be square")
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        for k in range(nnz):
            parts = f.readline().split()
            try:
                if len(parts) != 3:
                    raise ValueError(f"{len(parts)} cells, want 3")
                rows[k] = int(parts[0]) - 1
                cols[k] = int(parts[1]) - 1
                vals[k] = float(parts[2])
            except ValueError as exc:
                raise FormatError(f"bad entry line {k + 1}") from exc
        extra = f.readline()
        if extra:
            raise FormatError(
                f"line after the {nnz} declared entries: {extra!r}")
    if nnz and (rows < cols).any():
        raise FormatError("entries above the diagonal in a symmetric file")
    if nnz and (cols.min() < 0 or rows.max() >= nrows):
        raise FormatError(f"entry index outside the {nrows} x {nrows} matrix")
    off = rows != cols
    full_rows = np.concatenate([rows, cols[off]])
    full_cols = np.concatenate([cols, rows[off]])
    full_vals = np.concatenate([vals, vals[off]])
    S = sp.coo_matrix((full_vals, (full_rows, full_cols)), shape=(nrows, ncols))
    return S.tocsr()


def write_mass_csv(m: np.ndarray, path: str | Path) -> None:
    m = np.asarray(m, dtype=np.float64)
    _write_table(path, "index,mass", np.arange(1, len(m) + 1), m)


def read_mass_csv(path: str | Path) -> np.ndarray:
    return _read_indexed_csv(path, "index,mass", 1)[0]


# -- spectrum --------------------------------------------------------------

def write_eigenvalues_csv(spec: Spectrum, path: str | Path) -> None:
    _write_table(path, "index,eigenvalue,residual",
                 np.arange(1, spec.count + 1), spec.eigenvalues, spec.residuals)


def read_eigenvalues_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    cols = _read_indexed_csv(path, "index,eigenvalue,residual", 2)
    return cols[0], cols[1]


def _read_indexed_csv(path: str | Path, header: str, ncols: int) -> list[np.ndarray]:
    """Shared reader for 1-based 'index,...' CSVs; checks index contiguity."""
    with _read_text(path) as f:
        got = f.readline().rstrip("\n")
        if got != header:
            raise FormatError(f"bad header {got!r}, want {header!r}")
        out: list[list[float]] = [[] for _ in range(ncols)]
        for k, line in enumerate(f):
            parts = line.rstrip("\n").split(",")
            try:
                if len(parts) != 1 + ncols or int(parts[0]) != k + 1:
                    raise ValueError(f"want index {k + 1} and {ncols} values")
                for c in range(ncols):
                    out[c].append(float(parts[1 + c]))
            except ValueError as exc:
                raise FormatError(f"bad row {k + 1}: {line!r}") from exc
    return [np.asarray(col, dtype=np.float64) for col in out]


def write_vectors(values: np.ndarray, meta: dict, path: str | Path) -> Path:
    """Binary vector block plus JSON sidecar at <path>.json.

    Layout: magic "SNWV", u32 version, u64 dimension d, u64 count k, then
    k*d little-endian float64 values, vector by vector.  `meta` must carry
    kind, level, c0, normalization and sign_rule; extra keys are kept.
    The payload is streamed in column blocks of about 16 MB, with no copy
    at all for a column-major block.
    """
    required = ("kind", "level", "c0", "normalization", "sign_rule")
    missing = [k for k in required if k not in meta]
    if missing:
        raise ValueError(f"vector metadata missing {missing}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"values must be (d,) or (d, k), got {arr.shape}")
    d, k = arr.shape
    path = Path(path)
    with path.open("wb") as f:
        f.write(VECTOR_HEADER.pack(VECTOR_MAGIC, VECTOR_VERSION, d, k))
        step = max(1, WRITE_BLOCK_BYTES // (8 * max(d, 1)))
        for lo in range(0, k, step):
            f.write(np.ascontiguousarray(arr[:, lo:lo + step].T, dtype="<f8"))
    sidecar = Path(str(path) + ".json")
    ordered = {key: meta[key] for key in required}
    for key in sorted(meta):
        if key not in ordered:
            ordered[key] = meta[key]
    write_json(ordered, sidecar)
    return sidecar


def write_eigenvectors(spec: Spectrum, path: str | Path) -> Path:
    meta = {"kind": spec.kind, "level": spec.level, "c0": spec.c0,
            "normalization": NORMALIZATION, "sign_rule": SIGN_RULE}
    return write_vectors(spec.eigenvectors, meta, path)


def read_vectors(path: str | Path) -> tuple[np.ndarray, dict]:
    """Return ((d, k) column-major array, sidecar dict); sidecar {} when
    absent."""
    path = Path(path)
    with path.open("rb") as f:
        head = f.read(VECTOR_HEADER.size)
        if head[:4] != VECTOR_MAGIC:
            raise FormatError(f"bad magic {head[:4]!r}")
        if len(head) < VECTOR_HEADER.size:
            raise FormatError(f"{len(head)} bytes, shorter than the "
                              f"{VECTOR_HEADER.size}-byte header")
        _, version, d, k = VECTOR_HEADER.unpack(head)
        if version != VECTOR_VERSION:
            raise FormatError(f"unsupported version {version}")
        # check the declared size against the file before allocating it
        want = 8 * d * k
        have = os.fstat(f.fileno()).st_size - VECTOR_HEADER.size
        if have < want:
            raise FormatError(f"truncated vector payload: {d} x {k} values "
                              f"need {want} bytes, the file holds {have}")
        if have > want:
            raise FormatError(f"{have - want} bytes after the {d} x {k} "
                              f"vector payload")
        # the payload is vector by vector, which is column-major (d, k):
        # read it straight into that array
        arr = np.empty((d, k), dtype="<f8", order="F")
        if f.readinto(arr.T) != arr.nbytes:
            raise FormatError("truncated vector payload")
    sidecar = Path(str(path) + ".json")
    meta: dict = {}
    if sidecar.exists():
        meta = _read_json(sidecar)
    return arr, meta


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
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (mesh.num_vertices,):
        raise ValueError(f"vector length {phi.shape} does not cover the mesh")
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
    return _read_indexed_csv(path, "boundary_index,value", 1)[0]


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
           "config_hash": config_hash(config), "config": _plain(config)}
    write_json(obj, path)
