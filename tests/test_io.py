import hashlib
import inspect
import json
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from conftest import read_csv, read_json, read_mesh, read_mtx, read_snwv

from snowlab import fileio, solver
from snowlab.lattice import build_mesh, validate
from snowlab.operators import assemble
from snowlab.solver import NORMALIZATION, SIGN_RULE


def test_mesh_round_trip(mesh2, tmp_path):
    path = tmp_path / "mesh.json"
    fileio.write_mesh_json(mesh2, path)
    data = read_json(path)
    assert data["level"] == mesh2.level
    assert data["vertices"] == mesh2.vertices.tolist()
    assert data["triangles"] == mesh2.triangles.tolist()
    tags = ["b" if b else "i" for b in mesh2.edge_is_boundary]
    assert data["edges"] == [[a, b, t] for (a, b), t
                             in zip(mesh2.edges.tolist(), tags, strict=True)]
    assert data["boundary_vertices"] == np.flatnonzero(
        mesh2.boundary_flags).tolist()


def test_mesh_key_order(mesh1, tmp_path):
    path = tmp_path / "mesh.json"
    fileio.write_mesh_json(mesh1, path)
    keys = tuple(json.loads(path.read_text()).keys())
    assert keys == ("level", "vertices", "triangles", "edges",
                    "boundary_vertices")


def test_mesh_reader_validates_invariants(mesh1, tmp_path):
    # the mesh rebuilt from the file passes every invariant; the file's
    # boundary vertex list is the ends of its "b" edges, so a list with a
    # vertex left out disagrees with them
    path = tmp_path / "mesh.json"
    fileio.write_mesh_json(mesh1, path)
    assert validate(read_mesh(path)).ok, str(validate(read_mesh(path)))
    data = read_json(path)
    derived = read_mesh(path).boundary_vertices.tolist()
    assert data["boundary_vertices"] == derived
    data["boundary_vertices"] = data["boundary_vertices"][:-1]
    path.write_text(json.dumps(data))
    derived = read_mesh(path).boundary_vertices.tolist()
    assert data["boundary_vertices"] != derived


def test_mesh_reader_rejects_bad_tag(mesh1, tmp_path):
    # a boundary edge whose tag is not "b" reads as interior, which breaks
    # the triangle count of that edge
    path = tmp_path / "mesh.json"
    fileio.write_mesh_json(mesh1, path)
    data = read_json(path)
    k = [edge[2] for edge in data["edges"]].index("b")
    data["edges"][k][2] = "x"
    path.write_text(json.dumps(data))
    failed = [c.name for c in validate(read_mesh(path)).failures()]
    assert "edges belong to 1 (boundary) or 2 (interior) triangles" in failed


def test_mesh_reader_rejects_wrong_keys(tmp_path):
    # the parser takes every array from the file, so a file that lacks one
    # fails rather than reading as an empty mesh
    path = tmp_path / "mesh.json"
    path.write_text('{"level": 0}')
    with pytest.raises(KeyError):
        read_mesh(path)


# SHA-256 of mesh.json, recorded from the per-edge writer this one replaced.
MESH_JSON_DIGESTS = {
    0: "a2ea30fd190b5175325b84b290ee985f4e2e3020c2a6730e341680f205f81a35",
    1: "ba7b27becc005024c33d33418388aa0b059472a4c06a7ebee4efaba8dc9940fe",
    2: "8e18151bc56ac819abec9849d0603d66a1058ecac89e737355e8f569096b22a6",
    3: "d7b41ddb2a8f96ed745802ff1cd00f924e7cf736b29340773dec8db843998784",
}


@pytest.mark.parametrize("level", sorted(MESH_JSON_DIGESTS))
def test_mesh_json_pinned(level, tmp_path):
    path = tmp_path / "mesh.json"
    fileio.write_mesh_json(build_mesh(level), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == MESH_JSON_DIGESTS[level]


NOT_UTF8 = {
    "boundary": b"boundary_index,value\n1,\xff\n",
    "header": b"\xffboundary_index,value\n",
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8))
def test_text_readers_reject_bytes_not_utf8(tmp_path, case):
    path = tmp_path / "file"
    path.write_bytes(NOT_UTF8[case])
    with pytest.raises(fileio.FormatError, match="not UTF-8 text: byte 0xff"):
        fileio.read_boundary_csv(path)


def test_matrix_market_against_scipy(op2_full, tmp_path):
    # the whole symmetric matrix comes back under scipy's reader
    path = tmp_path / "S.mtx"
    fileio.write_matrix_market(op2_full.S, path)
    assert abs(read_mtx(path) - op2_full.S).max() == 0.0
    with pytest.raises(ValueError, match=r"^matrix not square: \(2, 3\)"):
        fileio.write_matrix_market(sparse.csr_matrix((2, 3)), path)


def test_matrix_market_header(op2_full, tmp_path):
    path = tmp_path / "S.mtx"
    fileio.write_matrix_market(op2_full.S, path)
    first = path.read_text().splitlines()[0]
    assert first == "%%MatrixMarket matrix coordinate real symmetric"


def test_matrix_market_lower_triangle_only(op2_full, tmp_path):
    path = tmp_path / "S.mtx"
    fileio.write_matrix_market(op2_full.S, path)
    lines = path.read_text().splitlines()[2:]
    for line in lines:
        i, j, _ = line.split()
        assert int(i) >= int(j)


@pytest.mark.parametrize("kind", ["full", "dirichlet", "boundary"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_matrix_market_round_trips_every_kind(level, kind, tmp_path):
    S = assemble(build_mesh(level), kind, c0=0.37).S
    path = tmp_path / "S.mtx"
    fileio.write_matrix_market(S, path)
    back = read_mtx(path)
    assert back.shape == S.shape and abs(back - S).max() == 0.0


def test_matrix_market_writes_the_lower_triangle_by_column(tmp_path):
    # a non-symmetric matrix writes its own lower triangle, column by
    # column and each column's rows in order; the upper triangle is dropped
    S = sparse.csr_matrix(np.array([[1.0, 9.0, 0.0, 9.0],
                                    [2.0, 0.0, 9.0, 0.0],
                                    [0.0, 4.0, 5.0, 9.0],
                                    [3.0, 0.0, 6.0, 0.5]]))
    path = tmp_path / "S.mtx"
    fileio.write_matrix_market(S, path)
    assert path.read_text().splitlines()[1:] == [
        "4 4 7", "1 1 1.0", "2 1 2.0", "4 1 3.0", "3 2 4.0", "3 3 5.0",
        "4 3 6.0", "4 4 0.5"]


INDEXED_READERS = {"boundary": fileio.read_boundary_csv}


@pytest.mark.parametrize("case", ["text value", "empty value", "text index",
                                  "float index", "wrong index",
                                  "missing value", "extra value"])
@pytest.mark.parametrize("reader", sorted(INDEXED_READERS))
def test_indexed_csv_reader_rejects_malformed_row(tmp_path, reader, case):
    row = {"text value": ["2", "abc"], "empty value": ["2", ""],
           "text index": ["two", "0.5"], "float index": ["2.0", "0.5"],
           "wrong index": ["3", "0.5"], "missing value": ["2"],
           "extra value": ["2", "0.5", "0.5"]}[case]
    path = tmp_path / "table.csv"
    path.write_text(f"boundary_index,value\n1,0.5\n{','.join(row)}\n")
    with pytest.raises(fileio.FormatError, match="bad row 2"):
        INDEXED_READERS[reader](path)


def test_mass_round_trip(op2_full, tmp_path):
    path = tmp_path / "mass.csv"
    fileio.write_mass_csv(op2_full.m, path)
    header, rows = read_csv(path)
    assert header == ["index", "mass"]
    assert np.array_equal(rows[:, 0], np.arange(1, len(op2_full.m) + 1))
    assert np.array_equal(rows[:, 1], op2_full.m)


def test_eigenvalues_round_trip(spec2_full, tmp_path):
    path = tmp_path / "ev.csv"
    fileio.write_eigenvalues_csv(spec2_full, path)
    header, rows = read_csv(path)
    assert header == ["index", "eigenvalue", "residual"]
    assert np.array_equal(rows[:, 0], np.arange(1, spec2_full.count + 1))
    assert np.array_equal(rows[:, 1], spec2_full.eigenvalues)
    assert np.array_equal(rows[:, 2], spec2_full.residuals)


def test_vectors_round_trip(spec2_full, tmp_path):
    path = tmp_path / "vec.snwv"
    sidecar = fileio.write_eigenvectors(spec2_full, path)
    assert sidecar == tmp_path / "vec.snwv.json"
    arr, meta = read_snwv(path)
    assert np.array_equal(arr, spec2_full.eigenvectors)
    assert meta == {"kind": "full", "level": 2, "c0": 1.0,
                    "normalization": NORMALIZATION, "sign_rule": SIGN_RULE}
    # kind, level and c0 are the solved operator's, in the documented order
    spec = solver.eig_full(assemble(build_mesh(1), "boundary", 0.37))
    fileio.write_eigenvectors(spec, path)
    arr, meta = read_snwv(path)
    assert np.array_equal(arr, spec.eigenvectors)
    assert list(meta.items()) == [
        ("kind", "boundary"), ("level", 1), ("c0", 0.37),
        ("normalization", NORMALIZATION), ("sign_rule", SIGN_RULE)]


def test_vectors_binary_layout(tmp_path):
    values = np.array([[1.0, 3.0], [2.0, 4.0]])  # (d=2, k=2)
    meta = {"kind": "extension", "level": 0, "c0": 1.0,
            "normalization": "none", "sign_rule": "none"}
    path = tmp_path / "v.snwv"
    fileio.write_vectors(values, meta, path)
    raw = path.read_bytes()
    assert raw[:4] == b"SNWV"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:16], "little") == 2
    assert int.from_bytes(raw[16:24], "little") == 2
    # vector-by-vector: first column then second
    payload = np.frombuffer(raw[24:], dtype="<f8")
    assert np.array_equal(payload, [1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("order", ("F", "C"))
def test_vectors_streamed_in_blocks(spec2_full, tmp_path, chunk_width, order):
    # several column blocks must give the bytes of one whole-array write
    arr = np.asarray(spec2_full.eigenvectors, order=order)
    d, k = arr.shape
    chunk_width(7, d)
    meta = {"kind": "full", "level": 2, "c0": 1.0,
            "normalization": "x", "sign_rule": "y"}
    path = tmp_path / "v.snwv"
    fileio.write_vectors(arr, meta, path)
    payload = path.read_bytes()[24:]
    assert payload == np.ascontiguousarray(arr.T, dtype="<f8").tobytes()


def test_vectors_read_in_place(tmp_path):
    # the payload is the (d, k) array in column-major order, so the parser
    # takes it in place as one F-ordered array: no second copy
    values = np.random.default_rng(3).standard_normal((2000, 300))
    meta = {"kind": "full", "level": 3, "c0": 1.0,
            "normalization": "x", "sign_rule": "y"}
    path = tmp_path / "v.snwv"
    fileio.write_vectors(values, meta, path)
    tracemalloc.start()
    try:
        arr, _ = read_snwv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert arr.flags.f_contiguous
    assert np.array_equal(arr, values)
    assert peak <= 1.1 * values.nbytes


def test_vectors_bad_magic(tmp_path):
    path = tmp_path / "v.snwv"
    path.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(AssertionError):
        read_snwv(path)


def test_vectors_truncated(tmp_path):
    # the file holds the whole payload, and the parser fails on one that
    # lacks a value
    values = np.ones((4, 2))
    meta = {"kind": "extension", "level": 0, "c0": 1.0,
            "normalization": "none", "sign_rule": "none"}
    path = tmp_path / "v.snwv"
    fileio.write_vectors(values, meta, path)
    assert np.array_equal(read_snwv(path)[0], values)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_snwv(path)


def test_vectors_reader_rejects_malformed_sidecar(tmp_path):
    path = tmp_path / "v.snwv"
    fileio.write_vectors(np.ones(1), {"kind": "extension", "level": 0,
                                      "c0": 1.0, "normalization": "none",
                                      "sign_rule": "none"}, path)
    (tmp_path / "v.snwv.json").write_text('{"kind": ')
    with pytest.raises(json.JSONDecodeError):
        read_snwv(path)


def test_vectors_meta_required(tmp_path):
    with pytest.raises(ValueError):
        fileio.write_vectors(np.ones(3), {"kind": "x"}, tmp_path / "v.snwv")
    # the sidecar holds exactly the five keys: an extra one is rejected too
    meta = {"kind": "extension", "level": 0, "c0": 1.0,
            "normalization": "none", "sign_rule": "none", "note": "x"}
    with pytest.raises(ValueError, match="note"):
        fileio.write_vectors(np.ones(3), meta, tmp_path / "v.snwv")
    # and the values are one vector or a (d, k) array
    del meta["note"]
    with pytest.raises(ValueError, match=r"^values must be \(d,\) or \(d, k\)"):
        fileio.write_vectors(np.ones((2, 2, 2)), meta, tmp_path / "v.snwv")


def test_write_json_plain_values(tmp_path):
    # numpy scalars and arrays become plain numbers, booleans and lists,
    # and non-finite floats become null
    path = tmp_path / "x.json"
    fileio.write_json({"i": np.int64(3), "f": np.float32(0.5),
                       "b": np.bool_(True), "ld": np.longdouble(1.5),
                       "nan": float("nan"), "inf": np.float64(np.inf),
                       "a": np.array([[1.0, np.nan], [2.0, 3.0]]),
                       "t": (np.int32(1), {"k": np.float64(2.5)})}, path)
    assert json.loads(path.read_text()) == {
        "i": 3, "f": 0.5, "b": True, "ld": 1.5, "nan": None, "inf": None,
        "a": [[1.0, None], [2.0, 3.0]], "t": [1, {"k": 2.5}]}


def test_boundary_round_trip(tmp_path, rng):
    values = rng.standard_normal(12)
    path = tmp_path / "bd.csv"
    fileio.write_boundary_csv(values, path)
    header, rows = read_csv(path)
    assert header == ["boundary_index", "value"]
    assert np.array_equal(rows[:, 0], np.arange(1, 13))
    assert np.array_equal(rows[:, 1], values)
    assert np.array_equal(fileio.read_boundary_csv(path), values)
    path.write_text("index,value\n1,0.5\n")
    with pytest.raises(fileio.FormatError, match="^bad header 'index,value'"):
        fileio.read_boundary_csv(path)


def test_counting_csv(spec2_full, tmp_path):
    path = tmp_path / "count.csv"
    fileio.write_counting_csv(spec2_full, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,count"
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    counts = [int(l.split(",")[1]) for l in lines[1:]]
    assert xs == sorted(xs)
    assert counts[-1] == spec2_full.count
    assert all(c2 > c1 for c1, c2 in zip(counts, counts[1:]))


def test_contour_csv(mesh1, spec2_full, tmp_path):
    # vector length must match the mesh
    with pytest.raises(ValueError):
        fileio.write_contour_csv(mesh1, np.ones(5), 0.01, tmp_path / "c.csv")
    phi = np.linspace(-1, 1, mesh1.num_vertices)
    fileio.write_contour_csv(mesh1, phi, 0.01, tmp_path / "c.csv")
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "vertex,x,y,value,class"
    assert len(lines) == 1 + mesh1.num_vertices
    classes = {l.split(",")[4] for l in lines[1:]}
    assert classes <= {"zero", "pos", "neg"}


def test_float_formatting_round_trips(tmp_path):
    # shortest-repr floats must parse back to the same bits
    values = np.array([1 / 3, 1e-300, 2**-52, 157464.0, 9.87654321e17])
    path = tmp_path / "m.csv"
    fileio.write_mass_csv(values, path)
    assert np.array_equal(read_csv(path)[1][:, 1], values)


def test_table_dialect(tmp_path, monkeypatch):
    path = tmp_path / "table.txt"
    columns = (np.arange(1, 6), np.array([0.1, 2.0, -0.0, 1e-300, 157464.0]),
               np.array(["a", "b", "c", "d", "e"]))
    want = (b"h1\nh2\n1 0.1 a\n2 2.0 b\n3 -0.0 c\n4 1e-300 d\n"
            b"5 157464.0 e\n")
    fileio._write_table(path, "h1\nh2", *columns, sep=" ")
    assert path.read_bytes() == want
    # rows formatted in blocks come out the same
    monkeypatch.setattr(fileio, "TABLE_BLOCK_ROWS", 2)
    fileio._write_table(path, "h1\nh2", *columns, sep=" ")
    assert path.read_bytes() == want
    with pytest.raises(ValueError):
        fileio._write_table(path, "a,b", [1, 2], [1.0])


def test_fileio_functions_for_the_tracer():
    # perfbench/tracer.py times every public fileio function by its read_
    # or write_ prefix and finds each written file by the parameter "path"
    public = {name: fn for name, fn in vars(fileio).items()
              if inspect.isfunction(fn) and fn.__module__ == fileio.__name__}
    assert [n for n in public if n.startswith("read_")] == ["read_boundary_csv"]
    writers = [n for n in public if n.startswith("write_")]
    assert writers
    for name in writers:
        assert "path" in inspect.signature(public[name]).parameters, name


def test_solver_functions_for_the_tracer(op2_full, monkeypatch):
    # perfbench/tracer.py times solver.eig_full and solver.eig_partial by
    # name, so eig_full must not reach eig_partial through the module, and
    # the signatures are the calls perfbench/workloads.py and the CLI make
    def refuse(*args, **kwargs):
        raise AssertionError("eig_full called solver.eig_partial")

    monkeypatch.setattr(solver, "eig_partial", refuse)
    assert solver.eig_full(op2_full).count == op2_full.dimension
    monkeypatch.undo()
    assert str(inspect.signature(solver.eig_full)) == (
        "(op: 'OperatorBundle') -> 'Spectrum'")
    assert str(inspect.signature(solver.eig_partial)) == (
        "(op: 'OperatorBundle', k: 'int', which: 'str' = 'smallest', "
        "seed: 'int' = 0) -> 'Spectrum'")


def test_byte_identical_rewrites(mesh2, op2_full, tmp_path):
    pairs = [
        ("mesh.json", lambda p: fileio.write_mesh_json(mesh2, p)),
        ("S.mtx", lambda p: fileio.write_matrix_market(op2_full.S, p)),
        ("meta.json", lambda p: fileio.write_metadata({"level": 2}, p)),
    ]
    for name, write in pairs:
        path = tmp_path / name
        write(path)
        first = path.read_bytes()
        write(path)
        assert path.read_bytes() == first, name


def test_config_hash_key_order_invariant():
    a = {"level": 2, "kind": "full", "c0": 1.0}
    b = {"c0": 1.0, "kind": "full", "level": 2}
    assert fileio.config_hash(a) == fileio.config_hash(b)
    assert fileio.config_hash(a) != fileio.config_hash({**a, "level": 3})


def test_metadata_contents(tmp_path):
    path = tmp_path / "metadata.json"
    cfg = {"level": 1, "kind": "full"}
    fileio.write_metadata(cfg, path)
    meta = json.loads(path.read_text())
    assert meta["tool"] == "snowlab"
    assert meta["config"] == cfg
    assert meta["config_hash"] == fileio.config_hash(cfg)
