import hashlib
import json
import tracemalloc

import numpy as np
import pytest
import scipy.io

from snowlab import fileio
from snowlab.lattice import MeshInvariantError, build_mesh
from snowlab.operators import assemble


def test_mesh_round_trip(mesh2, tmp_path):
    path = tmp_path / "mesh.json"
    fileio.write_mesh_json(mesh2, path)
    back = fileio.read_mesh_json(path)
    assert back.level == mesh2.level
    assert np.array_equal(back.vertices, mesh2.vertices)
    assert np.array_equal(back.triangles, mesh2.triangles)
    assert np.array_equal(back.edges, mesh2.edges)
    assert np.array_equal(back.edge_is_boundary, mesh2.edge_is_boundary)
    assert np.array_equal(back.boundary_flags, mesh2.boundary_flags)


def test_mesh_key_order(mesh1, tmp_path):
    path = tmp_path / "mesh.json"
    fileio.write_mesh_json(mesh1, path)
    keys = tuple(json.loads(path.read_text()).keys())
    assert keys == ("level", "vertices", "triangles", "edges",
                    "boundary_vertices")


def test_mesh_reader_rejects_bad_tag(mesh1, tmp_path):
    path = tmp_path / "mesh.json"
    fileio.write_mesh_json(mesh1, path)
    data = json.loads(path.read_text())
    data["edges"][0][2] = "x"
    path.write_text(json.dumps(data))
    with pytest.raises(fileio.FormatError):
        fileio.read_mesh_json(path)


@pytest.mark.parametrize("row", [[0, 1], [0, 1, None], [0, 1, ["b"]],
                                 ["a", 1, "b"], 7])
def test_mesh_reader_rejects_malformed_edge(mesh1, tmp_path, row):
    path = tmp_path / "mesh.json"
    fileio.write_mesh_json(mesh1, path)
    data = json.loads(path.read_text())
    data["edges"][3] = row
    path.write_text(json.dumps(data))
    with pytest.raises(fileio.FormatError):
        fileio.read_mesh_json(path)


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


# values that a reshape or an integer cast turns into level-0 mesh arrays
@pytest.mark.parametrize("key, value, message", [
    ("level", True, "bad level True"),
    ("vertices", [[0, 0, 0], [1, 1, 0]], "vertices must be a list of 2-"),
    ("vertices", [0, 0, 0, 1, 1, 0], "vertices must be a list of 2-"),
    ("vertices", [[0, 0], [0, 1], [1.0, 0]], "vertices must be a list of 2-"),
    ("triangles", [0, 1, 2], "triangles must be a list of 3-"),
    ("triangles", [[0, 1], [2, 0], [1, 2]], "triangles must be a list of 3-"),
    ("edges", [[0, 1, "b"], [0, 2, "b"], [1.0, 2.9, "b"]], "malformed mesh"),
    ("edges", [[0, 1, "b"], [0, 2, "b"], ["1", 2, "b"]],
     "edge ends must be integers"),
    ("boundary_vertices", [0, 1.7, 2], "boundary_vertices must be a list of "),
    ("boundary_vertices", ["0", 1, 2], "boundary_vertices must be a list of "),
])
def test_mesh_reader_rejects_reshaped_arrays(mesh0, tmp_path, key, value,
                                             message):
    path = tmp_path / "mesh.json"
    fileio.write_mesh_json(mesh0, path)
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))
    with pytest.raises(fileio.FormatError, match=message):
        fileio.read_mesh_json(path)


def test_mesh_reader_validates_invariants(mesh1, tmp_path):
    path = tmp_path / "mesh.json"
    fileio.write_mesh_json(mesh1, path)
    data = json.loads(path.read_text())
    data["boundary_vertices"] = data["boundary_vertices"][:-1]
    path.write_text(json.dumps(data))
    with pytest.raises(MeshInvariantError):
        fileio.read_mesh_json(path)


def test_mesh_reader_rejects_wrong_keys(tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text('{"level": 0}')
    with pytest.raises(fileio.FormatError):
        fileio.read_mesh_json(path)


@pytest.mark.parametrize("text, message", [
    ('{"level": 0,', "invalid JSON"),
    ("", "invalid JSON"),
    ("[1, 2]", "JSON list, want an object"),
    ('"mesh"', "JSON str, want an object"),
])
def test_mesh_reader_rejects_malformed_json(tmp_path, text, message):
    path = tmp_path / "mesh.json"
    path.write_text(text)
    with pytest.raises(fileio.FormatError, match=message):
        fileio.read_mesh_json(path)


NOT_UTF8 = {
    "boundary": (fileio.read_boundary_csv, b"boundary_index,value\n1,\xff\n"),
    "mass": (fileio.read_mass_csv, b"index,mass\n1,0.5\n2,\xff\n"),
    "eigenvalues": (fileio.read_eigenvalues_csv,
                    b"index,eigenvalue,residual\n1,\xff,0.0\n"),
    "header": (fileio.read_boundary_csv, b"\xffboundary_index,value\n"),
    "matrix market": (fileio.read_matrix_market,
                      b"%%MatrixMarket matrix coordinate real symmetric\n"
                      b"1 1 1\n1 1 \xff\n"),
    "mesh": (fileio.read_mesh_json, b'{"level": \xff}'),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8))
def test_text_readers_reject_bytes_not_utf8(tmp_path, case):
    read, raw = NOT_UTF8[case]
    path = tmp_path / "file"
    path.write_bytes(raw)
    with pytest.raises(fileio.FormatError, match="not UTF-8 text: byte 0xff"):
        read(path)


def test_matrix_market_against_scipy(op2_full, tmp_path):
    # dual route: our writer must parse identically under scipy's reader
    path = tmp_path / "S.mtx"
    fileio.write_matrix_market(op2_full.S, path)
    ours = fileio.read_matrix_market(path)
    theirs = scipy.io.mmread(path).tocsr()
    assert abs(ours - theirs).max() == 0.0
    assert abs(ours - op2_full.S).max() == 0.0


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


def test_matrix_market_reader_rejects_upper(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 1\n1 2 5.0\n")
    with pytest.raises(fileio.FormatError):
        fileio.read_matrix_market(path)


@pytest.mark.parametrize("line, message", [
    ("2 1 abc", "bad entry line 2"),
    ("2 x 1.0", "bad entry line 2"),
    ("2.0 1 1.0", "bad entry line 2"),
    ("2 1", "bad entry line 2"),
    ("2 1 1.0 7", "bad entry line 2"),
    ("", "bad entry line 2"),
    ("3 1 1.0", "outside the 2 x 2 matrix"),
    ("0 0 1.0", "outside the 2 x 2 matrix"),
    ("2 1 1.0\n2 2 3.0", "line after the 2 declared entries: '2 2 3.0"),
    ("2 1 1.0\n", r"line after the 2 declared entries: '\\n'"),
])
def test_matrix_market_reader_rejects_malformed_entry(tmp_path, line, message):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    f"2 2 2\n1 1 4.0\n{line}\n")
    with pytest.raises(fileio.FormatError, match=message):
        fileio.read_matrix_market(path)


@pytest.mark.parametrize("line, message", [
    ("2 2", "bad size line"),
    ("2 2 x", "bad size line"),
    ("-1 -1 0", "bad size line"),
    ("2 2 -1", "bad size line"),
    ("2 3 1", "must be square"),
])
def test_matrix_market_reader_rejects_bad_size_line(tmp_path, line, message):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    f"{line}\n1 1 4.0\n")
    with pytest.raises(fileio.FormatError, match=message):
        fileio.read_matrix_market(path)


INDEXED_READERS = {
    "boundary": (fileio.read_boundary_csv, "boundary_index,value", 1),
    "mass": (fileio.read_mass_csv, "index,mass", 1),
    "eigenvalues": (fileio.read_eigenvalues_csv, "index,eigenvalue,residual", 2),
}


@pytest.mark.parametrize("case", ["text value", "empty value", "text index",
                                  "float index", "wrong index",
                                  "missing value", "extra value"])
@pytest.mark.parametrize("reader", sorted(INDEXED_READERS))
def test_indexed_csv_reader_rejects_malformed_row(tmp_path, reader, case):
    read, header, ncols = INDEXED_READERS[reader]
    more = ["0.5"] * (ncols - 1)
    row = {"text value": ["2", "abc", *more], "empty value": ["2", "", *more],
           "text index": ["two", "0.5", *more],
           "float index": ["2.0", "0.5", *more],
           "wrong index": ["3", "0.5", *more], "missing value": ["2", *more],
           "extra value": ["2", "0.5", "0.5", *more]}[case]
    path = tmp_path / "table.csv"
    path.write_text(f"{header}\n1,{','.join(['0.5'] * ncols)}\n"
                    f"{','.join(row)}\n")
    with pytest.raises(fileio.FormatError, match="bad row 2"):
        read(path)


def test_mass_round_trip(op2_full, tmp_path):
    path = tmp_path / "mass.csv"
    fileio.write_mass_csv(op2_full.m, path)
    assert np.array_equal(fileio.read_mass_csv(path), op2_full.m)
    assert path.read_text().splitlines()[0] == "index,mass"


def test_eigenvalues_round_trip(spec2_full, tmp_path):
    path = tmp_path / "ev.csv"
    fileio.write_eigenvalues_csv(spec2_full, path)
    w, r = fileio.read_eigenvalues_csv(path)
    assert np.array_equal(w, spec2_full.eigenvalues)
    assert np.array_equal(r, spec2_full.residuals)
    assert path.read_text().splitlines()[0] == "index,eigenvalue,residual"


def test_vectors_round_trip(spec2_full, tmp_path):
    path = tmp_path / "vec.snwv"
    sidecar = fileio.write_eigenvectors(spec2_full, path)
    arr, meta = fileio.read_vectors(path)
    assert np.array_equal(arr, spec2_full.eigenvectors)
    assert sidecar.exists()
    assert meta["kind"] == "full"
    assert meta["level"] == 2
    assert meta["c0"] == 1.0
    assert "normalization" in meta and "sign_rule" in meta


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
def test_vectors_streamed_in_blocks(spec2_full, tmp_path, monkeypatch, order):
    # several column blocks must give the bytes of one whole-array write
    arr = np.asarray(spec2_full.eigenvectors, order=order)
    d, k = arr.shape
    monkeypatch.setattr(fileio, "WRITE_BLOCK_BYTES", 8 * d * 7)
    meta = {"kind": "full", "level": 2, "c0": 1.0,
            "normalization": "x", "sign_rule": "y"}
    path = tmp_path / "v.snwv"
    fileio.write_vectors(arr, meta, path)
    payload = path.read_bytes()[24:]
    assert payload == np.ascontiguousarray(arr.T, dtype="<f8").tobytes()


def test_vectors_read_in_place(tmp_path):
    # one F-ordered array receives the payload: no second copy
    values = np.random.default_rng(3).standard_normal((2000, 300))
    meta = {"kind": "full", "level": 3, "c0": 1.0,
            "normalization": "x", "sign_rule": "y"}
    path = tmp_path / "v.snwv"
    fileio.write_vectors(values, meta, path)
    tracemalloc.start()
    try:
        arr, _ = fileio.read_vectors(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert arr.flags.f_contiguous
    assert np.array_equal(arr, values)
    assert peak <= 1.1 * values.nbytes


def test_vectors_bad_magic(tmp_path):
    path = tmp_path / "v.snwv"
    path.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(fileio.FormatError):
        fileio.read_vectors(path)


def test_vectors_truncated(tmp_path):
    values = np.ones((4, 2))
    meta = {"kind": "extension", "level": 0, "c0": 1.0,
            "normalization": "none", "sign_rule": "none"}
    path = tmp_path / "v.snwv"
    fileio.write_vectors(values, meta, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(fileio.FormatError):
        fileio.read_vectors(path)


def _vector_file(path, d, k, payload):
    path.write_bytes(b"SNWV" + (1).to_bytes(4, "little")
                     + d.to_bytes(8, "little") + k.to_bytes(8, "little")
                     + payload)


@pytest.mark.parametrize("case, message", [
    ("short header", "14 bytes, shorter than the 24-byte header"),
    ("huge header", "truncated vector payload"),
    ("trailing bytes", "8 bytes after the 1 x 1 vector payload"),
])
def test_vectors_reader_checks_size(tmp_path, case, message):
    path = tmp_path / "v.snwv"
    if case == "short header":
        path.write_bytes(b"SNWV" + bytes(10))
    elif case == "huge header":
        _vector_file(path, 2 ** 40, 2 ** 20, bytes(8))
    else:
        _vector_file(path, 1, 1, bytes(16))
    with pytest.raises(fileio.FormatError, match=message):
        fileio.read_vectors(path)


def test_vectors_reader_rejects_malformed_sidecar(tmp_path):
    path = tmp_path / "v.snwv"
    _vector_file(path, 1, 1, bytes(8))
    (tmp_path / "v.snwv.json").write_text('{"kind": ')
    with pytest.raises(fileio.FormatError, match="invalid JSON"):
        fileio.read_vectors(path)


def test_vectors_meta_required(tmp_path):
    with pytest.raises(ValueError):
        fileio.write_vectors(np.ones(3), {"kind": "x"}, tmp_path / "v.snwv")


def test_boundary_round_trip(tmp_path, rng):
    values = rng.standard_normal(12)
    path = tmp_path / "bd.csv"
    fileio.write_boundary_csv(values, path)
    assert np.array_equal(fileio.read_boundary_csv(path), values)


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
    assert np.array_equal(fileio.read_mass_csv(path), values)


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
