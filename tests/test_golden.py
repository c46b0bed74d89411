"""Pinned output bytes of the CLI for small argv.

Each case runs one subcommand with ``--out`` under the test's temporary
directory and replaces that directory with a fixed token (the "config"
block echoes output and input paths).

Outputs whose numbers come from IEEE arithmetic and ``sqrt`` alone (the
scan and ``classify``) are the same on every host, so their sha256 is
pinned.  The other outputs, the closed-form ``profile`` CSV among them, go
through numpy's vectorized transcendental functions, whose last ulp can
differ between CPUs and numpy builds; for those the writer is pinned
instead: the text must equal a per-element reference rendering of the
values it holds.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from test_immersion import _reference_runs, reconstructed

from foliata._jsonfmt import dumps
from foliata import immersion
from foliata.cli import main
from foliata.field import GridSpec
from foliata.immersion import SurfaceMesh, build_mesh, integrate_frame, obj_chunks
from foliata.moduli import ModuliPoint, derive_params
from foliata.profile import integrate_profile

SPHERE = ["--c0", "1", "--c", "0", "--d", "-0.25", "--trivial-f",
          "--domain", "0", "3", "0", "2", "--seed", "0", "1.48"]
FIELD = ["field", "--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1",
         "--nx", "21", "--ny", "21"]
PROFILE = ["profile", "--c0", "1", "--c", "-1", "--d", "0", "--kind", "F", "--range", "0", "6"]

#: (case, argv without --out, sha256 of the output)
DIGESTS = [
    ("scan", ["scan", "--c0", "-1", "--rect", "-2", "2", "-1", "2", "--nx", "16", "--ny", "16"],
     "a1eb1158ede8cb4738777682b7e8590441bcfb2c4aa275ee1baebe6df459da65"),
    ("classify", ["classify", "--c0", "-1", "--c", "0", "--d", "0"],
     "65acb3247507a36caa60232937fe31f50bc959ebbf1194f42b81d43210ffdf9d"),
    # g's root at 0 is exactly 0.0, where the textbook formula read -8.3e-17
    ("classify-d0", ["classify", "--c0", "-1", "--c", "1.3779326785796648", "--d", "0"],
     "d8b2a6d5d27396871d81af5b6c571e307144f678ad7159afc615980fe483f87a"),
]


def _read(path, token_dir) -> str:
    return path.read_text(encoding="utf-8").replace(str(token_dir), "TMP")


def _run(tmp_path, argv, name):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name,argv,expect", DIGESTS, ids=[c[0] for c in DIGESTS])
def test_cli_output_bytes(tmp_path, name, argv, expect):
    text = _read(_run(tmp_path, argv, name), tmp_path)
    assert hashlib.sha256(text.encode()).hexdigest() == expect


def test_cli_profile_csv_rendering(tmp_path):
    text = _read(_run(tmp_path, PROFILE, "profile"), tmp_path)
    header, *rows = text.splitlines()
    assert header == "x,f,f_x"
    assert text.endswith("\n") and not text.endswith("\n\n")
    # shortest repr round-trips every double, so re-rendering the parsed
    # values must give the same text line for line
    table = [[float(t) for t in row.split(",")] for row in rows]
    assert rows == [",".join(repr(v) for v in row) for row in table]
    # the exact initial data, not the closed form's cn(-K) ~ 6e-17
    assert rows[0] == "0.0,0.0,1.0"
    sol = integrate_profile(derive_params(ModuliPoint(1, -1, 0)), "F", (0, 6), 1e-3)
    table = np.array(table)
    assert table[:, 0].tobytes() == sol.grid.tobytes()
    assert np.abs(table[:, 1] - sol.values).max() <= 1e-9
    assert np.abs(table[:, 2] - sol.derivs).max() <= 1e-9


# ---------------------------------------------------------------------------
# JSON: 17 significant digits, integral values as x.0, null for None
# ---------------------------------------------------------------------------

def _ref_float(v: float) -> str:
    if not math.isfinite(v):
        return "null"
    if v.is_integer() and abs(v) < 1e16:
        return format(v, ".1f")
    return format(v, ".17g")


def _ref_json(obj, level=0) -> str:
    pad, pad_in = "  " * level, "  " * (level + 1)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if type(obj) is int:
        return str(obj)
    if type(obj) is float:
        return _ref_float(obj)
    if type(obj) is str:
        assert all(ord(ch) >= 0x20 for ch in obj)
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if type(obj) is list:
        items = [pad_in + _ref_json(v, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if obj else "[]"
    items = [pad_in + _ref_json(k) + ": " + _ref_json(v, level + 1) for k, v in obj.items()]
    return "{\n" + ",\n".join(items) + "\n" + pad + "}" if obj else "{}"


def test_dumps_matches_reference():
    floats = [0.0, -0.0, -3.0, 1e16, 9999999999999998.0, -1e16, 0.1, 5e-324, -1e-300,
              1.5, 123456789.0, math.nan, math.inf, -math.inf]
    doc = {"floats": floats, "mixed": [*floats, True, False, None, 7, 'a"b\\', [], {}],
           "nested": [[1.0, None], {"k": [-0.0]}], "empty": {}}
    assert dumps(doc) == _ref_json(doc) + "\n"


def test_dumps_escapes_every_string():
    # config echoes user paths: each code point below 0x80 (the control
    # characters, '"' and '\\' among them) and some beyond it read back as
    # written, in a value and in a key
    for s in [*map(chr, range(0x80)), "é", "☃", "😀",
              "".join(map(chr, range(0x80))) + "é☃😀"]:
        assert json.loads(dumps(s)) == s
        assert json.loads(dumps({s: [s]})) == {s: [s]}


@pytest.mark.parametrize("array", [
    np.array([0.0, -0.0, -3.0, 1e16, 9999999999999998.0, -1e16, 0.1, 5e-324, -1e-300,
              math.nan, math.inf, -math.inf]),
    np.array([True, False, False, True]),
    np.array([]),
    np.array([], dtype=bool),
], ids=["float", "bool", "empty-float", "empty-bool"])
def test_dumps_writes_an_array_like_its_list(array):
    # a 1-d array is written by one template, byte for byte like the list
    # of its values, bare and nested inside a dict
    values = array.tolist()
    assert dumps(array) == _ref_json(values) + "\n"
    doc = {"array": array, "nested": {"k": array, "list": [array, 1.0]}}
    ref = {"array": values, "nested": {"k": values, "list": [values, 1.0]}}
    assert dumps(doc) == _ref_json(ref) + "\n"


def _assert_json_rendering(text):
    # 17 digits round-trip every double, so re-rendering the parsed values
    # must give the same text line for line
    assert text.splitlines() == _ref_json(json.loads(text)).splitlines()
    assert text.endswith("}\n")


#: (case, argv without --out, a token the output must contain)
JSON_CASES = [
    ("profile_sidecar", PROFILE, '"period": '),
    # 410 of the 1681 nodes of the constant-profile field lie outside its
    # strip |y| < pi/2: null omega entries
    ("field_guarded", ["field", "--c0", "-1", "--c", "0", "--d", "1",
                       "--domain", "-2", "2", "-2", "2", "--nx", "41", "--ny", "41"], "null"),
    # the constant-profile field has omega = -0.0 nodes
    ("field_degenerate", ["field", "--c0", "-1", "--c", "0", "--d", "1",
                          "--domain", "-0.5", "0.5", "-0.5", "0.5", "--nx", "21", "--ny", "21"],
     "-0.0"),
    ("holonomy", ["holonomy", *SPHERE, "--nx", "31", "--ny", "21", "--period", "1.0"], "true"),
]


@pytest.mark.parametrize("name,argv,token", JSON_CASES, ids=[c[0] for c in JSON_CASES])
def test_cli_json_rendering(tmp_path, name, argv, token):
    out = _run(tmp_path, argv, name)
    if name == "profile_sidecar":
        out = out.with_name(out.name + ".json")
    text = _read(out, tmp_path)
    assert token in text
    _assert_json_rendering(text)


@pytest.mark.parametrize("mode", ["residual", "shiffman", "immersion"])
def test_verify_json_rendering(tmp_path, mode):
    field = _run(tmp_path, FIELD, "field.json")
    flags = [] if mode == "residual" else ["--" + mode]
    out = _run(tmp_path, ["verify", "--input", str(field), *flags], "verify.json")
    _assert_json_rendering(_read(out, tmp_path))


# ---------------------------------------------------------------------------
# OBJ: shortest repr, valid nodes only, numbered from 1 in row order
# ---------------------------------------------------------------------------

def _ref_quads(valid):
    ny, nx = valid.shape
    return [[j * nx + i, j * nx + i + 1, (j + 1) * nx + i + 1, (j + 1) * nx + i]
            for j in range(ny - 1) for i in range(nx - 1)
            if valid[j, i] and valid[j, i + 1] and valid[j + 1, i] and valid[j + 1, i + 1]]


def _ref_obj(mesh: SurfaceMesh) -> str:
    lines = ["# foliata surface mesh"]
    lines += [f"# {key} = {mesh.metadata[key]}" for key in sorted(mesh.metadata)]
    ambient = mesh.ambient_vertices.reshape(-1, mesh.ambient_vertices.shape[-1])
    number = {}  # grid node -> 1-based OBJ index
    for node, ok in enumerate(mesh.valid.ravel().tolist()):
        if ok:
            number[node] = len(number) + 1
    for node in number:
        lines.append("v " + " ".join(repr(float(v)) for v in ambient[node]))
    for face in _ref_quads(mesh.valid):
        lines.append("f " + " ".join(str(number[v]) for v in face))
    lines += ["l " + " ".join(str(number[v]) for v in run) for run in _reference_runs(mesh.valid)]
    return "\n".join(lines) + "\n"


def test_write_obj_matches_reference():
    rng = np.random.default_rng(7)
    ny, nx = 4, 5
    special = [0.0, -0.0, 5e-324, -1e-300, 1e16, 0.1, math.nan, math.inf, -math.inf]
    ambient = rng.normal(size=(ny, nx, 4)) * 10.0 ** rng.integers(-20, 20, size=(ny, nx, 4))
    ambient.reshape(-1)[: len(special)] = special
    ambient.reshape(-1)[-len(special):] = special
    valid = np.isfinite(ambient).all(axis=-1)
    valid[2, 1] = False
    mesh = SurfaceMesh(ambient.__getitem__, valid, {"nx": nx, "c0": -1.0})
    text = "".join(obj_chunks(mesh))
    assert text.splitlines() == _ref_obj(mesh).splitlines()
    assert text == _ref_obj(mesh)


def test_write_obj_keeps_each_value_text():
    # the writer formats a bitwise-constant column once: 0.0 and -0.0
    # compare equal but must keep their own text; row 0, with no valid node,
    # writes nothing
    ny, nx = 4, 6
    rng = np.random.default_rng(5)
    ambient = rng.normal(size=(ny, nx, 3))
    ambient[0, :, 2] = 0.0
    ambient[1, :, 2] = [0.0, -0.0, 0.0, 0.0, -0.0, 0.0]
    ambient[2, :, 2] = -0.0
    ambient[3, :, 2] = [math.nan, math.inf, -math.inf, math.nan, 1.0, 1.0]
    ambient[0, :, 0] = math.inf
    ambient[0, 2, 1] = math.nan
    ambient[2, 3, 0] = -math.inf
    ambient[:, 0, 1] = 0.0
    valid = np.isfinite(ambient).all(axis=-1)
    mesh = SurfaceMesh(ambient.__getitem__, valid, {"nx": nx})
    text = "".join(obj_chunks(mesh))
    assert text == _ref_obj(mesh)
    v = [line.split() for line in text.splitlines() if line.startswith("v ")]
    assert len(v) == int(valid.sum()) == 3 * nx - 5
    assert [row[3] for row in v[:nx]] == ["0.0", "-0.0", "0.0", "0.0", "-0.0", "0.0"]
    # row 2's height column is the constant -0.0, formatted once with its sign
    assert [row[3] for row in v[nx:2 * nx - 1]] == ["-0.0"] * (nx - 1)


@pytest.mark.parametrize("point, grid, trivial_f, seed, n_valid", [
    # the disk edge: the nodes outside the chart are not written
    ((-1, -1, 1), GridSpec(-2, 2, -2, 2, 81, 81), False, None, 6519),
    ((1, 0, -0.25), GridSpec(0, 3, 0, 2, 31, 21), True, (0, 1.48), 31 * 21),
], ids=["disk-edge", "sphere-onduloid"])
def test_row_wise_lift_writes_the_full_lift(point, grid, trivial_f, seed, n_valid):
    # the writer lifts one row at a time; the reference reads the lift of
    # every row at once
    frame = integrate_frame(reconstructed(*point, grid, trivial_f=trivial_f), seed=seed)
    mesh = build_mesh(frame)
    assert int(mesh.valid.sum()) == n_valid
    text, want = "".join(obj_chunks(mesh)), _ref_obj(mesh)
    # the numbers of the lines that differ, not a diff of two 1 MB texts
    assert [k for k, (a, b) in enumerate(zip(text.split("\n"), want.split("\n"))) if a != b] == []
    assert len(text) == len(want)


MASKS = st.integers(1, 7).flatmap(lambda nx: st.lists(
    st.lists(st.booleans(), min_size=nx, max_size=nx), min_size=1, max_size=7))


@given(MASKS)
@example([[True, True, False, True, True], [False, False, False, False, False],
          [True, False, True, True, False], [True, True, True, False, True]])
@example([[False, True, False], [True, True, False], [False, True, False]])
@example([[True], [True]])
@example([[False, False], [False, False]])
def test_obj_chunks_match_reference_on_any_valid_mask(rows):
    # quads and leaves are derived from valid row by row as they are
    # written; holes, empty rows and columns, isolated nodes and one-node
    # runs must give the reference text, whose faces and leaves come from
    # loops over the grid
    valid = np.array(rows, dtype=bool)
    ny, nx = valid.shape
    rng = np.random.default_rng(valid.size)
    ambient = rng.normal(size=(ny, nx, 4))
    mesh = SurfaceMesh(ambient.__getitem__, valid, {"nx": nx, "ny": ny})
    assert "".join(obj_chunks(mesh)) == _ref_obj(mesh)


#: (case, argv without --out, number of valid nodes, each written once)
MESH_CASES = [
    ("mesh_onduloid", ["mesh", *SPHERE, "--nx", "31", "--ny", "21"], 21 * 31),
    # 20 nodes near the disk-chart edge are invalid and not written
    ("mesh_disk_edge", ["mesh", "--c0", "-1", "--c", "-1", "--d", "1",
                        "--domain", "-2", "2", "-2", "2", "--nx", "21", "--ny", "21"],
     21 * 21 - 20),
]


@pytest.mark.parametrize("name,argv,n_valid", MESH_CASES, ids=[c[0] for c in MESH_CASES])
def test_cli_obj_rendering(tmp_path, name, argv, n_valid):
    text = _read(_run(tmp_path, argv, name), tmp_path)
    lines = text.splitlines()
    n_vertices = sum(line.startswith("v ") for line in lines)
    assert n_vertices == n_valid
    for line in lines:
        tag, *tokens = line.split(" ")
        if tag == "v":
            # a coordinate is its own shortest repr, which is never a bare 0
            assert tokens == [repr(float(t)) for t in tokens], line
            assert len(tokens) == 4
        elif tag == "f":
            # four plain indices: no vt records, so no a/b corners
            assert len(tokens) == 4 and all(t.isdigit() and 1 <= int(t) <= n_vertices
                                            for t in tokens), line
        else:
            assert tag in ("#", "l"), line
    assert text.endswith("\n") and not text.endswith("\n\n")


@pytest.mark.parametrize("name,argv", [c[:2] for c in MESH_CASES],
                         ids=[c[0] for c in MESH_CASES])
def test_cli_mesh_file_is_write_obj(tmp_path, monkeypatch, name, argv):
    meshes, chunks = [], immersion.obj_chunks

    def recorded(mesh):
        meshes.append(mesh)
        return chunks(mesh)

    monkeypatch.setattr(immersion, "obj_chunks", recorded)
    out = _run(tmp_path, argv, name)
    assert len(meshes) == 1
    assert out.read_text(encoding="utf-8") == "".join(obj_chunks(meshes[0]))
