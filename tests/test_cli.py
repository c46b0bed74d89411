import json
import math

import numpy as np
import pytest

from foliata._jsonfmt import dumps, format_float
from foliata.cli import main


def run(tmp_path, *argv):
    return main(list(argv))


def test_classify_inside(tmp_path, capsys):
    code = main(["classify", "--c0", "-1", "--c", "-1", "--d", "-1"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["label"] == "RiemannFamilyH2"
    assert doc["config"]["subcommand"] == "classify"
    assert doc["derived"]["delta"] == 5.0
    assert all({"name", "value", "ok"} == set(item) for item in doc["certificate"])


def test_classify_outside_exits_one(tmp_path, capsys):
    code = main(["classify", "--c0", "1", "--c", "0.5", "--d", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["label"] == "OutsideModuli"


def test_usage_error_exits_two(capsys):
    assert main(["classify", "--bogus"]) == 2
    assert main(["nonsense"]) == 2


def test_domain_error_exits_one(capsys):
    code = main(["classify", "--c0", "0", "--c", "1", "--d", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "c = d" in err


def test_classify_overflowing_discriminant_exits_one(capsys):
    # a = -2e300 overflows (c0 + a)^2, so there is no finite delta to certify
    code = main(["classify", "--c0", "-1", "--c", "1e300", "--d=-1e300"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--c0", "-1", "--rect", "-2", "2", "-2", "2",
                 "--nx", "4", "--ny", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,d,label"
    assert len(lines) == 17
    assert lines[1].startswith("-1.5,-1.5,")


def test_profile_csv_and_sidecar(tmp_path):
    out = tmp_path / "prof.csv"
    code = main(["profile", "--c0", "1", "--c", "-1", "--d", "0", "--kind", "F",
                 "--range", "0", "6", "--step", "0.001", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,f,f_x"
    assert lines[1] == "0.0,0.0,1.0"
    side = json.loads((tmp_path / "prof.csv.json").read_text())
    assert side["kind"] == "F"
    assert side["period"] == pytest.approx(5.24412, abs=1e-5)
    assert side["first_integral_drift"] <= 1e-9
    assert side["config"]["step"] == 0.001


def test_field_verify_round_trip(tmp_path, capsys):
    field_path = tmp_path / "field.json"
    code = main(["field", "--c0", "1", "--c", "-1", "--d", "-1",
                 "--domain", "0", "1", "0", "1", "--nx", "41", "--ny", "41",
                 "--out", str(field_path)])
    assert code == 0
    doc = json.loads(field_path.read_text())
    assert {"c0", "domain", "nx", "ny", "provenance", "omega", "mask", "config"} <= set(doc)
    assert doc["provenance"] == "Reconstructed"
    assert len(doc["omega"]) == 41 * 41

    code = main(["verify", "--input", str(field_path)])
    stats = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {"linf", "l2", "grid_h", "count", "config"} == set(stats)
    assert stats["linf"] < 5e-3

    code = main(["verify", "--input", str(field_path), "--shiffman"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {"max_u", "jacobi_residual", "potential_identity_linf",
            "gauss_dual_route_linf", "config"} == set(doc)

    code = main(["verify", "--input", str(field_path), "--immersion"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {"compat_linf", "isometry_linf", "hopf_real_err", "hopf_imag_err",
            "harmonic_linf", "holonomy", "config"} == set(doc)
    assert doc["compat_linf"] < 1e-6


def test_field_auto_degenerate(tmp_path):
    out = tmp_path / "gamma.json"
    code = main(["field", "--c0", "-1", "--c", "0", "--d", "1",
                 "--domain", "-0.5", "0.5", "-0.5", "0.5",
                 "--nx", "21", "--ny", "21", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["provenance"] == "Degenerate"


def test_mesh_obj(tmp_path):
    out = tmp_path / "m.obj"
    code = main(["mesh", "--c0", "1", "--c", "0", "--d", "-0.25", "--trivial-f",
                 "--domain", "0", "2", "0", "2", "--nx", "21", "--ny", "21",
                 "--seed", "0", "1.48", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# foliata surface mesh")
    assert sum(1 for ln in text.splitlines() if ln.startswith("v ")) == 441
    assert sum(1 for ln in text.splitlines() if ln.startswith("f ")) == 400


def test_holonomy_subcommand(tmp_path, capsys):
    code = main(["holonomy", "--c0", "1", "--c", "0", "--d", "-0.25", "--trivial-f",
                 "--domain", "0", "3", "0", "2", "--nx", "76", "--ny", "51",
                 "--seed", "0", "1.48", "--period", "1.0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["type"] == "rotation"
    assert doc["residual"] < 1e-5
    assert not doc["closed"]


def test_holonomy_unavailable_exits_one(capsys):
    # the constant-profile point has no oscillation period
    code = main(["holonomy", "--c0", "-1", "--c", "0.25", "--d", "0.25",
                 "--domain", "-0.4", "0.4", "-0.4", "0.4", "--nx", "21", "--ny", "21"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_determinism_identical_argv(tmp_path):
    sphere = ["--c0", "1", "--c", "0", "--d", "-0.25", "--trivial-f",
              "--domain", "0", "3", "0", "2", "--seed", "0", "1.48"]
    cases = [
        ("field.json", ["field", "--c0", "1", "--c", "-1", "--d", "-1",
                        "--domain", "0", "1", "0", "1", "--nx", "21", "--ny", "21"]),
        ("scan.csv", ["scan", "--c0", "-1", "--rect", "-2", "2", "-2", "2",
                      "--nx", "20", "--ny", "20"]),
        ("mesh.obj", ["mesh", *sphere, "--nx", "21", "--ny", "21"]),
        ("holonomy.json", ["holonomy", *sphere, "--nx", "31", "--ny", "21", "--period", "1.0"]),
    ]
    for name, args in cases:
        out1, out2 = tmp_path / f"a-{name}", tmp_path / f"b-{name}"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        a = out1.read_text().replace(str(out1), "OUT")
        b = out2.read_text().replace(str(out2), "OUT")
        assert a == b, args[0]


def test_json_floats_lossless(tmp_path, capsys):
    main(["classify", "--c0", "-1", "--c", "-1", "--d", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["derived"]["xplus"] == (-1 + 5**0.5) / 2


@pytest.mark.parametrize(
    "content,expect",
    [(None, "cannot read"), ("{not json", "not JSON"), ('{"c0": 1.0}', "no key 'domain'"),
     ("[1, 2]", "not a field file")],
)
def test_verify_unreadable_input_exits_one(tmp_path, capsys, content, expect):
    path = tmp_path / "field.json"
    if content is not None:
        path.write_text(content)
    assert main(["verify", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expect in err and err.count("\n") == 1


def test_field_rejects_profile_step(capsys):
    argv = ["field", "--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1",
            "--nx", "5", "--ny", "5", "--profile-step", "1e-3"]
    assert main(argv) == 2


def test_verify_immersion_accepts_profile_step_config(tmp_path, capsys):
    # field files written before the profiles had a closed form carry it
    path = tmp_path / "field.json"
    assert main(["field", "--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1",
                 "--nx", "21", "--ny", "21", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["config"]["profile-step"] = 0.001
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path), "--immersion"]) == 0
    assert json.loads(capsys.readouterr().out)["compat_linf"] < 1e-6


def test_json_float_sign_and_value_round_trip():
    for v in (-0.0, 5e-324, -1e-300, 0.1):
        back = json.loads(dumps(v))
        assert back == v and math.copysign(1.0, back) == math.copysign(1.0, v)


FLAT_ITEMS = [0.0, -0.0, -3.0, 1.0, 1e16, 0.1, 5e-324, -1e-300, math.nan, math.inf, -math.inf,
              True, False, None]


def _per_element(items):
    literal = {True: "true", False: "false", None: "null"}
    return [format_float(v) if type(v) is float else literal[v] for v in items]


def test_dumps_flat_list_formats_each_element():
    assert dumps(FLAT_ITEMS) == "[\n  " + ",\n  ".join(_per_element(FLAT_ITEMS)) + "\n]\n"
    assert dumps(tuple(FLAT_ITEMS)) == dumps(FLAT_ITEMS)


NESTED_TEXT = "[\n    1.0,\n    null\n  ]"


@pytest.mark.parametrize("extra,text", [
    ([np.float64(0.1)], ["0.10000000000000001"]),
    ([7], ["7"]),
    ([[1.0, None]], [NESTED_TEXT]),
    ([np.float64(0.1), 7, [1.0, None]], ["0.10000000000000001", "7", NESTED_TEXT]),
], ids=["numpy", "int", "nested", "all"])
def test_dumps_mixed_list_keeps_the_general_path(extra, text):
    # numpy scalars, ints and nested lists are each written by their own rule
    expect = "[\n  " + ",\n  ".join(_per_element(FLAT_ITEMS) + text) + "\n]\n"
    assert dumps([*FLAT_ITEMS, *extra]) == expect


def test_verify_immersion_uses_the_file_guards(tmp_path, capsys):
    # 411 of the 441 nodes are singular under guard 0.5; the rebuilt field
    # must mask them too, and a file without the keys keeps the defaults
    grid = ["--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1",
            "--nx", "21", "--ny", "21"]
    results = {}
    for tag, extra in (("default", []), ("guarded", ["--overflow-guard", "0.5"])):
        path = tmp_path / f"{tag}.json"
        assert main(["field", *grid, *extra, "--out", str(path)]) == 0
        assert main(["verify", "--input", str(path), "--immersion"]) == 0
        results[tag] = json.loads(capsys.readouterr().out)
    doc = json.loads((tmp_path / "default.json").read_text())
    del doc["config"]["eps-den"], doc["config"]["overflow-guard"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(bare), "--immersion"]) == 0
    results["bare"] = json.loads(capsys.readouterr().out)
    for key in ("compat_linf", "isometry_linf", "harmonic_linf"):
        assert results["guarded"][key] != results["default"][key]
        assert results["bare"][key] == results["default"][key]
