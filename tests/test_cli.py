import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import foliata
from foliata._jsonfmt import dumps, format_float
from foliata.cli import main
from foliata.errors import NoRealSolution
from foliata.field import (
    C0_BOUND,
    GridSpec,
    assemble_omega_degenerate,
    field_document,
    field_from_document,
)
from foliata.moduli import ModuliPoint, derive_params
from foliata.profile import DEGENERATE_DELTA, ProfileFunction, degenerate_constants, integrate_profile


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


@pytest.mark.parametrize("value", [-1e-05, -2.5e-07, -0.001, -3.0])
def test_negative_reprs_are_values(tmp_path, value):
    # a negative float's repr, exponent form included, is read back as a
    # value of every numeric option, never as an unknown option
    tok = repr(value)
    out = tmp_path / "out.json"
    cases = [
        (["classify", "--c0", "1", "--c", tok, "--d", "-1"], "c", value),
        (["profile", "--c0", "1", "--c", "-1", "--d", "0", "--kind", "F",
          "--range", tok, "1", "--step", "0.01"], "range", [value, 1.0]),
        (["field", "--c0", "1", "--c", "-1", "--d", "-1",
          "--domain", tok, "1", tok, "1", "--nx", "5", "--ny", "5"], "domain",
         [value, 1.0, value, 1.0]),
        (["holonomy", "--c0", "1", "--c", "0", "--d", "-0.25", "--trivial-f",
          "--domain", "0", "3", "0", "2", "--nx", "31", "--ny", "21",
          "--seed", tok, "1.48", "--period", "1.0"], "seed", [value, 1.48]),
    ]
    for argv, key, echoed in cases:
        code = main([*argv, "--out", str(out)])
        assert code != 2, argv
        if code == 0:
            side = Path(str(out) + ".json") if argv[0] == "profile" else out
            assert json.loads(side.read_text())["config"][key] == echoed


def test_domain_error_exits_one(capsys):
    code = main(["classify", "--c0", "0", "--c", "1", "--d", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "c = d" in err


UNDERFLOWED_ROOT = ["--c0", "1", "--c", "5e-324", "--d", "-5"]


@pytest.mark.parametrize("argv", [
    ["profile", *UNDERFLOWED_ROOT, "--kind", "F", "--range", "0", "1"],
    ["field", *UNDERFLOWED_ROOT, "--domain", "0", "1", "0", "1", "--nx", "11", "--ny", "11"],
], ids=["profile", "field"])
def test_underflowed_quotient_root_keeps_its_sign(capsys, argv):
    # c / (the larger root) underflows, but the smaller root of a quadratic
    # with both roots negative is still below 0: no profile, one error line
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == "error: both roots -6.0, -5e-324 of the F quadratic are negative\n"
    assert main(["classify", "--c0", "-1", "--c", "5e-324", "--d", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["label"] == "OutsideModuli"


@pytest.mark.parametrize("argv, code, label", [
    (["--c0", "1e100", "--c", "1e-300", "--d", "-1"], 1, "OutsideModuli"),
    (["--c0", "-1e100", "--c", "1e-300", "--d", "3e-300"], 0, "BlowedHelicoid"),
], ids=["positive-c0", "negative-c0"])
def test_classify_underflowed_dilated_constant_keeps_its_sign(capsys, argv, code, label):
    # c / c0^2 underflows; a constant read as 0 would give OnduloidRotational
    # and VerticalGeodesicPlane
    assert main(["classify", *argv]) == code
    assert json.loads(capsys.readouterr().out)["label"] == label


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


@pytest.mark.parametrize("rect", [["-inf", "0", "0", "1"], ["-1e308", "1e308", "0", "1"]],
                         ids=["infinite-bound", "overflowing-width"])
def test_scan_non_finite_rectangle_exits_one(tmp_path, capsys, rect):
    # an infinite bound, or a width past the largest double, has no finite cell centre
    out = tmp_path / "scan.csv"
    assert main(["scan", "--c0", "-1", "--rect", *rect, "--nx", "2", "--ny", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scan rectangle") and err.count("\n") == 1
    assert not out.exists()


GRID_ARGS = ["--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1"]


@pytest.mark.parametrize(
    "argv",
    [["field", *GRID_ARGS, "--nx", "1000000", "--ny", "1000000"],
     ["mesh", *GRID_ARGS, "--nx", "1000000", "--ny", "1000000"],
     ["holonomy", *GRID_ARGS, "--nx", "1000000", "--ny", "1000000"],
     ["scan", "--c0", "-1", "--rect", "0", "1", "0", "1", "--nx", "100000000", "--ny", "2"]],
    ids=["field", "mesh", "holonomy", "scan"],
)
def test_oversized_grid_or_scan_exits_one(tmp_path, capsys, argv):
    # 10^12 grid nodes (7.28 TiB of omega) or 2 x 10^8 scan cells are refused
    # before anything is allocated, never ending in a MemoryError
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "more than 10000000" in captured.err


@pytest.mark.parametrize("nx,ny", [(2, 9), (9, 2), (2, 2)])
def test_weierstrass_mesh_two_nodes_wide_exits_one(tmp_path, capsys, nx, ny):
    # the Cauchy-Riemann residual in the header takes second-order
    # differences along both axes: refused before the route runs, never
    # numpy's gradient traceback
    out = tmp_path / "t.obj"
    argv = ["mesh", "--c0", "0", "--c", "-0.25", "--d", "-0.25",
            "--domain", "0.5", "2.5", "0.5", "2.5", "--nx", str(nx), "--ny", str(ny),
            "--weierstrass", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"needs at least 3x3 nodes, got {nx}x{ny}" in captured.err


#: One small argv per subcommand, without --out; FIELD_FILE stands for a
#: field file written first.
FIELD_FILE = "FIELD_FILE"
WRITERS = {
    "classify": ["classify", "--c0", "-1", "--c", "-1", "--d", "-1"],
    "scan": ["scan", "--c0", "-1", "--rect", "-2", "2", "-1", "2", "--nx", "4", "--ny", "4"],
    "profile": ["profile", "--c0", "1", "--c", "-1", "--d", "0", "--kind", "F",
                "--range", "0", "1"],
    "field": ["field", *GRID_ARGS, "--nx", "5", "--ny", "5"],
    "verify": ["verify", "--input", FIELD_FILE],
    "mesh": ["mesh", *GRID_ARGS, "--nx", "5", "--ny", "5"],
    "holonomy": ["holonomy", *GRID_ARGS, "--nx", "5", "--ny", "5", "--period", "0.5"],
}


def _writer_argv(tmp_path, command):
    field = tmp_path / "field.json"
    if command == "verify":
        assert main([*WRITERS["field"], "--out", str(field)]) == 0
    return [str(field) if arg == FIELD_FILE else arg for arg in WRITERS[command]]


@pytest.mark.parametrize("command", list(WRITERS))
def test_unwritable_out_exits_one(tmp_path, capsys, command):
    # an --out in a missing directory ends in one "error:" line and exit 1,
    # never an OSError traceback; the same argv write a writable --out
    argv = _writer_argv(tmp_path, command)
    assert main([*argv, "--out", str(tmp_path / "written")]) == 0
    capsys.readouterr()
    out = tmp_path / "missing" / "out"
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command, target", [("scan", ""), ("profile", ".json"), ("profile", "")],
                         ids=["scan-out", "profile-sidecar", "profile-out"])
def test_directory_out_exits_one(tmp_path, capsys, command, target):
    # --out, or the profile's sidecar --out.json, names a directory; exit 1
    # leaves neither --out nor the sidecar as a file
    out = tmp_path / "out"
    Path(str(out) + target).mkdir()
    assert main([*_writer_argv(tmp_path, command), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot write {out}{target}: ")
    assert not out.is_file() and not Path(str(out) + ".json").is_file()


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


def _profile_table(path):
    header, *rows = path.read_text().splitlines()
    assert header == "x,f,f_x"
    return np.array([[float(t) for t in row.split(",")] for row in rows])


@settings(max_examples=25)
@given(
    c0=st.sampled_from([-1.0, 0.0, 1.0]),
    c=st.floats(-2, 2),
    d=st.floats(-2, 2),
    a=st.floats(-1, 1),
    kind=st.sampled_from(["F", "G"]),
    x0=st.floats(-3, 3),
    length=st.floats(0.5, 4),
)
def test_profile_csv_matches_rk4_oracle(tmp_path_factory, c0, c, d, a, kind, x0, length):
    point = (c0, c, c if c0 == 0 else d)
    x_range = (x0, x0 + length)
    try:
        sol = integrate_profile(derive_params(ModuliPoint(*point), a), kind, x_range, 1e-3)
    except NoRealSolution:
        assume(False)
    out = tmp_path_factory.mktemp("profile") / "p.csv"
    argv = ["profile", "--c0", repr(point[0]), "--c", repr(point[1]), "--d", repr(point[2]),
            "--a", repr(a), "--kind", kind, "--range", repr(x_range[0]), repr(x_range[1]),
            "--out", str(out)]
    assert main(argv) == 0
    table = _profile_table(out)
    assert table[:, 0].tobytes() == sol.grid.tobytes()
    assert np.abs(table[:, 1] - sol.values).max() <= 1e-9
    assert np.abs(table[:, 2] - sol.derivs).max() <= 1e-9
    side = json.loads(Path(str(out) + ".json").read_text())
    assert abs(side["first_integral_drift"] - sol.first_integral_drift) <= 1e-9
    assert side["period"] == sol.fn.period


@pytest.mark.parametrize("kind,flag", [("F", "--trivial-g"), ("G", "--trivial-f")])
def test_profile_rejects_the_other_kinds_branch(tmp_path, capsys, kind, flag):
    # the flag of the profile not sampled would be ignored, yet echoed in the sidecar
    out = tmp_path / "p.csv"
    assert main(["profile", "--c0", "-1", "--c", "0", "--d", "0", "--kind", kind, flag,
                 "--range", "0", "1", "--out", str(out)]) == 2
    assert f"profile --kind {kind} takes only --trivial-{kind.lower()}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["profile", "field"])
def test_zero_constant_rests_at_zero(tmp_path, command):
    # d = 0 where delta = (c0 + a)^2 - 4c rounds: a constant recovered from
    # delta read 2.2e-16 here, with both roots of g's quadratic negative
    point = ["--c0", "1", "--c", "-1.0862297129252647", "--d", "0"]
    extra = {"profile": ["--kind", "G", "--range", "0", "1"],
             "field": ["--domain", "0", "1", "0", "1", "--nx", "5", "--ny", "5"]}[command]
    out, trivial = tmp_path / "out", tmp_path / "trivial"
    assert main([command, *point, *extra, "--out", str(out)]) == 0
    assert main([command, *point, *extra, "--trivial-g", "--out", str(trivial)]) == 0
    if command == "profile":
        rows = out.read_text().splitlines()[1:]
        assert rows and all(row.split(",")[1:] == ["0.0", "0.0"] for row in rows)
        assert rows == trivial.read_text().splitlines()[1:]
    else:
        assert json.loads(out.read_text())["omega"] == json.loads(trivial.read_text())["omega"]


@pytest.mark.parametrize("point,g_code", [(("-4", "16", "1e-16"), 1), (("-1", "1", "-1e-17"), 0),
                                          (("-1", "1", "6.25e-18"), 1)])
@pytest.mark.parametrize("command", ["profile-G", "profile-F", "field"])
def test_rounded_double_root_at_zero(tmp_path, capsys, command, point, g_code):
    # dbar and delta round to 0 while d does not: g's quadratic is X^2 + d,
    # with no real root for d > 0 (exactly, delta < 0 there) and roots
    # +-sqrt(-d) for d < 0.  The f profile does not depend on g's.  The
    # first and last points are dilates of each other, so each command exits
    # alike at both; the field takes the constant-profile closed form at all
    # three, since |delta| <= DEGENERATE_DELTA c0^2 there
    c0, c, d = point
    extra = {"profile-G": ["--kind", "G", "--range", "0", "1"],
             "profile-F": ["--kind", "F", "--range", "0", "1"],
             "field": ["--domain", "0", "1", "0", "1", "--nx", "5", "--ny", "5"]}[command]
    code = 0 if command in ("profile-F", "field") else g_code
    out = tmp_path / "out"
    argv = [command.split("-")[0], "--c0", c0, "--c", c, "--d", d, *extra, "--out", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
    else:
        assert out.exists()


def test_profile_never_marches(monkeypatch, tmp_path):
    targets = []
    march = ProfileFunction._march

    def counted(self, xs, step):
        targets.append(xs.size)
        return march(self, xs, step)

    monkeypatch.setattr(ProfileFunction, "_march", counted)
    out = tmp_path / "p.csv"
    for args, zero in [
        (["--c0", "1", "--c", "-1", "--d", "0", "--kind", "F"], False),
        (["--c0", "-1", "--c", "-1", "--d", "1", "--kind", "G"], False),
        # the zero branches: --trivial-f, and const = 0 without a flag
        (["--c0", "-1", "--c", "0", "--d", "0", "--kind", "F", "--trivial-f"], True),
        (["--c0", "-1", "--c", "0", "--d", "-0.5", "--kind", "F"], True),
        (["--c0", "-1", "--c", "0.5", "--d", "0", "--kind", "G"], True),
    ]:
        assert main(["profile", *args, "--range", "-1", "2", "--out", str(out)]) == 0
        table = _profile_table(out)
        assert len(table) == 3001
        if zero:
            assert out.read_text().count(",0.0,0.0\n") == 3001
    assert targets == []
    # the counter does see the oracle
    integrate_profile(derive_params(ModuliPoint(1, -1, 0)), "F", (-1, 2), 1e-3)
    assert targets == [3001]


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
            "harmonic_linf", "config"} == set(doc)
    assert doc["compat_linf"] < 1e-6


@pytest.mark.parametrize("c0, c, d, a, domain", [
    (1, -0.3, -0.7, 0.0, (0.25, 1.25, 0.25, 1.5)),
    (-1, -0.5, -0.3, 0.0, (-0.3, 0.7, -0.4, 0.85)),
    (0, -0.5, -0.5, 0.3, (0.25, 1.25, 0.25, 1.5)),
    (1, -1.02, -0.97, 0.0, (0.25, 1.25, 0.25, 1.5)),
])
def test_verify_commutes_with_the_conjugate_involution(tmp_path, capsys, c0, c, d, a, domain):
    # (c0, c, d, a) -> (c0, d, c, -a) exchanges f and g, so the swapped
    # point's field on the transposed grid is omega transposed: verify and
    # verify --shiffman read the same numbers to rounding
    x0, x1, y0, y1 = domain
    reports = []
    for point, box, nx, ny in [((c, d, a), (x0, x1, y0, y1), 41, 51),
                               ((d, c, -a), (y0, y1, x0, x1), 51, 41)]:
        path = str(tmp_path / "field.json")
        assert main(["field", "--c0", repr(float(c0)), "--c", repr(point[0]), "--d", repr(point[1]),
                     "--a", repr(point[2]), "--domain", *map(repr, box), "--nx", str(nx),
                     "--ny", str(ny), "--out", path]) == 0
        for mode in ([], ["--shiffman"]):
            assert main(["verify", "--input", path, *mode]) == 0
            reports.append(json.loads(capsys.readouterr().out))
    stats, shiffman, swapped, swapped_shiffman = reports
    assert stats["count"] == swapped["count"] > 0
    assert swapped["linf"] == pytest.approx(stats["linf"], rel=1e-8)
    for read in (lambda doc: doc["max_u"], lambda doc: doc["gauss_dual_route_linf"],
                 lambda doc: doc["jacobi_residual"]["linf"]):
        assert read(swapped_shiffman) == pytest.approx(read(shiffman), rel=1e-7)


def test_field_auto_degenerate(tmp_path):
    out = tmp_path / "gamma.json"
    code = main(["field", "--c0", "-1", "--c", "0", "--d", "1",
                 "--domain", "-0.5", "0.5", "-0.5", "0.5",
                 "--nx", "21", "--ny", "21", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["provenance"] == "Degenerate"


@pytest.mark.parametrize("c0,c,d", [(-4.0, 4.0, 4.0), (-4.0, 1.0, 9.0), (-0.25, 1 / 64, 1 / 64)])
def test_field_closed_form_at_every_negative_curvature(tmp_path, c0, c, d):
    # GammaHelicoidalType points off c0 = -1 take the constant-profile closed
    # form too, whose sinh-Gordon residual falls at the second order
    r = 0.5 / math.sqrt(-c0)
    linf = []
    for n in (41, 81):
        field, report = tmp_path / f"gamma{n}.json", tmp_path / f"verify{n}.json"
        assert main(["field", "--c0", repr(c0), "--c", repr(c), "--d", repr(d),
                     "--domain", repr(-r), repr(r), repr(-r), repr(r),
                     "--nx", str(n), "--ny", str(n), "--out", str(field)]) == 0
        doc = json.loads(field.read_text())
        assert (doc["provenance"], doc["c0"]) == ("Degenerate", c0)
        assert main(["verify", "--input", str(field), "--out", str(report)]) == 0
        linf.append(json.loads(report.read_text())["linf"])
    assert 3.5 <= linf[0] / linf[1] <= 4.5


def test_field_writes_the_curvature_it_was_given(tmp_path):
    # (cbar + dbar) / 2 is 0.9999999999999999 at this point: the field file
    # holds c0 = 1 itself, and verify --immersion integrates its frame
    field, report = tmp_path / "f.json", tmp_path / "v.json"
    assert main(["field", "--c0", "1", "--c", "-1.383", "--d", "-0.2", "--domain", "0", "0.5",
                 "0", "0.5", "--nx", "41", "--ny", "41", "--out", str(field)]) == 0
    assert json.loads(field.read_text())["c0"] == 1.0
    assert main(["verify", "--input", str(field), "--immersion", "--out", str(report)]) == 0


def test_zero_branch_needs_an_exact_zero(tmp_path, capsys):
    # c = 1e-13 is no zero constant: f = 0 does not solve f's equation there
    out = tmp_path / "p.csv"
    assert main(["profile", "--c0", "-1", "--c", "1e-13", "--d", "0.5", "--kind", "F",
                 "--trivial-f", "--range", "0", "0.002", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("c,d", [(0.010000000000000002, 0.81), (0.09, 0.48999999999999994)])
def test_field_takes_the_closed_form_within_the_delta_band(tmp_path, c, d):
    # delta is -2.8e-17 and 1.1e-16 here: rounding off the curve delta = 0,
    # which the constant-profile closed form covers up to |delta| = 1e-12
    point = ModuliPoint(-1.0, c, d)
    assert 0 < abs(derive_params(point).delta) <= DEGENERATE_DELTA
    out = tmp_path / "gamma.json"
    assert main(["field", "--c0", "-1", "--c", repr(c), "--d", repr(d),
                 "--domain", "-0.5", "0.5", "-0.5", "0.5",
                 "--nx", "11", "--ny", "11", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    want = assemble_omega_degenerate(*degenerate_constants(point),
                                     GridSpec(-0.5, 0.5, -0.5, 0.5, 11, 11))
    assert doc["provenance"] == "Degenerate"
    assert doc["omega"] == want.omega.ravel().tolist()


REMOVED_OPTIONS = [
    (command, option)
    for command in ("field", "mesh", "holonomy")
    for option in (["--degenerate"], ["--eps-den", "1e-9"], ["--overflow-guard", "1e8"])
] + [("verify", ["--margin", "0.1"]), ("profile", ["--drift-tol", "1e-9"]),
      ("holonomy", ["--psi0", "0.3"]), ("mesh", ["--psi0", "0.3"]),
      ("verify", ["--psi0", "0.3"]), ("profile", ["--phase", "0.3"]),
      ("verify", ["--period", "1.0", "--immersion"])]


@pytest.mark.parametrize("command,option", REMOVED_OPTIONS,
                         ids=[f"{c}{o[0]}" for c, o in REMOVED_OPTIONS])
def test_removed_options_are_usage_errors(tmp_path, capsys, command, option):
    # the singular-set thresholds are constants and delta picks the closed form;
    # the frame starts at angle 0 at the chart origin, so no subcommand takes
    # a frame angle; the profile has no phase, and only holonomy takes a period
    base = {
        "profile": ["--c0", "1", "--c", "-1", "--d", "0", "--kind", "F", "--range", "0", "1"],
        "verify": ["--input", str(tmp_path / "field.json")],
    }.get(command, ["--c0", "-1", "--c", "0", "--d", "1", "--domain", "-0.5", "0.5", "-0.5",
                    "0.5", "--nx", "5", "--ny", "5"])
    assert main([command, *base, *option, "--out", str(tmp_path / "out")]) == 2
    assert "unrecognized arguments: " + option[0] in capsys.readouterr().err


@pytest.mark.parametrize("extra,message", [
    (["--shiffman", "--immersion"], "not allowed with argument --shiffman"),
    (["--period", "0.5"], "unrecognized arguments: --period"),
    (["--shiffman", "--seed", "0.5", "0.5"], "only with --immersion"),
], ids=["two-modes", "period", "shiffman-seed"])
def test_verify_takes_one_mode(tmp_path, capsys, extra, message):
    # a usage error comes before the input is read, so the file need not exist
    assert main(["verify", "--input", str(tmp_path / "field.json"), *extra]) == 2
    assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("route", [[], ["--weierstrass"]], ids=["frame", "weierstrass"])
def test_mesh_header_names_the_surface(tmp_path, route):
    # two separation constants a at the flat point (0, -0.5, -0.5) give two
    # surfaces, and the header, which carries c, d and a, tells them apart
    def written(a):
        out = tmp_path / f"a{a}.obj"
        assert main(["mesh", "--c0", "0", "--c", "-0.5", "--d", "-0.5", "--a", str(a),
                     "--domain", "0", "1", "0", "2", "--nx", "11", "--ny", "11",
                     *route, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        return [ln for ln in lines if ln.startswith("# ")], [ln for ln in lines if ln.startswith("v ")]

    (header3, v3), (header5, v5) = written(0.3), written(0.5)
    assert v3 != v5 and header3 != header5
    for a, header in ((0.3, header3), (0.5, header5)):
        assert {"# c = -0.5", "# d = -0.5", f"# a = {a}"} <= set(header)
        assert {"# seed = None", f"# weierstrass = {bool(route)}"} <= set(header)


def test_mesh_header_names_the_seed_and_the_flags(tmp_path):
    # two seeds give two placements of the surface, and the header, which
    # carries the seed as given, tells them apart
    def written(seed):
        out = tmp_path / "m.obj"
        assert main(["mesh", *GRID_ARGS, "--nx", "5", "--ny", "5", "--seed", *seed,
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        return [ln for ln in lines if ln.startswith("# ")], [ln for ln in lines if ln.startswith("v ")]

    (header0, v0), (header5, v5) = written(["0", "0"]), written(["0.5", "0.5"])
    assert v0 != v5 and header0 != header5
    assert {"# seed = [0.0, 0.0]", "# trivial-f = False", "# trivial-g = False",
            "# weierstrass = False"} <= set(header0)
    assert "# seed = [0.5, 0.5]" in header5


def test_holonomy_subcommand(tmp_path, capsys):
    code = main(["holonomy", "--c0", "1", "--c", "0", "--d", "-0.25", "--trivial-f",
                 "--domain", "0", "3", "0", "2", "--nx", "76", "--ny", "51",
                 "--seed", "0", "1.48", "--period", "1.0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["type"] == "rotation"
    assert doc["residual"] < 1e-5


def test_holonomy_horocycle_is_parabolic(capsys):
    # (-1, 0, 1) is the constant-profile point alpha = 0, beta = 1: every leaf
    # is a horocycle (k^2 + c0 = 0)
    code = main(["holonomy", "--c0=-1", "--c", "0", "--d", "1",
                 "--domain", "-0.5", "0.5", "-0.5", "0.5", "--nx", "41", "--ny", "41",
                 "--period", "0.3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["type"] == "parabolic"
    # the seed row is y = 0, where cosh(omega) = sec(0) = 1: S is the period
    assert doc["angle_or_length"] == pytest.approx(0.3, abs=1e-12)
    assert doc["residual"] <= 1e-12


def test_holonomy_unavailable_exits_one(capsys):
    # the constant-profile point has no oscillation period
    code = main(["holonomy", "--c0", "-1", "--c", "0.25", "--d", "0.25",
                 "--domain", "-0.4", "0.4", "-0.4", "0.4", "--nx", "21", "--ny", "21"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--trivial-f"]], ids=["c0", "trivial-f"])
def test_holonomy_constant_f_asks_for_period(capsys, extra):
    # c = 0 makes f constant: it has no period to default to
    code = main(["holonomy", "--c0", "-1", "--c", "0", "--d", "2", *extra,
                 "--domain", "0", "2", "0.1", "2.5", "--nx", "41", "--ny", "41"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "f is constant" in err and "--period" in err


@pytest.mark.parametrize("argv", [
    # c0 + f^2 + g^2 = 0 on the seed row y = 0, where -c0 - g^2 = 1 lies in
    # the range [0, 1.2124] of f^2: the arclength diverges at the poles
    ["--c0", "-1", "--c", "-0.5", "--d", "-0.3", "--domain", "0", "6.7459516637333214",
     "-0.3", "0.3", "--nx", "81", "--ny", "41", "--seed", "0", "0"],
    ["--c0=-1", "--c=-0.5", "--d", "0.5", "--domain", "0", "4", "-0.4", "0.4",
     "--nx", "81", "--ny", "41", "--period", "0.7", "--seed", "0.5", "0.1"],
], ids=["natural-period", "far-row"])
def test_holonomy_on_a_pole_row_exits_one(tmp_path, capsys, argv):
    assert main(["holonomy", *argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the seed row y = ") and err.count("\n") == 1
    assert "meets a pole of omega" in err
    assert not (tmp_path / "out").exists()


FAR_ROW = ["--c0=-1", "--c=-0.5", "--d", "0.5", "--domain", "0", "4", "-0.4", "0.4",
           "--nx", "81", "--ny", "41"]


@pytest.mark.parametrize("seed", [["nan", "0.1"], ["inf", "0.1"], ["-inf", "0.1"],
                                  ["0.5", "nan"], ["nan", "nan"]])
@pytest.mark.parametrize("command", ["mesh", "holonomy", "verify"])
def test_non_finite_seed_exits_one(tmp_path, capsys, command, seed):
    # the nearest node of a NaN or infinite seed would silently be column 0
    argv = {
        "mesh": ["mesh", *FAR_ROW],
        "holonomy": ["holonomy", *FAR_ROW, "--period", "0.7"],
        "verify": ["verify", "--input", str(tmp_path / "f.json"), "--immersion"],
    }[command]
    if command == "verify":
        assert main(["field", *FAR_ROW, "--out", str(tmp_path / "f.json")]) == 0
        capsys.readouterr()
    assert main([*argv, "--seed", *seed, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed (") and err.count("\n") == 1
    assert "is not finite" in err
    assert not (tmp_path / "out").exists()


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
    assert doc["derived"] == derive_params(ModuliPoint(-1, -1, 1)).document()


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


def _field_file(tmp_path, edit):
    """A 5x5 field file on (1, -1, -1) with its document changed by ``edit``."""
    path = tmp_path / "field.json"
    assert main(["field", "--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1",
                 "--nx", "5", "--ny", "5", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "entry,expect",
    [("x", "25 numbers or nulls"), ([0.5], "25 numbers or nulls"),
     ({"v": 0.5}, "25 numbers or nulls"), (True, "25 numbers or nulls"),
     ("all nested", "flat list of 25 numbers")],
)
def test_verify_malformed_omega_exits_one(tmp_path, capsys, entry, expect):
    def edit(doc):
        if entry == "all nested":
            # numpy reads a list of one-element lists as a column, not a flat list
            doc["omega"] = [[v] for v in doc["omega"]]
        else:
            doc["omega"][7] = entry

    path = _field_file(tmp_path, edit)
    capsys.readouterr()
    for mode in ([], ["--shiffman"], ["--immersion"]):
        assert main(["verify", "--input", str(path), *mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expect in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "mask",
    [["false"] * 25, [False] * 7 + [0.5] + [False] * 17, [[False]] * 25,
     [[False] * 5] * 5, [False] * 24 + [[False]]],
    ids=["strings", "number", "nested", "rows", "ragged"],
)
def test_verify_malformed_mask_exits_one(tmp_path, capsys, mask):
    path = _field_file(tmp_path, lambda doc: doc.update(mask=mask))
    capsys.readouterr()
    for mode in ([], ["--shiffman"], ["--immersion"]):
        assert main(["verify", "--input", str(path), *mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'mask' must be a flat list of 25 booleans" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "edit",
    [lambda doc: doc["omega"].__setitem__(7, None), lambda doc: doc["mask"].__setitem__(7, True),
     lambda doc: doc["omega"].__setitem__(7, 1e308), lambda doc: doc["omega"].__setitem__(7, -1e308)],
    ids=["null-off-mask", "number-under-mask", "huge", "huge-negative"],
)
def test_verify_omega_disagreeing_with_mask_exits_one(tmp_path, capsys, edit):
    # node 7 of the 5x5 grid is (i=2, j=1); sinh(1e308) overflows to inf
    path = _field_file(tmp_path, edit)
    capsys.readouterr()
    for mode in ([], ["--shiffman"], ["--immersion"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--input", str(path), *mode]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "omega at node (i=2, j=1)" in err
        assert err.count("\n") == 1


def test_verify_omega_beyond_the_guard_exits_one(tmp_path, capsys):
    # |omega| <= arcsinh(1e8) ~ 19.1 in every assembled field; 200 would
    # overflow cosh^4 and the squared residual
    path = tmp_path / "field.json"
    assert main(["field", "--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1",
                 "--nx", "7", "--ny", "7", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["omega"][8] = 200.0
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    for mode in ([], ["--shiffman"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--input", str(path), *mode]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "omega at node (i=1, j=1) is 200.0, beyond arcsinh(OVERFLOW_GUARD)" in err


def test_verify_omega_1e400_exits_one(tmp_path, capsys):
    # the JSON number 1e400 reads as inf, which the field record refuses
    path = _field_file(tmp_path, lambda doc: doc["omega"].__setitem__(7, "1e400"))
    path.write_text(path.read_text().replace('"1e400"', "1e400"))
    capsys.readouterr()
    for mode in ([], ["--shiffman"], ["--immersion"]):
        assert main(["verify", "--input", str(path), *mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "omega at node (i=2, j=1) is inf, beyond arcsinh(OVERFLOW_GUARD)" in err


def test_verify_non_finite_grid_span_exits_one(tmp_path, capsys):
    # each bound is a float, but the span x1 - x0 overflows
    path = tmp_path / "field.json"
    assert main(["field", "--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1",
                 "--nx", "7", "--ny", "7", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["domain"] = [-1e308, 1e308, 0.0, 1.0]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    for mode in ([], ["--shiffman"], ["--immersion"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--input", str(path), *mode]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "grid span is not finite" in err


@pytest.mark.parametrize("width", [1e-160, 1e-300])
def test_verify_underflowing_grid_spacing_exits_one(tmp_path, capsys, width):
    # h = width/20 squares to a subnormal or to 0, so the stencils' 1/h^2 is
    # infinite; the grid is refused before any stencil runs
    path = tmp_path / "field.json"
    assert main(["field", "--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1",
                 "--nx", "21", "--ny", "21", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["domain"] = [0.0, width, 0.0, width]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    for mode in ([], ["--shiffman"], ["--immersion"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--input", str(path), *mode]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1/h^2" in err


@pytest.mark.parametrize("omega_node", [None, 19.0])
def test_verify_overflowing_stencil_spacing_exits_one(tmp_path, capsys, omega_node):
    # h = 1e-154 leaves 1/h^2 finite, but the stencils overflow: plain verify
    # once reported linf 1.1e306 (or warned and dropped nodes from count when
    # one omega was 19.0) and --shiffman warned; the grid is refused instead
    path = tmp_path / "field.json"
    assert main(["field", "--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1",
                 "--nx", "21", "--ny", "21", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["domain"] = [0.0, 2e-153, 0.0, 2e-153]
    if omega_node is not None:
        doc["omega"][200] = omega_node
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    for mode in ([], ["--shiffman"], ["--immersion"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--input", str(path), *mode]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "grid spacing 1e-154 is below" in err


@pytest.mark.parametrize(
    "key,value,expect",
    [("c0", "1", "'c0' must be a number"), ("c0", True, "'c0' must be a number"),
     ("domain", [False, 1, 0, 1], "'domain' must be a list of 4 numbers"),
     ("domain", [0, 1, 0], "'domain' must be a list of 4 numbers"),
     ("nx", 5.0, "'nx' must be an integer"), ("ny", True, "'ny' must be an integer"),
     # a c0 whose square overflows once gave warnings and "l2": null with exit 0
     ("c0", 1e155, "'c0' is 1e+155, beyond C0_BOUND"),
     ("c0", 1e308, "'c0' is 1e+308, beyond C0_BOUND"),
     ("provenance", 5, "'provenance' must be a string, got 5"),
     ("provenance", [1, 2], "'provenance' must be a string, got [1, 2]")],
)
def test_verify_mistyped_field_key_exits_one(tmp_path, capsys, key, value, expect):
    path = _field_file(tmp_path, lambda doc: doc.update({key: value}))
    capsys.readouterr()
    for mode in ([], ["--shiffman"], ["--immersion"]):
        assert main(["verify", "--input", str(path), *mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expect in err and err.count("\n") == 1


def test_verify_c0_at_the_bound_gives_finite_numbers(tmp_path, capsys):
    # C0_BOUND squares finitely, but the residual squared would not: l2
    # comes from a rescaled residual
    path = _field_file(tmp_path, lambda doc: doc.update(c0=C0_BOUND))
    capsys.readouterr()
    for mode in ([], ["--shiffman"]):
        assert main(["verify", "--input", str(path), *mode]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        doc = json.loads(out)
        del doc["config"]
        for value in doc.values():
            assert all(math.isfinite(v) for v in (value.values() if isinstance(value, dict) else [value]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_json_constants(tmp_path, capsys, value):
    # json.dumps writes NaN and Infinity, which JSON lacks: refused even at a
    # masked node, where omega is not finite either
    def edit(doc):
        doc["mask"][7], doc["omega"][7] = True, value

    path = _field_file(tmp_path, edit)
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    token = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(value)]
    assert err.startswith("error: ") and f"{token} is not a JSON number" in err
    assert err.count("\n") == 1


@pytest.fixture(scope="module")
def small_field(tmp_path_factory):
    """A 7x7 field file's document, and a directory for its mutations."""
    work = tmp_path_factory.mktemp("mutations")
    path = work / "field.json"
    assert main(["field", "--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1",
                 "--nx", "7", "--ny", "7", "--out", str(path)]) == 0
    return json.loads(path.read_text()), work


FIELD_KEYS = ["c0", "domain", "nx", "ny", "provenance", "omega", "mask"]
#: A key, or a key and the index of one entry of its list.
MUTATION_SLOTS = [*FIELD_KEYS, ("domain", 0), ("domain", 3), ("omega", 0), ("omega", 24),
                  ("omega", 48), ("mask", 24)]
MUTATION_VALUES = st.one_of(
    # type swaps, ragged nesting and wrong-typed provenances
    st.sampled_from([True, False, None, "1", "x", [], {}, [1.0], [[1.0]], {"v": 1.0}, 5, [1, 2]]),
    # huge and non-finite values; json.dumps writes NaN and Infinity
    st.sampled_from([1e154, 1e155, 1e308, -1e308, 10**400, 10**9, -7, math.nan, math.inf]),
    st.floats(),
    st.integers(-10, 10),
)
MUTATIONS = st.one_of(
    st.tuples(st.just("delete"), st.sampled_from(FIELD_KEYS)),
    st.tuples(st.just("set"), st.sampled_from(MUTATION_SLOTS), MUTATION_VALUES),
)


def _mutate(doc: dict, mutations) -> dict:
    doc = json.loads(json.dumps(doc))
    for op, slot, *value in mutations:
        key, index = slot if isinstance(slot, tuple) else (slot, None)
        if op == "delete":
            doc.pop(key, None)
        elif index is None:
            doc[key] = value[0]
        elif isinstance(doc.get(key), list) and index < len(doc[key]):
            doc[key][index] = value[0]
    return doc


@settings(max_examples=150)
@given(mutations=st.lists(MUTATIONS, min_size=1, max_size=3),
       mode=st.sampled_from([[], ["--shiffman"]]))
@example(mutations=[("set", "c0", 1e155)], mode=[])
@example(mutations=[("set", "c0", 1e308)], mode=["--shiffman"])
@example(mutations=[("set", "c0", 1e154)], mode=["--shiffman"])
@example(mutations=[("set", "provenance", [1, 2])], mode=[])
@example(mutations=[("set", ("mask", 24), True), ("set", ("omega", 24), None)], mode=[])
def test_verify_mutated_field_file_errors_or_reads_back(small_field, mutations, mode):
    # every mutation ends in one "error:" line and exit 1, or the file holds
    # a field that writes back as the same document; a RuntimeWarning fails
    # the test (pyproject turns it into an error)
    base, work = small_field
    doc = _mutate(base, mutations)
    path = work / "mutant.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(["verify", "--input", str(path), *mode, "--out", str(work / "out.json")])
    err = err.getvalue()
    if status == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert status == 0 and err == ""
    back = json.loads(dumps(field_document(field_from_document(json.loads(path.read_text())))))
    assert back == {key: doc[key] for key in back}


@pytest.mark.parametrize(
    "edit,node",
    [(lambda doc: doc["config"].update(c=-0.5), "(i=0, j=0)"),
     (lambda doc: doc["omega"].__setitem__(7, doc["omega"][7] + 1e-6), "(i=2, j=1)"),
     (lambda doc: doc["omega"].__setitem__(7, doc["omega"][7] * (1.0 + 1e-12)), None)],
    ids=["config-c", "omega-edit", "omega-rounding"],
)
def test_verify_immersion_checks_the_rebuilt_field(tmp_path, capsys, edit, node):
    # the file's omega must be the field its config rebuilds, to 1e-9
    path = _field_file(tmp_path, edit)
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--immersion"]) == (0 if node is None else 1)
    err = capsys.readouterr().err
    if node is not None:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"differs from the field its config rebuilds, first at node {node}" in err


@pytest.mark.parametrize("rel, code", [(1e-10, 0), (1e-8, 1)])
def test_verify_immersion_rebuild_tolerance(tmp_path, capsys, rel, code):
    # REBUILD_RTOL = 1e-9: omega = 1.44 at node 0 of the 21^2 field, moved
    # by 1e-10 relative, is still the field its config rebuilds, and moved
    # by 1e-8 is not
    path = tmp_path / "field.json"
    assert main(["field", *GRID_ARGS, "--nx", "21", "--ny", "21", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["omega"][0] *= 1.0 + rel
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--immersion"]) == code
    err = capsys.readouterr().err
    assert (err == "") if code == 0 else ("rebuilds, first at node (i=0, j=0)" in err)


@pytest.mark.parametrize(
    "key,value,expect",
    [(None, "x", "config must be an object"), ("c", "x", "config.c must be a number"),
     ("d", None, "config.d must be a number"),
     ("a", True, "config.a must be a number"), ("trivial-f", 1, "config.trivial-f must be true or false")],
)
def test_verify_immersion_malformed_config_exits_one(tmp_path, capsys, key, value, expect):
    def edit(doc):
        if key is None:
            doc["config"] = value
        else:
            doc["config"][key] = value

    path = _field_file(tmp_path, edit)
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--immersion"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expect in err and err.count("\n") == 1


@pytest.mark.parametrize("extra", [["--range", "0", "1e300"],
                                   ["--range", "0", "1e12", "--step", "1e-3"],
                                   ["--range", "0", "1", "--step", "inf"],
                                   ["--range", "0", "1", "--step", "1e308"]])
def test_profile_range_too_long_exits_one(capsys, extra):
    # the sample count and the last sample are checked before any grid is
    # allocated: a step whose grid is not finite wrote NaN rows with exit 0
    assert main(["profile", "--c0", "1", "--c", "-1", "--d", "0", "--kind", "F", *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "samples at step" in err and err.count("\n") == 1


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


@given(st.floats())
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(1.7e308)
@example(-1.7e308)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_json_float_round_trip_is_bitwise(v):
    # bare, inside a list and as a dict value: each path formats floats itself
    parsed = json.loads(dumps([v, {"v": v}, v]))
    if not math.isfinite(v):
        assert parsed == [None, {"v": None}, None]
        return
    for back in (parsed[0], parsed[1]["v"], parsed[2], json.loads(dumps(v))):
        assert struct.pack("<d", float(back)) == struct.pack("<d", v)


def test_import_loads_no_scipy():
    # neither scipy nor numpy.polynomial (a Gauss-Legendre import would load it)
    # may add to the start-up time of a command, whichever layers it loads
    src = str(Path(foliata.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, foliata.cli, foliata.moduli, foliata.profile, foliata.field, "
             "foliata.shiffman, foliata.immersion; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_closed_stdout_pipe_is_one_error_line():
    # the reader takes 100 bytes of a 1.4 MB field document and closes its end
    src = str(Path(foliata.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "foliata.cli", "field", "--c0", "1", "--c", "-1", "--d", "-1",
            "--domain", "0", "1", "0", "1", "--nx", "201", "--ny", "201"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


FLAT_ITEMS = [0.0, -0.0, -3.0, 1.0, 1e16, 0.1, 5e-324, -1e-300, math.nan, math.inf, -math.inf,
              True, False, None]


def _per_element(items):
    literal = {True: "true", False: "false", None: "null"}
    return [format_float(v) if type(v) is float else literal[v] for v in items]


def test_dumps_flat_list_formats_each_element():
    assert dumps(FLAT_ITEMS) == "[\n  " + ",\n  ".join(_per_element(FLAT_ITEMS)) + "\n]\n"
    assert dumps(tuple(FLAT_ITEMS)) == dumps(FLAT_ITEMS)


def test_scalar_and_array_floats_follow_one_rule():
    # format_float writes a Python float with no numpy, the array writer a
    # block at a time: both forms of the rule give the same text
    values = [v for v in FLAT_ITEMS if type(v) is float]
    values += [1e16 - 2, -1e16, 2.0**53, -2.5, 1e300, -1.7976931348623157e308, -5e-324]
    expect = "[\n  " + ",\n  ".join(format_float(v) for v in values) + "\n]\n"
    assert dumps(np.array(values)) == expect
    assert [format_float(np.float64(v)) for v in values] == [format_float(v) for v in values]
    assert format_float(-0.0) == "-0.0" and format_float(1e16) == "10000000000000000"


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
