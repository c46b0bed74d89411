"""The command line's contract, as a user of the installed package meets it.

The README promises exit codes 0 (success), 1 (a domain error) and 2 (a
usage error), one ``error:`` line on standard error in place of a traceback,
the same bytes for the same argv, and products within stated bounds.  Each
test runs ``foliata.cli.main`` in process, where an uncaught exception fails
the test as a traceback would; the one process test runs the module as the
console script does, because there the exit status and standard error of a
process are the point.  Checks that another test module already makes are
not repeated here.

CI also runs this module, with ``test_imports.py``, against the package
installed in a clean virtual environment, from outside the checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import foliata
from foliata.cli import main

POINT = ["--c0", "1", "--c", "-1", "--d", "-1"]
ONDULOID = ["mesh", "--c0", "1", "--c", "0", "--d", "-0.25", "--trivial-f",
            "--domain", "0", "3", "0", "2", "--nx", "31", "--ny", "21", "--seed", "0", "1.48"]
#: The constant-profile point (-1, 0, 1) on [-2, 2]^2: 410 of its 1681 nodes
#: lie outside the strip |y| < pi/2, where omega is singular.
STRIP = ["--c0", "-1", "--c", "0", "--d", "1", "--domain", "-2", "2", "-2", "2",
         "--nx", "41", "--ny", "41"]


def _written(tmp_path, argv, name) -> Path:
    """The file ``name`` that ``argv`` writes with exit code 0."""
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out


def _written_twice(tmp_path, argv, name) -> Path:
    """The file that ``argv`` writes, run twice with the same --out: the
    second run must write the same bytes as the first."""
    first = _written(tmp_path, argv, name).read_bytes()
    out = _written(tmp_path, argv, name)
    assert out.read_bytes() == first
    return out


def _vertices(path) -> np.ndarray:
    lines = path.read_text().splitlines()
    return np.array([ln.split()[1:] for ln in lines if ln.startswith("v ")], dtype=float)


def test_onduloid_vertices_lie_on_the_unit_sphere_at_their_row_heights(tmp_path):
    # every node is written, on the unit sphere, at the height y of its row,
    # and every cell is a face
    out = _written(tmp_path, ONDULOID, "onduloid.obj")
    v = _vertices(out)
    assert v.shape == (31 * 21, 4)
    assert sum(ln.startswith("f ") for ln in out.read_text().splitlines()) == 30 * 20
    assert np.abs((v[:, :3] ** 2).sum(axis=1) - 1.0).max() <= 1e-10
    assert v[:, 3].tobytes() == np.repeat(np.linspace(0, 2, 21), 31).tobytes()


@pytest.mark.parametrize("n, frame_bound", [(21, 1e-2), (301, 10 * (1.0 / 300) ** 2)])
def test_verify_reports_meet_their_bounds(tmp_path, n, frame_bound):
    # 301^2 nodes span several row blocks of the grid diagnostics: the
    # residuals accumulated block by block cover every interior node
    field = _written(tmp_path, ["field", *POINT, "--domain", "0", "1", "0", "1",
                                "--nx", str(n), "--ny", str(n)], "field.json")
    plain, shiffman, frame = (
        json.loads(_written(tmp_path, ["verify", "--input", str(field), *mode], "v.json").read_text())
        for mode in ([], ["--shiffman"], ["--immersion"]))
    h2 = (1.0 / (n - 1)) ** 2
    assert plain["count"] == (n - 2) ** 2 and plain["linf"] <= 10 * h2
    jacobi = shiffman["jacobi_residual"]
    assert shiffman["max_u"] <= h2 and shiffman["gauss_dual_route_linf"] <= 10 * h2
    assert jacobi["l2"] <= jacobi["linf"]
    assert frame["compat_linf"] <= 1e-6
    for key in ("isometry_linf", "hopf_real_err", "hopf_imag_err", "harmonic_linf"):
        assert frame[key] <= frame_bound, key


def test_weierstrass_mesh_bytes_height_and_cauchy_riemann_residual(tmp_path):
    # 41 rows span three row blocks of the Weierstrass route: the third
    # coordinate is y - y_seed exactly, and the header's Cauchy-Riemann
    # residual is at most 10 h^2
    argv = ["mesh", "--c0", "0", "--c", "-0.25", "--d", "-0.25",
            "--domain", "0.5", "2.5", "0.5", "2.5", "--nx", "41", "--ny", "41", "--weierstrass"]
    out = _written_twice(tmp_path, argv, "flat41.obj")
    v = _vertices(out)
    assert v.shape == (41 * 41, 3)
    y = np.repeat(np.linspace(0.5, 2.5, 41), 41)
    assert np.abs(v[:, 2] - (y - y[np.argmin(np.abs(v[:, 2]))])).max() == 0
    cr = float(out.read_text().split("# cauchy_riemann_linf = ")[1].split("\n")[0])
    assert cr <= 10 * (2.0 / 40) ** 2


def test_mesh_writes_only_valid_nodes_with_finite_coordinates(tmp_path):
    out = _written(tmp_path, ["mesh", *STRIP], "strip.obj")
    records = [ln.split()[1:] for ln in out.read_text().splitlines() if ln.startswith(("v ", "vt "))]
    assert len(records) < 41 * 41
    assert not any(token == "0" for record in records for token in record)
    assert np.isfinite(np.array(records, dtype=float)).all()


def test_field_with_null_nodes_writes_the_same_bytes_and_reads_back(tmp_path):
    # the array writer's null entries, and verify reading them back
    out = _written_twice(tmp_path, ["field", *STRIP], "strip.json")
    assert json.loads(out.read_text())["omega"].count(None) == 410
    for mode in ([], ["--shiffman"]):
        _written(tmp_path, ["verify", "--input", str(out), *mode], "verify.json")


def test_frame_is_in_the_chart_of_the_fields_own_curvature(tmp_path):
    # (4, -16, -16) on [0, 0.5]^2 is (1, -1, -1) on [0, 1]^2 scaled by 1/2,
    # with the same conformality residual
    field = _written(tmp_path, ["field", "--c0", "4", "--c", "-16", "--d", "-16",
                                "--domain", "0", "0.5", "0", "0.5", "--nx", "41", "--ny", "41"],
                     "field4.json")
    report = _written(tmp_path, ["verify", "--input", str(field), "--immersion"], "verify4.json")
    assert json.loads(report.read_text())["isometry_linf"] <= 1e-2


@pytest.mark.parametrize("argv, code", [
    (["classify", *POINT], 0),
    (["classify", "--c0", "0", "--c", "1", "--d", "2"], 1),
    (["verify", "--input", "field.json", "--shiffman", "--immersion"], 2),
], ids=["success", "domain-error", "usage-error"])
def test_process_exit_status_and_standard_error(tmp_path, argv, code):
    # a domain error leaves exactly one "error:" line, and no exit leaves a traceback
    src = str(Path(foliata.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "foliata.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 1:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    elif code == 0:
        assert proc.stderr == "" and json.loads(proc.stdout)["label"] == "RiemannTypeS2"
