"""The package API and the layers each subcommand loads.

``import foliata`` loads no module of the pipeline: each public name is
imported from its module on first access, and each subcommand imports only
the layers it runs.  ``classify``, ``--help`` and usage errors load no numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import foliata
from foliata.cli import main

#: ``foliata.__all__``: the public names and the five layers and errors.
PUBLIC = [
    "AllSingular", "ChartSpace", "DerivedParams", "DriftExceeded", "FoliataError",
    "FrameField", "GridMismatch", "GridSpec", "HolonomyReport", "InvalidParams", "ModuliPoint",
    "NoRealSolution", "NonConverged", "NonOscillatory", "NotDegenerate", "NotFlat", "OmegaField",
    "PeriodUnavailable", "ProfileSolution", "RegionLabel", "RegionReport", "ResidualStats",
    "SingularCrossing", "SurfaceMesh", "TooFewNodes", "assemble_omega",
    "assemble_omega_degenerate", "build_mesh", "chart_for_curvature", "classify",
    "degenerate_constants", "derive_params", "errors", "field", "flat_route_gap",
    "harmonic_residual", "holonomy", "hopf_deviation", "immersion", "integrate_frame",
    "integrate_profile", "isometry_check", "jacobi_residual", "level_curvatures",
    "mesh_row_curvature", "moduli", "moduli_scan", "normalize_curvature", "obj_chunks", "profile",
    "profile_period", "rk4_row_gap", "sample_profile", "shiffman", "shiffman_field",
    "sinh_gordon_residual", "solve_sinh_gordon", "weierstrass_flat",
]
MODULES = {"errors", "moduli", "profile", "field", "shiffman", "immersion"}


def _python(code: str, *argv: str, cwd=None) -> str:
    """The standard output of ``code`` run in a fresh interpreter."""
    src = str(Path(foliata.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout


def test_all_is_the_public_api():
    assert foliata.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(foliata))


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_modules_object(name):
    value = getattr(foliata, name)
    if name in MODULES:
        assert value is sys.modules[f"foliata.{name}"]
    else:
        home = value.__module__
        assert home.split(".")[1] in MODULES
        assert value is getattr(sys.modules[home], name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from foliata import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


@pytest.mark.parametrize("name", ["write_obj", "ChartOverflow", "cli_main"])
def test_unknown_names_raise(name):
    with pytest.raises(AttributeError, match=name):
        getattr(foliata, name)
    with pytest.raises(ImportError):
        exec(f"from foliata import {name}", {})


def test_import_loads_no_layer():
    probe = "import sys, foliata; print(sorted(m for m in sys.modules if m.startswith('foliata')))"
    assert _python(probe).strip() == "['foliata']"


#: The modules every subcommand loads: the CLI, its JSON writer, the errors
#: and the moduli layer.
BASE = {"foliata.cli", "foliata._jsonfmt", "foliata.errors", "foliata.moduli"}
POINT = ["--c0", "1", "--c", "-1", "--d", "-1"]
GRID = ["--domain", "0", "1", "0", "1", "--nx", "11", "--ny", "11"]
SPHERE = ["--c0", "1", "--c", "0", "--d", "-0.25", "--trivial-f", "--domain", "0", "3", "0", "2",
          "--nx", "11", "--ny", "11", "--seed", "0", "1.48"]

#: (case, argv, layers loaded beyond BASE); a field loads its profiles' layer.
LAYERS = [
    ("classify", ["classify", *POINT, "--out", "out"], set()),
    ("usage-missing", ["classify", "--c0", "1", "--c", "-1"], set()),
    ("usage-verify", ["verify", "--input", "field.json", "--shiffman", "--immersion"], set()),
    ("scan", ["scan", "--c0", "-1", "--rect", "-2", "2", "-1", "2", "--nx", "4", "--ny", "4",
              "--out", "out"], set()),
    ("help", ["--help"], set()),
    ("profile", ["profile", *POINT, "--kind", "F", "--range", "0", "1", "--out", "out"],
     {"profile"}),
    ("field", ["field", *POINT, *GRID, "--out", "out"], {"profile", "field"}),
    ("verify", ["verify", "--input", "field.json", "--out", "out"], {"profile", "field"}),
    ("verify-shiffman", ["verify", "--input", "field.json", "--shiffman", "--out", "out"],
     {"profile", "field", "shiffman"}),
    ("verify-immersion", ["verify", "--input", "field.json", "--immersion", "--out", "out"],
     {"profile", "field", "immersion"}),
    ("mesh", ["mesh", *SPHERE, "--out", "out"], {"profile", "field", "immersion"}),
    ("holonomy", ["holonomy", *SPHERE, "--period", "1.0", "--out", "out"],
     {"profile", "field", "immersion"}),
]

#: The cases that run on the standard library and BASE alone, with no numpy.
NO_NUMPY = {"classify", "usage-missing", "usage-verify", "help"}

PROBE = """
import json, sys
import foliata.cli
rc = foliata.cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("foliata."))
print(json.dumps([rc, loaded, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("name,argv,layers", LAYERS, ids=[case[0] for case in LAYERS])
def test_each_subcommand_loads_only_its_layers(tmp_path, name, argv, layers):
    assert main(["field", *POINT, *GRID, "--out", str(tmp_path / "field.json")]) == 0
    rc, loaded, numpy = json.loads(_python(PROBE, *argv, cwd=tmp_path).splitlines()[-1])
    assert rc == (2 if name.startswith("usage") else 0)
    assert set(loaded) == BASE | {f"foliata.{layer}" for layer in layers}
    assert numpy is (name not in NO_NUMPY)
