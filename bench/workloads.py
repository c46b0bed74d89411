"""Seeded inputs, timed program calls and output checks of the workloads.

A workload is a list of operations run in order; one run of the list is a
pass.  Only an operation's ``call`` is timed.  Its ``check`` runs afterwards
against the oracles of the acceptance suite and raises ``CheckFailed`` when
an output is wrong.  The seed moves moduli points and domains by small
amounts that keep every point in its surface family; grid sizes do not
depend on the seed, so every seed does the same work.

The program is reached only through module attributes looked up at call
time (``cli.main``, ``field.assemble_omega``, ...), so that the traced run can
wrap them from outside.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from foliata import cli, errors, field, moduli, profile, shiffman

#: Grid and range sizes.  "full" is the benchmark; "small" serves the self-test.
SIZES = {
    "full": {
        "scan": (400, 200),
        "profile_span": (100.0, 50.0),
        "field_n": 401,
        "refine_ns": (101, 201, 401, 801),
        "newton_ns": (51, 101, 201),
        "mesh": (301, 201),
        "weierstrass_n": 201,
        "holonomy": (241, 121),
        "immersion_n": 101,
    },
    "small": {
        "scan": (40, 20),
        "profile_span": (10.0, 5.0),
        "field_n": 41,
        "refine_ns": (51, 101),
        "newton_ns": (51, 101),
        "mesh": (31, 21),
        "weierstrass_n": 41,
        "holonomy": (61, 31),
        "immersion_n": 41,
    },
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed program call and the check of its outputs.

    ``files`` lists the output files that identical argv must reproduce byte
    for byte on every pass of a run.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    files: tuple[Path, ...] = ()


def _num(x: float) -> str:
    return repr(float(x))


def _cli_op(name: str, argv: list[str], check: Callable[[], None], files: tuple[Path, ...]) -> Op:
    def call():
        return cli.main(argv)

    def check_rc(rc):
        expect(rc == 0, f"exit code {rc}")
        check()

    return Op(name, call, check_rc, files)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

def _scalar_label(c0: float, c: float, d: float) -> str:
    try:
        return moduli.classify(moduli.ModuliPoint(c0, c, d)).label.value
    except errors.InvalidParams:
        return "OutsideModuli"


def _scan_op(rng, work: Path, c0: float, n: int) -> Op:
    # a square rectangle keeps cells on the c = d diagonal, which is the only
    # place where the flat ambient space has surfaces
    lo = -2.0 + rng.uniform(-0.01, 0.01)
    hi = 2.0 + rng.uniform(-0.01, 0.01)
    out = work / f"scan_{c0:+.0f}.csv"
    argv = ["scan", "--c0", _num(c0), "--rect", _num(lo), _num(hi), _num(lo), _num(hi),
            "--nx", str(n), "--ny", str(n), "--out", str(out)]
    sample = rng.integers(0, n * n, size=min(200, n * n))
    width = (hi - lo) / n

    def check():
        rows = out.read_text(encoding="utf-8").splitlines()
        expect(rows[0] == "c,d,label", "scan header")
        expect(len(rows) == n * n + 1, f"scan has {len(rows) - 1} rows, want {n * n}")
        for k in sample:
            c_txt, d_txt, label = rows[k + 1].split(",")
            c, d = float(c_txt), float(d_txt)
            j, i = divmod(int(k), n)
            expect(abs(c - (lo + (i + 0.5) * width)) <= 1e-12
                   and abs(d - (lo + (j + 0.5) * width)) <= 1e-12, f"scan cell {k} position")
            want = _scalar_label(c0, c, d)
            expect(label == want, f"scan cell ({c}, {d}) labelled {label}, classify says {want}")

    return _cli_op(f"scan c0={c0:+.0f} {n}x{n}", argv, check, (out,))


def _first_integral_coefficients(c0, c, d, kind):
    # w'^2 + w^4 + k w^2 + m0 = 0 with (k, m0) = (c0 + a, c) for f, (c0 - a, d) for g
    a = (c - d) / c0
    return (c0 + a, c) if kind == "F" else (c0 - a, d)


def _profile_op(rng, work: Path, tag: str, point, kind: str, span: float) -> Op:
    c0, c, d = point
    out = work / f"profile_{kind}.csv"
    sidecar = Path(str(out) + ".json")
    argv = ["profile", "--c0", _num(c0), "--c", _num(c), "--d", _num(d), "--kind", kind,
            "--range", "0", _num(span), "--step", "0.001", "--out", str(out)]
    k, m0 = _first_integral_coefficients(c0, c, d, kind)
    dp = moduli.derive_params(moduli.ModuliPoint(c0, c, d))
    period = profile.profile_period(dp, kind)
    n_min = round(span / 1e-3) + 1
    pick_seed = int(rng.integers(2**31))

    def check():
        rows = out.read_text(encoding="utf-8").splitlines()
        expect(rows[0] == "x,f,f_x", "profile header")
        expect(len(rows) - 1 >= n_min, f"profile has {len(rows) - 1} samples, want >= {n_min}")
        expect(float(rows[1].split(",")[0]) == 0.0, "profile starts at 0")
        expect(float(rows[-1].split(",")[0]) >= span - 1e-9, "profile covers the range")
        picks = np.random.default_rng(pick_seed).integers(1, len(rows), size=1000)
        vals = np.array([[float(t) for t in rows[i].split(",")[1:]] for i in picks])
        w, dw = vals[:, 0], vals[:, 1]
        drift = float(np.max(np.abs(dw * dw + w ** 4 + k * w * w + m0)))
        expect(drift <= 1e-9, f"sampled first-integral drift {drift:.3e}")
        meta = _read_json(sidecar)
        expect(meta["first_integral_drift"] <= 1e-9,
               f"reported drift {meta['first_integral_drift']:.3e}")
        expect(meta["period"] == period, f"period {meta['period']} != profile_period {period}")

    return _cli_op(f"profile {kind} {tag}", argv, check, (out, sidecar))


def _grid_argv(command: str, point, domain, nx: int, ny: int, out: Path, extra=()) -> list[str]:
    """argv of a subcommand that takes a moduli point and a grid."""
    c0, c, d = point
    return [command, "--c0", _num(c0), "--c", _num(c), "--d", _num(d),
            "--domain", *map(_num, domain), "--nx", str(nx), "--ny", str(ny),
            *extra, "--out", str(out)]


def _field_ops(work: Path, tag: str, point, domain, n: int, provenance: str,
               closed_form=None, modes=("", "--shiffman")) -> list[Op]:
    """``field`` followed by ``verify`` in each of ``modes`` on the written file."""
    src = work / f"field_{tag}.json"
    h = max(domain[1] - domain[0], domain[3] - domain[2]) / (n - 1)

    def check_field():
        doc = _read_json(src)
        expect((doc["nx"], doc["ny"]) == (n, n), "field grid size")
        expect(doc["provenance"] == provenance, f"provenance {doc['provenance']}")
        expect(len(doc["omega"]) == n * n and not any(doc["mask"]), "field nodes")
        if closed_form is not None:
            xs = np.linspace(domain[0], domain[1], n)
            ys = np.linspace(domain[2], domain[3], n)
            omega = np.array(doc["omega"], dtype=float).reshape(n, n)
            want = closed_form(xs[None, :], ys[:, None])
            gap = float(np.max(np.abs(omega - want)))
            expect(gap <= 1e-12, f"field departs from its closed form by {gap:.2e}")

    argv = _grid_argv("field", point, domain, n, n, src)
    ops = [_cli_op(f"field {tag} {n}x{n}", argv, check_field, (src,))]
    for mode in modes:
        out = work / f"verify_{tag}{mode.replace('-', '_')}.json"
        argv = ["verify", "--input", str(src), *([mode] if mode else []), "--out", str(out)]
        ops.append(_cli_op(" ".join(filter(None, ("verify", mode, tag))), argv,
                           _verify_check(mode, out, n, h), (out,)))
    return ops


def _verify_check(mode: str, out: Path, n: int, h: float) -> Callable[[], None]:
    def residual():
        doc = _read_json(out)
        expect(doc["count"] == (n - 2) ** 2, f"residual over {doc['count']} nodes")
        expect(doc["linf"] <= 10.0 * h * h, f"structure residual {doc['linf']:.3e} > 10 h^2")

    def shiffman_check():
        doc = _read_json(out)
        # Shiffman vanishing: max |u| = C h^2 with C below 1 on these fields
        expect(doc["max_u"] is not None and doc["max_u"] <= h * h, f"max |u| {doc['max_u']}")
        expect(doc["potential_identity_linf"] <= 1e-12, "potential identity")
        expect(doc["gauss_dual_route_linf"] <= 10.0 * h * h, "Gauss dual route")
        expect(math.isfinite(doc["jacobi_residual"]["linf"]), "Jacobi residual")

    def immersion():
        doc = _read_json(out)
        expect(doc["compat_linf"] <= 1e-6, f"path compatibility {doc['compat_linf']:.3e}")
        for key in ("isometry_linf", "hopf_real_err", "hopf_imag_err", "harmonic_linf"):
            expect(doc[key] <= 1e-2, f"{key} {doc[key]:.3e}")

    return {"": residual, "--shiffman": shiffman_check, "--immersion": immersion}[mode]


def atlas(seed: int, size: dict, work: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    big, small = size["scan"]
    ops = [_scan_op(rng, work, c0, n) for c0, n in ((-1.0, big), (0.0, small), (1.0, small))]

    f_span, g_span = size["profile_span"]
    # (1, c, 0) with c < 0 is HelicoidS2: sign-changing f
    ops.append(_profile_op(rng, work, "helicoid", (1.0, -1.0 + rng.uniform(-0.02, 0.02), 0.0),
                           "F", f_span))
    # (-1, c, d) with c < 0 < d is AnnulusFamily: one-signed g
    g_point = (-1.0, -1.0 + rng.uniform(-0.02, 0.02), 1.0 + rng.uniform(-0.02, 0.02))
    ops.append(_profile_op(rng, work, "annulus", g_point, "G", g_span))

    n = size["field_n"]
    x0, y0 = rng.uniform(0.0, 0.05, size=2)
    point = (1.0, -1.0 + rng.uniform(-0.05, 0.05), -1.0 + rng.uniform(-0.05, 0.05))
    ops += _field_ops(work, "riemann", point, (x0, x0 + 1.0, y0, y0 + 1.0), n, "Reconstructed")

    # discriminant-zero curve at c0 = -1: (c, d) = (s^2, (1 + s)^2) with s <= 0,
    # dyadic so that delta = 0 holds exactly and the CLI picks the closed form
    s = -float(rng.integers(0, 13)) / 256.0
    alpha, beta = math.sqrt(-s), math.sqrt(1.0 + s)
    off = rng.uniform(-0.02, 0.02)
    ops += _field_ops(
        work, "gamma", (-1.0, s * s, (1.0 + s) ** 2),
        (-0.5 + off, 0.5 + off, -0.5 + off, 0.5 + off), n, "Degenerate",
        closed_form=lambda x, y: np.arcsinh(-np.tan(alpha * x + beta * y)),
    )
    return ops


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def _ratio(name: str, coarse: float, fine: float, lo: float, hi: float) -> None:
    r = coarse / fine
    expect(lo <= r <= hi, f"{name} refinement ratio {r:.3f} outside [{lo}, {hi}]")


def refine(seed: int, size: dict, work: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    # checks run in operation order, so each finer grid finds its coarser
    # neighbour's figures here
    state: dict[Any, Any] = {}

    point = (1.0, -1.0 + rng.uniform(-0.05, 0.05), -1.0 + rng.uniform(-0.05, 0.05))
    x0, y0 = rng.uniform(0.0, 0.05, size=2)
    box = (x0, x0 + 1.0, y0, y0 + 1.0)
    c = -0.25 + rng.uniform(-0.02, 0.02)
    newton_point = (-1.0, c, c)
    bump = 0.1 + rng.uniform(-0.01, 0.01)
    theta = rng.uniform(0.0, 0.05)
    alpha, beta = math.sin(theta), math.cos(theta)
    off = rng.uniform(-0.02, 0.02)
    strip = (-0.6 + off, 0.6 + off, -0.6 + off, 0.6 + off)

    def profiles():
        out = {}
        for tag, (c0, c, d), (a0, a1, b0, b1) in (
            ("riemann", point, box),
            ("newton", newton_point, (0.0, 1.0, 0.0, 1.0)),
        ):
            dp = moduli.derive_params(moduli.ModuliPoint(c0, c, d))
            out[tag] = (
                profile.integrate_profile(dp, "F", (a0, a1), 1e-3),
                profile.integrate_profile(dp, "G", (b0, b1), 1e-3),
            )
        state["profiles"] = out
        return out

    def check_profiles(out):
        for fsol, gsol in out.values():
            expect(max(fsol.first_integral_drift, gsol.first_integral_drift) <= 1e-9,
                   "profile drift")

    ops = [Op("integrate profiles", profiles, check_profiles)]

    def diagnose(fld):
        return (
            field.sinh_gordon_residual(fld),
            shiffman.shiffman_document(fld),
            field.level_curvatures(fld),
        )

    def riemann(grid):
        fsol, gsol = state["profiles"]["riemann"]
        return diagnose(field.assemble_omega(fsol, gsol, grid))

    def degenerate(grid):
        return diagnose(field.assemble_omega_degenerate(alpha, beta, grid))

    ns = size["refine_ns"]
    for tag, build, domain in (("riemann", riemann, box), ("degenerate", degenerate, strip)):
        for k, n in enumerate(ns):
            grid = field.GridSpec(*domain, n, n)
            coarser = (tag, ns[k - 1]) if k else None
            ops.append(Op(f"refine {tag} {n}x{n}", functools.partial(build, grid),
                          _refine_check(state, (tag, n), coarser, grid, beta)))

    def solve(grid):
        fsol, gsol = state["profiles"]["newton"]
        boundary = field.assemble_omega(fsol, gsol, grid).omega.copy()
        boundary[-1, :] += bump * np.sin(np.pi * grid.xs) ** 3
        solved = field.solve_sinh_gordon(-1.0, grid, boundary)
        u = shiffman.shiffman_field(solved)
        return u, shiffman.jacobi_residual(solved, u, margin=0.1)

    ns = size["newton_ns"]
    for k, n in enumerate(ns):
        grid = field.GridSpec(0.0, 1.0, 0.0, 1.0, n, n)
        coarser = ("newton", ns[k - 1]) if k else None
        ops.append(Op(f"newton {n}x{n}", functools.partial(solve, grid),
                      _newton_check(state, ("newton", n), coarser)))
    return ops


def _refine_check(state, key, coarser, grid, beta):
    def check(result):
        stats, doc, (k_h, _) = result
        h2 = grid.hx * grid.hx
        expect(stats.count == (grid.nx - 2) ** 2, f"residual over {stats.count} nodes")
        expect(doc["max_u"] <= h2, f"max |u| {doc['max_u']:.3e} > h^2")
        interior = k_h[1:-1, 1:-1]
        expect(bool(np.all(np.isfinite(interior))), "level curvature not finite")
        if key[0] == "degenerate":
            # every horizontal curve of the constant-profile family has k_h = beta
            gap = float(np.max(np.abs(interior - beta)))
            expect(gap <= 2.0 * h2, f"k_h departs from beta by {gap:.2e}")
        state[key] = (stats.linf, doc["max_u"] / h2)
        if coarser in state:
            _ratio(f"{key[0]} structure residual", state[coarser][0], stats.linf, 3.5, 4.5)
            if key[0] == "riemann":
                _ratio("Shiffman constant", state[coarser][1], doc["max_u"] / h2, 0.5, 2.0)

    return check


def _newton_check(state, key, coarser):
    def check(result):
        u, stats = result
        expect(float(np.nanmax(np.abs(u))) > 1e-2, "Shiffman field of the solve vanishes")
        state[key] = stats.linf
        if coarser in state:
            _ratio("Jacobi residual", state[coarser], stats.linf, 3.5, 4.5)

    return check


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

def _obj_arrays(path: Path):
    """Vertex rows (from ``v`` lines) and 0-based face indices of an OBJ file."""
    verts, faces = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("v "):
            verts.append(line[2:])
        elif line.startswith("f "):
            faces.append(line[2:].replace("/", " "))
    v = np.array(" ".join(verts).split(), dtype=float).reshape(len(verts), -1)
    f = np.array(" ".join(faces).split(), dtype=np.int64).reshape(len(faces), -1)[:, ::2] - 1
    return v, f


def _onduloid_mesh_op(rng, work: Path, nx: int, ny: int) -> Op:
    """Sphere onduloid (1, 0, d) on the f = 0 branch: vertices lie on the unit sphere."""
    point = (1.0, 0.0, -0.25 + rng.uniform(-0.01, 0.01))
    sh = rng.uniform(0.0, 0.02)
    domain = (sh, 2.0 + sh, sh, 2.0 + sh)
    out = work / "onduloid.obj"
    ys = np.linspace(domain[2], domain[3], ny)

    def check():
        v, f = _obj_arrays(out)
        expect(v.shape == (nx * ny, 4) and len(f) > 0, f"mesh shape {v.shape}, {len(f)} faces")
        used = v[np.unique(f)]
        err = float(np.max(np.abs((used[:, :3] ** 2).sum(axis=1) - 1.0)))
        expect(err <= 1e-10, f"sphere lift error {err:.2e}")
        expect(bool(np.all(v[:, 3] == np.repeat(ys, nx))), "mesh heights")

    argv = _grid_argv("mesh", point, domain, nx, ny, out, ("--trivial-f", "--seed", "0", "1.48"))
    return _cli_op(f"mesh onduloid {nx}x{ny}", argv, check, (out,))


def _flat_mesh_op(rng, work: Path, n: int) -> Op:
    """Flat point (0, c, c) by the Weierstrass route: the third coordinate is y - y_seed."""
    c = -0.25 + rng.uniform(-0.01, 0.01)
    sh = rng.uniform(0.0, 0.02)
    domain = (0.5 + sh, 2.5 + sh, 0.5 + sh, 2.5 + sh)
    out = work / "flat.obj"
    ys = np.linspace(domain[2], domain[3], n)
    h = 2.0 / (n - 1)

    def check():
        v, f = _obj_arrays(out)
        expect(v.shape == (n * n, 3) and len(f) > 0, f"mesh shape {v.shape}, {len(f)} faces")
        used = np.unique(f)
        rows = used // n
        seed_row = rows[int(np.argmin(np.abs(v[used, 2])))]
        gap = float(np.max(np.abs(v[used, 2] - (ys[rows] - ys[seed_row]))))
        expect(gap <= 1e-9, f"third coordinate departs from y by {gap:.2e}")
        text = out.read_text(encoding="utf-8")
        cr = float(text.split("# cauchy_riemann_linf = ", 1)[1].split("\n", 1)[0])
        expect(cr <= 10.0 * h * h, f"Cauchy-Riemann residual {cr:.2e} > 10 h^2")

    argv = _grid_argv("mesh", (0.0, c, c), domain, n, n, out, ("--weierstrass",))
    return _cli_op(f"mesh --weierstrass {n}x{n}", argv, check, (out,))


def _holonomy_op(rng, work: Path, nx: int, ny: int) -> Op:
    """Annulus (-1, c, d): the frame is re-marched across one horizontal period."""
    point = (-1.0, -1.0 + rng.uniform(-0.005, 0.005), 1.0 + rng.uniform(-0.005, 0.005))
    sh = rng.uniform(0.0, 0.01)
    domain = (0.0, 6.0, 0.98 + sh, 1.99 + sh)
    out = work / "holonomy.json"
    argv = _grid_argv("holonomy", point, domain, nx, ny, out)

    def check():
        doc = _read_json(out)
        expect(doc["type"] in ("identity", "rotation", "translation"), f"type {doc['type']}")
        expect(doc["residual"] <= 1e-6, f"holonomy residual {doc['residual']:.2e}")

    return _cli_op(f"holonomy {nx}x{ny}", argv, check, (out,))


def surface(seed: int, size: dict, work: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = [
        _onduloid_mesh_op(rng, work, *size["mesh"]),
        _flat_mesh_op(rng, work, size["weierstrass_n"]),
        _holonomy_op(rng, work, *size["holonomy"]),
    ]
    n = size["immersion_n"]
    point = (1.0, -1.0 + rng.uniform(-0.05, 0.05), -1.0 + rng.uniform(-0.05, 0.05))
    sh = rng.uniform(0.0, 0.05)
    ops += _field_ops(work, "sphere", point, (sh, 1.0 + sh, sh, 1.0 + sh), n, "Reconstructed",
                      modes=("--immersion",))
    return ops


WORKLOADS = {"atlas": atlas, "refine": refine, "surface": surface}
