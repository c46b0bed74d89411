"""Command-line entry point.

Exit codes: 0 on success, 1 on domain errors (a point outside the moduli, a
non-oscillatory profile, ...), 2 on usage errors.  Data goes to --out or
standard output; diagnostics go to standard error.  Every JSON document
echoes the fully resolved configuration under the key "config".

Only the moduli layer is imported here: each subcommand imports the other
layers it runs, so ``classify`` and ``scan`` load no profile, field, Shiffman
or immersion code.  Nor is numpy: ``classify``, ``--help`` and a usage error
run on the standard library and the moduli layer alone, and load neither
``dataclasses``, ``json``, ``pathlib`` nor ``typing``: files are read and
written with ``open``, and ``json`` is imported by the field-file reader,
its one user.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Iterable, Iterator

from . import __version__
from ._jsonfmt import BLOCK_VALUES, chunks, dumps
from .errors import FoliataError, InvalidParams, PeriodUnavailable
from .moduli import (
    ModuliPoint,
    RegionLabel,
    classification_document,
    classify,
    derive_params,
    scan_csv,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .field import OmegaField

PROFILE_STEP_DEFAULT = 1e-3


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write a text, or the pieces of one in turn, to --out or stdout; a
    file that cannot be written, or a stdout whose reader has gone, is a
    domain error."""
    pieces = [text] if isinstance(text, str) else text
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise FoliataError(f"cannot write {out}: {exc}") from exc
        return
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # what stdout still holds goes to the null device, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise FoliataError(f"cannot write standard output: {exc}") from exc


def _config(args: argparse.Namespace) -> dict:
    cfg = {"subcommand": args.command, "version": __version__}
    skip = {"command", "func"}
    for key in sorted(vars(args)):
        if key not in skip:
            val = getattr(args, key)
            cfg[key.replace("_", "-")] = list(val) if isinstance(val, tuple) else val
    return cfg


def _build_field(args) -> OmegaField:
    """The field of a moduli point: the constant-profile closed form for
    c0 < 0 and |delta| <= DEGENERATE_DELTA c0^2, the profile reconstruction
    elsewhere."""
    from .field import (
        GridSpec,
        ReconstructedSource,
        assemble_omega_degenerate,
        field_from_source,
    )
    from .profile import DEGENERATE_DELTA, ProfileFunction, degenerate_constants

    point = ModuliPoint(args.c0, args.c, args.d)
    point.validate()
    dp = derive_params(point, args.a)
    grid = GridSpec(*args.domain, nx=args.nx, ny=args.ny)
    if args.c0 < 0 and abs(dp.delta) <= DEGENERATE_DELTA * (args.c0 * args.c0):
        return assemble_omega_degenerate(*degenerate_constants(point), grid, args.c0)
    source = ReconstructedSource(
        ProfileFunction(dp, "F", trivial=args.trivial_f),
        ProfileFunction(dp, "G", trivial=args.trivial_g),
    )
    return field_from_source(source, grid)


def _default_period(args) -> float:
    """The period of f at the point of ``args``, which a constant f lacks."""
    from .profile import profile_period

    try:
        return profile_period(derive_params(ModuliPoint(args.c0, args.c, args.d), args.a), "F")
    except FoliataError as exc:
        raise PeriodUnavailable(f"{exc}: give the x-period with --period") from exc


def _cmd_classify(args) -> int:
    point = ModuliPoint(args.c0, args.c, args.d)
    report = classify(point, args.a)
    doc = classification_document(point, report)
    doc["config"] = _config(args)
    _emit(dumps(doc), args.out)
    return 1 if report.label is RegionLabel.OUTSIDE_MODULI else 0


def _cmd_scan(args) -> int:
    _emit(scan_csv(args.c0, tuple(args.rect), args.nx, args.ny), args.out)
    return 0


def _cmd_profile(args) -> int:
    from .profile import sample_profile

    point = ModuliPoint(args.c0, args.c, args.d)
    point.validate()
    dp = derive_params(point, args.a)
    trivial = args.trivial_f if args.kind == "F" else args.trivial_g
    sol = sample_profile(dp, args.kind, tuple(args.range), args.step, trivial=trivial)
    sidecar = {
        "kind": sol.kind,
        "params": dp.document(),
        "period": sol.period,
        "first_integral_drift": sol.first_integral_drift,
        "config": _config(args),
    }
    _emit(_profile_csv(sol), args.out)
    if not args.out:
        sys.stderr.write(dumps(sidecar))
        return 0
    # the CSV is taken back if the sidecar cannot be written: exit 1 leaves
    # neither file
    try:
        _emit(dumps(sidecar), args.out + ".json")
    except FoliataError:
        os.remove(args.out)
        raise
    return 0


def _profile_csv(sol) -> Iterator[str]:
    """The profile CSV in pieces: the header, then one ``%r`` fill per block
    of ``BLOCK_VALUES`` rows."""
    import numpy as np

    yield "x,f,f_x\n"
    for lo in range(0, sol.grid.size, BLOCK_VALUES):
        rows = slice(lo, lo + BLOCK_VALUES)
        block = np.column_stack([sol.grid[rows], sol.values[rows], sol.derivs[rows]])
        yield ("%r,%r,%r\n" * len(block)) % tuple(block.ravel().tolist())


def _cmd_field(args) -> int:
    from .field import field_document

    field = _build_field(args)
    doc = field_document(field)
    doc["config"] = _config(args)
    _emit(chunks(doc), args.out)
    return 0


def _read_field(path: str) -> tuple[object, OmegaField]:
    """The config and field of a field file; unreadable input is a domain
    error.  The file's text and parsed lists are dropped on return."""
    import json

    from .field import field_from_document

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FoliataError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_no_constant)
    except ValueError as exc:
        raise FoliataError(f"{path} is not JSON: {exc}") from exc
    del text
    try:
        field = field_from_document(doc)
    except KeyError as exc:
        raise FoliataError(f"{path} is not a field file: no key {exc}") from exc
    except (TypeError, ValueError, OverflowError, InvalidParams) as exc:
        raise FoliataError(f"{path} is not a field file: {exc}") from exc
    return doc.get("config", {}), field


def _no_constant(name: str):
    """json.loads hook for NaN and Infinity, which JSON lacks and dumps never writes."""
    raise ValueError(f"{name} is not a JSON number")


#: The config fields a field is rebuilt from, with their defaults (None for
#: a required number); a bool default marks a flag.
_REBUILD_FIELDS = {"c": None, "d": None, "a": 0.0, "trivial-f": False, "trivial-g": False}


def _rebuild_args(cfg, field: OmegaField) -> argparse.Namespace:
    """:func:`_build_field` arguments from the generating parameters that a
    field file's config echoes, each a number or, for a flag, a boolean."""
    if not isinstance(cfg, dict):
        raise FoliataError(f"field file config must be an object, got {cfg!r}")
    if cfg.get("c") is None:
        raise FoliataError("field file lacks the generating parameters needed for "
                           "frame integration (no config.c/config.d)")
    grid = field.grid
    args = argparse.Namespace(c0=field.c0, domain=grid.domain, nx=grid.nx, ny=grid.ny)
    for key, default in _REBUILD_FIELDS.items():
        value, flag = cfg.get(key, default), isinstance(default, bool)
        if isinstance(value, bool) != flag or not isinstance(value, (int, float)):
            kind = "true or false" if flag else "a number"
            raise FoliataError(f"field file config.{key} must be {kind}, got {value!r}")
        setattr(args, key.replace("-", "_"), value)
    return args


#: Relative gap, to max(1, |omega|), allowed between a field file's omega
#: and the omega its config rebuilds.
REBUILD_RTOL = 1e-9


def _rebuilt_field(cfg, field: OmegaField) -> OmegaField:
    """The field that a field file's config rebuilds, which must hold the
    file's mask and omega."""
    import numpy as np

    live = _build_field(_rebuild_args(cfg, field))
    gap = np.abs(live.omega - field.omega) > REBUILD_RTOL * np.maximum(1.0, np.abs(field.omega))
    differ = np.flatnonzero(gap | (live.mask != field.mask))
    if differ.size:
        j, i = divmod(int(differ[0]), field.grid.nx)
        raise FoliataError(
            f"field file omega differs from the field its config rebuilds, first at node "
            f"(i={i}, j={j}): {field.omega[j, i]} in the file, {live.omega[j, i]} rebuilt"
        )
    return live


def _cmd_verify(args) -> int:
    cfg, field = _read_field(args.input)
    if args.shiffman:
        from .shiffman import shiffman_document

        out = shiffman_document(field)
    elif args.immersion:
        from .immersion import _frame_residuals, integrate_frame, rk4_row_gap

        frame = integrate_frame(_rebuilt_field(cfg, field), seed=args.seed)
        iso, hre, him, harm = _frame_residuals(frame)
        h = max(frame.grid.hx, frame.grid.hy)
        out = {
            "compat_linf": rk4_row_gap(frame),
            "isometry_linf": iso.stats(h).linf,
            "hopf_real_err": hre,
            "hopf_imag_err": him,
            "harmonic_linf": harm.stats(h).linf,
        }
    else:
        from .field import sinh_gordon_residual

        stats = sinh_gordon_residual(field)
        out = {
            "linf": stats.linf,
            "l2": stats.l2,
            "grid_h": stats.grid_h,
            "count": stats.count,
        }
    out["config"] = _config(args)
    _emit(dumps(out), args.out)
    return 0


def _cmd_mesh(args) -> int:
    from .immersion import build_mesh, integrate_frame, obj_chunks, weierstrass_flat

    frame = integrate_frame(_build_field(args), seed=args.seed)
    mesh = weierstrass_flat(frame) if args.weierstrass else build_mesh(frame)
    # the header names the whole run on both routes, as a JSON output echoes its config
    mesh.metadata.update({"c": args.c, "d": args.d, "a": args.a, "seed": args.seed,
                          "trivial-f": args.trivial_f, "trivial-g": args.trivial_g,
                          "weierstrass": args.weierstrass})
    _emit(obj_chunks(mesh), args.out)
    return 0


def _cmd_holonomy(args) -> int:
    from .immersion import holonomy

    field = _build_field(args)
    period = _default_period(args) if args.period is None else args.period
    report = holonomy(field, period, seed=args.seed)
    doc = report.document()
    doc["config"] = _config(args)
    _emit(dumps(doc), args.out)
    return 0


def _add_point_args(sp):
    sp.add_argument("--c0", type=float, required=True, help="ambient curvature")
    sp.add_argument("--c", type=float, required=True, help="first-integral constant of f")
    sp.add_argument("--d", type=float, required=True, help="first-integral constant of g")
    sp.add_argument(
        "--a", type=float, default=0.0,
        help="separation constant, used only when c0 = 0 (default 0)",
    )


def _add_grid_args(sp):
    sp.add_argument(
        "--domain", type=float, nargs=4, required=True,
        metavar=("X0", "X1", "Y0", "Y1"),
    )
    sp.add_argument("--nx", type=int, required=True)
    sp.add_argument("--ny", type=int, required=True)
    sp.add_argument("--trivial-f", action="store_true", help="select the f = 0 branch")
    sp.add_argument("--trivial-g", action="store_true", help="select the g = 0 branch")


def _add_seed_point(sp):
    sp.add_argument("--seed", type=float, nargs=2, default=None, metavar=("X", "Y"))


class _Parser(argparse.ArgumentParser):
    """Reads a negative float token, such as the repr ``-1e-05``, as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|inf)$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="foliata",
        description="Minimal surfaces foliated by constant-curvature horizontal curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="classify a moduli point")
    _add_point_args(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("scan", help="label a rectangle of moduli cells as CSV")
    sp.add_argument("--c0", type=float, required=True)
    sp.add_argument("--rect", type=float, nargs=4, required=True,
                    metavar=("CMIN", "CMAX", "DMIN", "DMAX"))
    sp.add_argument("--nx", type=int, required=True)
    sp.add_argument("--ny", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("profile", help="sample one profile to CSV")
    _add_point_args(sp)
    sp.add_argument("--kind", choices=["F", "G"], required=True)
    sp.add_argument("--range", type=float, nargs=2, required=True, metavar=("X0", "X1"))
    sp.add_argument("--step", type=float, default=PROFILE_STEP_DEFAULT)
    sp.add_argument("--trivial-f", action="store_true")
    sp.add_argument("--trivial-g", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_profile)

    sp = sub.add_parser("field", help="assemble the conformal exponent as JSON")
    _add_point_args(sp)
    _add_grid_args(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_field)

    sp = sub.add_parser("verify", help="residual diagnostics of a field file")
    sp.add_argument("--input", required=True, help="field JSON produced by 'field'")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--shiffman", action="store_true")
    mode.add_argument("--immersion", action="store_true")
    _add_seed_point(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("mesh", help="integrate the immersion and write an OBJ mesh")
    _add_point_args(sp)
    _add_grid_args(sp)
    _add_seed_point(sp)
    sp.add_argument("--weierstrass", action="store_true",
                    help="flat-space Weierstrass route instead of frame integration")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_mesh)

    sp = sub.add_parser("holonomy", help="chart isometry after one x-period")
    _add_point_args(sp)
    _add_grid_args(sp)
    _add_seed_point(sp)
    sp.add_argument("--period", type=float, default=None,
                    help="override the closed-form period")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_holonomy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and not args.immersion and args.seed is not None:
            parser.error("verify: --seed applies only with --immersion")
        if args.command == "profile" and (args.trivial_g if args.kind == "F" else args.trivial_f):
            parser.error(f"profile --kind {args.kind} takes only --trivial-{args.kind.lower()}")
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except FoliataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
