"""Spans and counters recorded around the program's public functions.

The traced run replaces functions of the ``foliata`` modules (and the numpy
and scipy calls whose counts the layers are judged by) with wrappers from
this file; nothing under ``src/`` knows about it.  Spans are kept in memory
and written when the run ends.  Each span is ``[name, start, end, parent,
pass]``, where ``parent`` is the index of the enclosing span (-1 for none).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable

import numpy as np


class Tracer:
    """In-memory spans and per-pass counters; records only while enabled."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.pass_id = 0
        self.enabled = False
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: int) -> None:
        self.counts[(self.pass_id, name)] += value

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open in this thread."""
        return any(self.spans[i][0] == name for i in self._stack())

    def span(self, name: str | Callable, fn: Callable, count: Callable | None = None):
        """Wrap ``fn`` so each call records a span and then runs ``count``.

        ``name`` may be a function of the call's arguments.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            rec = [name(*args) if callable(name) else name, 0.0, 0.0,
                   stack[-1] if stack else -1, tracer.pass_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    def counter(self, fn: Callable, count: Callable):
        """Wrap ``fn`` so each call runs ``count`` without recording a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                count(tracer, args, result)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def pass_summary(self, pass_id: int) -> dict:
        """Totals, self times, call counts and nested totals of one pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        within = defaultdict(float)
        within_self = defaultdict(float)
        within_calls = defaultdict(int)
        for i, s in spans:
            dur = s[2] - s[1]
            ancestors = self._ancestors(s)
            calls[s[0]] += 1
            self_time[s[0]] += dur - child_time[i]
            if s[0] not in ancestors:
                total[s[0]] += dur
            for a in set(ancestors) - {s[0]}:
                within[(s[0], a)] += dur
                within_self[(s[0], a)] += dur - child_time[i]
                within_calls[(s[0], a)] += 1
        counts = {name: v for (p, name), v in self.counts.items() if p == pass_id}
        return {"total": total, "self": self_time, "calls": calls, "within": within,
                "within_self": within_self, "within_calls": within_calls, "counts": counts}

    def _ancestors(self, span: list) -> list[str]:
        names = []
        parent = span[3]
        while parent >= 0:
            names.append(self.spans[parent][0])
            parent = self.spans[parent][3]
        return names


def _cli_span_name(argv=None, *_):
    return f"cli.{argv[0]}" if argv else "cli.main"


def _count_eval_many(tracer, args, result):
    tracer.add("profile.eval_points", result[0].size)


def _count_eval_bc(tracer, args, result):
    tracer.add("immersion.source_points", np.size(result.sinh))


def _count_march(tracer, args, result):
    # _march(source, space, direction, lane_coords, t_nodes, ...): one RK4
    # step per gap between consecutive nodes
    tracer.add("immersion.rk4_steps", len(args[4]) - 1)
    tracer.add("immersion.march_calls", 1)


def _count_frame(tracer, args, result):
    tracer.add("immersion.frame_valid", int(result.valid.sum()))
    tracer.add("immersion.frame_nodes", result.valid.size)


def _count_gradient(tracer, args, result):
    if tracer.inside("shiffman.document"):
        tracer.add("shiffman.gradient_calls", 1)


#: (module, attribute, span name or None for a counter only, count function)
TARGETS = [
    ("foliata.cli", "main", _cli_span_name, None),
    ("foliata.moduli", "moduli_scan", "moduli.scan",
     lambda t, a, r: t.add("moduli.cells", a[2] * a[3])),
    ("foliata.moduli", "scan_csv", "moduli.scan_csv", None),
    ("foliata.profile", "integrate_profile", "profile.integrate",
     lambda t, a, r: t.add("profile.samples", r.grid.size)),
    ("foliata.profile", "ProfileFunction.eval_many", "profile.eval", _count_eval_many),
    ("foliata.profile", "profile_period", "profile.period", None),
    ("foliata.field", "assemble_omega", "field.assemble",
     lambda t, a, r: t.add("field.nodes", r.omega.size)),
    ("foliata.field", "assemble_omega_degenerate", "field.assemble",
     lambda t, a, r: t.add("field.nodes", r.omega.size)),
    ("foliata.field", "sinh_gordon_residual", "field.residual", None),
    ("foliata.field", "solve_sinh_gordon", "field.newton", None),
    ("scipy.sparse.linalg", "spsolve", None,
     lambda t, a, r: t.add("field.newton_linear_solves", 1)),
    ("foliata.field", "field_document", "cli.json_write", None),
    ("foliata._jsonfmt", "dumps", "cli.json_write", None),
    ("foliata.field", "field_from_document", "cli.json_read", None),
    ("json", "loads", "cli.json_read", None),
    ("foliata.shiffman", "shiffman_document", "shiffman.document", None),
    ("foliata.shiffman", "jacobi_residual", "shiffman.jacobi", None),
    ("numpy", "gradient", None, _count_gradient),
    ("foliata.immersion", "integrate_frame", "immersion.frame", _count_frame),
    ("foliata.field", "ReconstructedSource.eval_bc", "immersion.source", _count_eval_bc),
    ("foliata.field", "DegenerateSource.eval_bc", "immersion.source", _count_eval_bc),
    ("foliata.immersion", "_march", None, _count_march),
    ("foliata.immersion", "build_mesh", "immersion.mesh", None),
    ("foliata.immersion", "weierstrass_flat", "immersion.mesh", None),
    ("foliata.immersion", "write_obj", "immersion.obj",
     lambda t, a, r: t.add("immersion.obj_bytes", len(r))),
    ("foliata.immersion", "holonomy", "immersion.holonomy", None),
    ("foliata.immersion", "isometry_check", "immersion.checks", None),
    ("foliata.immersion", "hopf_deviation", "immersion.checks", None),
    ("foliata.immersion", "harmonic_residual", "immersion.checks", None),
]


def install(tracer: Tracer) -> Callable[[], None]:
    """Put the wrappers in place and return the function that removes them.

    A module-level function is replaced in its own module and in every
    ``foliata`` module that imported it by name.  A target the program no
    longer has is skipped, so its metrics read 0.
    """
    undo: list[tuple[object, str, object]] = []
    for module_name, attr, name, count in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        owner = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            continue
        if name is None:
            wrapped = tracer.counter(original, count)
        else:
            wrapped = tracer.span(name, original, count)
        homes = [owner]
        if not path:
            homes += [m for n, m in list(sys.modules.items())
                      if (n == "foliata" or n.startswith("foliata.")) and m is not owner]
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is original:
                    undo.append((home, key, value))
                    setattr(home, key, wrapped)

    def remove():
        for home, key, value in reversed(undo):
            setattr(home, key, value)

    return remove


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    total, self_time, calls = summary["total"], summary["self"], summary["calls"]
    within, within_calls, counts = summary["within"], summary["within_calls"], summary["counts"]
    source_points = counts.get("immersion.source_points", 0)
    eval_points = counts.get("profile.eval_points", 0)
    frame_nodes = counts.get("immersion.frame_nodes", 0)
    within_self = summary["within_self"]
    # the holonomy subcommand's time split between profile evaluation and
    # frame marching (RK4 arithmetic and source assembly, profile calls excluded)
    command_eval = within.get(("profile.eval", "cli.holonomy"), 0.0)
    command_march = sum(within_self.get((name, "cli.holonomy"), 0.0) for name in (
        "immersion.frame", "immersion.source", "immersion.holonomy"))
    return {
        "moduli.scan_s": total["moduli.scan"],
        "moduli.cells": counts.get("moduli.cells", 0),
        "moduli.csv_s": self_time["moduli.scan_csv"],
        "profile.integrate_s": total["profile.integrate"],
        "profile.samples": counts.get("profile.samples", 0),
        "cli.profile_csv_s": self_time["cli.profile"],
        "profile.eval_s": total["profile.eval"],
        "profile.eval_calls": calls["profile.eval"],
        "profile.eval_points": eval_points,
        "profile.march_share": eval_points / source_points if source_points else 0.0,
        "profile.period_s": total["profile.period"],
        "profile.period_calls": calls["profile.period"],
        "field.assemble_s": self_time["field.assemble"],
        "field.nodes": counts.get("field.nodes", 0),
        "field.residual_s": total["field.residual"],
        "field.newton_s": total["field.newton"],
        "field.newton_linear_solves": counts.get("field.newton_linear_solves", 0),
        "cli.json_write_s": total["cli.json_write"],
        "cli.json_read_s": total["cli.json_read"],
        "cli.bytes_out": counts.get("cli.bytes_out", 0),
        "shiffman.document_s": total["shiffman.document"],
        "shiffman.document_calls": calls["shiffman.document"],
        "shiffman.jacobi_s": total["shiffman.jacobi"],
        "shiffman.gradient_calls": counts.get("shiffman.gradient_calls", 0),
        "immersion.frame_s": self_time["immersion.frame"],
        "immersion.source_s": self_time["immersion.source"],
        "immersion.source_evals": calls["immersion.source"],
        "immersion.source_points": source_points,
        "immersion.rk4_steps": counts.get("immersion.rk4_steps", 0),
        "immersion.march_calls": counts.get("immersion.march_calls", 0),
        "immersion.valid_frac": counts.get("immersion.frame_valid", 0) / frame_nodes
        if frame_nodes else 0.0,
        "immersion.mesh_s": total["immersion.mesh"],
        "immersion.obj_s": total["immersion.obj"],
        "immersion.obj_bytes": counts.get("immersion.obj_bytes", 0),
        "immersion.holonomy_s": total["immersion.holonomy"],
        "immersion.holonomy_evals": within_calls.get(("immersion.source", "immersion.holonomy"), 0),
        "holonomy_cmd.s": total["cli.holonomy"],
        "holonomy_cmd.eval_s": command_eval,
        "holonomy_cmd.march_s": command_march,
        "immersion.checks_s": total["immersion.checks"],
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
