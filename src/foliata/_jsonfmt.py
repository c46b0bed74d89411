"""Deterministic JSON serialization with 17-significant-digit floats.

The stdlib ``json`` module offers no hook for float formatting, and lossless
round-trip of IEEE doubles is a hard output requirement, so this is a tiny
hand-rolled emitter for the value types we actually produce (dict, list,
tuple, str, bool, None, int and float, which includes numpy.float64),
indented by 2.
"""

from __future__ import annotations

import math


def format_float(value: float) -> str:
    v = float(value)
    if not math.isfinite(v):
        return "null"
    if v.is_integer() and abs(v) < 1e16:
        return format(v, ".1f")  # keeps the sign of -0.0
    return format(v, ".17g")


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def dumps(obj) -> str:
    """Serialize ``obj`` to a JSON string with stable float formatting."""
    return _write(obj, 0) + "\n"


def _write(obj, level):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return '"' + _escape(obj) + '"'
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # plain floats, the bulk of every field document, skip the type chain
        items = [
            format_float(v) if v.__class__ is float else _write(v, level + 1)
            for v in obj
        ]
        return "[\n" + pad_in + (",\n" + pad_in).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'"{_escape(str(k))}": ' + _write(v, level + 1)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")
