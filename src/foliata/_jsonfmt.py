"""Deterministic JSON serialization with 17-significant-digit floats.

The stdlib ``json`` module offers no hook for float formatting, and lossless
round-trip of IEEE doubles is a hard output requirement, so this is a tiny
hand-rolled emitter for the value types we actually produce (dict, list,
tuple, str, bool, None, int, float, which includes numpy.float64, and 1-d
numpy float and bool arrays), indented by 2.

Every float, alone or in an array, is written by one rule
(:func:`_float_text`): one ``%`` template of per-value specs, filled once,
so a 1-d float array costs one C-level fill and no Python call per element.
A 1-d bool array maps through the literal table that scalars use.
"""

from __future__ import annotations

import numpy as np

#: The JSON text of None and the booleans, alone or in a bool array.
_LITERAL = {None: "null", True: "true", False: "false"}

#: Template spec of a float by its kind: 0 non-finite (no JSON number), 1 any
#: other, 2 integral below 1e16, written as x.0 with the sign of -0.0 kept.
_SPECS = np.array([_LITERAL[None], "%.17g", "%.1f"], dtype=object)


def _float_text(values: np.ndarray, sep: str) -> str:
    """The JSON text of each float of a 1-d array, joined by ``sep``."""
    finite = np.isfinite(values)
    kind = finite.astype(np.intp)
    kind += (values == np.trunc(values)) & (np.abs(values) < 1e16)
    return sep.join(_SPECS[kind].tolist()) % tuple(values[finite].tolist())


def format_float(value: float) -> str:
    """The JSON text of one float."""
    return _float_text(np.array([value], dtype=float), "")


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
    if obj is None or isinstance(obj, bool):
        return _LITERAL[obj]
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return '"' + _escape(obj) + '"'
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "bf":
        if not obj.size:
            return "[]"
        sep = ",\n" + pad_in
        if obj.dtype == bool:
            body = sep.join(map(_LITERAL.__getitem__, obj.tolist()))
        else:
            body = _float_text(obj, sep)
        return "[\n" + pad_in + body + "\n" + pad + "]"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_write(v, level + 1) for v in obj]
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
