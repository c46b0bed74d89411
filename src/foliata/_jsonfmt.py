"""Deterministic JSON serialization with 17-significant-digit floats.

The stdlib ``json`` module offers no hook for float formatting, and lossless
round-trip of IEEE doubles is a hard output requirement, so this is a tiny
hand-rolled emitter for the value types we actually produce (dict, list,
tuple, str, bool, None, int, float, which includes numpy.float64, and 1-d
numpy float and bool arrays), indented by 2.

Every float, alone or in an array, is written by one rule: ``null`` when it
is not finite, ``%.1f`` when it is integral and below 1e16 in magnitude (so
-0.0 keeps its sign), ``%.17g`` otherwise.  It has two forms.
:func:`format_float` applies it to one Python float with no numpy, so a
document of scalars (``classify``) is written without importing numpy.
:func:`_float_text` applies it to a 1-d array: one ``%`` template of
per-value specs, filled once per block, so an array costs one C-level fill
per ``BLOCK_VALUES`` values and no Python call per element.  A 1-d bool
array maps through the literal table that scalars use.

:func:`chunks` is the one writer: it yields the text in pieces, an array's
a block at a time, so a document streamed to a file is never held whole;
:func:`dumps` joins the pieces.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator

#: Values per block of the text writers: a 1-d array's JSON, the profile
#: CSV's rows and the moduli scan's cells go out this many at a time, so
#: their temporaries stay bounded whatever the size of the output.
BLOCK_VALUES = 32768

#: The JSON text of None and the booleans, alone or in a bool array.
_LITERAL = {None: "null", True: "true", False: "false"}

#: Template spec of a float by its kind: 0 non-finite (no JSON number), 1 any
#: other, 2 integral below 1e16, written as x.0 with the sign of -0.0 kept.
_SPECS = (_LITERAL[None], "%.17g", "%.1f")


def _float_text(values, sep: str) -> str:
    """The JSON text of each float of a 1-d array, joined by ``sep``."""
    import numpy as np

    finite = np.isfinite(values)
    kind = finite.astype(np.intp)
    kind += (values == np.trunc(values)) & (np.abs(values) < 1e16)
    specs = np.array(_SPECS, dtype=object)[kind]
    return sep.join(specs.tolist()) % tuple(values[finite].tolist())


def format_float(value: float) -> str:
    """The JSON text of one float, by the rule of :func:`_float_text`."""
    if not math.isfinite(value):
        return _SPECS[0]
    return _SPECS[2 if value.is_integer() and abs(value) < 1e16 else 1] % value


#: str.translate table of the characters a JSON string must escape: the
#: quote, the backslash and the control characters.
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def dumps(obj) -> str:
    """Serialize ``obj`` to a JSON string with stable float formatting."""
    return "".join(chunks(obj))


def chunks(obj) -> Iterator[str]:
    """The text of :func:`dumps` in pieces, a 1-d array's in blocks of
    ``BLOCK_VALUES`` values."""
    yield from _write(obj, 0)
    yield "\n"


def _write(obj, level) -> Iterator[str]:
    if obj is None or isinstance(obj, bool):
        yield _LITERAL[obj]
    elif isinstance(obj, int):
        yield str(int(obj))
    elif isinstance(obj, float):
        yield format_float(obj)
    elif isinstance(obj, str):
        yield '"' + obj.translate(_ESCAPES) + '"'
    elif _is_vector(obj):
        sep = ",\n" + "  " * (level + 1)
        blocks = (obj[lo:lo + BLOCK_VALUES] for lo in range(0, obj.size, BLOCK_VALUES))
        if obj.dtype == bool:
            items = ([sep.join(map(_LITERAL.__getitem__, b.tolist()))] for b in blocks)
        else:
            items = ([_float_text(b, sep)] for b in blocks)
        yield from _bracketed("[", "]", items, level)
    elif isinstance(obj, (list, tuple)):
        yield from _bracketed("[", "]", (_write(v, level + 1) for v in obj), level)
    elif isinstance(obj, dict):
        items = (_keyed(k, v, level + 1) for k, v in obj.items())
        yield from _bracketed("{", "}", items, level)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _is_vector(obj) -> bool:
    """Whether ``obj`` is a 1-d numpy float or bool array."""
    np = sys.modules.get("numpy")  # no array exists before numpy is loaded
    return (np is not None and isinstance(obj, np.ndarray) and obj.ndim == 1
            and obj.dtype.kind in "bf")


def _keyed(key, value, level) -> Iterator[str]:
    yield f'"{str(key).translate(_ESCAPES)}": '
    yield from _write(value, level)


def _bracketed(open_: str, close: str, items: Iterable[Iterable[str]], level) -> Iterator[str]:
    """``items``, each a run of pieces, one to a line inside the brackets,
    indented one level past ``level``; ``[]`` or ``{}`` when there are none."""
    pad_in = "\n" + "  " * (level + 1)
    empty = True
    for item in items:
        yield open_ + pad_in if empty else "," + pad_in
        yield from item
        empty = False
    yield open_ + close if empty else "\n" + "  " * level + close
