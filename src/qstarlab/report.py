"""Report primitives and deterministic JSON emission.

Reports are plain dataclasses holding named check results.  Serialization is
deterministic: construction order is fixed by the code, floats are emitted
with 17 significant digits (round-trip exact for doubles), complex numbers
as [re, im] pairs, and no timing or host information enters the JSON payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class CheckResult:
    """One named check: verdict plus the numbers that justify it."""

    name: str
    passed: bool
    data: dict = field(default_factory=dict)
    note: str = ""

    def as_dict(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed)}
        if self.data:
            out["data"] = self.data
        if self.note:
            out["note"] = self.note
        return out


def all_passed(checks) -> bool:
    return all(c.passed for c in checks)


def jsonable(obj):
    """Convert numpy scalars/arrays and complex values to JSON-ready types."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e16:
        # keep integral floats readable and stable
        return repr(float(x))
    return format(x, ".17g")


# JSON string escapes: quote, backslash, \n, \t, and \uXXXX for the other
# control characters below 0x20
_ESCAPES = str.maketrans({**{chr(c): f"\\u{c:04x}" for c in range(0x20)},
                          '"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t"})


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


def dumps(obj, indent: int = 2) -> str:
    """Deterministic JSON text with 17-significant-digit floats, in one pass:
    values that are not plain JSON types are written as ``jsonable``
    converts them."""
    pieces = []
    _emit(obj, pieces, indent, 0)
    return "".join(pieces)


def _scalar(v):
    """The JSON text of a bool, None, int or float, numpy's and 0-d arrays
    included, or None for any other value."""
    if type(v) is float:
        return _format_float(v)
    if v is True or v is False or isinstance(v, np.bool_):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, np.integer):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _format_float(float(v))
    if isinstance(v, np.ndarray) and v.ndim == 0:
        return _scalar(v.item())
    return None


def _emit(obj, pieces, indent, level):
    pad = " " * (indent * (level + 1))
    closepad = " " * (indent * level)
    cls = type(obj)
    if cls is str:
        pieces.append(f'"{_escape(obj)}"')
    elif cls is float:
        pieces.append(_format_float(obj))
    elif cls is dict:
        if not obj:
            pieces.append("{}")
            return
        start = len(pieces)
        pieces.append("{\n")
        last = len(obj) - 1
        for i, (k, v) in enumerate(obj.items()):
            if type(k) is not str:
                del pieces[start:]
                _emit(jsonable(obj), pieces, indent, level)
                return
            pieces.append(f'{pad}"{_escape(k)}": ')
            _emit(v, pieces, indent, level + 1)
            pieces.append(",\n" if i < last else "\n")
        pieces.append(closepad + "}")
    elif cls is list or cls is tuple:
        if not obj:
            pieces.append("[]")
            return
        if len(obj) <= 16:
            flat = []
            for v in obj:
                if (text := _scalar(v)) is None:
                    break
                flat.append(text)
            else:
                pieces.append(f"[{', '.join(flat)}]")
                return
        pieces.append("[\n")
        last = len(obj) - 1
        for i, v in enumerate(obj):
            pieces.append(pad)
            _emit(v, pieces, indent, level + 1)
            pieces.append(",\n" if i < last else "\n")
        pieces.append(closepad + "]")
    elif (text := _scalar(obj)) is not None:
        pieces.append(text)
    elif isinstance(obj, str):
        pieces.append(f'"{_escape(obj)}"')
    else:
        conv = jsonable(obj)
        if conv is obj:
            raise TypeError(f"cannot serialize {type(obj)!r}")
        _emit(conv, pieces, indent, level)
