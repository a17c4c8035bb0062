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
            out["data"] = jsonable(self.data)
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
    """Deterministic JSON text with 17-significant-digit floats."""
    pieces = []
    _emit(jsonable(obj), pieces, indent, 0)
    return "".join(pieces)


def _emit(obj, pieces, indent, level):
    pad = " " * (indent * (level + 1))
    closepad = " " * (indent * level)
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(_format_float(obj))
    elif isinstance(obj, str):
        pieces.append(f'"{_escape(obj)}"')
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            pieces.append(f'{pad}"{_escape(str(k))}": ')
            _emit(v, pieces, indent, level + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(closepad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in obj)
        if flat and len(obj) <= 16:
            inner = ", ".join(
                _format_float(v) if isinstance(v, float) else
                ("true" if v is True else "false" if v is False else
                 "null" if v is None else str(v))
                for v in obj
            )
            pieces.append(f"[{inner}]")
            return
        pieces.append("[\n")
        for i, v in enumerate(obj):
            pieces.append(pad)
            _emit(v, pieces, indent, level + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(closepad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
