"""Report primitives and deterministic JSON emission.

Reports are plain dataclasses holding named check results.  Serialization is
deterministic: construction order is fixed by the code, floats are emitted
with 17 significant digits (round-trip exact for doubles), complex numbers
as [re, im] pairs from ``pairs``, and no timing or host information enters
the JSON payload.
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


def pairs(z):
    """Complex values of any shape as nested [re, im] lists of floats."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


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
    """Deterministic JSON text with 17-significant-digit floats, in one pass.
    Only exact JSON values are written: str, int, float, bool, None, list,
    tuple and dict with str keys; anything else raises TypeError."""
    pieces = []
    _emit(obj, pieces, indent, 0)
    return "".join(pieces)


def _scalar(v):
    """The JSON text of a bool, None, int or float, or None for any other value."""
    cls = type(v)
    if cls is float:
        return _format_float(v)
    if cls is bool:
        return "true" if v else "false"
    if v is None:
        return "null"
    if cls is int:
        return str(v)
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
        pieces.append("{\n")
        last = len(obj) - 1
        for i, (k, v) in enumerate(obj.items()):
            if type(k) is not str:
                raise TypeError(f"cannot serialize a key of {type(k)!r}")
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
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
