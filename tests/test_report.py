"""Deterministic JSON emission."""

import contextlib
import io

import numpy as np
import pytest

from qstarlab import cli, load_bundle
from qstarlab.bundled import bundle_names
from qstarlab.report import _escape, _format_float, dumps


def _escape_by_loop(s):
    """The escaping rules one character at a time, as a reference."""
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def test_escape_matches_the_per_character_rules():
    for code in range(0x80):
        assert _escape(chr(code)) == _escape_by_loop(chr(code)), code
    mixed = 'a "quoted"\tpath\\to\nfile\r\x00\x1f\x7f café ∂ \U0001d49c'
    assert _escape(mixed) == _escape_by_loop(mixed)
    quoted = f'"{_escape_by_loop(mixed)}"'
    assert dumps({mixed: mixed}) == f"{{\n  {quoted}: {quoted}\n}}"


def _jsonable_reference(obj):
    """The former first pass: numpy values, complex values and tuples to JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_reference(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable_reference(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _emit_reference(obj, pieces, indent, level):
    """The former second pass, on the output of the first."""
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
        pieces.append(f'"{_escape_by_loop(obj)}"')
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            pieces.append(f'{pad}"{_escape_by_loop(str(k))}": ')
            _emit_reference(v, pieces, indent, level + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(closepad + "}")
    elif isinstance(obj, list):
        if not obj:
            pieces.append("[]")
            return
        if len(obj) <= 16 and all(isinstance(v, (int, float)) or v is None for v in obj):
            inner = ", ".join("null" if v is None else "true" if v is True else
                              "false" if v is False else
                              _format_float(v) if isinstance(v, float) else str(v)
                              for v in obj)
            pieces.append(f"[{inner}]")
            return
        pieces.append("[\n")
        for i, v in enumerate(obj):
            pieces.append(pad)
            _emit_reference(v, pieces, indent, level + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(closepad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _dumps_reference(obj, indent=2):
    pieces = []
    _emit_reference(_jsonable_reference(obj), pieces, indent, 0)
    return "".join(pieces)


def _cli_payloads(monkeypatch):
    """The payload of every subcommand on every bundle family, of ``all`` and
    ``validate`` on every bundle, of ``lp`` and of an analysis error."""
    payloads = []
    monkeypatch.setattr(cli, "dumps", lambda obj: payloads.append(obj) or dumps(obj))
    runs = [["lp", "--points", "2", "--exponent", "4", "--masses", "0.5,0.5", "--values", "1,2i"],
            ["lp", "--points", "8", "--exponent", "2.5"], ["lp", "--points", "2", "--exponent", "1"]]
    for name in bundle_names():
        runs += [["validate", f"bundled:{name}"], ["all", f"bundled:{name}"]]
        for family in load_bundle(name)["families"]:
            src = [f"bundled:{name}", "--family", family]
            runs += [[sub, *src] for sub in ("forms", "gns", "radical", "topology", "gastar")]
            runs += [["cone", *src, "--element", "basis:1"], ["norm", *src, "--element", "basis:1"],
                     ["weakprod", *src, "--left", "basis:1", "--right", "basis:1"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.main(argv) for argv in runs]
    assert 3 in codes and len(payloads) == len(runs)
    return payloads


def test_dumps_matches_the_two_pass_reference(monkeypatch):
    class Named(tuple):
        pass

    class Tag(str):
        def __str__(self):
            return "str of the tag"

        def __format__(self, spec):
            return "format of the tag"

    synthetic = [
        {"np": [np.float64(0.1), np.float32(0.5), np.int64(-3), np.int8(7), np.bool_(True),
                np.bool_(False), np.float64("nan"), np.float64("-inf"), np.uint64(2 ** 63)]},
        {"complex": [1 + 2j, np.complex128(-0.0 - 1e-300j), complex("nan+infj")],
         "pair": (0.25, -0.0), "named": Named((1, 2.5)), "nested": ((1, (2, 3)), [])},
        {1: "int key", 2.5: "float key", None: "none key", (1, 2): "tuple key",
         np.int64(7): [float("nan"), float("inf"), -float("inf"), 1e16, 1e15, -0.0, 3.0]},
        {1: "replaced", "1": "kept in place of the int key", "b": {}},
        {"long": list(range(17)), "long floats": [x / 7 for x in range(40)],
         "edge": list(range(16)), "mixed": [1, None, True, 2.5, "s"], "flat none": [None, None]},
        {"arrays": np.arange(20.0).reshape(4, 5), "complex array": np.eye(2) * (1 - 1j),
         "zero-d": np.array(2.0), "zero-d list": [np.array(3), np.array(1 + 1j)],
         "zero-d flat": [np.array(3), np.array(2.5), np.array(True)],
         "bools": np.array([True, False]), "empty": np.zeros((0, 3))},
        {"escape \"\n\t\x01": "value \\ \x1f é", "\u2028 \x7f": "\u2028"},
        {Tag("key"): Tag("value \n"), "list": [Tag("item")]},
        [np.float64(1e300) * 10, [np.int32(1), [np.float16(0.5)]], {}, [], ""],
        np.float64(2.0), 1 + 1j, None, True, "top",
    ]
    payloads = _cli_payloads(monkeypatch) + synthetic
    for payload in payloads:
        for indent in (2, 4):
            assert dumps(payload, indent) == _dumps_reference(payload, indent)
    for bad in ({"set": {1, 2}}, [object()], np.datetime64("2020-01-01")):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps(bad)
