"""Deterministic JSON emission."""

import contextlib
import io

import numpy as np
import pytest

from corpus import make_corpus
from qstarlab import (QStarError, check_condition_product, cli, cone_membership,
                      extract_bounded_algebra, ga_star_check, load_bundle, m_bounded_norm,
                      radical, validate_family, validate_ips_form, validate_structure,
                      weak_product)
from qstarlab.bundled import bundle_names
from qstarlab.report import _escape, _format_float, dumps, pairs


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

    class Table(dict):
        pass

    class Count(int):
        pass

    class Real(float):
        pass

    class Items(list):
        pass

    synthetic = [
        {"pair": (0.25, -0.0), "nested": ((1, (2, 3)), []), "flat tuple": (1, None, True, 2.5)},
        {"specials": [float("nan"), float("inf"), -float("inf"), 1e16, 1e15, -0.0, 3.0]},
        {"1": "a str key", "b": {}},
        {"long": list(range(17)), "long floats": [x / 7 for x in range(40)],
         "edge": list(range(16)), "mixed": [1, None, True, 2.5, "s"], "flat none": [None, None]},
        {"escape \"\n\t\x01": "value \\ \x1f é", "\u2028 \x7f": "\u2028"},
        [1e300 * 1e10, [1, [0.5]], {}, [], ""],
        2.0, -3, None, True, "top",
    ]
    payloads = _cli_payloads(monkeypatch) + synthetic
    for payload in payloads:
        for indent in (2, 4):
            assert dumps(payload, indent) == _dumps_reference(payload, indent)
    # only exact JSON values are written: numpy values, complex numbers,
    # subclasses and non-str keys are the caller's to convert
    bad_values = [
        np.float64(0.1), np.float32(0.5), np.int64(-3), np.int8(7), np.bool_(True),
        np.uint64(2 ** 63), np.float64("nan"), 1 + 2j, np.complex128(-0.0 - 1e-300j),
        np.arange(20.0).reshape(4, 5), np.array(2.0), np.array(3), np.array([True, False]),
        np.zeros((0, 3)), Named((1, 2.5)), Tag("value"), Table(a=1), Count(3), Real(0.5),
        Items([1]), {1, 2}, object(), np.datetime64("2020-01-01"),
        {1: "int key"}, {2.5: "float key"}, {None: "none key"}, {(1, 2): "tuple key"},
        {np.int64(7): 1.0}, {Tag("key"): "str subclass key"},
    ]
    for bad in bad_values:
        for payload in (bad, {"key": [1.0, bad]}, [{"key": bad}] * 20):
            with pytest.raises(TypeError, match="cannot serialize"):
                dumps(payload)


def test_pairs_gives_the_former_conversions_floats():
    z = complex(-0.0, 1e-300)
    v = np.array([1 + 2j, -0.0 - 1e-300j, complex("nan+infj"), 3.0])
    M = np.arange(6).reshape(2, 3) * (0.1 - 0.7j)
    cases = [
        (z, [float(z.real), float(z.imag)]),
        (v, [[float(x.real), float(x.imag)] for x in v]),
        (M, [[[float(x.real), float(x.imag)] for x in row] for row in M]),
        ([], []),
    ]
    for value, former in cases:
        out = pairs(value)
        assert repr(out) == repr(former)
        assert _not_plain(out) == []


def _not_plain(obj, path="$"):
    """Where ``obj`` holds anything but exact JSON values: str, int, float,
    bool, None, list, tuple and dict with str keys."""
    cls = type(obj)
    if cls is dict:
        return [bad for k, v in obj.items()
                for bad in ([f"{path} key {k!r}"] if type(k) is not str else [])
                + _not_plain(v, f"{path}.{k}")]
    if cls is list or cls is tuple:
        return [bad for i, v in enumerate(obj) for bad in _not_plain(v, f"{path}[{i}]")]
    if cls in (str, int, float, bool) or obj is None:
        return []
    return [f"{path}: {cls.__name__}"]


def _report_dicts(inst, fam):
    """``as_dict()`` of every report type on one instance and family, and
    the dicts of ``extract_bounded_algebra`` and ``check_condition_product``;
    a typed analysis error stands in for what it stopped."""
    basis = [inst.basis_element(i) for i in range(inst.dim)]
    calls = [lambda: validate_structure(inst).as_dict(),
             lambda: validate_family(fam, inst).as_dict(),
             lambda: fam.sufficiency(inst).as_dict(),
             lambda: radical(fam, inst).as_dict(),
             lambda: ga_star_check(fam, inst).as_dict(),
             lambda: check_condition_product(fam, inst),
             lambda: extract_bounded_algebra(fam, inst, basis[:6])]
    calls += [lambda phi=phi: validate_ips_form(phi, inst).as_dict() for phi in fam.seeds]
    for a in basis:
        calls += [lambda a=a: m_bounded_norm(a, fam, inst).as_dict(),
                  lambda a=a: weak_product(a, a.star(), fam, inst)[1].as_dict()]
        if fam.balanced:
            calls += [lambda a=a: cone_membership(a * s, fam, inst).as_dict() for s in (1, -1j, -1)]
    out = []
    for call in calls:
        try:
            out.append(call())
        except QStarError:
            pass
    return out


def test_reports_hold_exact_json_values_only():
    cases = [(b["instance"], fam) for b in map(load_bundle, bundle_names())
             for fam in b["families"].values()]
    cases += make_corpus(count=4, seed=0x7E57, n_min=2, n_max=4)
    seen = set()
    for inst, fam in cases:
        for d in _report_dicts(inst, fam):
            assert _not_plain(d) == []
            seen.update(d)
    # witnesses of both kinds and a radical basis were among the walked fields
    assert {"witness_coeffs", "witness_value", "basis_coeffs", "norms", "failures"} <= seen
