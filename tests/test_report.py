"""Deterministic JSON emission."""

from qstarlab.report import _escape, dumps


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
