"""Deterministic JSON rendering: string escapes."""

from fracsymp.serialize import render_json


def _escape_one(ch):
    short = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
    if ch in short:
        return short[ch]
    return "\\u%04x" % ord(ch) if ord(ch) < 0x20 else ch


def test_string_escapes_per_code_point():
    # every code point below U+3000 and a lone surrogate, one at a time and
    # all in one string; \b and \f come out as \u0008 and \u000c, where
    # json.dumps would write \b and \f
    chars = [chr(i) for i in range(0x3000)] + ["\ud800"]
    for ch in chars:
        assert render_json(ch) == '"%s"' % _escape_one(ch)
    assert render_json("".join(chars)) == '"%s"' % "".join(map(_escape_one, chars))
