"""Deterministic JSON rendering: fixed key order, fixed float format.

Identical inputs must produce byte-identical output, so floats are always
printed with 17 significant digits and dict insertion order is preserved
verbatim (callers construct dicts in the order they want serialized).
"""

from __future__ import annotations


# JSON string escapes: the short forms for quote, backslash, newline, tab
# and carriage return, \u00XX for every other control character, and no
# \b or \f (json.dumps writes those, which would change the bytes)
_ESCAPES = {i: "\\u%04x" % i for i in range(0x20)}
_ESCAPES.update({ord('"'): '\\"', ord("\\"): "\\\\", ord("\n"): "\\n",
                 ord("\t"): "\\t", ord("\r"): "\\r"})


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return '"' + _escape(obj) + '"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return "%.17g" % obj
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            inner + render_json(k) + ": " + render_json(v, indent + 1)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        rows = [inner + render_json(v, indent + 1) for v in seq]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
