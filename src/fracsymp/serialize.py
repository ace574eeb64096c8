"""Deterministic output: JSON with a fixed key order, and CSV rows, both
with a fixed float format.

Identical inputs must produce byte-identical output, so floats are always
printed with 17 significant digits (`%.17g`) and dict insertion order is
preserved verbatim (callers construct dicts in the order they want
serialized).
"""

from __future__ import annotations

import numpy as np


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


# format_rows writes `%.17g` for a whole block with numpy.  A cell x with
# 1e-4 <= |x| < 1e17, the range `%.17g` prints in positional form, has a
# decimal exponent exp10 in [-4, 16] and 17 significant digits
# round(|x| * 10**(16 - exp10)) in [10**16, 10**17), rounded half to even on
# the exact product, as `%` rounds.  The exact product is p + e, Dekker's
# two-product over Veltkamp halves (10**s is exact in float64 for s <= 22).
# The cell's text is laid out in 40 bytes, five native uint64 words of ASCII
# and NUL: the sign, a "0.000" prefix (exp10 < 0), the first digit and its
# point slot; then four words of four digits, each followed by a slot for
# the point.  Trailing zeros of the fraction, and a point with no fraction
# after it, are NUL; the last slot holds the separator.  Dropping every NUL
# leaves the row text.

_SPLIT = 134217729.0  # 2**27 + 1


def _halves(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _words(rows):
    """8-byte strings as native uint64 words, so that their bytes keep their
    order in memory whatever the platform's byte order."""
    return np.frombuffer(b"".join(rows), np.uint64)


_POW10 = 10.0 ** np.arange(21)
_POW10_HI, _POW10_LO = _halves(_POW10)
_N = np.arange(10000, dtype=np.uint16)
# the four digits of n in the even bytes of a word, the odd bytes NUL
_QUAD = np.zeros((10000, 8), np.uint8)
_QUAD[:, ::2] = 48 + np.stack([_N // 1000, _N // 100 % 10, _N // 10 % 10,
                               _N % 10], 1)
_QUAD = _QUAD.view(np.uint64).ravel()
# trailing decimal zeros of n written with four digits (4 for n = 0)
_TRAILING = sum((_N % 10 ** k == 0).astype(np.int8) for k in range(1, 5))
del _N
# a word's first k digits with their point slots
_KEEP = _words([b"\xff" * 2 * k + b"\0" * (8 - 2 * k) for k in range(5)])
# bytes 1-5 of word 0 by exp10 + 4: "0." and the zeros after it (exp10 < 0)
_PREFIX = _words([b"\0" + (b"0." + b"0" * (k - 1)).rjust(5, b"\0") + b"\0\0"
                  for k in (4, 3, 2, 1)] + [b"\0" * 8] * 17)
# byte 6 of word 0: the first digit
_LEAD = _words([b"\0\0\0\0\0\0%d\0" % d for d in range(10)])
_MINUS, _COMMA, _NEWLINE = _words([b"-" + b"\0" * 7, b"\0" * 7 + b",",
                                   b"\0" * 7 + b"\n"])


def _exact_scaled(a, s):
    """p, e with a * 10**s == p + e exactly (0 <= s <= 20)."""
    ah, al = _halves(a)
    bh, bl = _POW10_HI[s], _POW10_LO[s]
    p = a * _POW10[s]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def format_rows(block: np.ndarray) -> bytes:
    """The rows of a 2-D float64 array as CSV text, every cell `%.17g`:
    exactly `"".join(row % tuple(r) for r in block.tolist()).encode()` with
    `row = ",".join(["%.17g"] * block.shape[1]) + "\\n"`.

    Cells that `%.17g` prints in exponent form (|x| < 1e-4 or >= 1e17, so
    every subnormal, inf and nan) are formatted one at a time with `%`.
    """
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    positional = (a >= 1e-4) & (a < 1e17)
    zero = x == 0
    a = np.where(positional, a, 1.0)  # a zero prints as 1.0, with "0" for "1"
    exp10 = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    p, e = _exact_scaled(a, 16 - exp10)
    # log10 may miss exp10 by one next to a power of ten; test the exact p + e
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    fix = np.flatnonzero(low | high)
    exp10[fix] += high[fix].astype(np.int64) - low[fix]
    p[fix], e[fix] = _exact_scaled(a[fix], 16 - exp10[fix])
    # p >= 2**53 is an integer, so round(p + e) needs only e's own parts.  It
    # stays below 10**17: the largest float below each 10**k, -4 <= k <= 17,
    # lies more than 5e-18 of it below, so no cell rounds up to 10**(k + 1).
    floor_e = np.floor(e)
    frac_e = e - floor_e
    digits = p.astype(np.int64) + floor_e.astype(np.int64)
    digits += (frac_e > 0.5) | ((frac_e == 0.5) & (digits % 2 == 1))

    hi, lo = np.divmod(digits, 10 ** 8)
    lead, q1 = np.divmod(hi // 10 ** 4, 10 ** 4)
    q2 = hi % 10 ** 4
    q3, q4 = np.divmod(lo, 10 ** 4)
    # trailing zeros of the last 16 digits, four at a time
    z4 = q4 == 0
    z3 = z4 & (q3 == 0)
    z2 = z3 & (q2 == 0)
    trailing = (_TRAILING[q4] + z4 * _TRAILING[q3] + z3 * _TRAILING[q2]
                + z2 * _TRAILING[q1])
    # digits dropped from the end: trailing zeros, but only of the fraction
    drop = np.minimum(trailing, 16 - np.maximum(exp10, 0))

    words = np.empty((rows * cols, 5), np.uint64)
    words[:, 0] = (_PREFIX[exp10 + 4] | _LEAD[lead * ~zero]
                   | np.signbit(x) * _MINUS)
    # word i holds digits 4i - 3 .. 4i, of which the first 17 - drop stay
    for i, q in enumerate((q1, q2, q3, q4), 1):
        words[:, i] = _QUAD[q] & _KEEP[np.clip(20 - 4 * i - drop, 0, 4)]
    words.reshape(rows, cols, 5)[:, :, 4] |= [_COMMA] * (cols - 1) + [_NEWLINE]
    text = words.view(np.uint8)
    point = np.flatnonzero((exp10 >= 0) & (drop < 16 - exp10))
    text.reshape(-1)[40 * point + 7 + 2 * exp10[point]] = ord(".")
    other = np.flatnonzero(~positional & ~zero)
    if other.size:
        text[other, :39] = np.array([b"%.17g" % v for v in x[other].tolist()],
                                    "S39").view(np.uint8).reshape(-1, 39)
    return text.tobytes().translate(None, b"\0")
