"""Deterministic output: JSON string escapes, and CSV rows that are
`%.17g` byte for byte."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracsymp.serialize import format_rows, render_json


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


def _percent_rows(block):
    """The reference: one `%` call per row."""
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return "".join(row % tuple(r) for r in block.tolist()).encode()


def _assert_rows_match(values, cols):
    block = np.asarray(values, np.float64).reshape(-1, cols)
    # row by row, so that a failure names the rows that differ
    assert format_rows(block).split(b"\n") == _percent_rows(block).split(b"\n")


def _neighbours(x, ulps):
    """x and the `ulps` floats on each side of it."""
    below = [x]
    above = [x]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


def test_format_rows_edge_cells():
    table = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308,
             2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, 0.5, 123.0, 100.5, 1e16]
    for x in (1e-4, 1e17):
        table += _neighbours(x, 3)
    for k in range(-6, 19):
        table += _neighbours(10.0 ** k, 6)
    table += [-x for x in table]
    # the half-even ties of the exact value, and the cell where a test of the
    # rounded product alone would pick the wrong decimal exponent
    assert format_rows(np.array([[2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75]])) == (
        b"1125899906842624.2,1125899906842624.8\n")
    assert format_rows(np.array([[np.nextafter(0.1, 0)]])) == (
        b"0.099999999999999992\n")
    for cols in (1, 3):
        _assert_rows_match(table[:len(table) // cols * cols], cols)


def test_format_rows_non_finite_cells():
    _assert_rows_match([np.inf, -np.inf, np.nan, 1.5, 0.0, -np.inf], 3)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64,
                  st.tuples(st.integers(1, 40), st.integers(1, 6)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_format_rows_matches_percent(block):
    assert format_rows(block) == _percent_rows(block)


def test_format_rows_seeded_sweep():
    # 2**18 random bit patterns (mostly exponent form) and 3 * 2**18 values
    # m * 2**k, k in [-60, 10] (mostly positional), in blocks of 1024 rows
    rng = np.random.default_rng(20260)
    bits = rng.integers(0, 2 ** 64, size=2 ** 18, dtype=np.uint64)
    bits = bits.view(np.float64)[np.isfinite(bits.view(np.float64))]
    m = rng.integers(1, 2 ** 53, size=3 * 2 ** 18).astype(np.float64)
    scaled = (m * 2.0 ** rng.integers(-60, 11, size=m.size)
              * rng.choice([-1.0, 1.0], m.size))
    for values in (bits, scaled):
        values = values[:values.size // 4 * 4].reshape(-1, 4)
        for lo in range(0, len(values), 1024):
            block = values[lo:lo + 1024]
            assert format_rows(block) == _percent_rows(block)
