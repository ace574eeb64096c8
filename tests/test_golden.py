"""Golden output: `fracsymp quantize` standard output, byte for byte.

`tests/golden/<name>.json` holds what `quantize` printed for each bundled
model and for `tests/golden/dense6_symbolic.model`, a dense 6-variable
symbolic-order model whose two-form has a multi-term Gamma(1 + alpha)
determinant.  Any change to a canonical form, to the constraint iteration
or to the JSON rendering shows up here as a byte difference.
"""

import pathlib

import pytest

import fracsymp
from fracsymp.cli import main

MODELS = pathlib.Path(fracsymp.__file__).parent / "models"
GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "canonical_pair": (MODELS / "canonical_pair.model", 0),
    "constrained_3d": (MODELS / "constrained_3d.model", 0),
    "gauge_demo": (MODELS / "gauge_demo.model", 2),
    "landau_full": (MODELS / "landau_full.model", 0),
    "landau_strong": (MODELS / "landau_strong.model", 0),
    "dense6_symbolic": (GOLDEN / "dense6_symbolic.model", 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_quantize_stdout_matches_golden(name, capsys):
    path, code = CASES[name]
    assert main(["quantize", str(path)]) == code
    out, _ = capsys.readouterr()
    want = (GOLDEN / (name + ".json")).read_bytes().decode("utf-8")
    assert out == want
