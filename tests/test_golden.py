"""Golden output: `fracsymp quantize` standard output and `fracsymp
simulate` trajectories, byte for byte.

`tests/golden/<name>.json` holds what `quantize` printed for each bundled
model and for six models under `tests/golden/`: `dense6_symbolic.model`,
a dense 6-variable symbolic-order model whose two-form has a multi-term
Gamma(1 + alpha) determinant; `dense5_symbolic.model`, its 5-variable
kin, whose one constraint level adds the multiplier lam_1 and whose table
is restricted to the original variables; `laurent_pfaffian.model`, whose
(1 + c^2)^(-1) entries make `simplify` cancel a multi-term denominator by
exact division; `positive_root.model`, whose positive variable q
collapses (q^2)^(1/2) and (q^2)^(3/2) in the kinetic sector, while the
inverse of the same entries is taken with no positive names;
`span_drop.model`, whose constraint iteration drops the candidate 2*y as
lying in the span of earlier constraints and their derivatives and ends
in a gauge theory; and `rational_rows.model`, whose two-form rows carry
different denominators, a q^(1/2) entry and a Gamma(1 + alpha) entry, so
that the row scaling and the rational exponents of the exact elimination
are pinned.  Any change to a canonical form, to the constraint
iteration or to the JSON rendering shows up here as a byte difference.

`tests/golden/<name>.json` also holds what `report-hall` and
`estimate-alpha` printed for each run in REPORTS: the strong-field report at
the default charge and field and at e = 2.5, B = 1.5, and the order estimate
in both regimes.

`tests/golden/traj/<name>.csv` and its `.csv.json` sidecar hold what
`simulate` wrote for each run in TRAJECTORIES: both fractional schemes on
both compositions, full-history and windowed, the alpha = 1 Euler and Heun
loops, and model-file runs whose right-hand sides carry multi-term
polynomials, Gamma(1 + alpha), roots and inverse powers.  Every state is
printed with 17 significant digits, so a change in any rounding of the
stepping arithmetic shows up here.  Two alpha = 1 runs of
`canonical_pair.model` pin the CSV number format itself:
`canonical_pair_exponent`, from (3e-05, 0), has 201 cells that print in
exponent form, and `canonical_pair_zeros`, from (0, -0.0), has 101 `-0`
cells.
"""

import pathlib

import pytest

import fracsymp
from fracsymp.cli import main

MODELS = pathlib.Path(fracsymp.__file__).parent / "models"
GOLDEN = pathlib.Path(__file__).parent / "golden"
TRAJ = GOLDEN / "traj"

CASES = {
    "canonical_pair": (MODELS / "canonical_pair.model", 0),
    "constrained_3d": (MODELS / "constrained_3d.model", 0),
    "gauge_demo": (MODELS / "gauge_demo.model", 2),
    "landau_full": (MODELS / "landau_full.model", 0),
    "landau_strong": (MODELS / "landau_strong.model", 0),
    "dense5_symbolic": (GOLDEN / "dense5_symbolic.model", 0),
    "dense6_symbolic": (GOLDEN / "dense6_symbolic.model", 0),
    "laurent_pfaffian": (GOLDEN / "laurent_pfaffian.model", 0),
    "positive_root": (GOLDEN / "positive_root.model", 0),
    "rational_rows": (GOLDEN / "rational_rows.model", 0),
    "span_drop": (GOLDEN / "span_drop.model", 2),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_quantize_stdout_matches_golden(name, capsys):
    path, code = CASES[name]
    assert main(["quantize", str(path)]) == code
    out, _ = capsys.readouterr()
    want = (GOLDEN / (name + ".json")).read_bytes().decode("utf-8")
    assert out == want


REPORTS = {
    "report_hall": ("report-hall", "--alpha", "0.0004"),
    "report_hall_e2.5_B1.5": ("report-hall", "--alpha", "0.0007",
                              "--e", "2.5", "--B", "1.5"),
    "estimate_alpha_small": ("estimate-alpha", "--delta", "0.0005",
                             "--regime", "small"),
    "estimate_alpha_near_one": ("estimate-alpha", "--delta", "0.0005",
                                "--regime", "near-one"),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_hall_stdout_matches_golden(name, capsys):
    assert main(list(REPORTS[name])) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / (name + ".json")).read_bytes().decode("utf-8")


_LANDAU = ("--landau", "1", "2", "1", "--alpha", "0.7", "--T", "1", "--h", "1e-2",
           "--z0", "0.3,0.1", "--v0", "0.5,-0.2")
_SEQUENTIAL = _LANDAU + ("--composition", "sequential-alpha-alpha")
_GAMMA_ROOTS = (str(GOLDEN / "gamma_roots.model"), "--alpha", "0.6",
                "--T", "1", "--h", "1e-2", "--initial", "0.8,-0.3")
_ANHARMONIC = (str(GOLDEN / "anharmonic4.model"), "--T", "1", "--h", "1e-2",
               "--initial", "0.5,-0.4,0.2,0.1")
_CANONICAL = (str(MODELS / "canonical_pair.model"), "--alpha", "1",
              "--T", "10", "--h", "0.1")
_GL = ("--scheme", "grunwald-letnikov")
_PC = ("--scheme", "predictor-corrector")

TRAJECTORIES = {
    "landau_euler": _LANDAU + _GL,
    "landau_heun": _LANDAU + _PC,
    "landau_seq_gl": _SEQUENTIAL + _GL,
    "landau_seq_pece": _SEQUENTIAL + _PC,
    "landau_seq_gl_window": _SEQUENTIAL + _GL + ("--memory-window", "40"),
    "landau_seq_pece_window": _SEQUENTIAL + _PC + ("--memory-window", "40"),
    "gamma_roots_gl": _GAMMA_ROOTS + _GL,
    "gamma_roots_pece": _GAMMA_ROOTS + _PC,
    "anharmonic4_heun": _ANHARMONIC + _PC,
    "canonical_pair_exponent": _CANONICAL + ("--initial=3e-05,0",),
    "canonical_pair_zeros": _CANONICAL + ("--initial=0,-0.0",),
}


@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_simulate_csv_and_sidecar_match_golden(name, tmp_path, capsys):
    out = tmp_path / (name + ".csv")
    assert main(["simulate", *TRAJECTORIES[name], "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == (TRAJ / (name + ".csv")).read_bytes()
    sidecar = name + ".csv.json"
    assert (tmp_path / sidecar).read_bytes() == (TRAJ / sidecar).read_bytes()
