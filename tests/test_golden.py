"""Golden output: `fracsymp quantize` standard output and `fracsymp
simulate` trajectories, byte for byte.

`tests/golden/<name>.json` holds what `quantize` printed for each bundled
model and for seven models under `tests/golden/`: `dense6_symbolic.model`,
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
in a gauge theory; `rational_rows.model`, whose two-form rows carry
different denominators, a q^(1/2) entry and a Gamma(1 + alpha) entry, so
that the row scaling and the rational exponents of the exact elimination
are pinned; and `field4.model`, a field-dependent 4-variable model whose
two-form entries hold the variables, so that the elimination of
polynomial entries and the rendering of long multi-term brackets are
pinned.  Any change to a canonical form, to the constraint
iteration or to the JSON rendering shows up here as a byte difference.

`tests/golden/dense_family.json` holds 60 seeded dense models, drawn as
`bench/workloads.dense_model(random.Random(seed), n, symbolic)` for seeds
1-10, n in {5, 6, 7}, numeric and symbolic order: each model's text, its
exit code and the SHA-1 of what `quantize` printed for it.

`tests/golden/quantize_corpus.json` holds 112 `quantize` runs: each of the
14 bundled and golden models with the file's order, `--alpha symbolic`,
`--alpha 0.5` and `--alpha 1`, each plain and with `--verbose`.  A run
keeps its exit code and the SHA-1 of its standard output and of its
standard error, so the constraint log and the rendered model are pinned
as well as the JSON.

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
cells.  The two momentum rates of `anharmonic4.model` share the power
q2^3; its runs are Heun and explicit Euler at alpha = 1, the Euler run 300
steps long so that it crosses a block of rows, and both fractional
schemes at alpha = 0.5.
"""

import hashlib
import json
import pathlib

import pytest

import fracsymp
from fracsymp.cli import main

MODELS = pathlib.Path(fracsymp.__file__).parent / "models"
GOLDEN = pathlib.Path(__file__).parent / "golden"
TRAJ = GOLDEN / "traj"


def _golden(name: str) -> str:
    return (GOLDEN / (name + ".json")).read_bytes().decode("utf-8")

CASES = {
    "canonical_pair": (MODELS / "canonical_pair.model", 0),
    "constrained_3d": (MODELS / "constrained_3d.model", 0),
    "gauge_demo": (MODELS / "gauge_demo.model", 2),
    "landau_full": (MODELS / "landau_full.model", 0),
    "landau_strong": (MODELS / "landau_strong.model", 0),
    "dense5_symbolic": (GOLDEN / "dense5_symbolic.model", 0),
    "dense6_symbolic": (GOLDEN / "dense6_symbolic.model", 0),
    "field4": (GOLDEN / "field4.model", 0),
    "laurent_pfaffian": (GOLDEN / "laurent_pfaffian.model", 0),
    "positive_root": (GOLDEN / "positive_root.model", 0),
    "rational_rows": (GOLDEN / "rational_rows.model", 0),
    "span_drop": (GOLDEN / "span_drop.model", 2),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_quantize_stdout_matches_golden(name, capsys):
    path, code = CASES[name]
    assert main(["quantize", str(path)]) == code
    assert capsys.readouterr().out == _golden(name)


def test_dense_family_quantize_digests_match_golden(tmp_path, capsys):
    path = tmp_path / "dense.model"
    for case in json.loads(_golden("dense_family")):
        label = "seed %(seed)d n %(n)d symbolic %(symbolic)s" % case
        path.write_text(case["model"])
        assert main(["quantize", str(path)]) == case["exit"], label
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha1(out).hexdigest() == case["stdout_sha1"], label


CORPUS_DIRS = {"models": MODELS, "golden": GOLDEN}


def test_quantize_corpus_digests_match_golden(capsys):
    corpus = json.loads(_golden("quantize_corpus"))
    assert {case["model"] for case in corpus} == {
        "%s/%s" % (folder, path.name) for folder, where in CORPUS_DIRS.items()
        for path in where.glob("*.model")}
    for case in corpus:
        folder, name = case["model"].split("/")
        label = " ".join([case["model"], *case["flags"]])
        argv = ["quantize", str(CORPUS_DIRS[folder] / name), *case["flags"]]
        assert main(argv) == case["exit"], label
        out, err = capsys.readouterr()
        assert hashlib.sha1(out.encode("utf-8")).hexdigest() \
            == case["stdout_sha1"], label
        assert hashlib.sha1(err.encode("utf-8")).hexdigest() \
            == case["stderr_sha1"], label


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
    assert out == _golden(name)


def test_goldens_hold_in_either_order_in_one_process(capsys):
    """The parser, the strong-field table and the stored node texts that
    one process keeps carry nothing from one command to the next: every
    quantize and report golden, run in order, then after a usage error in
    reverse order, prints its golden bytes.  Both strong-field reports run
    each way, so the table cannot hold the e and B of the run before."""
    runs = [(["quantize", str(path)], code, name)
            for name, (path, code) in sorted(CASES.items())]
    runs += [(list(argv), 0, name) for name, argv in sorted(REPORTS.items())]
    for argv, code, name in runs:
        assert main(argv) == code, name
        assert capsys.readouterr().out == _golden(name), name
    with pytest.raises(SystemExit) as exc:
        main(["quantize", str(CASES["canonical_pair"][0]), "--alpha"])
    assert exc.value.code == 1
    assert "expected one argument" in capsys.readouterr().err
    for argv, code, name in reversed(runs):
        assert main(argv) == code, name
        assert capsys.readouterr().out == _golden(name), name


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
    "anharmonic4_euler": (str(GOLDEN / "anharmonic4.model"), "--T", "3",
                          "--h", "1e-2", "--initial", "0.5,-0.4,0.2,0.1",
                          *_GL),
    "anharmonic4_gl": _ANHARMONIC + ("--alpha", "0.5") + _GL,
    "anharmonic4_pece": _ANHARMONIC + ("--alpha", "0.5") + _PC,
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
