"""Command surface: exit codes, JSON payloads, and determinism."""

import json
import pathlib
import warnings

import pytest

import fracsymp
from fracsymp.cli import build_parser, main

MODELS = pathlib.Path(fracsymp.__file__).parent / "models"


def model(name):
    return str(MODELS / (name + ".model"))


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- quantize ----------------------------------------------------------------

def test_quantize_canonical_pair(capsys):
    code, out, err = run(capsys, "quantize", model("canonical_pair"))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "regular"
    assert payload["levels"] == []
    assert payload["table"]["brackets"][0][1] == "1"


def test_quantize_prints_a_decimal_order_as_its_decimal(capsys):
    """The order 0.3 enters the texts as 3/10, not as the binary fraction
    of the float 0.3."""
    code, out, err = run(capsys, "quantize", model("canonical_pair"), "--alpha", "0.3")
    assert code == 0
    assert json.loads(out)["table"]["prefactor"] == "Gamma(13/10)^(-2)"


def test_quantize_landau_strong(capsys):
    code, out, err = run(capsys, "quantize", model("landau_strong"))
    assert code == 0
    payload = json.loads(out)
    assert payload["table"]["alpha"] == "symbolic"
    assert payload["table"]["brackets"][0][1] == \
        "B^(-1)*e^(-1)*Gamma(1 + alpha)^(-1)"
    assert set(payload["table"]["normalizations"]) == \
        {"section_5_2", "section_6_3"}


def test_quantize_constrained_chain(capsys):
    code, out, err = run(capsys, "quantize", model("constrained_3d"))
    assert code == 0
    payload = json.loads(out)
    assert [lev["constraints"] for lev in payload["levels"]] == [["q"], ["p"]]
    assert [lev["multipliers"] for lev in payload["levels"]] == \
        [["lam_1"], ["lam_2"]]
    assert any("pruned" in n for n in payload["notes"])


def test_quantize_gauge_theory_exit_code(capsys):
    code, out, err = run(capsys, "quantize", model("gauge_demo"))
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "gauge-theory"
    assert payload["table"] is None


def test_quantize_alpha_override(capsys):
    code, out, err = run(capsys, "quantize", model("landau_strong"),
                         "--alpha", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["table"]["alpha"] == 0.5


def test_quantize_takes_a_root_past_the_float_range(capsys, tmp_path):
    path = tmp_path / "big_root.model"
    path.write_text("variables: q, p\nalpha: 1\nkinetic q: p\n"
                    "kinetic p: 0\npotential: (10^400)^(1/2)*q\n")
    code, out, err = run(capsys, "quantize", str(path))
    assert (code, err) == (0, "status: regular\n")
    assert json.loads(out)["table"]["brackets"] == [["0", "1"], ["-1", "0"]]


@pytest.mark.parametrize("command", ["quantize", "simulate"])
@pytest.mark.parametrize("alpha, message", [
    ("x", "--alpha must be a number or 'symbolic', got 'x'"),
    ("2", "order must lie in (0, 1], got 2.0"),
], ids=["non-numeric", "out-of-range"])
def test_bad_alpha_override_is_reported(capsys, tmp_path, command, alpha, message):
    argv = [command, model("canonical_pair"), "--alpha", alpha]
    if command == "simulate":
        argv += ["--T", "1.0", "--h", "1e-2", "--initial", "1,0",
                 "--out", str(tmp_path / "out.csv")]
    assert run(capsys, *argv) == (1, "", "fracsymp: error: %s\n" % message)


def test_quantize_inconsistent_exit_code(capsys, tmp_path):
    bad = tmp_path / "broken.model"
    bad.write_text(
        "variables: q, p, z\n"
        "alpha: 1\n"
        "kinetic q: p\n"
        "kinetic p: 0\n"
        "kinetic z: 0\n"
        "potential: 1/2*(q^2 + p^2) + z\n")
    code, out, err = run(capsys, "quantize", str(bad))
    assert code == 3
    assert json.loads(out)["status"] == "inconsistent"


def test_quantize_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "quantize", str(tmp_path / "absent.model"))
    assert code == 1
    assert "error" in err


def test_quantize_bad_model_text(capsys, tmp_path):
    bad = tmp_path / "syntax.model"
    bad.write_text("variables q, p\n")
    code, out, err = run(capsys, "quantize", str(bad))
    assert code == 1
    assert "error" in err


def test_quantize_out_file_and_verbose_log(capsys, tmp_path):
    out_path = tmp_path / "table.json"
    code, out, err = run(capsys, "quantize", model("constrained_3d"),
                         "--out", str(out_path), "--verbose")
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["status"] == "regular"
    assert "level 1" in err and "level 2" in err


def test_quantize_deterministic_output(capsys):
    _, out1, _ = run(capsys, "quantize", model("landau_full"))
    _, out2, _ = run(capsys, "quantize", model("landau_full"))
    assert out1 == out2


# -- simulate ----------------------------------------------------------------

def test_simulate_landau_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "orbit.csv"
    code, out, err = run(capsys, "simulate",
                         "--landau", "1.0", "1.0", "1.0",
                         "--alpha", "0.5", "--T", "25.0", "--h", "1e-3",
                         "--measure-frequency",
                         "--out", str(out_path))
    assert code == 0
    header = out_path.read_text().splitlines()[0]
    assert header == "t,r1,r2,w1,w2"
    sidecar = json.loads((tmp_path / "orbit.csv.json").read_text())
    assert sidecar["landau"]["alpha"] == 0.5
    assert "measured_frequency" in out
    freq = float(out.split()[-1])
    assert abs(freq * 0.8862269254527586 - 1.0) < 5e-3


def test_simulate_sequential_composition(capsys, tmp_path):
    out_path = tmp_path / "seq.csv"
    code, out, err = run(capsys, "simulate",
                         "--landau", "1.0", "1.0", "1.0",
                         "--alpha", "0.5", "--T", "5.0", "--h", "1e-2",
                         "--composition", "sequential-alpha-alpha",
                         "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "t,r1,r2,u1,u2"


def test_simulate_model_file(capsys, tmp_path):
    out_path = tmp_path / "pair.csv"
    code, out, err = run(capsys, "simulate", model("canonical_pair"),
                         "--alpha", "1.0", "--T", "8.0", "--h", "1e-3",
                         "--initial", "1,0",
                         "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "t,q,p"


def test_simulate_refuses_complex_right_hand_side(capsys, tmp_path):
    path = tmp_path / "negative_root.model"
    path.write_text("variables: q, p\nalpha: 1\nkinetic q: p\nkinetic p: 0\n"
                    "potential: 1/2*p^2 + 1/2*(-2)^(1/2)*q^2\n")
    out_path = tmp_path / "run.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "simulate", str(path), "--initial", "1,0",
                             "--T", "1", "--h", "0.1", "--out", str(out_path))
    assert code == 1
    assert "cannot compile (-2)^(1/2)" in err
    assert not out_path.exists()


def test_simulate_needs_exactly_one_source(capsys, tmp_path):
    code, out, err = run(capsys, "simulate",
                         "--alpha", "0.5", "--T", "1.0", "--h", "1e-2",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 1
    code, out, err = run(capsys, "simulate", model("canonical_pair"),
                         "--landau", "1.0", "1.0", "1.0",
                         "--alpha", "0.5", "--T", "1.0", "--h", "1e-2",
                         "--out", str(tmp_path / "y.csv"))
    assert code == 1


def test_simulate_requires_step(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--landau", "1", "1", "1", "--alpha", "0.5",
              "--T", "1.0", "--out", str(tmp_path / "z.csv")])
    assert err.value.code == 1
    capsys.readouterr()


# A horizon or step that is not finite, or whose ratio is not, is refused
# before any grid is built.
@pytest.mark.parametrize("horizon, step", [("inf", "0.1"), ("1e300", "1e-300"),
                                           ("1", "nan")])
def test_simulate_rejects_non_finite_grid(capsys, tmp_path, horizon, step):
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "simulate", "--landau", "1", "1", "1",
                         "--alpha", "1", "--T", horizon, "--h", step,
                         "--out", str(out_path))
    assert code == 1
    assert "must be finite" in err
    assert not out_path.exists()


def test_simulate_model_needs_initial(capsys, tmp_path):
    code, out, err = run(capsys, "simulate", model("canonical_pair"),
                         "--alpha", "1.0", "--T", "1.0", "--h", "1e-2",
                         "--out", str(tmp_path / "w.csv"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("extra, message", [
    (("--initial", "1,0", "--memory-window", "0"),
     "memory window must be a positive step count"),
    (("--initial", "nan,0"), "non-finite state at step 0"),
], ids=["memory-window-0", "nan-initial"])
def test_simulate_reports_a_run_it_cannot_start(capsys, tmp_path, extra,
                                                message):
    out_path = tmp_path / "t.csv"
    code, out, err = run(capsys, "simulate", model("canonical_pair"),
                         "--alpha", "0.5", "--T", "1", "--h", "0.1", *extra,
                         "--out", str(out_path))
    assert (code, out, err) == (1, "", "fracsymp: error: %s\n" % message)
    assert not out_path.exists()


# -- estimate-alpha ----------------------------------------------------------

def test_estimate_near_one(capsys):
    code, out, err = run(capsys, "estimate-alpha", "--delta", "1e-8",
                         "--regime", "near-one")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["alpha_estimate"] - 0.9999999763473) < 1e-12


def test_estimate_small(capsys):
    code, out, err = run(capsys, "estimate-alpha", "--delta", "1e-8",
                         "--regime", "small")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["alpha_estimate"] - 1.7324547146006334e-08) < 1e-20


def test_estimate_rejects_out_of_regime(capsys):
    code, out, err = run(capsys, "estimate-alpha", "--delta=-1e-8",
                         "--regime", "small")
    assert code == 1
    assert "error" in err


def test_estimate_requires_regime(capsys):
    with pytest.raises(SystemExit) as err:
        main(["estimate-alpha", "--delta", "1e-8"])
    assert err.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("estimate-alpha", "--delta", "1e-8", "--regime", "small"),
    ("report-hall", "--alpha", "1e-4"),
], ids=["estimate-alpha", "report-hall"])
def test_verbose_is_not_an_option_without_a_log(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--verbose"])
    assert err.value.code == 1
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err


# -- report-hall -------------------------------------------------------------

def test_report_hall(capsys):
    code, out, err = run(capsys, "report-hall", "--alpha", "1e-4")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta_classical"] == 1.0
    assert abs(payload["relative_correction"] - 1e-4 * 0.5772156649015329) < 1e-18
    assert set(payload["bracket_normalizations"]) == \
        {"section_5_2", "section_6_3"}


def test_report_hall_out_of_regime(capsys):
    code, out, err = run(capsys, "report-hall", "--alpha", "0.5")
    assert code == 1
    assert "error" in err


def test_report_hall_custom_field(capsys):
    code, out, err = run(capsys, "report-hall", "--alpha", "1e-5",
                         "--e", "2.0", "--B", "4.0")
    assert code == 0
    assert json.loads(out)["theta_classical"] == 0.125


@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+3", "-1.5", "-2"])
def test_report_hall_reads_a_negative_number_after_its_flag(capsys, value):
    code, out, err = run(capsys, "report-hall", "--alpha", "1e-4", "--B", value)
    assert (code, err) == (0, "")
    assert run(capsys, "report-hall", "--alpha", "1e-4", "--B=" + value) == \
        (0, out, "")


@pytest.mark.parametrize("argv, message", [
    (("--e", "0"), "e must be nonzero"),
    (("--e", "1e-320"), "leaves the float range"),
    (("--e", "1e-200", "--B", "1e-200"), "leaves the float range"),
    (("--B", "nan"), "B must be finite"),
    (("--hbar", "nan"), "hbar must be finite"),
    (("--e", "inf"), "e must be finite"),
])
def test_report_hall_rejects_inputs_outside_the_float_range(capsys, argv, message):
    code, out, err = run(capsys, "report-hall", "--alpha", "0.0005", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("fracsymp: error: ") and message in err


# -- error lines -------------------------------------------------------------

@pytest.mark.parametrize("argv, log", [
    (("quantize", model("canonical_pair")), "status: regular\n"),
    (("simulate", "--landau", "1", "1", "1", "--alpha", "0.5",
      "--T", "1", "--h", "0.1"), ""),
    (("estimate-alpha", "--delta", "1e-8", "--regime", "small"), ""),
    (("report-hall", "--alpha", "1e-4"), ""),
], ids=["quantize", "simulate", "estimate-alpha", "report-hall"])
def test_out_in_a_missing_directory_is_reported(capsys, tmp_path, argv, log):
    target = str(tmp_path / "absent" / "result")
    code, out, err = run(capsys, *argv, "--out", target)
    assert (code, out) == (1, "")
    assert err == (log + "fracsymp: error: [Errno 2] No such file or "
                   "directory: %r\n" % target)


_ORBIT = ("simulate", "--landau", "1", "1", "1", "--T", "1", "--h", "0.1")


@pytest.mark.parametrize("argv, message", [
    (_ORBIT, "--alpha is required with --landau"),
    (_ORBIT + ("--alpha", "0.5", "--z0", "1"), "--z0 must be 'x,y', got '1'"),
    (("simulate", model("landau_strong"), "--T", "1", "--h", "0.1",
      "--initial", "0,0"),
     "a numeric order is required to integrate; set alpha in the file or "
     "pass --alpha"),
], ids=["landau-without-alpha", "one-number-z0", "symbolic-model-order"])
def test_simulate_parameter_errors_are_one_line(capsys, tmp_path, argv, message):
    out_path = tmp_path / "run.csv"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out, err) == (1, "", "fracsymp: error: %s\n" % message)
    assert not out_path.exists()


def test_measure_frequency_of_a_short_run_fails_after_writing(capsys, tmp_path):
    out_path = tmp_path / "short.csv"
    code, out, err = run(capsys, *_ORBIT, "--alpha", "0.5",
                         "--measure-frequency", "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == ("fracsymp: error: phase sweep 3.485 rad covers fewer "
                   "than 3 turns\n")
    assert out_path.exists() and (tmp_path / "short.csv.json").exists()


def test_simulate_verbose_names_what_it_wrote(capsys, tmp_path):
    out_path = str(tmp_path / "v.csv")
    code, out, err = run(capsys, *_ORBIT, "--alpha", "0.5", "--verbose",
                         "--out", out_path)
    assert (code, out) == (0, "")
    assert err == "wrote %s and %s.json (11 samples)\n" % (out_path, out_path)


def test_estimate_near_one_below_rounding(capsys):
    code, out, err = run(capsys, "estimate-alpha", "--delta", "1e-17",
                         "--regime", "near-one")
    assert (code, err) == (0, "")
    assert '"alpha_estimate": 1,' in out


def test_quantize_reports_a_gamma_factor_of_a_variable(capsys, tmp_path):
    path = tmp_path / "gamma_q.model"
    path.write_text("variables: q, p\nalpha: 1\nkinetic q: p\n"
                    "kinetic p: Gamma(q)\npotential: 1/2*(q^2 + p^2)\n")
    assert run(capsys, "quantize", str(path)) == (
        1, "", "fracsymp: error: gamma factor depends on 'q'; it is kept "
               "opaque\n")


@pytest.mark.parametrize("command", ["quantize", "simulate"])
@pytest.mark.parametrize("potential", ["0^(-1)*q", "(q - q)^(-1)"])
def test_zero_to_a_negative_power_is_reported_with_its_line(
        capsys, tmp_path, command, potential):
    path = tmp_path / "pole.model"
    path.write_text("variables: q, p\nalpha: 1\nkinetic q: p\n"
                    "kinetic p: 0\npotential: %s\n" % potential)
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--T", "1", "--h", "0.1", "--initial", "1,0",
                 "--out", str(tmp_path / "run.csv")]
    assert run(capsys, *argv) == (
        1, "", "fracsymp: error: line 5: zero raised to a negative power\n")


def test_every_input_error_has_one_root():
    from fracsymp import FracsympError
    from fracsymp.dynamics import DynamicsError
    from fracsymp.expr import ExprError, ZeroToNegativePower
    from fracsymp.frac import FracError, InvalidOrder
    from fracsymp.hall import HallError
    from fracsymp.modelfile import ModelFileError
    from fracsymp.symplectic import SymplecticError

    for cls in (ExprError, FracError, SymplecticError, DynamicsError,
                HallError, ModelFileError, ZeroToNegativePower, InvalidOrder):
        assert issubclass(cls, FracsympError)
    assert issubclass(ZeroToNegativePower, ZeroDivisionError)
    assert issubclass(InvalidOrder, ValueError)


# -- top level ---------------------------------------------------------------

def test_no_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1
    capsys.readouterr()


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["transmogrify"])
    assert err.value.code == 1
    capsys.readouterr()


def test_successive_calls_share_no_state(capsys):
    code, out, err = run(capsys, "quantize", model("canonical_pair"), "--verbose")
    assert code == 0 and err.startswith("variables: ")
    assert run(capsys, "quantize", model("canonical_pair")) == \
        (0, out, "status: regular\n")
    with pytest.raises(SystemExit) as exc:
        main(["quantize", model("canonical_pair"), "--alpha"])
    assert exc.value.code == 1
    assert "expected one argument" in capsys.readouterr().err
    assert run(capsys, "quantize", model("canonical_pair")) == \
        (0, out, "status: regular\n")


def test_build_parser_returns_a_new_parser_each_call(capsys):
    """`main` keeps one parser; `build_parser` still makes a new one, which
    reads a command line as `main` does."""
    first, second = build_parser(), build_parser()
    assert first is not second
    args = first.parse_args(["report-hall", "--alpha", "-1e-3"])
    assert (args.command, args.alpha, args.e) == ("report-hall", -0.001, 1.0)
    with pytest.raises(SystemExit) as exc:
        second.parse_args(["quantize"])
    assert exc.value.code == 1
    assert "required: model" in capsys.readouterr().err
